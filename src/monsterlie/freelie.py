"""Free Lie algebra on an ordered graded alphabet, in the Lyndon word basis.

Words are tuples of letters; letters may be anything hashable and
totally ordered.  A word is Lyndon when it is strictly smaller than all
of its proper suffixes.  The basis element attached to a Lyndon word is
its right-normed standard bracketing: bracket the standard factorization
w = u v recursively, where v is the longest proper suffix of w that is
itself Lyndon (equivalently, the lexicographically smallest proper
suffix).

Elements are plain dicts mapping Lyndon words to coefficients; helper
functions below keep them normalized (no zero values).

Straightening [b_u, b_v] into the basis uses the classical rewriting:
for Lyndon u < v the pair is "standard" when u is a single letter or the
right standard factor of u is >= v, in which case the concatenation u+v
is Lyndon with standard factorization (u, v).  Otherwise split u = u1 u2
and apply Jacobi:

    [b_u, b_v] = [b_u1, [b_u2, b_v]] - [b_u2, [b_u1, b_v]].

Each rewriting step either shortens the total content handed to a
recursive call or shortens the left argument at fixed content; a bug
that breaks this metric recurses without end and raises RecursionError.
The recursion is a functools.cache function, so each ordered word pair
is straightened once, until monster.clear_caches().

Graded dimensions come from one integer solver of the Witt formula
prod_r (1 - x^r)^(-L_r) = 1/(1 - F) over a root-graded alphabet
(witt_root_dimensions); a grading by degree alone is the root grading
d -> (0, d).  An exact-division check at each root replaces rational
arithmetic.
"""

from __future__ import annotations

from functools import cache
from math import gcd

Word = tuple


def is_lyndon(word: Word) -> bool:
    if len(word) == 0:
        return False
    for i in range(1, len(word)):
        if not word < word[i:]:
            return False
    return True


def std_factorize(word: Word) -> tuple[Word, Word]:
    """Standard factorization (u, v) of a Lyndon word of length >= 2."""
    if len(word) < 2:
        raise ValueError("standard factorization needs length >= 2")
    best = None
    for i in range(1, len(word)):
        suf = word[i:]
        if best is None or suf < best:
            best = suf
    v = best
    u = word[: len(word) - len(v)]
    return u, v


# ---------------------------------------------------------------------------
# element helpers: dict word -> coefficient; monster uses them on its
# term dicts (basis key -> coefficient) too

def elt_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for w, c in b.items():
        n = out.get(w, 0) + c
        if n:
            out[w] = n
        else:
            out.pop(w, None)
    return out

def elt_scale(a: dict, c) -> dict:
    if c == 0:
        return {}
    return {w: c * x for w, x in a.items()}


def elt_bracket(a: dict, b: dict, br) -> dict:
    """Bilinear extension to a and b of br, a bracket of two keys that
    returns a term dict; the one loop every bracket of sums runs."""
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            c = c1 * c2
            if not c:
                continue
            for k, v in br(k1, k2).items():
                n = out.get(k, 0) + c * v
                if n:
                    out[k] = n
                else:
                    out.pop(k, None)
    return out


# ---------------------------------------------------------------------------
# straightening

def bracket_words(u: Word, v: Word) -> dict:
    """[b_u, b_v] as a basis combination with integer coefficients, as a
    fresh dict: callers may mutate it without touching the cache."""
    return dict(_bracket_words(u, v))


@cache
def _bracket_words(u: Word, v: Word) -> dict:
    if u == v:
        return {}
    if u > v:
        return elt_scale(_bracket_words(v, u), -1)
    if len(u) > 1:
        u1, u2 = std_factorize(u)
    # standard when u is a letter, or the right standard factor of u dominates v
    if len(u) == 1 or u2 >= v:
        return {u + v: 1}
    inner_right = _bracket_words(u2, v)   # shorter total content
    inner_left = _bracket_words(u1, v)    # shorter total content
    term1 = elt_bracket({u1: 1}, inner_right, _bracket_words)
    term2 = elt_bracket({u2: 1}, inner_left, _bracket_words)
    return elt_add(term1, elt_scale(term2, -1))


# ---------------------------------------------------------------------------
# dimension solvers

def witt_root_dimensions(mult: dict, degree_bound: int) -> dict:
    """Root-graded dimensions of the free Lie algebra on a root-graded alphabet.

    mult maps a root (a, b), a pair of integers, to its generator count
    f_r, a nonnegative integer (anything else raises ValueError).  Roots
    are truncated by the degree 2a + b, which must be positive on every
    root with f_r != 0.  The result maps each root of degree <=
    degree_bound to its dimension L_r, where that is nonzero.

    Solves prod_r (1 - x^r)^(-L_r) = P = 1/(1 - F) in integers, degree by
    degree: P_0 = 1 and P_r = sum_s f_s P_{r-s}.  The same pass builds
    M = (deg F) P, the degree derivation of log P, so M_r = deg(r) (log
    P)_r = sum over d | gcd(r) of N_{r/d}, with N_r = deg(r) L_r.
    Peeling the d > 1 terms leaves N_r, and L_r = N_r / deg(r) is an
    exact division: a remainder is a fault and raises.
    """
    f = []
    for r, c in mult.items():
        if not c >= 0 or c % 1:
            raise ValueError(f"generator count at {r} must be a nonnegative integer, got {c!r}")
        if c:
            deg = 2 * r[0] + r[1]
            if deg < 1:
                raise ValueError("root degrees must be positive for truncation")
            if deg <= degree_bound:
                f.append((r, deg, int(c)))
    P = [{(0, 0): 1}]  # P[n]: root -> coefficient of 1/(1 - F), degree n
    N: dict = {}
    dims: dict = {}
    for n in range(1, degree_bound + 1):
        Pn: dict = {}
        M: dict = {}
        for (a, b), ds, fs in f:
            if ds <= n:
                for (qa, qb), pq in P[n - ds].items():
                    r = (qa + a, qb + b)
                    t = fs * pq
                    Pn[r] = Pn.get(r, 0) + t
                    M[r] = M.get(r, 0) + ds * t
        P.append(Pn)
        for r, v in M.items():
            g = gcd(r[0], r[1])
            for d in range(2, g + 1):
                if g % d == 0:
                    v -= N.get((r[0] // d, r[1] // d), 0)
            L, rem = divmod(v, n)
            if rem:
                raise AssertionError(f"non-integral Witt dimension at root {r}: {v}/{n}")
            N[r] = v
            if L:
                dims[r] = L
    return dims
