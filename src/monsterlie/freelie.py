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
recursive call or shortens the left argument at fixed content, and
results are memoized per word pair.  A recursion budget guards the walk;
exceeding it signals a bug, not a big input.
"""

from __future__ import annotations

from fractions import Fraction
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


def lyndon_words_maxlen(alphabet: list, maxlen: int) -> list[Word]:
    """All Lyndon words of length <= maxlen over the sorted alphabet, lex order (Duval)."""
    letters = sorted(alphabet)
    if not letters or maxlen < 1:
        return []
    k = len(letters)
    out = []
    w = [0]
    while w:
        out.append(tuple(letters[i] for i in w))
        w = (w * (maxlen // len(w) + 1))[:maxlen]
        while w and w[-1] == k - 1:
            w.pop()
        if w:
            w[-1] += 1
        else:
            break
    return out


def lyndon_basis(alphabet: list, degree_of, degree: int) -> list[Word]:
    """Lyndon words of exact total degree, lexicographically sorted.

    degree_of maps a letter to its positive integer degree.
    """
    if degree < 1:
        return []
    mindeg = min((degree_of(a) for a in alphabet), default=None)
    if mindeg is None or mindeg < 1:
        return [] if mindeg is None else _raise_bad_grading()
    maxlen = degree // mindeg
    words = []
    for w in lyndon_words_maxlen(alphabet, maxlen):
        if sum(degree_of(a) for a in w) == degree:
            words.append(w)
    return sorted(words)


def _raise_bad_grading():
    raise ValueError("letter degrees must be positive")


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

_PAIR_CACHE: dict[tuple[Word, Word], dict] = {}
_CACHE_LIMIT = 400_000
_BUDGET = 100_000


def _is_standard_pair(u: Word, v: Word) -> bool:
    # valid when u is a letter, or the right standard factor of u dominates v
    if len(u) == 1:
        return True
    _u1, u2 = std_factorize(u)
    return u2 >= v


def bracket_words(u: Word, v: Word) -> dict:
    """[b_u, b_v] as a basis combination with integer coefficients."""
    return _bracket_words(u, v, [_BUDGET])


def _bracket_words(u: Word, v: Word, budget: list) -> dict:
    if u == v:
        return {}
    if u > v:
        return elt_scale(_bracket_words(v, u, budget), -1)
    key = (u, v)
    hit = _PAIR_CACHE.get(key)
    if hit is not None:
        return hit
    budget[0] -= 1
    if budget[0] < 0:
        raise RuntimeError("straightening recursion budget exceeded; indicates a cycle bug")
    if _is_standard_pair(u, v):
        result = {u + v: 1}
    else:
        u1, u2 = std_factorize(u)
        inner_right = _bracket_words(u2, v, budget)   # shorter total content
        inner_left = _bracket_words(u1, v, budget)    # shorter total content

        def br(x, y):
            return _bracket_words(x, y, budget)

        term1 = elt_bracket({u1: 1}, inner_right, br)
        term2 = elt_bracket({u2: 1}, inner_left, br)
        result = elt_add(term1, elt_scale(term2, -1))
    if len(_PAIR_CACHE) < _CACHE_LIMIT:
        _PAIR_CACHE[key] = result
    return result


def bracket_free(a: dict, b: dict) -> dict:
    """Bilinear extension of the basis bracket; exact, no truncation."""
    return elt_bracket(a, b, bracket_words)


# ---------------------------------------------------------------------------
# dimension solvers

def witt_dimensions(gen_counts: dict[int, int], dmax: int) -> dict[int, int]:
    """Graded dimensions L_d of the free Lie algebra with a_d generators in degree d.

    Solves prod_d (1 - q^d)^(-L_d) = (1 - sum_d a_d q^d)^(-1) degree by
    degree in exact arithmetic, via log of both sides.
    """
    for d, a in gen_counts.items():
        if d < 1:
            raise ValueError("generator degrees must be positive")
        if a < 0:
            raise ValueError("generator counts must be nonnegative")
    # G = log (1/(1 - A)) = sum_{m>=1} A^m / m, coefficients up to dmax
    g = [Fraction(0)] * (dmax + 1)
    a_vec = [Fraction(0)] * (dmax + 1)
    for d, a in gen_counts.items():
        if d <= dmax:
            a_vec[d] = Fraction(a)
    power = a_vec[:]  # A^m
    m = 1
    while any(power[1:]):
        for n in range(1, dmax + 1):
            g[n] += power[n] / m
        m += 1
        nxt = [Fraction(0)] * (dmax + 1)
        for i in range(1, dmax + 1):
            if a_vec[i] == 0:
                continue
            for jj in range(1, dmax + 1 - i):
                if power[jj]:
                    nxt[i + jj] += a_vec[i] * power[jj]
        power = nxt
    # g_n = sum_{d | n} L_{n/d} / d  =>  peel
    dims: dict[int, int] = {}
    for n in range(1, dmax + 1):
        s = g[n]
        for d in range(2, n + 1):
            if n % d == 0:
                s -= Fraction(dims.get(n // d, 0), d)
        if s.denominator != 1:
            raise AssertionError(f"non-integral Witt dimension at degree {n}: {s}")
        dims[n] = int(s)
    return dims


def witt_root_dimensions(mult: dict, degree_bound: int, degree_of=None) -> dict:
    """Root-graded dimensions of the free Lie algebra on a root-graded alphabet.

    mult maps a lattice point (root) to a generator count.  Points are
    pairs of integers; the truncation uses degree_of (default 2a + b),
    which must be positive on every supplied point.
    """
    if degree_of is None:
        degree_of = lambda r: 2 * r[0] + r[1]
    pts = {r: int(c) for r, c in mult.items() if c}
    for r in pts:
        if degree_of(r) < 1:
            raise ValueError("root degrees must be positive for truncation")
    f = {r: Fraction(c) for r, c in pts.items() if degree_of(r) <= degree_bound}
    g: dict = {}
    power = dict(f)
    m = 1
    while power:
        for r, c in power.items():
            g[r] = g.get(r, Fraction(0)) + c / m
        m += 1
        nxt: dict = {}
        for r1, c1 in f.items():
            for r2, c2 in power.items():
                r = (r1[0] + r2[0], r1[1] + r2[1])
                if degree_of(r) <= degree_bound:
                    nxt[r] = nxt.get(r, Fraction(0)) + c1 * c2
        power = nxt
    dims: dict = {}
    for r in sorted(g, key=lambda r: (degree_of(r), r)):
        s = g[r]
        for d in range(2, gcd(abs(r[0]), abs(r[1])) + 1):
            if r[0] % d == 0 and r[1] % d == 0:
                s -= Fraction(dims.get((r[0] // d, r[1] // d), 0), d)
        if s.denominator != 1:
            raise AssertionError(f"non-integral Witt dimension at root {r}: {s}")
        if s:
            dims[r] = int(s)
    return dims
