"""Independent reference computations used as test oracles.

Everything here except the Lyndon-word enumerator, which lists the
bases the tests range over, recomputes results by a different route
than the package code: associative-algebra expansion instead of Lyndon
straightening, an explicit linear recurrence instead of the Jacobi
recursion, the pentagonal-number series instead of the Euler product,
the log-derivative recurrence for 1/Delta instead of q-series
reciprocals, Moebius counting instead of the Witt solver's peeling,
the exp series on whole Fraction elements through monster.bracket
instead of the integer series on basis keys, per-bound knapsacks over a
window's base levels instead of one shared descent table, the
generator peel through the full log series instead of its first-order
term, a word's inverse atom by atom instead of each symbol keyed as its
inverse symbol, the 2x2 matrix model as a product of Fraction matrices
instead of one integer form over a common denominator, and the mirror
transport of a built MIRROR instance symbol by symbol instead of the
mirrored words built directly.
"""

from fractions import Fraction
from math import comb, inf

from monsterlie import monster
from monsterlie.completion import TruncAut, _emit_word, compose, filtration_level, log_unipotent
from monsterlie.indices import SupportConfig
from monsterlie.monster import EMINUS, WPOS, MonsterElt, key_degree, key_sort
from monsterlie.presentation import (GenSymbol, GroupWord, RelationInstance, c_const,
                                     expand_weyl, realize_word, sym)


# ---------------------------------------------------------------------------
# free Lie algebra via the free associative algebra

def is_lyndon_naive(w) -> bool:
    return len(w) > 0 and all(w < w[i:] for i in range(1, len(w)))


def std_split_naive(w):
    # right factor = lexicographically least proper suffix, by direct scan
    best, besti = None, None
    for i in range(1, len(w)):
        if best is None or w[i:] < best:
            best, besti = w[i:], i
    return w[:besti], w[besti:]


def assoc_expansion(w) -> dict:
    """Expansion of the bracketed Lyndon word in the free associative algebra."""
    if len(w) == 1:
        return {tuple(w): 1}
    u, v = std_split_naive(w)
    a, b = assoc_expansion(u), assoc_expansion(v)
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            for m, s in ((m1 + m2, 1), (m2 + m1, -1)):
                n = out.get(m, 0) + s * c1 * c2
                if n:
                    out[m] = n
                else:
                    out.pop(m, None)
    return out


def assoc_commutator(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            for m, s in ((m1 + m2, 1), (m2 + m1, -1)):
                n = out.get(m, 0) + s * c1 * c2
                if n:
                    out[m] = n
                else:
                    out.pop(m, None)
    return out


def lie_to_lyndon(poly: dict) -> dict:
    """Coordinates of a Lie element in the Lyndon basis.

    Uses the triangularity of the expansion: the lexicographically least
    monomial of a bracketed Lyndon word is the word itself, with
    coefficient 1.  Raises if the input is not a Lie element.
    """
    p = dict(poly)
    res: dict = {}
    while p:
        w = min(p)
        if not is_lyndon_naive(w):
            raise ValueError(f"leading monomial {w} is not Lyndon; input not Lie")
        c = p.pop(w)
        res[w] = c
        for m, cc in assoc_expansion(w).items():
            if m == w:
                continue
            n = p.get(m, 0) - c * cc
            if n:
                p[m] = n
            else:
                p.pop(m, None)
    return res


def bracket_oracle(u, v) -> dict:
    """[b_u, b_v] in Lyndon coordinates, computed associatively."""
    return lie_to_lyndon(assoc_commutator(assoc_expansion(u), assoc_expansion(v)))


# ---------------------------------------------------------------------------
# Lyndon words by Duval's enumeration: the bases the tests range over
# (windows of up to 13 letters, too many for a scan of all words)

def lyndon_words_maxlen(alphabet: list, maxlen: int) -> list:
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


def lyndon_basis(alphabet: list, degree_of, degree: int) -> list:
    """Lyndon words of exact total degree, lexicographically sorted;
    degree_of maps a letter to its positive integer degree."""
    if degree < 1 or not alphabet:
        return []
    mindeg = min(map(degree_of, alphabet))
    if mindeg < 1:
        raise ValueError("letter degrees must be positive")
    return sorted(w for w in lyndon_words_maxlen(alphabet, degree // mindeg)
                  if sum(map(degree_of, w)) == degree)


# ---------------------------------------------------------------------------
# string action recurrence

def lowering_coefficients(j: int) -> list:
    """beta_l with [lowering, string_l] = beta_l * string_(l-1), solved from
    the weight identity l*beta_l - (l+1)*beta_(l+1) = 2l+1-j, beta_0 = 0."""
    beta = [Fraction(0)]
    for l in range(j):
        w = 2 * l + 1 - j
        beta.append(Fraction(l * beta[l] - w, l + 1))
    return beta


# ---------------------------------------------------------------------------
# closed forms for the mixed-sector pairings (derived once by hand in the
# enveloping algebra of the real sl2; the package derives them recursively)

def diag_pairing(l: int, j: int) -> dict:
    s = (-1) ** (l + 1) * comb(j - 1, l)
    return {"h1": s * (j - l), "h2": s * (l + 1)}


def up_pairing(l: int, j: int) -> int:
    # coefficient of the raising real generator in [string_(l+1), mirror_l]
    return (-1) ** l * comb(j - 1, l) * (j - l - 1)


def down_pairing(l: int, j: int) -> int:
    # coefficient of the lowering real generator in [string_l, mirror_(l+1)]
    return (-1) ** (l + 1) * comb(j - 1, l) * (j - l - 1)


# ---------------------------------------------------------------------------
# counting

def mobius(n: int) -> int:
    if n == 1:
        return 1
    m, p, cnt = n, 2, 0
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            cnt += 1
        else:
            p += 1
    if m > 1:
        cnt += 1
    return (-1) ** cnt


def lyndon_count(alphabet_size: int, length: int) -> int:
    """Number of Lyndon words of exact length n over a letters (Moebius/necklace)."""
    total = 0
    for d in range(1, length + 1):
        if length % d == 0:
            total += mobius(d) * alphabet_size ** (length // d)
    assert total % length == 0
    return total // length


# ---------------------------------------------------------------------------
# pentagonal-number route to the weight-12 cusp form

def euler_function_pentagonal(nmax: int) -> list:
    """prod (1-q^n) as a list of coefficients, via the pentagonal sparse series."""
    out = [0] * (nmax + 1)
    k = 0
    while True:
        hit = False
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e <= nmax:
                out[e] += (-1) ** (kk % 2)
                hit = True
        if not hit and k > 0:
            break
        k += 1
    return out


def _poly_mul(a: list, b: list, nmax: int) -> list:
    out = [0] * (nmax + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for jj, y in enumerate(b):
            if i + jj > nmax:
                break
            out[i + jj] += x * y
    return out


def delta_pentagonal(nmax: int) -> dict:
    """Coefficients of the weight-12 cusp form, q * euler^24, exact integers."""
    e = euler_function_pentagonal(nmax)
    acc = e
    power = 24
    result = [1] + [0] * nmax
    while power:
        if power & 1:
            result = _poly_mul(result, acc, nmax)
        power >>= 1
        if power:
            acc = _poly_mul(acc, acc, nmax)
    return {n + 1: result[n] for n in range(nmax + 1)}


def _sigma(k: int, n: int) -> int:
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def j_coefficients_recurrence(nmax: int) -> dict:
    """c(n) of J = E4^3/Delta - 744 for -1 <= n <= nmax, in integers.

    1/Delta = q^-1 sum b(n) q^n, where prod (1-q^n)^-24 = sum b(n) q^n
    satisfies the log-derivative recurrence n b(n) = 24 sum_{k=1..n}
    sigma_1(k) b(n-k); E4 = 1 + 240 sum sigma_3(n) q^n, and E4^3 takes
    two convolutions.
    """
    top = max(nmax + 1, 1)  # J's q^n is q^(n+1) of E4^3 * sum b(n) q^n
    b = [1]
    for n in range(1, top + 1):
        t = 24 * sum(_sigma(1, k) * b[n - k] for k in range(1, n + 1))
        assert t % n == 0
        b.append(t // n)
    e4 = [1] + [240 * _sigma(3, n) for n in range(1, top + 1)]
    qj = _poly_mul(_poly_mul(_poly_mul(e4, e4, top), e4, top), b, top)
    qj[1] -= 744
    return {n: qj[n + 1] for n in range(-1, nmax + 1)}


# ---------------------------------------------------------------------------
# descent accounting, one knapsack per question and bound

def descent_pad(N: int, cfg: SupportConfig) -> int:
    """Max total string descent of any supported word whose all-bottom
    degree fits inside the window: max sum(j-1) with sum(j+2) <= N.

    completion._descent_pad reads the same value off a shared knapsack
    table; this is its reference."""
    levels = tuple(cfg.base_levels())
    best = [0] * (max(N, 0) + 1)
    for c in range(1, max(N, 0) + 1):
        b = best[c - 1]
        for j in levels:
            if j + 2 <= c:
                b = max(b, best[c - (j + 2)] + (j - 1))
        best[c] = b
    return best[max(N, 0)]


def descent_floor(E: int, cfg: SupportConfig) -> int:
    """Least degree reachable by any supported term of degree > E under
    repeated lowering by f(-1).  E+1 means nothing up there can move.

    completion._descent_floor's reference: a min-cost knapsack per
    target for positive words, the gl2 ladder, and for E < -3 the
    negative words, which the package never meets (its bounds are
    >= -2)."""
    levels = tuple(cfg.base_levels())
    cands = []
    if levels:
        # positive words: min bottom degree sum(j+2) whose fully raised
        # top sum(2j+1) clears E
        target = E + 1
        if target <= 0:
            cands.append(min(j + 2 for j in levels))
        else:
            f = [0] + [None] * target
            for t in range(1, target + 1):
                best = None
                for j in levels:
                    prev = f[max(0, t - (2 * j + 1))]
                    if prev is not None and (best is None or prev + j + 2 < best):
                        best = prev + j + 2
                f[t] = best
            if f[target] is not None:
                cands.append(f[target])
    if E < 1:
        # the gl2 ladder: the degree 1 generator descends to f(-1)
        cands.append(-1)
    if E < -3 and levels:
        # negative words sit above E once E is deep; they descend to
        # minus their fully raised top, within the cost room -E-1
        room = -E - 1
        best = [0] * (room + 1)
        for c in range(1, room + 1):
            b = best[c - 1]
            for j in levels:
                if j + 2 <= c:
                    b = max(b, best[c - (j + 2)] + 2 * j + 1)
            best[c] = b
        if best[room] > 0:
            cands.append(-best[room])
    return min(cands) if cands else E + 1


# ---------------------------------------------------------------------------
# the 2x2 matrix model in Fraction arithmetic

def _mat_mul(A, B):
    return ((A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
            (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]))


def _mat_inv(A):
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    return ((A[1][1] / det, -A[0][1] / det), (-A[1][0] / det, A[0][0] / det))


def symbol_matrix(s, index) -> tuple:
    """2x2 model of one symbol at a fixed string; `index` fixes the
    exponents for H kinds."""
    if index == -1:
        aa, bb, cc = 1, -1, Fraction(1)
    else:
        l, j, _k = index
        aa, bb, cc = l + 1, j - l, c_const(l, j)
    z, o = Fraction(0), Fraction(1)
    if s.kind in ("X", "Y", "W") and s.index != index:
        raise ValueError("matrix model is single-string: cross-index symbol")
    if s.kind == "X":
        return ((o, s.param), (z, o))
    if s.kind == "Y":
        return ((o, z), (cc * s.param, o))
    if s.kind == "H1":
        return ((s.param ** aa, z), (z, o))
    if s.kind == "H2":
        return ((o, z), (z, s.param ** (-bb)))
    if s.kind == "W":
        return ((z, s.param), (-1 / s.param, z))
    raise ValueError(f"unknown symbol kind {s.kind!r}")


def eval_word_matrix(w: GroupWord, index) -> tuple:
    """The 2x2 model of w as a product of Fraction matrices, an inverse
    symbol by the adjugate over the determinant.

    presentation._word_matrix reads the same matrix off one integer form
    over a common denominator, built from cached symbol matrices; this
    is its reference."""
    M = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for s, e in w.factors:
        A = symbol_matrix(s, index)
        M = _mat_mul(M, _mat_inv(A) if e == -1 else A)
    return M


# ---------------------------------------------------------------------------
# the exponential series in Fraction arithmetic

def exp_series(x: MonsterElt, y: MonsterElt, bound: int, cfg: SupportConfig) -> MonsterElt:
    """exp(ad x)(y) with terms above bound discarded (and recorded).

    completion._exp_image runs the same series on one basis key in
    integer arithmetic; this is its reference.  When x lowers degrees, content hidden above the exactness bound
    (clamped here or inherited from y) can slide back down; the result
    is then marked exact only below the support-derived descent floor."""
    acc = y
    term = y
    n = 0
    clamped = False
    limit = 4 * (bound + 8) + 4 * abs(min(0, y.min_degree() or 0))
    while not term.is_zero():
        n += 1
        if n > limit:
            raise RuntimeError("exponential series did not terminate; "
                               "input violates the nilpotence/degree-growth precondition")
        term = monster.bracket(x, term).scaled(Fraction(1, n))
        kept = {k: c for k, c in term.terms.items() if key_degree(k) <= bound}
        if len(kept) != len(term.terms):
            clamped = True
            term = MonsterElt(kept, exact_to=min(term.exact_to, bound))
        acc = acc + term
    tail = min(y.exact_to, bound if clamped else inf)
    if tail < inf and (x.min_degree() or 0) < 0:
        acc = MonsterElt(acc.terms, exact_to=descent_floor(tail, cfg) - 1)
    return acc


# ---------------------------------------------------------------------------
# inversion atom by atom

def invert(g: TruncAut) -> TruncAut:
    """g^-1 as the reversed word of inverted atoms, keyed afresh: exp(ad x)
    by exp(ad -x), the torus scaling (s, t) by (1/s, 1/t), a permutation
    by its inverse.  presentation.realize_word keys a symbol's inverse as
    the inverse symbol instead; this is the reference for those, and the
    inverse of any word, exp_ad atoms included."""
    atoms = []
    for a in reversed(g.word):
        if a[0] == "exp":
            atoms.append(("exp", -a[1]))
        elif a[0] == "torus":
            atoms.append(("torus", 1 / a[1], 1 / a[2]))
        else:
            atoms.append(("perm", a[1].inverse()))
    return TruncAut(g.cfg, word=tuple(atoms))


# ---------------------------------------------------------------------------
# the generator peel through the full log series

def approximate_by_log(g, i: int) -> GroupWord:
    """GroupWord peeling g into generator exponentials through degree i.

    completion.approximate_by_generators reads each degree's log
    component off the first-order term g(h1) - h1; this is its
    reference, taking the degree-d component of the whole log series
    (log_unipotent) of the residual at every degree."""
    if i > g.N:
        raise ValueError("cannot certify beyond the truncation window")
    if filtration_level(g).level < 1:
        raise ValueError("approximation requires a unipotent automorphism")
    symbols: list = []
    residual = g
    for d in range(1, i + 1):
        xd = {k: c for k, c in log_unipotent(residual).terms.items() if key_degree(k) == d}
        if not xd:
            continue
        step: list = []
        for key in sorted(xd, key=key_sort):
            c = xd[key]
            if key == EMINUS:
                step.append(sym("X", -1, c))
            elif isinstance(key, tuple) and key[0] == WPOS:
                step.extend(_emit_word(key[1], c))
            else:
                raise RuntimeError("log of a unipotent residual left the positive sector")
        symbols.extend(step)
        residual = compose(invert(realize_word(GroupWord.of(*step), g.cfg)), residual)
    return GroupWord.of(*symbols)


# ---------------------------------------------------------------------------
# the mirror transport, symbol by symbol

def mirror_symbol(s: GenSymbol) -> GenSymbol:
    if s.kind == "X":
        return GenSymbol("Y", s.index, s.param)
    if s.kind == "Y":
        return GenSymbol("X", s.index, s.param)
    if s.kind in ("H1", "H2"):
        return GenSymbol(s.kind, None, Fraction(s.param.denominator, s.param.numerator))
    raise ValueError("expand Weyl abbreviations before mirroring")


def mirror_word(w: GroupWord) -> GroupWord:
    return GroupWord([(mirror_symbol(s), e) for s, e in expand_weyl(w).factors])


def mirror_relation(inst: RelationInstance) -> RelationInstance:
    """Transport a MIRROR-class instance to an equivalent ADJOINT one.

    Both sides are Weyl-expanded and mirrored symbol by symbol; the
    result has klass "ADJOINT", and rid, index and params are kept.
    presentation.build_instance(..., mirrored=True) builds the mirrored
    words directly; this is its reference."""
    if inst.klass != "MIRROR":
        raise ValueError(f"{inst.rid} is {inst.klass}, not MIRROR")
    return inst._replace(klass="ADJOINT", lhs=mirror_word(inst.lhs),
                         rhs=mirror_word(inst.rhs))
