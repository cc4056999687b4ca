"""Automorphisms of the completed algebra, truncated to a degree window.

A TruncAut represents an automorphism of the positive formal completion
restricted to degrees <= N, as a word: a tuple of atomic factors, each
("exp", x) for a pro-summable exponential (stored as ("exp", x, cache
key, integer form of x), both built once with the word), ("torus", s,
t) for the semisimple scaling by s^a t^b on the root (a, b), or
("perm", j, moved) for an index permutation at level j.  Application
walks the factors right to left, so it is a composition of linear maps
on basis keys: each atom sends y to the sum of c * image(key) over the
terms of y, and the image of each basis key is computed once per atom
and clamp bound, then memoized (exp images by the exp series on that
single key, run on integer numerators over one denominator: the basis
brackets have integer structure constants, so each step's denominator
is the last one times x's denominator and n).  The word resolves each
atom's memo slot once, when it is built.  Images are stored as integer
numerators over a common denominator, and a word carries y through its
atoms in that integer form (IntVec), so Fractions are built only for
the returned element; equal compares generator images in that form.
Composition is concatenation, inversion reverses the tuple and inverts
each atom, so inverses stay cheap and exact.

Soundness: every application tracks the exact_to bound of monster
elements.  An atom's result is exact through the least of its images'
bounds and a bound from the input: the input's own exact_to E, or
descent_floor(E) - 1 for a lowering exponential (a multiple of f(-1)),
since content hidden above E can slide down that far.  This is never
above what the exp series gives on the whole element.  Application
retries with a widened internal bound when lowering factors eat into
the requested window, so a returned element is always complete through
the requested degree unless the input itself was the limit.

The filtration level of g is measured on generators: the largest i such
that g(y) - y sits in degrees >= k + i for every generator y of degree
k, as far as the window can see.  log recovers x with exp(ad x) = g
from the operator series log(id + (g - id)) applied to h1: the degree
component of x at the root (a, b) is -1/a times the corresponding
component of log(g)(h1), since [x, h1] = -sum a(root) x_root and a >= 1
on the whole positive side.

approximate_by_generators peels g level by level: at degree d it takes
the degree-d component of log of the residual, writes it in Lyndon
coordinates, and emits one-parameter letter symbols for letters and
group commutators for bracket words (the lowest term of the
Baker-Campbell-Hausdorff log of a commutator word is the Lie bracket).
The emitted word agrees with g modulo the (i+1)-st filtration subgroup.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf
from typing import NamedTuple

from . import freelie, monster
from .indices import SupportConfig
from .monster import (EMINUS, FMINUS, H1, H2, WNEG, WPOS, MonsterElt,
                      _min_none, key_degree, key_root, key_sort)


def generator_keys(cfg: SupportConfig) -> list:
    """Basis keys of the algebra generators supported by cfg."""
    gens = [H1, H2, EMINUS, FMINUS]
    for j in cfg.base_levels():
        for k in range(1, cfg.cap(j) + 1):
            L = (j, k, 0)
            gens.append((WPOS, (L,)))
            gens.append((WNEG, (L,)))
    return gens


# ---------------------------------------------------------------------------
# descent accounting
#
# The only degree-lowering exponential atom is a multiple of f(-1): one
# application moves every term down by exactly one degree, and a basis
# word can descend only as far as its all-bottom string configuration.
# So a term hidden above some degree E can resurface no lower than the
# cheapest bottom configuration whose fully raised form still clears E.
# These two knapsacks over the supported base levels turn that into (a)
# how much extra headroom a window needs and (b) an honest exactness
# floor after a lowering exponential has acted on a clamped series.

_PAD_CACHE: dict = {}
_FLOOR_CACHE: dict = {}


def _word_levels(cfg: SupportConfig) -> tuple:
    return tuple(sorted(j for j in cfg.base_levels() if cfg.cap(j) >= 1))


def _descent_pad(N: int, cfg: SupportConfig) -> int:
    """Max total string descent of any supported word whose all-bottom
    degree fits inside the window: max sum(j-1) with sum(j+2) <= N."""
    levels = _word_levels(cfg)
    key = (levels, N)
    hit = _PAD_CACHE.get(key)
    if hit is None:
        best = [0] * (max(N, 0) + 1)
        for c in range(1, max(N, 0) + 1):
            b = best[c - 1]
            for j in levels:
                if j + 2 <= c:
                    b = max(b, best[c - (j + 2)] + (j - 1))
            best[c] = b
        hit = best[max(N, 0)]
        _PAD_CACHE[key] = hit
    return hit


def _descent_floor(E: int, cfg: SupportConfig) -> int:
    """Least degree reachable by any supported term of degree > E under
    repeated lowering by f(-1).  E+1 means nothing up there can move."""
    levels = _word_levels(cfg)
    key = (levels, E)
    hit = _FLOOR_CACHE.get(key)
    if hit is not None:
        return hit
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
    hit = min(cands) if cands else E + 1
    _FLOOR_CACHE[key] = hit
    return hit


# ---------------------------------------------------------------------------
# atoms as memoized linear maps on basis keys, in integer arithmetic
#
# Every atom is linear, so it acts through the images of single basis
# keys.  _ATOM_CACHE maps an atom's cache key to its slot, {bound: {basis
# key: image}}; an image is the flat tuple (exact_to, den, k1, n1, k2, n2,
# ...): integer numerators n_i over one positive common denominator den,
# with the keys interned in _INTERN.  Exp images depend on the clamp
# bound; torus and perm images do not and sit under the bound None.  A
# word resolves each atom's slot once, when it is keyed (_keyed_word), so
# applying an atom never hashes its key.  Word application carries an
# element as (den, {key: numerator}) through every atom and builds
# Fractions only at the end.  monster.clear_caches() empties both tables,
# slots held by live words included, and the two descent tables above.


class _SlotTable(dict):
    """atom key -> slot; clear() also empties the slots words still hold."""

    def clear(self):
        for slot in self.values():
            slot.clear()
        super().clear()


_ATOM_CACHE: dict = _SlotTable()
_INTERN: dict = {}
monster.CACHES.extend((_ATOM_CACHE, _INTERN, _PAD_CACHE, _FLOOR_CACHE))


def _atom_slot(atom) -> dict:
    return _ATOM_CACHE.setdefault(atom[2] if atom[0] == "exp" else atom, {})


def _keyed_word(word, cfg: SupportConfig) -> tuple:
    """(word, slots): word with each exp atom as ("exp", x, key, form),
    both built here once: the key (terms, exact_to, support levels,
    lowers), and the form (den, {key: numerator}, (min_degree, exact_to))
    of x that _exp_image brackets with; slots holds each atom's
    _ATOM_CACHE slot.  Letters are checked against the window before an
    atom gets a key, so the cache only ever holds supported atoms.  Torus
    and perm atoms are their own keys."""
    levels = _word_levels(cfg)
    out = []
    for a in word:
        if a[0] == "exp" and (len(a) == 2 or a[2][2] != levels):
            x = a[1]
            x.validate_support(cfg)
            m = x.min_degree()
            a = ("exp", x, (frozenset(x.terms.items()), x.exact_to, levels, (m or 0) < 0),
                 (*_int_form(x.terms), (m, x.exact_to)))
        out.append(a)
    return tuple(out), tuple(_atom_slot(a) for a in out)


class IntVec(NamedTuple):
    """An element as integer numerators over one positive denominator:
    the coefficient of key k is terms[k] / den, exact through exact_to."""
    den: int
    terms: dict
    exact_to: int | None = None


def _int_form(terms: dict) -> tuple:
    """(den, {key: numerator}) for a Fraction term dict: numerators over
    the least common denominator, so gcd(den, *numerators) == 1."""
    den = 1
    for c in terms.values():
        d = c.denominator
        if den % d:
            den = den // gcd(den, d) * d
    return den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()}


def _to_vec(y: MonsterElt) -> IntVec:
    return IntVec(*_int_form(y.terms), y.exact_to)


def _reduced(den: int, nums: dict) -> tuple:
    """(den, nums) divided by gcd(den, *nums)."""
    g = gcd(den, *nums.values())
    if g == 1:
        return den, nums
    return den // g, {k: v // g for k, v in nums.items()}


def _to_elt(v: IntVec) -> MonsterElt:
    den = v.den
    return MonsterElt._of({k: Fraction(n, den) for k, n in v.terms.items()}, v.exact_to)


def _flat_image(den: int, nums: dict, exact_to) -> tuple:
    flat = [exact_to, den]
    for k, n in nums.items():
        flat.append(_INTERN.setdefault(k, k))
        flat.append(n)
    return tuple(flat)


def _exp_image(form: tuple, key, bound: int, cfg: SupportConfig) -> tuple:
    """Flat image of one basis key under exp(ad x), terms above bound
    discarded (and recorded); form is x's (den, {key: numerator},
    (min_degree, exact_to)), as _keyed_word stores it in the atom.

    The series term_n = [x, term_{n-1}] / n runs on integer numerators:
    each step brackets them with freelie.elt_bracket over
    monster.term_bracket, whose structure constants are integers, and
    multiplies the step's denominator by x's denominator and by n.  A
    term takes bracket's exactness bound (monster._result_bound) and is
    cut at bound, and a cut caps its exact_to at bound.  The terms are
    summed over the last denominator and reduced by one gcd.  When x
    lowers degrees, content hidden above a cut can slide back down; the
    image is then marked exact only below the support-derived descent
    floor."""
    xden, xnums, xside = form
    den = 1
    term: dict = {key: 1}
    term_exact = None
    terms = [(den, term)]
    exact_to = None
    clamped = False
    limit = 4 * (bound + 8) + 4 * abs(min(0, key_degree(key)))
    n = 0
    while term:
        n += 1
        if n > limit:
            raise RuntimeError("exponential series did not terminate; "
                               "input violates the nilpotence/degree-growth precondition")
        raw = freelie.elt_bracket(xnums, term, monster.term_bracket)
        rb = inf
        if xside[1] is not None or term_exact is not None:
            rb = monster._result_bound(
                xside, (min(key_degree(k) for k in term), term_exact))
        term_exact = None
        if rb is not inf:
            if rb < 0:  # a bound MonsterElt refuses, as bracket would
                raise ValueError("exactness bound must be nonnegative")
            raw = {k: m for k, m in raw.items() if key_degree(k) <= rb}
            term_exact = rb
        term = {k: m for k, m in raw.items() if key_degree(k) <= bound}
        if len(term) != len(raw):
            clamped = True
            term_exact = _min_none(term_exact, bound)
        exact_to = _min_none(exact_to, term_exact)
        den *= xden * n
        terms.append((den, term))
    if clamped and (xside[0] or 0) < 0:
        exact_to = _descent_floor(bound, cfg) - 1
    acc: dict = {}
    for d, t in terms:
        f = den // d
        for k, m in t.items():
            m = acc.get(k, 0) + m * f
            if m:
                acc[k] = m
            else:
                acc.pop(k, None)
    return _flat_image(*_reduced(den, acc), exact_to)


def _image(atom, images: dict, key, bound, cfg) -> tuple:
    """Image of one basis key under atom, from (or into) images: exp
    atoms by the integer series _exp_image, torus atoms by s^a t^b,
    perm atoms by relabeling."""
    hit = images.get(key)
    if hit is not None:
        return hit
    tag = atom[0]
    if tag == "exp":
        res = _exp_image(atom[3], key, bound, cfg)
    elif tag == "torus":
        a, b = key_root(key)
        res = _flat_image(*_int_form({key: atom[1] ** a * atom[2] ** b}), None)
    elif tag == "perm":
        res = _flat_image(1, _perm_key(atom, images, key), None)
    else:
        raise ValueError(f"unknown atomic factor {tag!r}")
    images[key] = res
    return res


def _perm_key(atom, images: dict, key) -> dict:
    """Index relabeling of one basis key, as integer coefficients (its
    image sits over den 1): letters directly, longer words through the
    images of their standard factors."""
    if not isinstance(key, tuple):
        return {key: 1}
    tag, w = key
    if len(w) == 1:
        j, k, l = w[0]
        if j == atom[1]:
            k = dict(atom[2]).get(k, k)
        return {(tag, ((j, k, l),)): 1}
    u, v = freelie.std_factorize(w)
    iu = _image(atom, images, (tag, u), None, None)
    iv = _image(atom, images, (tag, v), None, None)
    res: dict = {}
    for ku, cu in zip(iu[2::2], iu[3::2]):
        for kv, cv in zip(iv[2::2], iv[3::2]):
            for w2, c in freelie.bracket_words(ku[1], kv[1]).items():
                kk = (tag, w2)
                n = res.get(kk, 0) + cu * cv * c
                if n:
                    res[kk] = n
                else:
                    res.pop(kk, None)
    return res


def _atom_step(atom, slot: dict, den: int, nums: dict, lo, bound, cfg) -> tuple:
    """atom applied to the element nums/den, exact through lo: returns
    (den, nums, exact_to) of sum c * image(key) over its terms.

    The numerators are scaled by the lcm L of the touched images'
    denominators, so the sum runs on integers over den * L; one gcd
    reduces the result.  exact_to is the least of the images' bounds and
    the input's: lo itself, or for a lowering exponential the descent
    floor below it, since content hidden above lo can slide down that
    far."""
    if atom[0] == "exp":
        if lo is not None and atom[2][3]:
            lo = _descent_floor(lo, cfg) - 1
    else:
        bound = None
    images = slot.get(bound)
    if images is None:
        images = slot[bound] = {}
    hits = []
    lcm = 1
    for k, c in nums.items():
        img = images.get(k)
        if img is None:
            img = _image(atom, images, k, bound, cfg)
        e = img[0]
        if e is not None and (lo is None or e < lo):
            lo = e
        d = img[1]
        if lcm % d:
            lcm = lcm // gcd(lcm, d) * d
        hits.append((c, img))
    out: dict = {}
    for c, img in hits:
        m = c * (lcm // img[1])
        pairs = iter(img)
        next(pairs)
        next(pairs)
        for kk, v in zip(pairs, pairs):
            n = out.get(kk, 0) + m * v
            if n:
                out[kk] = n
            else:
                del out[kk]
    return (*_reduced(den * lcm, out), lo)


def _apply_atom(atom, y: MonsterElt, bound: int, cfg: SupportConfig) -> MonsterElt:
    """atom applied to y: one _atom_step on y's integer form."""
    den, nums = _int_form(y.terms)
    return _to_elt(IntVec(*_atom_step(atom, _atom_slot(atom), den, nums,
                                      y.exact_to, bound, cfg)))


def _invert_atom(atom):
    tag = atom[0]
    if tag == "exp":
        return ("exp", -atom[1])
    if tag == "torus":
        return ("torus", 1 / atom[1], 1 / atom[2])
    if tag == "perm":
        inv = tuple(sorted((v, k) for k, v in atom[2]))
        return ("perm", atom[1], inv)
    raise ValueError(f"unknown atomic factor {tag!r}")


# ---------------------------------------------------------------------------

class TruncAut:
    """Automorphism of the completion, stored mod degree > N."""

    __slots__ = ("N", "cfg", "word", "_steps")

    def __init__(self, N: int, cfg: SupportConfig, word):
        if N < 1:
            raise ValueError("truncation must be >= 1")
        self.N = N
        self.cfg = cfg
        self.word, slots = _keyed_word(word, cfg)
        # (atom, slot) in application order: rightmost factor first
        self._steps = tuple(zip(reversed(self.word), reversed(slots)))

    # construction ---------------------------------------------------------
    @classmethod
    def identity(cls, N: int, cfg: SupportConfig):
        return cls(N, cfg, word=())

    # application ----------------------------------------------------------
    def apply(self, y, need: int | None = None):
        """Image of y, complete at least through degree `need` (default N)
        unless y's own exactness bound makes that impossible.  y is a
        MonsterElt or an IntVec, and the image comes back in y's form."""
        need = self.N if need is None else need
        if type(y) is IntVec:
            return self._apply_word(y, need)
        return _to_elt(self._apply_word(_to_vec(y), need))

    def _apply_word(self, y: IntVec, need: int) -> IntVec:
        # lowering factors can pull clamped content back into the window,
        # so start with enough headroom that nothing in reach is lost
        lowers = any(a[0] == "exp" and a[2][3] for a in self.word)
        R = need + 2 + (_descent_pad(need, self.cfg) if lowers else 0)
        cfg = self.cfg
        prev = None
        while True:
            den, nums, lo = y
            for atom, slot in self._steps:
                den, nums, lo = _atom_step(atom, slot, den, nums, lo, R, cfg)
            if lo is None or lo >= need:
                return IntVec(den, nums, lo)
            if prev is not None and lo <= prev:
                return IntVec(den, nums, lo)  # limited by the input's own exactness
            prev = lo
            R += (need - lo) + 2

    # comparison -----------------------------------------------------------
    def equal(self, other: "TruncAut") -> bool:
        """Same image of every generator mod degree > N, compared as
        gcd-reduced integer forms."""
        _check_match(self, other)
        return all(self._generator_form(g) == other._generator_form(g)
                   for g in generator_keys(self.cfg))

    def _generator_form(self, g) -> tuple:
        """(den, {key: numerator}) of g's image truncated at N, reduced by
        the gcd so that equal images give equal pairs."""
        v = self.apply(IntVec(1, {g: 1}))
        N = self.N
        return _reduced(v.den, {k: n for k, n in v.terms.items() if key_degree(k) <= N})

    def report_dict(self) -> dict:
        """Deterministic JSON-ready dump of the generator images."""
        gens = []
        for g in generator_keys(self.cfg):
            img = self.apply(MonsterElt({g: 1})).truncated_above(self.N)
            terms = [[monster.format_term(k), str(img.terms[k])]
                     for k in sorted(img.terms, key=key_sort)]
            gens.append({"generator": monster.format_term(g), "image": terms})
        return {"truncation": self.N,
                "caps": {str(j): self.cfg.cap(j) for j in sorted(self.cfg.caps)},
                "images": gens,
                "word": [_atom_str(a) for a in self.word]}

    def __repr__(self):
        return f"<TruncAut N={self.N} word[{len(self.word)}]>"


def _atom_str(atom) -> str:
    if atom[0] == "exp":
        return f"exp({monster.format_elt(atom[1])})"
    if atom[0] == "torus":
        return f"torus({atom[1]},{atom[2]})"
    return f"perm(level={atom[1]}, {dict(atom[2])})"


def _check_match(g: TruncAut, h: TruncAut) -> None:
    if g.N != h.N or g.cfg != h.cfg:
        raise ValueError("window mismatch: automorphisms use different truncation or support")


# ---------------------------------------------------------------------------
# constructors

def exp_ad(x: MonsterElt, N: int, cfg: SupportConfig) -> TruncAut:
    """exp(ad x) as a truncated automorphism.

    Accepts x in the positive nilpotent sector (any mix of e(-1) and
    positive words: min degree >= 1, so the series is degree-finite) or
    a pure multiple of f(-1) (locally nilpotent).  Cartan input is
    semisimple, not unipotent: use torus().  Negative imaginary content
    is rejected: its exponential does not act on the positive
    completion.
    """
    keys = set(x.terms)
    pos_ok = all(k == EMINUS or (isinstance(k, tuple) and k[0] == WPOS) for k in keys)
    if pos_ok:
        return TruncAut(N, cfg, word=(("exp", x),))
    if keys <= {FMINUS}:
        return TruncAut(N, cfg, word=(("exp", x),))
    if keys <= {H1, H2}:
        raise ValueError("Cartan element acts semisimply; use torus(), not exp_ad()")
    raise ValueError("exp_ad needs a positive-sector element or a multiple of f(-1); "
                     "negative imaginary content has no action on the positive completion")


def torus(s, t, N: int, cfg: SupportConfig) -> TruncAut:
    s = Fraction(s)
    t = Fraction(t)
    if s == 0 or t == 0:
        raise ValueError("torus parameters must be nonzero")
    return TruncAut(N, cfg, word=(("torus", s, t),))


def compose(*auts: TruncAut) -> TruncAut:
    """Product g1 g2 ... gk as operators: the rightmost factor acts first."""
    if not auts:
        raise ValueError("compose needs at least one factor")
    first = auts[0]
    for g in auts[1:]:
        _check_match(first, g)
    return TruncAut(first.N, first.cfg, word=tuple(a for g in auts for a in g.word))


def invert(g: TruncAut) -> TruncAut:
    """Inverse automorphism: the reversed word of inverted atoms."""
    return TruncAut(g.N, g.cfg, word=tuple(_invert_atom(a) for a in reversed(g.word)))


# ---------------------------------------------------------------------------
# structure probes

class FiltrationLevel(NamedTuple):
    level: int
    window_limited: bool


def filtration_level(g: TruncAut) -> FiltrationLevel:
    """Largest i visible in the window with g(y) - y in degrees >= deg(y) + i
    for every generator y.  Requires g to fix the Cartan mod higher degree."""
    cands = []
    for gen in generator_keys(g.cfg):
        y = MonsterElt({gen: 1})
        diff = (g.apply(y) - y).truncated_above(g.N)
        if gen in (H1, H2) and not diff.is_zero():
            if (diff.min_degree() or 0) <= 0:
                raise ValueError("not unipotent-type: Cartan is not fixed mod higher degree")
        if not diff.is_zero():
            cands.append(diff.min_degree() - key_degree(gen))
    if not cands:
        return FiltrationLevel(g.N, True)
    m = min(cands)
    if m > g.N:
        return FiltrationLevel(g.N, True)
    return FiltrationLevel(m, False)


def _gen_pad(cfg: SupportConfig) -> int:
    """Depth of the deepest negative-degree generator.

    Results destined for exp_ad (recovered or transported logs) are
    computed this far beyond the window so the rebuilt automorphism has
    complete images on the f-side generators through degree N.
    """
    return max((j + 2 for j in cfg.base_levels()), default=0)


def log_unipotent(g: TruncAut) -> MonsterElt:
    """x with exp_ad(x) = g mod the window, for unipotent g."""
    lvl = filtration_level(g)
    if lvl.level < 1:
        raise ValueError("log requires a unipotent automorphism (filtration level >= 1)")
    B = g.N + _gen_pad(g.cfg)
    h1 = MonsterElt({H1: 1})
    # D = log(g) as an operator, applied to h1
    term = (g.apply(h1, B) - h1).truncated_above(B)
    dh1 = MonsterElt.zero()
    k = 1
    while not term.is_zero():
        dh1 = dh1 + term.scaled(Fraction((-1) ** (k + 1), k))
        if k > B + 2:
            raise RuntimeError("log series did not terminate within the window")
        term = (g.apply(term, B) - term).truncated_above(B)
        k += 1
    out = {}
    for key, c in dh1.terms.items():
        a = key_root(key)[0]
        if a < 1:
            raise RuntimeError("log produced content outside the positive sector")
        out[key] = -c / a
    return MonsterElt(out, exact_to=dh1.exact_to if dh1.exact_to is not None else B)


def Ad(g: TruncAut, x: MonsterElt) -> MonsterElt:
    """Adjoint action on the positive sector: g applied to x."""
    for k in x.terms:
        if not (k == EMINUS or (isinstance(k, tuple) and k[0] == WPOS)):
            raise ValueError("Ad is defined on the positive sector only")
    return g.apply(x, g.N + _gen_pad(g.cfg))


def aut_check(g: TruncAut, pairs) -> dict:
    """Spot-check multiplicativity: g[a,b] = [g a, g b] mod the window."""
    failures = []
    n = 0
    for a, b in pairs:
        n += 1
        lhs = g.apply(monster.bracket(a, b))
        ga = g.apply(a)
        gb = g.apply(b)
        rhs = monster.bracket(ga, gb)
        cut = g.N
        for e in (lhs.exact_to, rhs.exact_to):
            if e is not None:
                cut = min(cut, e)
        if lhs.truncated_above(cut) != rhs.truncated_above(cut):
            failures.append({
                "a": monster.format_elt(a),
                "b": monster.format_elt(b),
                "lhs": monster.format_elt(lhs.truncated_above(cut)),
                "rhs": monster.format_elt(rhs.truncated_above(cut)),
                "compared_through_degree": cut,
            })
    return {"checked": n, "failures": failures, "pass": not failures}


# ---------------------------------------------------------------------------
# constructive density: peeling a unipotent automorphism into generator words

def realize_tokens(tokens, N: int, cfg: SupportConfig) -> TruncAut:
    """Word of one-parameter symbols ("X", -1 | (l,j,k), u) as a TruncAut;
    leftmost token is the leftmost factor."""
    word = []
    for kind, idx, u in tokens:
        if kind != "X":
            raise ValueError(f"unrealizable token kind {kind!r}")
        if idx == -1:
            x = MonsterElt.e_minus(u)
        else:
            l, j, k = idx
            x = MonsterElt.e_letter(l, j, k, c=u)
        word.append(("exp", x))
    return TruncAut(N, cfg, word=tuple(word))


def format_tokens(tokens) -> str:
    parts = []
    for kind, idx, u in tokens:
        if idx == -1:
            parts.append(f"{kind}(-1;{u})")
        else:
            l, j, k = idx
            parts.append(f"{kind}({l},{j},{k};{u})")
    return "".join(parts) if parts else "1"


def _inv_tokens(tokens):
    return [(kind, idx, -u) for kind, idx, u in reversed(tokens)]


def _emit_word(word, coeff) -> list:
    """Token word whose log has lowest term coeff * (basis word)."""
    if len(word) == 1:
        j, k, l = word[0]
        return [("X", (l, j, k), coeff)]
    u, v = freelie.std_factorize(word)
    A = _emit_word(u, Fraction(1))
    B = _emit_word(v, coeff)
    return A + B + _inv_tokens(A) + _inv_tokens(B)


def approximate_by_generators(g: TruncAut, i: int) -> list:
    """Word over {X(-1;u), X(l,j,k;u)} agreeing with g mod filtration i+1.

    Peels one degree at a time: the degree-d component of log of the
    residual is written in the Lyndon basis and realized by letter
    exponentials and group commutators, then divided out.
    """
    if i > g.N:
        raise ValueError("cannot certify beyond the truncation window")
    lvl = filtration_level(g)
    if lvl.level < 1:
        raise ValueError("approximation requires a unipotent automorphism")
    tokens: list = []
    residual = g
    for d in range(1, i + 1):
        x = log_unipotent(residual)
        xd = x.component(d)
        if xd.is_zero():
            continue
        step: list = []
        for key in sorted(xd.terms, key=key_sort):
            c = xd.terms[key]
            if key == EMINUS:
                step.append(("X", -1, c))
            elif isinstance(key, tuple) and key[0] == WPOS:
                step.extend(_emit_word(key[1], c))
            else:
                raise RuntimeError("log of a unipotent residual left the positive sector")
        tokens.extend(step)
        piece = realize_tokens(step, g.N, g.cfg)
        residual = compose(invert(piece), residual)
    return tokens


def equal_mod_level(g: TruncAut, h: TruncAut, i: int) -> bool:
    """True when g^-1 h lies in the i-th filtration subgroup as far as the
    window can certify."""
    lvl = filtration_level(compose(invert(g), h))
    return lvl.level >= i or (lvl.window_limited and lvl.level >= min(i, g.N))
