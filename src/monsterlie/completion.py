"""Automorphisms of the completed algebra, truncated to a degree window.

A TruncAut represents an automorphism of the positive formal completion
restricted to degrees <= N, as a word; N is the degree bound of its
support window (a SupportConfig), which nothing else sets.  The word is
a tuple of atomic factors, each ("exp", x) for a pro-summable
exponential (stored as ("exp", x, cache key, integer form of x), both
built once, when the atom is keyed, and holding no key numbering: the
form is the triple below, by key), ("torus", s, t) for the semisimple
scaling by s^a t^b on the root (a, b), or ("perm", sigma) for an index
permutation sigma (a permaut.SparsePerm).  The kernel runs on small
integer ids, not on basis keys: a word numbers each key it meets once,
in first-seen order, and keeps that numbering for life.  Application walks the factors
right to left, so it is a composition of linear maps on ids: each atom
sends y to the sum of c * image(id) over the terms of y, and the image
of each id is computed once per atom and clamp bound, then memoized (exp
images by the exp series on that single key, run on integer numerators
over one denominator: the basis brackets have integer structure
constants, kept in one memoized table of id pairs, so each step's
denominator is the last one times x's denominator and n).  The word
resolves each atom's memo slot once, when it is built.  Every integer
vector the kernel builds, memoizes or carries has one form, the
gcd-reduced triple (den, {id: numerator}, exact_to): integer numerators
over one positive common denominator.  Images are stored that way, and a
word carries y through its atoms that way, so Fractions and keys are
built only for the returned element.  One pass of a word carries a whole
block of such triples, one kernel call per atom, and hands back each
triple gcd-reduced: equal pushes the generator block through each side
once and compares the images in that form.  Every application, index
permutations included, goes through that block pass.  Composition is
concatenation: factors that share one key numbering hand the composite
their (atom, slot) steps as they are, so nothing is keyed again, and
factors numbered apart are keyed again in the current numbering
(realize_word builds a word as the product of one-symbol words, each
keyed once per window, so a realized word keys no atom).  Inversion
reverses the tuple and inverts each atom, so inverses stay cheap and
exact.  TruncAut checks every atom and every
element it is applied to against its window.  An exp series whose x is
one exact u+ word skips the keys whose bracket with it the clamp would
cut whole.

Soundness: every application tracks the exact_to bound of monster
elements.  An atom's result is exact through the least of its images'
bounds and a bound from the input: the input's own exact_to E, or
descent_floor(E) - 1 for a lowering exponential (a multiple of f(-1)),
since content hidden above E can slide down that far.  This is never
above what the exp series gives on the whole element.  apply clamps
every atom at one bound with headroom and retries with a widened bound
when lowering factors eat into the requested window, so a returned
element is always complete through the requested degree unless the
input itself, or an exp atom's own x, was the limit.  The generator
images need no headroom: the generators are exact, so the same
accounting, run backwards from N, gives each atom the least clamp bound
that leaves the result exact through N (N after the last lowering atom,
raised at each lowering atom to the inverse of the descent floor), and
every word's generator block takes one pass at those bounds, exact
through N unless an exp atom's own x is inexact, which no bound repairs.

The filtration level of g is measured on generators: the largest i such
that g(y) - y sits in degrees >= k + i for every generator y of degree
k, as far as the window can see.  log recovers x with exp(ad x) = g
from the operator series log(id + (g - id)) applied to h1: the degree
component of x at the root (a, b) is -1/a times the corresponding
component of log(g)(h1), since [x, h1] = -sum a(root) x_root and a >= 1
on the whole positive side.

approximate_by_generators peels g level by level: at degree d the
residual g lies in the d-th filtration subgroup G_d, so the degree-d
component of its log is read off the degree-d part of g(h1) - h1 (for
g in G_d, (g - 1)^k raises degree by at least kd, so no higher term of
the log series reaches degree d).  It writes that component in Lyndon
coordinates and emits one-parameter letter symbols for letters and
group commutators for bracket words (the lowest term of the
Baker-Campbell-Hausdorff log of a commutator word is the Lie bracket).
It returns a presentation.GroupWord, realized by realize_word and
printed by format_word like any other word; the emitted word agrees
with g modulo the (i+1)-st filtration subgroup.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache, partial
from itertools import repeat
from math import gcd, inf
from types import MappingProxyType
from typing import NamedTuple

from . import freelie, monster
from .indices import SupportConfig
from .monster import (EMINUS, FMINUS, H1, H2, WNEG, WPOS, MonsterElt, key_degree,
                      key_root, key_sort)


def generator_keys(cfg: SupportConfig) -> tuple:
    """Basis keys of the algebra generators supported by cfg, in the order
    every generator block and report uses."""
    return (H1, H2, EMINUS, FMINUS, *((tag, ((j, k, 0),)) for j in cfg.base_levels()
                                      for k in range(1, cfg.cap(j) + 1) for tag in (WPOS, WNEG)))


# ---------------------------------------------------------------------------
# descent accounting
#
# The only degree-lowering exponential atom is a multiple of f(-1): one
# application moves every term down by exactly one degree, and a basis
# word descends at most to its all-bottom string configuration, a
# multiset of base levels j at degree sum(j+2) whose fully raised top is
# sum(2j+1).  One knapsack over the levels every exp atom's key carries
# (atom[2][2]) gives both the headroom a window needs (value j-1) and the
# exactness floor after a lowering exponential (value 2j+1); the floor's
# inverse gives the clamp bound a lowering step needs for a result exact
# through E.  Every bound E that reaches them is >= -2 (TruncAut.apply
# refuses need < 0, and a lowering step maps E >= -2 to floor(E) - 1 >=
# -2): no negative word sits above such an E.


def _knapsack(levels: tuple, value, cap: int) -> list:
    """best[c] for 0 <= c <= cap: the largest sum of value(j) over
    multisets of levels with bottom degree sum(j+2) <= c."""
    items = [(j + 2, value(j)) for j in levels]
    best = [0] * (cap + 1)
    for c in range(1, cap + 1):
        b = best[c - 1]
        for w, v in items:
            if w <= c and best[c - w] + v > b:
                b = best[c - w] + v
        best[c] = b
    return best


@cache
def _descent_pad(N: int, levels: tuple) -> int:
    """Max total string descent of any supported word whose all-bottom
    degree fits inside the window: max sum(j-1) with sum(j+2) <= N."""
    return _knapsack(levels, lambda j: j - 1, max(N, 0))[-1]


@cache
def _descent_floor(E: int, levels: tuple) -> int:
    """Least degree reachable by any supported term of degree > E >= -2
    under repeated lowering by f(-1): the least bottom degree >= min(j+2)
    whose raised top clears E, or the gl2 ladder's -1.  E+1 means nothing
    up there can move."""
    # the gl2 ladder: the degree 1 generator descends to f(-1)
    cands = [-1] if E < 1 else []
    if levels:
        # within this cap the lowest level alone clears E
        best = _knapsack(levels, lambda j: 2 * j + 1, max(E + 1, 0) + max(levels) + 2)
        cands.append(bisect_left(best, E + 1, min(levels) + 2))
    return min(cands, default=E + 1)


@cache
def _descent_lift(E: int, levels: tuple) -> int:
    """Least clamp bound B >= -2 at which a lowering exponential still
    leaves its result exact through E >= -2: the least B with
    _descent_floor(B, levels) - 1 >= E, the inverse of the floor, which
    never falls as B grows."""
    B = -2
    while _descent_floor(B, levels) - 1 < E:
        B += 1
    return B


# ---------------------------------------------------------------------------
# atoms as memoized linear maps on basis key ids, in integer arithmetic
#
# The kernel never hashes a basis key in its inner loops: each key gets a
# small integer id once, from a _KeyIds numbering that keeps the id ->
# key and id -> degree lists beside its key -> id index, so a degree test
# is a list lookup.  _ids() is the current numbering; a word takes it
# when it is built, works in it for life, and is the one holder of it:
# the kernel functions below take it as an argument.  Every atom is
# linear, so it acts through the images of single ids.  _slot maps an
# atom's cache key to its memo, {bound: {id: image}}; an image is the
# gcd-reduced triple (den, {id: numerator}, exact_to), exact_to inf when
# exact, shared by every block that reads it, so nothing mutates it.  An
# image that fixes its key is _unit(ids, i, exact_to), one triple shared
# by every slot.  Exp images depend on the clamp bound; torus and perm
# images do not and sit under the bound None.  An exp series brackets ids
# through _bracket_ids, the structure-constant table (ids, i, j) -> {id:
# int}, which asks monster.term_bracket on a miss; every zero bracket is
# the one read-only _ZERO.  A word resolves each atom's slot once, when
# it is keyed (_keyed_word), or takes it from factors of its numbering
# (_product), so applying an atom never hashes its key.
# Word application carries a block of elements as (den, {id: numerator},
# exact_to) triples through every atom, one _atom_block call per atom,
# which returns each triple gcd-reduced; keys come back only for the
# returned element, the reports and the filtration level.
# _slot, _ids, _bracket_ids, _unit, _generator_ids (a window's
# generator keys as ids of one numbering) and the three descent tables
# above are functools.cache functions listed in monster.CACHES, so
# monster.clear_caches() drops them together: a slot's ids are those of
# the numbering current when _slot made it, which every word that
# resolved the slot works in.  A word built after a clear starts a new
# numbering and resolves new slots; a word built before it keeps its
# numbering and its slots, whose images stay valid, since an image
# depends only on its atom key, clamp bound and id; they are freed with
# the word.  A keyed atom holds no numbering, so words on either side of
# a clear share their atoms.


class _KeyIds:
    """A numbering of basis keys by small integers, in first-seen order:
    of(key) is key's id, key[i] and deg[i] the key and degree of id i."""

    __slots__ = ("_index", "key", "deg")

    def __init__(self):
        self._index = {}
        self.key = []
        self.deg = []

    def of(self, key) -> int:
        i = self._index.get(key)
        if i is None:
            i = self._index[key] = len(self.key)
            self.key.append(key)
            self.deg.append(key_degree(key))
        return i


@cache
def _ids() -> _KeyIds:
    return _KeyIds()


@cache
def _slot(key) -> dict:
    """The memo {bound: {id: image}} of the atom with cache key key."""
    return {}


# the one zero bracket, shared by every pair of keys that commute
_ZERO = MappingProxyType({})


@cache
def _bracket_ids(ids: _KeyIds, i: int, j: int):
    """[key i, key j] as {id: int} over ids, or _ZERO when it vanishes;
    shared, so callers only read it."""
    return ({ids.of(k): c for k, c in monster.term_bracket(ids.key[i], ids.key[j]).items()}
            or _ZERO)


@cache
def _unit(ids: _KeyIds, i: int, exact_to) -> tuple:
    """The image (1, {i: 1}, exact_to) of an atom that fixes the key with
    id i of ids, shared by every slot that stores it, so never mutated."""
    return 1, {i: 1}, exact_to


@cache
def _generator_ids(ids: _KeyIds, cfg: SupportConfig) -> tuple:
    """The ids in ids of generator_keys(cfg), in that order."""
    return tuple(map(ids.of, generator_keys(cfg)))


monster.CACHES.extend((_slot, _ids, _bracket_ids, _unit, _generator_ids, _descent_pad,
                       _descent_floor, _descent_lift))


def _keyed_word(word, cfg: SupportConfig) -> tuple:
    """(word, slots): word with each exp atom as ("exp", x, key, form),
    both built once, when the atom is first keyed or meets a window of
    other base levels: the key (terms, exact_to, support levels, lowers),
    and x's integer form _int_form(x.terms, x.exact_to), by key, which
    _exp_image numbers when it runs; slots holds each atom's memo
    slot, in the numbering current now.  Neither holds a numbering, so a
    keyed atom stays valid in any word on a window of its levels.  Torus
    and perm atoms are their own keys.  Every atom is checked against cfg
    before any slot is resolved: exp letters in the window, and x (when
    keyed) of min degree >= 1 or a multiple of f(-1); nonzero torus
    parameters; a permutation within its level's cap; no other tag."""
    levels = tuple(cfg.base_levels())
    out = []
    for a in word:
        tag = a[0]
        if tag == "exp":
            x = a[1]
            if len(a) == 2 or a[2][2] != levels:
                m = x.min_degree()
                if m < 1 and x.terms.keys() != {FMINUS}:
                    if x.terms.keys() <= {H1, H2}:
                        raise ValueError(
                            "Cartan element acts semisimply; use torus(), not exp_ad()")
                    raise ValueError("exp_ad needs a positive-sector element or a multiple of "
                                     "f(-1); negative imaginary content has no action on the "
                                     "positive completion")
                a = ("exp", x, (frozenset(x.terms.items()), x.exact_to, levels, m < 0),
                     _int_form(x.terms, x.exact_to))
            x.validate_support(cfg)
        elif tag == "torus":
            if not (a[1] and a[2]):
                raise ValueError("torus parameters must be nonzero")
        elif tag == "perm":
            sigma = a[1]
            cap = cfg.cap(sigma.level)
            bad = [k for k in sigma.support if k > cap]
            if bad:
                raise ValueError(
                    f"permutation support {bad} exceeds cap {cap} at level {sigma.level}")
        else:
            raise ValueError(f"unknown atomic factor {tag!r}")
        out.append(a)
    return tuple(out), tuple(_slot(a[2] if a[0] == "exp" else a) for a in out)


def _int_form(terms: dict, exact_to) -> tuple:
    """The triple (den, {k: numerator}, exact_to) of a Fraction term dict
    {k: c}: numerators over the least common denominator, so gcd(den,
    *numerators) == 1."""
    den = 1
    for c in terms.values():
        d = c.denominator
        if den % d:
            den = den // gcd(den, d) * d
    return den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, exact_to


def _to_vec(y: MonsterElt, ids: _KeyIds) -> tuple:
    """y as (den, {id: numerator}, exact_to) in the numbering ids: the
    coefficient of id i is nums[i] / den, exact through exact_to."""
    return _int_form({ids.of(k): c for k, c in y.terms.items()}, y.exact_to)


def _reduced(den: int, nums: dict) -> tuple:
    """(den, nums) divided by gcd(den, *nums)."""
    g = gcd(den, *nums.values())
    if g == 1:
        return den, nums
    return den // g, {k: v // g for k, v in nums.items()}


def _to_elt(den: int, nums: dict, exact_to, ids: _KeyIds) -> MonsterElt:
    """The element of a triple numbered by ids."""
    key = ids.key
    return MonsterElt._of({key[i]: Fraction(n, den) for i, n in nums.items()}, exact_to)


def _numbered_x(atom, ids: _KeyIds) -> tuple:
    """x of the exp atom ("exp", x, key, form) numbered by ids, as (den,
    {id: numerator}, exact_to, L) from x's triple form (den, {key:
    numerator}, exact_to): L is the id of x's one key when x is exact and
    a single u+ word, else None.  () for a torus or perm atom, which has
    no x."""
    if atom[0] != "exp":
        return ()
    xden, xterms, xexact = atom[3]
    xnums = {ids.of(k): n for k, n in xterms.items()}
    L = None
    if xexact == inf and len(xterms) == 1:
        [k] = xterms
        if isinstance(k, tuple) and k[0] == WPOS:
            L = ids.of(k)
    return xden, xnums, xexact, L


def _exp_image(atom, ids: _KeyIds, i: int, bound: int, x: tuple) -> tuple:
    """Image triple of the key with id i of ids under the exp atom ("exp",
    x, key, form), in the numbering ids, terms above bound discarded (and
    recorded); x is _numbered_x(atom, ids).
    An image that fixes its key is the shared _unit triple.

    The series term_n = [x, term_{n-1}] / n runs on integer numerators:
    each step brackets them with freelie.elt_bracket over the table
    _bracket_ids, whose structure constants are integers, and multiplies
    the step's denominator by x's denominator and by n.  A term takes
    bracket's exactness bound (monster._result_bound) and is cut at
    bound, and a cut caps its exact_to at bound.  The terms are summed
    over the last denominator and reduced by one gcd.  When x lowers
    degrees, content hidden above a cut can slide back down; the image is
    then marked exact only below the descent floor of the levels in the
    atom's key.

    When x is exact and a single u+ word L, a term key w with deg w >
    max(bound - deg L, 1) is not bracketed: it is a u+ word (those have
    degree >= 3, every other key <= 1), so [L, w] lies wholly above
    bound and would be cut.  The step is still marked cut exactly when
    such a w other than L has a nonzero coefficient: u+ is a free Lie
    algebra, where the centralizer of L is its span, so the skipped part
    brackets to zero only if it is a multiple of L; and no bracketed key
    reaches those degrees (the rest land at <= bound or, outside u+, at
    <= deg L + 1 < deg L + deg w).  A seed key wholly above the bound
    thus returns itself, exact_to bound (inf when it is L), before any
    series is set up."""
    xden, xnums, xexact, L = x
    deg = ids.deg
    cut = inf if L is None else max(bound - deg[L], 1)
    if deg[i] > cut:
        return _unit(ids, i, inf if i == L else bound)
    br = partial(_bracket_ids, ids)
    den = 1
    term: dict = {i: 1}
    term_exact = inf
    terms = [(den, term)]
    exact_to = inf
    clamped = False
    limit = 4 * (bound + 8) + 4 * abs(min(0, deg[i]))
    n = 0
    while term:
        n += 1
        if n > limit:
            raise RuntimeError("exponential series did not terminate; "
                               "input violates the nilpotence/degree-growth precondition")
        low = term
        skipped = False
        if cut < inf:
            low = {}
            for k, m in term.items():
                if deg[k] <= cut:
                    low[k] = m
                elif k != L:
                    skipped = True
        raw = freelie.elt_bracket(xnums, low, br)
        if xexact < inf or term_exact < inf:
            # x's min degree from its numbered keys; x can be 0
            term_exact = monster._result_bound(
                (min(map(deg.__getitem__, xnums), default=inf), xexact),
                (min(map(deg.__getitem__, term)), term_exact))
            if term_exact < 0:  # a bound MonsterElt refuses, as bracket would
                raise ValueError("exactness bound must be nonnegative")
            raw = {k: m for k, m in raw.items() if deg[k] <= term_exact}
        term = {k: m for k, m in raw.items() if deg[k] <= bound}
        if skipped or len(term) != len(raw):
            clamped = True
            term_exact = min(term_exact, bound)
        exact_to = min(exact_to, term_exact)
        den *= xden * n
        terms.append((den, term))
    if clamped and atom[2][3]:
        exact_to = _descent_floor(bound, atom[2][2]) - 1
    acc: dict = {}
    for d, t in terms:
        f = den // d
        for k, m in t.items():
            m = acc.get(k, 0) + m * f
            if m:
                acc[k] = m
            else:
                acc.pop(k, None)
    if acc == {i: den}:
        return _unit(ids, i, exact_to)
    return (*_reduced(den, acc), exact_to)


def _image(atom, ids: _KeyIds, images: dict, i: int, bound, x: tuple) -> tuple:
    """Image of id i (of ids) under atom, from (or into) images: exp
    atoms by the integer series _exp_image on x (_numbered_x(atom, ids)),
    torus atoms by s^a t^b, perm atoms by relabeling.  An image that
    fixes its key is the shared _unit triple."""
    hit = images.get(i)
    if hit is not None:
        return hit
    tag = atom[0]
    if tag == "exp":
        res = _exp_image(atom, ids, i, bound, x)
    elif tag == "torus":
        a, b = key_root(ids.key[i])
        c = atom[1] ** a * atom[2] ** b
        res = _unit(ids, i, inf) if c == 1 else _int_form({i: c}, inf)
    else:
        nums = _perm_key(atom, ids, images, i)
        res = _unit(ids, i, inf) if nums == {i: 1} else (1, nums, inf)
    images[i] = res
    return res


def _perm_key(atom, ids: _KeyIds, images: dict, i: int) -> dict:
    """Index relabeling of the key with id i, as integer coefficients (its
    image sits over den 1): letters directly, longer words through the
    images of their standard factors."""
    key = ids.key[i]
    if not isinstance(key, tuple):
        return {i: 1}
    tag, w = key
    if len(w) == 1:
        j, k, l = w[0]
        if j == atom[1].level:
            k = atom[1].apply(k)
        return {ids.of((tag, ((j, k, l),))): 1}
    u, v = freelie.std_factorize(w)
    iu = _image(atom, ids, images, ids.of((tag, u)), None, ())
    iv = _image(atom, ids, images, ids.of((tag, v)), None, ())
    return freelie.elt_bracket(iu[1], iv[1], partial(_bracket_ids, ids))


def _atom_block(atom, slot: dict, ids: _KeyIds, block: list, bound) -> list:
    """atom applied to each triple (den, nums, lo) of block, the element
    nums/den exact through lo in the numbering ids, which atom's memo
    slot is in: the gcd-reduced triples of sum c * image(id) over each
    one's terms, with the images at the clamp bound and the lowering test
    resolved once per block, and x numbered by ids at the first miss
    (_numbered_x), at most once per block.  Images are shared, read-only
    triples: a result may hold an image's own dict, so no caller mutates
    one.

    The sum runs on integers over den * L, L the lcm of the touched
    images' denominators, in one loop over the terms: it starts at L = 1
    and, when an image brings a new denominator, scales what it has
    summed so far up to the new L; one gcd reduces the result.  A
    one-term input c * id skips the sum: it is c times the image over den
    times the image's den, the image itself when c and den are 1, since
    images are stored reduced.  exact_to is the least of the images'
    bounds and the input's: lo itself, or for a lowering exponential the
    descent floor below it (of the levels in its key), since content
    hidden above lo can slide down that far."""
    levels = atom[2][2] if atom[0] == "exp" and atom[2][3] else None
    if atom[0] != "exp":
        bound = None
    images = slot.setdefault(bound, {})
    get = images.get
    x = None
    out = []
    append = out.append
    for den, nums, lo in block:
        if levels is not None and lo < inf:
            lo = _descent_floor(lo, levels) - 1
        if len(nums) == 1:
            [(k, c)] = nums.items()
            img = get(k)
            if img is None:
                if x is None:
                    x = _numbered_x(atom, ids)
                img = _image(atom, ids, images, k, bound, x)
            iden, inums, ilo = img
            if ilo < lo:
                lo = ilo
            if c != 1:
                inums = {kk: c * v for kk, v in inums.items()}
            elif den == 1:
                append((iden, inums, lo))
                continue
            append((*_reduced(den * iden, inums), lo))
            continue
        terms: dict = {}
        lcm = 1
        for k, c in nums.items():
            img = get(k)
            if img is None:
                if x is None:
                    x = _numbered_x(atom, ids)
                img = _image(atom, ids, images, k, bound, x)
            d, inums, ilo = img
            if ilo < lo:
                lo = ilo
            if lcm % d:
                # a new denominator: rescale what is summed so far
                f = d // gcd(lcm, d)
                lcm *= f
                for kk in terms:
                    terms[kk] *= f
            if lcm != d:
                c *= lcm // d
            for kk, v in inums.items():
                n = terms.get(kk, 0) + c * v
                if n:
                    terms[kk] = n
                else:
                    del terms[kk]
        append((*_reduced(den * lcm, terms), lo))
    return out


def _invert_atom(atom):
    tag = atom[0]
    if tag == "exp":
        return ("exp", -atom[1])
    if tag == "torus":
        return ("torus", 1 / atom[1], 1 / atom[2])
    return ("perm", atom[1].inverse())


# ---------------------------------------------------------------------------

class TruncAut:
    """Automorphism of the completion, stored mod degree > N, where N is
    cfg.degree_bound."""

    __slots__ = ("cfg", "word", "_ids", "_steps", "_lowering")

    def __init__(self, cfg: SupportConfig, word):
        self.cfg = cfg
        # the key numbering this word works in, for life
        self._ids = _ids()
        self.word, slots = _keyed_word(word, cfg)
        # (atom, slot) in application order: rightmost factor first
        self._steps = tuple(zip(reversed(self.word), reversed(slots)))
        # the levels lowering atoms descend through, () if none lowers
        self._lowering = next((a[2][2] for a in self.word if a[0] == "exp" and a[2][3]), ())

    @property
    def N(self) -> int:
        """Truncation degree: the window's degree bound."""
        return self.cfg.degree_bound

    # construction ---------------------------------------------------------
    @classmethod
    def identity(cls, cfg: SupportConfig):
        return cls(cfg, word=())

    # application ----------------------------------------------------------
    def apply(self, y: MonsterElt, need: int | None = None) -> MonsterElt:
        """Image of y, complete at least through degree `need` >= 0 (default
        N) unless y's own exactness bound makes that impossible; returns
        the terms and exact_to the last pass gives, beyond need as well.
        Every atom is clamped at one bound r, need plus the headroom of
        the descent pad; a short image retries at r + (need - exact_to) +
        2, until it is complete or a retry gains nothing."""
        need = self.N if need is None else need
        if need < 0:
            raise ValueError(f"need must be >= 0, got {need}")
        y.validate_support(self.cfg)
        ys = [_to_vec(y, self._ids)]
        # lowering factors can pull clamped content back into the window,
        # so start with enough headroom that nothing in reach is lost
        r = need + 2 + _descent_pad(need, self._lowering)
        [t] = self._pass(ys, repeat(r))
        prev = -inf
        # once a retry gains nothing, the input's or an x's exactness is the limit
        while prev < t[2] < need:
            prev = t[2]
            r += need - prev + 2
            [t] = self._pass(ys, repeat(r))
        return _to_elt(*t, self._ids)

    def _pass(self, block: list, bounds) -> list:
        """block through every atom of the word, each step clamped at its
        own bound: bounds runs beside the steps, in application order."""
        ids = self._ids
        for (atom, slot), bound in zip(self._steps, bounds):
            block = _atom_block(atom, slot, ids, block, bound)
        return block

    # comparison -----------------------------------------------------------
    def equal(self, other: "TruncAut") -> bool:
        """Same image of every generator mod degree > N, compared as
        gcd-reduced integer forms."""
        _check_match(self, other)
        mine, theirs = self._generator_forms(), other._generator_forms()
        if self._ids is not other._ids:
            # numbered apart, across a monster.clear_caches(): compare by key
            mine, theirs = _keyed_forms(self._ids, mine), _keyed_forms(other._ids, theirs)
        return mine == theirs

    def _generator_forms(self) -> list:
        """(den, {id: numerator}) of each generator's image truncated at
        N, in generator_keys order and the word's numbering, reduced by
        the gcd so that equal images give equal pairs.  equal,
        report_dict and filtration_level all read the generator images
        from here.

        The generators are exact, so each step is clamped at the least
        bound that keeps the result exact through N, and one pass of the
        block suffices: N for every atom applied after the last lowering
        one, and at each lowering atom, walking back towards the first
        applied, the least bound whose descent floor still covers the
        bound after it (_descent_lift).  A word with an exp atom whose x
        is inexact takes the same pass, since no clamp bound restores the
        exactness that x lacks.  Only a word with a lowering atom can
        leave a term above N; such an image is cut and reduced again."""
        N = self.N
        ids = self._ids
        deg = ids.deg
        bounds = []
        E = N
        for atom, _ in reversed(self._steps):
            if atom[0] == "exp" and atom[2][3]:
                E = _descent_lift(E, atom[2][2])
            bounds.append(E)
        block = self._pass([(1, {i: 1}, inf) for i in _generator_ids(ids, self.cfg)],
                           reversed(bounds))
        if not self._lowering:
            # every step was clamped at N, and no generator lies above N
            return [(den, nums) for den, nums, _ in block]
        return [(den, nums) if max(map(deg.__getitem__, nums), default=N) <= N
                else _reduced(den, {i: n for i, n in nums.items() if deg[i] <= N})
                for den, nums, _ in block]

    def report_dict(self) -> dict:
        """Deterministic JSON-ready dump of the generator images."""
        key = self._ids.key
        gens = []
        for gen, (den, nums) in zip(_generator_ids(self._ids, self.cfg),
                                    self._generator_forms()):
            terms = [[monster.format_term(key[i]), str(Fraction(nums[i], den))]
                     for i in sorted(nums, key=lambda i: key_sort(key[i]))]
            gens.append({"generator": monster.format_term(key[gen]), "image": terms})
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
    return f"perm(level={atom[1].level}, {dict(sorted(atom[1].moved.items()))})"


def _keyed_forms(ids: _KeyIds, forms: list) -> list:
    key = ids.key
    return [(den, {key[i]: n for i, n in nums.items()}) for den, nums in forms]


def _check_match(g: TruncAut, h: TruncAut) -> None:
    if g.cfg != h.cfg:
        raise ValueError("window mismatch: automorphisms use different truncation or support")


# ---------------------------------------------------------------------------
# constructors

def exp_ad(x: MonsterElt, cfg: SupportConfig) -> TruncAut:
    """exp(ad x) as a truncated automorphism.

    x must lie in the positive nilpotent sector (any mix of e(-1) and
    positive words) or be a pure multiple of f(-1); TruncAut's gate
    (_keyed_word) rejects anything else.  Cartan input is semisimple,
    not unipotent: use torus().  Negative imaginary content has no
    exponential acting on the positive completion.
    """
    return TruncAut(cfg, word=(("exp", x),))


def torus(s, t, cfg: SupportConfig) -> TruncAut:
    return TruncAut(cfg, word=(("torus", monster.as_fraction(s), monster.as_fraction(t)),))


def compose(*auts: TruncAut) -> TruncAut:
    """Product g1 g2 ... gk as operators: the rightmost factor acts first.
    The factors' atoms are already checked against the one window they
    share, so when they also share one key numbering the composite takes
    their (atom, slot) steps as they are (_product)."""
    if not auts:
        raise ValueError("compose needs at least one factor")
    first = auts[0]
    for g in auts[1:]:
        _check_match(first, g)
    return _product(first.cfg, auts)


def _product(cfg: SupportConfig, auts) -> TruncAut:
    """g1 g2 ... gk for factors on the window cfg, at least one: the
    concatenated word with the factors' own steps and slots when every
    factor works in one numbering; factors numbered apart, across a
    monster.clear_caches(), are keyed again in the current numbering."""
    ids = auts[0]._ids
    word = tuple(a for g in auts for a in g.word)
    if any(g._ids is not ids for g in auts):
        return TruncAut(cfg, word)
    out = TruncAut.__new__(TruncAut)
    out.cfg = cfg
    out._ids = ids
    out.word = word
    out._steps = tuple(step for g in reversed(auts) for step in g._steps)
    out._lowering = next((g._lowering for g in auts if g._lowering), ())
    return out


def invert(g: TruncAut) -> TruncAut:
    """Inverse automorphism: the reversed word of inverted atoms."""
    return TruncAut(g.cfg, word=tuple(_invert_atom(a) for a in reversed(g.word)))


# ---------------------------------------------------------------------------
# structure probes

class FiltrationLevel(NamedTuple):
    level: int
    window_limited: bool


def filtration_level(g: TruncAut) -> FiltrationLevel:
    """Largest i visible in the window with g(y) - y in degrees >= deg(y) + i
    for every generator y.  Requires g to fix the Cartan mod higher degree."""
    ids = g._ids
    deg = ids.deg
    cands = []
    for i, (den, nums) in zip(_generator_ids(ids, g.cfg), g._generator_forms()):
        # g(y) - y over den, truncated at N like the image
        diff = dict(nums)
        n = diff.pop(i, 0) - den
        if n:
            diff[i] = n
        if diff:
            m = min(map(deg.__getitem__, diff))
            if ids.key[i] in (H1, H2) and m <= 0:
                raise ValueError("not unipotent-type: Cartan is not fixed mod higher degree")
            cands.append(m - deg[i])
    m = min(cands, default=inf)
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
    out = {key: _h1_log_coeff(key, c) for key, c in dh1.terms.items()}
    return MonsterElt(out, exact_to=min(dh1.exact_to, B))


def _h1_log_coeff(key, c):
    """Coefficient of x at key from the term c * key of log(g)(h1) = [x, h1]:
    [x, h1] = -a x on the root (a, b), and a >= 1 on the positive side."""
    a = key_root(key)[0]
    if a < 1:
        raise RuntimeError("log produced content outside the positive sector")
    return -c / a


def Ad(g: TruncAut, x: MonsterElt) -> MonsterElt:
    """Adjoint action on the positive sector: g applied to x."""
    if x.min_degree() < 1:
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
        cut = min(g.N, lhs.exact_to, rhs.exact_to)
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

def _emit_word(word, coeff) -> list:
    """Symbols of a word whose log has lowest term coeff * (basis word).

    A bracket word becomes the group commutator A B A^-1 B^-1 of its
    factors' words, each inverse written as the symbols reversed with
    negated parameters (X(u)^-1 = X(-u)), so every exponent is +1."""
    from .presentation import sym
    if len(word) == 1:
        j, k, l = word[0]
        return [sym("X", (l, j, k), coeff)]
    u, v = freelie.std_factorize(word)
    A = _emit_word(u, Fraction(1))
    B = _emit_word(v, coeff)
    return A + B + [s._replace(param=-s.param) for w in (A, B) for s in reversed(w)]


def _first_order_log(g: TruncAut, d: int, need: int) -> MonsterElt:
    """Degree-d component x_d of log g, for g in the d-th filtration
    subgroup G_d, from one application of g to h1 through degree need.

    In G_d the degree-d part of log(g)(h1) is that of g(h1) - h1, read
    out by _h1_log_coeff as in log_unipotent.  A g outside G_d, or an
    image not exact through d, is a fault of the caller and raises
    RuntimeError."""
    img = g.apply(MonsterElt({H1: 1}), need)
    if img.terms.get(H1) != 1:
        raise RuntimeError("residual does not fix h1 to first order")
    if img.exact_to < d:
        raise RuntimeError("image of h1 is not exact through the peeled degree")
    out = {}
    for key, c in img.terms.items():
        e = key_degree(key)
        if key == H1 or e > d:
            continue
        if e < d:
            raise RuntimeError("residual is not in the filtration subgroup of the peeled degree")
        out[key] = _h1_log_coeff(key, c)
    return MonsterElt._of(out, img.exact_to)


def approximate_by_generators(g: TruncAut, i: int):
    """presentation.GroupWord over {X(-1;u), X(l,j,k;u)} agreeing with g
    mod filtration i+1.

    Peels one degree at a time: the residual lies in G_d at degree d, so
    the degree-d component of its log is the first-order one
    (_first_order_log, one application to h1); it is written in the
    Lyndon basis, realized by letter exponentials and group commutators,
    then divided out.
    """
    from . import presentation      # presentation imports this module
    if i > g.N:
        raise ValueError("cannot certify beyond the truncation window")
    lvl = filtration_level(g)
    if lvl.level < 1:
        raise ValueError("approximation requires a unipotent automorphism")
    symbols: list = []
    residual = g
    for d in range(1, i + 1):
        # one depth for every degree, so the atoms' image slots are shared
        xd = _first_order_log(residual, d, i)
        if xd.is_zero():
            continue
        step: list = []
        for key in sorted(xd.terms, key=key_sort):
            c = xd.terms[key]
            if key == EMINUS:
                step.append(presentation.sym("X", -1, c))
            elif isinstance(key, tuple) and key[0] == WPOS:
                step.extend(_emit_word(key[1], c))
            else:
                raise RuntimeError("log of a unipotent residual left the positive sector")
        symbols.extend(step)
        piece = presentation.realize_word(presentation.GroupWord.of(*step), g.cfg)
        residual = compose(invert(piece), residual)
    return presentation.GroupWord.of(*symbols)


def equal_mod_level(g: TruncAut, h: TruncAut, i: int) -> bool:
    """True when g^-1 h lies in the i-th filtration subgroup as far as the
    window can certify.

    Measured on h^-1 g, its inverse: G_i is a subgroup, so the two lie in
    it together.  When h is approximate_by_generators' word for g, the
    atoms of h^-1 g are g's own and the inverted pieces that the peel's
    residuals already imaged, so their memoized images are reused."""
    lvl = filtration_level(compose(invert(h), g))
    return lvl.level >= i or lvl.window_limited
