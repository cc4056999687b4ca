"""Automorphisms of the completed algebra, truncated to a degree window.

A TruncAut represents an automorphism of the positive formal completion
restricted to degrees <= N, as a word; N is the degree bound of its
support window (a SupportConfig), which nothing else sets.  The word is
a tuple of atomic factors, each ("exp", x) for a pro-summable
exponential (stored as ("exp", x, form), the form built once, when the
atom is keyed: x as the triple below, by id, the id of x's one key when
x is one exact u+ word, and the window's base levels when x lowers),
("torus", s, t) for the semisimple scaling by s^a t^b on the root
(a, b), or ("perm", sigma) for an index permutation sigma (a
permaut.SparsePerm).  The kernel runs on small integer ids, not on
basis keys: one numbering, made at import, gives each key an id once,
in first-seen order, and the id keeps its meaning for the life of the
process.  Application walks the factors right to left, so it is a
composition of linear maps on ids: each atom sends y to the sum of
c * image(id) over the terms of y, and the image
of each id is computed once per atom and clamp bound, then memoized (exp
images by the exp series on that single key, run on integer numerators
over one denominator: the basis brackets have integer structure
constants, kept in one memoized table of id pairs, so each step's
denominator is the last one times x's denominator and n).  An atom's
images belong to the atom its word keys; words on a window share them
through the symbol memo (presentation._keyed_symbol).  Every integer
vector the kernel builds, memoizes or carries has one form, the
gcd-reduced triple (den, {id: numerator}, exact_to): integer numerators
over one positive common denominator.  Images are stored that way, and a
word carries y through its atoms that way, so Fractions and keys are
built only for the returned element.  One pass of a word carries a whole
block of such triples, one kernel call per atom, and hands back each
triple gcd-reduced: equal pushes the generator block through each side
once and compares the images in that form.  Every application, index
permutations included, goes through that block pass.  Composition is
concatenation: the factors hand the composite their (atom, slot) steps
as they are, so nothing is keyed again (realize_word builds a word as
the product of one-symbol words, each keyed once per window, so a
realized word keys no atom).  Inverses are built at their source: each
symbol of an inverse word is keyed as its inverse symbol (X(u)^-1 =
X(-u), H1(s)^-1 = H1(1/s)), and a permutation's inverse from sigma^-1.
TruncAut checks every atom and every element it is applied to against
its window.  An exp series whose x is one exact u+ word skips the keys
whose bracket with it the clamp would cut whole.

Soundness: every application tracks the exact_to bound of monster
elements.  An atom's result is exact through the least of its images'
bounds and a bound from the input: the input's own exact_to E, or
descent_floor(E) - 1 for a lowering exponential (a multiple of f(-1)),
since content hidden above E can slide down that far.  This is never
above what the exp series gives on the whole element.  An exact input
needs no headroom: the same accounting, run backwards from a degree E,
gives each atom the least clamp bound that leaves the result exact
through E (E after the last lowering atom, raised at each lowering atom
to the inverse of the descent floor), so one pass (_exact_pass) is
exact through E unless an exp atom's own x is inexact, which no bound
repairs; the generator forms run it through N, the peel through its
depth.  apply, for images printed past any one degree, clamps every
atom at one bound with headroom and retries with a widened bound while
the image falls short of the requested degree and each retry gains.

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
It returns a presentation.GroupWord, printed by format_word like any
other word, dividing each piece out as its inverse word; the emitted
word agrees with g modulo the (i+1)-st filtration subgroup.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache
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
# sum(2j+1).  One knapsack over the levels a lowering atom's form carries
# (atom[2][4]) gives both the headroom a window needs (value j-1) and the
# exactness floor after a lowering exponential (value 2j+1); the floor's
# inverse gives the clamp bound a lowering step needs for a result exact
# through E.  Every bound E that reaches them is >= -2 (apply refuses
# need < 0, an exact pass runs through N or a depth >= 1, and a lowering
# step maps E >= -2 to floor(E) - 1 >= -2): no negative word sits above
# such an E.


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
# small integer id once, from _IDS, the one _KeyIds numbering, which
# keeps the id -> key and id -> degree lists beside its key -> id index,
# so a degree test is a list lookup.  _IDS is made at import and never
# replaced: it interns keys, as a string table does, so it is not a memo
# and monster.clear_caches() leaves it, and an id means one key for the
# life of the process.  It only grows, bounded by the union of the
# windows' bases, as key_degree's memo is.  Every atom is linear, so it
# acts through the images of single ids, memoized in its slot, {bound:
# {id: image}}; an image is the gcd-reduced triple (den, {id: numerator},
# exact_to), exact_to inf when exact, shared by every block that reads
# it, so nothing mutates it.  An image that fixes its key is _unit(i,
# exact_to), one triple shared by every slot.  Exp images depend on the
# clamp bound; torus and perm images do not and sit under the bound None.
# An exp series brackets ids through _bracket_ids, the structure-constant
# table (i, j) -> {id: int}, which asks monster.term_bracket on a miss;
# every zero bracket is the one read-only _ZERO.  An atom's images belong
# to the atom its word keys (_keyed_word); words on a window share them
# through the symbol memo.  An exp atom's x is numbered once, when it is
# keyed, into the form the exp series reads: (den, {id: numerator},
# exact_to, L, levels), L the id of x's one key when x is exact and a
# single u+ word, else None, levels the window's base levels when x
# lowers, else None.
# Word application carries a block of elements as (den, {id: numerator},
# exact_to) triples through every atom, one _atom_block call per atom,
# which returns each triple gcd-reduced; keys come back only for the
# returned element, the reports and the filtration level.
# _bracket_ids, _unit, _generator_ids (a window's generator keys as ids)
# and the two descent memos above are functools.cache functions listed
# in monster.CACHES, so monster.clear_caches() drops them together.


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


# the one key numbering, for the life of the process
_IDS = _KeyIds()


# the one zero bracket, shared by every pair of keys that commute
_ZERO = MappingProxyType({})


@cache
def _bracket_ids(i: int, j: int):
    """[key i, key j] as {id: int}, or _ZERO when it vanishes; shared, so
    callers only read it."""
    key = _IDS.key
    return {_IDS.of(k): c for k, c in monster.term_bracket(key[i], key[j]).items()} or _ZERO


@cache
def _unit(i: int, exact_to) -> tuple:
    """The image (1, {i: 1}, exact_to) of an atom that fixes the key with
    id i, shared by every slot that stores it, so never mutated."""
    return 1, {i: 1}, exact_to


@cache
def _generator_ids(cfg: SupportConfig) -> tuple:
    """The ids of generator_keys(cfg), in that order."""
    return tuple(map(_IDS.of, generator_keys(cfg)))


monster.CACHES.extend((_bracket_ids, _unit, _generator_ids, _descent_floor,
                       _descent_lift))


def _keyed_word(word, cfg: SupportConfig) -> tuple:
    """word with each exp atom as ("exp", x, form), form built from x
    whatever atom the word held: x's id form (*_to_vec(x), L, levels), L
    the id of x's one key when x is exact and a single u+ word, else None,
    and levels the window's base levels when x lowers (a multiple of
    f(-1)), else None.  Every atom is checked against cfg before any of
    x's keys is numbered: exp letters in the window, and x of min degree
    >= 1 or a multiple of f(-1); nonzero torus parameters; a permutation
    within its level's cap; no other tag."""
    out = []
    for a in word:
        tag = a[0]
        if tag == "exp":
            x = a[1]
            m = x.min_degree()
            if m < 1 and x.terms.keys() != {FMINUS}:
                if x.terms.keys() <= {H1, H2}:
                    raise ValueError(
                        "Cartan element acts semisimply; use torus(), not exp_ad()")
                raise ValueError("exp_ad needs a positive-sector element or a multiple of "
                                 "f(-1); negative imaginary content has no action on the "
                                 "positive completion")
            x.validate_support(cfg)
            L = None
            if x.exact_to == inf and len(x.terms) == 1:
                [k] = x.terms
                if isinstance(k, tuple) and k[0] == WPOS:
                    L = _IDS.of(k)
            a = ("exp", x, (*_to_vec(x), L, tuple(cfg.base_levels()) if m < 0 else None))
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
    return tuple(out)


def _to_vec(y: MonsterElt) -> tuple:
    """y as (den, {id: numerator}, exact_to): the coefficient of id i is
    nums[i] / den, exact through exact_to, over the least common
    denominator, so gcd(den, *nums) == 1."""
    den = 1
    for c in y.terms.values():
        d = c.denominator
        if den % d:
            den = den // gcd(den, d) * d
    return (den, {_IDS.of(k): c.numerator * (den // c.denominator) for k, c in y.terms.items()},
            y.exact_to)


def _reduced(den: int, nums: dict) -> tuple:
    """(den, nums) divided by gcd(den, *nums)."""
    g = gcd(den, *nums.values())
    if g == 1:
        return den, nums
    return den // g, {k: v // g for k, v in nums.items()}


def _to_elt(den: int, nums: dict, exact_to) -> MonsterElt:
    """The element of a triple."""
    key = _IDS.key
    return MonsterElt._of({key[i]: Fraction(n, den) for i, n in nums.items()}, exact_to)


def _exp_image(atom, i: int, bound: int) -> tuple:
    """Image triple of the key with id i under the exp atom ("exp", x,
    form), terms above bound discarded (and recorded), from x's id form
    (den, {id: numerator}, exact_to, L, levels).  An image that fixes its
    key is the shared _unit triple.

    The series term_n = [x, term_{n-1}] / n runs on integer numerators:
    each step brackets them with freelie.elt_bracket over the table
    _bracket_ids, whose structure constants are integers, and multiplies
    the step's denominator by x's denominator and by n.  A term takes
    bracket's exactness bound (monster._result_bound) and is cut at
    bound, and a cut caps its exact_to at bound.  The terms are summed
    over the last denominator and reduced by one gcd.  When x lowers
    degrees, content hidden above a cut can slide back down; the image is
    then marked exact only below the descent floor of the form's levels.

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
    xden, xnums, xexact, L, levels = atom[2]
    deg = _IDS.deg
    cut = inf if L is None else max(bound - deg[L], 1)
    if deg[i] > cut:
        return _unit(i, inf if i == L else bound)
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
        raw = freelie.elt_bracket(xnums, low, _bracket_ids)
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
    if clamped and levels is not None:
        exact_to = _descent_floor(bound, levels) - 1
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
        return _unit(i, exact_to)
    return (*_reduced(den, acc), exact_to)


def _image(atom, images: dict, i: int, bound) -> tuple:
    """Image of id i under atom, from (or into) images: exp atoms by the
    integer series _exp_image on x's id form, torus atoms by s^a t^b,
    perm atoms by relabeling.  An image that fixes its key is the shared
    _unit triple."""
    hit = images.get(i)
    if hit is not None:
        return hit
    tag = atom[0]
    if tag == "exp":
        res = _exp_image(atom, i, bound)
    elif tag == "torus":
        a, b = key_root(_IDS.key[i])
        c = atom[1] ** a * atom[2] ** b
        res = _unit(i, inf) if c == 1 else (c.denominator, {i: c.numerator}, inf)
    else:
        nums = _perm_key(atom, images, i)
        res = _unit(i, inf) if nums == {i: 1} else (1, nums, inf)
    images[i] = res
    return res


def _perm_key(atom, images: dict, i: int) -> dict:
    """Index relabeling of the key with id i, as integer coefficients (its
    image sits over den 1): letters directly, longer words through the
    images of their standard factors, which _image reads or stores
    under the bound None, as every perm image is."""
    key = _IDS.key[i]
    if not isinstance(key, tuple):
        return {i: 1}
    tag, w = key
    if len(w) == 1:
        j, k, l = w[0]
        if j == atom[1].level:
            k = atom[1].apply(k)
        return {_IDS.of((tag, ((j, k, l),))): 1}
    u, v = freelie.std_factorize(w)
    iu = _image(atom, images, _IDS.of((tag, u)), None)
    iv = _image(atom, images, _IDS.of((tag, v)), None)
    return freelie.elt_bracket(iu[1], iv[1], _bracket_ids)


def _atom_block(atom, slot: dict, block: list, bound) -> list:
    """atom applied to each triple (den, nums, lo) of block, the element
    nums/den exact through lo, with atom's memo slot: the gcd-reduced
    triples of sum c * image(id) over each one's terms, with the images
    at the clamp bound and the lowering test resolved once per block.
    Images are shared, read-only triples: a result may hold an image's
    own dict, so no caller mutates one.

    The sum runs on integers over den * L, L the lcm of the touched
    images' denominators, in one loop over the terms: it starts at L = 1
    and, when an image brings a new denominator, scales what it has
    summed so far up to the new L; one gcd reduces the result.  A
    one-term input c * id skips the sum: it is c times the image over den
    times the image's den, the image itself when c and den are 1, since
    images are stored reduced.  exact_to is the least of the images'
    bounds and the input's: lo itself, or for a lowering exponential the
    descent floor below it (of the levels in its form), since content
    hidden above lo can slide down that far."""
    if atom[0] == "exp":
        levels = atom[2][4]
    else:
        levels = bound = None
    images = slot.setdefault(bound, {})
    get = images.get
    out = []
    append = out.append
    for den, nums, lo in block:
        if levels is not None and lo < inf:
            lo = _descent_floor(lo, levels) - 1
        if len(nums) == 1:
            [(k, c)] = nums.items()
            img = get(k)
            if img is None:
                img = _image(atom, images, k, bound)
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
                img = _image(atom, images, k, bound)
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


# ---------------------------------------------------------------------------

class TruncAut:
    """Automorphism of the completion, stored mod degree > N, where N is
    cfg.degree_bound."""

    __slots__ = ("cfg", "word", "_steps", "_lowering")

    def __init__(self, cfg: SupportConfig, word):
        self.cfg = cfg
        self.word = _keyed_word(word, cfg)
        # (atom, slot) in application order, rightmost factor first: each
        # atom keyed here owns a fresh slot
        self._steps = tuple((a, {}) for a in reversed(self.word))
        # the levels lowering atoms descend through, () if none lowers
        self._lowering = next((a[2][4] for a in self.word if a[0] == "exp" and a[2][4]), ())

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
        ys = [_to_vec(y)]
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
        return _to_elt(*t)

    def _pass(self, block: list, bounds) -> list:
        """block through every atom of the word, each step clamped at its
        own bound: bounds runs beside the steps, in application order."""
        for (atom, slot), bound in zip(self._steps, bounds):
            block = _atom_block(atom, slot, block, bound)
        return block

    # comparison -----------------------------------------------------------
    def equal(self, other: "TruncAut") -> bool:
        """Same image of every generator mod degree > N, compared as
        gcd-reduced integer forms."""
        _check_match(self, other)
        return self._generator_forms() == other._generator_forms()

    def _exact_pass(self, block: list, E: int) -> list:
        """block, of exact triples, through every atom, each step clamped
        at the least bound that keeps the result exact through E: E for
        every atom applied after the last lowering one, and at each
        lowering atom, walking back towards the first applied, the least
        bound whose descent floor still covers the bound after it
        (_descent_lift).  An exp atom whose x is inexact takes the same
        bounds, since no clamp bound restores the exactness x lacks."""
        bounds = []
        for atom, _ in reversed(self._steps):
            if atom[0] == "exp" and atom[2][4] is not None:
                E = _descent_lift(E, atom[2][4])
            bounds.append(E)
        return self._pass(block, reversed(bounds))

    def _generator_forms(self) -> list:
        """(den, {id: numerator}) of each generator's image truncated at
        N, in generator_keys order, reduced by the gcd so that equal
        images give equal pairs.  equal, report_dict and filtration_level
        all read the generator images from here.

        The generators are exact, so one _exact_pass through N suffices.
        Only a word with a lowering atom can leave a term above N; such
        an image is cut and reduced again."""
        N = self.N
        deg = _IDS.deg
        block = self._exact_pass([(1, {i: 1}, inf) for i in _generator_ids(self.cfg)], N)
        if not self._lowering:
            # every step was clamped at N, and no generator lies above N
            return [(den, nums) for den, nums, _ in block]
        return [(den, nums) if max(map(deg.__getitem__, nums), default=N) <= N
                else _reduced(den, {i: n for i, n in nums.items() if deg[i] <= N})
                for den, nums, _ in block]

    def report_dict(self) -> dict:
        """Deterministic JSON-ready dump of the generator images."""
        key = _IDS.key
        gens = []
        for gen, (den, nums) in zip(_generator_ids(self.cfg), self._generator_forms()):
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
    share, so the composite takes their (atom, slot) steps as they are
    (_product)."""
    if not auts:
        raise ValueError("compose needs at least one factor")
    first = auts[0]
    for g in auts[1:]:
        _check_match(first, g)
    return _product(first.cfg, auts)


def _product(cfg: SupportConfig, auts) -> TruncAut:
    """g1 g2 ... gk for factors on the window cfg, the identity for none:
    the concatenated word with the factors' own steps and slots, so
    nothing is keyed again."""
    out = TruncAut.__new__(TruncAut)
    out.cfg = cfg
    out.word = tuple(a for g in auts for a in g.word)
    out._steps = tuple(step for g in reversed(auts) for step in g._steps)
    out._lowering = next((g._lowering for g in auts if g._lowering), ())
    return out


# ---------------------------------------------------------------------------
# structure probes

class FiltrationLevel(NamedTuple):
    level: int
    window_limited: bool


def filtration_level(g: TruncAut) -> FiltrationLevel:
    """Largest i visible in the window with g(y) - y in degrees >= deg(y) + i
    for every generator y.  Requires g to fix the Cartan mod higher degree."""
    deg = _IDS.deg
    cands = []
    for i, (den, nums) in zip(_generator_ids(g.cfg), g._generator_forms()):
        # g(y) - y over den, truncated at N like the image
        diff = dict(nums)
        n = diff.pop(i, 0) - den
        if n:
            diff[i] = n
        if diff:
            m = min(map(deg.__getitem__, diff))
            if _IDS.key[i] in (H1, H2) and m <= 0:
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
    subgroup G_d, from g's image of h1 in one _exact_pass through need.

    In G_d the degree-d part of log(g)(h1) is that of g(h1) - h1, read
    out by _h1_log_coeff as in log_unipotent.  A g outside G_d, or an
    image not exact through d, is a fault of the caller and raises
    RuntimeError."""
    [t] = g._exact_pass([(1, {_IDS.of(H1): 1}, inf)], need)
    img = _to_elt(*t)
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
    (_first_order_log); it is written in the Lyndon basis as letter
    symbols and group commutators, then divided out as the piece's
    inverse word, its symbols reversed at exponent -1, each keyed as its
    inverse symbol, so the forward piece is never realized.
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
        inverse = presentation.GroupWord([(s, -1) for s in reversed(step)])
        residual = _product(g.cfg, [presentation.realize_word(inverse, g.cfg), residual])
    return presentation.GroupWord.of(*symbols)


def equal_mod_level(g: TruncAut, word, i: int) -> bool:
    """True when g^-1 h lies in the i-th filtration subgroup as far as the
    window can certify, h the automorphism of the GroupWord word.

    Measured on h^-1 g, h^-1 realized from word.inverse(): G_i is a
    subgroup, so the two lie in it together.  approximate_by_generators'
    word has exponents +1 only, so its inverse does not reduce, and h^-1
    g holds g's atoms and the peel's inverse pieces, keyed and imaged."""
    from . import presentation      # presentation imports this module
    inverse = presentation.realize_word(word.inverse(), g.cfg)
    lvl = filtration_level(_product(g.cfg, [inverse, g]))
    return lvl.level >= i or lvl.window_limited
