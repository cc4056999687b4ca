"""The presented group: symbols, relation catalog, and validators.

Symbols are one-parameter families X(-1;u), Y(-1;u), X(l,j,k;u),
Y(l,j,k;u), H1(s), H2(s) plus the derived Weyl-type abbreviations

    w(-1;s)    = X(-1;s) Y(-1;-1/s) X(-1;s)
    w(l,j,k;s) = X(l,j,k;s) Y(l,j,k;-1/(s*c)) X(l,j,k;s)

with the structure constant c = c_const(l,j).  Group words are freely
reduced sequences of (symbol, +-1); no consequence of the relations is
ever applied to words themselves.

The catalog assigns each relation family an id R1..R35 (display order:
the fifteen real-root families, seven mixed-generator families, the two
real-Weyl conjugation families, then the eleven imaginary-root
families) and a validation class:

  ADJOINT      every symbol acts on the completed algebra, so both
               sides are compared as TruncAut.
  MIRROR       the family contains imaginary Y symbols (no action on
               the positive completion); the e/f mirror transports it
               to an ADJOINT family, and conjugating by the mirror
               involution shows the two are equivalent.  Symbol map:
               X <-> Y at equal parameters, H_i(s) -> H_i(1/s),
               Weyl abbreviations expanded first.
  SL2          single-string families with Weyl symbols or fractional
               torus exponents: validated in 2x2 rational matrices,
               X(u) upper unitriangular, Y(v) lower unitriangular with
               entry c*v, H1(s) = diag(s^(l+1), 1), H2(s) =
               diag(1, s^-(j-l)) (real family: exponents 1, -1, c=1).
               Fractional powers are avoided by substituting parameters
               that make every exponent integral; reports record the
               restriction.
  UNVALIDATED  cross-string imaginary X/Y commutation (R16): no
               faithful model is available here, so only the Lie-level
               shadow [e(l,j,k), f(m,p,q)] = 0 is swept, and the report
               marks the family "supported, not validated".

Convention note: the real-Weyl conjugation of an imaginary X-string
(R23) is validated with the scalar (-1)^l on the right-hand side.  The
adjoint action of w(-1;1) computed from the defining series sends
e(l,j,k) to (-1)^l * e(j-1-l,j,k) and f(l,j,k) to (-1)^(j-1-l) *
f(j-1-l,j,k); a single sign law for both lines is inconsistent with the
series at even j, and the (-1)^l law is the one the engine reproduces
(it also matches the standard lowest-weight-string action of the Weyl
representative in every 2x2 check).  The Y-line (R24) keeps the scalar
(-1)^(j-1-l) and is validated through the mirror transport.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, gcd, lcm
from typing import NamedTuple

from . import monster
from .completion import TruncAut, _product
from .indices import SupportConfig
from .monster import MonsterElt, as_fraction


class UnrealizableError(ValueError):
    """Symbol has no action on the positive completion."""


def c_const(l: int, j: int) -> Fraction:
    if not (0 <= l < j):
        raise ValueError("need 0 <= l < j")
    return Fraction((-1) ** (l + 1) * comb(j - 1, l) * (l + 1) * (j - l))


# ---------------------------------------------------------------------------
# symbols and words

class GenSymbol(NamedTuple):
    kind: str          # "X" | "Y" | "H1" | "H2" | "W"
    index: object      # -1, (l, j, k), or None for H kinds
    param: Fraction


def sym(kind: str, index, param) -> GenSymbol:
    if kind in ("H1", "H2"):
        index = None
    return GenSymbol(kind, index, param if isinstance(param, Fraction) else as_fraction(param))


_ONE = Fraction(1)
# each symbol kind as printed
_NAMES = {"X": "X", "Y": "Y", "H1": "H1", "H2": "H2", "W": "w"}


def format_symbol(s: GenSymbol) -> str:
    name = _NAMES[s.kind]
    if s.kind in ("H1", "H2"):
        return f"{name}({s.param})"
    if s.index == -1:
        return f"{name}(-1;{s.param})"
    l, j, k = s.index
    return f"{name}({l},{j},{k};{s.param})"


class GroupWord:
    """Freely reduced word in the generator symbols.  Every symbol of a
    word passes here, so this is where a zero H1, H2 or w parameter (a
    symbol with no inverse) and a float parameter (inexact) are refused."""

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        out = []
        for s, e in factors:
            if e not in (1, -1):
                raise ValueError("exponents are +-1")
            if s.kind in ("H1", "H2", "W") and not s.param:
                raise ValueError(f"{s.kind} parameter must be nonzero")
            if isinstance(s.param, float):
                raise ValueError(f"{s.kind} parameter must be exact, got the float {s.param!r}")
            # exponents first: a factor that cannot cancel never compares
            # its parameter
            if out and out[-1][1] == -e and out[-1][0] == s:
                out.pop()
            else:
                out.append((s, e))
        self.factors = tuple(out)

    @classmethod
    def of(cls, *symbols):
        return cls([(s, 1) for s in symbols])

    def __mul__(self, other):
        return GroupWord(self.factors + other.factors)

    def inverse(self):
        return GroupWord([(s, -e) for s, e in reversed(self.factors)])

    def __eq__(self, other):
        return isinstance(other, GroupWord) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __len__(self):
        return len(self.factors)

    def __repr__(self):
        return f"<GroupWord {format_word(self)}>"


def commutator(a: GroupWord, b: GroupWord) -> GroupWord:
    """a b a^-1 b^-1, freely reduced in one pass."""
    return GroupWord([*a.factors, *b.factors, *((s, -e) for s, e in reversed(a.factors)),
                      *((s, -e) for s, e in reversed(b.factors))])


def _conj(a: GenSymbol, x: GenSymbol) -> GroupWord:
    """The conjugate a x a^-1 of one symbol by another."""
    return GroupWord([(a, 1), (x, 1), (a, -1)])


def _comm(a: GenSymbol, b: GenSymbol) -> GroupWord:
    """The commutator a b a^-1 b^-1 of two distinct symbols."""
    return GroupWord([(a, 1), (b, 1), (a, -1), (b, -1)])


def format_word(w: GroupWord) -> str:
    if not w.factors:
        return "1"
    return "".join(format_symbol(s) + ("^-1" if e == -1 else "")
                   for s, e in w.factors)


def expand_weyl(w: GroupWord) -> GroupWord:
    """Replace every Weyl abbreviation by its three-symbol definition; a
    word without one is returned as it is."""
    if all(s.kind != "W" for s, _ in w.factors):
        return w
    out = []
    for s, e in w.factors:
        if s.kind != "W":
            out.append((s, e))
            continue
        c = _model_exponents(s.index)[2]
        trip = [(sym("X", s.index, s.param), 1),
                (sym("Y", s.index, Fraction(-1) / (s.param * c)), 1),
                (sym("X", s.index, s.param), 1)]
        if e == -1:
            trip = [(t, -x) for t, x in reversed(trip)]
        out.extend(trip)
    return GroupWord(out)


# ---------------------------------------------------------------------------
# adjoint realization

def _symbol_atom(kind: str, index, p: Fraction) -> tuple:
    """The word atom of the symbol kind(index; p): exp(ad x) for X(-1;u),
    X(l,j,k;u) and Y(-1;u), the torus scaling for H1(s) and H2(s).  A Y
    symbol is taken as Y(-1;u): realize_word refuses an imaginary Y before
    keying."""
    if kind == "X":
        if index == -1:
            return ("exp", MonsterElt.e_minus(p))
        l, j, k = index
        return ("exp", MonsterElt.e_letter(l, j, k, c=p))
    if kind == "Y":
        return ("exp", MonsterElt.f_minus(p))
    if kind in ("H1", "H2"):
        return ("torus", p, _ONE) if kind == "H1" else ("torus", _ONE, p)
    raise ValueError(f"cannot realize symbol kind {kind!r} directly")


@cache
def _keyed_symbol(kind: str, index, num: int, den: int, e: int, cfg: SupportConfig) -> TruncAut:
    """The one-symbol word kind(index; num/den)^e (e = +-1, num/den
    reduced with den > 0) on the window cfg, keyed once: its atom checked
    against cfg and its memo slot resolved.  The key is plain ints and
    strings, so a lookup hashes no Fraction.
    s^-1 is keyed as the inverse symbol, X or Y at -u and H1 or H2 at
    1/s, so both spellings of one atom share one word.  A symbol that
    recurs across words is keyed once per window, and every word built
    from it holds the same atom object and slot.  A clear drops the memo,
    and a word keyed before it stays valid: every word works in the one
    key numbering, completion._IDS, which a clear keeps."""
    if e == -1:
        if kind in ("H1", "H2"):
            num, den = (den, num) if num > 0 else (-den, -num)
        else:
            num = -num
        return _keyed_symbol(kind, index, num, den, 1, cfg)
    return TruncAut(cfg, word=(_symbol_atom(kind, index, Fraction(num, den)),))


monster.CACHES.append(_keyed_symbol)


def realize_word(w: GroupWord, cfg: SupportConfig) -> TruncAut:
    """w as one TruncAut: the product of the Weyl-expanded word's
    one-symbol words, each keyed once per window (_keyed_symbol), a
    symbol at exponent -1 as its inverse symbol, so the product takes
    their (atom, slot) steps as they are (completion._product) and
    re-keys nothing; the empty word is the empty product.  The expanded
    word is realizable unless an imaginary Y survives in it (a Weyl
    symbol's Y may cancel against a neighbour); then UnrealizableError
    names the first imaginary Y or w symbol of w as written, before any
    symbol is keyed, so before any window error."""
    factors = expand_weyl(w).factors
    if any(s.kind == "Y" and s.index != -1 for s, _ in factors):
        s = next(s for s, _ in w.factors if s.kind in ("Y", "W") and s.index != -1)
        raise UnrealizableError(f"{format_symbol(s)} has no action on the positive completion")
    return _product(cfg, [_keyed_symbol(s.kind, s.index, s.param.numerator,
                                        s.param.denominator, e, cfg) for s, e in factors])


# ---------------------------------------------------------------------------
# relation instances

class RelationInstance(NamedTuple):
    """One relation with its parameters substituted: lhs = rhs is claimed
    in the group.  klass is the family's validation class, index the
    letter (l, j, k) or pair of letters it is taken at (None for the
    real-root families), params the parameter values, as Fractions."""

    rid: str
    klass: str
    lhs: GroupWord
    rhs: GroupWord
    index: object      # None, (l,j,k), or a pair of indices
    params: dict


def _side_forms(w: GroupWord, cfg: SupportConfig) -> list:
    """The generator forms of w realized on the window cfg
    (TruncAut._generator_forms); a word of at most one symbol is realized
    once per window, through _short_side_forms."""
    if len(w) > 1:
        return realize_word(w, cfg)._generator_forms()
    return _short_side_forms(tuple((k, i, p.numerator, p.denominator, e)
                                   for (k, i, p), e in w.factors), cfg)


@cache
def _short_side_forms(symbols: tuple, cfg: SupportConfig) -> list:
    """_side_forms of the word of symbols, () or one (kind, index, num,
    den, e) for kind(index; num/den)^e, shared, so callers only read it:
    plain ints and strings, so a lookup hashes no Fraction or GroupWord."""
    w = GroupWord([(GenSymbol(k, i, Fraction(n, d)), e) for k, i, n, d, e in symbols])
    return realize_word(w, cfg)._generator_forms()


monster.CACHES.append(_short_side_forms)


def validate_adjoint(inst: RelationInstance, cfg: SupportConfig) -> bool:
    """Whether both sides of an ADJOINT instance realize equal TruncAut on
    the window cfg: the same generator images, compared as TruncAut.equal
    does.  A side of at most one symbol is realized once per window and
    its images reused by every later call.  Raises ValueError for any
    other class."""
    if inst.klass != "ADJOINT":
        raise ValueError(f"validate_adjoint needs an ADJOINT instance, got {inst.klass}")
    return _side_forms(inst.lhs, cfg) == _side_forms(inst.rhs, cfg)


# ---------------------------------------------------------------------------
# 2x2 matrix validation, on integer forms (den, a, b, c, d) of the
# matrices ((a, b), (c, d)) / den with den > 0 and gcd 1

@cache
def _model_exponents(index) -> tuple:
    """(a, b, c) of the string at index (-1 or a letter (l, j, k)): the
    H1 and H2 exponents l + 1 and j - l and the structure constant
    c_const(l, j); (1, -1, 1) for the real root."""
    if index == -1:
        return 1, -1, Fraction(1)
    l, j, _k = index
    return l + 1, j - l, c_const(l, j)


monster.CACHES.append(_model_exponents)


@cache
def _symbol_matrix(kind: str, at, num: int, den: int, e: int, index) -> tuple:
    """Integer form of kind(at; num/den)^e (e = +-1) in the 2x2 model at
    the string index (which fixes H kinds' exponents), by plain ints."""
    aa, bb, cc = _model_exponents(index)
    if kind in ("X", "Y", "W") and at != index:
        raise ValueError("matrix model is single-string: cross-index symbol")
    p, o, z = Fraction(num, den), Fraction(1), Fraction(0)
    if kind == "X":
        m = (o, e * p, z, o)
    elif kind == "Y":
        m = (o, z, e * cc * p, o)
    elif kind == "H1":
        m = (p ** (e * aa), z, z, o)
    elif kind == "H2":
        m = (o, z, z, p ** (-e * bb))
    elif kind == "W":
        m = (z, e * p, -e / p, z)
    else:
        raise ValueError(f"unknown symbol kind {kind!r}")
    d = lcm(*(x.denominator for x in m))
    return (d, *(x.numerator * (d // x.denominator) for x in m))


monster.CACHES.append(_symbol_matrix)


def _word_matrix(w: GroupWord, index) -> tuple:
    """Integer form of the 2x2 model of w at the string index, reduced
    so that equal matrices give equal tuples."""
    D, A, B, C, E = 1, 1, 0, 0, 1
    for (kind, at, p), e in w.factors:
        d, a, b, c, dd = _symbol_matrix(kind, at, p.numerator, p.denominator, e, index)
        D, A, B, C, E = D * d, A * a + B * c, A * b + B * dd, C * a + E * c, C * b + E * dd
    g = gcd(D, A, B, C, E)
    return D // g, A // g, B // g, C // g, E // g


def validate_sl2(inst: RelationInstance) -> bool:
    """Whether both sides of an SL2 instance give equal 2x2 matrices in
    the model at the instance's own string inst.index, compared as
    reduced integer forms.  Raises ValueError for any other class."""
    if inst.klass != "SL2":
        raise ValueError(f"validate_sl2 needs an SL2 instance, got {inst.klass}")
    return _word_matrix(inst.lhs, inst.index) == _word_matrix(inst.rhs, inst.index)


# ---------------------------------------------------------------------------
# the catalog

class RelationTemplate(NamedTuple):
    rid: str
    klass: str
    description: str
    param_names: tuple
    indexed: str       # a key of _INDEX_KINDS; "" is the real root, built at index -1
    note: str


_CATALOG = [
    RelationTemplate("R1", "ADJOINT", "X(-1;u)X(-1;v) = X(-1;u+v)", ("u", "v"), "", ""),
    RelationTemplate("R2", "ADJOINT", "Y(-1;u)Y(-1;v) = Y(-1;u+v)", ("u", "v"), "", ""),
    RelationTemplate("R3", "ADJOINT", "H1(s)H1(t) = H1(st)", ("s", "t"), "", ""),
    RelationTemplate("R4", "ADJOINT", "H2(s)H2(t) = H2(st)", ("s", "t"), "", ""),
    RelationTemplate("R5", "ADJOINT", "H1(s)H2(t) = H2(t)H1(s)", ("s", "t"), "", ""),
    RelationTemplate("R6", "ADJOINT", "w(-1;1)X(-1;u)w(-1;1)^-1 = Y(-1;-u)", ("u",), "", ""),
    RelationTemplate("R7", "ADJOINT", "w(-1;1)Y(-1;u)w(-1;1)^-1 = X(-1;-u)", ("u",), "", ""),
    RelationTemplate("R8", "ADJOINT",
                     "Y(-1;-t)X(-1;s)Y(-1;t) = X(-1;-1/t)Y(-1;-t^2*s)X(-1;1/t)",
                     ("s", "t"), "", ""),
    RelationTemplate("R9", "ADJOINT", "w(-1;s)w(-1;1) = H1(-s)H2(-1/s)", ("s",), "", ""),
    RelationTemplate("R10", "ADJOINT", "w(-1;1)H1(s)w(-1;1)^-1 = H2(s)", ("s",), "", ""),
    RelationTemplate("R11", "ADJOINT", "w(-1;1)H2(s)w(-1;1)^-1 = H1(s)", ("s",), "", ""),
    RelationTemplate("R12", "ADJOINT", "H1(s)X(-1;u)H1(s)^-1 = X(-1;s*u)", ("s", "u"), "", ""),
    RelationTemplate("R13", "ADJOINT", "H2(s)X(-1;u)H2(s)^-1 = X(-1;u/s)", ("s", "u"), "", ""),
    RelationTemplate("R14", "ADJOINT", "H1(s)Y(-1;u)H1(s)^-1 = Y(-1;u/s)", ("s", "u"), "", ""),
    RelationTemplate("R15", "ADJOINT", "H2(s)Y(-1;u)H2(s)^-1 = Y(-1;s*u)", ("s", "u"), "", ""),
    RelationTemplate("R16", "UNVALIDATED",
                     "(X(l,j,k;u), Y(m,p,q;v)) = 1 for distinct strings or |l-m|>1",
                     (), "",
                     "no faithful model for cross-string imaginary X/Y; "
                     "checked at the Lie level only"),
    RelationTemplate("R17", "ADJOINT", "X(l,j,k;u+v) = X(l,j,k;u)X(l,j,k;v)",
                     ("u", "v"), "letter", ""),
    RelationTemplate("R18", "MIRROR", "Y(l,j,k;u+v) = Y(l,j,k;u)Y(l,j,k;v)",
                     ("u", "v"), "letter", ""),
    RelationTemplate("R19", "ADJOINT", "(X(-1;s), X(j-1,j,k;t)) = 1",
                     ("s", "t"), "letter-top", ""),
    RelationTemplate("R20", "ADJOINT", "(Y(-1;s), X(0,j,k;t)) = 1",
                     ("s", "t"), "letter-l0", ""),
    RelationTemplate("R21", "MIRROR", "(X(-1;s), Y(0,j,k;t)) = 1",
                     ("s", "t"), "letter-l0", ""),
    RelationTemplate("R22", "MIRROR", "(Y(-1;s), Y(j-1,j,k;t)) = 1",
                     ("s", "t"), "letter-top", ""),
    RelationTemplate("R23", "ADJOINT",
                     "w(-1;1)X(l,j,k;u)w(-1;1)^-1 = X(j-1-l,j,k;(-1)^l * u)",
                     ("u",), "letter-reversible",
                     "right-hand scalar (-1)^l taken from the defining adjoint series"),
    RelationTemplate("R24", "MIRROR",
                     "w(-1;1)Y(l,j,k;u)w(-1;1)^-1 = Y(j-1-l,j,k;(-1)^(j-1-l) * u)",
                     ("u",), "letter-reversible", ""),
    RelationTemplate("R25", "ADJOINT", "H1(s)X(l,j,k;u)H1(s)^-1 = X(l,j,k;s^(l+1)*u)",
                     ("s", "u"), "letter", ""),
    RelationTemplate("R26", "MIRROR", "H1(s)Y(l,j,k;u)H1(s)^-1 = Y(l,j,k;s^-(l+1)*u)",
                     ("s", "u"), "letter", ""),
    RelationTemplate("R27", "ADJOINT", "H2(s)X(l,j,k;u)H2(s)^-1 = X(l,j,k;s^(j-l)*u)",
                     ("s", "u"), "letter", ""),
    RelationTemplate("R28", "MIRROR", "H2(s)Y(l,j,k;u)H2(s)^-1 = Y(l,j,k;s^-(j-l)*u)",
                     ("s", "u"), "letter", ""),
    RelationTemplate("R29", "SL2",
                     "w(l,j,k;s)w(l,j,k;1) = H1((-s)^(1/(l+1)))H2((-s)^(1/(j-l)))",
                     ("sigma",), "letter",
                     "validated at s = -(-sigma)^((l+1)(j-l)) so both exponents are integral"),
    RelationTemplate("R30", "SL2",
                     "Y(l,j,k;-t)X(l,j,k;s)Y(l,j,k;t) = "
                     "X(l,j,k;-1/(t*c))Y(l,j,k;-c*t^2*s)X(l,j,k;1/(t*c))",
                     ("s", "t"), "letter", ""),
    RelationTemplate("R31", "SL2",
                     "w(l,j,k;1)H1(s)w(l,j,k;1)^-1 = H2(s^(-(l+1)/(j-l)))",
                     ("tau",), "letter",
                     "validated at s = tau^(j-l) so the exponent is integral"),
    RelationTemplate("R32", "SL2",
                     "w(l,j,k;1)H2(s)w(l,j,k;1)^-1 = H1(s^(-(j-l)/(l+1)))",
                     ("tau",), "letter",
                     "validated at s = tau^(l+1) so the exponent is integral"),
    RelationTemplate("R33", "SL2",
                     "w(l,j,k;1)X(l,j,k;u)w(l,j,k;1)^-1 = Y(l,j,k;-u/c)",
                     ("u",), "letter", ""),
    RelationTemplate("R34", "SL2",
                     "w(l,j,k;1)Y(l,j,k;u)w(l,j,k;1)^-1 = X(l,j,k;-c*u)",
                     ("u",), "letter", ""),
    RelationTemplate("R35", "SL2",
                     "Y(l,j,k;s) = X(l,j,k;1/(s*c))H1([-c*s]^(-1/(l+1)))"
                     "H2([-c*s]^(-1/(j-l)))w(l,j,k;1)X(l,j,k;1/(s*c))",
                     ("sigma",), "letter",
                     "validated at s = -sigma^((l+1)(j-l))/c so both exponents are integral"),
]


# instance builders ---------------------------------------------------------

_TEMPLATES = {t.rid: t for t in _CATALOG}


def _letter(x) -> bool:
    return x is not None and 0 <= x[0] < x[1]


# The index each kind of family accepts: the real root none, a letter
# family a letter (l, j, k) with 0 <= l < j, or one of two subsets of those.
_INDEX_KINDS = {
    "": lambda x: x is None,
    "letter": _letter,
    "letter-reversible": _letter,
    "letter-l0": lambda x: _letter(x) and x[0] == 0,
    "letter-top": lambda x: _letter(x) and x[0] == x[1] - 1,
}


# the real Weyl symbol w(-1;1) of R9-R11, R23 and R24, and the mirror of
# its expansion X(-1;1) Y(-1;-1) X(-1;1), the conjugator of mirrored R24
_W1 = sym("W", -1, 1)
_W1_MIRRORED = (sym("Y", -1, 1), sym("X", -1, -1), sym("Y", -1, 1))
# the e/f mirror of a symbol kind
_MIRRORED = {"X": "Y", "Y": "X"}


def build_instance(rid: str, params: dict, index=None, mirrored: bool = False
                   ) -> RelationInstance:
    """Concrete relation instance with all parameters substituted.

    A real-root family (indexed "") takes no index and is built as the
    string at index -1 by the same branch as its imaginary counterpart;
    the instance's index stays None.  A letter family needs its letter
    (l, j, k) of its index kind.  A wrong index raises ValueError.  The
    fractional-power families R29, R31, R32 and R35 record the derived
    parameter s next to the sampled one.  The UNVALIDATED family R16 has
    no group-level instance and raises ValueError.

    mirrored builds a MIRROR family as its transport to an ADJOINT one,
    both sides mirrored: X <-> Y at equal parameters, H_i(s) -> H_i(1/s),
    and the Weyl symbol w(-1;1) expanded, then mirrored.  Conjugation by
    the e/f involution turns the action of each mirrored symbol into the
    action of the original, so the mirrored relation holds on the
    completion iff the original holds on the negative completion, which
    is the content of the MIRROR classification.  The instance has klass
    "ADJOINT" and keeps rid, index and params; any other family raises
    ValueError.  Parameters that are already Fractions are used as they
    are, and every symbol is built directly as a GenSymbol."""
    t = _TEMPLATES[rid]
    if t.klass == "UNVALIDATED":
        raise ValueError(f"{rid} ({t.klass}) has no group-level instance")
    if not _INDEX_KINDS[t.indexed](index):
        need = "no index" if t.indexed == "" else f"a {t.indexed} index (l, j, k)"
        raise ValueError(f"{rid} takes {need}, got {index!r}")
    if mirrored and t.klass != "MIRROR":
        raise ValueError(f"{rid} is {t.klass}, not MIRROR")
    i = -1 if index is None else index
    p = {k: v if isinstance(v, Fraction) else as_fraction(v) for k, v in params.items()}
    W = GroupWord.of
    G = GenSymbol

    if rid in ("R1", "R2", "R17", "R18"):
        kind = "X" if rid in ("R1", "R17") else "Y"
        if mirrored:
            kind = _MIRRORED[kind]
        u, v = p["u"], p["v"]
        pair, whole = W(G(kind, i, u), G(kind, i, v)), W(G(kind, i, u + v))
        lhs, rhs = (pair, whole) if index is None else (whole, pair)
    elif rid in ("R3", "R4"):
        kind = "H1" if rid == "R3" else "H2"
        s, tt = p["s"], p["t"]
        lhs, rhs = W(G(kind, None, s), G(kind, None, tt)), W(G(kind, None, s * tt))
    elif rid == "R5":
        s, tt = p["s"], p["t"]
        lhs = W(G("H1", None, s), G("H2", None, tt))
        rhs = W(G("H2", None, tt), G("H1", None, s))
    elif rid in ("R6", "R7", "R33", "R34"):
        u = p["u"]
        c = _model_exponents(i)[2]
        if rid in ("R6", "R33"):
            lhs, rhs = _conj(G("W", i, _ONE), G("X", i, u)), W(G("Y", i, -u / c))
        else:
            lhs, rhs = _conj(G("W", i, _ONE), G("Y", i, u)), W(G("X", i, -c * u))
    elif rid in ("R8", "R30"):
        s, tt = p["s"], p["t"]
        c = _model_exponents(i)[2]
        lhs = W(G("Y", i, -tt), G("X", i, s), G("Y", i, tt))
        rhs = W(G("X", i, -1 / (tt * c)), G("Y", i, -c * tt * tt * s),
                G("X", i, 1 / (tt * c)))
    elif rid == "R9":
        s = p["s"]
        lhs = W(G("W", -1, s), _W1)
        rhs = W(G("H1", None, -s), G("H2", None, -1 / s))
    elif rid in ("R10", "R11"):
        s = p["s"]
        inner, outk = ("H1", "H2") if rid == "R10" else ("H2", "H1")
        lhs, rhs = _conj(_W1, G(inner, None, s)), W(G(outk, None, s))
    elif rid in ("R12", "R13", "R14", "R15", "R25", "R26", "R27", "R28"):
        s, u = p["s"], p["u"]
        a, b, _c = _model_exponents(i)
        hk = "H1" if rid in ("R12", "R14", "R25", "R26") else "H2"
        xk = "X" if rid in ("R12", "R13", "R25", "R27") else "Y"
        expo = a if hk == "H1" else b
        if xk == "Y":
            expo = -expo
        h = G(hk, None, s)
        if mirrored:
            xk, h = _MIRRORED[xk], G(hk, None, _ONE / s)
        lhs, rhs = _conj(h, G(xk, i, u)), W(G(xk, i, s ** expo * u))
    elif rid in ("R19", "R20", "R21", "R22"):
        s, tt = p["s"], p["t"]
        realk = "X" if rid in ("R19", "R21") else "Y"
        imagk = "X" if rid in ("R19", "R20") else "Y"
        if mirrored:
            realk, imagk = _MIRRORED[realk], _MIRRORED[imagk]
        lhs, rhs = _comm(G(realk, -1, s), G(imagk, index, tt)), GroupWord()
    elif rid in ("R23", "R24"):
        u = p["u"]
        l, j, k = index
        kind = "X" if rid == "R23" else "Y"
        scal = Fraction((-1) ** l) if rid == "R23" else Fraction((-1) ** (j - 1 - l))
        if mirrored:
            kind = _MIRRORED[kind]
            lhs = GroupWord([*((m, 1) for m in _W1_MIRRORED), (G(kind, index, u), 1),
                             *((m, -1) for m in reversed(_W1_MIRRORED))])
        else:
            lhs = _conj(_W1, G(kind, index, u))
        rhs = W(G(kind, (j - 1 - l, j, k), scal * u))
    elif rid == "R29":
        sigma = p["sigma"]
        a, b, _c = _model_exponents(index)
        s = -((-sigma) ** (a * b))
        lhs = W(G("W", index, s), G("W", index, _ONE))
        rhs = W(G("H1", None, (-sigma) ** b), G("H2", None, (-sigma) ** a))
        p = {"sigma": sigma, "s": s}
    elif rid in ("R31", "R32"):
        tau = p["tau"]
        a, b, _c = _model_exponents(index)
        if rid == "R31":
            s = tau ** b
            lhs_mid, rhs = G("H1", None, s), W(G("H2", None, tau ** (-a)))
        else:
            s = tau ** a
            lhs_mid, rhs = G("H2", None, s), W(G("H1", None, tau ** (-b)))
        lhs = _conj(G("W", index, _ONE), lhs_mid)
        p = {"tau": tau, "s": s}
    else:  # R35
        sigma = p["sigma"]
        a, b, c = _model_exponents(index)
        s = -(sigma ** (a * b)) / c
        lhs = W(G("Y", index, s))
        rhs = W(G("X", index, 1 / (s * c)),
                G("H1", None, sigma ** (-b)),
                G("H2", None, sigma ** (-a)),
                G("W", index, _ONE),
                G("X", index, 1 / (s * c)))
        p = {"sigma": sigma, "s": s}
    return RelationInstance(rid, "ADJOINT" if mirrored else t.klass, lhs, rhs, index, p)


# ---------------------------------------------------------------------------
# sweep driver

DEFAULT_SAMPLES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2))
SUITES = ("adjoint", "sl2", "all")


def _indices_for(template: RelationTemplate, cfg: SupportConfig) -> list:
    # None (the real root) and every letter in display order (l, j, k)
    candidates = [None, *((L[2], L[0], L[1]) for L in cfg.letters())]
    fits = [x for x in candidates if _INDEX_KINDS[template.indexed](x)]
    if template.indexed == "letter-reversible":
        # letters whose reversed string position j-1-l is in the window too
        return [x for x in fits if cfg.supports_letter((x[1], x[2], x[1] - 1 - x[0]))]
    return fits


def _param_choices(template: RelationTemplate, samples) -> list:
    # every assignment of the samples, the first parameter slowest; s, t,
    # sigma and tau skip 0
    vals = [as_fraction(x) for x in samples]
    nonzero = [v for v in vals if v]
    names = template.param_names
    opts = [nonzero if name in ("s", "t", "sigma", "tau") else vals for name in names]
    return [dict(zip(names, combo)) for combo in product(*opts)]


def _shadow_check_r16(cfg: SupportConfig) -> dict:
    """Lie-level sweep of the cross-string commutation pattern."""
    letters = list(cfg.letters())
    failures = []
    reading_flags = []
    adjacent_info = []
    n = 0
    for Lp in letters:
        for Ln in letters:
            jp, kp, lp = Lp
            jn, kn, ln = Ln
            distinct = (jp, kp) != (jn, kn)
            if not distinct and lp == ln:
                continue  # one letter: the catalog neither claims nor reports it
            val = monster.bracket(MonsterElt.e_word((Lp,)), MonsterElt.f_word((Ln,)))
            if distinct or abs(lp - ln) > 1:
                n += 1
                if not val.is_zero():
                    failures.append(f"[e({lp},{jp},{kp}), f({ln},{jn},{kn})] = "
                                    f"{monster.format_elt(val)}")
                if distinct and (jp == jn) != (kp == kn):
                    reading_flags.append(
                        f"(l,j,k)=({lp},{jp},{kp}) vs (m,p,q)=({ln},{jn},{kn}): "
                        "strings share exactly one of j=p / k=q; commutation asserted "
                        "under the inclusive-or reading only")
            elif lp != ln:
                adjacent_info.append(
                    f"same string, |l-m|=1: [e({lp},{jp},{kp}), f({ln},{jn},{kn})] = "
                    f"{monster.format_elt(val)} (no commutation claimed by the catalog)")
    return {"id": "R16", "class": "UNVALIDATED",
            "status": "supported, not validated" if not failures else "contradicted",
            "instances": n, "failures": failures,
            "reading_flags": sorted(set(reading_flags)),
            "adjacent_unconstrained": adjacent_info, "pass": not failures}


def validate_catalog(cfg: SupportConfig, samples=DEFAULT_SAMPLES, suite="all") -> dict:
    """Run the suite's catalog families over the sampled parameters and
    indices: "sl2" holds the SL2 families, "adjoint" every other family,
    "all" both.  Raises ValueError for any other suite name.

    Each distinct (lhs, rhs) pair of the ADJOINT instances as built
    (MIRROR ones built as their mirror transport, build_instance's
    mirrored) is validated once per call; an
    instance whose pair was already decided reuses that verdict.  The
    sides that recur across pairs are words of at most one symbol (the
    empty word and single symbols), and validate_adjoint realizes each of
    those once per window.  Every instance still counts in its row's
    "instances", and every failing one lists its own index and params in
    "failures".  A float sample raises ValueError."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    verdicts = {}
    rows = []
    for template in _CATALOG:
        if suite not in ("all", "sl2" if template.klass == "SL2" else "adjoint"):
            continue
        if template.klass == "UNVALIDATED":
            rows.append(_shadow_check_r16(cfg))
            continue
        failures = []
        count = 0
        choices = _param_choices(template, samples)
        mirrored = template.klass == "MIRROR"
        sl2 = template.klass == "SL2"
        for index in _indices_for(template, cfg):
            for params in choices:
                inst = build_instance(template.rid, params, index, mirrored)
                if sl2:
                    ok = validate_sl2(inst)
                else:
                    # injective: each symbol prints its kind, index and reduced parameter
                    key = format_word(inst.lhs) + "=" + format_word(inst.rhs)
                    ok = verdicts.get(key)
                    if ok is None:
                        ok = verdicts[key] = validate_adjoint(inst, cfg)
                count += 1
                if not ok:
                    failures.append({"index": index,
                                     "params": {k: str(v) for k, v in params.items()}})
        rows.append({"id": template.rid, "class": template.klass,
                     "template": template.description, "instances": count,
                     "failures": failures, "note": template.note,
                     "pass": not failures})
    return {"truncation": cfg.degree_bound,
            "caps": {str(j): cfg.cap(j) for j in sorted(cfg.caps)},
            "samples": [str(as_fraction(s)) for s in samples],
            "results": rows,
            "all_pass": all(r["pass"] for r in rows)}


# ---------------------------------------------------------------------------
# freeness evidence

def free_separation_test(words, cfg: SupportConfig) -> dict:
    """Realize each word and look for coincidences of the truncated action.

    Pairwise distinctness supports (but cannot prove) freeness; any
    collision would falsify it.
    """
    sigs = {}
    order = []
    for w in words:
        g = realize_word(w, cfg)
        sig = json.dumps(g.report_dict().get("images"), sort_keys=True)
        sigs.setdefault(sig, []).append(format_word(w))
        order.append(format_word(w))
    collisions = sorted(group for group in sigs.values() if len(group) > 1)
    return {"words": len(order), "distinct": len(sigs),
            "collisions": collisions, "pass": not collisions}
