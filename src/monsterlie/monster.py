"""The monster Lie algebra in exact rational arithmetic.

Generators: h1, h2 (Cartan), e(-1), f(-1) (real simple root vectors),
and imaginary simple root vectors e(0,j,k), f(0,j,k) for j >= 1,
1 <= k <= c(j), where c(j) is the j-th coefficient of the normalized
modular function computed in qseries.  Divided string vectors

    e(l,j,k) = (ad e(-1))^l e(0,j,k) / l!     (0 <= l < j)

and their f-mirrors form the letter alphabets of two free Lie algebras
u+ and u-; the whole algebra decomposes as

    m = u-  +  gl2-span{e(-1), f(-1), h1, h2}  +  u+.

Elements are stored as a flat dict from basis keys to Fraction:

    "h1", "h2", "e-1", "f-1"         scalars of the gl2 block
    ("u+", word), ("u-", word)       Lyndon basis words over letters

A letter is the tuple (j, k, l); tuple order therefore equals the
canonical alphabet order used by the Lyndon machinery.  The root of
e(l,j,k) is (l+1, j-l), of e(-1) is (1,-1); deg(a,b) = 2a + b, so every
letter has degree j + l + 2 >= 3 and e(-1) has degree 1.

Bracket strategy: term_bracket brackets two basis keys by dispatch over
sector pairs, and freelie.elt_bracket extends it bilinearly to sums.
Cartan acts by weights; the gl2 block has a closed table; ad e(-1) and
ad f(-1) act on basis words as derivations through the string maps
(raising/lowering with integer coefficients); same-sign word pairs use
the free-Lie straightening; mixed-sign pairs go through
cross_bracket_words, a memoized Jacobi recursion that peels divided
powers via l*e(l,..) = [e(-1), e(l-1,..)] until the defining relation
[e(0,j,k), f(0,p,q)] = -delta*delta*(j*h1 + h2) applies.  Every
structure constant in this divided-power basis is an integer, so
term_bracket returns int coefficients; the only divisions, by l in that
peeling, are exact and checked (a remainder raises).  The recursion
strictly decreases the metric (letters on the positive side) + (letters
on the negative side), with ties broken by total string level; a bug
that breaks this metric recurses without end and raises RecursionError.

Truncation model: an element is complete at all degrees <= exact_to,
with unknown content possible only at higher positive degrees; it is
exact when exact_to is math.inf, and a finite exact_to is an int.  The
negative-degree side is always stored completely.  Degree bounds are
plain numbers: the zero element has min_degree inf and max_degree -inf,
so bounds combine with min, + and < alone.  Brackets propagate the bound
soundly: content missing above B in one factor can pollute the product
only at degrees above B + mindeg(other factor).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import inf

from . import freelie
from .freelie import elt_add, elt_bracket, elt_scale
from .indices import Letter, SupportConfig, display, letter_root, make_letter

H1 = "h1"
H2 = "h2"
EMINUS = "e-1"
FMINUS = "f-1"
WPOS = "u+"
WNEG = "u-"


class SupportError(ValueError):
    """A letter falls outside the active SupportConfig."""


# ---------------------------------------------------------------------------
# basis keys

def key_root(key) -> tuple:
    if key == H1 or key == H2:
        return (0, 0)
    if key == EMINUS:
        return (1, -1)
    if key == FMINUS:
        return (-1, 1)
    tag, word = key
    a = b = 0
    for L in word:
        r = letter_root(L)
        a += r[0]
        b += r[1]
    return (a, b) if tag == WPOS else (-a, -b)


@cache
def key_degree(key) -> int:
    a, b = key_root(key)
    return 2 * a + b


def key_sort(key) -> tuple:
    """Deterministic total order: Cartan, real, u+ by degree, u- by degree."""
    if key == H1:
        return (0, 0, ())
    if key == H2:
        return (0, 1, ())
    if key == EMINUS:
        return (1, 0, ())
    if key == FMINUS:
        return (1, 1, ())
    tag, word = key
    if tag == WPOS:
        return (2, key_degree(key), word)
    return (3, -key_degree(key), word)


def _check_word(word) -> None:
    if not word or not freelie.is_lyndon(word):
        raise ValueError(f"not a Lyndon word over the letter alphabet: {word!r}")
    for L in word:
        make_letter(L[2], L[0], L[1])  # validates ranges


# ---------------------------------------------------------------------------
# elements

class MonsterElt:
    """Element of the algebra (or of its completion, truncated)."""

    __slots__ = ("terms", "exact_to")

    def __init__(self, terms=None, exact_to=inf):
        t = {}
        if terms:
            for k, c in terms.items():
                f = c if isinstance(c, Fraction) else Fraction(c)
                if f:
                    t[k] = f
        if exact_to < 0:
            raise ValueError("exactness bound must be nonnegative")
        self.terms = t
        self.exact_to = exact_to

    @classmethod
    def _of(cls, terms: dict, exact_to=inf) -> "MonsterElt":
        """Trusted constructor: terms already maps keys to nonzero
        Fractions and becomes the element's own dict, unchecked."""
        if exact_to < 0:
            raise ValueError("exactness bound must be nonnegative")
        x = object.__new__(cls)
        x.terms = terms
        x.exact_to = exact_to
        return x

    # constructors ---------------------------------------------------------
    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def h1(cls, c=1):
        return cls({H1: c})

    @classmethod
    def h2(cls, c=1):
        return cls({H2: c})

    @classmethod
    def cartan(cls, a, b):
        return cls({H1: a, H2: b})

    @classmethod
    def e_minus(cls, c=1):
        return cls({EMINUS: c})

    @classmethod
    def f_minus(cls, c=1):
        return cls({FMINUS: c})

    @classmethod
    def e_letter(cls, l, j, k, c=1):
        return cls({(WPOS, (make_letter(l, j, k),)): c})

    @classmethod
    def f_letter(cls, l, j, k, c=1):
        return cls({(WNEG, (make_letter(l, j, k),)): c})

    @classmethod
    def e_word(cls, word, c=1):
        _check_word(word)
        return cls({(WPOS, tuple(word)): c})

    @classmethod
    def f_word(cls, word, c=1):
        _check_word(word)
        return cls({(WNEG, tuple(word)): c})

    # predicates -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def min_degree(self):
        """Least degree of a term; inf for the zero element."""
        return min(map(key_degree, self.terms), default=inf)

    def max_degree(self):
        """Greatest degree of a term; -inf for the zero element."""
        return max(map(key_degree, self.terms), default=-inf)

    def truncated_above(self, bound: int) -> "MonsterElt":
        """Model-sound truncation: positive terms above bound dropped."""
        return MonsterElt._of(
            {k: c for k, c in self.terms.items() if key_degree(k) <= bound},
            min(self.exact_to, bound))

    def validate_support(self, cfg: SupportConfig) -> None:
        for k in self.terms:
            if isinstance(k, tuple):
                for L in k[1]:
                    if not cfg.supports_letter(L):
                        raise SupportError(
                            f"letter {display(L)} outside support "
                            f"(bound {cfg.degree_bound}, caps {dict(cfg.caps)})")

    # arithmetic -----------------------------------------------------------
    def __add__(self, other):
        return MonsterElt._of(elt_add(self.terms, other.terms),
                              min(self.exact_to, other.exact_to))

    def __neg__(self):
        return MonsterElt._of({k: -c for k, c in self.terms.items()}, self.exact_to)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        return MonsterElt._of(elt_scale(self.terms, Fraction(c)), self.exact_to)

    def __rmul__(self, c):
        return self.scaled(c)

    def __eq__(self, other):
        if not isinstance(other, MonsterElt):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        flag = f" (exact to {self.exact_to})" if self.exact_to < inf else ""
        return f"<MonsterElt {format_elt(self)}{flag}>"


# ---------------------------------------------------------------------------
# printing (canonical form; the cli parser round-trips this)

def _atom_str(tag, word) -> str:
    letter_name = "e" if tag == WPOS else "f"
    if len(word) == 1:
        j, k, l = word[0]
        return f"{letter_name}({l},{j},{k})"
    u, v = freelie.std_factorize(word)
    return f"[{_atom_str(tag, u)},{_atom_str(tag, v)}]"


def format_term(key) -> str:
    if key in (H1, H2, EMINUS, FMINUS):
        if key == EMINUS:
            return "e(-1)"
        if key == FMINUS:
            return "f(-1)"
        return key
    return _atom_str(key[0], key[1])


def format_elt(x: MonsterElt) -> str:
    if not x.terms:
        return "0"
    parts = []
    for k in sorted(x.terms, key=key_sort):
        c = x.terms[k]
        mag = f"{abs(c)}*{format_term(k)}"
        if not parts:
            parts.append(("-" if c < 0 else "") + mag)
        else:
            parts.append((" - " if c < 0 else " + ") + mag)
    return "".join(parts)


# ---------------------------------------------------------------------------
# string action of the real root vectors on letters

def _string_up(L: Letter):
    """ad of the raising real vector on a letter: l -> l+1, coefficient l+1."""
    j, k, l = L
    if l + 1 >= j:
        return None
    return (l + 1, (j, k, l + 1))


def _string_down(L: Letter):
    """ad of the lowering real vector on a letter: l -> l-1, coefficient j-l."""
    j, k, l = L
    if l == 0:
        return None
    return (j - l, (j, k, l - 1))


@cache
def _ad_string_word(word, up: bool) -> dict:
    """Derivation extension of the string maps to a basis word (integer coeffs)."""
    if len(word) == 1:
        r = _string_up(word[0]) if up else _string_down(word[0])
        return {} if r is None else {(r[1],): r[0]}
    u, v = freelie.std_factorize(word)
    bw = freelie.bracket_words
    return elt_add(elt_bracket(_ad_string_word(u, up), {v: 1}, bw),
                   elt_bracket({u: 1}, _ad_string_word(v, up), bw))


# ---------------------------------------------------------------------------
# term dictionaries (plain dict key -> coefficient, exact, no truncation):
# the structure constants below are ints, a MonsterElt's coefficients
# Fractions; sums, scalings and brackets of sums use freelie's elt_add,
# elt_scale and elt_bracket

def _sector(key) -> str:
    if key == H1 or key == H2:
        return "h"
    if key == EMINUS:
        return "em"
    if key == FMINUS:
        return "fm"
    return "up" if key[0] == WPOS else "un"


def term_bracket(k1, k2) -> dict:
    """Exact bracket of two basis keys, as a term dict."""
    s1 = _sector(k1)
    s2 = _sector(k2)
    if s1 == "h":
        if s2 == "h":
            return {}
        r = key_root(k2)
        c = r[0] if k1 == H1 else r[1]
        return {k2: c} if c else {}
    if s2 == "h":
        r = key_root(k1)
        c = r[0] if k2 == H1 else r[1]
        return {k1: -c} if c else {}
    if s1 == "em":
        if s2 == "em":
            return {}
        if s2 == "fm":
            return {H1: 1, H2: -1}
        tag, word = k2
        table = _ad_string_word(word, tag == WPOS)
        return {(tag, w): c for w, c in table.items()}
    if s1 == "fm":
        if s2 == "em":
            return {H1: -1, H2: 1}
        if s2 == "fm":
            return {}
        tag, word = k2
        table = _ad_string_word(word, tag == WNEG)
        return {(tag, w): c for w, c in table.items()}
    if s2 in ("em", "fm"):
        return elt_scale(term_bracket(k2, k1), -1)
    # both are words now
    tag1, w1 = k1
    tag2, w2 = k2
    if tag1 == tag2:
        return {(tag1, w): c for w, c in freelie.bracket_words(w1, w2).items()}
    if tag1 == WPOS:
        return cross_bracket_words(w1, w2)
    return elt_scale(cross_bracket_words(w2, w1), -1)


# ---------------------------------------------------------------------------
# mixed-sign sector

def cross_bracket_words(wp, wn) -> dict:
    """[positive basis word, negative basis word] by Jacobi recursion,
    as a fresh dict: callers may mutate it without touching the cache."""
    return dict(_cross(wp, wn))


@cache
def _cross(wp, wn) -> dict:
    if len(wp) == 1 and len(wn) == 1:
        return _cross_letters(wp[0], wn[0])
    if len(wp) > 1:
        u, v = freelie.std_factorize(wp)
        # [[b_u, b_v], Y] = [b_u, [b_v, Y]] - [b_v, [b_u, Y]]
        t1 = elt_bracket({(WPOS, u): 1}, _cross(v, wn), term_bracket)
        t2 = elt_bracket({(WPOS, v): 1}, _cross(u, wn), term_bracket)
        return elt_add(t1, elt_scale(t2, -1))
    u, v = freelie.std_factorize(wn)
    # [X, [Fu, Fv]] = [[X, Fu], Fv] + [Fu, [X, Fv]]
    t1 = elt_bracket(_cross(wp, u), {(WNEG, v): 1}, term_bracket)
    t2 = elt_bracket({(WNEG, u): 1}, _cross(wp, v), term_bracket)
    return elt_add(t1, t2)


def _cross_letters(Lp: Letter, Ln: Letter) -> dict:
    jp, kp, lp = Lp
    jn, kn, ln = Ln
    if (jp, kp) != (jn, kn):
        return {}
    j = jp
    if lp == 0 and ln == 0:
        return {H1: -j, H2: -1}
    if lp > 0:
        # l*e(l) = [e(-1), e(l-1)], then Jacobi against f(m)
        below = (j, kp, lp - 1)
        inner = _cross((below,), (Ln,))
        out = elt_bracket({EMINUS: 1}, inner, term_bracket)
        if ln > 0:
            # [e(-1), f(m)] = (j-m) f(m-1)
            out = elt_add(out, elt_scale(_cross((below,), ((j, kn, ln - 1),)), -(j - ln)))
        return _exact_quotient(out, lp)
    # lp == 0, ln > 0: m*f(m) = [f(-1), f(m-1)] and [e(0), f(-1)] = 0
    inner = _cross((Lp,), ((j, kn, ln - 1),))
    return _exact_quotient(elt_bracket({FMINUS: 1}, inner, term_bracket), ln)


def _exact_quotient(terms: dict, n: int) -> dict:
    """terms / n over the integers.  The divided-power basis has integral
    structure constants, so a remainder means a wrong one: raise."""
    out = {}
    for k, c in terms.items():
        q, r = divmod(c, n)
        if r:
            raise ArithmeticError(f"structure constant {c}/{n} at {k!r} is not "
                                  "integral; the divided-power basis makes this unreachable")
        out[k] = q
    return out


# Every memo of the kernel is a functools.cache function, and this list
# names them all: the three above, freelie's pair straightening, and the
# ones that completion and presentation, which import this module, add.
# Cached results are shared, so no caller mutates one; clear_caches drops
# every entry.
CACHES: list = [key_degree, _ad_string_word, _cross, freelie._bracket_words]


def clear_caches() -> None:
    for memo in CACHES:
        memo.cache_clear()


# ---------------------------------------------------------------------------
# public bracket with truncation propagation

def _result_bound(a: tuple, b: tuple):
    """Exactness bound of a bracket whose factors are described by
    (min_degree, exact_to) pairs: content missing above one factor's
    bound reaches the product only above that bound plus the other
    factor's effective minimum degree, the least of its min_degree and
    its exact_to + 1.  inf means exact."""
    return min(a[1] + min(b[0], b[1] + 1), b[1] + min(a[0], a[1] + 1))


def bracket(a: MonsterElt, b: MonsterElt, cfg: SupportConfig | None = None) -> MonsterElt:
    """Lie bracket.  With cfg: validates support and clamps above the bound."""
    if cfg is not None:
        a.validate_support(cfg)
        b.validate_support(cfg)
    raw = elt_bracket(a.terms, b.terms, term_bracket)
    bound = inf
    if a.exact_to < inf or b.exact_to < inf:
        bound = _result_bound((a.min_degree(), a.exact_to), (b.min_degree(), b.exact_to))
    if cfg is not None and any(key_degree(k) > cfg.degree_bound for k in raw):
        bound = min(bound, cfg.degree_bound)
    if bound < inf:
        raw = {k: c for k, c in raw.items() if key_degree(k) <= bound}
    return MonsterElt._of(raw, bound)


def omega(a: MonsterElt) -> MonsterElt:
    """Mirror involution: e <-> f on letters and words, h -> -h.

    Defined on exact elements only: mirroring a positively-truncated
    element would leave unknown content on the negative side, which the
    storage model keeps complete.
    """
    if a.exact_to < inf:
        raise ValueError("omega requires an exact element")
    out: dict = {}
    for k, c in a.terms.items():
        if k == H1 or k == H2:
            out[k] = -c
        elif k == EMINUS:
            out[FMINUS] = c
        elif k == FMINUS:
            out[EMINUS] = c
        else:
            tag, w = k
            out[(WNEG if tag == WPOS else WPOS, w)] = c
    return MonsterElt(out)


# ---------------------------------------------------------------------------
# defining-relation sweep

def _rel(report, rid, text, failures, instances):
    report["relations"].append({
        "id": rid,
        "relation": text,
        "instances": instances,
        "pass": not failures,
        "witnesses": failures[:10],
    })


def verify_defining_relations(cfg: SupportConfig, bracket_fn=None) -> dict:
    """Evaluate every defining relation on all indices supported by cfg.

    bracket_fn is injectable so a corrupted engine can serve as a
    negative control in tests; it defaults to the real bracket.
    """
    br = bracket_fn if bracket_fn is not None else bracket
    base = [(j, k) for j in cfg.base_levels() for k in range(1, cfg.cap(j) + 1)]
    report: dict = {"config": {"degree_bound": cfg.degree_bound, "caps": dict(cfg.caps)},
                    "relations": []}
    h1 = MonsterElt.h1()
    h2 = MonsterElt.h2()
    em = MonsterElt.e_minus()
    fm = MonsterElt.f_minus()

    def check(rid, text, cases):
        fails = []
        n = 0
        for label, got, want in cases:
            n += 1
            if got != want:
                fails.append(f"{label}: got {format_elt(got)}, want {format_elt(want)}")
        _rel(report, rid, text, fails, n)

    check("D1", "[h1,h2] = 0", [("h1,h2", br(h1, h2), MonsterElt.zero())])
    check("D2", "[h1,e(-1)] = e(-1)", [("", br(h1, em), em)])
    check("D3", "[h2,e(-1)] = -e(-1)", [("", br(h2, em), -em)])
    check("D4", "[h1,e(0,j,k)] = e(0,j,k)",
          [(f"j={j},k={k}", br(h1, MonsterElt.e_letter(0, j, k)), MonsterElt.e_letter(0, j, k))
           for j, k in base])
    check("D5", "[h2,e(0,j,k)] = j*e(0,j,k)",
          [(f"j={j},k={k}", br(h2, MonsterElt.e_letter(0, j, k)), MonsterElt.e_letter(0, j, k, c=j))
           for j, k in base])
    check("D6", "[h1,f(-1)] = -f(-1)", [("", br(h1, fm), -fm)])
    check("D7", "[h2,f(-1)] = f(-1)", [("", br(h2, fm), fm)])
    check("D8", "[h1,f(0,j,k)] = -f(0,j,k)",
          [(f"j={j},k={k}", br(h1, MonsterElt.f_letter(0, j, k)), -MonsterElt.f_letter(0, j, k))
           for j, k in base])
    check("D9", "[h2,f(0,j,k)] = -j*f(0,j,k)",
          [(f"j={j},k={k}", br(h2, MonsterElt.f_letter(0, j, k)), MonsterElt.f_letter(0, j, k, c=-j))
           for j, k in base])
    check("D10", "[e(-1),f(-1)] = h1 - h2", [("", br(em, fm), MonsterElt.cartan(1, -1))])
    check("D11", "[e(-1),f(0,j,k)] = 0",
          [(f"j={j},k={k}", br(em, MonsterElt.f_letter(0, j, k)), MonsterElt.zero())
           for j, k in base])
    check("D12", "[e(0,j,k),f(-1)] = 0",
          [(f"j={j},k={k}", br(MonsterElt.e_letter(0, j, k), fm), MonsterElt.zero())
           for j, k in base])
    d13 = []
    for j, k in base:
        for p, q in base:
            want = MonsterElt.cartan(-j, -1) if (j, k) == (p, q) else MonsterElt.zero()
            d13.append((f"(j,k)=({j},{k}),(p,q)=({p},{q})",
                        br(MonsterElt.e_letter(0, j, k), MonsterElt.f_letter(0, p, q)), want))
    check("D13", "[e(0,j,k),f(0,p,q)] = -d_jp*d_kq*(j*h1 + h2)", d13)
    d14 = []
    d15 = []
    for j, k in base:
        x = MonsterElt.e_letter(0, j, k)
        for _ in range(j):
            x = br(em, x)
        d14.append((f"j={j},k={k}", x, MonsterElt.zero()))
        y = MonsterElt.f_letter(0, j, k)
        for _ in range(j):
            y = br(fm, y)
        d15.append((f"j={j},k={k}", y, MonsterElt.zero()))
    check("D14", "(ad e(-1))^j e(0,j,k) = 0", d14)
    check("D15", "(ad f(-1))^j f(0,j,k) = 0", d15)

    report["all_pass"] = all(r["pass"] for r in report["relations"])
    return report
