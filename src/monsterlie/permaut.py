"""Index-permutation automorphisms and the ambient-symmetric-group numerology.

A SparsePerm relabels the multiplicity index k of the imaginary
generators at one fixed level j: e(l,j,k) -> e(l,j,sigma(k)), f
likewise, with h1, h2, e(-1), f(-1) fixed.  Only finitely many indices
move, so the action is well defined on any supported window even though
the ambient index set at level j has size c(j).

Two points are conventions rather than consequences of the defining
relations, and every report flags them:

  * the f-side is relabeled by the same sigma as the e-side (mirror
    convention), and
  * sigma is applied uniformly across all string positions l of a
    given (j,k) string.

Both choices are forced if the relabeling is to be an automorphism:
the cross relation [e(l,j,k), f(l,j,k)] = A_l(j) pairs e- and f-strings
with equal k, and the real generators move l without touching k.  The
relation sweep in verify_preservation confirms this at the configured
window.
"""

from __future__ import annotations

import random
import re

from . import monster
from .completion import TruncAut, aut_check, compose, torus
from .indices import SupportConfig
from .monster import MonsterElt
from .qseries import j_coefficients


class SparsePerm:
    """Finitely supported permutation of the index set at one level."""

    __slots__ = ("level", "moved")

    def __init__(self, level: int, moved=None):
        if level < 1:
            raise ValueError("level must be a positive integer")
        moved = dict(moved or {})
        for k, v in moved.items():
            if not (isinstance(k, int) and isinstance(v, int) and k >= 1 and v >= 1):
                raise ValueError("indices must be positive integers")
        if sorted(moved.keys()) != sorted(moved.values()):
            raise ValueError("moved map is not a bijection on its support")
        self.level = level
        self.moved = {k: v for k, v in moved.items() if k != v}

    @classmethod
    def from_cycles(cls, level: int, text: str) -> "SparsePerm":
        """Parse cycle notation like "(1 2 3)(4 5)"; "()" is the identity."""
        text = text.strip()
        if text in ("", "()"):
            return cls(level, {})
        if not re.fullmatch(r"(\s*\(\s*\d+(?:[\s,]+\d+)*\s*\)\s*)+", text):
            raise ValueError(f"bad cycle notation: {text!r}")
        moved: dict = {}
        for body in re.findall(r"\(([^()]*)\)", text):
            entries = [int(x) for x in re.split(r"[\s,]+", body.strip()) if x]
            if len(set(entries)) != len(entries):
                raise ValueError(f"repeated index inside a cycle: {body!r}")
            for a in entries:
                if a in moved:
                    raise ValueError(f"index {a} appears in two cycles")
            for i, a in enumerate(entries):
                moved[a] = entries[(i + 1) % len(entries)]
        return cls(level, moved)

    def apply(self, k: int) -> int:
        return self.moved.get(k, k)

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.moved))

    def inverse(self) -> "SparsePerm":
        return SparsePerm(self.level, {v: k for k, v in self.moved.items()})

    def __mul__(self, other: "SparsePerm") -> "SparsePerm":
        # (self * other)(k) = self(other(k)): other acts first
        if self.level != other.level:
            raise ValueError("can only compose permutations at the same level")
        keys = set(self.moved) | set(other.moved)
        return SparsePerm(self.level, {k: self.apply(other.apply(k)) for k in keys})

    def cycles(self) -> str:
        seen = set()
        out = []
        for start in self.support:
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            k = self.apply(start)
            while k != start:
                cyc.append(k)
                seen.add(k)
                k = self.apply(k)
            out.append("(" + " ".join(str(x) for x in cyc) + ")")
        return "".join(out) if out else "()"

    def __eq__(self, other):
        return (isinstance(other, SparsePerm) and self.level == other.level
                and self.moved == other.moved)

    def __hash__(self):
        return hash((self.level, tuple(sorted(self.moved.items()))))

    def __repr__(self):
        return f"<SparsePerm level={self.level} {self.cycles()}>"


ASSUMPTION_FLAGS = (
    "f-generators relabeled by the same permutation as e-generators "
    "(mirror convention; forced by the diagonal cross relations)",
    "relabeling applied uniformly across all string positions l of each "
    "(j,k) string (forced by the real-generator string action)",
)

# sample sizes and seeds of the --verify checks; the report is
# byte-deterministic for a fixed window
PRESERVATION_PAIRS, PRESERVATION_SEED = 60, 5
OMEGA_SAMPLES, OMEGA_SEED = 40, 7
HOMOMORPHISM_TRIALS, HOMOMORPHISM_SEED = 10, 11


def perm_aut(sigma: SparsePerm, cfg: SupportConfig) -> TruncAut:
    """sigma as an automorphism: every basis word relabeled, the gl2 part
    fixed.  The word's one atom ("perm", sigma) carries sigma itself, the
    identity included; TruncAut refuses a sigma that moves an index above
    its level's cap."""
    return TruncAut(cfg, word=(("perm", sigma),))


def verify_preservation(sigma: SparsePerm, cfg: SupportConfig) -> dict:
    """Check that the relabeling is an algebra automorphism on the window.

    Two independent checks: the full defining-relation catalog evaluated
    through the conjugated bracket sigma^-1([sigma(x), sigma(y)]), and a
    seeded sample of bracket-preservation identities on random supported
    basis terms, checked by completion.aut_check.  The catalog walks each
    base string (ad e(-1))^l e(0,j,k) up to its top letter, of degree
    2j + 1, and a sampled bracket can raise a letter too, past N where
    the window cuts a string; so both checks run on the least window
    that holds every base string whole, with the base levels' caps (a
    window equal to cfg when cfg already holds every string).  A sigma
    at a level above cfg's window moves no letter either check meets, so
    it is checked as the identity there.
    """
    levels = cfg.base_levels()
    if sigma.level not in levels:
        sigma = SparsePerm(sigma.level)
    window = SupportConfig(max(cfg.degree_bound, 2 * max(levels, default=0) + 1),
                           {j: cfg.cap(j) for j in levels})
    g = perm_aut(sigma, window)
    inv = perm_aut(sigma.inverse(), window)

    def conj_bracket(x, y):
        return inv.apply(monster.bracket(g.apply(x), g.apply(y)))

    rel = monster.verify_defining_relations(cfg, bracket_fn=conj_bracket)

    rng = random.Random(PRESERVATION_SEED)
    basis = _basis_terms(cfg)
    sample = [(rng.choice(basis), rng.choice(basis)) for _ in range(PRESERVATION_PAIRS)]
    failures = [[f["a"], f["b"]] for f in aut_check(g, sample)["failures"]]
    return {"relations_pass": rel["all_pass"],
            "bracket_pairs": PRESERVATION_PAIRS,
            "bracket_failures": failures,
            "pass": rel["all_pass"] and not failures}


def _basis_terms(cfg: SupportConfig) -> list:
    out = [MonsterElt.h1(), MonsterElt.h2(), MonsterElt.e_minus(), MonsterElt.f_minus()]
    for L in cfg.letters():
        j, k, l = L
        out.append(MonsterElt.e_letter(l, j, k))
        out.append(MonsterElt.f_letter(l, j, k))
    # a few bracket words so the sweep sees non-letter basis vectors
    letters = list(cfg.letters())
    for a in letters:
        for b in letters:
            if a < b:
                w = monster.bracket(MonsterElt.e_word((a,)), MonsterElt.e_word((b,)))
                if not w.is_zero() and w.max_degree() <= cfg.degree_bound:
                    out.append(w)
    return out


def commutation_report(sigma: SparsePerm, cfg: SupportConfig) -> dict:
    """sigma vs the e/f involution (element level) and vs torus maps."""
    g = perm_aut(sigma, cfg)
    rng = random.Random(OMEGA_SEED)
    basis = _basis_terms(cfg)
    omega_fail = []
    for _ in range(OMEGA_SAMPLES):
        x = rng.choice(basis)
        if not g.apply(monster.omega(x)) == monster.omega(g.apply(x)):
            omega_fail.append(monster.format_elt(x))
    t = torus(2, 3, cfg)
    torus_ok = compose(g, t).equal(compose(t, g))
    return {"omega_samples": OMEGA_SAMPLES, "omega_failures": omega_fail,
            "torus_commutes": torus_ok,
            "pass": not omega_fail and torus_ok}


def homomorphism_report(cfg: SupportConfig) -> dict:
    """perm_aut(sigma * tau) = perm_aut(sigma) . perm_aut(tau) on random pairs."""
    rng = random.Random(HOMOMORPHISM_SEED)
    levels = [j for j in cfg.base_levels() if cfg.cap(j) >= 2]
    if not levels:
        return {"trials": 0, "failures": [], "pass": True,
                "note": "no level has two or more supported indices"}
    failures = []
    for _ in range(HOMOMORPHISM_TRIALS):
        j = rng.choice(levels)
        ks = list(range(1, cfg.cap(j) + 1))
        sigma = _random_perm(rng, j, ks)
        tau = _random_perm(rng, j, ks)
        lhs = perm_aut(sigma * tau, cfg)
        rhs = compose(perm_aut(sigma, cfg), perm_aut(tau, cfg))
        if not lhs.equal(rhs):
            failures.append([sigma.cycles(), tau.cycles()])
    return {"trials": HOMOMORPHISM_TRIALS, "failures": failures, "pass": not failures}


def _random_perm(rng: random.Random, level: int, ks: list) -> SparsePerm:
    img = list(ks)
    rng.shuffle(img)
    return SparsePerm(level, dict(zip(ks, img)))


def perm_report(sigma: SparsePerm, cfg: SupportConfig, verify: bool = False) -> dict:
    perm_aut(sigma, cfg)  # refuses a sigma outside the window
    rep = {"level": sigma.level,
           "cycles": sigma.cycles(),
           "support": list(sigma.support),
           "cap": cfg.cap(sigma.level),
           "assumptions": list(ASSUMPTION_FLAGS),
           "pass": True}
    if verify:
        pres = verify_preservation(sigma, cfg)
        comm = commutation_report(sigma, cfg)
        homo = homomorphism_report(cfg)
        rep["preservation"] = pres
        rep["commutation"] = comm
        rep["homomorphism"] = homo
        rep["pass"] = pres["pass"] and comm["pass"] and homo["pass"]
    return rep


# ---------------------------------------------------------------------------
# ambient numerology

D_VALUE = 97239461142009186000
D_FACTORS = ((2, 4), (3, 7), (5, 3), (7, 4), (11, 1), (13, 2),
             (29, 1), (41, 1), (59, 1), (71, 1))
C15_VALUE = 126142916465781843075
C15_FACTORS = ((3, 6), (5, 2), (7, 1), (1483, 1), (666739430527, 1))


def _product(factors) -> int:
    n = 1
    for p, e in factors:
        n *= p ** e
    return n


def numerology_check() -> dict:
    """Exact big-integer checks on the two ambient degrees.

    d is the smallest degree of a faithful permutation representation of
    the big sporadic group; c(15) is the coefficient that bounds it from
    above, recomputed here from the q-series.  d <= c(15) is what makes
    an embedding into the index-permutation group possible at level 15.
    """
    d_prod = _product(D_FACTORS)
    c15_prod = _product(C15_FACTORS)
    c15_series = j_coefficients(15)[15]
    checks = [
        {"name": "d factorization",
         "detail": f"{_fact_str(D_FACTORS)} = {d_prod}",
         "pass": d_prod == D_VALUE},
        {"name": "c(15) factorization",
         "detail": f"{_fact_str(C15_FACTORS)} = {c15_prod}",
         "pass": c15_prod == C15_VALUE},
        {"name": "c(15) from q-series",
         "detail": f"series value {c15_series}",
         "pass": c15_series == C15_VALUE},
        {"name": "d <= c(15)",
         "detail": f"{D_VALUE} <= {C15_VALUE}",
         "pass": D_VALUE <= C15_VALUE},
    ]
    return {"d": str(D_VALUE), "c15": str(C15_VALUE), "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def _fact_str(factors) -> str:
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)
