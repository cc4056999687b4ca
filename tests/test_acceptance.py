"""Acceptance gate.

Eleven criteria, one test each, so `pytest -v` prints a single pass or
fail line per criterion.  Each test states its window (truncation degree
and index caps) inline; sizes are chosen so the whole gate runs in well
under a minute on a laptop.
"""

import json
import math
import random
import time
from fractions import Fraction

from oracles import invert, lowering_coefficients

from monsterlie import cli, freelie, monster, permaut, presentation
from monsterlie.completion import (Ad, approximate_by_generators, aut_check,
                                   compose, equal_mod_level, exp_ad, log_unipotent,
                                   torus)
from monsterlie.indices import SupportConfig
from monsterlie.monster import MonsterElt
from monsterlie.presentation import GroupWord, sym
from monsterlie.qseries import j_coefficients

CFG9 = SupportConfig(9, {1: 2, 2: 2, 3: 1})
CFG8 = SupportConfig(8, {1: 2, 2: 1})


def _elt_pool(cfg, include_f=True, words=True):
    pool = [MonsterElt.h1(), MonsterElt.h2(), MonsterElt.e_minus(), MonsterElt.f_minus()]
    if not include_f:
        pool = [MonsterElt.e_minus()]
    for (j, k, l) in cfg.letters():
        pool.append(MonsterElt.e_letter(l, j, k))
        if include_f:
            pool.append(MonsterElt.f_letter(l, j, k))
    if words:
        ls = sorted(cfg.letters())
        for a, b in ((ls[0], ls[1]), (ls[0], ls[-1])):
            w = monster.bracket(MonsterElt.e_word((a,)), MonsterElt.e_word((b,)))
            if not w.is_zero():
                pool.append(w)
    return pool


def _rand_unipotent(rng, cfg, min_factors=1, max_factors=3):
    gens = [MonsterElt.e_minus()]
    for (j, k, l) in cfg.letters():
        gens.append(MonsterElt.e_letter(l, j, k))
    auts = []
    for _ in range(rng.randint(min_factors, max_factors)):
        c = Fraction(rng.choice((1, -1, 2, -3, 1, 2)), rng.choice((1, 2, 3)))
        auts.append(exp_ad(rng.choice(gens).scaled(c), cfg))
    return compose(*auts)


def test_criterion_01_modular_coefficients_exact_and_fast(capsys):
    t0 = time.perf_counter()
    code = cli.main(["jcoef", "--nmax", "15"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    c = {int(n): int(v) for n, v in json.loads(capsys.readouterr().out)["coefficients"]}
    assert c[-1] == 1
    assert c[0] == 0
    assert c[1] == 196884
    assert c[2] == 21493760
    assert c[3] == 864299970
    assert c[4] == 20245856256
    assert c[15] == 126142916465781843075
    assert elapsed < 1.0


def test_criterion_02_ambient_degree_numerology():
    rep = permaut.numerology_check()
    assert rep["pass"]
    assert permaut.D_VALUE == 97239461142009186000
    d = 1
    for p, e in permaut.D_FACTORS:
        d *= p ** e
    assert d == permaut.D_VALUE
    assert permaut.D_VALUE <= permaut.C15_VALUE == j_coefficients(15)[15]


def test_criterion_03_defining_relations_hold_on_window():
    # every defining-relation family, N=9, caps {1:2, 2:2, 3:1}
    t0 = time.perf_counter()
    rep = monster.verify_defining_relations(CFG9)
    elapsed = time.perf_counter() - t0
    assert rep["all_pass"]
    assert len(rep["relations"]) == 15
    assert all(r["pass"] for r in rep["relations"])
    assert elapsed < 60.0


def test_criterion_04_jacobi_identity_exact_sweep():
    # 500 seeded basis-term triples across all sectors, brackets computed
    # with no truncation clamp
    rng = random.Random(20260823)
    pool = [MonsterElt.h1(), MonsterElt.h2(),
            MonsterElt.e_minus(), MonsterElt.f_minus()]
    for (j, k, l) in CFG9.letters():
        pool.append(MonsterElt.e_letter(l, j, k))
        pool.append(MonsterElt.f_letter(l, j, k))
    pool.append(MonsterElt.e_word(((1, 1, 0), (1, 2, 0))))
    pool.append(MonsterElt.f_word(((1, 1, 0), (2, 1, 1))))
    for _ in range(500):
        x = rng.choice(pool)
        y = rng.choice(pool)
        z = rng.choice(pool)
        jac = (monster.bracket(x, monster.bracket(y, z))
               + monster.bracket(y, monster.bracket(z, x))
               + monster.bracket(z, monster.bracket(x, y)))
        assert jac.is_zero()
        assert jac.exact_to == math.inf  # fully exact, no window involved


def test_criterion_05_string_coefficients_match_linear_system():
    # lowering coefficients for every supported (l,j,k) vs the
    # independently solved system l*b(l) - (l+1)*b(l+1) = 2l+1-j, b(0)=0
    betas = {j: lowering_coefficients(j) for j in range(1, 7)}
    for (j, k, l) in CFG9.letters():
        beta = betas[j]
        down = monster.bracket(MonsterElt.f_minus(), MonsterElt.e_letter(l, j, k))
        if l == 0:
            assert down.is_zero() and beta[0] == 0
        else:
            assert down == MonsterElt.e_letter(l - 1, j, k).scaled(beta[l])
    # j-th power of the raising operator kills the whole string, the
    # (j-1)-th does not; checked past the configured levels too
    for j in range(1, 7):
        x = MonsterElt.e_letter(0, j, 1)
        for _ in range(j - 1):
            x = monster.bracket(MonsterElt.e_minus(), x)
        assert not x.is_zero()
        assert monster.bracket(MonsterElt.e_minus(), x).is_zero()
        assert betas[j][j] == 0  # oracle sees the same string end
        for l in range(j):
            assert l * betas[j][l] - (l + 1) * betas[j][l + 1] == 2 * l + 1 - j


def test_criterion_06_automorphism_multiplicativity_sample():
    # 200 bracket-preservation pairs for each automorphism style, N=8
    rng = random.Random(68)
    pool = _elt_pool(CFG8)
    g1 = exp_ad(MonsterElt.e_minus(Fraction(3, 2)), CFG8)
    g2 = exp_ad(MonsterElt.e_letter(0, 2, 1, c=Fraction(-1, 3)), CFG8)
    g3 = torus(2, Fraction(1, 3), CFG8)
    g4 = presentation.realize_word(GroupWord.of(sym("W", -1, 1)), CFG8)
    g5 = compose(g1, g2, invert(g1))
    for g in (g1, g2, g3, g4, g5):
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(200)]
        rep = aut_check(g, pairs)
        assert rep["pass"], rep["failures"][:1]
        assert rep["checked"] == 200


def test_criterion_07_relation_catalog_validates():
    # all 35 presented families over every supported index at N=9,
    # caps {1:2, 2:2, 3:1}, five parameter samples; the level-3 strings
    # exercise conjugations whose intermediates leave the window
    rep = presentation.validate_catalog(
        CFG9, samples=(1, -1, 2, -2, Fraction(1, 2)))
    assert rep["all_pass"]
    assert len(rep["results"]) == 35
    total = sum(r["instances"] for r in rep["results"])
    assert total >= 2500
    by_class: dict = {}
    for r in rep["results"]:
        by_class.setdefault(r["class"], []).append(r)
    # 100% pass rate in every validated class
    assert all(r["pass"] and not r["failures"] for r in by_class["ADJOINT"])
    assert all(r["pass"] and not r["failures"] for r in by_class["MIRROR"])
    assert all(r["pass"] and not r["failures"] for r in by_class["SL2"])
    r16 = by_class["UNVALIDATED"][0]
    assert r16["status"] == "supported, not validated"
    assert r16["pass"] and r16["failures"] == []


def test_criterion_08_log_exp_and_adjoint_diagrams():
    # 50 exp(log(g)) = g roundtrips and 50 conjugation diagrams, N=8
    rng = random.Random(88)
    for _ in range(50):
        g = _rand_unipotent(rng, CFG8)
        x = log_unipotent(g)
        assert exp_ad(x, CFG8).equal(g)
    pos_pool = _elt_pool(CFG8, include_f=False)
    for _ in range(50):
        g = _rand_unipotent(rng, CFG8)
        x = rng.choice(pos_pool).scaled(Fraction(rng.choice((1, -1, 2)), 2))
        lhs = exp_ad(Ad(g, x), CFG8)
        rhs = compose(g, exp_ad(x, CFG8), invert(g))
        assert lhs.equal(rhs)


def test_criterion_09_generator_word_approximation():
    # 25 roundtrips: peel g into generator exponentials, agree mod level 10
    cfg = SupportConfig(10, {1: 2, 2: 1})
    rng = random.Random(99)
    for _ in range(25):
        g = _rand_unipotent(rng, cfg, min_factors=1, max_factors=4)
        word = approximate_by_generators(g, 10)
        assert equal_mod_level(g, word, 10)


def test_criterion_10_free_group_separation():
    # all 160 nonempty reduced words of length <= 4 in two letter
    # exponentials stay pairwise distinct at N=14; degree counting shows
    # a length-8 quotient could only cancel below degree 14, so this
    # window is conclusive for lengths up to 4
    cfg = SupportConfig(14, {1: 1, 2: 1})
    a = GroupWord.of(sym("X", (0, 1, 1), 1))
    b = GroupWord.of(sym("X", (0, 2, 1), 1))
    gens = [a, a.inverse(), b, b.inverse()]
    words = []
    frontier = [GroupWord()]
    for _ in range(4):
        nxt = []
        for w in frontier:
            for g in gens:
                wg = w * g
                if len(wg) == len(w) + 1:  # reduced extension only
                    nxt.append(wg)
        words.extend(nxt)
        frontier = nxt
    assert len(words) == 4 + 12 + 36 + 108 == 160
    rep = presentation.free_separation_test(words, cfg)
    assert rep["pass"] and rep["distinct"] == 160
    # one-parameter subgroup stays faithful in the scalar too
    fam = [GroupWord.of(sym("X", (0, 1, 1), u)) for u in range(1, 6)]
    rep2 = presentation.free_separation_test(fam, cfg)
    assert rep2["pass"] and rep2["distinct"] == 5


def test_criterion_11_graded_dimension_composite_root():
    # free Lie dimension at the doubled root (2,2) over modular
    # multiplicities: generators there plus pair-brackets from (1,1).
    # that this total equals the next modular coefficient is an input
    # from outside this computation; here it is certified exactly.
    coef = j_coefficients(5)
    mult = {}
    for a in range(1, 3):
        for b in range(1, 7 - 2 * a):
            mult[(a, b)] = coef[a + b - 1]
    dims = freelie.witt_root_dimensions(mult, 6)
    assert dims[(1, 1)] == 196884
    expected = math.comb(196884, 2) + 864299970
    assert dims[(2, 2)] == expected == 20245856256 == coef[4]
