import copy
import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, islice, repeat
from math import gcd, inf
from pathlib import Path

import pytest

from monsterlie import cli, completion, freelie, monster, presentation
from monsterlie.cli import parse_word
from monsterlie.completion import (Ad, TruncAut, _first_order_log, approximate_by_generators,
                                   aut_check, compose, equal_mod_level, exp_ad,
                                   filtration_level, generator_keys, log_unipotent,
                                   torus)
from monsterlie.indices import SupportConfig, letter_degree
from monsterlie.monster import MonsterElt, bracket
from monsterlie.permaut import SparsePerm
from monsterlie.presentation import GroupWord, format_word, realize_word, sym

from oracles import (approximate_by_log, descent_floor, descent_pad, exp_series, invert,
                     lyndon_basis)
from test_acceptance import _rand_unipotent
from test_contract import workloads

CFG = SupportConfig(9, {1: 2, 2: 1})
N = 9


def test_generator_keys_order():
    keys = generator_keys(CFG)
    assert keys[0] == monster.H1
    assert keys[1] == monster.H2
    assert keys[2] == monster.EMINUS
    assert keys[3] == monster.FMINUS
    assert (monster.WPOS, ((1, 1, 0),)) in keys
    assert (monster.WNEG, ((2, 1, 0),)) in keys


def test_exp_ad_real_on_f():
    # exp(u ad e(-1)) f(-1) = f(-1) + u(h1-h2) - u^2 e(-1)
    g = exp_ad(MonsterElt.e_minus(Fraction(3, 2)), CFG)
    img = g.apply(MonsterElt.f_minus())
    want = (MonsterElt.f_minus() + MonsterElt.cartan(Fraction(3, 2), Fraction(-3, 2))
            + MonsterElt.e_minus(Fraction(-9, 4)))
    assert img == want


def test_exp_ad_one_parameter_group():
    a = exp_ad(MonsterElt.e_letter(0, 1, 1, 2), CFG)
    b = exp_ad(MonsterElt.e_letter(0, 1, 1, 3), CFG)
    c = exp_ad(MonsterElt.e_letter(0, 1, 1, 5), CFG)
    assert compose(a, b).equal(c)


def test_exp_ad_rejects_cartan_and_mixed():
    with pytest.raises(ValueError):
        exp_ad(MonsterElt.h1(), CFG)
    with pytest.raises(ValueError):
        exp_ad(MonsterElt.f_letter(0, 1, 1), CFG)
    with pytest.raises(ValueError):
        exp_ad(MonsterElt.e_minus() + MonsterElt.f_minus(), CFG)


def test_exp_ad_accepts_pure_lowering_real():
    g = exp_ad(MonsterElt.f_minus(2), CFG)
    img = g.apply(MonsterElt.e_minus())
    want = (MonsterElt.e_minus() + MonsterElt.cartan(-2, 2)
            + MonsterElt.f_minus(-4))
    assert img == want


def test_torus_scales_by_root():
    t = torus(2, 3, CFG)
    assert t.apply(MonsterElt.e_letter(0, 2, 1)) == MonsterElt.e_letter(0, 2, 1, c=2 * 9)
    assert t.apply(MonsterElt.e_minus()) == MonsterElt.e_minus(Fraction(2, 3))
    assert t.apply(MonsterElt.h1()) == MonsterElt.h1()
    with pytest.raises(ValueError):
        torus(0, 1, CFG)


def test_compose_and_invert_word_backed():
    g = compose(exp_ad(MonsterElt.e_minus(), CFG),
                torus(2, 1, CFG),
                exp_ad(MonsterElt.e_letter(0, 1, 1), CFG))
    gi = invert(g)
    assert compose(g, gi).equal(TruncAut.identity(CFG))
    assert compose(gi, g).equal(TruncAut.identity(CFG))


def test_truncation_degree_is_the_window_bound():
    g = exp_ad(MonsterElt.e_minus(), CFG)
    assert g.N == CFG.degree_bound == N
    with pytest.raises(AttributeError):
        g.N = 3


def test_window_mismatch_raises():
    g = exp_ad(MonsterElt.e_minus(), CFG)
    # another degree bound, then other caps at the same bound
    for other in (SupportConfig(8, {1: 2, 2: 1}), SupportConfig(9, {1: 2, 2: 2})):
        h = exp_ad(MonsterElt.e_minus(), other)
        with pytest.raises(ValueError, match="window mismatch"):
            compose(g, h)
        with pytest.raises(ValueError, match="window mismatch"):
            g.equal(h)
        with pytest.raises(ValueError, match="window mismatch"):
            h.equal(g)


def test_compose_order_rightmost_first():
    t = torus(2, 1, CFG)           # scales e(-1) by 2
    x = exp_ad(MonsterElt.e_minus(), CFG)
    lhs = compose(t, x).apply(MonsterElt.f_minus())
    rhs = t.apply(x.apply(MonsterElt.f_minus()))
    assert lhs == rhs


def test_filtration_level_values():
    assert filtration_level(TruncAut.identity(CFG)) == (N, True)
    g = exp_ad(MonsterElt.e_letter(0, 1, 1), CFG)
    lv = filtration_level(g)
    assert lv.level == 3 and not lv.window_limited
    g2 = exp_ad(MonsterElt.e_minus(), CFG)
    assert filtration_level(g2).level == 1
    g3 = exp_ad(MonsterElt.e_letter(0, 2, 1, c=Fraction(1, 7)), CFG)
    assert filtration_level(g3).level == 4


def test_filtration_level_of_torus_is_zero():
    # a torus fixes the Cartan but moves generators at their own degree
    t = torus(2, 3, CFG)
    lv = filtration_level(t)
    assert lv.level == 0 and not lv.window_limited


def test_log_exp_roundtrip_element_side():
    x = MonsterElt.e_letter(0, 1, 1, 2) + MonsterElt.e_minus(Fraction(1, 2))
    g = exp_ad(x, CFG)
    y = log_unipotent(g)
    assert {k: c for k, c in y.terms.items() if abs(monster.key_degree(k)) <= N} == x.terms


def test_exp_log_roundtrip_group_side():
    g = compose(exp_ad(MonsterElt.e_letter(0, 1, 1), CFG),
                exp_ad(MonsterElt.e_letter(0, 2, 1, -2), CFG),
                exp_ad(MonsterElt.e_minus(Fraction(1, 3)), CFG))
    x = log_unipotent(g)
    assert exp_ad(x, CFG).equal(g)


def test_log_rejects_nonunipotent():
    with pytest.raises(ValueError):
        log_unipotent(torus(2, 1, CFG))


def test_bch_lowest_terms():
    # log(exp(x) exp(y)) = x + y + [x,y]/2 + ... ; check through degree 7
    x = MonsterElt.e_letter(0, 1, 1)
    y = MonsterElt.e_letter(0, 2, 1)
    g = compose(exp_ad(x, CFG), exp_ad(y, CFG))
    z = log_unipotent(g)
    want = x + y + bracket(x, y).scaled(Fraction(1, 2))
    assert {k: c for k, c in z.terms.items() if monster.key_degree(k) <= 7} == want.terms


def test_ad_diagram():
    g = compose(exp_ad(MonsterElt.e_minus(), CFG),
                exp_ad(MonsterElt.e_letter(0, 1, 2), CFG))
    x = MonsterElt.e_letter(0, 2, 1, c=Fraction(2, 3))
    lhs = exp_ad(Ad(g, x), CFG)
    rhs = compose(g, exp_ad(x, CFG), invert(g))
    assert lhs.equal(rhs)


def test_ad_rejects_negative_sector():
    g = exp_ad(MonsterElt.e_minus(), CFG)
    with pytest.raises(ValueError):
        Ad(g, MonsterElt.f_letter(0, 1, 1))


def test_aut_check_passes_on_honest_auts():
    auts = [exp_ad(MonsterElt.e_minus(), SupportConfig(8, {1: 2, 2: 1})),
            torus(3, Fraction(1, 2), SupportConfig(8, {1: 2, 2: 1}))]
    cfg8 = SupportConfig(8, {1: 2, 2: 1})
    pool = [MonsterElt.h1(), MonsterElt.e_minus(), MonsterElt.f_minus(),
            MonsterElt.e_letter(0, 1, 1), MonsterElt.f_letter(0, 2, 1)]
    rng = random.Random(2)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(30)]
    for g in auts:
        rep = aut_check(g, pairs)
        assert rep["pass"] and rep["failures"] == []


class _Sabotaged:
    """An automorphism that adds h1 to the image of e(-1): the two
    attributes aut_check reads, over an honest exp_ad."""

    def __init__(self, g):
        self.N = g.N
        self._g = g

    def apply(self, y):
        out = self._g.apply(y)
        c = y.terms.get(monster.EMINUS)
        return out + MonsterElt.h1().scaled(c) if c else out


def test_aut_check_catches_corruption():
    cfg8 = SupportConfig(8, {1: 2, 2: 1})
    g = exp_ad(MonsterElt.e_minus(), cfg8)
    pairs = [(MonsterElt.e_minus(), MonsterElt.f_minus())]
    assert aut_check(g, pairs)["pass"]
    assert not aut_check(_Sabotaged(g), pairs)["pass"]


def test_perm_atomic_roundtrip():
    swap = (("perm", SparsePerm(1, {1: 2, 2: 1})),)
    g = TruncAut(CFG, word=swap)
    x = MonsterElt.e_letter(0, 1, 1)
    assert g.apply(x) == MonsterElt.e_letter(0, 1, 2)
    assert compose(g, g).equal(TruncAut.identity(CFG))


def test_approximate_by_generators_roundtrip():
    cfg = SupportConfig(10, {1: 2, 2: 1})
    g = compose(exp_ad(MonsterElt.e_letter(0, 1, 1), cfg),
                exp_ad(MonsterElt.e_minus(2), cfg),
                exp_ad(MonsterElt.e_letter(0, 2, 1, Fraction(-1, 2)), cfg))
    word = approximate_by_generators(g, 9)
    assert equal_mod_level(g, word, 9)
    text = format_word(word)
    assert text.startswith("X(")


def test_approximate_identity_is_empty():
    word = approximate_by_generators(TruncAut.identity(CFG), 5)
    assert word == GroupWord()
    assert format_word(word) == "1"


def test_approximate_rejects_non_unipotent_and_too_deep():
    with pytest.raises(ValueError, match="approximation requires a unipotent automorphism"):
        approximate_by_generators(realize_word(parse_word("H1(2)"), CFG), 5)
    with pytest.raises(ValueError, match="cannot certify beyond the truncation window"):
        approximate_by_generators(realize_word(parse_word("X(0,1,1;1)"), CFG), N + 1)


# the benchmark's aut approx words at seeds 0, 3, 5 and 7, in its window
APPROX_CFG = SupportConfig(15, {1: 2, 2: 2, 3: 1, 4: 1})
APPROX_WORDS = ("X(0,1,1;1)X(0,2,1;-1/2)X(-1;2)X(0,3,1;1)",
                "X(0,1,1;1)X(0,2,1;1/2)X(-1;2)X(0,3,1;1)",
                "X(0,1,2;-1)X(0,2,2;-1/2)X(-1;-2)X(0,3,1;-1)",
                "X(0,1,2;-1)X(0,2,1;1/2)X(-1;-2)X(0,3,1;-1)")


def test_first_order_peel_matches_log_series_peel():
    cases = [(realize_word(parse_word(w), APPROX_CFG), 15)
             for w in APPROX_WORDS]
    # a unipotent word with several lowering atoms, at the CLI's default
    # window: h1's image is exact through 9 in one pass of the clamp schedule
    cfg9 = SupportConfig(9, {1: 2, 2: 2, 3: 1})
    w = "w(-1;1)X(0,2,1;1/2)w(-1;1)^-1Y(-1;1)X(1,3,1;1)Y(-1;-1)"
    cases.append((realize_word(parse_word(w), cfg9), 9))
    cfg = SupportConfig(10, {1: 2, 2: 1})
    rng = random.Random(99)
    t = torus(2, 1, cfg)
    for n in range(25):
        g = _rand_unipotent(rng, cfg, min_factors=1, max_factors=4)
        cases.append((g, 10))
        if n % 4 == 0:
            cases.append((compose(t, g, invert(t)), 10))
    for g, depth in cases:
        assert approximate_by_generators(g, depth) == approximate_by_log(g, depth)


def test_printed_approximation_parses_back():
    # every exponent is +1, so no free reduction fires and the printed
    # word is valid --word input that parses to the same GroupWord
    words = [approximate_by_generators(realize_word(parse_word(w), APPROX_CFG), 15)
             for w in APPROX_WORDS]
    words.append(approximate_by_generators(TruncAut.identity(CFG), N))
    for w in words:
        assert all(e == 1 for _, e in w.factors)
        assert parse_word(format_word(w)) == w
    assert len(words[0]) == 49


def test_approx_keys_each_exp_atom_once(monkeypatch, capsys):
    # the benchmark's seed-0 aut approx keys 20 exp atoms: its word's and
    # the peel's inverse symbols', each once, when first met; the
    # verifier's inverse word holds only symbols the peel keyed
    keyed, verifying = [], []
    real_keyed, real_equal = completion._keyed_word, completion.equal_mod_level

    def keyed_word(word, cfg):
        keyed.extend(bool(verifying) for a in word if a[0] == "exp")
        return real_keyed(word, cfg)

    def equal_mod_level(*args):
        verifying.append(True)
        try:
            return real_equal(*args)
        finally:
            verifying.pop()

    monkeypatch.setattr(completion, "_keyed_word", keyed_word)
    monkeypatch.setattr(completion, "equal_mod_level", equal_mod_level)
    monster.clear_caches()
    assert cli.main(workloads.commands("approx", 0)[0]) == 0
    assert '"verified": true' in capsys.readouterr().out
    assert len(keyed) == 20
    assert not any(keyed)


def test_first_order_log_checks_the_peel_invariant():
    cfg = SupportConfig(10, {1: 2, 2: 1})
    e = exp_ad(MonsterElt.e_minus(1), cfg)             # level 1
    with pytest.raises(RuntimeError, match="filtration subgroup"):
        _first_order_log(e, 2, 10)
    x = MonsterElt.e_letter(0, 1, 1)
    g = exp_ad(x, cfg)                                  # level 3
    with pytest.raises(RuntimeError, match="filtration subgroup"):
        _first_order_log(g, 4, 10)
    assert _first_order_log(g, 3, 10) == x


def test_equal_mod_level():
    g = exp_ad(MonsterElt.e_letter(0, 2, 1), CFG)   # level 4
    assert equal_mod_level(g, GroupWord(), 4)
    assert not equal_mod_level(g, GroupWord(), 5)


def test_equal_mod_level_on_non_identity_pairs():
    # g^-1 h = exp(2/3 e(0,2,1)) at level 4; the group commutator of
    # exp(e(0,1,1)) and exp(e(0,2,1)) at level 3 + 4 = 7
    pairs = [("X(0,1,1;1)X(0,2,1;-2/3)", "X(0,1,1;1)", 4),
             ("X(0,1,1;1)X(0,2,1;1)", "X(0,2,1;1)X(0,1,1;1)", 7)]
    for gw, hw, level in pairs:
        gw, hw = parse_word(gw), parse_word(hw)
        g, h = realize_word(gw, CFG), realize_word(hw, CFG)
        lvl = filtration_level(compose(invert(g), h))
        assert lvl == (level, False)
        assert equal_mod_level(g, hw, level) and equal_mod_level(h, gw, level)
        assert not equal_mod_level(g, hw, level + 1)
        assert not equal_mod_level(h, gw, level + 1)
        for i in range(N + 1):
            assert equal_mod_level(g, hw, i) == (lvl.level >= i or lvl.window_limited), i
            assert equal_mod_level(h, gw, i) == equal_mod_level(g, hw, i), i


def test_apply_respects_requested_need():
    g = exp_ad(MonsterElt.e_minus(), CFG)
    img = g.apply(MonsterElt.f_letter(0, 1, 1), need=4)
    assert img.exact_to >= 4


def test_report_dict_deterministic():
    g = compose(exp_ad(MonsterElt.e_minus(), CFG), torus(2, 3, CFG))
    assert g.report_dict() == g.report_dict()
    assert g.report_dict()["truncation"] == N


def test_apply_refuses_negative_need():
    # need >= 0 keeps every descent bound >= -2, where the floor is exact
    g = exp_ad(MonsterElt.f_minus(), CFG)
    assert g.apply(MonsterElt.h1(), need=0).exact_to == inf
    with pytest.raises(ValueError):
        g.apply(MonsterElt.h1(), need=-1)


def test_descent_pad_and_floor_values():
    levels3 = tuple(SupportConfig(9, {1: 2, 2: 2, 3: 1}).base_levels())
    # biggest descent budget of a word bottoming inside degree 9 is a
    # level-3 letter (2 steps) next to a level-2 letter (1 step)
    assert completion._descent_pad(9, levels3) == 3
    # cheapest bottom whose raised top clears 11 is that same pair: 9
    assert completion._descent_floor(11, levels3) == 9
    assert completion._descent_floor(14, levels3) == 12
    # level-1 strings have length 1: nothing can descend at all
    levels1 = tuple(SupportConfig(9, {1: 2}).base_levels())
    assert completion._descent_pad(9, levels1) == 0
    assert completion._descent_floor(11, levels1) == 12


def test_weyl_conjugation_reverses_long_string():
    # conjugating the top-of-string exponential by the degree -1 Weyl
    # word sends it to the bottom-of-string exponential; the letter sits
    # at degree 7, so intermediates leave the window and the lowering
    # factors must pull the degree-9 cross terms back in
    cfg = SupportConfig(9, {1: 2, 2: 2, 3: 1})
    w = compose(exp_ad(MonsterElt.e_minus(), cfg),
                exp_ad(MonsterElt.f_minus(-1), cfg),
                exp_ad(MonsterElt.e_minus(), cfg))
    g = compose(w, exp_ad(MonsterElt.e_letter(2, 3, 1), cfg), invert(w))
    h = exp_ad(MonsterElt.e_letter(0, 3, 1), cfg)
    assert g.equal(h)
    img = g.apply(MonsterElt.e_letter(0, 2, 1)).truncated_above(9)
    cross = bracket(MonsterElt.e_letter(0, 2, 1), MonsterElt.e_letter(0, 3, 1))
    assert img == MonsterElt.e_letter(0, 2, 1) - cross
    assert img.exact_to == 9


# ---------------------------------------------------------------------------
# memoized atom maps against the whole-element computation

CFG3 = SupportConfig(9, {1: 2, 2: 2, 3: 1})


def _relabeled(key, level, moved):
    """Index relabeling of one basis key, rebuilt with the bracket."""
    if not isinstance(key, tuple):
        return MonsterElt({key: 1})
    tag, w = key
    if len(w) == 1:
        j, k, l = w[0]
        if j == level:
            k = moved.get(k, k)
        return MonsterElt({(tag, ((j, k, l),)): 1})
    u, v = freelie.std_factorize(w)
    return bracket(_relabeled((tag, u), level, moved), _relabeled((tag, v), level, moved))


def _direct(atom, y, bound):
    tag = atom[0]
    if tag == "exp":
        return exp_series(atom[1], y, bound, CFG3)
    out = MonsterElt.zero()
    for k, c in y.terms.items():
        if tag == "torus":
            a, b = monster.key_root(k)
            img = MonsterElt({k: atom[1] ** a * atom[2] ** b})
        else:
            img = _relabeled(k, atom[1].level, atom[1].moved)
        out = out + img.scaled(c)
    return MonsterElt(out.terms, exact_to=y.exact_to)


def _diff_inputs():
    gens = generator_keys(CFG3)
    mixed = {g: Fraction(i + 1, 3) * (-1) ** i for i, g in enumerate(gens)}
    ins = []
    for terms in [{g: Fraction(3, 2)} for g in gens] + [mixed]:
        ins.append(MonsterElt(terms))
        ins.append(MonsterElt(terms, exact_to=7))
    return ins


def _one_atom_block(atom, slot, y, bound):
    """atom applied to y: one _atom_block on the block of y's integer
    form."""
    [vec] = completion._atom_block(atom, slot, [completion._to_vec(y)], bound)
    return completion._to_elt(*vec)


def test_memoized_atoms_match_whole_element():
    raw = [("exp", MonsterElt.e_minus(2)),
           ("exp", MonsterElt.e_letter(0, 1, 1) + MonsterElt.e_letter(0, 2, 1, Fraction(1, 2))),
           ("exp", MonsterElt.f_minus(Fraction(-1, 2))),
           ("torus", Fraction(2), Fraction(3, 5)),
           ("perm", SparsePerm(1, {1: 2, 2: 1}))]
    g = TruncAut(CFG3, word=raw)
    atoms = g.word
    slots = [slot for _, slot in reversed(g._steps)]
    assert [a[2][4] for a in atoms[:3]] == [None, None, tuple(CFG3.base_levels())]
    assert all(type(slot) is dict for slot in slots)
    inputs = _diff_inputs()
    for atom, slot in zip(atoms, slots):
        for bound in (9, 12):
            for y in inputs:
                memo = _one_atom_block(atom, slot, y, bound)
                direct = _direct(atom, y, bound)
                e = memo.exact_to
                assert e <= direct.exact_to, (atom[0], y, bound)
                assert memo.truncated_above(e) == direct.truncated_above(e)
                warm = _one_atom_block(atom, slot, y, bound)
                assert warm.terms == memo.terms and warm.exact_to == e
    for slot in slots:
        assert slot
        for images in slot.values():
            assert images and all(type(img) is tuple for img in images.values())
    presentation._word_matrix(GroupWord.of(sym("X", -1, 1)), -1)  # the 2x2 model's symbol memo
    g._generator_forms()  # the window's generator ids
    presentation._side_forms(GroupWord(), CFG3)  # the one-symbol side memo
    realize_word(GroupWord.of(sym("X", -1, 1)), CFG3)  # the per-window symbol memo
    assert all(memo.cache_info().currsize for memo in monster.CACHES)
    monster.clear_caches()
    assert not any(memo.cache_info().currsize for memo in monster.CACHES)
    # the slots the word holds keep their images; a word keyed anew owns
    # fresh slots
    assert all(slots) and not any(slot for _, slot in TruncAut(CFG3, word=raw)._steps)


def _basis_keys(cfg, dmax):
    """Generator keys and every basis key with |degree| <= dmax."""
    keys = list(generator_keys(cfg))
    for d in range(1, dmax + 1):
        for w in lyndon_basis(cfg.letters(), letter_degree, d):
            for tag in (monster.WPOS, monster.WNEG):
                if (tag, w) not in keys:
                    keys.append((tag, w))
    return keys


def test_basis_brackets_are_integral():
    # the divided-power string basis has integer structure constants
    # (Borcherds 1992, Jurisich 1998): every basis-key bracket of the
    # default window and of the aut approx window is an int combination
    windows = [(CFG3, 9),
               (SupportConfig(15, {1: 2, 2: 2, 3: 1, 4: 1}), 12)]
    for cfg, dmax in windows:
        keys = _basis_keys(cfg, dmax)
        for k1 in keys:
            for k2 in keys:
                for v in monster.term_bracket(k1, k2).values():
                    assert type(v) is int, (k1, k2, v)
    assert len(keys) == 276


def test_bracket_table_matches_term_bracket():
    # the id table, mapped back through id -> key, is term_bracket
    ids = completion._IDS
    keys = _basis_keys(CFG3, 9)
    for k1 in keys:
        for k2 in keys:
            got = completion._bracket_ids(ids.of(k1), ids.of(k2))
            assert {ids.key[i]: c for i, c in got.items()} == monster.term_bracket(k1, k2)


def test_integer_exp_images_match_fraction_series():
    xs = [MonsterElt.e_minus(),
          MonsterElt.e_letter(0, 1, 1, Fraction(1, 2)) + MonsterElt.e_letter(1, 2, 2, Fraction(-2, 3)),
          MonsterElt.f_minus(Fraction(-1, 2)),
          MonsterElt({monster.EMINUS: Fraction(3, 4), (monster.WPOS, ((1, 2, 0),)): -5},
                     exact_to=7)]
    keys = _basis_keys(CFG3, 9)
    assert {monster.key_degree(k) for k in keys} >= {-9, -8, 8, 9}
    for x in xs:
        g = TruncAut(CFG3, word=[("exp", x)])
        atom, ids = g.word[0], completion._IDS
        # at bound 6 the keys above it clamp, which reaches the descent
        # floor of the lowering f(-1) atom
        for bound in (6, 9, 12, 21):
            for key in keys:
                try:
                    want = exp_series(x, MonsterElt({key: 1}), bound, CFG3)
                except ValueError:
                    # the exactness bound would fall below 0 (x cut at 7,
                    # key below -7): the integer series refuses it too
                    with pytest.raises(ValueError):
                        completion._exp_image(atom, ids.of(key), bound)
                    continue
                den, nums, exact_to = completion._exp_image(atom, ids.of(key), bound)
                got = {ids.key[i]: Fraction(n, den) for i, n in nums.items()}
                assert (got, exact_to) == (want.terms, want.exact_to), (x, key, bound)


def test_exp_images_of_single_u_plus_words_match_fraction_series():
    # an exact x that is one u+ word L skips the keys whose bracket with L
    # lies wholly above the bound; the image and its exact_to must not move
    L = (monster.WPOS, ((1, 1, 0), (1, 2, 0)))
    xs = [MonsterElt.e_letter(0, 1, 1, Fraction(3, 2)),
          MonsterElt({L: Fraction(-2, 5)})]
    keys = _basis_keys(CFG3, 9)
    assert L in keys and 2 * monster.key_degree(L) > 9
    for x in xs:
        g = TruncAut(CFG3, word=[("exp", x)])
        atom, ids = g.word[0], completion._IDS
        for bound in (6, 9, 12, 21):
            for key in keys:
                want = exp_series(x, MonsterElt({key: 1}), bound, CFG3)
                den, nums, exact_to = completion._exp_image(atom, ids.of(key), bound)
                got = {ids.key[i]: Fraction(n, den) for i, n in nums.items()}
                assert (got, exact_to) == (want.terms, want.exact_to), (x, key, bound)
    # L itself above half the bound: [L, L] = 0, so nothing is cut
    g = TruncAut(CFG3, word=[("exp", xs[1])])
    atom, ids = g.word[0], completion._IDS
    assert completion._exp_image(atom, ids.of(L), 9) == (1, {ids.of(L): 1}, inf)


def test_atom_form_built_with_word():
    x = MonsterElt.e_letter(0, 1, 1, 2)
    g = exp_ad(x, CFG)
    atom = g.word[0]
    assert atom[:2] == ("exp", x)
    # composing reuses the stored form object instead of rebuilding it
    assert compose(g, g).word[1][2] is atom[2]
    # an already keyed word is keyed again from x, to an equal form, with
    # slots of its own and the same generator forms
    again = TruncAut(CFG, word=g.word)
    assert again.word == g.word
    assert all(s is not t for (_, s), (_, t) in zip(again._steps, g._steps))
    assert again._generator_forms() == g._generator_forms()
    # a lowering element's form carries its window's base levels, so under
    # another window it gets its own form; no other form carries levels
    assert atom[2][4] is None and TruncAut(CFG3, word=g.word).word[0][2] == atom[2]
    lowering = exp_ad(MonsterElt.f_minus(1), CFG).word
    here, other = lowering[0][2], TruncAut(CFG3, word=lowering).word[0][2]
    assert other[:4] == here[:4]
    assert other[4] == tuple(CFG3.base_levels()) != here[4] == tuple(CFG.base_levels())


def test_exp_atom_rejects_unsupported_letter():
    with pytest.raises(monster.SupportError):
        exp_ad(MonsterElt.e_letter(0, 3, 1), CFG)
    with pytest.raises(monster.SupportError):
        realize_word(GroupWord.of(sym("X", (0, 1, 3), 1)), CFG)


def test_rejected_exp_atoms_number_no_key():
    # the gate checks x before keying it, so a rejected atom leaves no
    # key in the one numbering, which stays bounded by the windows' bases
    ids = completion._IDS
    rejected = [(MonsterElt.e_letter(4, 7, 5), monster.SupportError, "outside support"),
                (MonsterElt({monster.H1: 1, monster.H2: Fraction(-2, 3)}), ValueError,
                 "Cartan element"),
                (MonsterElt.f_letter(3, 6, 4) + MonsterElt.e_letter(5, 6, 4), ValueError,
                 "negative imaginary")]
    for x, error, message in rejected:
        n = len(ids.key)
        with pytest.raises(error, match=message):
            exp_ad(x, CFG)
        assert len(ids.key) == n, message


# Every word goes through TruncAut's gate, whatever built its atoms.
GATE_CFG = SupportConfig(9, {1: 2, 2: 2, 3: 1})


def test_keyed_word_letters_rechecked_under_a_smaller_window():
    # the same base levels, so the atom keeps its form; its letters are
    # still checked against the new window
    word = exp_ad(MonsterElt.e_letter(0, 1, 2), SupportConfig(9, {1: 2})).word
    with pytest.raises(monster.SupportError, match=r"letter \(0,1,2\) outside support"):
        TruncAut(SupportConfig(9, {1: 1}), word)


def test_apply_checks_input_support():
    g = exp_ad(MonsterElt.e_minus(-1), SupportConfig(9, {1: 1}))
    with pytest.raises(monster.SupportError, match=r"letter \(0,1,2\) outside support"):
        g.apply(MonsterElt.e_letter(0, 1, 2))


def test_perm_atom_over_cap_rejected_at_construction():
    with pytest.raises(ValueError, match=r"permutation support \[5\] exceeds cap 2 at level 1"):
        TruncAut(GATE_CFG, (("perm", SparsePerm(1, {1: 5, 5: 1})),))


@pytest.mark.parametrize("atom, message", [
    (("exp", MonsterElt.f_letter(0, 1, 1)), "negative imaginary content"),
    (("torus", Fraction(0), Fraction(1)), "torus parameters must be nonzero"),
    (("rot", Fraction(1)), "unknown atomic factor 'rot'"),
], ids=["exp-f011", "zero-torus", "unknown-tag"])
def test_raw_atom_rejected_at_construction(atom, message):
    with pytest.raises(ValueError, match=message):
        TruncAut(GATE_CFG, (atom,))


def test_ad_rejects_cartan():
    # degree 0 is outside the positive sector, like negative degrees
    g = exp_ad(MonsterElt.e_minus(), CFG)
    with pytest.raises(ValueError, match="positive sector only"):
        Ad(g, MonsterElt.h1())
    assert Ad(g, MonsterElt.zero()).is_zero()


# ---------------------------------------------------------------------------
# integer word application and comparison against Fraction references

_FRACTIONAL_WORDS = [
    [("exp", MonsterElt.e_letter(0, 1, 1, Fraction(1, 2))),
     ("torus", Fraction(3, 5), Fraction(-7, 2)),
     ("exp", MonsterElt.e_minus(Fraction(-2, 3))),
     ("perm", SparsePerm(1, {1: 2, 2: 1})),
     ("exp", MonsterElt.e_letter(0, 2, 1, Fraction(-2, 3))
      + MonsterElt.e_letter(0, 1, 2, Fraction(1, 2)))],
    [("exp", MonsterElt.f_minus(Fraction(1, 2))),
     ("exp", MonsterElt.e_letter(1, 2, 2, Fraction(-2, 3))),
     ("torus", Fraction(3, 5), Fraction(-7, 2)),
     ("exp", MonsterElt.e_minus(Fraction(1, 2)))],
]


def test_integer_words_match_atomwise_fraction_reference():
    bound = 9 + 12
    for raw in _FRACTIONAL_WORDS:
        g = TruncAut(CFG3, word=raw)
        for y in _diff_inputs():
            got = g.apply(y)
            want = y
            for atom in reversed(raw):
                want = _direct(atom, want, bound)
            if y.exact_to == inf:
                assert got.exact_to >= 9
            cut = min(got.exact_to, want.exact_to, 9)
            assert got.truncated_above(cut) == want.truncated_above(cut), (raw, y)
            assert all(type(c) is Fraction for c in got.terms.values())


def _fraction_equal(g, h):
    """The comparison on whole Fraction elements that equal replaces."""
    for k in generator_keys(g.cfg):
        y = MonsterElt({k: 1})
        if g.apply(y).truncated_above(g.N) != h.apply(y).truncated_above(g.N):
            return False
    return True


def test_integer_equal_agrees_with_fraction_comparison():
    x = MonsterElt.e_letter(0, 1, 1, Fraction(1, 2)) + MonsterElt.e_minus(Fraction(-2, 3))
    # the lowest generator sits at degree -4, so exp of a degree-14 word
    # moves nothing at or below N = 9, while a degree-13 word reaches 9
    above = MonsterElt.e_word(((1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 1, 0)), Fraction(1, 2))
    at = MonsterElt.e_word(((1, 1, 0), (1, 1, 0), (1, 2, 0), (2, 1, 0)), Fraction(1, 2))

    def exp(z):
        return exp_ad(z, CFG)

    def tor(s, t):
        return torus(s, t, CFG)

    cases = [
        # equal words
        (compose(exp(x.scaled(Fraction(1, 3))), exp(x.scaled(Fraction(2, 3)))), exp(x), True),
        (exp(x), exp(x.scaled(Fraction(1, 2))), False),
        # words that differ only above N, and one that differs at N
        (exp(x), compose(exp(x), exp(above)), True),
        (exp(x), compose(exp(x), exp(at)), False),
        # images that are scalar multiples of each other
        (tor(2, 1), TruncAut.identity(CFG), False),
        (tor(Fraction(1, 2), 1), TruncAut.identity(CFG), False),
        (compose(tor(2, 1), tor(Fraction(1, 2), 1)), TruncAut.identity(CFG), True),
        (compose(tor(Fraction(1, 3), 1), exp(x)),
         compose(exp(x.scaled(Fraction(1, 3))), tor(Fraction(1, 3), 1)), True),
    ]
    for g, h, same in cases:
        assert _fraction_equal(g, h) is same
        assert g.equal(h) is same and h.equal(g) is same


BLOCK_CFG = SupportConfig(9, {1: 2, 2: 2, 3: 1})


def _block_words():
    """A word that sends some generators through a second, widened pass,
    a perm word and the identity word."""
    s = Fraction(-2, 3)
    weyl = [("exp", MonsterElt.e_minus(s)), ("exp", MonsterElt.f_minus(-1 / s)),
            ("exp", MonsterElt.e_minus(s))]
    swap = ("perm", SparsePerm(1, {1: 2, 2: 1}))
    return [
        [("exp", MonsterElt.f_minus(Fraction(1, 2))), ("exp", MonsterElt.e_letter(0, 1, 1, 2)),
         *weyl, ("torus", Fraction(3), Fraction(1)),
         ("exp", MonsterElt.e_letter(1, 2, 1, Fraction(-1, 2))), swap],
        [swap, ("torus", Fraction(1), Fraction(-1, 2)), ("exp", MonsterElt.e_letter(0, 3, 1))],
        [],
    ]


def _single_apply_forms(g):
    """Each generator's image by apply alone, cut at N and reduced: the
    forms g._generator_forms() must give."""
    return [completion._to_vec(g.apply(MonsterElt({k: 1})).truncated_above(g.N))[:2]
            for k in generator_keys(g.cfg)]


def test_generator_block_matches_single_applies(monkeypatch):
    # the generator block through one scheduled pass of each word, against
    # one apply per generator; each step is clamped at its own bound
    cfg = BLOCK_CFG
    words = _block_words()
    # (vectors, clamp bound) of each atom step, in application order
    steps = []
    real_block = completion._atom_block
    monkeypatch.setattr(completion, "_atom_block",
                        lambda *a: steps.append((len(a[2]), a[3])) or real_block(*a))
    n = len(generator_keys(cfg))
    # the first word without its last-applied f(-1): the atoms applied
    # after its one remaining lowering atom end at N
    schedules = {0: [15] * 5 + [12] * 3, 1: [9] * 3, 2: [], 3: [12] * 5 + [9] * 2}
    for w, word in enumerate(words + [words[0][1:]]):
        g = TruncAut(cfg, word)
        del steps[:]
        forms = g._generator_forms()
        # one pass: the whole block steps every atom once, at the schedule
        # 9 -> 12 -> 15 raised at each lowering atom
        assert steps == [(n, b) for b in schedules[w]], word
        assert forms == _single_apply_forms(g)


def _recording_passes(monkeypatch):
    """(vectors, per-step bounds, least exact_to) of each TruncAut._pass."""
    passes = []
    real = TruncAut._pass

    def recording(g, block, bounds):
        bounds = list(islice(bounds, len(g._steps)))
        out = real(g, block, bounds)
        passes.append((len(block), bounds, min(t[2] for t in out)))
        return out

    monkeypatch.setattr(TruncAut, "_pass", recording)
    return passes


def test_inexact_exp_atom_takes_one_scheduled_pass(monkeypatch):
    # an exp atom whose x is exact only through 6 leaves generators short
    # of N = 9, with or without a lowering atom; the block still takes
    # one pass at the schedule, and its forms are apply's, cut at N
    x = (MonsterElt.e_letter(0, 1, 1) + MonsterElt.e_letter(1, 2, 1, Fraction(1, 2))).terms
    inexact = ("exp", MonsterElt(x, exact_to=6))
    words = [([inexact, ("exp", MonsterElt.e_letter(0, 3, 1))], [9, 9]),
             ([("exp", MonsterElt.f_minus(Fraction(1, 2))), inexact,
               ("exp", MonsterElt.e_minus(2))], [12, 12, 12])]
    for word, schedule in words:
        g = TruncAut(BLOCK_CFG, word)
        passes = _recording_passes(monkeypatch)
        forms = g._generator_forms()
        monkeypatch.undo()
        [(n, bounds, lo)] = passes
        assert (n, bounds) == (len(generator_keys(BLOCK_CFG)), schedule) and lo < N, word
        assert forms == _single_apply_forms(g), word


def _rand_inexact_word(rng, cfg):
    """Two to four exp atoms of letters, e(-1) and f(-1), at least one of
    them with an x exact only below N."""
    letters = [MonsterElt.e_minus()] + [MonsterElt.e_letter(l, j, k)
                                        for j, k, l in cfg.letters()]
    word = []
    for _ in range(rng.randint(2, 4)):
        c = Fraction(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 2, 3)))
        if rng.random() < 0.2:
            word.append(("exp", MonsterElt.f_minus(c)))
            continue
        x = rng.choice(letters).scaled(c)
        if rng.random() < 0.5:
            x = x + rng.choice(letters)
        if x.is_zero():
            x = MonsterElt.e_minus()
        word.append(("exp", x))
    n = rng.choice([n for n, a in enumerate(word) if a[1].terms.keys() != {monster.FMINUS}]
                   or [0])
    word[n] = ("exp", MonsterElt(word[n][1].terms, exact_to=rng.randint(cfg.degree_bound - 6,
                                                                       cfg.degree_bound - 1)))
    return word


def test_seeded_inexact_words_match_single_applies():
    # the one scheduled pass against apply's widened retries, generator by
    # generator, on seeded words with an inexact exp atom
    rng = random.Random(36)
    for n in range(24):
        cfg = SupportConfig(9, {1: 2, 2: 1}) if n % 2 else SupportConfig(12, {1: 2, 2: 1, 3: 1})
        g = TruncAut(cfg, _rand_inexact_word(rng, cfg))
        try:
            forms = g._generator_forms()
        except ValueError as exc:
            # a bound below 0 from the inexact x, on either path
            with pytest.raises(ValueError) as info:
                _single_apply_forms(g)
            assert str(info.value) == str(exc)
            continue
        assert forms == _single_apply_forms(g), g.word


def test_block_pass_returns_reduced_triples():
    # _generator_forms reduces only the images it cuts at N, so every
    # triple a pass hands back must already be gcd-reduced
    gens = generator_keys(BLOCK_CFG)
    ys = [MonsterElt({k: 1}) for k in gens]
    for c in (Fraction(3, 2), Fraction(-2, 3), Fraction(6)):
        ys += [MonsterElt({k: c}, exact_to=e) for k in gens for e in (inf, 7)]
    ys.append(MonsterElt({k: Fraction(i + 1, 4) * (-1) ** i for i, k in enumerate(gens)}))
    vecs = [completion._to_vec(y) for y in ys]
    for word in _block_words():
        g = TruncAut(BLOCK_CFG, word)
        for den, nums, _ in g._pass(vecs, repeat(14)):
            assert den >= 1 and gcd(den, *nums.values()) == 1, (word, den, nums)

        def run():
            g._pass(vecs, repeat(14))
            for y in ys:
                g.apply(y)
            g._generator_forms()

        run()
        # results share the memoized images, so no second run may mutate one
        slots = [slot for _, slot in g._steps]
        before = copy.deepcopy(slots)
        run()
        assert slots == before, word
        # an image that fixes its key is the one shared unit triple
        for slot in slots:
            for images in slot.values():
                for i, img in images.items():
                    if img[:2] == (1, {i: 1}):
                        assert img is completion._unit(i, img[2]), (word, i, img)


def test_zero_brackets_share_one_read_only_mapping():
    ids = completion._IDS
    h1, e = ids.of(monster.H1), ids.of(monster.EMINUS)
    zero = completion._bracket_ids(h1, h1)
    assert zero == {} and zero is completion._bracket_ids(h1, ids.of(monster.H2))
    with pytest.raises(TypeError):
        zero[e] = 1
    assert completion._bracket_ids(h1, e) == {e: 1}


def test_apply_widens_each_short_image(monkeypatch):
    # apply clamps every atom at R = 9 + 2 + pad = 14, and an image left
    # short of need = 9 retries at r + (9 - exact_to) + 2 until it is
    # complete or a retry gains nothing
    g = TruncAut(BLOCK_CFG, _block_words()[0])
    passes = _recording_passes(monkeypatch)

    def bounds(y, g=g, need=9):
        passes.clear()
        out = g.apply(y, need)
        # apply clamps every step of a pass at one bound
        assert all(len(set(b)) == 1 for _, b, _ in passes)
        return [b[0] for _, b, _ in passes], out.exact_to

    # six generators end the first pass exact to 8, one short, and retry
    # at 14 + (9 - 8) + 2
    runs = [bounds(MonsterElt({k: 1})) for k in generator_keys(BLOCK_CFG)]
    assert sorted(b for b, _ in runs) == [[14]] * 8 + [[14, 17]] * 6
    assert all(e >= 9 for _, e in runs)
    # inputs exact to 5 and 7 leave the first pass exact to 3 and 4, so
    # they retry at 22 and 21; neither gains, so neither retries again
    assert bounds(MonsterElt({monster.EMINUS: 1}, exact_to=5)) == ([14, 22], 3)
    assert bounds(MonsterElt({monster.H1: 1}, exact_to=7)) == ([14, 21], 4)
    # an image that gains but stays short of 12 retries again: exact to
    # 9 at 18, to 11 at 18 + 5 = 23, and to 11 again at 23 + 3, a stop
    e = MonsterElt(MonsterElt.e_minus().terms, exact_to=10)
    h = TruncAut(SupportConfig(12, {1: 2, 2: 1, 3: 1}),
                 [("exp", MonsterElt.f_minus(-1)), ("exp", e), ("exp", MonsterElt.f_minus()),
                  ("exp", MonsterElt.e_letter(0, 1, 1) + MonsterElt.e_letter(1, 2, 1))])
    assert bounds(MonsterElt.e_letter(0, 2, 1), h, 12) == ([18, 23, 26], 11)


SRC = Path(__file__).resolve().parent.parent / "src"

WIDENING_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.path.insert(0, sys.argv[1])
from fractions import Fraction as F
from monsterlie.completion import TruncAut
from monsterlie.indices import SupportConfig
from monsterlie.monster import MonsterElt as M
passes = []
real = TruncAut._pass
def recording(g, block, bounds):
    bounds = list(bounds)
    passes.append([len(block), bounds])
    return real(g, block, bounds)
TruncAut._pass = recording
word = [M.f_minus(3), M.f_minus(-1), M.e_minus(F(1, 2)),
        M.e_letter(0, 1, 2, 2) + M.e_letter(1, 2, 1, 2),
        M(M.e_letter(2, 3, 1, -2).terms, exact_to=8),
        M.e_letter(0, 1, 1, F(-2, 3)) + M.e_letter(2, 3, 1, F(-2, 3)), M.f_minus(F(1, 2))]
TruncAut(SupportConfig(15, {1: 2, 2: 1, 3: 1}), [("exp", x) for x in word]).report_dict()
print(json.dumps(passes))
"""


def test_inexact_word_forms_take_one_pass_under_an_address_space_cap():
    # a 7-atom word with an inexact exp atom, whose forms at one uniform
    # bound with widened retries pass at 23 -> 33 -> 36 -> 37 -> 38 and
    # run out of memory: the schedule makes one pass, in a child capped
    # at 512 MiB
    proc = subprocess.run([sys.executable, "-c", WIDENING_CHILD, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == [[12, [38, 28, 28, 28, 28, 28, 21]]]


def test_exp_atom_is_numbered_once_when_keyed(monkeypatch):
    # keying an exp atom builds x's id form (den, {id: numerator},
    # exact_to, L, levels), L the id of x's one key when x is exact and a
    # single u+ word, levels the window's base levels when x lowers;
    # applying the word numbers nothing again
    cfg = SupportConfig(12, {1: 2, 2: 1})
    ids = completion._IDS
    k1, k2 = (monster.WPOS, ((1, 1, 0),)), (monster.WPOS, ((1, 2, 0),))
    letter = MonsterElt.e_letter(0, 1, 1, Fraction(1, 2))
    cases = [(letter, lambda: (2, {ids.of(k1): 1}, inf, ids.of(k1), None)),
             (letter + MonsterElt.e_letter(0, 1, 2),
              lambda: (2, {ids.of(k1): 1, ids.of(k2): 2}, inf, None, None)),
             (MonsterElt(letter.terms, exact_to=7), lambda: (2, {ids.of(k1): 1}, 7, None, None)),
             (MonsterElt.f_minus(Fraction(-1, 2)),
              lambda: (2, {ids.of(monster.FMINUS): -1}, inf, None, (1, 2)))]
    for x, want in cases:
        atom = exp_ad(x, cfg).word[0]
        n = len(ids.key)
        assert atom[2] == want(), x
        assert len(ids.key) == n  # keying numbered every key of x
    g = exp_ad(letter, cfg)
    calls = []
    real = completion._to_vec
    monkeypatch.setattr(completion, "_to_vec", lambda y: calls.append(y) or real(y))
    forms = g._generator_forms()
    assert g._generator_forms() == forms
    assert calls == []


def test_word_keeps_its_numbering_across_clear_caches():
    # a word keeps its slots after monster.clear_caches(), and with them
    # its forms, report and images; a word built afterwards resolves new
    # slots and agrees with it
    def build():
        w = GroupWord.of(sym("X", (0, 1, 1), Fraction(1, 2)), sym("Y", -1, Fraction(-2, 3)),
                         sym("X", (1, 2, 1), 3), sym("X", -1, -1))
        return compose(realize_word(w, BLOCK_CFG),
                       TruncAut(BLOCK_CFG, (("perm", SparsePerm(1, {1: 2, 2: 1})),)))

    # fresh slots, so that g meets z below for the first time
    monster.clear_caches()
    g = build()
    forms, report = g._generator_forms(), g.report_dict()
    y = MonsterElt({(monster.WPOS, ((1, 2, 0),)): Fraction(2, 3), monster.H2: 5}, exact_to=8)
    image = g.apply(y)
    monster.clear_caches()
    assert g._generator_forms() == forms and g.report_dict() == report
    # an element g has not met yet builds new images in g's slots
    z = MonsterElt({(monster.WPOS, ((1, 1, 0), (2, 1, 0))): 1, monster.EMINUS: Fraction(1, 3)})
    later = g.apply(z)
    fresh = build()
    assert g.equal(fresh) and fresh.equal(g)
    for h in (g, fresh):
        assert (h.apply(y).terms, h.apply(y).exact_to) == (image.terms, image.exact_to)
    assert (fresh.apply(z).terms, fresh.apply(z).exact_to) == (later.terms, later.exact_to)
    assert fresh.report_dict() == report


def test_images_belong_to_the_atom_its_word_keys():
    # an atom's images belong to the atom its word keys: each keyed atom
    # owns its slot, a composite hands on its factors' slot objects, and
    # words on one window share a symbol's slot only through the symbol
    # memo; a live word keeps its images across a clear
    monster.clear_caches()
    x = MonsterElt.e_letter(0, 1, 1, Fraction(1, 2))
    g, h = exp_ad(x, BLOCK_CFG), exp_ad(x, BLOCK_CFG)
    (_, gs), (_, hs) = g._steps[0], h._steps[0]
    assert gs is not hs
    assert all(s is t for (_, s), t in zip(compose(g, h)._steps, (hs, gs), strict=True))

    X = GroupWord.of(sym("X", (0, 1, 1), Fraction(1, 2)))
    once, twice = realize_word(X, BLOCK_CFG), realize_word(X, BLOCK_CFG)
    assert once._steps[0][0] is twice._steps[0][0] and once._steps[0][1] is twice._steps[0][1]
    elsewhere = realize_word(X, SupportConfig(BLOCK_CFG.degree_bound, {1: 2, 2: 2}))
    assert elsewhere._steps[0][0] is not once._steps[0][0]
    assert elsewhere._steps[0][1] is not once._steps[0][1]

    y = MonsterElt({(monster.WPOS, ((1, 2, 0),)): Fraction(2, 3), monster.H2: 5})
    image = g.apply(y)
    held = {bound: dict(images) for bound, images in gs.items()}
    assert held
    monster.clear_caches()
    assert g._steps[0][1] is gs
    assert all(gs[bound][i] is img for bound, images in held.items()
               for i, img in images.items())
    again = g.apply(y)
    assert (again.terms, again.exact_to) == (image.terms, image.exact_to)
    assert {bound: dict(images) for bound, images in gs.items()} == held


def test_words_built_across_clear_caches_compose():
    # a word built before monster.clear_caches() composes with one built
    # after it: the composite holds the old word's atoms beside the new
    # one's and equals the product realized in one piece
    long = GroupWord.of(sym("X", (0, 1, 1), Fraction(1, 2)), sym("Y", -1, Fraction(-2, 3)),
                        sym("X", (1, 2, 1), 3), sym("X", -1, -1))
    short = GroupWord.of(sym("X", (0, 2, 2), 1))
    y = MonsterElt({(monster.WPOS, ((1, 2, 0),)): Fraction(2, 3), monster.H2: 5}, exact_to=8)
    # fresh slots on either side of the clear
    monster.clear_caches()
    old = realize_word(long, BLOCK_CFG)
    old.apply(y)
    monster.clear_caches()
    new = realize_word(short, BLOCK_CFG)
    new.apply(MonsterElt({(monster.WPOS, ((2, 2, 0),)): 1, monster.H1: 1}))
    for (g, h), product in (((old, new), long * short), ((new, old), short * long)):
        composed = compose(g, h)
        assert all(a is b for a, b in zip(composed.word, g.word + h.word))
        fresh = realize_word(product, BLOCK_CFG)
        assert composed.equal(fresh) and fresh.equal(composed)
        assert composed.report_dict() == fresh.report_dict()
        got, want = composed.apply(y), fresh.apply(y)
        assert (got.terms, got.exact_to) == (want.terms, want.exact_to)


def test_compose_takes_shared_steps_across_clear_caches():
    # the composite takes its factors' (atom, slot) steps as they are, the
    # same slot dicts, whether or not a clear lies between the factors,
    # and equals the product realized in one piece
    u = GroupWord.of(sym("X", (0, 1, 1), Fraction(1, 2)), sym("Y", -1, Fraction(-2, 3)),
                     sym("H1", None, 3))
    v = GroupWord.of(sym("X", (1, 2, 1), 3), sym("H2", None, Fraction(-1, 2)))
    monster.clear_caches()
    g, h = realize_word(u, BLOCK_CFG), realize_word(v, BLOCK_CFG)
    composed = compose(g, h)
    assert composed.word == g.word + h.word
    assert all(a is b and s is t for (a, s), (b, t)
               in zip(composed._steps, h._steps + g._steps))
    assert composed.equal(realize_word(u * v, BLOCK_CFG))

    monster.clear_caches()
    later = realize_word(v, BLOCK_CFG)
    for factors, whole in (((g, later), u * v), ((later, g), v * u)):
        composed = compose(*factors)
        assert all(a is b for a, b in zip(composed.word, factors[0].word + factors[1].word))
        assert all(a is b and s is t for (a, s), (b, t)
                   in zip(composed._steps, factors[1]._steps + factors[0]._steps))
        fresh = realize_word(whole, BLOCK_CFG)
        assert composed.equal(fresh) and fresh.equal(composed)
        assert composed.report_dict() == fresh.report_dict()

    other = SupportConfig(BLOCK_CFG.degree_bound, {1: 2, 2: 2})
    for pair in ((g, realize_word(v, other)), (realize_word(v, other), later)):
        with pytest.raises(ValueError, match="window mismatch"):
            compose(*pair)


def test_clear_caches_keeps_the_key_numbering():
    # a clear keeps the one key numbering: the same word realized on
    # either side of it has identical id forms, with no translation by
    # key, even when keys the first word never met are numbered before
    # the second is realized; a composite of the two takes both words'
    # steps as they are
    w = GroupWord.of(sym("X", (0, 1, 1), Fraction(1, 2)), sym("Y", -1, Fraction(-2, 3)),
                     sym("H2", None, 3))
    ids = completion._IDS
    before = realize_word(w, BLOCK_CFG)
    forms = before._generator_forms()
    keys = list(ids.key)
    monster.clear_caches()
    assert completion._IDS is ids and ids.key == keys
    realize_word(GroupWord.of(sym("X", (0, 2, 2), 1)), BLOCK_CFG).apply(
        MonsterElt({(monster.WPOS, ((2, 2, 0),)): 1, monster.H1: 1}))
    after = realize_word(w, BLOCK_CFG)
    assert before._generator_forms() == after._generator_forms() == forms
    steps = compose(before, after)._steps
    assert len(steps) == len(after._steps + before._steps)
    assert all(s is t for s, t in zip(steps, after._steps + before._steps))


def test_descent_lift_is_the_least_bound():
    # the lift of E is the least clamp bound whose descent floor keeps a
    # lowering step exact through E, for every level set of size <= 4
    # from 1..7; the floor never falls as the bound grows
    for size in range(5):
        for levels in combinations(range(1, 8), size):
            floor = [completion._descent_floor(B, levels) for B in range(-2, 60)]
            assert floor == sorted(floor), levels
            for E in range(-1, 41):
                B = completion._descent_lift(E, levels)
                assert (completion._descent_floor(B, levels) - 1 >= E
                        > completion._descent_floor(B - 1, levels) - 1), (levels, E, B)
    # the default window's schedule back from N = 9
    levels = tuple(BLOCK_CFG.base_levels())
    chain = [9]
    for _ in range(3):
        chain.append(completion._descent_lift(chain[-1], levels))
    assert chain == [9, 12, 15, 21]


def test_descent_accounting_matches_reference():
    # every level set of size <= 4 from 1..7, at every bound the kernel
    # can meet (E >= -2) and every window degree up to 40
    for size in range(5):
        for levels in combinations(range(1, 8), size):
            cfg = SupportConfig(50, dict.fromkeys(levels, 1))
            assert tuple(cfg.base_levels()) == levels
            for E in range(-2, 41):
                assert completion._descent_floor(E, levels) == descent_floor(E, cfg), (levels, E)
            for N in range(41):
                assert completion._descent_pad(N, levels) == descent_pad(N, cfg), (levels, N)
