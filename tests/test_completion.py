import random
from fractions import Fraction

import pytest

from monsterlie import completion, freelie, monster
from monsterlie.completion import (Ad, TruncAut, approximate_by_generators, aut_check,
                                   compose, equal_mod_level, exp_ad, filtration_level,
                                   format_tokens, generator_keys, invert, log_unipotent,
                                   realize_tokens, torus)
from monsterlie.indices import SupportConfig, letter_degree
from monsterlie.monster import MonsterElt, bracket

from oracles import exp_series

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
    g = exp_ad(MonsterElt.e_minus(Fraction(3, 2)), N, CFG)
    img = g.apply(MonsterElt.f_minus())
    want = (MonsterElt.f_minus() + MonsterElt.cartan(Fraction(3, 2), Fraction(-3, 2))
            + MonsterElt.e_minus(Fraction(-9, 4)))
    assert img == want


def test_exp_ad_one_parameter_group():
    a = exp_ad(MonsterElt.e_letter(0, 1, 1, 2), N, CFG)
    b = exp_ad(MonsterElt.e_letter(0, 1, 1, 3), N, CFG)
    c = exp_ad(MonsterElt.e_letter(0, 1, 1, 5), N, CFG)
    assert compose(a, b).equal(c)


def test_exp_ad_rejects_cartan_and_mixed():
    with pytest.raises(ValueError):
        exp_ad(MonsterElt.h1(), N, CFG)
    with pytest.raises(ValueError):
        exp_ad(MonsterElt.f_letter(0, 1, 1), N, CFG)
    with pytest.raises(ValueError):
        exp_ad(MonsterElt.e_minus() + MonsterElt.f_minus(), N, CFG)


def test_exp_ad_accepts_pure_lowering_real():
    g = exp_ad(MonsterElt.f_minus(2), N, CFG)
    img = g.apply(MonsterElt.e_minus())
    want = (MonsterElt.e_minus() + MonsterElt.cartan(-2, 2)
            + MonsterElt.f_minus(-4))
    assert img == want


def test_torus_scales_by_root():
    t = torus(2, 3, N, CFG)
    assert t.apply(MonsterElt.e_letter(0, 2, 1)) == MonsterElt.e_letter(0, 2, 1, c=2 * 9)
    assert t.apply(MonsterElt.e_minus()) == MonsterElt.e_minus(Fraction(2, 3))
    assert t.apply(MonsterElt.h1()) == MonsterElt.h1()
    with pytest.raises(ValueError):
        torus(0, 1, N, CFG)


def test_compose_and_invert_word_backed():
    g = compose(exp_ad(MonsterElt.e_minus(), N, CFG),
                torus(2, 1, N, CFG),
                exp_ad(MonsterElt.e_letter(0, 1, 1), N, CFG))
    gi = invert(g)
    assert compose(g, gi).equal(TruncAut.identity(N, CFG))
    assert compose(gi, g).equal(TruncAut.identity(N, CFG))


def test_compose_order_rightmost_first():
    t = torus(2, 1, N, CFG)           # scales e(-1) by 2
    x = exp_ad(MonsterElt.e_minus(), N, CFG)
    lhs = compose(t, x).apply(MonsterElt.f_minus())
    rhs = t.apply(x.apply(MonsterElt.f_minus()))
    assert lhs == rhs


def test_filtration_level_values():
    assert filtration_level(TruncAut.identity(N, CFG)) == (N, True)
    g = exp_ad(MonsterElt.e_letter(0, 1, 1), N, CFG)
    lv = filtration_level(g)
    assert lv.level == 3 and not lv.window_limited
    g2 = exp_ad(MonsterElt.e_minus(), N, CFG)
    assert filtration_level(g2).level == 1
    g3 = exp_ad(MonsterElt.e_letter(0, 2, 1, c=Fraction(1, 7)), N, CFG)
    assert filtration_level(g3).level == 4


def test_filtration_level_of_torus_is_zero():
    # a torus fixes the Cartan but moves generators at their own degree
    t = torus(2, 3, N, CFG)
    lv = filtration_level(t)
    assert lv.level == 0 and not lv.window_limited


def test_log_exp_roundtrip_element_side():
    x = MonsterElt.e_letter(0, 1, 1, 2) + MonsterElt.e_minus(Fraction(1, 2))
    g = exp_ad(x, N, CFG)
    y = log_unipotent(g)
    assert y.window(N) == x.window(N)


def test_exp_log_roundtrip_group_side():
    g = compose(exp_ad(MonsterElt.e_letter(0, 1, 1), N, CFG),
                exp_ad(MonsterElt.e_letter(0, 2, 1, -2), N, CFG),
                exp_ad(MonsterElt.e_minus(Fraction(1, 3)), N, CFG))
    x = log_unipotent(g)
    assert exp_ad(x, N, CFG).equal(g)


def test_log_rejects_nonunipotent():
    with pytest.raises(ValueError):
        log_unipotent(torus(2, 1, N, CFG))


def test_bch_lowest_terms():
    # log(exp(x) exp(y)) = x + y + [x,y]/2 + ... ; check through degree 7
    x = MonsterElt.e_letter(0, 1, 1)
    y = MonsterElt.e_letter(0, 2, 1)
    g = compose(exp_ad(x, N, CFG), exp_ad(y, N, CFG))
    z = log_unipotent(g)
    want = x + y + bracket(x, y).scaled(Fraction(1, 2))
    assert z.window(7) == want.window(7)


def test_ad_diagram():
    g = compose(exp_ad(MonsterElt.e_minus(), N, CFG),
                exp_ad(MonsterElt.e_letter(0, 1, 2), N, CFG))
    x = MonsterElt.e_letter(0, 2, 1, c=Fraction(2, 3))
    lhs = exp_ad(Ad(g, x), N, CFG)
    rhs = compose(g, exp_ad(x, N, CFG), invert(g))
    assert lhs.equal(rhs)


def test_ad_rejects_negative_sector():
    g = exp_ad(MonsterElt.e_minus(), N, CFG)
    with pytest.raises(ValueError):
        Ad(g, MonsterElt.f_letter(0, 1, 1))


def test_aut_check_passes_on_honest_auts():
    auts = [exp_ad(MonsterElt.e_minus(), 8, SupportConfig(8, {1: 2, 2: 1})),
            torus(3, Fraction(1, 2), 8, SupportConfig(8, {1: 2, 2: 1}))]
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
    g = exp_ad(MonsterElt.e_minus(), 8, cfg8)
    pairs = [(MonsterElt.e_minus(), MonsterElt.f_minus())]
    assert aut_check(g, pairs)["pass"]
    assert not aut_check(_Sabotaged(g), pairs)["pass"]


def test_perm_atomic_roundtrip():
    swap = (("perm", 1, ((1, 2), (2, 1))),)
    g = TruncAut(N, CFG, word=swap)
    x = MonsterElt.e_letter(0, 1, 1)
    assert g.apply(x) == MonsterElt.e_letter(0, 1, 2)
    assert compose(g, g).equal(TruncAut.identity(N, CFG))


def test_approximate_by_generators_roundtrip():
    cfg = SupportConfig(10, {1: 2, 2: 1})
    g = compose(exp_ad(MonsterElt.e_letter(0, 1, 1), 10, cfg),
                exp_ad(MonsterElt.e_minus(2), 10, cfg),
                exp_ad(MonsterElt.e_letter(0, 2, 1, Fraction(-1, 2)), 10, cfg))
    toks = approximate_by_generators(g, 9)
    h = realize_tokens(toks, 10, cfg)
    assert equal_mod_level(g, h, 9)
    text = format_tokens(toks)
    assert text.startswith("X(")


def test_approximate_identity_is_empty():
    toks = approximate_by_generators(TruncAut.identity(N, CFG), 5)
    assert toks == []
    assert format_tokens(toks) == "1"


def test_equal_mod_level():
    g = exp_ad(MonsterElt.e_letter(0, 2, 1), N, CFG)   # level 4
    assert equal_mod_level(g, TruncAut.identity(N, CFG), 4)
    assert not equal_mod_level(g, TruncAut.identity(N, CFG), 5)


def test_apply_respects_requested_need():
    g = exp_ad(MonsterElt.e_minus(), N, CFG)
    img = g.apply(MonsterElt.f_letter(0, 1, 1), need=4)
    assert img.exact_to is None or img.exact_to >= 4


def test_report_dict_deterministic():
    g = compose(exp_ad(MonsterElt.e_minus(), N, CFG), torus(2, 3, N, CFG))
    assert g.report_dict() == g.report_dict()
    assert g.report_dict()["truncation"] == N


def test_descent_pad_and_floor_values():
    cfg3 = SupportConfig(9, {1: 2, 2: 2, 3: 1})
    # biggest descent budget of a word bottoming inside degree 9 is a
    # level-3 letter (2 steps) next to a level-2 letter (1 step)
    assert completion._descent_pad(9, cfg3) == 3
    # cheapest bottom whose raised top clears 11 is that same pair: 9
    assert completion._descent_floor(11, cfg3) == 9
    assert completion._descent_floor(14, cfg3) == 12
    # level-1 strings have length 1: nothing can descend at all
    cfg1 = SupportConfig(9, {1: 2})
    assert completion._descent_pad(9, cfg1) == 0
    assert completion._descent_floor(11, cfg1) == 12


def test_weyl_conjugation_reverses_long_string():
    # conjugating the top-of-string exponential by the degree -1 Weyl
    # word sends it to the bottom-of-string exponential; the letter sits
    # at degree 7, so intermediates leave the window and the lowering
    # factors must pull the degree-9 cross terms back in
    cfg = SupportConfig(9, {1: 2, 2: 2, 3: 1})
    w = compose(exp_ad(MonsterElt.e_minus(), 9, cfg),
                exp_ad(MonsterElt.f_minus(-1), 9, cfg),
                exp_ad(MonsterElt.e_minus(), 9, cfg))
    g = compose(w, exp_ad(MonsterElt.e_letter(2, 3, 1), 9, cfg), invert(w))
    h = exp_ad(MonsterElt.e_letter(0, 3, 1), 9, cfg)
    assert g.equal(h)
    img = g.apply(MonsterElt.e_letter(0, 2, 1)).truncated_above(9)
    cross = bracket(MonsterElt.e_letter(0, 2, 1), MonsterElt.e_letter(0, 3, 1))
    assert img == MonsterElt.e_letter(0, 2, 1) - cross
    assert img.exact_to == 9


# ---------------------------------------------------------------------------
# memoized atom maps against the whole-element computation

CFG3 = SupportConfig(9, {1: 2, 2: 2, 3: 1})


def _at_most(a, b):
    """a <= b for exactness bounds, where None means exact."""
    return b is None or (a is not None and a <= b)


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
            img = _relabeled(k, atom[1], dict(atom[2]))
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


def test_memoized_atoms_match_whole_element():
    raw = [("exp", MonsterElt.e_minus(2)),
           ("exp", MonsterElt.e_letter(0, 1, 1) + MonsterElt.e_letter(0, 2, 1, Fraction(1, 2))),
           ("exp", MonsterElt.f_minus(Fraction(-1, 2))),
           ("torus", Fraction(2), Fraction(3, 5)),
           ("perm", 1, ((1, 2), (2, 1)))]
    atoms = TruncAut(9, CFG3, word=raw).word
    assert [a[2][3] for a in atoms[:3]] == [False, False, True]
    inputs = _diff_inputs()
    for atom in atoms:
        for bound in (9, 12):
            for y in inputs:
                memo = completion._apply_atom(atom, y, bound, CFG3)
                direct = _direct(atom, y, bound)
                e = memo.exact_to
                assert _at_most(e, direct.exact_to), (atom[0], y, bound)
                if e is None:
                    assert memo.terms == direct.terms
                else:
                    assert memo.truncated_above(e) == direct.truncated_above(e)
                warm = completion._apply_atom(atom, y, bound, CFG3)
                assert warm.terms == memo.terms and warm.exact_to == e
    assert completion._ATOM_CACHE
    for by_bound in completion._ATOM_CACHE.values():
        for images in by_bound.values():
            assert all(type(img) is tuple for img in images.values())
    completion._descent_pad(9, CFG3)
    assert freelie._PAIR_CACHE and monster._DEGREE_CACHE
    assert completion._PAD_CACHE and completion._FLOOR_CACHE
    monster.clear_caches()
    assert not completion._ATOM_CACHE and not completion._INTERN
    assert not freelie._PAIR_CACHE and not monster._DEGREE_CACHE
    assert not completion._PAD_CACHE and not completion._FLOOR_CACHE


def _basis_keys(cfg, dmax):
    """Generator keys and every basis key with |degree| <= dmax."""
    keys = generator_keys(cfg)
    for d in range(1, dmax + 1):
        for w in freelie.lyndon_basis(cfg.letters(), letter_degree, d):
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


def test_integer_exp_images_match_fraction_series():
    xs = [MonsterElt.e_minus(),
          MonsterElt.e_letter(0, 1, 1, Fraction(1, 2)) + MonsterElt.e_letter(1, 2, 2, Fraction(-2, 3)),
          MonsterElt.f_minus(Fraction(-1, 2)),
          MonsterElt({monster.EMINUS: Fraction(3, 4), (monster.WPOS, ((1, 2, 0),)): -5},
                     exact_to=7)]
    keys = _basis_keys(CFG3, 9)
    assert {monster.key_degree(k) for k in keys} >= {-9, -8, 8, 9}
    for x in xs:
        form = TruncAut(9, CFG3, word=[("exp", x)]).word[0][3]
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
                        completion._exp_image(form, key, bound, CFG3)
                    continue
                img = completion._exp_image(form, key, bound, CFG3)
                got = {k: Fraction(n, img[1]) for k, n in zip(img[2::2], img[3::2])}
                assert (got, img[0]) == (want.terms, want.exact_to), (x, key, bound)


def test_atom_cache_key_built_with_word():
    x = MonsterElt.e_letter(0, 1, 1, 2)
    g = exp_ad(x, N, CFG)
    atom = g.word[0]
    assert atom[:2] == ("exp", x)
    # composing reuses the stored key object instead of rebuilding it
    assert compose(g, g).word[1][2] is atom[2]
    # the same element under another support window gets its own key
    other = TruncAut(N, CFG3, word=g.word).word[0][2]
    assert other != atom[2] and other[0] == atom[2][0]


def test_exp_atom_rejects_unsupported_letter():
    with pytest.raises(monster.SupportError):
        exp_ad(MonsterElt.e_letter(0, 3, 1), N, CFG)
    with pytest.raises(monster.SupportError):
        realize_tokens([("X", (0, 1, 3), Fraction(1))], N, CFG)


# ---------------------------------------------------------------------------
# integer word application and comparison against Fraction references

_FRACTIONAL_WORDS = [
    [("exp", MonsterElt.e_letter(0, 1, 1, Fraction(1, 2))),
     ("torus", Fraction(3, 5), Fraction(-7, 2)),
     ("exp", MonsterElt.e_minus(Fraction(-2, 3))),
     ("perm", 1, ((1, 2), (2, 1))),
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
        g = TruncAut(9, CFG3, word=raw)
        for y in _diff_inputs():
            got = g.apply(y)
            want = y
            for atom in reversed(raw):
                want = _direct(atom, want, bound)
            if y.exact_to is None:
                assert got.exact_to is None or got.exact_to >= 9
            cut = min(e for e in (got.exact_to, want.exact_to, 9) if e is not None)
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
    # [e(0,1,1),e(0,2,1)] sits at degree 7 and the lowest generator at -4,
    # so exp of it moves nothing at or below degree 2
    high = bracket(MonsterElt.e_letter(0, 1, 1), MonsterElt.e_letter(0, 2, 1))

    def exp(z, n):
        return exp_ad(z, n, CFG)

    def tor(s, t, n):
        return torus(s, t, n, CFG)

    cases = [
        # equal words
        (compose(exp(x.scaled(Fraction(1, 3)), N), exp(x.scaled(Fraction(2, 3)), N)),
         exp(x, N), True),
        (exp(x, N), exp(x.scaled(Fraction(1, 2)), N), False),
        # words that differ only above N
        (exp(x, 2), compose(exp(x, 2), exp(high.scaled(Fraction(1, 2)), 2)), True),
        (exp(x, 3), compose(exp(x, 3), exp(high.scaled(Fraction(1, 2)), 3)), False),
        # images that are scalar multiples of each other
        (tor(2, 1, N), TruncAut.identity(N, CFG), False),
        (tor(Fraction(1, 2), 1, N), TruncAut.identity(N, CFG), False),
        (compose(tor(2, 1, N), tor(Fraction(1, 2), 1, N)), TruncAut.identity(N, CFG), True),
        (compose(tor(Fraction(1, 3), 1, N), exp(x, N)),
         compose(exp(x.scaled(Fraction(1, 3)), N), tor(Fraction(1, 3), 1, N)), True),
    ]
    for g, h, same in cases:
        assert _fraction_equal(g, h) is same
        assert g.equal(h) is same and h.equal(g) is same
