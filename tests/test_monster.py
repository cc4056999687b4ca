import random
from fractions import Fraction
from math import inf

import pytest

from monsterlie import freelie, monster
from monsterlie.indices import SupportConfig
from monsterlie.monster import (EMINUS, FMINUS, H1, H2, MonsterElt, SupportError, WNEG,
                                WPOS, bracket, format_elt, key_degree, key_sort,
                                omega)

from oracles import diag_pairing, down_pairing, lowering_coefficients, up_pairing

CFG = SupportConfig(9, {1: 2, 2: 2, 3: 1})


def test_element_construction_and_formatting():
    x = MonsterElt.h1() - MonsterElt.h2()
    assert format_elt(x) == "1*h1 - 1*h2"
    assert format_elt(MonsterElt.zero()) == "0"
    y = MonsterElt.e_letter(0, 1, 1, c=Fraction(-3, 2))
    assert format_elt(y) == "-3/2*e(0,1,1)"
    assert format_elt(MonsterElt.f_minus()) == "1*f(-1)"


def test_addition_drops_zero_terms():
    x = MonsterElt.e_minus() + MonsterElt.e_minus(-1)
    assert x.is_zero()
    assert x.terms == {}


def test_key_degrees():
    assert key_degree(H1) == 0
    assert key_degree(EMINUS) == 1
    assert key_degree(FMINUS) == -1
    assert key_degree((WPOS, ((1, 1, 0),))) == 3
    assert key_degree((WNEG, ((2, 1, 1),))) == -5


def test_cartan_brackets():
    h = MonsterElt.cartan(2, 3)
    assert bracket(MonsterElt.h1(), MonsterElt.h2()).is_zero()
    # weight action: [h1, e(-1)] = e(-1), [h2, e(-1)] = -e(-1)
    assert bracket(MonsterElt.h1(), MonsterElt.e_minus()) == MonsterElt.e_minus()
    assert bracket(MonsterElt.h2(), MonsterElt.e_minus()) == MonsterElt.e_minus(-1)
    # [h, e(0,2,1)] with h = 2h1+3h2: weight 2*1 + 3*2 = 8
    e = MonsterElt.e_letter(0, 2, 1)
    assert bracket(h, e) == e.scaled(8)


def test_real_pair_gives_cartan():
    got = bracket(MonsterElt.e_minus(), MonsterElt.f_minus())
    assert got == MonsterElt.h1() - MonsterElt.h2()


def test_string_raising_and_lowering():
    # [e(-1), e(l,...)] = (l+1) e(l+1,...), vanishing at the string top
    e0 = MonsterElt.e_letter(0, 3, 1)
    e1 = bracket(MonsterElt.e_minus(), e0)
    assert e1 == MonsterElt.e_letter(1, 3, 1)
    e2 = bracket(MonsterElt.e_minus(), e1)
    assert e2 == MonsterElt.e_letter(2, 3, 1, c=2)
    assert bracket(MonsterElt.e_minus(), e2).is_zero()
    # [f(-1), e(l,...)] = (j-l) e(l-1,...)
    assert bracket(MonsterElt.f_minus(), e1) == MonsterElt.e_letter(0, 3, 1, c=2)
    assert bracket(MonsterElt.f_minus(), e0).is_zero()


def test_string_action_matches_recurrence_oracle():
    for j in (1, 2, 3, 4):
        beta = lowering_coefficients(j)
        for l in range(j):
            el = MonsterElt.e_letter(l, j, 1)
            got = bracket(MonsterElt.f_minus(), el)
            if l == 0:
                assert got.is_zero()
                assert beta[0] == 0
            else:
                assert got == MonsterElt.e_letter(l - 1, j, 1, c=beta[l])
            assert beta[l] == (j - l if l >= 1 else 0)
        assert beta[j] == 0


def test_f_string_mirror():
    f0 = MonsterElt.f_letter(0, 3, 1)
    f1 = bracket(MonsterElt.f_minus(), f0)
    assert f1 == MonsterElt.f_letter(1, 3, 1)
    assert bracket(MonsterElt.e_minus(), f1) == MonsterElt.f_letter(0, 3, 1, c=2)


def test_diagonal_pairing_closed_form():
    # [e(l,j,k), f(l,j,k)] against the hand-derived closed form
    for j in (1, 2, 3, 4):
        for l in range(j):
            got = bracket(MonsterElt.e_letter(l, j, 1), MonsterElt.f_letter(l, j, 1))
            want = diag_pairing(l, j)
            assert got == MonsterElt.cartan(want["h1"], want["h2"]), (l, j)


def test_offdiagonal_pairing_closed_form():
    for j in (2, 3, 4):
        for l in range(j - 1):
            up = bracket(MonsterElt.e_letter(l + 1, j, 1), MonsterElt.f_letter(l, j, 1))
            assert up == MonsterElt.e_minus(up_pairing(l, j)), (l, j)
            dn = bracket(MonsterElt.e_letter(l, j, 1), MonsterElt.f_letter(l + 1, j, 1))
            assert dn == MonsterElt.f_minus(down_pairing(l, j)), (l, j)


def test_far_pairings_vanish():
    # distinct strings, or same string with |l-m| > 1
    assert bracket(MonsterElt.e_letter(0, 1, 1), MonsterElt.f_letter(0, 1, 2)).is_zero()
    assert bracket(MonsterElt.e_letter(0, 2, 1), MonsterElt.f_letter(0, 3, 1)).is_zero()
    assert bracket(MonsterElt.e_letter(0, 3, 1), MonsterElt.f_letter(2, 3, 1)).is_zero()
    assert bracket(MonsterElt.e_letter(2, 3, 1), MonsterElt.f_letter(0, 3, 1)).is_zero()


def test_real_on_opposite_base_letters_vanishes():
    # [e(-1), f(j,k)] = 0 and [e(j,k), f(-1)] = 0 at the string bottoms
    assert bracket(MonsterElt.e_minus(), MonsterElt.f_letter(0, 2, 1)).is_zero()
    assert bracket(MonsterElt.e_minus(), MonsterElt.f_letter(0, 1, 1)).is_zero()
    assert bracket(MonsterElt.e_letter(0, 1, 1), MonsterElt.f_minus()).is_zero()
    assert bracket(MonsterElt.f_minus(), MonsterElt.e_letter(0, 3, 1)).is_zero()


def test_defining_relation_sweep_passes():
    report = monster.verify_defining_relations(CFG)
    assert report["all_pass"]
    assert len(report["relations"]) == 15
    assert all(r["pass"] for r in report["relations"])
    assert all(r["instances"] >= 1 for r in report["relations"])


def test_defining_relation_sweep_catches_corruption():
    # negative control: a bracket that forgets the diagonal pairing must fail
    def broken(x, y):
        out = monster.bracket(x, y)
        keys = set(x.terms) | set(y.terms)
        if any(isinstance(k, tuple) for k in keys):
            return MonsterElt.zero() if not out.is_zero() and not any(
                isinstance(k, tuple) for k in out.terms) else out
        return out

    report = monster.verify_defining_relations(CFG, bracket_fn=broken)
    assert not report["all_pass"]


def test_word_bracket_in_positive_sector():
    a = MonsterElt.e_word(((1, 1, 0),))
    b = MonsterElt.e_word(((1, 2, 0),))
    c = bracket(a, b)
    assert c == MonsterElt.e_word(((1, 1, 0), (1, 2, 0)))
    assert bracket(a, a).is_zero()


def test_cross_bracket_letter_word():
    # [e-letter, [f-letter, f-letter]] stays in the algebra and is exact
    fw = bracket(MonsterElt.f_word(((1, 1, 0),)), MonsterElt.f_word(((1, 2, 0),)))
    val = bracket(MonsterElt.e_word(((1, 1, 0),)), fw)
    # [x, [u,v]] = [[x,u],v] + [u,[x,v]]; [e11, f11] = -(h1+h2), [e11, f12] = 0
    # so val = [-(h1+h2), f12] = (1+1) f12 = 2 f12
    assert val == MonsterElt.f_word(((1, 2, 0),), c=2)


def test_jacobi_on_mixed_sectors():
    pool = [MonsterElt.h1(), MonsterElt.e_minus(), MonsterElt.f_minus(),
            MonsterElt.e_letter(0, 1, 1), MonsterElt.f_letter(0, 1, 1),
            MonsterElt.e_letter(0, 2, 1), MonsterElt.f_letter(1, 2, 1),
            MonsterElt.e_word(((1, 1, 0), (1, 2, 0))),
            MonsterElt.f_word(((1, 1, 0), (2, 1, 1)))]
    rng = random.Random(17)
    for _ in range(60):
        x, y, z = (rng.choice(pool) for _ in range(3))
        s = (bracket(bracket(x, y), z) + bracket(bracket(y, z), x)
             + bracket(bracket(z, x), y))
        assert s.is_zero(), (format_elt(x), format_elt(y), format_elt(z))


def test_omega_involution():
    x = (MonsterElt.h1() + MonsterElt.e_minus(2)
         + MonsterElt.e_letter(1, 2, 1, c=Fraction(1, 3)))
    w = omega(x)
    assert w == (MonsterElt.cartan(-1, 0) + MonsterElt.f_minus(2)
                 + MonsterElt.f_letter(1, 2, 1, c=Fraction(1, 3)))
    assert omega(w) == x


def test_omega_is_a_homomorphism():
    pool = [MonsterElt.e_minus(), MonsterElt.f_minus(), MonsterElt.h1(),
            MonsterElt.e_letter(0, 2, 1), MonsterElt.f_letter(0, 1, 1),
            MonsterElt.e_word(((1, 1, 0), (1, 2, 0)))]
    rng = random.Random(23)
    for _ in range(40):
        x, y = rng.choice(pool), rng.choice(pool)
        assert omega(bracket(x, y)) == bracket(omega(x), omega(y))


def test_omega_rejects_truncated_input():
    x = MonsterElt.e_letter(0, 1, 1).truncated_above(3)
    assert x.exact_to < inf
    with pytest.raises(ValueError):
        omega(x)


def test_truncation_marking():
    a = MonsterElt.e_word(((1, 1, 0),)).truncated_above(5)
    b = MonsterElt.e_word(((1, 2, 0),))
    c = bracket(a, b)
    # bound = 5 + mindeg(b) = 5 + 3 = 8; the degree-6 product is kept
    assert c.exact_to == 8
    assert (WPOS, ((1, 1, 0), (1, 2, 0))) in c.terms


def test_bracket_respects_config_clamp():
    cfg = SupportConfig(6, {1: 2, 2: 1})
    a = MonsterElt.e_word(((1, 1, 0),))
    b = MonsterElt.e_word(((2, 1, 0),))
    c = bracket(a, b, cfg)
    # degree 3 + 4 = 7 > 6: everything clamped away
    assert c.is_zero()
    assert c.exact_to == 6


def test_support_validation():
    cfg = SupportConfig(9, {1: 1})
    x = MonsterElt.e_letter(0, 1, 2)
    with pytest.raises(SupportError):
        bracket(x, MonsterElt.h1(), cfg)


def test_equality_ignores_exactness_tag():
    a = MonsterElt.e_minus()
    b = MonsterElt.e_minus().truncated_above(4)
    assert a == b


def test_component_and_window():
    x = MonsterElt.e_minus() + MonsterElt.f_minus(3) + MonsterElt.e_letter(0, 1, 1, 2)
    # the key degrees that split x into its components
    assert {k: key_degree(k) for k in x.terms} == {EMINUS: 1, FMINUS: -1, (WPOS, ((1, 1, 0),)): 3}
    assert x.min_degree() == -1 and x.max_degree() == 3


def test_term_ordering_in_output():
    x = MonsterElt.f_minus() + MonsterElt.h2() + MonsterElt.e_minus() + MonsterElt.h1()
    keys = sorted(x.terms, key=key_sort)
    assert keys == [H1, H2, EMINUS, FMINUS]


def test_term_bracket_results_are_fresh():
    # a (u+, u-) pair is served from the cross-bracket memo; mutating the
    # returned dict must not reach the memo or any later bracket
    kp = (WPOS, ((1, 1, 0),))
    kn = (WNEG, ((1, 1, 0),))
    first = monster.term_bracket(kp, kn)
    want = dict(first)
    first[H1] = Fraction(99)
    first.clear()
    assert monster.term_bracket(kp, kn) == want
    assert bracket(MonsterElt({kp: 1}), MonsterElt({kn: 1})).terms == want


def test_bracket_words_results_are_fresh():
    # a same-sign pair of words is served from the straightening memo;
    # mutating the returned dict must not reach the memo or term_bracket
    u, v = ((1, 1, 0),), ((1, 1, 0), (1, 2, 0))
    first = freelie.bracket_words(u, v)
    want = dict(first)
    first[((2, 1, 0),)] = 5
    assert freelie.bracket_words(u, v) == want
    assert monster.term_bracket((WPOS, u), (WPOS, v)) == {(WPOS, w): c for w, c in want.items()}


def test_exact_quotient_raises_on_remainder():
    k = (WPOS, ((2, 1, 1),))
    assert monster._exact_quotient({k: -6, H1: 3}, 3) == {k: -2, H1: 1}
    with pytest.raises(ArithmeticError):
        monster._exact_quotient({k: 6, H1: 7}, 2)


def test_truncated_zero_factors_bound_by_their_exactness():
    # a factor known to vanish through E hides content from degree E + 1
    # on, so unknowns of two such factors first meet at E1 + E2 + 2
    a = MonsterElt({}, exact_to=3)
    c = bracket(a, MonsterElt({}, exact_to=5))
    assert c.is_zero() and c.exact_to == 9 and type(c.exact_to) is int
    assert bracket(a, MonsterElt.e_minus()).exact_to == 4
    assert (MonsterElt.zero().min_degree(), MonsterElt.zero().max_degree()) == (inf, -inf)
