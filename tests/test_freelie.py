import random
from fractions import Fraction

import pytest

from monsterlie.freelie import (bracket_words, elt_bracket, is_lyndon, std_factorize,
                                witt_root_dimensions)
from monsterlie.indices import SupportConfig, letter_degree, letter_root
from monsterlie.qseries import j_coefficients

from oracles import (bracket_oracle, is_lyndon_naive, j_coefficients_recurrence, lyndon_basis,
                     lyndon_count, lyndon_words_maxlen, std_split_naive)


def test_is_lyndon_known_cases():
    assert is_lyndon(("x",))
    assert is_lyndon(("x", "y"))
    assert is_lyndon(("x", "x", "y"))
    assert is_lyndon(("x", "y", "y"))
    assert not is_lyndon(("y", "x"))
    assert not is_lyndon(("x", "y", "x"))
    assert not is_lyndon(("x", "x"))


def test_is_lyndon_matches_naive():
    rng = random.Random(3)
    for _ in range(300):
        w = tuple(rng.choice("ab") for _ in range(rng.randint(1, 8)))
        assert is_lyndon(w) == is_lyndon_naive(w)


def test_lyndon_words_two_letters():
    words = lyndon_words_maxlen(("x", "y"), 3)
    assert sorted(words) == [("x",), ("x", "x", "y"), ("x", "y"),
                             ("x", "y", "y"), ("y",)]


def test_lyndon_word_counts_match_necklace_oracle():
    for nletters, maxlen in ((2, 6), (3, 5)):
        alphabet = tuple(range(nletters))
        words = lyndon_words_maxlen(alphabet, maxlen)
        by_len = {}
        for w in words:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        for n in range(1, maxlen + 1):
            assert by_len.get(n, 0) == lyndon_count(nletters, n)


def test_std_factorize_matches_naive():
    for w in lyndon_words_maxlen(("a", "b", "c"), 5):
        if len(w) > 1:
            assert std_factorize(w) == std_split_naive(w)


def test_std_factors_are_lyndon():
    for w in lyndon_words_maxlen(("a", "b"), 7):
        if len(w) > 1:
            u, v = std_factorize(w)
            assert is_lyndon(u) and is_lyndon(v)
            assert u + v == w
            assert u < v


def test_bracket_words_frozen_cases():
    assert bracket_words(("x", "y"), ("y",)) == {("x", "y", "y"): 1}
    assert bracket_words(("x",), ("y",)) == {("x", "y"): 1}
    assert bracket_words(("y",), ("x",)) == {("x", "y"): -1}
    assert bracket_words(("x", "x", "y"), ("x", "y")) == {("x", "x", "y", "x", "y"): 1}
    assert bracket_words(("x",), ("x",)) == {}


def test_bracket_words_against_associative_oracle():
    # straightening engine vs independent associative expansion
    words = [w for w in lyndon_words_maxlen(("a", "b"), 5)]
    rng = random.Random(11)
    pairs = [(rng.choice(words), rng.choice(words)) for _ in range(40)]
    for u, v in pairs:
        got = bracket_words(u, v)
        want = bracket_oracle(u, v)
        assert got == want, (u, v)


def test_bracket_words_three_letters_oracle():
    words = lyndon_words_maxlen(("a", "b", "c"), 3)
    rng = random.Random(5)
    for _ in range(25):
        u, v = rng.choice(words), rng.choice(words)
        assert bracket_words(u, v) == bracket_oracle(u, v)


def test_bracket_free_bilinear_and_antisymmetric():
    x = {("a",): 2, ("a", "b"): 1}
    y = {("b",): 3}
    z = elt_bracket(x, y, bracket_words)
    assert z == {("a", "b"): 6, ("a", "b", "b"): 3}
    back = elt_bracket(y, x, bracket_words)
    assert back == {k: -c for k, c in z.items()}


def test_jacobi_random_sweep():
    words = lyndon_words_maxlen(("a", "b"), 4)
    rng = random.Random(7)
    for _ in range(30):
        x = {rng.choice(words): rng.randint(-3, 3)}
        y = {rng.choice(words): rng.randint(-3, 3)}
        z = {rng.choice(words): rng.randint(-3, 3)}
        total = {}
        for p in (elt_bracket(elt_bracket(x, y, bracket_words), z, bracket_words),
                  elt_bracket(elt_bracket(y, z, bracket_words), x, bracket_words),
                  elt_bracket(elt_bracket(z, x, bracket_words), y, bracket_words)):
            for k, c in p.items():
                total[k] = total.get(k, 0) + c
        assert all(c == 0 for c in total.values())


def test_lyndon_basis_by_degree():
    basis = lyndon_basis(("x", "y"), lambda a: 1, 3)
    assert set(basis) == {("x", "x", "y"), ("x", "y", "y")}
    # weighted letters: degree(x)=1, degree(y)=2
    deg = {"x": 1, "y": 2}.__getitem__
    basis = lyndon_basis(("x", "y"), deg, 3)
    assert set(basis) == {("x", "y")}


# a grading by degree alone is the root grading d -> (0, d)

def test_witt_dimensions_rank2_and_rank3():
    dims = witt_root_dimensions({(0, 1): 2}, 6)
    assert dims == {(0, 1): 2, (0, 2): 1, (0, 3): 2, (0, 4): 3, (0, 5): 6, (0, 6): 9}
    dims = witt_root_dimensions({(0, 1): 3}, 4)
    assert dims == {(0, 1): 3, (0, 2): 3, (0, 3): 8, (0, 4): 18}


def test_witt_dimensions_match_necklace_oracle():
    for a in (2, 3, 4):
        dims = witt_root_dimensions({(0, 1): a}, 6)
        assert dims == {(0, n): lyndon_count(a, n) for n in range(1, 7)}


def test_witt_dimensions_weighted_alphabet():
    # one degree-1 letter and one degree-2 letter: dims of the free Lie
    # algebra on {x, y} graded by deg x = 1, deg y = 2
    dims = witt_root_dimensions({(0, 1): 1, (0, 2): 1}, 5)
    assert dims[(0, 1)] == 1
    assert dims[(0, 2)] == 1       # y
    assert dims[(0, 3)] == 1       # [x,y]
    assert dims[(0, 4)] == 1       # [x,[x,y]]
    assert dims[(0, 5)] == 2       # [x,[x,[x,y]]], [y,[x,y]]


def test_witt_root_dimensions_small_hand_check():
    # two letters at root (1,1): Lyndon count over 2 letters, by length
    mult = {(1, 1): 2}
    dims = witt_root_dimensions(mult, 9)
    assert dims[(1, 1)] == 2
    assert dims[(2, 2)] == 1
    assert dims[(3, 3)] == 2


def test_witt_root_dimensions_mixed_roots():
    mult = {(1, 1): 1, (1, 2): 1}
    dims = witt_root_dimensions(mult, 8)
    assert dims[(1, 1)] == 1
    assert dims[(1, 2)] == 1
    assert dims[(2, 3)] == 1              # bracket of the two letters
    assert (2, 2) not in dims             # no alphabet path to that root
    assert (2, 4) not in dims             # single letter at (1,2): [y,y] = 0


def test_witt_root_dimensions_rejects_nonpositive_degree():
    with pytest.raises(ValueError):
        witt_root_dimensions({(0, 0): 1}, 5)


def test_witt_solvers_reject_bad_counts():
    # a count must be a nonnegative integer: no truncation, no sign slip
    for c in (-1, Fraction(3, 2), 2.7, float("nan")):
        with pytest.raises(ValueError):
            witt_root_dimensions({(1, 1): c}, 6)
    # integral values of other types are counts
    assert witt_root_dimensions({(1, 1): Fraction(4, 2), (1, 2): 1.0}, 6) == \
        {(1, 1): 2, (1, 2): 1, (2, 2): 1}


def test_denominator_identity_over_window():
    # u+ free on generators at (a, b) with multiplicity c(a+b-1) has
    # dimension c(ab) at every root (a, b) (Borcherds 1992; Jurisich
    # 1998): all 380 roots with a, b >= 1 and 2a + b <= 40, which needs
    # c(n) through n = 200 from the integer reference
    coef = j_coefficients_recurrence(200)
    assert {n: coef[n] for n in range(-1, 61)} == j_coefficients(60)
    D = 40
    roots = [(a, b) for a in range(1, D // 2 + 1) for b in range(1, D - 2 * a + 1)]
    assert len(roots) == 380
    gen = j_coefficients(D - 1)
    mult = {(a, b): gen[a + b - 1] for a, b in roots}
    dims = witt_root_dimensions(mult, D)
    assert dims == {(a, b): coef[a * b] for a, b in roots}


def test_basis_count_equals_witt_prediction():
    # enumerated Lyndon basis sizes agree with the dimension solver
    alphabet = ("a", "b")
    for d in range(1, 6):
        basis = lyndon_basis(alphabet, lambda L: 1, d)
        assert len(basis) == witt_root_dimensions({(0, 1): 2}, d)[(0, d)]


def test_capped_witt_dimensions_match_lyndon_count():
    # the capped engine's alphabet: the dimension solver on the letters'
    # roots against the Lyndon words it enumerates, at every root of the
    # default window and of the approx window
    for cfg in (SupportConfig(9, {1: 2, 2: 2, 3: 1}),
                SupportConfig(15, {1: 2, 2: 2, 3: 1, 4: 1})):
        letters = cfg.letters()
        mult: dict = {}
        for L in letters:
            mult[letter_root(L)] = mult.get(letter_root(L), 0) + 1
        dims = witt_root_dimensions(mult, cfg.degree_bound)
        counts: dict = {}
        for d in range(1, cfg.degree_bound + 1):
            for w in lyndon_basis(letters, letter_degree, d):
                r = tuple(map(sum, zip(*(letter_root(L) for L in w))))
                counts[r] = counts.get(r, 0) + 1
        assert dims == counts and len(counts) > 10
