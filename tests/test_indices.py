import pytest

from monsterlie import indices
from monsterlie.indices import (SupportConfig, display, letter_degree, letter_root,
                                make_letter)
from monsterlie.qseries import j_coefficients


def test_make_letter_validates():
    L = make_letter(1, 3, 2)
    assert L == (3, 2, 1)          # stored as (j, k, l)
    with pytest.raises(ValueError):
        make_letter(3, 3, 1)       # l must stay below j
    with pytest.raises(ValueError):
        make_letter(-1, 2, 1)
    with pytest.raises(ValueError):
        make_letter(0, 1, 0)       # k starts at 1


def test_letter_root_and_degree():
    # string position l at level j sits at root (l+1, j-l)
    assert letter_root(make_letter(0, 1, 1)) == (1, 1)
    assert letter_root(make_letter(0, 2, 1)) == (1, 2)
    assert letter_root(make_letter(1, 2, 1)) == (2, 1)
    assert letter_root(make_letter(2, 3, 1)) == (3, 1)
    for args in ((0, 1, 1), (0, 3, 2), (2, 3, 1), (1, 4, 1)):
        L = make_letter(*args)
        a, b = letter_root(L)
        assert letter_degree(L) == 2 * a + b
        assert letter_degree(L) == args[1] + args[0] + 2


def test_support_config_letters_small():
    cfg = SupportConfig(3, {1: 2})
    assert cfg.letters() == [(1, 1, 0), (1, 2, 0)]
    cfg = SupportConfig(5, {1: 1, 2: 1, 3: 1})
    assert cfg.letters() == [(1, 1, 0), (2, 1, 0), (2, 1, 1), (3, 1, 0)]


def test_support_config_letters_are_sorted():
    for n, caps in ((9, {3: 1, 1: 2, 2: 2}), (12, {4: 1, 2: 3, 1: 3, 3: 2}), (6, {2: 2})):
        letters = SupportConfig(n, caps).letters()
        assert letters == sorted(letters)


def test_support_config_caps_and_membership():
    cfg = SupportConfig(9, {1: 2, 2: 2, 3: 1})
    assert cfg.cap(1) == 2 and cfg.cap(2) == 2 and cfg.cap(3) == 1
    assert cfg.cap(7) == 0
    assert cfg.supports_letter((1, 2, 0))
    assert not cfg.supports_letter((1, 3, 0))      # k beyond cap
    assert not cfg.supports_letter((8, 1, 0))      # degree 10 > 9
    assert cfg.base_levels() == [1, 2, 3]


def test_letter_degree_bound_respected():
    cfg = SupportConfig(6, {1: 1, 2: 1, 3: 1, 4: 1})
    for L in cfg.letters():
        assert letter_degree(L) <= 6
    # level 4 string bottom has degree 6, top would be degree 9
    assert (4, 1, 0) in cfg.letters()
    assert (4, 1, 3) not in cfg.letters()


def test_display():
    assert display((2, 1, 0)) == "(0,2,1)"
    assert display((3, 2, 1)) == "(1,3,2)"


def test_config_validation():
    with pytest.raises(ValueError):
        SupportConfig(0, {1: 1})
    with pytest.raises(ValueError):
        SupportConfig(5, {0: 1})
    with pytest.raises(ValueError):
        SupportConfig(5, {1: -1})
    # K_j <= c(j): c(1) = 196884
    with pytest.raises(ValueError, match=r"cap 196885 at level 1 exceeds c\(1\) = 196884"):
        SupportConfig(5, {1: 196885})
    assert SupportConfig(5, {1: 196884}).cap(1) == 196884


def test_caps_above_the_window_are_neither_checked_nor_walked(monkeypatch):
    # level 400 has no letter in a degree-9 window (its bottom letter has
    # degree 402), so only level 1 is checked against c(j)
    seen = []
    monkeypatch.setattr(indices, "j_coefficients",
                        lambda nmax: seen.append(nmax) or j_coefficients(nmax))
    cfg = SupportConfig(9, {1: 2, 400: 1})
    assert seen and max(seen) <= 7
    assert cfg.letters() == SupportConfig(9, {1: 2}).letters()
    assert SupportConfig(9, {10**20: 1}).letters() == []
    # a level whose bottom letter just fits is still checked
    with pytest.raises(ValueError, match=r"cap 196885 at level 1 exceeds"):
        SupportConfig(3, {1: 196885})


def test_caps_are_a_read_only_copy():
    # the window checked K_j <= c(j) on the caps it was given; neither the
    # caller's dict nor the window's own caps may move past that check later
    caps = {1: 2}
    cfg = SupportConfig(9, caps)
    caps[1] = 196885
    assert cfg.cap(1) == 2
    assert len(cfg.letters()) == 2
    with pytest.raises(TypeError):
        cfg.caps[1] = 10**6
    assert cfg.cap(1) == 2
