import time

from monsterlie.qseries import delta_product, eisenstein_e4, j_coefficients, sigma3

from oracles import delta_pentagonal, j_coefficients_recurrence


def test_sigma3_small():
    assert sigma3(1) == 1
    assert sigma3(2) == 9
    assert sigma3(3) == 28
    assert sigma3(4) == 73
    assert sigma3(6) == 252


def test_eisenstein_e4_coefficients():
    e4 = eisenstein_e4(5)
    assert e4[0] == 1
    assert e4[1] == 240
    assert e4[2] == 2160
    assert e4[3] == 6720
    assert e4[4] == 17520


def test_delta_against_pentagonal_oracle():
    # same cusp form by a different route: sparse pentagonal series vs product
    want = delta_pentagonal(12)
    d = delta_product(14)
    for n in range(1, 13):
        assert d[n] == want[n]


def test_delta_first_coefficients():
    d = delta_product(6)
    assert d[1] == 1
    assert d[2] == -24
    assert d[3] == 252
    assert d[4] == -1472
    assert d[5] == 4830


def test_j_coefficients_known_values():
    c = j_coefficients(4)
    assert c[-1] == 1
    assert c[0] == 0
    assert c[1] == 196884
    assert c[2] == 21493760
    assert c[3] == 864299970
    assert c[4] == 20245856256


def test_j_coefficient_15():
    c = j_coefficients(15)
    assert c[15] == 126142916465781843075


def test_j_runtime_modest():
    t0 = time.monotonic()
    j_coefficients(15)
    assert time.monotonic() - t0 < 1.0


def test_j_coefficients_all_nonnegative_after_constant():
    c = j_coefficients(10)
    assert all(c[n] > 0 for n in range(1, 11))


def test_j_coefficients_short_truncations():
    # the list bookkeeping at the smallest orders
    assert j_coefficients(-1) == {-1: 1}
    assert j_coefficients(0) == {-1: 1, 0: 0}
    for n in (1, 2, 3, 24):
        assert j_coefficients(n) == j_coefficients_recurrence(n)


def test_delta_short_truncations():
    for n in (1, 2, 3):
        assert delta_product(n) == delta_pentagonal(n - 1)
