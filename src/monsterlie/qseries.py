"""Exact integer q-series and the normalized j-function coefficients.

A series truncated below q^n is a plain list of its n integer
coefficients, of q^0 up to q^(n-1); a list shorter than n stands for
trailing zeros.  All arithmetic is exact big-integer arithmetic, no
floats anywhere.

The j-route used here:

    E4(q)    = 1 + 240 * sum_{n>=1} sigma3(n) q^n
    Delta(q) = q * prod_{n>=1} (1 - q^n)^24
    J(q)     = E4^3 / Delta - 744 = q^-1 + 196884 q + 21493760 q^2 + ...

c(n) denotes the coefficient of q^n in J, so c(-1) = 1 and c(0) = 0.
"""

from __future__ import annotations

import sys


def sigma3(n: int) -> int:
    """Sum of cubes of the positive divisors of n."""
    if n < 1:
        raise ValueError("sigma3 needs n >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** 3
            e = n // d
            if e != d:
                total += e ** 3
        d += 1
    return total


def product(a: list[int], b: list[int], n: int) -> list[int]:
    """First n coefficients of a * b."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x == 0:
            continue
        for j, y in enumerate(b[:n - i]):
            out[i + j] += x * y
    return out


def eisenstein_e4(n: int) -> list[int]:
    """E4 = 1 + 240 sum sigma3(m) q^m, truncated below q^n."""
    return [240 * sigma3(m) if m else 1 for m in range(n)]


def delta_product(n: int) -> dict[int, int]:
    """Delta = q * prod_{k>=1} (1-q^k)^24 as {m: c} for 1 <= m <= n, by 24
    successive multiplications by (1 - q^k) for each k."""
    acc = [1][:n]
    for k in range(1, n):
        factor = [1] + [0] * (k - 1) + [-1]
        for _ in range(24):
            acc = product(acc, factor, n)
    return {m + 1: c for m, c in enumerate(acc)}


def j_coefficients(nmax: int) -> dict[int, int]:
    """Coefficients c(n) of J = E4^3/Delta - 744 for -1 <= n <= nmax."""
    if nmax < -1:
        raise ValueError("nmax must be at least -1")
    # q J = E4^3 / prod (1-q^k)^24 - 744 q, needed below q^(nmax+2)
    # (and through q^1, where the 744 comes off)
    n = max(nmax + 2, 2)
    if n > sys.maxsize:
        raise ValueError(f"a q-series of {n} coefficients is too long for a list")
    delta = delta_product(n)
    # 1 / prod (1-q^k)^24 by back-substitution on its leading 1; the
    # product's q^i is Delta's q^(i+1)
    inv = [1] + [0] * (n - 1)
    for m in range(1, n):
        inv[m] = -sum(delta[i + 1] * inv[m - i] for i in range(1, m + 1))
    e4 = eisenstein_e4(n)
    qj = product(product(product(e4, e4, n), e4, n), inv, n)
    qj[1] -= 744
    return {m: qj[m + 1] for m in range(-1, nmax + 1)}
