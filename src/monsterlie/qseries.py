"""Exact integer q-series and the normalized j-function coefficients.

A series is stored densely: a lowest exponent, a list of integer
coefficients from that exponent upward, and a truncation order.  The
truncation order T means "coefficients of q^n are correct for n < T";
nothing at or above T is stored.  All arithmetic is exact big-integer
arithmetic, no floats anywhere.

The j-route used here:

    E4(q)    = 1 + 240 * sum_{n>=1} sigma3(n) q^n
    Delta(q) = q * prod_{n>=1} (1 - q^n)^24
    J(q)     = E4^3 / Delta - 744 = q^-1 + 196884 q + 21493760 q^2 + ...

c(n) denotes the coefficient of q^n in J, so c(-1) = 1 and c(0) = 0.
"""

from __future__ import annotations


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


class QSeries:
    """Truncated Laurent series with exact integer coefficients."""

    __slots__ = ("low", "coeffs", "order")

    def __init__(self, low: int, coeffs: list[int], order: int):
        # normalize: strip leading/trailing zeros, clamp to the order
        if low + len(coeffs) > order:
            coeffs = coeffs[: order - low]
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
            low += 1
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            low = order
        self.low = low
        self.coeffs = coeffs
        self.order = order

    @staticmethod
    def zero(order: int) -> "QSeries":
        return QSeries(order, [], order)

    @staticmethod
    def one(order: int) -> "QSeries":
        return QSeries(0, [1], order)

    @staticmethod
    def monomial(c: int, n: int, order: int) -> "QSeries":
        return QSeries(n, [c], order)

    def coeff(self, n: int) -> int:
        if n >= self.order:
            raise ValueError(f"coefficient of q^{n} lies beyond truncation order {self.order}")
        if n < self.low or n >= self.low + len(self.coeffs):
            return 0
        return self.coeffs[n - self.low]

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncated(self, order: int) -> "QSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return QSeries(self.low, list(self.coeffs), order)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k."""
        return QSeries(self.low + k, list(self.coeffs), self.order + k)

    def scale(self, c: int) -> "QSeries":
        return QSeries(self.low, [c * a for a in self.coeffs], self.order)

    def __add__(self, other: "QSeries") -> "QSeries":
        order = min(self.order, other.order)
        if self.is_zero():
            return other.truncated(order)
        if other.is_zero():
            return self.truncated(order)
        low = min(self.low, other.low)
        hi = max(self.low + len(self.coeffs), other.low + len(other.coeffs))
        hi = min(hi, order)
        out = [0] * (hi - low)
        for i, a in enumerate(self.coeffs):
            if self.low + i < hi:
                out[self.low + i - low] += a
        for i, a in enumerate(other.coeffs):
            if other.low + i < hi:
                out[other.low + i - low] += a
        return QSeries(low, out, order)

    def __neg__(self) -> "QSeries":
        return self.scale(-1)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other: "QSeries") -> "QSeries":
        # a missing coefficient at order T multiplies the other side's lowest
        # term, so the product is only trusted below min(Ta + low_b, Tb + low_a)
        if self.is_zero() or other.is_zero():
            return QSeries.zero(min(self.order + other.low, other.order + self.low)
                                if not (self.is_zero() and other.is_zero())
                                else min(self.order, other.order))
        order = min(self.order + other.low, other.order + self.low)
        low = self.low + other.low
        out = [0] * max(0, order - low)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            base = self.low + i + other.low
            for jj, b in enumerate(other.coeffs):
                n = base + jj
                if n >= order:
                    break
                out[n - low] += a * b
        return QSeries(low, out, order)

    def pow_int(self, k: int) -> "QSeries":
        if k < 0:
            return self.recip().pow_int(-k)
        base = self
        # plain square-and-multiply; truncation orders shake out in __mul__
        result = QSeries.one(self.order)
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def recip(self) -> "QSeries":
        """Inverse of a series whose lowest coefficient is a unit (+-1)."""
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero series")
        lead = self.coeffs[0]
        if lead not in (1, -1):
            raise ValueError("reciprocal needs leading coefficient +-1 for integrality")
        # write self = q^low * lead * (1 + u), invert the unit part by backsolve
        n_terms = self.order - self.low
        unit = [lead * a for a in self.coeffs] + [0] * (n_terms - len(self.coeffs))
        inv = [0] * n_terms
        inv[0] = 1
        for n in range(1, n_terms):
            s = 0
            for i in range(1, n + 1):
                s += unit[i] * inv[n - i]
            inv[n] = -s
        out = QSeries(0, [lead * a for a in inv], n_terms)
        return QSeries(out.low - self.low, out.coeffs, out.order - self.low)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.order == other.order and self.low == other.low
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        terms = []
        for i, a in enumerate(self.coeffs[:6]):
            if a:
                terms.append(f"{a}*q^{self.low + i}")
        body = " + ".join(terms) if terms else "0"
        return f"QSeries({body} + O(q^{self.order}))"


def eisenstein_e4(order: int) -> QSeries:
    """E4 = 1 + 240 sum sigma3(n) q^n, truncated below the given order."""
    coeffs = [1] + [240 * sigma3(n) for n in range(1, max(order, 1))]
    return QSeries(0, coeffs, order)


def delta_product(order: int) -> QSeries:
    """Delta = q * prod_{n>=1} (1-q^n)^24 by 24 successive sparse multiplications per n."""
    acc = QSeries.one(order)
    for n in range(1, max(order, 1)):
        factor = QSeries(0, [1] + [0] * (n - 1) + [-1], order)
        for _ in range(24):
            acc = acc * factor
    return acc.shift(1)


def j_coefficients(nmax: int) -> dict[int, int]:
    """Coefficients c(n) of J = E4^3/Delta - 744 for -1 <= n <= nmax."""
    if nmax < -1:
        raise ValueError("nmax must be at least -1")
    order = nmax + 2
    e4 = eisenstein_e4(order)
    delta = delta_product(order)
    jser = e4.pow_int(3) * delta.recip() - QSeries.monomial(744, 0, order - 1)
    if jser.order < nmax + 1:
        raise AssertionError("internal truncation bookkeeping error")
    return {n: jser.coeff(n) for n in range(-1, nmax + 1)}
