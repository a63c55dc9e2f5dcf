"""Truncated power series with exact rational coefficients.

A SeriesInvX is a jet sum_{j=0}^K c_j u^j + O(u^{K+1}) in a single formal
variable u with rational coefficients.  Throughout this package u stands
for 1/g or 1/X, so these are expansions at infinity truncated at order K;
nothing in the arithmetic depends on that reading.

All operations truncate to the smaller operand order, so precision
bookkeeping is automatic: combining a K-jet with an M-jet yields a
min(K, M)-jet.

Every change of variable the package makes (1/g -> 1/(g-h), and 1/g -> 1/X
for g = (X + 2 - n)/2) is the Moebius map u -> a u / (1 - c u) with
integers a and c.  ``reindex_coeff`` states the closed form of one
coefficient of the substituted series, with no series products;
``SeriesInvX.reindex`` maps it over every order, and
``painleve.cg_asymptotic_series`` reads single coefficients from it.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .exact import ONE, Q, ZERO


class SeriesInvX:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence, order: int | None = None):
        cs = [Q(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("series order must be >= 0")
            cs = cs[: order + 1] + [ZERO] * (order + 1 - len(cs))
        elif not cs:
            raise ValueError("empty coefficient list and no order given")
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "SeriesInvX":
        return cls([ONE], order)

    @classmethod
    def zero(cls, order: int) -> "SeriesInvX":
        return cls([], order)

    @classmethod
    def monomial(cls, c, j: int, order: int) -> "SeriesInvX":
        if j < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls([ZERO] * j + [Q(c)], order)

    # -- basics -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "SeriesInvX") -> "SeriesInvX":
        K = min(self.order, other.order)
        return SeriesInvX(
            [self.coeffs[j] + other.coeffs[j] for j in range(K + 1)]
        )

    def __mul__(self, other) -> "SeriesInvX":
        if not isinstance(other, SeriesInvX):
            q = Q(other)
            return SeriesInvX([c * q for c in self.coeffs])
        K = min(self.order, other.order)
        out = [ZERO] * (K + 1)
        for i, a in enumerate(self.coeffs[: K + 1]):
            if not a:
                continue
            for j in range(K + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return SeriesInvX(out)

    def __truediv__(self, other: "SeriesInvX") -> "SeriesInvX":
        return self * other.inverse()

    def inverse(self) -> "SeriesInvX":
        """Multiplicative inverse; requires a unit constant term."""
        if not self.coeffs[0]:
            raise ValueError("series with zero constant term has no inverse")
        K = self.order
        inv0 = ONE / self.coeffs[0]
        out = [inv0] + [ZERO] * K
        for m in range(1, K + 1):
            acc = ZERO
            for k in range(1, m + 1):
                if self.coeffs[k]:
                    acc += self.coeffs[k] * out[m - k]
            out[m] = -inv0 * acc
        return SeriesInvX(out)

    # -- substitution and transcendental jets ------------------------

    def reindex(self, a: int, c: int) -> "SeriesInvX":
        """self(a u / (1 - c u)), one reindex_coeff per order."""
        s = self.coeffs
        return SeriesInvX([reindex_coeff(s, a, c, m) for m in range(len(s))])

    def exp(self) -> "SeriesInvX":
        """exp of a series with zero constant term."""
        if self.coeffs[0]:
            raise ValueError("exp requires zero constant term")
        K = self.order
        out = [ONE] + [ZERO] * K
        for m in range(1, K + 1):
            acc = ZERO
            for k in range(1, m + 1):
                if self.coeffs[k]:
                    acc += k * self.coeffs[k] * out[m - k]
            out[m] = acc / m
        return SeriesInvX(out)

    def log(self) -> "SeriesInvX":
        """log of a series with constant term 1."""
        if self.coeffs[0] != ONE:
            raise ValueError("log requires constant term 1")
        K = self.order
        out = [ZERO] * (K + 1)
        for m in range(1, K + 1):
            acc = m * self.coeffs[m]
            for k in range(1, m):
                if out[k] and self.coeffs[m - k]:
                    acc -= k * out[k] * self.coeffs[m - k]
            out[m] = acc / m
        return SeriesInvX(out)


def reindex_coeff(s: Sequence, a: int, c: int, m: int):
    """[u^m] S(a u / (1 - c u)) for S = sum_j s_j u^j, from the closed form

        [u^m] (a u / (1 - c u))^j = a^j binom(m-1, j-1) c^(m-j),  1 <= j <= m,

    with s_0 alone at m = 0.  The sum starts at ZERO, so it stays a
    rational when every term vanishes.
    """
    if m == 0:
        return s[0]
    return sum(
        (
            sj * (a**j * comb(m - 1, j - 1) * c ** (m - j))
            for j, sj in enumerate(s[1 : m + 1], start=1)
            if sj
        ),
        ZERO,
    )
