"""Truncated power series with exact rational coefficients.

Used for certifying operator constructions at the generating-function
level: series composition, exponential, and applying a linear differential
operator to a truncation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .kernel import Poly


class Series:
    """Power series truncated to `length` coefficients (orders 0..length-1)."""

    __slots__ = ("coeffs", "length")

    def __init__(self, coeffs: Iterable, length: int):
        cs = [Fraction(c) if not isinstance(c, Fraction) else c
              for c in coeffs][:length]
        cs += [Fraction(0)] * (length - len(cs))
        self.coeffs = cs
        self.length = length

    @classmethod
    def zero(cls, length: int) -> "Series":
        return cls([], length)

    @classmethod
    def from_poly(cls, p: Poly, length: int) -> "Series":
        return cls(p.coeffs, length)

    def __eq__(self, other):
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __add__(self, other: "Series") -> "Series":
        n = min(self.length, other.length)
        return Series([self.coeffs[i] + other.coeffs[i] for i in range(n)], n)

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs], self.length)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return Series([c * other for c in self.coeffs], self.length)
        n = min(self.length, other.length)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a == 0:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return Series(out, n)

    __rmul__ = __mul__

    def derivative(self) -> "Series":
        # one coefficient of information is lost at the tail
        return Series([i * c for i, c in enumerate(self.coeffs)][1:],
                      self.length - 1)

    def compose(self, inner: "Series") -> "Series":
        """self(inner(x)); inner must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError("series composition needs inner constant term 0")
        n = min(self.length, inner.length)
        # Horner on truncations
        acc = Series([self.coeffs[n - 1]], n)
        for k in range(n - 2, -1, -1):
            acc = acc * inner
            acc.coeffs[0] += self.coeffs[k]
        return acc

    def exp(self) -> "Series":
        """exp(self) for a series with zero constant term, via the
        coefficient recurrence of g' = u' g: m g_m = sum_k k u_k g_(m-k).
        Each sum is taken in integers over the lcm L of its terms'
        denominators, as sum k a_k c (L / (b_k d)) for u_k = a_k / b_k and
        g_(m-k) = c / d, and one Fraction is built per m."""
        if self.coeffs[0] != 0:
            raise ValueError("series exp needs zero constant term")
        n = self.length
        du = [(k, k * c.numerator, c.denominator)
              for k, c in enumerate(self.coeffs) if c != 0]
        g = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for m in range(1, n):
            live = []
            for k, a, b in du:
                if k > m:
                    break
                c = g[m - k]
                if c:
                    live.append((a * c.numerator, b * c.denominator))
            if live:
                L = math.lcm(*[d for _, d in live])
                g[m] = Fraction(sum(t * (L // d) for t, d in live), L * m)
        return Series(g, n)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        more = ", ..." if self.length > 8 else ""
        return f"Series([{shown}{more}], length={self.length})"


def geometric(length: int) -> Series:
    """1/(1-x) truncated."""
    return Series([1] * length, length)
