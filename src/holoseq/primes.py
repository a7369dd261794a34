"""Prime-sequence infrastructure: segmented sieve, nth prime, counting
function, logarithmic integral, and the residual of the two-term nth-prime
asymptotic n log n + n loglog n.

The sequence convention indexes primes from 1 (g_1 = 2, g_2 = 3, ...) and
sets g_0 = 1; `nth_prime(..., unit_at_zero=False)` exposes plain 0-based
indexing into the prime table instead.
"""

from __future__ import annotations

import math
from typing import Optional

import mpmath
import numpy as np
from mpmath import mp, mpf

from .hpeval import BigReal
from .kernel import read_real

DEFAULT_CAP = 2 ** 31
SEGMENT = 1 << 20


class CapExceeded(Exception):
    """Request beyond the configured sieve cap."""


def sieve(limit: int, cap: int = DEFAULT_CAP) -> np.ndarray:
    """All primes <= limit as an int64 array (segmented sieve of odd
    numbers, 2^20-element segments)."""
    if limit > cap:
        raise CapExceeded(f"sieve limit {limit} exceeds cap {cap}")
    if limit < 2:
        return np.array([], dtype=np.int64)
    root = math.isqrt(limit)
    base = _simple_sieve(root)
    chunks = [np.array([2], dtype=np.int64)]
    # sieve odd numbers segment by segment
    for lo in range(3, limit + 1, 2 * SEGMENT):
        hi = min(lo + 2 * SEGMENT - 1, limit)
        size = (hi - lo) // 2 + 1  # odds in [lo, hi]
        mask = np.ones(size, dtype=bool)
        for p in base[1:]:  # odd base primes
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start > hi:
                continue
            mask[(start - lo) // 2::p] = False
        chunks.append(lo + 2 * np.nonzero(mask)[0])
    return np.concatenate(chunks).astype(np.int64)


def _simple_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.array([], dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return np.nonzero(mask)[0].astype(np.int64)


class PrimeTable:
    """Cached prime table that grows on demand (within the cap)."""

    def __init__(self, cap: int = DEFAULT_CAP):
        self.cap = cap
        self._limit = 0
        self._primes = np.array([], dtype=np.int64)

    def ensure_limit(self, limit: int):
        if limit > self._limit:
            if limit > self.cap:
                raise CapExceeded(f"limit {limit} exceeds cap {self.cap}")
            self._limit = max(limit, min(2 * self._limit, self.cap), 1 << 16)
            self._primes = sieve(self._limit, self.cap)

    def ensure_count(self, n: int):
        """Grow until at least n primes are available."""
        if len(self._primes) >= n:
            return
        # g_n ~ n (log n + loglog n) with some headroom
        x = max(100, n)
        guess = int(x * (math.log(x) + math.log(math.log(x)) + 1)) + 10
        while len(self._primes) < n:
            self.ensure_limit(guess)
            guess = min(2 * guess, self.cap)
            if self._limit >= self.cap and len(self._primes) < n:
                raise CapExceeded(f"not enough primes below cap {self.cap}")

    @property
    def primes(self) -> np.ndarray:
        return self._primes


_table = PrimeTable()


def nth_prime(n: int, *, unit_at_zero: bool = True,
              table: Optional[PrimeTable] = None) -> int:
    """g_n with g_0 = 1, g_1 = 2, g_2 = 3, g_3 = 5, ...; with
    unit_at_zero=False, plain 0-based indexing (nth_prime(0) is 2)."""
    t = table or _table
    if unit_at_zero:
        if n < 0:
            raise ValueError("prime index must be nonnegative")
        if n == 0:
            return 1
        t.ensure_count(n)
        return int(t.primes[n - 1])
    if n < 0:
        raise ValueError("prime index must be nonnegative")
    t.ensure_count(n + 1)
    return int(t.primes[n])


def prime_pi(x, table: Optional[PrimeTable] = None) -> int:
    """Number of primes <= x, for x read by `kernel.read_real`: an int, a
    Fraction, a float or an mpf.  A NaN or an infinity raises ValueError,
    a complex or any other type TypeError."""
    x = read_real(x)
    if x < 2:
        return 0
    t = table or _table
    xi = math.floor(x)
    t.ensure_limit(xi)
    return int(np.searchsorted(t.primes, xi, side="right"))


def nth_prime_grid(ns, table: Optional[PrimeTable] = None) -> np.ndarray:
    """Vectorized g_n (paper convention) for an array of indices >= 1."""
    t = table or _table
    ns = np.asarray(ns, dtype=np.int64)
    if ns.min() < 1:
        raise ValueError("grid indices must be >= 1")
    t.ensure_count(int(ns.max()))
    return t.primes[ns - 1]


# ---------------------------------------------------------------------------
# Logarithmic integral
# ---------------------------------------------------------------------------

def li(x, bits: int = 64) -> BigReal:
    """Li(x) = integral_2^x dt/log t by adaptive quadrature over
    geometrically split subintervals (1/log t is nearly flat on each),
    with the quadrature's own error estimate as the bound.

    x is read by `kernel.read_real` and rounded once to the working
    precision: an int, a Fraction, a float or an mpf.  x < 2, a NaN and an
    infinity raise ValueError, a complex or any other type TypeError."""
    x = read_real(x)
    if x <= 2:
        if x == 2:
            return BigReal(mpf(0), mpf(0))
        raise ValueError("li is defined for x >= 2 here")
    with mp.workprec(bits + 16):
        xv = mpf(x.numerator) / x.denominator
        pts = [mpf(2)]
        while pts[-1] < xv:
            pts.append(min(xv, pts[-1] ** 2))
        val, err = mpmath.quad(lambda t: 1 / mpmath.log(t), pts, error=True)
        return BigReal(val, mpf(err) * 4 + abs(val) * mpf(2) ** (-bits - 8))


def li_series(x, terms: Optional[int] = None, bits: int = 64) -> BigReal:
    """Asymptotic series x/log x * sum k!/(log x)^k, truncated at its
    smallest term (or after `terms` terms), with the first omitted term as
    error estimate.

    The divergent series expands the principal-value li at infinity; the
    exact constant li(2) is subtracted so the value estimates the
    definite integral from 2, matching `li`.  x is read as `li` reads it;
    x <= 2 raises ValueError."""
    x = read_real(x)
    if x <= 2:
        raise ValueError("the asymptotic series needs x > 2")
    with mp.workprec(bits + 16):
        xv = mpf(x.numerator) / x.denominator
        L = mpmath.log(xv)
        lead = xv / L
        s = mpf(0)
        term = mpf(1)  # k!/L^k, starting at k = 0
        k = 0
        while True:
            if terms is not None and k >= terms:
                break
            s += term
            k += 1
            new_term = term * k / L
            if terms is None and new_term >= term:
                term = new_term
                break
            term = new_term
        anchor = mpmath.li(2)
        # same-sign series: the optimally-truncated error slightly exceeds
        # the first omitted term, by a factor calibrated as 1 + 4/L
        return BigReal(lead * s - anchor, abs(lead * term) * (1 + 4 / L))


def cipolla_residual(n: int, table: Optional[PrimeTable] = None) -> float:
    """g_n/n - log n - loglog n, the O(1) residual of the two-term
    nth-prime expansion."""
    if n < 2:
        raise ValueError("residual needs n >= 2 so loglog n is defined")
    g = nth_prime(n, table=table)
    return g / n - math.log(n) - math.log(math.log(n))
