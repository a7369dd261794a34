import math
import time
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mpf

from holoseq.primes import (
    CapExceeded,
    PrimeTable,
    cipolla_residual,
    li,
    li_series,
    nth_prime,
    nth_prime_grid,
    prime_pi,
    sieve,
)


def naive_bit_sieve(limit):
    """Independent oracle: plain byte-array sieve."""
    if limit < 2:
        return []
    composite = bytearray(limit + 1)
    out = []
    for p in range(2, limit + 1):
        if not composite[p]:
            out.append(p)
            for q in range(p * p, limit + 1, p):
                composite[q] = 1
    return out


class TestSieve:
    def test_tiny(self):
        assert sieve(10).tolist() == [2, 3, 5, 7]
        assert sieve(2).tolist() == [2]
        assert sieve(1).tolist() == []

    def test_equals_naive_to_1e6(self):
        assert sieve(10 ** 6).tolist() == naive_bit_sieve(10 ** 6)

    def test_segment_boundaries(self):
        # straddle the segment size to catch off-by-one slicing
        for limit in [2 ** 21 - 1, 2 ** 21, 2 ** 21 + 1]:
            got = sieve(limit)
            ref = naive_bit_sieve(limit)
            assert got.tolist() == ref

    def test_cap(self):
        with pytest.raises(CapExceeded):
            sieve(10 ** 7, cap=10 ** 6)

    def test_count_at_1e8_vs_unsegmented(self):
        # independent second implementation: one flat boolean sieve
        from holoseq.primes import _simple_sieve
        got = len(sieve(10 ** 8))
        ref = len(_simple_sieve(10 ** 8))
        assert got == ref


class TestNthPrime:
    def test_paper_convention(self):
        assert nth_prime(0) == 1
        assert nth_prime(1) == 2
        assert nth_prime(2) == 3
        assert nth_prime(3) == 5

    def test_standard_offset(self):
        assert nth_prime(0, unit_at_zero=False) == 2
        assert nth_prime(3, unit_at_zero=False) == 7

    def test_100th(self):
        # sieve oracle
        assert nth_prime(100) == naive_bit_sieve(600)[99] == 541

    def test_grid(self):
        g = nth_prime_grid([1, 2, 3, 100])
        assert g.tolist() == [2, 3, 5, 541]


class TestPrimePi:
    def test_small(self):
        assert prime_pi(10) == 4
        assert prime_pi(2) == 1
        assert prime_pi(1) == 0

    def test_pi_541(self):
        assert prime_pi(541) == 100

    def test_inverse_relations(self):
        t = PrimeTable()
        for n in [1, 5, 100, 1000]:
            g = nth_prime(n, table=t)
            assert prime_pi(g, table=t) == n
        for x in [10, 100, 12345]:
            k = prime_pi(x, table=t)
            assert nth_prime(k, table=t) <= x < nth_prime(k + 1, table=t)


class TestLi:
    def test_empty_interval(self):
        r = li(2)
        assert r.value == 0

    def test_against_series_at_1e6(self):
        quad = li(10 ** 6, bits=64)
        ser = li_series(10 ** 6)
        # mutual oracle: quadrature within the series' own error estimate
        assert abs(float(quad.value) - float(ser.value)) <= float(ser.bound)

    def test_li_exceeds_pi_at_1e6(self):
        assert float(li(10 ** 6).value) > prime_pi(10 ** 6)

    def test_against_mpmath_li(self):
        import mpmath
        r = li(10 ** 4, bits=64)
        ref = mpmath.li(10 ** 4) - mpmath.li(2)
        assert abs(float(r.value) - float(ref)) < 1e-9


class TestNumericArguments:
    @pytest.mark.parametrize("f", [li, li_series, prime_pi],
                             ids=["li", "li_series", "prime_pi"])
    @pytest.mark.parametrize("x", [math.nan, math.inf, mpf("inf")],
                             ids=["nan", "inf", "mpf-inf"])
    def test_non_finite_refused(self, f, x):
        # li(nan) returned 0 with bound 0, li(inf) never returned,
        # li_series(inf) returned nan and prime_pi(inf) overflowed
        with pytest.raises(ValueError, match="is not a finite number"):
            f(x)

    def test_fraction_argument(self):
        a, b = li(Fraction(1000)), li(1000)
        assert (a.value, a.bound) == (b.value, b.bound)
        assert prime_pi(Fraction(1000, 3)) == prime_pi(333)
        s, t = li_series(Fraction(10 ** 6)), li_series(10 ** 6)
        assert (s.value, s.bound) == (t.value, t.bound)

    def test_li_above_the_working_precision(self):
        # 2^128 + 1 rounds down to 2^128 at 80 bits: the subdivision used
        # to compare its points with the exact x and never stopped
        t0 = time.perf_counter()
        r = li(2 ** 128 + 1)
        assert time.perf_counter() - t0 < 5
        assert (r.value, r.bound) == (li(2 ** 128).value, li(2 ** 128).bound)


class TestCipolla:
    def test_n_100(self):
        # g_100 = 541: residual = 5.41 - log 100 - loglog 100
        r = cipolla_residual(100)
        expected = 5.41 - math.log(100) - math.log(math.log(100))
        assert abs(r - expected) < 1e-12
        assert abs(r - (-0.7223498)) < 1e-6

    def test_bounded_on_log_grid(self):
        ns = np.unique(np.geomspace(100, 10 ** 5, 30).astype(int))
        for n in ns:
            assert abs(cipolla_residual(int(n))) <= 2
