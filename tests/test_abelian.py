import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mpc, mpf

from holoseq import abelian
from holoseq.abelian import (
    AlphaNegative,
    AsymptoticScale,
    _partial_sum_mpmath,
    transfer,
    truncation_depth,
    verify_transfer,
)
from holoseq.hpeval import gamma


class TestTransfer:
    def test_loglog_element(self):
        el = transfer(AsymptoticScale(0, 0, 1))
        assert el.pole_order == 1
        assert el.log_power == 0
        assert el.loglog_power == 1
        assert abs(float(el.gamma_factor.value) - 1) < 1e-15

    def test_prime_counting_element(self):
        el = transfer(AsymptoticScale(1, -1, 0))
        assert el.pole_order == 2
        assert el.log_power == -1
        assert abs(float(el.gamma_factor.value) - 1) < 1e-15  # Gamma(2) = 1

    def test_geometric_element(self):
        el = transfer(AsymptoticScale(0, 0, 0))
        z = 0.9
        assert abs(el.evaluate(z) - 1 / (1 - z)) < 1e-12

    def test_alpha_negative_rejected(self):
        with pytest.raises(AlphaNegative):
            transfer(AsymptoticScale(-1, 0, 1))

    @pytest.mark.parametrize("alpha", [1j, mpc(1, 0), -0.5, mpf(-2)],
                             ids=["complex", "mpc", "negative", "negative-mpf"])
    def test_alpha_refusals(self, alpha):
        with pytest.raises(AlphaNegative):
            transfer(AsymptoticScale(alpha, 0, 0))

    def test_gamma_at_the_exact_alpha(self):
        # a float alpha reaches Gamma exactly: 1e-20 + 1 is not 1
        el = transfer(AsymptoticScale(1e-20, 0, 0))
        want = gamma(Fraction(1e-20) + 1, 64)
        assert (el.gamma_factor.value, el.gamma_factor.bound) == (want.value, want.bound)
        assert el.gamma_factor.value != 1
        assert el.pole_order == 1e-20 + 1

    def test_experimental_flag(self):
        assert AsymptoticScale(0, complex(0, 1), 0).experimental
        assert not AsymptoticScale(1, -1, 0).experimental

    def test_element_evaluation_matches_hand_formula(self):
        el = transfer(AsymptoticScale(1, -1, 0))
        z = 1 - 2 ** -6 * cmath.exp(1j * 0.3)
        x = 1 / (1 - z)
        hand = x * x / cmath.log(x)
        assert abs(el.evaluate(z) - hand) / abs(hand) < 1e-12


class TestVerifyTransfer:
    def test_ones_ratio_one_at_every_depth(self):
        N = truncation_depth(12)
        ones = np.ones(N + 1)
        rep = verify_transfer(ones, AsymptoticScale(0, 0, 0), 0.0, kmax=12)
        # exact generating function: deviation is just the truncation tail
        assert all(abs(s.ratio - 1) <= 1e-5 for s in rep.samples)

    def test_exact_terms_summed_at_working_precision(self):
        # u_0 + u_1 z cancels exactly, leaving 2^-70 z^2; float64 terms
        # leave 2.7e4 times that
        z = 1 - 2.0 ** -3
        u = [Fraction(1, 5), -Fraction(1, 5) / Fraction(z), Fraction(1, 2 ** 70)]
        want = 2.0 ** -70 * z * z
        assert abs(_partial_sum_mpmath(u, z, 2, 120) - want) <= 1e-12 * want

    def test_linear_ratio_one(self):
        N = truncation_depth(12)
        u = np.arange(N + 1, dtype=np.float64) + 1
        rep = verify_transfer(u, AsymptoticScale(1, 0, 0), 0.0, kmax=12)
        assert all(abs(s.ratio - 1) <= 1e-5 for s in rep.samples)

    def test_gamma_factor_consistency(self):
        N = truncation_depth(12)
        n = np.arange(N + 1, dtype=np.float64)
        for alpha in [0.5, 1.0, 2.0]:
            rep = verify_transfer(n ** alpha, AsymptoticScale(alpha, 0, 0),
                                  0.0, kmax=12, kmin=10)
            assert abs(rep.final_ratio - 1) <= 0.2

    def test_sector_symmetry(self):
        N = truncation_depth(10)
        n = np.arange(N + 1, dtype=np.float64)
        u = n + 1
        up = verify_transfer(u, AsymptoticScale(1, 0, 0), math.pi / 8, kmax=10)
        dn = verify_transfer(u, AsymptoticScale(1, 0, 0), -math.pi / 8, kmax=10)
        for a, b in zip(up.samples, dn.samples):
            assert abs(a.ratio - b.ratio) < 1e-12

    def test_sector_angle_limit(self):
        with pytest.raises(ValueError):
            verify_transfer(np.ones(10), AsymptoticScale(0, 0, 0),
                            math.pi / 2, kmax=4)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_sector_angle_not_finite(self, theta):
        # abs(nan) > pi/4 is False: a NaN angle used to run and return NaN
        # ratios
        with pytest.raises(ValueError, match="sector_angle"):
            verify_transfer(np.ones(truncation_depth(4) + 1),
                            AsymptoticScale(0, 0, 0), theta, kmax=4)

    @pytest.mark.parametrize("scale", [
        AsymptoticScale(1, math.nan, 0), AsymptoticScale(math.inf, 0, 0),
        AsymptoticScale(0, 0, mpf("-inf"))], ids=["beta-nan", "alpha-inf", "gamma-inf"])
    def test_non_finite_scale_refused_before_any_sum(self, scale, monkeypatch):
        # a NaN beta ran and returned NaN ratios, bare NaN tokens in JSON
        def never(*args):
            raise AssertionError("a sum ran")

        monkeypatch.setattr(abelian, "_partial_sum_numpy", never)
        with pytest.raises(ValueError, match="is not a finite number"):
            verify_transfer(np.ones(truncation_depth(4) + 1), scale, kmax=4)

    @pytest.mark.parametrize("kmin,kmax", [(5, 4), (0, 4), (-1, 3), (0, 0)])
    def test_k_range_must_be_nonempty_and_positive(self, kmin, kmax):
        # (5, 4) raised IndexError at samples[-1]; kmin = 0 a bare
        # "math domain error" from log z at z = 1 - 2^0 = 0
        with pytest.raises(ValueError, match="1 <= kmin <= kmax"):
            verify_transfer(np.ones(truncation_depth(4) + 1),
                            AsymptoticScale(0, 0, 0), 0.0, kmax=kmax, kmin=kmin)

    def test_single_k(self):
        rep = verify_transfer(np.ones(truncation_depth(4) + 1),
                              AsymptoticScale(0, 0, 0), 0.0, kmax=4, kmin=4)
        assert [s.k for s in rep.samples] == [4]

    def test_tail_estimates_recorded(self):
        N = truncation_depth(8)
        rep = verify_transfer(np.ones(N + 1), AsymptoticScale(0, 0, 0),
                              0.0, kmax=8)
        assert all(s.tail_estimate < 1e-6 for s in rep.samples)
        assert all(s.n_terms == truncation_depth(s.k) for s in rep.samples)

    def test_high_precision_path_agrees_with_numpy(self):
        # partial-summation oracle at higher precision
        N = truncation_depth(7)
        u = [(n + 1) for n in range(N + 1)]
        lo = verify_transfer(np.asarray(u, dtype=np.float64),
                             AsymptoticScale(1, 0, 0), 0.2, kmax=7, kmin=5)
        hi = verify_transfer(u, AsymptoticScale(1, 0, 0), 0.2, kmax=7, kmin=5,
                             precision_bits=100)
        for a, b in zip(lo.samples, hi.samples):
            assert abs(a.ratio - b.ratio) < 1e-8

    def test_report_serializable(self):
        import json
        N = truncation_depth(6)
        rep = verify_transfer(np.ones(N + 1), AsymptoticScale(0, 0, 0),
                              0.0, kmax=6)
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        assert '"trend_improving"' in blob
