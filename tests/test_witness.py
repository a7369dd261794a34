import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from mpmath import mpf

from holoseq import hpeval
from holoseq.series import Series
from holoseq.witness import (
    bell_numbers,
    children_rounds_coefficients,
    witness_log,
    witness_misc,
    witness_powers,
    witness_primes,
)
from seqlib import fraction_series_exp, recurrence_bell_numbers


class TestWitnessLog:
    def test_small_grid_passes(self):
        rep = witness_log(nmax=400, grid=range(100, 401, 25))
        assert rep.passed()
        assert rep.verdicts["bounded"]
        assert rep.verdicts["spread_small"]
        assert rep.verdicts["loglog_scale_incompatible"]

    def test_n2_sample_is_log2(self):
        rep = witness_log(nmax=120, grid=[2, 100, 120])
        s2 = next(s for s in rep.samples if s["x"] == 2)
        assert abs(s2["value"] - math.log(2)) < 1e-12

    def test_verdicts_recomputable_from_samples(self):
        rep = witness_log(nmax=300, grid=range(100, 301, 40))
        devs = [s["deviation"] for s in rep.samples]
        assert rep.verdicts["bounded"] == all(0 < d < 2 for d in devs)
        assert rep.verdicts["spread_small"] == (max(devs) - min(devs) <= 0.5)

    def test_reproducible_bit_for_bit(self):
        a = witness_log(nmax=200, grid=[100, 150, 200])
        b = witness_log(nmax=200, grid=[100, 150, 200])
        assert a.samples == b.samples

    def test_thresholds_carry_provenance(self):
        rep = witness_log(nmax=150, grid=[100, 150])
        for th in rep.thresholds.values():
            assert "provenance" in th

    def test_json_schema_fields(self):
        rep = witness_log(nmax=150, grid=[100, 150])
        d = rep.to_dict()
        for key in ["experiment", "params", "samples", "verdicts",
                    "precision_bits", "runtime_ms"]:
            assert key in d
        for s in d["samples"]:
            assert set(s) == {"x", "value", "reference", "deviation"}
        json.dumps(d)


class TestDefaultGrids:
    def test_log_nmax_below_grid(self):
        with pytest.raises(ValueError, match="lower end of the default grid"):
            witness_log(nmax=50)

    def test_powers_nmax_below_grid(self):
        # the default grid starts at 500: nmax = 300 would sample n up to 500
        with pytest.raises(ValueError, match="lower end of the default grid"):
            witness_powers(0.5, nmax=300)

    @pytest.mark.parametrize("run", [
        lambda: witness_log(nmax=5001),
        lambda: witness_log(grid=[100, 5001]),
        lambda: witness_log(nmax=200, grid=[100, 6000]),
        lambda: witness_powers(0.5, nmax=5001),
        lambda: witness_powers(0.5, grid=[500, 5001]),
    ], ids=["log-nmax", "log-grid", "log-grid-past-nmax", "powers-nmax",
            "powers-grid"])
    def test_sizes_above_cap_rejected_before_any_sum(self, run, monkeypatch):
        def never(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(hpeval, "_f_tables", never)
        with pytest.raises(ValueError, match="above the cap 5000"):
            run()

    def test_cap_itself_runs(self):
        rep = witness_log(nmax=5000, grid=[100, 5000])
        assert [s["x"] for s in rep.samples] == [100, 5000]
        assert rep.passed()

    def test_explicit_grid_below_default_start(self):
        rep = witness_log(nmax=60, grid=[30, 60])
        assert [s["x"] for s in rep.samples] == [30, 60]

    def test_powers_default_grid_ends_at_nmax(self):
        rep = witness_powers(0.5, nmax=600)
        assert max(s["x"] for s in rep.samples) == 600
        assert rep.params["nmax"] == 600


class TestWitnessPowers:
    def test_half_small_grid(self):
        rep = witness_powers(0.5, nmax=1500, grid=[500, 900, 1500])
        assert rep.verdicts["normalized_ratio_near_one"]
        assert rep.verdicts["fractional_log_scale_incompatible"]
        assert any("sign" in note for note in rep.notes)

    def test_float_alpha_is_read_as_a_fraction(self, monkeypatch):
        # 0.3333333333333333 is read as 1/3, which the table takes by cube
        # roots, as it takes the Fraction
        seen = []
        power_seq = hpeval.power_seq

        def spy(alpha):
            seen.append(alpha)
            return power_seq(alpha)

        monkeypatch.setattr(hpeval, "power_seq", spy)
        a = witness_powers(1 / 3, nmax=800)
        b = witness_powers(Fraction(1, 3), nmax=800)
        assert seen == [Fraction(1, 3)] * 2
        assert a.samples == b.samples and a.verdicts == b.verdicts
        assert a.params == b.params and a.params["alpha"] == 1 / 3

    def test_mpf_alpha_is_read_as_a_float(self):
        # mpf(1)/3 has the binary value of the float 1/3, and is read as 1/3
        a = witness_powers(mpf(1) / 3, nmax=600)
        b = witness_powers(Fraction(1, 3), nmax=600)
        assert a.samples == b.samples and a.verdicts == b.verdicts

    def test_complex_alpha_refused_before_any_sum(self, monkeypatch):
        def never(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(hpeval, "_f_tables", never)
        with pytest.raises(ValueError, match="alpha must be real"):
            witness_powers(1j, nmax=600)

    @pytest.mark.parametrize("alpha", [mpf("inf"), mpf("-inf"), math.inf],
                             ids=["mpf-inf", "mpf-minus-inf", "float-inf"])
    def test_infinite_alpha_refused(self, alpha):
        # an mpf infinity was read as 0 (an integer-branch report), and a
        # float one raised OverflowError
        with pytest.raises(ValueError, match="inf is not a finite number"):
            witness_powers(alpha)

    def test_integer_branch(self):
        rep = witness_powers(3)
        assert rep.verdicts["holonomic_branch_recurrence_found"]
        assert rep.verdicts["certified_on_all_terms"]

    @pytest.mark.parametrize("kw", [{"nmax": 9999999}, {"nmax": 5000},
                                    {"grid": [500, 1000]}],
                             ids=["nmax-huge", "nmax-default-value", "grid"])
    def test_integer_branch_refuses_nmax_and_grid(self, kw):
        with pytest.raises(ValueError, match="alpha = 2 is an integer"):
            witness_powers(2, **kw)

    @pytest.mark.parametrize("args, want", [
        ((3,), "9e4d2246b0d08313"),
        ((), "ff82c2edb5e69127"),
    ], ids=["integer-3", "default"])
    def test_reports_unchanged(self, args, want):
        # sha256 of the report without its run time; the default run is
        # alpha = 1/2 on the 48-point grid up to nmax = 5000
        d = witness_powers(*args).to_dict()
        d.pop("runtime_ms")
        text = json.dumps(d, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == want

    @pytest.mark.parametrize("alpha, read_as", [
        (2.0000000001, 2), (-1.0000000001, -1), (1e-12, 0)],
        ids=["2", "-1", "0"])
    def test_near_integer_alpha_takes_the_integer_branch(self, alpha, read_as):
        # the branch is decided on alpha as read, which the sums would use:
        # these used to run the fractional branch at an integer alpha
        got = witness_powers(alpha).to_dict()
        want = witness_powers(read_as).to_dict()
        got.pop("runtime_ms")
        want.pop("runtime_ms")
        assert got == want

    def test_near_integer_alpha_refuses_nmax(self):
        with pytest.raises(ValueError, match=r"is an integer as read \(2\)"):
            witness_powers(2.0000000001, nmax=600)

    def test_negative_integer_branch(self):
        rep = witness_powers(-2)
        assert rep.verdicts["holonomic_branch_recurrence_found"]

    def test_precision_bits_is_the_precision_used(self, monkeypatch):
        # n^3.5 outgrows the first estimate of 696 bits at n = 600, so the
        # table is computed again at 702 bits, which the report must give
        seen = []
        tables = hpeval._f_tables

        def spy(f, nmax, start, p):
            seen.append(p)
            return tables(f, nmax, start, p)

        monkeypatch.setattr(hpeval, "_f_tables", spy)
        rep = witness_powers(3.5, nmax=600)
        assert seen == [696, 702]
        assert rep.precision_bits == 702


class TestWitnessPrimes:
    def test_small(self):
        rep = witness_primes(nmax=10 ** 5, grid_points=25)
        assert rep.verdicts["bounded"]
        assert rep.verdicts["guesser_not_found"]
        assert rep.verdicts["nloglogn_scale_incompatible"]

    @pytest.mark.parametrize("kw", [{"nmax": 50}, {"nmax": 99},
                                    {"grid_points": 0}, {"grid_points": -3}],
                             ids=["nmax-50", "nmax-99", "points-0", "points-negative"])
    def test_grid_refusals(self, kw):
        # nmax = 50 reported samples up to n = 100, and grid_points = 0
        # failed inside numpy
        with pytest.raises(ValueError, match="need 100 <= nmax <= 10\\^6 "
                                             "and grid_points >= 1"):
            witness_primes(**kw)

    def test_residuals_match_direct_formula(self):
        rep = witness_primes(nmax=10 ** 4, grid_points=10)
        from holoseq.hpeval import harmonic
        from holoseq.primes import nth_prime
        s = rep.samples[0]
        n = s["x"]
        g = nth_prime(n)
        h = float(harmonic(n))
        assert abs(s["value"] - (g - n * h) / n) < 1e-9


class TestWitnessMisc:
    def test_full(self):
        rep = witness_misc(transfer_kmax=10)
        assert rep.passed(), rep.verdicts

    def test_children_rounds_coefficients(self):
        c = children_rounds_coefficients(8)
        # exp(z^2 + z^3/2 + z^4/3 + ...) starts 1, 0, 1, 1/2, 5/6
        from fractions import Fraction
        assert c[0] == 1 and c[1] == 0 and c[2] == 1
        assert c[3] == Fraction(1, 2)
        assert c[4] == Fraction(5, 6)

    def test_bell_numbers(self):
        assert bell_numbers(8) == [1, 1, 2, 5, 15, 52, 203, 877]

    def test_bell_triangle_matches_the_binomial_recurrence(self):
        for N in (0, 1, 2, 3, 50, 300):
            assert bell_numbers(N) == recurrence_bell_numbers(N)

    def test_children_rounds_matches_the_fraction_exp(self):
        u = Series([0, 0] + [Fraction(1, m) for m in range(1, 119)], 120)
        assert children_rounds_coefficients(120) == fraction_series_exp(u)

    def test_series_exp_matches_the_fraction_exp(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(1, 40)
            u = Series([0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                              if rng.random() < 0.6 else 0
                              for _ in range(n - 1)], n)
            assert u.exp().coeffs == fraction_series_exp(u)
