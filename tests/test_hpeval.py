import hashlib
import json
import math
import operator
import random
import weakref
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest

from holoseq.annihilators import SequenceStream
from holoseq import hpeval, witness
from holoseq.closure import binomial_diff_seq
from holoseq.hpeval import (
    BigReal,
    PoleAtNonpositiveInteger,
    PrecisionExhausted,
    binomial_diff_eval,
    binomial_diff_grid,
    binomial_diff_stream_eval,
    gamma,
    harmonic,
    lambert_w,
    power_diff_eval,
)
from holoseq.primes import sieve
from seqlib import mpmath_calls, product_paired


def log_seq(k, prec):
    with mp.workprec(prec):
        return mpmath.log(k)


def sqrt_seq(k, prec):
    with mp.workprec(prec):
        return mpmath.sqrt(k)


def mpmath_alpha(alpha):
    """alpha as an mpf or mpc at the current precision."""
    if isinstance(alpha, (complex, mpc)):
        return mpc(alpha)
    if isinstance(alpha, Fraction):
        return mpf(alpha.numerator) / alpha.denominator
    return mpf(alpha)


def mpmath_power_seq(alpha):
    """k^alpha = exp(alpha log k) by one mpmath log and one exp per k: the
    reference for the prime-built `hpeval.power_seq`."""
    def f(k, prec):
        with mp.workprec(prec + 16):
            return mpmath.exp(mpmath_alpha(alpha) * mpmath.log(k))
    return f


class TestBigReal:
    def test_output_only(self):
        # a BigReal carries the bound its producer derived: it has no
        # arithmetic, and the special functions take numbers only
        for name in ("__add__", "__mul__", "__truediv__", "__neg__", "exact"):
            assert not hasattr(BigReal, name), name
        x = BigReal(mpf(3), mpf(2) ** -70)
        with pytest.raises(TypeError):
            gamma(x, 64)
        with pytest.raises(TypeError):
            lambert_w(x, 64)

    def test_negative_bound_refused(self):
        with pytest.raises(ValueError, match="negative"):
            BigReal(mpf(1), mpf(-1))

    def test_agreement_check(self):
        a = BigReal(mpf(1), mpf("1e-10"))
        b = BigReal(mpf(1) + mpf("5e-11"), mpf("1e-12"))
        c = BigReal(mpf(2), mpf("1e-12"))
        assert a.agrees_with(b)
        assert not a.agrees_with(c)


class TestBinomialDiffEval:
    def test_two_terms_by_hand(self):
        r = binomial_diff_eval(log_seq, 2, 64)
        with mp.workprec(80):
            assert abs(r.value - mpmath.log(2)) <= r.bound

    def test_log_100_window(self):
        r = binomial_diff_eval(log_seq, 100, 64)
        d = float(r.value) - math.log(math.log(100))
        assert 0.3 <= d <= 0.9

    def test_doubling_agreement(self):
        for n in [10, 100, 400]:
            a = binomial_diff_eval(log_seq, n, 64)
            b = binomial_diff_eval(log_seq, n, 128)
            assert a.agrees_with(b)
            assert abs(a.value - b.value) <= mpf(2) ** -60

    def test_sqrt_1000_asymptotic_window(self):
        # the normalized value tends to -1: the alternating difference of
        # k^(1/2) is negative with modulus ~ 1/sqrt(pi log n)
        r = binomial_diff_eval(sqrt_seq, 1000, 64)
        norm = float(r.value) * math.sqrt(math.pi * math.log(1000))
        assert -1.35 <= norm <= -0.65

    def test_grid_matches_single(self):
        grid = binomial_diff_grid(log_seq, [50, 80], 64)
        single = binomial_diff_eval(log_seq, 80, 64)
        assert grid[80].agrees_with(single)

    def test_exact_cross_check_with_closure(self):
        # cross-module oracle: float path against the exact transform
        terms = [Fraction(k ** 2, k + 1) for k in range(40)]
        exact = binomial_diff_seq(SequenceStream.exact(terms), 39).terms

        def f(k, prec):
            with mp.workprec(prec):
                return mpf(terms[k].numerator) / terms[k].denominator

        for n in [5, 17, 39]:
            r = binomial_diff_eval(f, n, 80, start=0)
            with mp.workprec(120):
                target = mpf(exact[n].numerator) / exact[n].denominator
                assert abs(r.value - target) <= r.bound

    def test_precision_cap(self, monkeypatch):
        monkeypatch.setenv("HOLO_PRECISION_CAP", "128")
        with pytest.raises(PrecisionExhausted):
            binomial_diff_eval(log_seq, 1000, 64)


class TestStreamEval:
    def test_exact_rational_stream_roundtrip(self):
        terms = [Fraction(3, k + 1) for k in range(30)]
        exact = binomial_diff_seq(SequenceStream.exact(terms), 29).terms
        with mp.workprec(200):
            fstream = SequenceStream([mpf(t.numerator) / t.denominator
                                      for t in terms], "float",
                                     [mpf(2) ** -190] * 30)
        r = binomial_diff_stream_eval(fstream, 29, 64)
        with mp.workprec(200):
            target = mpf(exact[29].numerator) / exact[29].denominator
        assert abs(r.value - target) <= r.bound

    def test_coarse_data_exhausts(self):
        # 53-bit data cannot support a 2^-64 bound at n = 60
        with mp.workprec(53):
            fstream = SequenceStream([mpf(1) / (k + 1) for k in range(61)],
                                     "float", [mpf(2) ** -50] * 61)
        with pytest.raises(PrecisionExhausted):
            binomial_diff_stream_eval(fstream, 60, 64)


def exact(x) -> Fraction:
    """The exact rational value of an mpf."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def direct_sum(f, n, start):
    """sum_k binom(n,k) (-1)^k f(k) with exact binomials and mpmath at
    n + 128 bits; shares no code with the sweep."""
    with mp.workprec(n + 128):
        s = mpf(0)
        for k in range(start, n + 1):
            t = math.comb(n, k) * f(k)
            s = s - t if k % 2 else s + t
        return s


def nested_loop_transform(terms, N, k0):
    """The exact transform term by term, as binomial_diff_seq computed it
    before the sweep: the reference for bit-identical output."""
    out = []
    for n in range(N + 1):
        binom = 1
        s = Fraction(0)
        for k in range(0, n + 1):
            if k >= k0:
                s += (binom if k % 2 == 0 else -binom) * terms[k]
            binom = binom * (n - k) // (k + 1)
        out.append(s)
    return out


class TestOracles:
    @pytest.mark.parametrize("g", [64, 128])
    def test_reciprocal_identity(self, g):
        # sum_k binom(n,k) (-1)^k / (k+1) = 1/(n+1)
        def f(k, prec):
            with mp.workprec(prec):
                return mpf(1) / (k + 1)

        ns = [0, 1, 2, 7, 64, 333, 1000, 1499, 1500]
        out = binomial_diff_grid(f, ns, g, start=0)
        for n in ns:
            r = out[n]
            assert abs(exact(r.value) - Fraction(1, n + 1)) <= exact(r.bound)
            assert exact(r.bound) <= Fraction(1, 2 ** g)

    @pytest.mark.parametrize("name", ["log", "sqrt", "alpha=i"])
    def test_direct_sum(self, name):
        f, direct = {
            "log": (log_seq, mpmath.log),
            "sqrt": (sqrt_seq, mpmath.sqrt),
            "alpha=i": (None, lambda k: mpmath.exp(mpc(0, 1) * mpmath.log(k))),
        }[name]
        for n in [2, 37, 250, 600]:
            r = (power_diff_eval(mpc(0, 1), n, 64) if f is None
                 else binomial_diff_eval(f, n, 64))
            ref = direct_sum(direct, n, 1)
            with mp.workprec(n + 128):
                # the direct sum's own rounding is below 2^(n + log2 n - (n+128))
                assert abs(r.value - ref) <= r.bound + mpf(2) ** -100
            assert r.bound <= mpf(2) ** -64

    @pytest.mark.parametrize("include_zero", [True, False])
    def test_exact_transform_matches_nested_loop(self, include_zero):
        rng = random.Random(20)
        for _ in range(20):
            N = rng.randint(0, 40)
            terms = [Fraction(rng.randint(-10 ** 6, 10 ** 6),
                              rng.randint(1, 10 ** rng.randint(0, 4)))
                     for _ in range(N + 1)]
            out = binomial_diff_seq(SequenceStream.exact(terms), N,
                                    include_zero_term=include_zero).terms
            assert out == nested_loop_transform(terms, N, 0 if include_zero else 1)
            assert all(type(t) is Fraction for t in out)


def comb_sum(table, n, op):
    """sum_k binom(n,k) (-1)^k table[k] (op sub) or sum_k binom(n,k) table[k]
    (op add) term by term with math.comb: the reference for both paths."""
    sign = -1 if op is operator.sub else 1
    return sum(math.comb(n, k) * sign ** k * table[k] for k in range(n + 1))


def mixed_table(rng, size, max_bits=3000):
    """Integers of random sign and random width up to max_bits."""
    return [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, max_bits))
            for _ in range(size)]


OPS = [operator.sub, operator.add]


class TestSumPaths:
    """`hpeval._sums` picks the difference sweep or the paired direct sum by
    cost; both must give the same integers, so the choice never shows."""

    @staticmethod
    def spied(monkeypatch):
        taken = []
        for name in ("_sweep", "_paired"):
            def spy(*args, _name=name, _f=getattr(hpeval, name)):
                taken.append(_name)
                return _f(*args)
            monkeypatch.setattr(hpeval, name, spy)
        return taken

    @pytest.mark.parametrize("op", OPS, ids=["sub", "add"])
    def test_paths_agree_at_every_small_n(self, op):
        rng = random.Random(31)
        for _ in range(4):
            table = mixed_table(rng, 61)
            swept = hpeval._sweep(table, list(range(61)), op)
            for n in range(61):
                assert hpeval._paired(table, n, op) == swept[n] == comb_sum(table, n, op)

    @pytest.mark.parametrize("op", OPS, ids=["sub", "add"])
    def test_paths_agree_at_large_odd_and_even_n(self, op):
        rng = random.Random(32)
        table = mixed_table(rng, 1002)
        ns = [998, 999, 1000, 1001]
        swept = hpeval._sweep(table, ns, op)
        for n in ns:
            assert hpeval._paired(table, n, op) == swept[n] == comb_sum(table, n, op)

    @pytest.mark.parametrize("op", OPS, ids=["sub", "add"])
    def test_both_sides_of_the_switch(self, op, monkeypatch):
        # 40 sum(ns) against max(ns)^2 = 40000: sum 990 sums directly,
        # sum 1185 sweeps
        rng = random.Random(33)
        table = mixed_table(rng, 201)
        for ns, path in ((list(range(196, 201)), "_paired"),
                         (list(range(195, 201)), "_sweep")):
            want = {n: comb_sum(table, n, op) for n in ns}
            taken = self.spied(monkeypatch)
            assert hpeval._sums(table, ns, op) == want
            assert set(taken) == {path}
            monkeypatch.undo()

    def test_complex_pair_on_a_sparse_grid(self):
        ns = witness.log_grid(100, 700, 12)
        p = hpeval._alternating_precision(ns[-1], 64)
        tables = hpeval._f_tables(hpeval.power_seq(mpc(0, 1)), ns[-1], 1, p)
        assert len(tables) == 2
        for table in tables:
            assert ({n: hpeval._paired(table, n, operator.sub) for n in ns}
                    == hpeval._sweep(table, ns))

    @pytest.mark.parametrize("grid, path", [
        (witness.log_grid(100, 2450, 24), "_paired"),
        (witness.log_grid(500, 2450, 48), "_paired"),
        (range(100, 701), "_sweep"),
    ], ids=["log_grid(100,2450,24)", "log_grid(500,2450,48)", "100..700"])
    def test_path_choice(self, grid, path, monkeypatch):
        taken = self.spied(monkeypatch)

        def k(k, prec):
            return mpf(k)
        binomial_diff_grid(k, grid, 64)
        assert set(taken) == {path}

    def test_tables_released_before_the_sums(self, monkeypatch):
        built = []

        class Spy(hpeval._LogTable):
            def __init__(self, prec, guard):
                super().__init__(prec, guard)
                built.append(weakref.ref(self))

        sums = hpeval._sums

        def checked(*args):
            assert built and all(ref() is None for ref in built)
            return sums(*args)

        monkeypatch.setattr(hpeval, "_LogTable", Spy)
        monkeypatch.setattr(hpeval, "_sums", checked)
        f = hpeval.log_seq()  # held here through the sums
        binomial_diff_grid(f, witness.log_grid(100, 600, 8), 64)
        f(5, 64)  # a direct call keeps its table with f
        assert built[-1]() is not None

    GOLDEN = json.loads(
        (Path(__file__).resolve().parent / "witness_golden.json").read_text())

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_witness_samples(self, name):
        """Recorded from the sweep-only summation: the grid midpoints and
        bounds (as a SHA-256 prefix) and every sample of the report."""
        want = self.GOLDEN[name]
        if name.startswith("witness_powers"):
            report = witness.witness_powers(0.5, nmax=2450)
            f = hpeval.power_seq(0.5)
        else:
            report = witness.witness_log(nmax=2450,
                                         grid=witness.log_grid(100, 2450, 24))
            f = hpeval.log_seq()
        assert report.precision_bits == want["precision_bits"]
        assert [[s["x"], float.hex(s["value"])] for s in report.samples] \
            == want["samples"]
        values = binomial_diff_grid(f, [s["x"] for s in report.samples], 64)
        canon = repr([(n, v.value._mpf_, v.bound._mpf_)
                      for n, v in sorted(values.items())])
        assert hashlib.sha256(canon.encode()).hexdigest()[:16] \
            == want["grid_sha256"]


class TestLimbSweep:
    """`hpeval._sweep` runs on int64 arrays of signed 32-bit limbs, with
    carries propagated every 30 rows and a top limb added when an entry
    outgrows its limbs; it must give the integers of `comb_sum`."""

    @settings(max_examples=100, deadline=None)
    @given(size=st.integers(1, 300),
           width=st.sampled_from([0, 31, 32, 33, 63, 64, 65, None]),
           seed=st.integers(0, 2 ** 32 - 1),
           op=st.sampled_from(OPS))
    def test_against_comb_sum(self, size, width, seed, op):
        # entries of exactly `width` bits, or of random widths up to 3000
        # bits (None), with mixed signs; ns always holds 0 and nmax
        rng = random.Random(seed)
        if width is None:
            table = mixed_table(rng, size)
        else:
            table = [rng.choice((-1, 1)) * rng.randrange(1 << width >> 1,
                                                         1 << width)
                     for _ in range(size)]
        ns = sorted({0, size - 1} | set(rng.sample(range(size), min(size, 6))))
        assert hpeval._sweep(table, ns, op) \
            == {n: comb_sum(table, n, op) for n in ns}

    @pytest.mark.parametrize("bits", [31, 32, 64])
    def test_top_limb_grows(self, bits, monkeypatch):
        # +-(2^b - 1), alternating for `sub` and of one sign for `add`:
        # every row doubles the entries, so the sum at n is (2^b - 1) 2^n
        grown = []
        grow = hpeval._grow

        def spy(d):
            grown.append(d.shape[1])
            return grow(d)

        monkeypatch.setattr(hpeval, "_grow", spy)
        c = (1 << bits) - 1
        ns = list(range(301))
        for op, sign in ((operator.sub, -1), (operator.add, 1)):
            for top in (c, -c):
                table = [top * sign ** k for k in ns]
                assert hpeval._sweep(table, ns, op) == {n: top << n for n in ns}
        # 300 doublings take about 9 limbs above the first ones
        assert max(grown) >= (bits + 300) // 32

    @pytest.mark.parametrize("op", OPS, ids=["sub", "add"])
    def test_integers_not_of_type_int(self, op):
        # gmpy2's mpz, which `_scaled` returns under mpmath's gmpy backend,
        # is an integer type that does not derive from int
        class Mpz:
            def __init__(self, v):
                self.v = v

            def __index__(self):
                return self.v

            __int__ = __index__

            def __add__(self, other):
                return Mpz(self.v + int(other))

            def __sub__(self, other):
                return Mpz(self.v - int(other))

        rng = random.Random(36)
        table = mixed_table(rng, 120)
        ns = [0, 7, 60, 119]
        assert not isinstance(Mpz(1), int)
        assert hpeval._sweep([Mpz(x) for x in table], ns, op) \
            == {n: comb_sum(table, n, op) for n in ns}


class TestBinarySplit:
    """`hpeval._paired` sums the symmetric binomial row by binary splitting;
    it must give the integers of the product loop it replaced."""

    @staticmethod
    def check(table, ns, op):
        for n in ns:
            assert (hpeval._paired(table, n, op) == product_paired(table, n, op)
                    == comb_sum(table, n, op))

    @pytest.mark.parametrize("op", OPS, ids=["sub", "add"])
    def test_every_n_across_leaf_and_node_boundaries(self, op):
        # n // 2 + 1 terms: one leaf, two, and up to 3 leaf + 4 terms, for
        # odd and even n
        top = 2 * (3 * hpeval._LEAF + 3) + 1
        rng = random.Random(34)
        self.check(mixed_table(rng, top + 1), range(top + 1), op)

    def test_around_5000(self):
        # `comb_sum` takes 2 s per n here in math.comb, so one binomial row
        # is made by it and the next two by Pascal's rule
        rng = random.Random(35)
        table = mixed_table(rng, 5002)
        row = [math.comb(4999, k) for k in range(5000)]
        for n in (4999, 5000, 5001):
            for op in OPS:
                sign = -1 if op is operator.sub else 1
                want = sum(c * sign ** k * t
                           for k, (c, t) in enumerate(zip(row, table)))
                assert (hpeval._paired(table, n, op)
                        == product_paired(table, n, op) == want)
            row = [a + b for a, b in zip(row + [0], [0] + row)]

    def test_complex_pair(self):
        ns = witness.log_grid(100, 700, 12)
        p = hpeval._alternating_precision(ns[-1], 64)
        tables = hpeval._f_tables(hpeval.power_seq(mpc(0, 1)), ns[-1], 1, p)
        assert len(tables) == 2
        for table in tables:
            for op in OPS:
                self.check(table, ns, op)


ALPHAS = [1 / 3, Fraction(2, 3), 3 / 2, 1 / 2, mpc(0, 1),
          3.5, -0.7, mpc(-1.25, 2), Fraction(1, 3), Fraction(7, 10)]


@st.composite
def root_inputs(draw):
    """(n, b): b up to 16, the range `_root_near` states (the table's cap
    is below it), and n of up to 10^4 bits, half of them a perfect b-th
    power or one of its two neighbours."""
    def of_length(bits):
        return draw(st.integers((1 << bits) >> 1, (1 << bits) - 1))

    b = draw(st.integers(2, 16))
    bits = draw(st.integers(0, 10 ** 4))
    if draw(st.booleans()):
        return max(0, of_length(bits // b) ** b + draw(st.integers(-1, 1))), b
    return of_length(bits), b


class TestIntegerRoot:
    @settings(max_examples=200, deadline=None)
    @given(root_inputs())
    @example((0, 3))
    @example(((1 << 5000) - 1, 16))
    def test_floor_of_the_root(self, nb):
        n, b = nb
        y = hpeval._iroot(n, b)
        assert y ** b <= n < (y + 1) ** b
        # Newton's estimate stays on or one above the floor (b = 2 too)
        assert hpeval._root_near(n, b) - y in (0, 1)
        if b == 2:
            assert y == math.isqrt(n)


class TestPrimeTables:
    """log_seq() and power_seq(alpha) against one mpmath log (and exp) per
    k at prec + 128 bits."""

    KMAX = 1500

    @pytest.fixture(scope="class")
    def logs(self):
        with mp.workprec(1000 + 128):
            return [None, mpf(0)] + [mpmath.log(k) for k in range(2, self.KMAX + 1)]

    @staticmethod
    def worst(f, reference, prec, kmax):
        """max over k <= kmax of |f(k, prec) - reference(k)| / |reference(k)|,
        in units of 2^-prec."""
        with mp.workprec(prec):
            values = [f(k, prec) for k in range(1, kmax + 1)]
        with mp.workprec(prec + 128):
            return max(abs(v - reference(k)) / abs(reference(k))
                       for k, v in enumerate(values, 1) if k > 1) * 2 ** prec

    @pytest.mark.parametrize("prec", [64, 1000])
    def test_log(self, prec, logs):
        # the bound _per_k states, inside the contract's 2^(4-prec)
        assert self.worst(hpeval.log_seq(), logs.__getitem__, prec, self.KMAX) <= 2
        assert hpeval.log_seq()(1, prec) == 0

    @pytest.mark.parametrize("alpha", ALPHAS, ids=str)
    @pytest.mark.parametrize("prec", [64, 1000])
    def test_power(self, alpha, prec, logs):
        with mp.workprec(prec + 128):
            a = mpmath_alpha(alpha)

        def reference(k):
            return mpmath.exp(a * logs[k])
        assert self.worst(hpeval.power_seq(alpha), reference, prec, self.KMAX) <= 2
        assert hpeval.power_seq(alpha)(1, prec) == 1

    def test_tables_start_at_one(self):
        with pytest.raises(ValueError):
            hpeval.log_seq()(0, 64)
        with pytest.raises(ValueError):
            hpeval.power_seq(1 / 3)(0, 64)

    def test_guard_grows_beyond_prec(self, monkeypatch):
        # at 16 bits the first guard, 6, admits counts below 2^4, and
        # k <= 16 has count <= 2 log2 k = 8; 65535 = 3 5 17 257 has count
        # 2 + 3 + 5 + 9 = 19, so the table is built again with the guard
        # bit_length(19) + 2, which also serves the larger k after it
        guards = []

        class Spy(hpeval._LogTable):
            def __init__(self, prec, guard):
                guards.append(guard)
                super().__init__(prec, guard)

        monkeypatch.setattr(hpeval, "_LogTable", Spy)
        f = hpeval.log_seq()
        for k in (10, 65535, 65536, 3 ** 9 * 5, 99991):
            with mp.workprec(16 + 128):
                assert abs(f(k, 16) - mpmath.log(k)) <= 2 ** -15 * mpmath.log(k)
        assert guards == [6, 7]


class TestPrimeTableWitnesses:
    """Witness values from the prime-built tables lie within the bound of
    the per-k mpmath route, at the same working precision."""

    @staticmethod
    def reference(f, ns):
        """binomial_diff_grid(f, ns, 64) and the largest working precision
        f was evaluated at."""
        used = 0

        def recorded(k, prec):
            nonlocal used
            used = max(used, prec)
            return f(k, prec)

        return binomial_diff_grid(recorded, ns, 64), used

    @staticmethod
    def assert_close(report, reference):
        values, p = reference
        assert report.precision_bits == p
        for s in report.samples:
            ref = values[s["x"]]
            assert abs(s["value"] - ref.value) <= ref.bound + 2 ** -52 * abs(s["value"])

    def test_log(self):
        ns = witness.log_grid(100, 1000, 12)
        report = witness.witness_log(nmax=1000, grid=ns)
        self.assert_close(report, self.reference(log_seq, ns))

    @pytest.mark.parametrize("alpha, nmax", [
        (1 / 3, 1000), (Fraction(2, 3), 700), (3 / 2, 700), (1 / 2, 1000),
        # the table is evaluated a second time, at 702 bits
        (3.5, 600),
    ], ids=str)
    def test_powers(self, alpha, nmax):
        report = witness.witness_powers(alpha, nmax=nmax)
        ns = [s["x"] for s in report.samples]
        # the witness reads a float alpha as a fraction: 1/3, not the
        # float's binary value
        read = Fraction(alpha).limit_denominator(10 ** 9)
        f = sqrt_seq if alpha == 0.5 else mpmath_power_seq(read)
        self.assert_close(report, self.reference(f, ns))


@st.composite
def rounding_inputs(draw):
    """(man, exp, prec, p) for `hpeval._rounded`: random values, exact ties
    in the first rounding (to prec bits) and in the second (to p
    fractional bits), zero, values below 1, and mantissas shorter than
    prec, each of either sign."""
    prec = draw(st.integers(1, 200))
    p = draw(st.integers(0, 300))
    sign = draw(st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(
        ("any", "tie-prec", "tie-fixed", "below-one", "short", "zero")))
    if kind == "zero":
        return 0, draw(st.integers(-400, 400)), prec, p
    if kind == "tie-prec":
        # more than prec bits, and the bits dropped are exactly one half
        n = draw(st.integers(1, 80))
        q = draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
        man = q << n | 1 << (n - 1)
        exp = draw(st.integers(-p - n - 100, 50))
    elif kind == "tie-fixed":
        # at most prec bits, an odd multiple of 2^(-p-1)
        man, exp = draw(st.integers(0, (1 << prec) - 1)) | 1, -p - 1
    elif kind == "below-one":
        man = draw(st.integers(1, (1 << 400) - 1))
        exp = -man.bit_length() - draw(st.integers(0, 10))
    elif kind == "short":
        man = draw(st.integers(1, max(1, (1 << (prec - 1)) - 1)))
        exp = draw(st.integers(-p - 100, 100))
    else:
        man = draw(st.integers(1, (1 << 500) - 1))
        exp = draw(st.integers(-600, 100))
    return sign * man, exp, prec, p


class TestIntegerTables:
    """`_f_tables` reads the prime-built tables as integers (their
    `fixed`), with the two roundings of the per-k contract: the entry to
    prec bits as an mpf, then `_scaled` to p fractional bits."""

    SEQS = [("log", hpeval.log_seq)] + [
        (str(a), lambda a=a: hpeval.power_seq(a))
        for a in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                  Fraction(3, 2), Fraction(7, 2), Fraction(1, 11),
                  Fraction(-1, 3), mpc(0, 1))]

    @staticmethod
    def per_k(f, nmax, p):
        """The tables of the generic path, one f(k, p) per k: a plain
        callable offers no `fixed`."""
        return hpeval._f_tables(lambda k, prec: f(k, prec), nmax, 1, p)

    @pytest.mark.parametrize("nmax", [60, 700, 2450])
    @pytest.mark.parametrize("name, make", SEQS, ids=[s[0] for s in SEQS])
    def test_equal_to_the_per_k_contract(self, name, make, nmax):
        p = hpeval._alternating_precision(nmax, 64)
        f = make()
        assert hasattr(f, "fixed")
        assert hpeval._f_tables(f, nmax, 1, p) == self.per_k(f, nmax, p)

    def test_the_retry_at_702_bits(self, monkeypatch):
        # n^(7/2) outgrows the first precision at n = 600: both tables
        seen = []
        tables = hpeval._f_tables

        def spy(f, nmax, start, p):
            out = tables(f, nmax, start, p)
            per_k = tables(lambda k, prec: f(k, prec), nmax, start, p)
            seen.append((p, out == per_k))
            return out

        monkeypatch.setattr(hpeval, "_f_tables", spy)
        hpeval.binomial_diff_fixed(hpeval.power_seq(Fraction(7, 2)),
                                   witness.log_grid(500, 600, 48), 64)
        assert seen == [(696, True), (702, True)]

    def test_guard_rebuild(self, monkeypatch):
        # as in TestPrimeTables.test_guard_grows_beyond_prec: at 16 bits
        # the table is built again at 65535, on both routes
        guards = []

        class Spy(hpeval._LogTable):
            def __init__(self, prec, guard):
                guards.append(guard)
                super().__init__(prec, guard)

        monkeypatch.setattr(hpeval, "_LogTable", Spy)
        ks = (10, 65535, 65536, 3 ** 9 * 5, 99991)
        fixed = hpeval.log_seq().fixed(ks, 16)
        assert guards == [6, 7]
        f = hpeval.log_seq()
        assert fixed == [[hpeval._scaled(f(k, 16), 16) for k in ks]]
        assert guards == [6, 7, 6, 7]

    def test_empty_grids(self):
        stream = SequenceStream([mpf(1)] * 3, "float", [0] * 3)
        assert binomial_diff_grid(hpeval.log_seq(), [], 64) == {}
        assert hpeval.binomial_diff_stream_grid(stream, [], 64) == {}
        assert hpeval.binomial_diff_fixed(hpeval.log_seq(), [], 64) \
            == (0, [{}], {})

    def test_empty_range_and_k_below_one(self):
        f = hpeval.power_seq(mpc(0, 1))
        assert f.fixed(range(1, 1), 64) == [[]]
        assert hpeval._f_tables(f, 5, 9, 64) == [[0] * 6]
        with pytest.raises(ValueError, match="starts at k = 1, not at 0"):
            hpeval._f_tables(f, 5, 0, 64)

    @settings(max_examples=500, deadline=None)
    @given(rounding_inputs())
    @example((3, 0, 1, 0))      # a tie to prec bits: 3 -> 4
    @example((5, 0, 2, 0))      # a tie to prec bits: 5 -> 4
    @example((1, -1, 8, 0))     # a tie to p bits: 1/2 -> 1
    @example((-1, -1, 8, 0))    # -1/2 -> 0
    @example((-3, -1, 8, 0))    # -3/2 -> -1
    @example((0, 0, 8, 8))
    def test_two_roundings(self, args):
        man, exp, prec, p = args
        x = mp.make_mpf(from_man_exp(man, exp, prec, round_nearest))
        assert hpeval._rounded(man, exp, prec, p) == hpeval._scaled(x, p)

    def test_second_rounding_is_exercised(self):
        # log k >= log 2 > 1/2 keeps at most p fractional bits at p
        # significant bits, so the second rounding of a log entry is exact;
        # entries below 1/2, as k^(-1/3) and the parts of k^i, round twice
        p = 700
        for make, twice in [(hpeval.log_seq, False),
                            (lambda: hpeval.power_seq(Fraction(-1, 3)), True),
                            (lambda: hpeval.power_seq(mpc(0, 1)), True)]:
            f = make()
            values = [f(k, p) for k in range(1, 61)]
            parts = [x for v in values
                     for x in ((v.real, v.imag) if isinstance(v, mpc) else (v,))]
            assert any(hpeval._scaled(x, p + 1) & 1 for x in parts) == twice


class TestNoMpfPerPoint:
    """The dense witnesses read their floats from the integer sums: no
    BigReal, and for the log witness no mpmath call at all."""

    @staticmethod
    def count(monkeypatch):
        made = []

        class Counted(hpeval.BigReal):
            __slots__ = ()

            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(hpeval, "BigReal", Counted)
        return made

    def test_log(self, monkeypatch):
        made = self.count(monkeypatch)
        calls = mpmath_calls(lambda: witness.witness_log(nmax=300))
        assert made == [] and sum(calls.values()) == 0

    def test_powers(self, monkeypatch):
        made = self.count(monkeypatch)
        witness.witness_powers(0.5, nmax=600)
        # the one from Gamma(1/2)
        assert len(made) == 1


class TestWorkCounts:
    @staticmethod
    def counted(f):
        calls = []

        def g(k, prec):
            calls.append(k)
            return f(k, prec)
        return g, calls

    @pytest.mark.parametrize("start", [0, 1, 5])
    def test_one_f_call_per_index(self, start):
        def log1(k, prec):
            with mp.workprec(prec):
                return mpmath.log(k + 1)

        for f in (log1, sqrt_seq):
            g, calls = self.counted(f)
            binomial_diff_grid(g, [30, 100, 400], 64, start=start)
            assert sorted(calls) == list(range(start, 401))

    def test_fast_growing_f_is_evaluated_twice(self):
        # k^3.5 outgrows 256 k^2: its precision comes from the bound
        # formula, so one recomputation meets the target
        g, calls = self.counted(hpeval.power_seq(3.5))
        r = binomial_diff_eval(g, 300, 64)
        assert sorted(calls) == sorted(list(range(1, 301)) * 2)
        assert r.bound <= mpf(2) ** -64
        assert abs(r.value - direct_sum(lambda k: mpf(k) ** 3.5, 300, 1)) <= r.bound

    def test_log_table_calls_no_mpmath_log(self):
        f = hpeval.log_seq()
        p = hpeval._alternating_precision(2450, 64)
        calls = mpmath_calls(lambda: hpeval._f_tables(f, 2450, 1, p))
        assert calls["mpf_log"] == 0 and calls["log"] == 0
        assert calls["mpf_exp"] == 0

    def test_power_table_calls_exp_once_per_prime(self):
        f = hpeval.power_seq(1 / 3)
        p = hpeval._alternating_precision(2450, 64)
        calls = mpmath_calls(lambda: hpeval._f_tables(f, 2450, 1, p))
        assert calls["mpf_exp"] == len(sieve(2450))
        assert calls["mpf_log"] == 0 and calls["log"] == 0

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(2, 3), 3 / 2,
                                       1 / 2, 7 / 2], ids=str)
    def test_rational_power_table_takes_roots(self, alpha, monkeypatch):
        # alpha = a/b with a > 0 and a small b: integer roots, no exp and
        # no log table
        logs = []

        class Spy(hpeval._LogTable):
            def __init__(self, prec, guard):
                logs.append(prec)
                super().__init__(prec, guard)

        monkeypatch.setattr(hpeval, "_LogTable", Spy)
        f = hpeval.power_seq(alpha)
        p = hpeval._alternating_precision(2450, 64)
        calls = mpmath_calls(lambda: hpeval._f_tables(f, 2450, 1, p))
        assert calls["mpf_exp"] == 0 and calls["exp"] == 0
        assert logs == []

    @pytest.mark.parametrize("alpha", [
        Fraction(1, hpeval._ROOT_CAP + 1), Fraction(-1, 3)], ids=str)
    def test_other_rational_powers_take_exp(self, alpha):
        f = hpeval.power_seq(alpha)
        p = hpeval._alternating_precision(700, 64)
        calls = mpmath_calls(lambda: hpeval._f_tables(f, 700, 1, p))
        assert calls["mpf_exp"] == len(sieve(700))

    def test_cap_raises_before_any_f_call(self, monkeypatch):
        monkeypatch.setenv("HOLO_PRECISION_CAP", "128")
        g, calls = self.counted(log_seq)
        with pytest.raises(PrecisionExhausted):
            binomial_diff_eval(g, 1000, 64)
        assert calls == []

    def test_stream_bounds_contain_exact_transform(self):
        rng = random.Random(7)
        N = 120
        terms = [Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
                 for _ in range(N + 1)]
        exact_out = binomial_diff_seq(SequenceStream.exact(terms), N).terms
        with mp.workprec(N + 200):
            fl = [mpf(t.numerator) / t.denominator for t in terms]
        stream = SequenceStream(fl, "float", [mpf(2) ** -(N + 190)] * (N + 1))
        out = binomial_diff_seq(stream, N)
        for n in range(N + 1):
            assert abs(exact(out.terms[n]) - exact_out[n]) <= exact(out.bounds[n])
            assert out.bounds[n] <= mpf(2) ** -64


class TestPowerDiffEval:
    def test_half_n2_by_hand(self):
        r = power_diff_eval(0.5, 2, 64)
        with mp.workprec(80):
            assert abs(r.value - (-2 + mpmath.sqrt(2))) <= r.bound

    def test_half_large_n_asymptotic(self):
        # w_n ~ -(log n)^(-1/2)/Gamma(1/2): the sign-corrected normalization
        # tends to 1 with an O(1/log n) error
        r = power_diff_eval(0.5, 3000, 64)
        with mp.workprec(64):
            rho = -r.value * mpmath.sqrt(mpmath.pi) * mpmath.sqrt(mpmath.log(3000))
        assert abs(float(rho) - 1) < 0.1

    def test_imaginary_alpha_window(self):
        r = power_diff_eval(mpc(0, 1), 500, 64)
        with mp.workprec(64):
            # |Gamma(1-i)| = sqrt(pi/sinh(pi))
            scaled = abs(r.value) * mpmath.sqrt(mpmath.pi / mpmath.sinh(mpmath.pi))
        assert 0.3 <= float(scaled) <= 3

    def test_imaginary_alpha_doubling(self):
        a = power_diff_eval(mpc(0, 1), 200, 64)
        b = power_diff_eval(mpc(0, 1), 200, 128)
        assert abs(a.value - b.value) <= a.bound + b.bound

    @pytest.mark.parametrize("alpha", [mpf("inf"), mpc("inf", 0)],
                             ids=["mpf-inf", "mpc-inf"])
    def test_infinite_alpha_refused(self, alpha):
        # alpha was read as 0: -1.0 with a bound of 2^-80
        with pytest.raises(ValueError, match="inf is not a finite number"):
            power_diff_eval(alpha, 10, 64)


class TestGamma:
    def test_classical_values(self):
        assert abs(gamma(1, 64).value - 1) <= gamma(1, 64).bound
        g5 = gamma(5, 64)
        assert abs(g5.value - 24) <= g5.bound
        gh = gamma(Fraction(1, 2), 64)
        with mp.workprec(96):
            assert abs(gh.value - mpmath.sqrt(mpmath.pi)) <= gh.bound

    def test_functional_equation_grid(self):
        for x in [Fraction(1, 2), Fraction(13, 10), Fraction(27, 10), Fraction(41, 10)]:
            a = gamma(x + 1, 96)
            b = gamma(x, 96)
            with mp.workprec(128):
                lhs = a.value
                rhs = (mpf(x.numerator) / x.denominator) * b.value
                # combined bound: |G(x+1) - x G(x)| within propagated slack
                assert abs(lhs - rhs) <= a.bound + abs(rhs) * (b.bound / abs(b.value)) * 2

    def test_poles(self):
        with pytest.raises(PoleAtNonpositiveInteger):
            gamma(0, 64)
        with pytest.raises(PoleAtNonpositiveInteger):
            gamma(-3, 64)

    def test_within_rounding_of_a_pole(self):
        # x rounds onto -1 at the working precision: a pole, not a division
        # by zero
        with pytest.raises(PoleAtNonpositiveInteger, match="pole at -1"):
            gamma(Fraction(-1) + Fraction(1, 2 ** 200), 64)

    @pytest.mark.parametrize("x, word", [
        (math.nan, "nan"), (math.inf, "inf"), (mpf("-inf"), "-inf")],
        ids=["nan", "inf", "mpf-minus-inf"])
    def test_non_finite_refused(self, x, word):
        with pytest.raises(ValueError, match=f"{word} is not a finite number"):
            gamma(x, 64)

    def test_negative_noninteger(self):
        g = gamma(Fraction(-1, 2), 64)
        with mp.workprec(96):
            # Gamma(-1/2) = -2 sqrt(pi)
            assert abs(g.value - (-2 * mpmath.sqrt(mpmath.pi))) <= g.bound

    @pytest.mark.parametrize("x", [
        Fraction(2, 3), Fraction(1, 3), Fraction(1, 2), Fraction(-1, 2),
        Fraction(-5, 2), Fraction(5, 2)], ids=str)
    @pytest.mark.parametrize("target", [64, 256])
    def test_against_mpmath(self, x, target):
        # Gamma(1 - alpha) at the alphas of the powers witness
        g = gamma(x, target)
        with mp.workprec(target + 128):
            oracle = mpmath.gamma(mpmath_alpha(x))
            assert abs(g.value - oracle) <= g.bound <= mpf(2) ** -target

    def test_doubling(self):
        for x in [Fraction(1, 2), Fraction(7, 3), Fraction(41, 10)]:
            a = gamma(x, 64)
            b = gamma(x, 128)
            assert a.agrees_with(b)

    @staticmethod
    def assert_enclosed(x, target):
        g = gamma(x, target)
        with mp.workprec(800):
            oracle = mpmath.gamma(mpf(x.numerator) / x.denominator)
            assert abs(g.value - oracle) <= g.bound \
                <= mpf(2) ** -target * max(1, abs(g.value))

    @pytest.mark.parametrize("x", [
        Fraction(-1) + Fraction(1, 3 * 2 ** 70), Fraction(2 ** 40) + Fraction(1, 3)],
        ids=["near-a-pole", "large"])
    def test_amplified_errors_counted(self, x):
        # the rounding of x, amplified by |x psi(x)| near the pole -1, and
        # the absolute error of log Gamma at a large x: these bounds did
        # not count them (an error of 2^53.6 against a bound of 2^-8.1, and
        # a relative error of 2^-43 against a relative bound of 2^-81.7);
        # both are now computed again at more bits
        self.assert_enclosed(x, 64)

    def test_seeded_sweep(self):
        rng = random.Random(25)
        for _ in range(60):
            target = rng.choice([53, 64, 128])
            kind = rng.choice(["moderate", "near-a-pole", "large"])
            if kind == "moderate":
                x = Fraction(rng.randint(-400, 400), rng.randint(1, 97))
                if x <= 0 and x.denominator == 1:
                    continue
            elif kind == "near-a-pole":
                # at least 2^-(target+4): x does not round onto the pole
                offset = Fraction(1, rng.randint(2, 9) << rng.randint(8, target))
                x = -rng.randint(0, 12) + rng.choice((-1, 1)) * offset
            else:
                x = (Fraction(1 << rng.randint(8, 60))
                     + Fraction(rng.randint(1, 99), 100))
            self.assert_enclosed(x, target)

    def test_recomputation_respects_the_cap(self, monkeypatch):
        # 2^40 + 1/3 needs about 27 bits more than its first 88
        monkeypatch.setenv("HOLO_PRECISION_CAP", "100")
        with pytest.raises(PrecisionExhausted):
            gamma(Fraction(2 ** 40) + Fraction(1, 3), 64)


class TestLambertW:
    def test_w_of_e(self):
        w = lambert_w(mpmath.e, 64)
        assert abs(w.value - 1) <= w.bound + mpf(2) ** -60

    def test_million_window(self):
        w = lambert_w(10 ** 6, 64)
        x = 10 ** 6
        approx = math.log(x) - math.log(math.log(x))
        assert abs(float(w.value) - approx) <= 1

    def test_defining_equation_residuals(self):
        g = 64
        for k in range(1, 9):
            x = 10 ** k
            w = lambert_w(x, g)
            with mp.workprec(g + 48):
                res = abs(w.value * mpmath.exp(w.value) - x)
                # residual at the scale of x: relative accuracy 2^-(g-2)
                assert res <= mpf(2) ** (-(g - 2)) * x

    def test_doubling(self):
        a = lambert_w(12345, 64)
        b = lambert_w(12345, 128)
        assert a.agrees_with(b)

    def test_domain(self):
        with pytest.raises(ValueError):
            lambert_w(1.0, 64)

    @pytest.mark.parametrize("x", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_refused(self, x):
        with pytest.raises(ValueError, match=f"{x} is not a finite number"):
            lambert_w(x, 64)


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(1) == 1
        assert harmonic(3) == Fraction(11, 6)
        assert 2 * harmonic(2) == 3  # n H_n at n = 2

    def test_against_direct_sum(self):
        direct = sum(Fraction(1, k) for k in range(1, 201))
        assert harmonic(200) == direct

    def test_domain(self):
        with pytest.raises(ValueError):
            harmonic(0)
