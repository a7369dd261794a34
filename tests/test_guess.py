import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from holoseq import guess, witness
from holoseq.annihilators import Recurrence, apply, unroll
from holoseq.guess import InsufficientTerms, guess_exact, guess_float
from holoseq.kernel import Poly
import seqlib


def P(*coeffs):
    return Poly(coeffs)


def catalan_terms(N):
    return [Fraction(math.comb(2 * n, n), n + 1) for n in range(N)]


def primes_list(N):
    sieve_limit = 120 * N
    composite = bytearray(sieve_limit)
    primes = []
    for p in range(2, sieve_limit):
        if not composite[p]:
            primes.append(p)
            if len(primes) == N:
                break
            for q in range(p * p, sieve_limit, p):
                composite[q] = 1
    return primes


class TestGuessExact:
    def test_catalan(self):
        res = guess_exact(catalan_terms(30), 2, 1)
        assert res.found
        # (n+2) c_{n+1} - (4n+2) c_n = 0, up to scaling
        assert res.recurrence == Recurrence([P(2, 1), P(-2, -4)])

    def test_primes_not_found(self):
        res = guess_exact(primes_list(300), 4, 4)
        assert not res.found
        assert (4, 4) in res.provenance["searched"]

    def test_all_zero_degenerate(self):
        res = guess_exact([0] * 120, 2, 1)
        assert res.found
        assert "degenerate_data" in res.provenance
        assert res.recurrence == Recurrence([P(1), P(-1)])

    def test_insufficient_terms(self):
        with pytest.raises(InsufficientTerms):
            guess_exact([1] * 30, 4, 4)

    @pytest.mark.parametrize("box", [(-1, 2), (1, -1), (-1, -1)])
    def test_negative_box_rejected(self, box):
        # an empty box is a usage error, not a NotFound over nothing
        terms = catalan_terms(60)
        with pytest.raises(ValueError, match="nonnegative"):
            guess_exact(terms, *box)
        with pytest.raises(ValueError, match="nonnegative"):
            guess_float(terms, *box, residual_tol=1e-20)

    def test_soundness_certificate(self):
        terms = catalan_terms(40)
        res = guess_exact(terms, 2, 2)
        d = res.recurrence.order
        assert apply(res.recurrence, terms, range(40 - d)) == [0] * (40 - d)

    def test_monotone_in_box(self):
        terms = catalan_terms(40)
        for (r, d) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            assert guess_exact(terms, r, d).found

    def test_minimal_order_preferred(self):
        # n^3 satisfies an order-1 degree-3 recurrence; the order-4
        # constant-coefficient difference operator also kills it, but the
        # scan must return the order-1 certificate first
        terms = [Fraction(n ** 3) for n in range(100)]
        res = guess_exact(terms, 4, 4)
        assert res.found
        assert res.recurrence.order == 1

    def test_fibonacci(self):
        fib = [Fraction(0), Fraction(1)]
        for _ in range(60):
            fib.append(fib[-1] + fib[-2])
        res = guess_exact(fib, 3, 2)
        assert res.found
        assert res.recurrence == Recurrence([P(1), P(-1), P(-1)])

    def test_random_unrolled_recurrences_recovered(self):
        rng = random.Random(71)
        for _ in range(6):
            d = rng.randint(1, 2)
            coeffs = [Poly([rng.randint(1, 3)])]
            for _ in range(d):
                coeffs.append(Poly([rng.randint(-3, 3)
                                    for _ in range(rng.randint(1, 2))]))
            if coeffs[-1].is_zero():
                coeffs[-1] = Poly([2])
            rec = Recurrence(coeffs)
            init = [Fraction(rng.randint(1, 3)) for _ in range(rec.order)]
            terms = unroll(rec, init, 59).terms
            res = guess_exact(terms, 2, 2)
            assert res.found
            dd = res.recurrence.order
            assert apply(res.recurrence, terms, range(60 - dd)) == [0] * (60 - dd)


class TestStreamedFilter:
    """The streamed mod-p echelon against the full-matrix reference in
    seqlib: the same rank on every box up to (4,4), and the same guess."""

    P61 = guess._FILTER_PRIME

    @classmethod
    def inputs(cls):
        p = cls.P61
        rng = random.Random(13)
        harmonic = [Fraction(0)]
        for k in range(1, 80):
            harmonic.append(harmonic[-1] + Fraction(1, k))
        rand = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                for _ in range(80)]
        # denominators that are multiples of the filter prime: every 7th
        # term of random-p, f_5 of hyper-p, and every term of geometric-p
        rand_p = [t / p if k % 7 == 3 else t for k, t in enumerate(rand)]
        return {
            "bell": [Fraction(b) for b in witness.bell_numbers(80)],
            "children-rounds": witness.children_rounds_coefficients(80),
            "harmonic": harmonic,
            "catalan": catalan_terms(80),
            "random": rand,
            "random-p": rand_p,
            "hyper-p": [Fraction(1, p - 5 + n) for n in range(80)],
            "geometric-p": [Fraction(3 ** n, 2 * p) for n in range(80)],
        }

    def streamed_rank(self, terms, r, d):
        p = self.P61
        rows = guess._ansatz_rows(terms, r, d, len(terms) - r)
        return guess._rank_mod_p(([x % p for x in row] for row in rows),
                                 (r + 1) * (d + 1), p)

    def test_rows_are_the_scaled_ansatz(self):
        # row n, column (i, j): n^j f_{n+r-i} times the lcm of the
        # denominators of f_n..f_{n+r}, an integer
        for name, terms in self.inputs().items():
            for r, d in ((0, 0), (1, 2), (4, 4)):
                rows = list(guess._ansatz_rows(terms, r, d, len(terms) - r))
                assert len(rows) == len(terms) - r, (name, r, d)
                for n, row in enumerate(rows):
                    lcm = math.lcm(*[t.denominator for t in terms[n:n + r + 1]])
                    want = [n ** j * terms[n + r - i] * lcm
                            for i in range(r + 1) for j in range(d + 1)]
                    assert all(type(x) is int for x in row), (name, r, d, n)
                    assert row == want, (name, r, d, n)

    def test_rank_equals_full_matrix_rank_on_every_box(self):
        checked = 0
        for name, terms in self.inputs().items():
            for r in range(5):
                for d in range(5):
                    want = seqlib.full_matrix_rank_mod_p(terms, r, d)
                    assert self.streamed_rank(terms, r, d) == want, (name, r, d)
                    checked += 1
        assert checked == 200

    def test_guess_equals_full_matrix_guess(self):
        found = set()
        for name, terms in self.inputs().items():
            res = guess_exact(terms, 4, 4)
            ok, rec, prov = seqlib.full_matrix_guess_exact(terms, 4, 4)
            assert (res.found, res.recurrence, res.provenance) == (ok, rec, prov), name
            if ok:
                found.add(name)
        assert found == {"harmonic", "catalan", "hyper-p", "geometric-p"}

    def test_full_rank_box_reads_few_rows_and_builds_no_integer_matrix(self, monkeypatch):
        # Bell(300) at (4,4): the 25-column system is full rank after about
        # 25 rows of its 296, and no elimination over Z runs
        pulled, eliminated = [0], [0]
        ansatz_rows, nullspace = guess._ansatz_rows, guess.nullspace

        def counted_rows(*args):
            for row in ansatz_rows(*args):
                pulled[0] += 1
                yield row

        def counted_nullspace(*args):
            eliminated[0] += 1
            return nullspace(*args)

        monkeypatch.setattr(guess, "_ansatz_rows", counted_rows)
        monkeypatch.setattr(guess, "nullspace", counted_nullspace)
        res = guess_exact(witness.bell_numbers(300), 4, 4)
        assert not res.found
        assert res.provenance["reason"] == "ansatz system has full column rank"
        assert 25 <= pulled[0] <= 25 + 5
        assert eliminated[0] == 0


class TestGuessFloat:
    def test_reciprocal_sequence(self):
        with mp.workprec(128):
            terms = [mpf(1) / (n + 1) for n in range(80)]
        res = guess_float(terms, 1, 2, residual_tol=1e-25, precision_bits=128)
        assert res.found
        # (n+2) f_{n+1} - (n+1) f_n = 0
        assert res.recurrence == Recurrence([P(2, 1), P(-1, -1)])
        assert res.provenance["residual_stats"]["max_normalized_residual"] <= 1e-25

    def test_log_not_found(self):
        import mpmath
        with mp.workprec(256):
            terms = [mpf(0)] + [mpmath.log(n) for n in range(1, 500)]
        res = guess_float(terms, 4, 4, residual_tol=1e-10, precision_bits=256)
        assert not res.found

    def test_sqrt_not_found(self):
        import mpmath
        with mp.workprec(256):
            terms = [mpmath.sqrt(n) for n in range(500)]
        res = guess_float(terms, 4, 4, residual_tol=1e-10, precision_bits=256)
        assert not res.found

    def test_agreement_with_exact(self):
        exact_terms = catalan_terms(60)
        res_e = guess_exact(exact_terms, 2, 1)
        with mp.workprec(192):
            float_terms = [mpf(t.numerator) / t.denominator for t in exact_terms]
        res_f = guess_float(float_terms, 2, 1, residual_tol=1e-30,
                            precision_bits=192)
        assert res_f.found
        assert res_f.recurrence == res_e.recurrence

    def test_fraction_inputs_accepted(self):
        res = guess_float(catalan_terms(60), 2, 1, residual_tol=1e-30,
                          precision_bits=192)
        assert res.found
        assert res.recurrence == Recurrence([P(2, 1), P(-2, -4)])

    def test_large_denominator_ratio_recovered(self):
        # geometric ratio q+1 : q with a 12-digit q; continued-fraction
        # recovery needs ~2 log2(q) bits beyond float precision, so this
        # exercises the exact mpf-to-rational snap
        q = 999_999_999_989
        ratio = Fraction(q + 1, q)
        with mp.workprec(256):
            terms = []
            t = mpf(1)
            step = mpf(q + 1) / q
            for _ in range(70):
                terms.append(t)
                t = t * step
        res = guess_float(terms, 1, 0, residual_tol=1e-40, precision_bits=256)
        assert res.found
        rec = res.recurrence
        # q f_{n+1} - (q+1) f_n = 0 up to normalization
        assert rec.coeffs[0].coeffs[0] * ratio == -rec.coeffs[1].coeffs[0]

    def test_provenance_box(self):
        with mp.workprec(128):
            terms = [mpf(2) ** n for n in range(60)]
        res = guess_float(terms, 1, 1, residual_tol=1e-20, precision_bits=128)
        assert res.found
        assert res.provenance["held_out"] == 20
