import math
import random
from fractions import Fraction

import pytest

from holoseq.annihilators import (
    DiffOp,
    LeadingCoefficientZero,
    Recurrence,
    SequenceStream,
    apply,
    apply_diffop_to_series,
    from_theta_slices,
    ode_to_rec,
    rec_to_ode,
    singular_points,
    theta_slices,
    unroll,
)
from holoseq.kernel import Poly, poly_gcd
from holoseq.series import Series
import seqlib
from seqlib import random_diffop, random_recurrence


def P(*coeffs):
    return Poly(coeffs)


def catalan_rec():
    # (n+2) c_{n+1} - (4n+2) c_n = 0
    return Recurrence([P(2, 1), P(-2, -4)], initial_terms=[1])


def catalan_terms(N):
    return [Fraction(math.comb(2 * n, n), n + 1) for n in range(N)]


class TestUnroll:
    def test_constant_sequence(self):
        rec = Recurrence([P(1), P(-1)])
        assert unroll(rec, [1], 5).terms == [1, 1, 1, 1, 1, 1]

    def test_catalan_oracle(self):
        # oracle: binom(2n, n)/(n+1) computed directly
        s = unroll(catalan_rec(), [1], 4)
        assert s.terms == [1, 1, 2, 5, 14]
        assert s.terms == catalan_terms(5)

    def test_leading_coefficient_zero(self):
        # (n-3) f_{n+1} - f_n = 0 breaks at n = 3
        rec = Recurrence([P(-3, 1), P(-1)])
        with pytest.raises(LeadingCoefficientZero) as e:
            unroll(rec, [1], 5)
        assert e.value.n == 3

    def test_deterministic(self):
        rec = catalan_rec()
        a = unroll(rec, [1], 50).terms
        b = unroll(rec, [1], 50).terms
        assert a == b


class TestApply:
    def test_constant_rec_on_ones(self):
        rec = Recurrence([P(1), P(-1)])
        assert apply(rec, SequenceStream.exact([1] * 10), range(8)) == [0] * 8

    def test_catalan_rec_on_catalan(self):
        res = apply(catalan_rec(), SequenceStream.exact(catalan_terms(101)), range(100))
        assert res == [0] * 100

    def test_catalan_rec_on_primes_nonzero(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        res = apply(catalan_rec(), SequenceStream.exact(primes), range(10))
        assert any(r != 0 for r in res)

    def test_negative_index_rejected(self):
        # f_{n+1} = 2 f_n on 2^k: n = -1 would read f_{-1} as the last term
        rec = Recurrence([P(1), P(-2)])
        terms = [2 ** k for k in range(6)]
        assert apply(rec, terms, range(0, 5)) == [0] * 5
        with pytest.raises(ValueError, match="negative"):
            apply(rec, terms, range(-1, 3))

    @staticmethod
    def same(got, want):
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]

    def test_agrees_with_fraction_sum(self):
        rng = random.Random(29)
        for _ in range(30):
            rec = random_recurrence(rng)
            n_terms = rec.order + 25
            ints = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(n_terms)]
            # unrelated denominators: random, primes, and products of both
            fracs = [Fraction(rng.randint(-10 ** 20, 10 ** 20),
                              rng.choice([1, rng.randint(1, 10 ** 12),
                                          (1 << 61) - 1, 3 * 5 * 7 * 11]))
                     for _ in range(n_terms)]
            for terms in (ints, fracs, [Fraction(t) for t in ints]):
                self.same(apply(rec, terms, range(25)),
                          seqlib.fraction_apply(rec, terms, range(25)))
                self.same(apply(rec, SequenceStream.exact(terms), range(3, 20)),
                          seqlib.fraction_apply(rec, terms, range(3, 20)))

    def test_every_coefficient_vanishing_gives_int_zero(self):
        # (n-2) f_{n+1} + (n-2)(n-3) f_n: both vanish at n = 2
        rec = Recurrence([P(-2, 1), P(6, -5, 1)])
        terms = [Fraction(1, k + 2) for k in range(8)]
        got = apply(rec, terms, range(6))
        self.same(got, seqlib.fraction_apply(rec, terms, range(6)))
        assert type(got[2]) is int and got[2] == 0
        assert all(type(x) is Fraction for k, x in enumerate(got) if k != 2)

    def test_zero_terms_give_fraction_zero(self):
        rec = Recurrence([P(1, 1), P(-1)])
        self.same(apply(rec, [0] * 6, range(4)), [Fraction(0)] * 4)


class TestRecToOde:
    def test_geometric(self):
        # f_{n+1} - f_n = 0 with f_0 = 1 -> (1-z) y' - y = 0 (up to sign)
        rec = Recurrence([P(1), P(-1)], initial_terms=[1])
        ode = rec_to_ode(rec)
        assert ode == DiffOp([P(1, -1), P(-1)])

    def test_factorial_order_two_certified(self):
        # f_{n+1} = (n+1) f_n: classic operator z^2 y'' + (3z-1) y' + y
        rec = Recurrence([P(1), P(-1, -1)], initial_terms=[1])
        ode = rec_to_ode(rec)
        assert ode.order == 2
        terms = unroll(rec, [1], 52).terms
        res = apply_diffop_to_series(ode, Series(terms, 53))
        assert all(c == 0 for c in res.coeffs[:50])

    def test_zero_order(self):
        rec = Recurrence([P(1)], initial_terms=[])
        ode = rec_to_ode(rec)
        assert ode.order == 0 and ode.coeffs == (P(1),)

    def test_series_residual_random(self):
        rng = random.Random(23)
        for _ in range(10):
            d = rng.randint(1, 2)
            coeffs = []
            for i in range(d + 1):
                c = [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
                coeffs.append(Poly(c))
            if coeffs[0].is_zero() or coeffs[-1].is_zero():
                continue
            # leading coefficient must not vanish at nonnegative integers
            coeffs[0] = Poly([abs(c) + 1 for c in coeffs[0].coeffs])
            init = [rng.randint(-2, 2) for _ in range(d)]
            rec = Recurrence(coeffs, initial_terms=init)
            if rec.order != d:
                continue
            terms = unroll(rec, init, 60).terms
            ode = rec_to_ode(rec)
            res = apply_diffop_to_series(ode, Series(terms, 61))
            checkable = 61 - ode.order - ode.degree
            assert all(c == 0 for c in res.coeffs[:checkable])


class TestOdeToRec:
    def test_exponential(self):
        # y' - y = 0 -> (n+1) f_{n+1} - f_n = 0
        ode = DiffOp([P(1), P(-1)])
        rec = ode_to_rec(ode)
        assert rec.coeffs == (P(1, 1), P(-1))

    def test_geometric_inverse(self):
        ode = DiffOp([P(1, -1), P(-1)])
        rec = ode_to_rec(ode)
        assert rec.coeffs == (P(1), P(-1))

    def test_catalan_round_trip(self):
        rec = catalan_rec()
        ode = rec_to_ode(rec)
        back = ode_to_rec(ode)
        terms = unroll(rec, [1], back.order + 110)
        assert apply(back, terms, range(100)) == [0] * 100

    def test_round_trip_random(self):
        rng = random.Random(5)
        done = 0
        while done < 8:
            d = rng.randint(1, 2)
            coeffs = [Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 2))])
                      for _ in range(d + 1)]
            if coeffs[-1].is_zero():
                continue
            coeffs[0] = Poly([abs(c) + 1 for c in coeffs[0].coeffs])
            init = [rng.randint(-2, 2) for _ in range(d)]
            rec = Recurrence(coeffs, initial_terms=init)
            if rec.order != d:
                continue
            back = ode_to_rec(rec_to_ode(rec))
            terms = unroll(rec, init, back.order + 105)
            assert apply(back, terms, range(100)) == [0] * 100
            done += 1


class TestSingularPoints:
    def test_single_point(self):
        ode = DiffOp([P(1, -1), P(-1)])
        sp = singular_points(ode)
        assert sp.locations() == [Fraction(1)]
        assert sp.nonrational_degree == 0

    def test_entire(self):
        ode = DiffOp([P(1), P(-1)])
        assert singular_points(ode).rational == []

    def test_two_points(self):
        ode = DiffOp([P(0, 1, -4), P(1)])
        sp = singular_points(ode)
        assert sp.locations() == [Fraction(0), Fraction(1, 4)]

    def test_count_bounded_by_degree(self):
        rng = random.Random(9)
        for _ in range(10):
            q0 = Poly([rng.randint(-5, 5) for _ in range(rng.randint(2, 6))])
            if q0.is_zero() or q0.degree < 1:
                continue
            ode = DiffOp([q0, P(1)])
            sp = singular_points(ode)
            n_roots = sum(m for _, m in sp.rational) + sp.nonrational_degree
            assert n_roots <= ode.coeffs[0].degree

    def test_nonrational_reported_by_degree(self):
        ode = DiffOp([P(1, 0, 1), P(1)])  # z^2 + 1
        sp = singular_points(ode)
        assert sp.rational == [] and sp.nonrational_degree == 2


class TestNormalization:
    def test_scalar_content_and_sign(self):
        rec = Recurrence([P(0, -2), P(-4)])
        assert rec.coeffs == (P(0, 1), P(2))

    def test_leading_zero_trim(self):
        rec = Recurrence([Poly(), P(1), P(-1)])
        assert rec.order == 1

    def test_reduced_keeps_nonnegative_integer_roots(self):
        # common factor (n-3) must not be divided out
        f = P(-3, 1)
        rec = Recurrence([f * P(1), f * P(-1)])
        assert rec.reduced().coeffs == rec.coeffs
        # but (n+1) is safe to remove
        g = P(1, 1)
        rec2 = Recurrence([g * P(1), g * P(-1)])
        assert rec2.reduced().coeffs == (P(1), P(-1))


# ---------------------------------------------------------------------------
# Reference constructions for the Euler-form core: the routes rec_to_ode,
# ode_to_rec and DiffOp took before they shared theta_slices,
# from_theta_slices and kernel._primitive.  They are the oracles below.
# ---------------------------------------------------------------------------

def _ref_stirling2_table(nmax):
    S = [[0] * (nmax + 1) for _ in range(nmax + 1)]
    S[0][0] = 1
    for a in range(1, nmax + 1):
        for k in range(1, a + 1):
            S[a][k] = k * S[a - 1][k] + S[a - 1][k - 1]
    return S


def _ref_theta_to_std(theta_coeffs):
    # sum_a A_a(z) theta^a -> [coefficient of D^k], one Poly product per term
    amax = len(theta_coeffs) - 1
    S = _ref_stirling2_table(amax)
    std = [Poly() for _ in range(amax + 1)]
    zpow = [Poly([0] * k + [1]) for k in range(amax + 1)]
    for a, A in enumerate(theta_coeffs):
        if A.is_zero():
            continue
        for k in range(a + 1):
            if S[a][k]:
                std[k] = std[k] + A * zpow[k] * S[a][k]
    while len(std) > 1 and std[-1].is_zero():
        std.pop()
    return std


def _ref_rec_to_ode(rec):
    d = rec.order
    init = rec.initial_terms
    maxdeg = max(p.degree for p in rec.coeffs)
    theta_coeffs = [Poly() for _ in range(maxdeg + 1)]
    for i, p in enumerate(rec.coeffs):
        shifted = p.shift_arg(-(d - i))
        zi = Poly([0] * i + [1])
        for a, c in enumerate(shifted.coeffs):
            if c != 0:
                theta_coeffs[a] = theta_coeffs[a] + zi * c
    std = _ref_theta_to_std(theta_coeffs)
    R = Poly()
    for i, p in enumerate(rec.coeffs):
        for m in range(d - i):
            c = p(Fraction(m - d + i)) * init[m]
            if c != 0:
                R = R + Poly([0] * (m + i) + [c])
    if not R.is_zero():
        # R' L - R (D L), with D L = sum_k (A_k' D^k + A_k D^(k+1))
        hom = [Poly() for _ in range(len(std) + 1)]
        for k, A in enumerate(std):
            hom[k] = hom[k] + R.derivative() * A - R * A.derivative()
            hom[k + 1] = hom[k + 1] - R * A
        std = hom
        while len(std) > 1 and std[-1].is_zero():
            std.pop()
    return DiffOp(list(reversed(std)))


def _ref_ode_to_rec(ode):
    # z^j D^m contributes (n-j+1)...(n-j+m) f_{n+m-j} at z^n
    e = ode.order
    contrib = {}
    for k, q in enumerate(ode.coeffs):
        m = e - k
        for j, c in enumerate(q.coeffs):
            if c == 0:
                continue
            P_ = Poly([c])
            for i in range(1, m + 1):
                P_ = P_ * Poly([i - j, 1])
            contrib[m - j] = contrib.get(m - j, Poly()) + P_
    contrib = {t: P_ for t, P_ in contrib.items() if not P_.is_zero()}
    t_min, t_max = min(contrib), max(contrib)
    return Recurrence([contrib.get(t, Poly()).shift_arg(-t_min)
                       for t in range(t_max, t_min - 1, -1)]).reduced()


def _ref_diffop_coeffs(qs):
    # gcd of the coefficients, then the rational content, then the sign
    qs = list(qs)
    while qs and qs[0].is_zero():
        qs.pop(0)
    g = qs[0]
    for p in qs[1:]:
        g = poly_gcd(g, p)
        if g.degree < 1:
            break
    if g.degree >= 1:
        qs = [p.exact_div(g) for p in qs]
    c = Poly([c for p in qs for c in p.coeffs]).content()
    qs = [p * (1 / c) for p in qs]
    if qs[0].leading() < 0:
        qs = [-p for p in qs]
    return tuple(qs)


class TestEulerFormCore:
    N_RANDOM = 240

    def test_known_slices(self):
        # z^2 y'' + z y' - y = theta^2 - 1, so z^2 L = z^2 (theta^2 - 1);
        # y' - y: z (y' - y) = theta - z
        assert theta_slices([P(0, 0, 1), P(0, 1), P(-1)]) == {2: P(-1, 0, 1)}
        assert theta_slices([P(1), P(-1)]) == {0: P(0, 1), 1: P(-1)}
        assert from_theta_slices({0: P(0, 1), 1: P(-1)}) == [P(0, -1), P(0, 1)]

    def test_stirling_expansion(self):
        # theta^3 = z D + 3 z^2 D^2 + z^3 D^3
        assert from_theta_slices({0: P(0, 0, 0, 1)}) == [
            Poly(), P(0, 1), P(0, 0, 3), P(0, 0, 0, 1)]

    def test_round_trip_is_z_to_the_order(self):
        rng = random.Random(71)
        for _ in range(self.N_RANDOM):
            ode = DiffOp(random_diffop(rng))
            e = ode.order
            std = from_theta_slices(theta_slices(ode.coeffs))
            ze = Poly([0] * e + [1])
            assert std == [ze * ode.coeffs[e - k] for k in range(e + 1)]

    def test_order_zero(self):
        ode = DiffOp([P(3, 1)])
        assert theta_slices(ode.coeffs) == {0: P(1)}
        assert ode_to_rec(ode) == _ref_ode_to_rec(ode) == Recurrence([P(1)])
        # (n + 2) f_n = 0 is (theta + 2) y = z y' + 2 y = 0
        rec = Recurrence([P(2, 1)], initial_terms=[])
        assert rec_to_ode(rec) == _ref_rec_to_ode(rec) == DiffOp([P(0, 1), P(2)])

    def test_rec_to_ode_matches_stirling_reference(self):
        rng = random.Random(72)
        orders = set()
        for _ in range(self.N_RANDOM):
            rec = random_recurrence(rng)
            orders.add(rec.order)
            assert rec_to_ode(rec).coeffs == _ref_rec_to_ode(rec).coeffs
        assert orders == {0, 1, 2, 3}

    def test_ode_to_rec_matches_product_loop_reference(self):
        rng = random.Random(73)
        orders = set()
        for _ in range(self.N_RANDOM):
            ode = DiffOp(random_diffop(rng))
            orders.add(ode.order)
            assert ode_to_rec(ode).coeffs == _ref_ode_to_rec(ode).coeffs
        assert orders == {0, 1, 2, 3}

    def test_middle_zero_coefficients(self):
        # f_{n+2} - f_n with p_1 = 0, and y'' - z y with a zero D-coefficient
        rec = Recurrence([P(1, 1), Poly(), P(-1)], initial_terms=[1, Fraction(1, 2)])
        assert rec_to_ode(rec).coeffs == _ref_rec_to_ode(rec).coeffs
        ode = DiffOp([P(1), Poly(), P(0, -1)])
        assert ode_to_rec(ode).coeffs == _ref_ode_to_rec(ode).coeffs

    def test_diffop_normal_form_matches_reference(self):
        rng = random.Random(74)
        for _ in range(self.N_RANDOM):
            qs = random_diffop(rng)
            assert DiffOp(qs).coeffs == _ref_diffop_coeffs(qs)
