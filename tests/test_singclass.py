import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest
from mpmath import mpc, mpf

from holoseq import singclass
from holoseq.annihilators import DiffOp
from holoseq.kernel import Poly, rational_roots
from holoseq.singclass import (
    INFINITY,
    NonRationalPoint,
    classify_point,
    forbidden_asymptotics_check,
    forbidden_scale,
    indicial_polynomial,
    local_operator,
    newton_polygon,
)
from seqlib import (random_diffop, reference_classify_point, reference_indicial,
                    reference_local_operator, reference_newton)


def P(*coeffs):
    return Poly(coeffs)


@dataclass
class Scale:
    alpha: object
    beta: object
    gamma: object


# the five canonical operators checked against hand-derived local data
def log_op():
    # (1-z) y'' - y'   (solution log(1/(1-z)) at z = 1)
    return DiffOp([P(1, -1), P(-1), Poly()])


def euler_op():
    # z^2 y'' + z y' - y   (solutions z and 1/z)
    return DiffOp([P(0, 0, 1), P(0, 1), P(-1)])


def exp_op():
    # y' - y
    return DiffOp([P(1), P(-1)])


def cosh_op():
    # y'' - y  (ordinary at 0)
    return DiffOp([P(1), Poly(), P(-1)])


def airy_op():
    # y'' - z y
    return DiffOp([P(1), Poly(), P(0, -1)])


class TestIndicialPolynomial:
    def test_log_operator_at_one(self):
        # local form -t theta^2: indicial theta^2
        assert indicial_polynomial(log_op(), 1) == P(0, 0, 1)

    def test_euler_at_zero(self):
        # theta^2 - 1
        assert indicial_polynomial(euler_op(), 0) == P(-1, 0, 1)

    def test_ordinary_point_falling_factorial(self):
        # theta (theta - 1)
        ind = indicial_polynomial(cosh_op(), 0)
        assert ind == Poly([0, 1]) * Poly([-1, 1])

    def test_z_y2_plus_y1(self):
        # z y'' + y' has theta-form t^{-1} theta^2
        ode = DiffOp([P(0, 1), P(1), Poly()])
        assert indicial_polynomial(ode, 0) == P(0, 0, 1)


class TestNewtonPolygon:
    def test_regular_singular_single_zero_slope(self):
        assert newton_polygon(euler_op(), 0) == [(Fraction(0), 2)]

    def test_exp_at_infinity(self):
        slopes = newton_polygon(exp_op(), INFINITY)
        assert slopes == [(Fraction(1), 1)]

    def test_airy_at_infinity(self):
        slopes = newton_polygon(airy_op(), INFINITY)
        assert slopes == [(Fraction(3, 2), 2)]

    def test_log_operator(self):
        assert all(s == 0 for s, _ in newton_polygon(log_op(), 1))


class TestClassifyPoint:
    def test_log_operator_report(self):
        rep = classify_point(log_op(), 1)
        assert rep.kind == "regular_singular"
        assert rep.indicial_exponents == [(Fraction(0), 2)]
        assert rep.log_degree_bound == 1
        assert rep.log_flag == "certain"
        assert rep.ramification == 1

    def test_euler_report(self):
        rep = classify_point(euler_op(), 0)
        assert rep.kind == "regular_singular"
        assert rep.indicial_exponents == [(Fraction(-1), 1), (Fraction(1), 1)]
        # roots differ by an integer: logs possible, not certain
        assert rep.log_flag == "possible"

    def test_exp_at_infinity_irregular(self):
        rep = classify_point(exp_op(), INFINITY)
        assert rep.kind == "irregular"
        assert rep.newton_slopes == [(Fraction(1), 1)]
        assert rep.ramification == 1
        assert rep.exp_part_degree == 1

    def test_ordinary(self):
        rep = classify_point(cosh_op(), 0)
        assert rep.kind == "ordinary"
        assert rep.indicial_exponents == [(Fraction(0), 1), (Fraction(1), 1)]
        assert rep.log_degree_bound == 0

    def test_airy_at_infinity(self):
        rep = classify_point(airy_op(), INFINITY)
        assert rep.kind == "irregular"
        assert rep.newton_slopes == [(Fraction(3, 2), 2)]
        assert rep.ramification == 2
        assert rep.exp_part_degree == 3

    def test_airy_finite_points_ordinary(self):
        rep = classify_point(airy_op(), 0)
        assert rep.kind == "ordinary"

    def test_exponent_count_at_regular_singular(self):
        for ode, z0 in [(log_op(), 1), (euler_op(), 0)]:
            rep = classify_point(ode, z0)
            total = sum(m for _, m in rep.indicial_exponents)
            total += sum(d for _, d in rep.nonrational_indicial)
            assert total == rep.operator_order

    def test_shift_invariance(self):
        rng = random.Random(13)
        for _ in range(8):
            coeffs = [Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
                      for _ in range(3)]
            if coeffs[0].is_zero():
                coeffs[0] = P(1, 1)
            ode = DiffOp(coeffs)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            shifted = DiffOp([q.shift_arg(c) for q in ode.coeffs])
            a = classify_point(shifted, 0)
            b = classify_point(ode, c)
            assert (a.kind, a.indicial_exponents, a.log_degree_bound,
                    a.newton_slopes, a.ramification, a.exp_part_degree) == \
                   (b.kind, b.indicial_exponents, b.log_degree_bound,
                    b.newton_slopes, b.ramification, b.exp_part_degree)

    def test_fuchs_indicial_consistency_random(self):
        rng = random.Random(31)
        for _ in range(20):
            e = rng.randint(1, 3)
            coeffs = [Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
                      for _ in range(e + 1)]
            if coeffs[0].is_zero():
                coeffs[0] = P(0, 1)
            ode = DiffOp(coeffs)
            for z0 in [0, 1, INFINITY]:
                slopes = newton_polygon(ode, z0)
                ind = indicial_polynomial(ode, z0)
                assert (all(s == 0 for s, _ in slopes)) == (ind.degree == ode.order)

    def test_nonrational_point_rejected(self):
        with pytest.raises(NonRationalPoint):
            classify_point(euler_op(), "sqrt2")

    @pytest.mark.parametrize("z0, at", [
        (mpf(0), 0), (mpf(-1) / 4, Fraction(-1, 4))], ids=["mpf-0", "mpf-quarter"])
    def test_mpf_point_is_rational(self, z0, at):
        # an mpf point was refused as an algebraic point of degree > 1
        assert classify_point(euler_op(), z0) == classify_point(euler_op(), at)

    def test_complex_point_rejected(self):
        with pytest.raises(NonRationalPoint):
            classify_point(euler_op(), mpc(0, 1))

    def test_singular_points_classify_consistently(self):
        # every rational root of the leading coefficient classifies as
        # non-ordinary, and every other small rational point as ordinary
        from holoseq.annihilators import singular_points
        rng = random.Random(47)
        for _ in range(10):
            q0 = Poly([rng.randint(-3, 3) for _ in range(rng.randint(2, 4))])
            if q0.degree < 1:
                continue
            ode = DiffOp([q0, P(1), P(rng.randint(-2, 2))])
            sp = singular_points(ode)
            roots = set(sp.locations())
            for r in roots:
                assert classify_point(ode, r).kind != "ordinary"
            for x in [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]:
                if x not in roots:
                    assert classify_point(ode, x).kind == "ordinary"

    @pytest.mark.parametrize("p, q", [
        (2 ** 42 - 143, 2 ** 42 - 215),  # 84-bit product
        (2 ** 46 - 63, 2 ** 46 - 77),    # 92-bit product
    ], ids=["84-bit", "92-bit"])
    def test_semiprime_indicial_without_factoring(self, p, q):
        # z^2 y'' + z y' + N y at 0 has indicial theta^2 + N; with N = p q
        # for primes p, q near 2^42 or 2^46, factoring N took over 1 s
        N = p * q
        ode = DiffOp([P(0, 0, 1), P(0, 1), P(N)])
        t0 = time.perf_counter()
        rep = classify_point(ode, 0)
        assert time.perf_counter() - t0 < 1.0
        assert rep.kind == "regular_singular"
        assert rep.indicial_exponents == []
        assert rep.nonrational_indicial == [((N, 0, 1), 2)]
        assert (rep.log_degree_bound, rep.log_flag) == (0, "possible")


class TestForbiddenAsymptotics:
    def test_iterated_log_always_incompatible(self):
        for ode, z0 in [(log_op(), 1), (euler_op(), 0), (cosh_op(), 0)]:
            rep = classify_point(ode, z0)
            v = forbidden_asymptotics_check(rep, Scale(-1, 0, 1))
            assert v.verdict == "incompatible"

    def test_fractional_log_power_incompatible(self):
        rep = classify_point(euler_op(), 0)
        v = forbidden_asymptotics_check(rep, Scale(0, Fraction(-1, 2), 0))
        assert v.verdict == "incompatible"

    def test_within_log_bound_compatible(self):
        # theta^3 at a point: triple root 0 gives log bound 2
        ode = DiffOp([P(0, 0, 1), P(0, 3), P(1), Poly()])
        rep = classify_point(ode, 0)
        assert rep.log_degree_bound >= 2
        v = forbidden_asymptotics_check(rep, Scale(0, 2, 0))
        assert v.verdict == "compatible"

    def test_beyond_log_bound_incompatible(self):
        rep = classify_point(log_op(), 1)  # bound 1
        v = forbidden_asymptotics_check(rep, Scale(0, 2, 0))
        assert v.verdict == "incompatible"

    @pytest.mark.parametrize("scale, why", [
        (Scale(-1, 0, 1), "iterated logarithms"),
        (Scale(0, Fraction(-1, 2), 0), "log power -1/2 is not"),
        (Scale(0, -1, 0), "log power -1 is not"),
        (Scale(0, 1j, 0), "log power 1j is not"),
        (Scale(0, mpf(0.5), 0), "log power 0.5 is not"),
        (Scale(0, mpc(1, 1), 0), "log power (1.0 + 1.0j) is not"),
        (Scale(0, 2, 0), None),
    ], ids=["loglog", "half", "negative", "complex", "mpf-half", "mpc",
            "integer"])
    def test_forbidden_scale_is_the_check_without_a_report(self, scale, why):
        # the rules that read no operator: the check gives their reason at
        # every point, and forbidden_scale gives it without a report
        reason = forbidden_scale(scale)
        assert (reason is None) == (why is None)
        if why is not None:
            assert reason.startswith(why)
            for ode, z0 in [(log_op(), 1), (euler_op(), 0)]:
                v = forbidden_asymptotics_check(classify_point(ode, z0), scale)
                assert (v.verdict, v.reason) == ("incompatible", reason)

    @pytest.mark.parametrize("scale, slot", [
        (Scale(mpf(0), mpf(0), 0), (Fraction(-1), 0)),
        (Scale(-0.5, 0, 0), None),
        (Scale(1j, 0, 0), None),
    ], ids=["mpf", "no-exponent", "complex-alpha"])
    def test_slot_from_the_read_scale(self, scale, slot):
        v = forbidden_asymptotics_check(classify_point(euler_op(), 0), scale)
        assert (v.verdict, v.matching_slot) == ("compatible", slot)

    @pytest.mark.parametrize("scale", [
        Scale(float("nan"), 0, 0), Scale(0, float("inf"), 0)], ids=["nan", "inf"])
    def test_non_finite_scale_refused(self, scale):
        with pytest.raises(ValueError, match="is not a finite number"):
            forbidden_asymptotics_check(classify_point(euler_op(), 0), scale)

    def test_matching_slot_named(self):
        # scale (0, 0, 0) matches exponent -1 when present
        rep = classify_point(euler_op(), 0)
        v = forbidden_asymptotics_check(rep, Scale(0, 0, 0))
        assert v.verdict == "compatible"
        assert v.matching_slot == (Fraction(-1), 0)


def _ref_local_at_infinity(ode):
    """z = 1/w by iterating D_z = -w^2 D_w, then w^J a_m(1/w) with J the
    largest coefficient degree: the route local_operator took before it
    went through the Euler form."""
    e = ode.order
    a = [ode.coeffs[e - m] for m in range(e + 1)]  # a_m multiplies D_z^m
    reps = [[Poly([1])]]  # D_z^m as sum_j b_j(w) D_w^j
    w2 = Poly([0, 0, 1])
    for _ in range(e):
        prev = reps[-1]
        nxt = [Poly() for _ in range(len(prev) + 1)]
        for j, b in enumerate(prev):
            nxt[j] = nxt[j] - w2 * b.derivative()
            nxt[j + 1] = nxt[j + 1] - w2 * b
        reps.append(nxt)
    J = max(p.degree for p in a if not p.is_zero())
    out = [Poly() for _ in range(e + 1)]
    for m, am in enumerate(a):
        if am.is_zero():
            continue
        rev = am.reversed(J)
        for j, b in enumerate(reps[m]):
            out[j] = out[j] + rev * b
    while len(out) > 1 and out[-1].is_zero():
        out.pop()
    return DiffOp(list(reversed(out)))


class TestLocalOperatorAtInfinity:
    def test_known(self):
        # y' - y at infinity: t = 1/z, -t^2 y_t - y
        assert local_operator(exp_op(), INFINITY) == DiffOp([P(0, 0, 1), P(1)])
        # z^2 y'' + z y' - y is theta^2 - 1, invariant under theta -> -theta
        assert local_operator(euler_op(), INFINITY) == euler_op()

    def test_matches_iterated_reference(self):
        rng = random.Random(81)
        orders = set()
        for _ in range(240):
            ode = DiffOp(random_diffop(rng))
            orders.add(ode.order)
            assert local_operator(ode, INFINITY).coeffs == \
                _ref_local_at_infinity(ode).coeffs
        assert orders == {0, 1, 2, 3}

    def test_classification_matches_reference(self):
        # the report at infinity equals the report at 0 of the reference
        # local operator, which is already written in t = 1/z
        rng = random.Random(82)
        for _ in range(200):
            ode = DiffOp(random_diffop(rng))
            got = classify_point(ode, INFINITY).to_dict()
            want = classify_point(_ref_local_at_infinity(ode), 0).to_dict()
            got.pop("location"), want.pop("location")
            assert got == want


def _points(ode, rng):
    """Every rational root of q_0, two rational points where q_0 does not
    vanish, and infinity."""
    roots = set(rational_roots(ode.coeffs[0]))
    points = sorted(roots)
    while len(points) < len(roots) + 2:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if x not in roots and x not in points:
            points.append(x)
    return points + [INFINITY]


class TestOneLocalPicture:
    """Every reader goes through `singclass._local`, unnormalised; the
    parent's normalised route is the reference in `seqlib`."""

    def test_matches_normalised_reference(self):
        rng = random.Random(171)
        orders, kinds, shared_t = set(), set(), 0
        for _ in range(150):
            ode = DiffOp(random_diffop(rng, max_order=4, max_degree=4))
            orders.add(ode.order)
            for z0 in _points(ode, rng):
                ref = reference_local_operator(ode, z0)
                assert local_operator(ode, z0) == ref
                assert newton_polygon(ode, z0) == reference_newton(ref)
                assert indicial_polynomial(ode, z0) == reference_indicial(ref)
                got = classify_point(ode, z0)
                assert got.to_dict() == reference_classify_point(ode, z0).to_dict()
                kinds.add(got.kind)
                qs = singclass._local(ode, z0)[0]
                shared_t += min(q.valuation() for q in qs if not q.is_zero()) > 0
        assert orders == {0, 1, 2, 3, 4}
        assert kinds == {"ordinary", "regular_singular", "irregular"}
        assert shared_t > 0

    def test_ordinary_at_infinity_with_shared_t(self):
        # z^2 y' + y at infinity is -t y_t + t y raw, y_t - y normalised
        ode = DiffOp([P(0, 0, 1), P(1)])
        assert singclass._local(ode, INFINITY)[0] == [P(0, -1), P(0, 1)]
        assert local_operator(ode, INFINITY) == DiffOp([P(1), P(-1)])
        rep = classify_point(ode, INFINITY)
        assert rep.to_dict() == reference_classify_point(ode, INFINITY).to_dict()
        assert rep.kind == "ordinary"
        assert (rep.log_degree_bound, rep.log_flag) == (0, "none")

    def test_classify_reads_one_euler_form_and_builds_no_diffop(self, monkeypatch):
        odes = [log_op(), euler_op(), exp_op(), airy_op(), DiffOp([P(0, 0, 1), P(1)])]
        calls = []
        real = singclass.theta_slices

        def spy(qs):
            calls.append(qs)
            return real(qs)

        def no_diffop(self, coeffs):
            raise AssertionError("classify_point built a DiffOp")
        monkeypatch.setattr(singclass, "theta_slices", spy)
        monkeypatch.setattr(DiffOp, "__init__", no_diffop)
        for ode in odes:
            for z0 in (0, 1, Fraction(1, 2), INFINITY):
                calls.clear()
                classify_point(ode, z0)
                assert len(calls) == 1
