import functools
import hashlib
import json
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
    ode_to_rec,
    rec_to_ode,
    unroll,
)
from holoseq import closure
from holoseq.closure import (
    DegenerateSubstitution,
    _best_annihilator,
    binomial_diff_seq,
    binomial_transform_op,
    closure_hadamard,
    closure_sum,
    multiply_by_ratfun,
    substitute_rational,
)
from holoseq.kernel import Poly, RatFun, _primitive, poly_gcd, rational_roots
from holoseq.series import Series, geometric
from holoseq.formats import operator_to_dict
from seqlib import (_ref_binomial_transform_op, _ref_multiply_by_ratfun,
                    _ref_substitute_rational, full_degree_rec, random_diffop, random_ratfun,
                    random_recurrence, ratfun_shift_vectors, rec_with_free_index,
                    recurrence_solution)


def P(*coeffs):
    return Poly(coeffs)


def fib_rec():
    return Recurrence([P(1), P(-1), P(-1)], initial_terms=[0, 1])


def catalan_rec():
    return Recurrence([P(2, 1), P(-2, -4)], initial_terms=[1])


def central_binomial_rec():
    # (n+1) c_{n+1} - (4n+2) c_n = 0 annihilates binom(2n, n)
    return Recurrence([P(1, 1), P(-2, -4)], initial_terms=[1])


def random_safe_rec(rng, max_order=2):
    """Random recurrence whose leading coefficient has no nonnegative real
    root, so it unrolls indefinitely."""
    d = rng.randint(1, max_order)
    coeffs = [Poly([rng.randint(1, 3) for _ in range(rng.randint(1, 2))])]
    for _ in range(d):
        c = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 2))])
        coeffs.append(c)
    if coeffs[-1].is_zero():
        coeffs[-1] = Poly([1])
    init = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
    return Recurrence(coeffs, initial_terms=init)


# Golden operators as normalized coefficient lists [p_0, ..., p_d], each
# polynomial in ascending powers.  The kernel vector of each free column is
# unique up to a factor in Q(n), and operator normalization removes that
# factor, so every exact eliminator must reproduce these lists.
# GOLDEN_CLOSURES rows: (a, a_init, b, b_init, closure_sum, closure_hadamard),
# shapes 1x1, 2x1, 2x2 at degree 2, and 3x2; the inputs were drawn from
# random.Random(4) and are kept literal.
GOLDEN_CLOSURES = [
    ([[1, 2], [-3, 2]], [0], [[2, 1], [-3, -3]], [-3],
     [[-27, 63, 156, 92, 16], [-36, -258, -328, -168, -32], [135, 279, 60, -132, -48]],
     [[2, 5, 2], [-9, -3, 6]]),
    ([[2, 3], [-1, 3], [3, -3]], [-2, 1], [[3, 2], [-1, 3]], [-2],
     [[-1260, -2201, 293, 1221, 345, 18], [-460, -1524, -517, 1611, 795, 45],
      [-22, 950, 348, -441, 126, 9], [66, -450, 789, 45, -423, -27]],
     [[15, 16, 4], [3, -7, -6], [-3, 12, -9]]),
    ([[1, 2, 1], [-3, 3, 2], [3, -1, 3]], [-1, -2], [[1, 2, 2], [2, 3, 2], [3, 3, -1]],
     [-3, 3],
     [[31590, 73557, 15567, -99470, -96611, 19918, 106862, 107811, 64937, 26024, 6739,
       1010, 66],
      [76230, 254329, 296749, 105556, -7447, 133465, 306067, 308339, 189298, 76354,
       19840, 2997, 198],
      [66375, 254108, 398101, 367219, 340870, 444817, 531656, 452084, 263479, 104337,
       27142, 4215, 297],
      [41220, 156262, 240459, 253606, 335890, 468210, 476893, 338390, 169538, 59158,
       13763, 1954, 132],
      [5805, 37053, 128673, 241722, 299496, 304853, 241485, 127536, 37958, 2419, -2513,
       -888, -99]],
     [[234000, 2081640, 8422028, 20879730, 35753296, 45430999, 45322158, 37163653,
       25714707, 14981454, 7161999, 2709356, 779712, 163112, 23260, 2016, 80],
      [-47400, -1260380, -7675730, -24713909, -51567513, -76592085, -85853080,
       -75699740, -53929001, -31340187, -14736723, -5482340, -1560990, -325264, -46416,
       -4032, -160],
      [162330, 1672845, 8103163, 24186829, 50026632, 76460877, 90150006, 84513786,
       64023564, 39219022, 19203931, 7378866, 2173359, 474936, 72860, 7024, 320],
      [410350, 1909445, 3513840, 1837827, -5657824, -16711824, -24868768, -24928522,
       -17659853, -8546620, -2363057, 38535, 349533, 157736, 36464, 4528, 240],
      [1186650, 6164955, 15558960, 26331963, 33809219, 34315389, 27304293, 16206677,
       6300775, 784179, -774029, -552687, -152661, -4082, 8963, 2256, 180]]),
    ([[3, 2], [2], [1, -2], [-2, -2]], [0, -1, -3], [[3, 2], [-3, -1], [1, 2]], [-1, 3],
     [[170100, 666693, 1006427, 809904, 377174, 101212, 14456, 848],
      [-62020, -201680, -345433, -318381, -163406, -46890, -7016, -424],
      [-21790, -12662, 29602, 42778, 22148, 5068, 424],
      [-60104, -220090, -335047, -276737, -133394, -38362, -6168, -424],
      [120282, 371525, 410213, 197746, 28252, -10460, -4260, -424],
      [-63572, -310822, -576688, -540714, -282880, -83940, -13184, -848]],
     [[370664910, -221976153, -2911202805, -4648257586, -2832125072, 236819416,
       1568212316, 1200578968, 510106420, 138834328, 24823584, 2833088, 187712, 5504],
      [487948860, 501654762, -1103117100, -2559520910, -2143062260, -843293904,
       -65475904, 88068104, 44264248, 10411272, 1370224, 96096, 2752],
      [300538980, 651669012, 353611373, 87007102, 879232805, 1965998366, 2084778564,
       1339834612, 568368804, 163644300, 31779548, 3995496, 294096, 9632],
      [239467020, 25588094, -1009948022, -871605980, 1351705856, 3323111946, 3214918186,
       1863924004, 714597584, 186442352, 32883816, 3762496, 252600, 7568],
      [246894570, 323328201, -357380321, -878507230, -294499856, 668092044, 984212092,
       683014560, 297467956, 86907816, 17116624, 2188400, 164320, 5504],
      [54400680, 285174864, 693323286, 1160049816, 1500398430, 1475289180, 1064721120,
       554506840, 206790280, 54617544, 9975944, 1199664, 85600, 2752],
      [-11121840, -49486272, -9269428, 356425000, 1008318916, 1432816888, 1271256736,
       757775760, 312356528, 89412880, 17463792, 2220640, 165696, 5504]]),
]

GOLDEN_TRANSFORMS = [
    ([[1], [-1], [-1]], [0, 1], [[1], [-1], [-1]]),
    ([[2, 3], [-1, 3], [3, -3]], [-2, 1],
     [[256, 160, 24], [-1014, -765, -141], [1346, 1193, 276], [-672, -744, -204],
      [90, 135, 45]]),
    ([[1, 2, 1], [-3, 3, 2], [3, -1, 3]], [-1, -2],
     [[80, 56, 13, 1], [-304, -216, -47, -3], [419, 229, 21, -3], [27, 237, 163, 29],
      [-288, -492, -258, -42], [108, 198, 108, 18]]),
]

GOLDEN_SUBSTITUTIONS = [
    ([[1, -1], [-1]], [[-1, 1], [-1]]),
    ([[1, 0, -1], [0, -3], [2]], [[-1, 4, -5, 2], [2, -3, 1], [-2]]),
    ([[1, 2], [0, 1, 1], [3, 0, 1], [1]],
     [[1, -8, 25, -40, 35, -16, 3], [-6, 43, -112, 137, -80, 18], [9, -44, 82, -64, 18],
      [-1]]),
]


class TestBestAnnihilator:
    def test_prefers_lowest_shift_then_order_then_size(self):
        # dependencies over S^0, S^1, S^2: u_{n+1} = u_n refers to u_n;
        # (n+1) u_{n+2} = u_{n+1} does not and would be re-based
        lowest = [P(-1), P(1), Poly()]
        rebased = [Poly(), P(-1), P(1, 1)]
        order2 = [P(-1), P(0), P(1)]
        bigger = [P(-12345), P(12344), Poly()]
        for basis in ([rebased, lowest], [order2, lowest], [bigger, lowest]):
            assert _best_annihilator(basis) == Recurrence([P(1), P(-1)])
        assert _best_annihilator([rebased]) == Recurrence([P(0, 1), P(-1)])

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            _best_annihilator([])


class TestClosureSum:
    def test_one_plus_two_pow(self):
        a = Recurrence([P(1), P(-1)], initial_terms=[1])
        b = Recurrence([P(1), P(-2)], initial_terms=[1])
        rec = closure_sum(a, b)
        assert rec.order <= 2
        terms = [1 + 2 ** n for n in range(201 + rec.order)]
        assert apply(rec, SequenceStream.exact(terms), range(201)) == [0] * 201

    def test_doubling(self):
        a = Recurrence([P(1), P(-1)], initial_terms=[1])
        rec = closure_sum(a, a)
        assert rec.order <= 2
        assert apply(rec, SequenceStream.exact([2] * 60), range(50)) == [0] * 50

    def test_fibonacci_plus_catalan(self):
        rec = closure_sum(fib_rec(), catalan_rec())
        assert rec.order <= 3
        fib = [0, 1]
        for _ in range(210):
            fib.append(fib[-1] + fib[-2])
        cat = [Fraction(math.comb(2 * n, n), n + 1) for n in range(212)]
        terms = [f + c for f, c in zip(fib, cat)]
        assert apply(rec, SequenceStream.exact(terms), range(200)) == [0] * 200

    def test_initial_terms_attached(self):
        rec = closure_sum(fib_rec(), catalan_rec())
        assert rec.initial_terms is not None
        assert rec.initial_terms[0] == 1  # fib_0 + catalan_0

    def test_order_bound_random(self):
        rng = random.Random(17)
        for _ in range(10):
            a = random_safe_rec(rng)
            b = random_safe_rec(rng)
            rec = closure_sum(a, b)
            assert rec.order <= a.order + b.order
            ua = unroll(a, a.initial_terms, 205).terms
            ub = unroll(b, b.initial_terms, 205).terms
            terms = [x + y for x, y in zip(ua, ub)]
            res = apply(rec, SequenceStream.exact(terms), range(200 - rec.order))
            assert all(r == 0 for r in res)

    def test_one_order_zero_operand(self):
        # (n + 1)(n + 3) v_n = 0 has no root n >= 0, so v = 0; the search
        # needs the shifts up to order(a) + 1, as the product's does
        a, b = Recurrence([P(2), P(-9, 10, -3)]), Recurrence([P(3, 4, 1)])
        assert closure_sum(a, b) == a
        assert closure_sum(b, a) == a
        assert closure_hadamard(a, b) == closure_hadamard(b, a) == Recurrence([P(1)])

    def test_two_order_zero_operands(self):
        b, c = Recurrence([P(3, 4, 1)]), Recurrence([P(3, 1)])
        assert closure_sum(b, b) == Recurrence([P(1)])
        assert closure_sum(b, c) == Recurrence([P(1)])
        with pytest.raises(LeadingCoefficientZero):
            closure_sum(b, Recurrence([P(0, 2, 1)]))

    def test_order_zero_operand_with_a_root_refuses(self):
        # n (n + 2) v_n = 0 leaves v_0 free: u + v with v_0 = 1 breaks
        # `a` at n = 0, so neither closure may return `a` or w = 0
        a, b = Recurrence([P(2), P(-9, 10, -3)]), Recurrence([P(0, 2, 1)])
        u = unroll(a, [1], 3).terms
        assert apply(a, SequenceStream.exact([u[0] + 1] + u[1:]), range(1)) != [0]
        for op in (closure_sum, closure_hadamard):
            for x, y in [(a, b), (b, a)]:
                with pytest.raises(LeadingCoefficientZero) as err:
                    op(x, y)
                assert err.value.n == 0

    def test_free_values_at_roots_of_p0(self):
        # 2n u_{n+1} + n(n-1) u_n = 0 leaves u_1 free, and n(n+2) v_{n+1} +
        # 2 v_n = 0 leaves v_1 free; the closures must hold from n = 0 on,
        # so their common factor n stays
        a = Recurrence([P(0, 2), P(0, -1, 1)])
        b = Recurrence([P(0, 2, 1), P(2)])
        u = [Fraction(1), Fraction(1)] + [Fraction(0)] * 10
        v = [Fraction(0), Fraction(1)]
        for n in range(1, 11):
            v.append(-2 * v[n] / (n * (n + 2)))
        assert apply(a, u, range(11)) == [0] * 11 and apply(b, v, range(11)) == [0] * 11
        for x, y in ((a, b), (b, a)):
            assert apply(closure_sum(x, y), [p + q for p, q in zip(u, v)], range(8)) == [0] * 8
            assert apply(closure_hadamard(x, y), [p * q for p, q in zip(u, v)],
                         range(8)) == [0] * 8

    def test_order_zero_operand_with_initial_terms(self):
        # (n + 3) v_n = 0 has no root n >= 0, so v = 0 and u + v = u
        a = Recurrence([P(2), P(-9, 10, -3)], initial_terms=[5])
        z = Recurrence([P(3, 1)], initial_terms=[])
        for x, y in [(a, z), (z, a)]:
            rec = closure_sum(x, y)
            assert rec == a
            assert rec.initial_terms == (5, Fraction(45, 2))

    def test_order_zero_operand_vanishing_with_initial_terms(self):
        # no initial terms fix v at a root of p_0, whether the closure's
        # initial terms reach it (n = 0) or not (n = 10)
        a = Recurrence([P(2), P(-9, 10, -3)], initial_terms=[5])
        for root in (0, 10):
            z = Recurrence([P(-root, 1)], initial_terms=[])
            for op in (closure_sum, closure_hadamard):
                for x, y in [(a, z), (z, a)]:
                    with pytest.raises(LeadingCoefficientZero) as err:
                        op(x, y)
                    assert err.value.n == root


class TestClosureHadamard:
    def test_central_binomial_squared(self):
        rec = closure_hadamard(central_binomial_rec(), central_binomial_rec())
        assert rec.order <= 1
        terms = [Fraction(math.comb(2 * n, n)) ** 2 for n in range(102)]
        assert apply(rec, SequenceStream.exact(terms), range(100)) == [0] * 100

    def test_ones_identity(self):
        ones = Recurrence([P(1), P(-1)], initial_terms=[1])
        rec = closure_hadamard(catalan_rec(), ones)
        cat = unroll(catalan_rec(), [1], 120).terms
        res = apply(rec, SequenceStream.exact(cat), range(100))
        assert all(r == 0 for r in res)

    def test_factorial_times_reciprocal(self):
        fact = Recurrence([P(1), P(-1, -1)], initial_terms=[1])
        recip = Recurrence([P(1, 1), P(-1)], initial_terms=[1])
        rec = closure_hadamard(fact, recip)
        assert apply(rec, SequenceStream.exact([1] * 40), range(30)) == [0] * 30

    def test_order_bound_random(self):
        rng = random.Random(29)
        for _ in range(8):
            a = random_safe_rec(rng)
            b = random_safe_rec(rng)
            rec = closure_hadamard(a, b)
            assert rec.order <= max(a.order, 1) * max(b.order, 1)
            ua = unroll(a, a.initial_terms, 205).terms
            ub = unroll(b, b.initial_terms, 205).terms
            terms = [x * y for x, y in zip(ua, ub)]
            res = apply(rec, SequenceStream.exact(terms), range(200 - rec.order))
            assert all(r == 0 for r in res)


def _shift_vector_recs():
    """Random recurrences of order 0..3, and ones whose leading coefficient
    vanishes at n = 0, 1, 2 or 3."""
    rng = random.Random(61)
    recs = [random_recurrence(rng) for _ in range(40)]
    for j in range(4):
        for _ in range(3):
            rec = random_recurrence(rng)
            recs.append(Recurrence([P(-j, 1) * rec.coeffs[0], *rec.coeffs[1:]]))
    return recs


class TestShiftVectors:
    """`_shift_vectors` gives S^k u as Poly numerators over the known
    denominator; the Q(n) reference is `seqlib.ratfun_shift_vectors`."""

    def test_matches_ratfun_reference(self):
        shapes = set()
        for i, rec in enumerate(_shift_vector_recs()):
            K = 9 - i % 10  # K < order included
            shapes.add((rec.order, K < rec.order))
            got, want = closure._shift_vectors(rec, K), ratfun_shift_vectors(rec, K)
            assert len(got) == len(want) == K + 1
            for (num, den), ref in zip(got, want):
                assert all(isinstance(c, Poly) for c in num)
                assert [RatFun(c, den) for c in num] == ref
        assert {r for r, _ in shapes} == {0, 1, 2, 3} and (3, True) in shapes

    def test_denominator_closed_form(self):
        for rec in _shift_vector_recs():
            r, p0 = rec.order, rec.coeffs[0]
            for k, (_, den) in enumerate(closure._shift_vectors(rec, 6)):
                want = Poly([1])
                for j in range(k - r + 1 if r else 0):
                    want = want * p0.shift_arg(j)
                assert den == want


def _order3_pairs():
    """Order-3 recurrence pairs of degree 1 and 2: coefficients in [-9, 9]
    from random.Random(3), each polynomial's last coefficient set to 1 if
    drawn 0, the pair of degree 1 drawn first."""
    rng = random.Random(3)

    def rec(degree):
        polys = []
        for _ in range(4):
            c = [rng.randint(-9, 9) for _ in range(degree + 1)]
            if c[-1] == 0:
                c[-1] = 1
            polys.append(Poly(c))
        return Recurrence(polys)
    return {d: (rec(d), rec(d)) for d in (1, 2)}


def _digest(op):
    text = json.dumps(operator_to_dict(op), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestClosureCore:
    """Both recurrence closures run `_closure` on Poly columns and give the
    operators the Q(n) elimination gave."""

    @pytest.fixture
    def columns(self, monkeypatch):
        seen = []
        real = closure._dependencies

        def spy(vecs):
            seen.append(vecs)
            return real(vecs)
        monkeypatch.setattr(closure, "_dependencies", spy)
        return seen

    def test_columns_are_polys(self, columns):
        rng = random.Random(62)
        recs = [_rec(row[0], row[1]) for row in GOLDEN_CLOSURES]
        recs += [rec for rec in (Recurrence(random_recurrence(rng).coeffs)
                                 for _ in range(20)) if rec.order][:10]
        for a, b in zip(recs, recs[1:]):
            closure_sum(a, b)
            closure_hadamard(a, b)
        closure_hadamard(Recurrence([P(2, 1)]), recs[0])
        # (n - 2) v_n = 0 leaves v_2 free: refused before any elimination
        with pytest.raises(LeadingCoefficientZero):
            closure_hadamard(Recurrence([P(-2, 1)]), recs[0])
        assert len(columns) == 2 * (len(recs) - 1) + 1
        for vecs in columns:
            assert all(isinstance(c, Poly) for v in vecs for c in v)

    def test_cancel_over_known_denominator(self):
        # kernel._primitive up to the content, which Recurrence normalises,
        # times the factors (n - r) of the common factor with an integer
        # root r >= 0, whenever the common factor divides den
        rng = random.Random(63)
        for i in range(60):
            f = Poly([Fraction(rng.randint(1, 5), rng.randint(1, 3))])
            for _ in range(i % 3):
                f = f * P(rng.randint(-3, 3), rng.randint(1, 2))
            den = f * random_recurrence(rng).coeffs[0]
            v = list(random_recurrence(rng).coeffs)
            v[rng.randrange(len(v))] = Poly()
            if all(p.is_zero() for p in v):
                continue
            c = [p * f for p in _primitive(v)]
            got = closure._cancel_over(c, den)
            keep = Poly([1])
            for x in rational_roots(functools.reduce(poly_gcd, c)):
                if x.denominator == 1 and x >= 0:
                    keep = keep * P(-x, 1)
            assert Recurrence(got) == Recurrence([p * keep for p in _primitive(c)])

    def test_solution_oracle(self):
        # operands whose p_0 vanishes at some n >= 0, with solutions that
        # take random free values there: both closures, in both operand
        # orders, annihilate the combined solution from n = 0 on
        rng = random.Random(5)
        for _ in range(8):
            a, b = rec_with_free_index(rng), rec_with_free_index(rng)
            u, v = recurrence_solution(a, 24, rng), recurrence_solution(b, 24, rng)
            for x, y in ((a, b), (b, a)):
                w = [p + q for p, q in zip(u, v)]
                assert apply(closure_sum(x, y), w, range(8)) == [0] * 8
                w = [p * q for p, q in zip(u, v)]
                assert apply(closure_hadamard(x, y), w, range(8)) == [0] * 8

    @pytest.mark.parametrize("degree, want_had, want_sum",
                             [(1, "40d436fb964cc276", "5f6f0d99af56577b"),
                              (2, "1623dc4fd2a48237", "6aedae50cc0328ef")])
    def test_order3_digests(self, degree, want_had, want_sum):
        a, b = _order3_pairs()[degree]
        assert _digest(closure_hadamard(a, b)) == want_had
        assert _digest(closure_sum(a, b)) == want_sum


class TestBinomialDiffSeq:
    def test_ones(self):
        # (1-1)^n collapses: first term 1, everything else 0
        out = binomial_diff_seq(SequenceStream.exact([1] * 10), 9)
        assert out.terms == [1] + [0] * 9

    def test_linear(self):
        out = binomial_diff_seq(SequenceStream.exact(list(range(10))), 9)
        assert out.terms == [0, -1] + [0] * 8

    def test_involution_random(self):
        rng = random.Random(41)
        for _ in range(50):
            terms = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                     for _ in range(60)]
            s = SequenceStream.exact(terms)
            twice = binomial_diff_seq(binomial_diff_seq(s, 59), 59)
            assert twice.terms == terms

    def test_start_index_flag(self):
        terms = [Fraction(5), Fraction(2), Fraction(7)]
        with_zero = binomial_diff_seq(SequenceStream.exact(terms), 2)
        without = binomial_diff_seq(SequenceStream.exact(terms), 2,
                                    include_zero_term=False)
        # they differ exactly by binom(n,0) f_0 = f_0
        assert [a - b for a, b in zip(with_zero.terms, without.terms)] == [5, 5, 5]

    def test_float_mode_delegation(self):
        # log-sequence stream at n = 2: the transform is log 2
        import math
        import mpmath
        from mpmath import mp, mpf
        with mp.workprec(120):
            terms = [mpf(0)] + [mpmath.log(k) for k in range(1, 4)]
            stream = SequenceStream(terms, "float", [mpf(2) ** -110] * 4)
        out = binomial_diff_seq(stream, 2, target_bits=64)
        assert out.mode == "float"
        assert abs(float(out.terms[2]) - math.log(2)) < 1e-15
        assert all(b <= 2.0 ** -64 for b in map(float, out.bounds))

    def test_gf_identity_vs_series_composition(self):
        # coefficients of (1/(1-z)) f(-z/(1-z)) equal the transform exactly
        N = 40
        rng = random.Random(53)
        for _ in range(5):
            rec = random_safe_rec(rng)
            terms = unroll(rec, rec.initial_terms, N).terms
            f = Series(terms, N)
            inner = Series([0] + [-1] * (N - 1), N)  # -z/(1-z)
            composed = f.compose(inner) * geometric(N)
            transformed = binomial_diff_seq(SequenceStream.exact(terms), N - 1)
            assert composed.coeffs == transformed.terms[:N]


class TestSubstituteRational:
    def test_geometric_substitution(self):
        # (1-z) y' - y annihilates 1/(1-z); composed with -w/(1-w) the
        # solution is 1 - w, and the new operator must kill it
        ode = DiffOp([P(1, -1), P(-1)])
        rho = RatFun(P(0, -1), P(1, -1))
        sub = substitute_rational(ode, rho)
        res = apply_diffop_to_series(sub, Series([1, -1], 50))
        assert all(c == 0 for c in res.coeffs)

    def test_identity_substitution(self):
        ode = DiffOp([P(1, -1), P(-1)])
        sub = substitute_rational(ode, RatFun(P(0, 1)))
        assert sub == ode

    def test_constants_stay_annihilated(self):
        ode = DiffOp([P(1), Poly()])  # y' = 0
        rho = RatFun(P(0, 0, 3), P(1, 1))
        sub = substitute_rational(ode, rho)
        res = apply_diffop_to_series(sub, Series([7], 30))
        assert all(c == 0 for c in res.coeffs)

    def test_degenerate_rejected(self):
        ode = DiffOp([P(1), P(-1)])
        with pytest.raises(DegenerateSubstitution):
            substitute_rational(ode, RatFun(P(5)))

    def test_series_composition_certificate(self):
        # exp ODE composed with w^2/(1 - w): check on truncated series
        N = 50
        ode = DiffOp([P(1), P(-1)])  # y' - y, solution e^z
        rho = RatFun(P(0, 0, 1), P(1, -1))
        sub = substitute_rational(ode, rho)
        # series of exp(rho(w))
        from fractions import Fraction as F
        expo = Series([F(1, math.factorial(k)) for k in range(N)], N)
        inner = Series([0, 0] + [1] * (N - 2), N)  # w^2/(1-w)
        comp = expo.compose(inner)
        res = apply_diffop_to_series(sub, comp)
        checkable = N - sub.order - sub.degree
        assert all(c == 0 for c in res.coeffs[:checkable])


class TestMultiplyByRatfun:
    def test_times_geometric(self):
        # y' = 0 (constants); (1/(1-w)) * 1 = geometric series
        ode = DiffOp([P(1), Poly()])
        mult = multiply_by_ratfun(ode, RatFun(P(1), P(1, -1)))
        res = apply_diffop_to_series(mult, geometric(40))
        assert all(c == 0 for c in res.coeffs[:35])


class TestBinomialTransformOp:
    def test_ones(self):
        ones = Recurrence([P(1), P(-1)], initial_terms=[1])
        rec = binomial_transform_op(ones)
        target = [1] + [0] * 30
        res = apply(rec, SequenceStream.exact(target), range(25))
        assert all(r == 0 for r in res)

    def test_linear(self):
        lin = Recurrence([P(1), P(-2), P(1)], initial_terms=[0, 1])
        rec = binomial_transform_op(lin)
        target = [0, -1] + [0] * 30
        res = apply(rec, SequenceStream.exact(target), range(25))
        assert all(r == 0 for r in res)

    def test_fibonacci_certified(self):
        rec = binomial_transform_op(fib_rec())
        fib = [Fraction(0), Fraction(1)]
        for _ in range(150):
            fib.append(fib[-1] + fib[-2])
        transformed = binomial_diff_seq(SequenceStream.exact(fib), 110)
        res = apply(rec, transformed, range(100))
        assert all(r == 0 for r in res)

    def test_solution_oracle(self):
        # recurrences whose p_0 vanishes at some n >= 0, with solutions that
        # take random free values there: the rec_to_ode/ode_to_rec round
        # trip annihilates the solution, and the transform operator its
        # binomial transform, from n = 0 on
        rng = random.Random(5)
        for _ in range(10):
            a = rec_with_free_index(rng)
            u = recurrence_solution(a, 40, rng)
            rec = Recurrence(a.coeffs, initial_terms=u[:a.order])
            back = ode_to_rec(rec_to_ode(rec))
            assert apply(back, u, range(40 - back.order)) == [0] * (40 - back.order)
            op = binomial_transform_op(rec)
            g = binomial_diff_seq(u, 39)
            assert apply(op, g, range(40 - op.order)) == [0] * (40 - op.order)


def _rec(coeffs, init=None):
    return Recurrence([Poly(c) for c in coeffs], initial_terms=init)


def _coeff_lists(op):
    return [list(p.coeffs) for p in op.coeffs]


class TestGoldenOperators:
    @pytest.mark.parametrize("a, a_init, b, b_init, want_sum, want_had", GOLDEN_CLOSURES,
                             ids=["1x1", "2x1", "2x2-deg2", "3x2"])
    def test_closures(self, a, a_init, b, b_init, want_sum, want_had):
        ra, rb = _rec(a, a_init), _rec(b, b_init)
        assert _coeff_lists(closure_sum(ra, rb)) == want_sum
        assert _coeff_lists(closure_hadamard(ra, rb)) == want_had

    @pytest.mark.parametrize("rec, init, want", GOLDEN_TRANSFORMS,
                             ids=["fibonacci", "order2-deg1", "order2-deg2"])
    def test_binomial_transform_op(self, rec, init, want):
        assert _coeff_lists(binomial_transform_op(_rec(rec, init))) == want

    @pytest.mark.parametrize("ode, want", GOLDEN_SUBSTITUTIONS,
                             ids=["order1", "order2", "order3"])
    def test_substitute_rational(self, ode, want):
        rho = RatFun(P(0, -1), P(1, -1))  # -w/(1-w)
        sub = substitute_rational(DiffOp([Poly(c) for c in ode]), rho)
        assert _coeff_lists(sub) == want


class TestComposeCore:
    """`_compose` against the reference constructions on seeded random
    inputs; `_dependencies` must see exactly one dependency every time."""

    N_RANDOM = 200

    @pytest.fixture
    def nullities(self, monkeypatch):
        """Sizes of the bases `_compose` sees, recorded by a spy that also
        checks that every column entry is a Poly; the `(v,) =` unpack would
        raise on any other size than 1."""
        counts = []
        real = closure._dependencies

        def spy(vecs):
            assert all(isinstance(c, Poly) for v in vecs for c in v)
            basis = real(vecs)
            counts.append(len(basis))
            return basis
        monkeypatch.setattr(closure, "_dependencies", spy)
        return counts

    def test_substitution_matches_reference(self, nullities):
        rng = random.Random(81)
        orders = set()
        for _ in range(self.N_RANDOM):
            ode = DiffOp(random_diffop(rng))
            rho = random_ratfun(rng, nonconstant=True)
            orders.add(ode.order)
            assert substitute_rational(ode, rho).coeffs == \
                _ref_substitute_rational(ode, rho).coeffs
        assert orders == {0, 1, 2, 3}
        assert len(nullities) > 100 and set(nullities) == {1}

    def test_multiplication_matches_leibniz_reference(self, nullities):
        rng = random.Random(82)
        orders = set()
        for _ in range(self.N_RANDOM):
            ode = DiffOp(random_diffop(rng))
            r = random_ratfun(rng, pole=True)
            orders.add(ode.order)
            assert multiply_by_ratfun(ode, r).coeffs == \
                _ref_multiply_by_ratfun(ode, r).coeffs
        assert orders == {0, 1, 2, 3}
        assert len(nullities) > 100 and set(nullities) == {1}

    def test_transform_matches_two_stage_reference(self, nullities):
        rng = random.Random(83)
        for i in range(self.N_RANDOM):
            rec = full_degree_rec(rng, 1 + i % 3)
            assert binomial_transform_op(rec).coeffs == \
                _ref_binomial_transform_op(rec).coeffs
        assert nullities == [1] * self.N_RANDOM

    def test_composition_of_both(self, nullities):
        # r * (y o rho) with nonconstant rho and r with poles at once
        rng = random.Random(84)
        for _ in range(50):
            ode = DiffOp(random_diffop(rng))
            rho = random_ratfun(rng, nonconstant=True)
            r = random_ratfun(rng, pole=True)
            want = _ref_multiply_by_ratfun(_ref_substitute_rational(ode, rho), r)
            got = closure._compose(ode, (rho.num, rho.den), (r.num, r.den))
            assert got.coeffs == want.coeffs
        assert set(nullities) == {1}

    @pytest.mark.parametrize("ode", [[P(1), P(-1)], [P(2, 1)]], ids=["order1", "order0"])
    def test_zero_multiplier_rejected(self, ode):
        with pytest.raises(ValueError, match="zero function"):
            multiply_by_ratfun(DiffOp(ode), RatFun(0))
