import ast
import functools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpc, mpf
from seqlib import FieldRatFun, FractionPoly, fraction_poly_gcd, random_rational_poly

from holoseq.kernel import (
    Poly,
    RatFun,
    nullspace,
    poly_arith,
    poly_gcd,
    rational_roots,
    rational_roots_and_cofactor,
    read_number,
    read_real,
)
from holoseq.hpeval import BigReal

SRC = Path(__file__).resolve().parent.parent / "src" / "holoseq"


def P(*coeffs):
    return Poly(coeffs)


def _fraction_rank(m):
    """Independent rank oracle: plain Gaussian elimination over Fraction."""
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rank + 1, nrows):
            c = m[i][col]
            if c:
                m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class TestPolyArith:
    def test_mul_expands(self):
        # (1+n)(1-n) = 1 - n^2
        assert poly_arith(P(1, 1), P(1, -1), "mul") == P(1, 0, -1)

    def test_additive_inverse(self):
        p = P(3, -2, 7)
        assert poly_arith(p, -p, "add") == Poly()

    def test_shift_arg_binomial(self):
        # n^2 at n+1 -> n^2 + 2n + 1
        assert poly_arith(P(0, 0, 1), 1, "shift_arg") == P(1, 2, 1)

    def test_shift_arg_rational(self):
        p = P(2, 0, 3)
        c = Fraction(1, 2)
        q = p.shift_arg(c)
        for x in [Fraction(0), Fraction(1), Fraction(-3, 2)]:
            assert q(x) == p(x + c)

    def test_product_evaluation_agrees(self):
        rng = random.Random(7)
        pts = [Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5), Fraction(-7, 2)]
        for _ in range(25):
            a = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(rng.randint(1, 6))])
            b = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(rng.randint(1, 6))])
            ab = a * b
            for x in pts:
                assert ab(x) == a(x) * b(x)

    def test_divmod_roundtrip(self):
        a = P(1, 2, 0, 5, 1)
        b = P(-1, 1)
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_gcd(self):
        a = P(-1, 1) * P(2, 1)
        b = P(-1, 1) * P(3, 0, 1)
        assert poly_gcd(a, b) == P(-1, 1)

    def test_pow(self):
        assert P(1, 1) ** 3 == P(1, 3, 3, 1)


def _pairs(seed, count, maxdeg=8):
    """Seeded (Poly, FractionPoly) pairs with the same coefficients."""
    rng = random.Random(seed)
    for _ in range(count):
        cs = random_rational_poly(rng, maxdeg)
        yield Poly(cs), FractionPoly(cs), rng


class TestPolyAgainstFractionOracle:
    """The integral form against Fraction-tuple arithmetic and Euclid over
    Q, on seeded random rational polynomials."""

    def test_ring_operations(self):
        for (a, ra, rng), (b, rb, _) in zip(_pairs(1, 150), _pairs(2, 150)):
            assert (a + b).coeffs == (ra + rb).coeffs
            assert (a - b).coeffs == (ra - rb).coeffs
            assert (a * b).coeffs == (ra * rb).coeffs
            c = Fraction(rng.randint(-99, 99), rng.randint(1, 30))
            assert (a * c).coeffs == (ra * c).coeffs
            assert (c * a).coeffs == (ra * c).coeffs
            assert (a + 3).coeffs == (ra + FractionPoly([3])).coeffs

    def test_divmod(self):
        for (a, ra, _), (b, rb, _) in zip(_pairs(3, 150, 10), _pairs(4, 150, 5)):
            if b.is_zero():
                with pytest.raises(ZeroDivisionError):
                    a.divmod(b)
                continue
            q, r = a.divmod(b)
            rq, rr = ra.divmod(rb)
            assert (q.coeffs, r.coeffs) == (rq.coeffs, rr.coeffs)
            assert q * b + r == a
            assert r.degree < b.degree
            assert (a * b).exact_div(b) == a
            if r:
                with pytest.raises(ValueError):
                    a.exact_div(b)

    def test_content_primitive_monic_shift_derivative(self):
        for a, ra, rng in _pairs(5, 200):
            assert a.derivative().coeffs == ra.derivative().coeffs
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert a.shift_arg(c).coeffs == ra.shift_arg(c).coeffs
            assert a.shift_arg(-2).coeffs == ra.shift_arg(-2).coeffs
            if a.is_zero():
                assert a.content() == 0 and a.primitive() == a == a.monic()
                continue
            assert a.content() == ra.content()
            assert a.primitive().coeffs == ra.primitive().coeffs
            assert a.primitive() * a.content() in (a, -a)
            assert a.monic().coeffs == ra.monic().coeffs
            assert a.leading() == ra.coeffs[-1]

    def test_evaluation(self):
        with mp.workprec(120):
            for (a, ra, rng), (b, rb, _) in zip(_pairs(6, 150), _pairs(7, 150, 3)):
                n = rng.randint(-50, 50)
                x = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
                m = mpf(rng.random()) * 7 - 3
                assert a(n) == ra(Fraction(n))
                assert a(x) == ra(x)
                assert a(m) == ra(m)
                assert a(b).coeffs == ra(rb).coeffs

    def test_gcd(self):
        rng = random.Random(8)
        for _ in range(120):
            g = random_rational_poly(rng, 3, bits=8)
            cs = [random_rational_poly(rng, 5, bits=8) for _ in range(2)]
            a, b = (Poly(c) * Poly(g) for c in cs)
            ra, rb = (FractionPoly(c) * FractionPoly(g) for c in cs)
            assert poly_gcd(a, b).coeffs == fraction_poly_gcd(ra, rb).coeffs
            assert poly_gcd(b, a) == poly_gcd(a, b)

    def test_one_form_per_polynomial(self):
        # equal Polys from every construction route have equal fields and
        # hashes, and a Poly rebuilt from its coefficients is itself
        for (a, ra, _), (b, rb, _) in zip(_pairs(9, 150), _pairs(10, 150)):
            for p in (a, a * b, a + b, a - b, a.derivative(),
                      a.shift_arg(Fraction(1, 3))):
                assert Poly(p.coeffs) == p
                assert hash(Poly(p.coeffs)) == hash(p)
                assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
                assert not p.nums or p.nums[-1] != 0
            assert a * b == b * a and hash(a * b) == hash(b * a)
            assert Poly([*a.coeffs, 0, 0]) == a
        assert Poly([Fraction(2, 4), 1]) == Poly([Fraction(1, 2), Fraction(3, 3)])
        assert hash(P(2, 4) * Fraction(1, 2)) == hash(P(1, 2))
        assert Poly() == Poly([0, Fraction(0)]) == P(1, 1) - P(1, 1)
        assert (Poly().nums, Poly().den) == ((), 1)


class TestRatFun:
    def test_reduction_and_monic_denominator(self):
        r = RatFun(P(0, 2, 2), P(0, 0, 4))  # (2n+2n^2)/(4n^2) = (1+n)/(2n)
        assert r.num == P(Fraction(1, 2), Fraction(1, 2))
        assert r.den == P(0, 1)

    def test_field_ops(self):
        # on the test-only Q(x) type; RatFun itself has no arithmetic
        n = FieldRatFun(P(0, 1))
        r = (n + 1) / n - 1 / n
        assert r == RatFun(1)
        assert not hasattr(RatFun, "__add__") and not hasattr(RatFun, "__mul__")

    def test_derivative(self):
        # d/dn (1/n) = -1/n^2
        r = FieldRatFun(1, P(0, 1)).derivative()
        assert r == RatFun(-1, P(0, 0, 1))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFun(P(1), Poly())


class TestNullspace:
    def test_rank_one(self):
        basis = nullspace([[1, 1], [2, 2]])
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + v[1] == 0 and v != [0, 0]

    def test_full_rank_identity(self):
        assert nullspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []

    def test_single_ratfun_relation(self):
        n = Poly([0, 1])
        basis = nullspace([[n, n * n]])
        assert len(basis) == 1
        v = basis[0]
        # span{(n, -1)} up to scaling
        assert v[0] == -v[1] * n and v[1].degree == 0

    def test_mv_zero_exact_random(self):
        rng = random.Random(11)
        for _ in range(60):
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 7)
            # small range forces plenty of zeros into pivot columns
            m = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                  for _ in range(cols)] for _ in range(rows)]
            basis = nullspace(m)
            for v in basis:
                for row in m:
                    assert sum(a * b for a, b in zip(row, v)) == 0
            # nullity check against a plain Fraction-arithmetic rank oracle
            rank = _fraction_rank([row[:] for row in m])
            assert len(basis) == cols - rank

    def test_dimension_counts(self):
        # 2 x 4 generic matrix: nullity 2
        m = [[1, 2, 3, 4], [0, 1, 1, 1]]
        basis = nullspace(m)
        assert len(basis) == 2

    def test_ratfun_matrix_mv_zero(self):
        # Poly rows in which ints and Fractions stand for constant Polys
        n = Poly([0, 1])
        m = [[n * n, 1, 3 * n],
             [n, Fraction(1, 2), Poly([3, 1])]]
        basis = nullspace(m)
        assert len(basis) == 1
        for v in basis:
            assert all(isinstance(p, Poly) for p in v)
            for row in m:
                assert sum((a * b for a, b in zip(row, v)), Poly()) == Poly()
        # seeded random matrices over Q[n]: M v = 0, primitive vectors, nullity
        rng = random.Random(23)

        def rand_poly(deg):
            return Poly([Fraction(rng.choice([0, 0, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                         for _ in range(deg + 1)])

        for _ in range(40):
            ncols = rng.randint(1, 6)
            m = [[rand_poly(rng.randint(0, 2)) for _ in range(ncols)]
                 for _ in range(rng.randint(1, 3))]
            # rows combining earlier ones over Q[n] lower the rank over Q(n)
            for _ in range(rng.randint(0, 2)):
                mult = [rand_poly(1) for _ in m]
                m.append([sum((c * row[j] for c, row in zip(mult, m)), Poly())
                          for j in range(ncols)])
            rng.shuffle(m)
            basis = nullspace(m)
            for v in basis:
                for row in m:
                    assert sum((a * b for a, b in zip(row, v)), Poly()) == Poly()
                assert functools.reduce(poly_gcd, v).degree == 0
                cs = [c for p in v for c in p.coeffs]
                assert all(c.denominator == 1 for c in cs)
                assert math.gcd(*[c.numerator for c in cs]) == 1
            # the rank over Q(n) is the largest rank at a few integer points
            rank = max(_fraction_rank([[p(x) for p in row] for row in m])
                       for x in (3, 7, 19))
            assert len(basis) == ncols - rank


class TestRationalRoots:
    def test_one_minus_z(self):
        assert rational_roots(P(1, -1)) == [Fraction(1)]

    def test_factored_input(self):
        # z(1-4z): roots 0 and 1/4
        assert sorted(rational_roots(P(0, 1, -4))) == [0, Fraction(1, 4)]

    def test_no_rational_roots(self):
        roots, cofactor = rational_roots_and_cofactor(P(1, 0, 1))
        assert roots == []
        assert cofactor.degree == 2

    def test_multiplicity(self):
        p = P(-1, 1) ** 3 * P(1, 2)
        roots, cof = rational_roots_and_cofactor(p)
        assert (Fraction(1), 3) in roots
        assert (Fraction(-1, 2), 1) in roots
        assert cof.degree == 0

    def test_roots_evaluate_to_zero(self):
        rng = random.Random(3)
        for _ in range(15):
            p = Poly([rng.randint(-6, 6) for _ in range(rng.randint(2, 7))])
            if p.is_zero():
                continue
            for r in rational_roots(p):
                assert p(r) == 0

    def test_big_coefficient_roots(self):
        # (3n - 7)(n + 2^40) has roots 7/3 and -2^40
        p = P(-7, 3) * P(1 << 40, 1)
        assert sorted(rational_roots(p)) == [-(1 << 40), Fraction(7, 3)]

    def test_seeded_products_known_by_construction(self):
        # c * prod (b x - a)^m * prod g with every g free of rational roots,
        # so the roots, multiplicities and primitive cofactor are known
        # without running any root finder; denominators built from 2, 3, 5
        # and 7 put those primes in the leading coefficient, so the prime
        # search must skip them when the squarefree part has low degree
        no_roots = [P(1, 0, 1), P(2, 0, 1), P(17, 0, 1), P(-2, 0, 1),
                    P(-3, 0, 1), P(-7, 0, 1), P(-2, 0, 0, 1)]
        rng = random.Random(2024)
        for _ in range(80):
            want = {}
            p = P(rng.choice([1, -1, 6, 10, -42, 210]))
            for _ in range(rng.randint(1, 4)):
                r = Fraction(rng.randint(-40, 40),
                             rng.choice([1, 2, 3, 5, 7, 6, 35, 210]))
                m = rng.randint(1, 3)
                want[r] = want.get(r, 0) + m
                p = p * P(-r.numerator, r.denominator) ** m
            cofactor = P(1)
            for g in rng.choices(no_roots, k=rng.randint(0, 3)):
                cofactor = cofactor * g
            roots, cof = rational_roots_and_cofactor(p * cofactor)
            assert roots == sorted(want.items())
            assert cof == cofactor

    def test_prime_search_skips_bad_primes(self):
        # squarefree part of degree 3 with lead 1001 = 7*11*13: the search
        # starts above 6 and must skip 7, 11 and 13
        for a in (1, -12, 1000):
            p = P(-a, 1001) ** 2 * P(-3, 0, 1)
            assert rational_roots_and_cofactor(p) == (
                [(Fraction(a, 1001), 2)], P(-3, 0, 1))
        # (x - 1)(x - 6) has the double root 1 mod 5, so the search must
        # skip 5
        p = P(-1, 1) * P(-6, 1) ** 3
        assert rational_roots_and_cofactor(p) == (
            [(Fraction(1), 1), (Fraction(6), 3)], P(1))

    def test_dense_degree_30_squarefree_part(self):
        # the squarefree part q / gcd(q, q') of a dense degree-30 polynomial
        # with 64-bit coefficients times (7x - 3)^2 took 3.3-4.0 s with
        # Euclid over Q in Fractions
        rng = random.Random(30)
        g = Poly([rng.randint(-(1 << 63), 1 << 63) for _ in range(31)])
        t0 = time.perf_counter()
        roots, cof = rational_roots_and_cofactor(g * P(-3, 7) ** 2)
        assert time.perf_counter() - t0 < 1.0
        assert roots == [(Fraction(3, 7), 2)]
        assert cof.degree == 30 and cof == g.primitive()

    def test_huge_coefficients_without_factoring(self):
        # (x - 3)(x^2 + M61 M89), M61 and M89 Mersenne primes: enumerating
        # the divisors of the trailing coefficient did not finish in 120 s
        big = ((1 << 61) - 1) * ((1 << 89) - 1)
        t0 = time.perf_counter()
        roots, cof = rational_roots_and_cofactor(P(-3, 1) * P(big, 0, 1))
        assert time.perf_counter() - t0 < 1.0
        assert roots == [(Fraction(3), 1)]
        assert cof == P(big, 0, 1)


class TestReadNumber:
    @pytest.mark.parametrize("x, want", [
        (3, Fraction(3)),
        (True, Fraction(1)),
        (Fraction(-1, 3), Fraction(-1, 3)),
        (np.int64(-4), Fraction(-4)),
        (0.1, Fraction(3602879701896397, 2 ** 55)),
        (np.float64(0.25), Fraction(1, 4)),
        (-0.0, Fraction(0)),
        (5e-324, Fraction(1, 2 ** 1074)),
        (mpf(1) / 3, Fraction(1 / 3)),
        (mpf("-0"), Fraction(0)),
        (mpmath.pi, Fraction(math.pi)),  # a constant, read at 53 bits
        (1 + 2j, (Fraction(1), Fraction(2))),
        (mpc(0.5, -1), (Fraction(1, 2), Fraction(-1))),
    ], ids=["int", "bool", "Fraction", "numpy-int", "float", "numpy-float",
            "negative-zero", "subnormal", "mpf", "mpf-zero", "constant",
            "complex", "mpc"])
    def test_accepted(self, x, want):
        with mp.workprec(53):
            got = read_number(x)
        assert got == want and type(got) is type(want)
        if isinstance(want, tuple):
            with pytest.raises(TypeError, match="real number"):
                read_real(x)
        else:
            assert read_real(x) == want

    def test_constant_read_at_the_current_precision(self):
        with mp.workprec(300):
            wide = read_number(mpmath.e)
            assert wide == read_number(+mpmath.e)
        assert wide != read_number(mpmath.e) == Fraction(math.e)

    @pytest.mark.parametrize("x, err, word", [
        (math.nan, ValueError, "nan"),
        (math.inf, ValueError, "inf"),
        (-math.inf, ValueError, "-inf"),
        (mpf("nan"), ValueError, "nan"),
        (mpf("inf"), ValueError, "inf"),
        (mpf("-inf"), ValueError, "-inf"),
        (mpc("inf", 0), ValueError, "inf"),
        (complex(1, math.nan), ValueError, "nan"),
        ("1/2", TypeError, "str"),
        (None, TypeError, "NoneType"),
        (BigReal(mpf(1), 0), TypeError, "BigReal"),
    ], ids=["nan", "inf", "-inf", "mpf-nan", "mpf-inf", "mpf-minus-inf",
            "mpc-inf", "complex-nan", "str", "None", "BigReal"])
    def test_refused(self, x, err, word):
        with pytest.raises(err, match=word):
            read_number(x)

    def test_only_reader_and_encoder(self):
        # numbers enter through kernel.read_number and reports leave
        # through formats.to_json: no second reader of mpmath values and no
        # hand-written report encoder in the package
        to_dicts = 0
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in tree.body:
                # names, attributes, imported names and defined names
                names = {getattr(n, a) for n in ast.walk(node)
                         for a in ("id", "attr", "name")
                         if isinstance(getattr(n, a, None), str)}
                found = names & {"to_rational", "_to_mpf_arg"}
                allowed = path.name == "kernel.py" and (
                    isinstance(node, ast.ImportFrom)
                    or getattr(node, "name", None) == "read_number")
                assert not found or allowed, (path.name, node.lineno, found)
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "to_dict":
                    body = [b for b in node.body
                            if not (isinstance(b, ast.Expr)
                                    and isinstance(b.value, ast.Constant))]
                    assert [ast.unparse(b) for b in body] == \
                        ["return to_json(self)"], (path.name, node.lineno)
                    to_dicts += 1
        assert to_dicts == 4
