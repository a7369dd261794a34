"""Shared sequence builders and reference oracles for the test suite."""

import math
from fractions import Fraction

from holoseq.annihilators import Recurrence
from holoseq.kernel import Poly, RatFun


def P(*coeffs):
    return Poly(coeffs)


def fib_rec():
    return Recurrence([P(1), P(-1), P(-1)], initial_terms=[0, 1])


def catalan_rec():
    return Recurrence([P(2, 1), P(-2, -4)], initial_terms=[1])


def central_binomial_rec():
    return Recurrence([P(1, 1), P(-2, -4)], initial_terms=[1])


def catalan_terms(N):
    return [Fraction(math.comb(2 * n, n), n + 1) for n in range(N)]


def central_binomial_terms(N, power=1):
    return [Fraction(math.comb(2 * n, n)) ** power for n in range(N)]


def motzkin_terms(N):
    # independent oracle: M_n = sum_k binom(n, 2k) Catalan_k
    out = []
    for n in range(N):
        s = 0
        for k in range(n // 2 + 1):
            s += math.comb(n, 2 * k) * math.comb(2 * k, k) // (k + 1)
        out.append(Fraction(s))
    return out


def primes_list(N):
    limit = max(1000, int(N * (math.log(N) + math.log(math.log(N)) + 2)))
    composite = bytearray(limit)
    primes = []
    for p in range(2, limit):
        if not composite[p]:
            primes.append(p)
            if len(primes) == N:
                break
            for q in range(p * p, limit, p):
                composite[q] = 1
    return primes


def random_safe_rec(rng, max_order=2, max_degree=1):
    """Random recurrence whose leading coefficient is positive on all of
    n >= 0, so unrolling never hits a vanishing leading coefficient."""
    d = rng.randint(1, max_order)
    coeffs = [Poly([rng.randint(1, 3)
                    for _ in range(rng.randint(1, max_degree + 1))])]
    for _ in range(d):
        c = Poly([rng.randint(-3, 3)
                  for _ in range(rng.randint(1, max_degree + 1))])
        coeffs.append(c)
    if coeffs[-1].is_zero():
        coeffs[-1] = Poly([1])
    init = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
    return Recurrence(coeffs, initial_terms=init)


def _rand_poly(rng, maxdeg):
    """Zero about one time in six; rational coefficients one time in three."""
    den = rng.choice([1, 1, 2, 3, 6]) if rng.random() < 1 / 3 else 1
    return Poly([Fraction(rng.randint(-4, 4), den)
                 for _ in range(rng.randint(0, maxdeg + 1))])


def random_diffop(rng):
    """Order 0..3, degree <= 3, zero middle coefficients and rational
    coefficients allowed; a random common factor one time in four."""
    e = rng.randint(0, 3)
    qs = [_rand_poly(rng, 3) for _ in range(e + 1)]
    if qs[0].is_zero():
        qs[0] = Poly([rng.randint(1, 3), Fraction(rng.randint(-3, 3), 2)])
    if rng.random() < 0.25:
        f = Poly([rng.randint(-2, 2), rng.randint(1, 2)])
        qs = [q * f for q in qs]
    return qs


def random_recurrence(rng):
    """Order 0..3 (before trimming), degree <= 3, zero middle coefficients,
    rational coefficients and initial terms."""
    d = rng.randint(0, 3)
    ps = [_rand_poly(rng, 3) for _ in range(d + 1)]
    if all(p.is_zero() for p in ps):
        ps[0] = Poly([1, 1])
    rec = Recurrence(ps)
    init = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(rec.order)]
    return Recurrence(rec.coeffs, initial_terms=init)


def random_ratfun(rng, maxdeg=2, nonconstant=False, pole=False):
    """Nonzero rational function of numerator and denominator degree <=
    maxdeg; `nonconstant` forces a nonzero derivative, `pole` a
    nonconstant denominator."""
    while True:
        num = _rand_poly(rng, maxdeg)
        den = _rand_poly(rng, maxdeg)
        if num.is_zero() or den.is_zero():
            continue
        f = RatFun(num, den)
        if nonconstant and f.derivative().is_zero():
            continue
        if pole and f.den.degree == 0:
            continue
        return f


def full_degree_rec(rng, order):
    """Order-`order` recurrence shaped like the benchmark's exact-algebra
    inputs: every coefficient of full degree (2 at order 1, else 1), the
    leading one with positive coefficients."""
    degree = 2 if order == 1 else 1

    def poly(lead):
        c = [rng.randint(1, 3) if lead else rng.randint(-3, 3)
             for _ in range(degree + 1)]
        if c[-1] == 0:
            c[-1] = rng.choice((-1, 1))
        return Poly(c)
    init = [Fraction(rng.randint(-3, 3)) for _ in range(order)]
    return Recurrence([poly(True)] + [poly(False) for _ in range(order)],
                      initial_terms=init)
