"""Shared sequence builders and reference oracles for the test suite."""

import math
import operator
import os
import sys
from collections import Counter
from fractions import Fraction

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import to_rational

from holoseq import guess, singclass
from holoseq.annihilators import (DiffOp, Recurrence, from_theta_slices, ode_to_rec, rec_to_ode,
                                  theta_slices)
from holoseq.closure import DegenerateSubstitution, _op_key
from holoseq.kernel import Poly, RatFun, nullspace, poly_gcd


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


def random_diffop(rng, max_order=3, max_degree=3):
    """Order 0..max_order, degree <= max_degree, zero middle coefficients
    and rational coefficients allowed; a random common factor one time in
    four."""
    e = rng.randint(0, max_order)
    qs = [_rand_poly(rng, max_degree) for _ in range(e + 1)]
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


class FieldRatFun(RatFun):
    """Reference element of Q(x): `RatFun` with the field operations, the
    derivative and the shift, every result reduced by the gcd normal form
    of `RatFun.__init__`."""

    __slots__ = ()

    def __add__(self, other):
        other = _as_field(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldRatFun(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return FieldRatFun(-self.num, self.den)

    def __sub__(self, other):
        other = _as_field(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_field(other) + (-self)

    def __mul__(self, other):
        other = _as_field(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldRatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_field(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return FieldRatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_field(other) / self

    def derivative(self):
        return FieldRatFun(self.num.derivative() * self.den
                           - self.num * self.den.derivative(),
                           self.den * self.den)

    def shift_arg(self, c):
        """X |-> self(X + c)."""
        return FieldRatFun(self.num.shift_arg(c), self.den.shift_arg(c))


def _as_field(x):
    if isinstance(x, FieldRatFun):
        return x
    if isinstance(x, RatFun):
        return FieldRatFun(x.num, x.den)
    if isinstance(x, (int, Fraction, Poly)):
        return FieldRatFun(x)
    return NotImplemented


def clear_denominators(vec):
    """Polys proportional to the given entries (ints, Fractions, Polys or
    RatFuns): each entry times the monic lcm of all denominators."""
    rfs = [_as_field(c) for c in vec]
    L = Poly([1])
    for c in rfs:
        if c.den.degree > 0:
            L = (L * c.den).exact_div(poly_gcd(L, c.den)).monic()
    return [c.num * L.exact_div(c.den) for c in rfs]


def random_ratfun(rng, maxdeg=2, nonconstant=False, pole=False):
    """Nonzero rational function of numerator and denominator degree <=
    maxdeg, as a `FieldRatFun`; `nonconstant` forces a nonzero derivative,
    `pole` a nonconstant denominator."""
    while True:
        num = _rand_poly(rng, maxdeg)
        den = _rand_poly(rng, maxdeg)
        if num.is_zero() or den.is_zero():
            continue
        f = FieldRatFun(num, den)
        if nonconstant and f.derivative().is_zero():
            continue
        if pole and f.den.degree == 0:
            continue
        return f


def rec_with_free_index(rng):
    """Order 1..3 recurrence whose p_0 = (n - j) c(n) vanishes at an index
    j in 0..3, so a solution takes a free value there; half the time every
    coefficient shares the factor (n - j).  The other coefficients have
    degree <= 1 (times that factor), and c has no root n >= 0."""
    r = rng.randint(1, 3)
    root = Poly([-rng.randint(0, 3), 1])
    ps = [Poly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(r)]
    if ps[-1].is_zero():
        ps[-1] = Poly([1])
    if rng.random() < 0.5:
        ps = [p * root for p in ps]
    return Recurrence([root * Poly([rng.randint(1, 3), rng.randint(0, 2)])] + ps)


def recurrence_solution(rec, N, rng):
    """u_0..u_{N-1} of a random solution of `rec` at every n >= 0: a random
    integer combination of the nullspace of the relations at n = 0..N-r-1,
    which also draws the free values where p_0 vanishes.  For N above r plus
    the largest root n >= 0 of p_0, every such prefix extends to a
    solution."""
    r = rec.order
    rows = [[0] * N for _ in range(N - r)]
    for n, row in enumerate(rows):
        for i, p in enumerate(rec.coeffs):
            row[n + r - i] = p(n)
    basis = nullspace(rows)
    ts = [rng.randint(-3, 3) for _ in basis]
    return [sum(t * v[m] for t, v in zip(ts, basis)) for m in range(N)]


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


def ratfun_shift_vectors(rec, K):
    """Reference for `closure._shift_vectors` in Q(n) arithmetic: the
    vectors of S^k u (k = 0..K) in the basis u_n, ..., u_{n+r-1}, as
    lists of `FieldRatFun`s.  Each step shifts the previous vector and
    reduces u_{n+r} by u_{n+r} = -sum_i p_{r-i}(n)/p_0(n) u_{n+i}."""
    r = rec.order
    if r == 0:
        return [[FieldRatFun(1 if k == 0 else 0)] for k in range(K + 1)]
    p0 = FieldRatFun(rec.coeffs[0])
    red = [-(FieldRatFun(rec.coeffs[r - i]) / p0) for i in range(r)]
    vecs = []
    for k in range(min(r, K + 1)):
        v = [FieldRatFun(0)] * r
        v[k] = FieldRatFun(1)
        vecs.append(v)
    for k in range(r, K + 1):
        shifted = [c.shift_arg(1) for c in vecs[-1]]
        lead = shifted[r - 1]
        v = [FieldRatFun(0)] + shifted[:r - 1]
        if not lead.is_zero():
            v = [c + lead * q for c, q in zip(v, red)]
        vecs.append(v)
    return vecs


# Reference implementations of the ODE-level closures as they stood before
# the one chain-rule core, in Q(x) arithmetic: substitution selecting among
# all nullspace vectors, multiplication by the Leibniz formula, and the
# transform as substitution followed by multiplication.

def _ref_substitute_rational(ode, rho):
    rho = _as_field(rho)
    drho = rho.derivative()
    if drho.is_zero():
        raise DegenerateSubstitution("substitution has zero derivative")
    e = ode.order
    if e == 0:
        return DiffOp([Poly([1])])
    q_at = [_as_field(q(rho)) for q in ode.coeffs]
    q0 = q_at[0]
    red = [-(q_at[e - i] / q0) for i in range(e)]
    vecs = [[FieldRatFun(1)] + [FieldRatFun(0)] * (e - 1)]
    for _ in range(e):
        prev = vecs[-1]
        nxt = [c.derivative() for c in prev]
        for i in range(e - 1):
            nxt[i + 1] = nxt[i + 1] + prev[i] * drho
        top = prev[e - 1] * drho
        if not top.is_zero():
            for i in range(e):
                nxt[i] = nxt[i] + top * red[i]
        vecs.append(nxt)
    basis = nullspace([clear_denominators([vecs[j][i] for j in range(e + 1)])
                       for i in range(e)])
    return min((DiffOp(list(reversed(v))) for v in basis), key=_op_key)


def _ref_multiply_by_ratfun(ode, r):
    e = ode.order
    s = FieldRatFun(1) / r
    s_derivs = [s]
    for _ in range(e):
        s_derivs.append(s_derivs[-1].derivative())
    # y = s*u; y^(k) = sum_j C(k,j) s^(j) u^(k-j)
    out = [FieldRatFun(0)] * (e + 1)
    for k in range(e + 1):
        a = FieldRatFun(ode.coeffs[e - k])
        if a.is_zero():
            continue
        for j in range(k + 1):
            out[k - j] = out[k - j] + a * s_derivs[j] * math.comb(k, j)
    return DiffOp(list(reversed(clear_denominators(out))))


def _ref_binomial_transform_op(rec):
    rho = FieldRatFun(P(0, -1), P(1, -1))
    sub = _ref_substitute_rational(rec_to_ode(rec), rho)
    return ode_to_rec(_ref_multiply_by_ratfun(sub, FieldRatFun(P(1), P(1, -1))))


class FractionPoly:
    """Reference oracle for `Poly`: a tuple of Fraction coefficients in
    ascending degree, trailing zeros dropped, with schoolbook arithmetic,
    long division and Euclid's gcd over Q."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return FractionPoly(a)

    def __neg__(self):
        return FractionPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionPoly):
            return FractionPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * max(0, len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return FractionPoly(out)

    def __call__(self, x):
        if isinstance(x, FractionPoly):
            acc = FractionPoly()
            for c in reversed(self.coeffs):
                acc = acc * x + FractionPoly([c])
            return acc
        if not self.coeffs:
            return x * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def shift_arg(self, c):
        return self(FractionPoly([c, 1]))

    def derivative(self):
        return FractionPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other):
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dd = len(other.coeffs) - 1
        for i in range(len(rem) - 1, dd - 1, -1):
            f = rem[i] / other.coeffs[-1]
            q[i - dd] = f
            for j, c in enumerate(other.coeffs):
                rem[i - dd + j] -= f * c
        return FractionPoly(q), FractionPoly(rem)

    def monic(self):
        return FractionPoly([c / self.coeffs[-1] for c in self.coeffs])

    def content(self):
        return Fraction(math.gcd(*[c.numerator for c in self.coeffs]),
                        math.lcm(*[c.denominator for c in self.coeffs]))

    def primitive(self):
        c = self.content()
        return FractionPoly([x / c if self.coeffs[-1] > 0 else -x / c
                             for x in self.coeffs])


def fraction_poly_gcd(a, b):
    """Monic gcd by Euclid's algorithm over Q, the reference for
    `poly_gcd`."""
    while b.coeffs:
        a, b = b, a.divmod(b)[1]
    return a.monic() if a.coeffs else a


def random_rational_poly(rng, maxdeg, bits=20, zero_frac=0.2):
    """Degree <= maxdeg (zero polynomial possible), coefficients n/d with
    |n| < 2^bits and d <= 60, each one zero with probability zero_frac."""
    return [Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 60))
            if rng.random() >= zero_frac else Fraction(0)
            for _ in range(rng.randint(0, maxdeg + 1))]


def mpmath_calls(fn, after=None) -> Counter:
    """Run fn() and count the calls of each function defined in mpmath;
    with `after`, only the calls made once that function has returned."""
    calls = Counter()
    root = os.path.dirname(mpmath.__file__)
    counting = after is None

    def profile(frame, event, arg):
        nonlocal counting
        code = frame.f_code
        if event == "return" and after is not None and code is after.__code__:
            counting = True
        elif counting and event == "call" and code.co_filename.startswith(root):
            calls[code.co_name] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _mpf_float_rows(terms, r, d, n_rows, prec):
    with mp.workprec(prec):
        rows = []
        for n in range(n_rows):
            npow = [mpf(1)]
            for _ in range(d):
                npow.append(npow[-1] * n)
            row = []
            for i in range(r + 1):
                t = terms[n + r - i]
                for j in range(d + 1):
                    row.append(t * npow[j])
            rows.append(row)
        return rows


def _mpf_guess_float_box(vals, r, d, n_train, p, tol, prov):
    ncols = (r + 1) * (d + 1)
    n_rows = n_train - r
    if n_rows < ncols + 2:
        return None
    rows = _mpf_float_rows(vals, r, d, n_rows, p)
    scales = []
    for j in range(ncols):
        m = max(abs(rows[i][j]) for i in range(n_rows))
        scales.append(m if m != 0 else mpf(1))
    for i in range(n_rows):
        rows[i] = [rows[i][j] / scales[j] for j in range(ncols)]

    threshold = mpf(2) ** (-(p // 2))
    pivots = []
    free_cols = []
    rank = 0
    for col in range(ncols):
        piv, pmag = None, threshold
        for i in range(rank, n_rows):
            m = abs(rows[i][col])
            if m > pmag:
                piv, pmag = i, m
        if piv is None:
            free_cols.append(col)
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, n_rows):
            c = rows[i][col] / prow[col]
            if c != 0:
                rows[i] = [a - c * b for a, b in zip(rows[i], prow)]
        pivots.append((rank, col))
        rank += 1
    if not free_cols:
        return None

    for fc in free_cols:
        x = [mpf(0)] * ncols
        x[fc] = mpf(1)
        for (pr, pc) in reversed(pivots):
            if pc >= fc:
                continue
            s = mpf(0)
            for j in range(pc + 1, ncols):
                if x[j] != 0:
                    s += rows[pr][j] * x[j]
            x[pc] = -s / rows[pr][pc]
        raw = [x[j] / scales[j] for j in range(ncols)]
        top = max(abs(v) for v in raw)
        exact = [Fraction(*to_rational((v / top)._mpf_)) for v in raw]
        for denom_cap in (10 ** 3, 10 ** 9, 10 ** 15):
            frac = [v.limit_denominator(denom_cap) for v in exact]
            rec = guess._vector_to_recurrence(frac, r, d)
            if rec is None or rec.order > len(vals) - guess._HELD_OUT:
                continue
            res = [guess._normalized_residual(rec, vals, n, p)
                   for n in range(len(vals) - guess._HELD_OUT - rec.order,
                                  len(vals) - rec.order)]
            if res and max(res) <= tol:
                prov["residual_stats"] = {
                    "max_normalized_residual": float(max(res)),
                    "held_out_checked": len(res),
                }
                return rec
    return None


def mpf_guess_float(terms, max_order, max_degree, residual_tol,
                    precision_bits=192):
    """Reference for `guess.guess_float`: column scaling, Gaussian
    elimination with partial pivoting and back-substitution, all in mpf at
    precision_bits, then the same snap and held-out certificate.  Returns
    (found, recurrence, searched)."""
    p = precision_bits
    with mp.workprec(p):
        vals = guess._float_terms(terms)
    n_train = len(vals) - guess._HELD_OUT
    tol = mpf(residual_tol)
    searched, prov = [], {}
    with mp.workprec(p):
        for r in range(max_order + 1):
            for d in range(max_degree + 1):
                searched.append((r, d))
                rec = _mpf_guess_float_box(vals, r, d, n_train, p, tol, prov)
                if rec is not None:
                    return True, rec, searched
    return False, None, searched


def full_matrix_rank_mod_p(terms, r, d, p=guess._FILTER_PRIME):
    """Reference exact-guess filter: the rank mod p of the whole integer
    ansatz matrix (`guess._ansatz_rows`), every row reduced at once."""
    ncols = (r + 1) * (d + 1)
    mat = [[x % p for x in row]
           for row in guess._ansatz_rows(terms, r, d, len(terms) - r)]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        prow = [x * inv % p for x in mat[rank]]
        mat[rank] = prow
        for i in range(rank + 1, len(mat)):
            c = mat[i][col]
            if c:
                mat[i] = [(a - c * b) % p for a, b in zip(mat[i], prow)]
        rank += 1
        if rank == min(len(mat), ncols):
            break
    return rank


def full_matrix_guess_exact(terms, max_order, max_degree):
    """Reference `guess_exact` on the full-matrix filter: (found,
    recurrence, provenance)."""
    terms = [Fraction(t) for t in terms]
    prov = {"mode": "exact", "terms_used": len(terms), "max_order": max_order,
            "max_degree": max_degree, "searched": []}
    if all(t == 0 for t in terms):
        prov["degenerate_data"] = "all supplied terms are zero; any operator fits"
        return True, Recurrence([Poly([1]), Poly([-1])]), prov
    prov["searched"].append((max_order, max_degree))
    top = (max_order + 1) * (max_degree + 1)
    if full_matrix_rank_mod_p(terms, max_order, max_degree) == top:
        prov["reason"] = "ansatz system has full column rank"
        return False, None, prov
    best = None
    for r in range(max_order + 1):
        for d in range(max_degree + 1):
            if (r, d) != (max_order, max_degree):
                prov["searched"].append((r, d))
            if full_matrix_rank_mod_p(terms, r, d) == (r + 1) * (d + 1):
                continue
            for vec in guess.nullspace(guess._ansatz_rows(terms, r, d, len(terms) - r)):
                rec = guess._vector_to_recurrence(vec, r, d)
                if rec is None or not guess._certify_exact(rec, terms):
                    continue
                key = (rec.order, rec.degree, guess._operator_size(rec))
                if best is None or key < best[0]:
                    best = (key, rec)
            if best is not None:
                prov["residual_stats"] = {"max_abs": 0, "certified_terms": len(terms)}
                return True, best[1], prov
    prov["reason"] = "modular filter passed but no exact certificate survived"
    return False, None, prov


def fraction_apply(rec, terms, rng):
    """Reference residuals: Fraction arithmetic term by term, p_i(n) read
    from the Fraction coefficients."""
    d = rec.order
    out = []
    for n in rng:
        s = 0
        for i, p in enumerate(rec.coeffs):
            c = sum(Fraction(a) * n ** k for k, a in enumerate(p.coeffs))
            if c != 0:
                s = s + c * terms[n + d - i]
        out.append(s)
    return out


def product_paired(table, n, op):
    """Reference for `hpeval._paired`: one binomial per k < n/2, updated in
    place, times table[k] +- table[n-k], a full-width product at each k."""
    twin = operator.sub if op is operator.sub and n & 1 else operator.add
    h = n >> 1
    c, total = 1, 0
    for k in range(h + (n & 1)):
        total = op(c * twin(table[k], table[n - k]), total)
        c = c * (n - k) // (k + 1)
    if not n & 1:
        total = op(c * table[h], total)
    return -total if op is operator.sub and h & 1 else total


def recurrence_bell_numbers(N):
    """Reference for `witness.bell_numbers`: the binomial recurrence
    B_(n+1) = sum_k binom(n,k) B_k."""
    bell = [1]
    for n in range(N - 1):
        binom = 1
        s = 0
        for k in range(n + 1):
            s += binom * bell[k]
            binom = binom * (n - k) // (k + 1)
        bell.append(s)
    return bell


def fraction_series_exp(u):
    """Reference for `Series.exp`: the coefficient recurrence
    m g_m = sum_k k u_k g_(m-k), one Fraction operation per term."""
    n = u.length
    g = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for m in range(1, n):
        s = Fraction(0)
        for k in range(1, m + 1):
            if u.coeffs[k] != 0:
                s += k * u.coeffs[k] * g[m - k]
        g[m] = s / m
    return g


# The local analysis `singclass` ran before it read one unnormalised local
# picture: the local operator normalised as a `DiffOp`, then its Newton
# polygon and, from a second Euler form, its indicial polynomial.

def reference_local_operator(ode, z0):
    z0 = singclass._point(z0)
    if z0 is not singclass.INFINITY:
        return DiffOp([q.shift_arg(z0) for q in ode.coeffs])
    slices = theta_slices(ode.coeffs)
    top = max(slices)
    flipped = {top - i: Poly([-c if a % 2 else c for a, c in enumerate(B.coeffs)])
               for i, B in slices.items()}
    return DiffOp(list(reversed(from_theta_slices(flipped))))


def reference_indicial(local):
    slices = theta_slices(local.coeffs)
    return slices[min(slices)].primitive()


def reference_newton(local):
    e = local.order
    pts = []
    for m in range(e + 1):
        am = local.coeffs[e - m]
        if am.is_zero():
            continue
        pts.append((m, am.valuation() - m))
    pts.sort()
    suffix = []
    running = None
    for m, h in reversed(pts):
        running = h if running is None else min(running, h)
        suffix.append((m, running))
    suffix.reverse()
    hull = []
    for p in suffix:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    edges = [(Fraction(y2 - y1, x2 - x1), x2 - x1)
             for (x1, y1), (x2, y2) in zip(hull, hull[1:])]
    return edges or [(Fraction(0), 0)]


def reference_classify_point(ode, z0):
    z0c = singclass._point(z0)
    local = reference_local_operator(ode, z0c)
    slopes = reference_newton(local)
    ordinary = local.coeffs[0](0) != 0
    if ordinary:
        kind = "ordinary"
    elif all(s == 0 for s, _ in slopes):
        kind = "regular_singular"
    else:
        kind = "irregular"
    roots, nonrational, bound, flag = singclass._log_data(reference_indicial(local))
    if ordinary:
        bound, flag = 0, "none"
    positive = [s for s, _ in slopes if s > 0]
    ram = math.lcm(*[s.denominator for s in positive])
    return singclass.SingularPointReport(
        location=z0c, kind=kind, indicial_exponents=roots,
        nonrational_indicial=nonrational, log_degree_bound=bound,
        log_flag=flag, newton_slopes=slopes, ramification=ram,
        exp_part_degree=max(positive, default=Fraction(0)) * ram,
        operator_order=local.order)
