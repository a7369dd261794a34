"""Holonomicity-preserving transformations: sums and termwise products of
recurrence solutions, the signed binomial difference transform, rational
substitution into differential operators, and multiplication of a solution
by a rational function.

All closure operators are found by exact elimination over the rational
function field: the shifts of a solution live in a finite-dimensional
module over Q(n), so enough shifts of the combined object must be linearly
dependent, and the dependency is an annihilator with a provable order
bound.  `kernel.nullspace` returns each dependency as a primitive vector of
polynomials, which becomes the operator's coefficient list as it is.  No
term data is consulted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from . import hpeval
from .annihilators import DiffOp, Recurrence, SequenceStream, ode_to_rec, rec_to_ode, unroll
from .kernel import Poly, RatFun, _as_ratfun, clear_denominators, nullspace


class DegenerateSubstitution(Exception):
    """The substitution has identically zero derivative."""


def _shift_vectors(rec: Recurrence, K: int):
    """Vectors of S^k u (k = 0..K) in the basis u_n, ..., u_{n+r-1}, with
    entries in Q(n).  Reduction of u_{n+r+j} uses the recurrence shifted to
    start at n+j."""
    r = rec.order
    if r == 0:
        # p_0(n) u_n = 0 means u is identically zero from some point; treat
        # the module as one-dimensional with S u = u * 0
        return [[RatFun(1 if k == 0 else 0)] for k in range(K + 1)]
    p = rec.coeffs
    vecs = []
    for k in range(min(r, K + 1)):
        v = [RatFun(0)] * r
        v[k] = RatFun(1)
        vecs.append(v)
    for k in range(r, K + 1):
        prev = vecs[-1]
        shifted = [c.shift_arg(1) for c in prev]
        # u_{n+r} = -sum_j p_j(n)/p_0(n) u_{n+r-j}
        lead = shifted[r - 1]
        v = [RatFun(0)] * r
        for i in range(r - 1):
            v[i + 1] = shifted[i]
        if not lead.is_zero():
            p0 = RatFun(p[0])
            for j in range(1, r + 1):
                v[r - j] = v[r - j] - lead * RatFun(p[j]) / p0
        vecs.append(v)
    return vecs


def _op_key(op):
    """(order, degree, printed size of all coefficients): the smaller
    operator is the nicer one."""
    return (op.order, op.degree,
            sum(len(str(c)) for p in op.coeffs for c in p.coeffs))


def _best_annihilator(basis, initial_terms=None) -> Recurrence:
    """Pick the nicest dependency: prefer relations that reference the
    lowest shift (so no index re-basing happens), then the smallest
    `_op_key`."""
    if not basis:
        raise ValueError("elimination produced no dependency")
    recs = [(v[0].is_zero(), Recurrence(list(reversed(v)), initial_terms))
            for v in basis]
    return min(recs, key=lambda t: (t[0], *_op_key(t[1])))[1]


def _combined_initial_terms(a, b, m, combine):
    if a.initial_terms is None or b.initial_terms is None:
        return None
    n_init = max(len(a.initial_terms), len(b.initial_terms), m)
    ua = unroll(a, a.initial_terms, n_init - 1).terms
    ub = unroll(b, b.initial_terms, n_init - 1).terms
    return [combine(x, y) for x, y in zip(ua, ub)]


def closure_sum(a: Recurrence, b: Recurrence) -> Recurrence:
    """Recurrence of order <= order(a) + order(b) annihilating u + v for
    every solution u of a and v of b."""
    r1, r2 = a.order, b.order
    m = r1 + r2
    if m == 0:
        return Recurrence([Poly([1])])
    va = _shift_vectors(a, m)
    vb = _shift_vectors(b, m)
    dim_a = len(va[0])
    dim_b = len(vb[0])
    rows = []
    for i in range(dim_a + dim_b):
        row = []
        for k in range(m + 1):
            row.append(va[k][i] if i < dim_a else vb[k][i - dim_a])
        rows.append(row)
    basis = nullspace(rows)
    init = _combined_initial_terms(a, b, m, lambda x, y: x + y)
    return _best_annihilator(basis, init)


def closure_hadamard(a: Recurrence, b: Recurrence) -> Recurrence:
    """Recurrence of order <= order(a) * order(b) annihilating the termwise
    product u_n v_n."""
    r1, r2 = max(a.order, 1), max(b.order, 1)
    m = r1 * r2
    va = _shift_vectors(a, m)
    vb = _shift_vectors(b, m)
    dim_a = len(va[0])
    dim_b = len(vb[0])
    rows = []
    for i in range(dim_a):
        for j in range(dim_b):
            row = []
            for k in range(m + 1):
                row.append(va[k][i] * vb[k][j])
            rows.append(row)
    basis = nullspace(rows)
    init = _combined_initial_terms(a, b, m, lambda x, y: x * y)
    return _best_annihilator(basis, init)


# ---------------------------------------------------------------------------
# Binomial difference transform
# ---------------------------------------------------------------------------

def binomial_diff_seq(seq, N: int, include_zero_term: bool = True,
                      target_bits: Optional[int] = None) -> SequenceStream:
    """Transformed stream g_n = sum_k binom(n,k) (-1)^k f_k through index N.

    The k = 0 term is included by default (the transform is then exactly
    self-inverse); `include_zero_term=False` starts the sum at k = 1 for
    display parity with conventions that fix f_0 = 0.  Exact streams give
    exact results; float streams are evaluated through the high-precision
    path with propagated bounds.
    """
    stream = seq if isinstance(seq, SequenceStream) else SequenceStream.exact(seq)
    if len(stream) <= N:
        raise ValueError("sequence not defined through the requested index")
    k0 = 0 if include_zero_term else 1
    if stream.mode == "exact":
        # integers over the common denominator L, swept exactly
        terms = stream.terms[k0:N + 1]
        L = math.lcm(*(t.denominator for t in terms))
        table = [0] * k0 + [t.numerator * (L // t.denominator) for t in terms]
        sums = hpeval._sweep(table, range(N + 1))
        return SequenceStream([Fraction(sums[n], L) for n in range(N + 1)], "exact")
    g = target_bits if target_bits is not None else 64
    out = hpeval.binomial_diff_stream_grid(stream, range(N + 1), g, start=k0)
    return SequenceStream([out[n].value for n in range(N + 1)], "float",
                          [out[n].bound for n in range(N + 1)])


# ---------------------------------------------------------------------------
# Rational substitution and rational multiplication at the ODE level
# ---------------------------------------------------------------------------

def substitute_rational(ode: DiffOp, rho: RatFun) -> DiffOp:
    """Operator annihilating y(rho(w)) for every solution y of the given
    operator; chain rule followed by elimination over Q(w)."""
    if not isinstance(rho, RatFun):
        rho = RatFun(rho)
    drho = rho.derivative()
    if drho.is_zero():
        raise DegenerateSubstitution("substitution has zero derivative")
    e = ode.order
    if e == 0:
        return DiffOp([Poly([1])])
    # reduction of g_e = y^(e) o rho against the operator at rho(w)
    q_at = [_as_ratfun(q(rho)) for q in ode.coeffs]
    q0 = q_at[0]
    red = [-(q_at[e - i] / q0) for i in range(e)]  # coefficient of g_i
    # h^(j) as vectors over basis g_0..g_{e-1}
    vecs = []
    h = [RatFun(0)] * e
    h[0] = RatFun(1)
    vecs.append(h)
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
    rows = [[vecs[j][i] for j in range(e + 1)] for i in range(e)]
    basis = nullspace(rows)
    if not basis:
        raise ValueError("substitution elimination failed")
    return min((DiffOp(list(reversed(v))) for v in basis), key=_op_key)


def multiply_by_ratfun(ode: DiffOp, r: RatFun) -> DiffOp:
    """Operator annihilating r(w) * y(w) for every solution y."""
    if not isinstance(r, RatFun):
        r = RatFun(r)
    if r.is_zero():
        raise ValueError("multiplication by the zero function")
    e = ode.order
    s = RatFun(1) / r
    s_derivs = [s]
    for _ in range(e):
        s_derivs.append(s_derivs[-1].derivative())
    # y = s*u; y^(k) = sum_j C(k,j) s^(j) u^(k-j)
    out = [RatFun(0)] * (e + 1)  # coefficient of u^(i)
    for k in range(e + 1):
        a = RatFun(ode.coeffs[e - k])
        if a.is_zero():
            continue
        binom = 1
        for j in range(k + 1):
            out[k - j] = out[k - j] + a * s_derivs[j] * binom
            binom = binom * (k - j) // (j + 1)
    return DiffOp(list(reversed(clear_denominators(out))))


def binomial_transform_op(rec: Recurrence) -> Recurrence:
    """Recurrence annihilating the binomial difference transform of the
    sequence fixed by `rec` and its initial terms.

    Realized at the generating-function level: substitute
    z -> -w/(1-w) into the annihilator of f, multiply by 1/(1-w), and
    convert back to a recurrence."""
    if rec.initial_terms is None:
        raise ValueError("binomial_transform_op needs initial terms")
    ode = rec_to_ode(rec)
    rho = RatFun(Poly([0, -1]), Poly([1, -1]))
    sub = substitute_rational(ode, rho)
    mult = multiply_by_ratfun(sub, RatFun(Poly([1]), Poly([1, -1])))
    return ode_to_rec(mult)
