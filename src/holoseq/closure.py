"""Holonomicity-preserving transformations: sums and termwise products of
recurrence solutions, the signed binomial difference transform, rational
substitution into differential operators, and multiplication of a solution
by a rational function.

Every closure operator, multiplication by a rational function included,
is found by exact elimination over a rational function field: the shifts
of a solution (its derivatives, for an ODE) live in a finite-dimensional
module over Q(n) (Q(w)), so enough shifts of the combined object must be
linearly dependent, and the dependency is an annihilator with a provable
order bound.  `_dependencies` hands the coordinate vectors to
`kernel.nullspace`, which returns each dependency as a primitive vector of
polynomials; that vector becomes the operator's coefficient list as it is.
At the ODE level one chain-rule core, `_compose`, builds the operator of
r(w) * y(rho(w)): substitution is r = 1, multiplication by a rational
function is rho = w, and the binomial transform is one call with both.
No term data is consulted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import hpeval
from .annihilators import DiffOp, Recurrence, SequenceStream, ode_to_rec, rec_to_ode, unroll
from .kernel import Poly, RatFun, _as_ratfun, _scaled, nullspace


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
    # u_{n+r} = sum_i red[i] u_{n+i}, red[i] = -p_{r-i}(n)/p_0(n)
    p0 = RatFun(rec.coeffs[0])
    red = [-(RatFun(rec.coeffs[r - i]) / p0) for i in range(r)]
    vecs = []
    for k in range(min(r, K + 1)):
        v = [RatFun(0)] * r
        v[k] = RatFun(1)
        vecs.append(v)
    for k in range(r, K + 1):
        shifted = [c.shift_arg(1) for c in vecs[-1]]
        lead = shifted[r - 1]
        v = [RatFun(0)] + shifted[:r - 1]
        if not lead.is_zero():
            v = [c + lead * q for c, q in zip(v, red)]
        vecs.append(v)
    return vecs


def _dependencies(vecs):
    """Basis of the linear dependencies among coordinate vectors: the
    nullspace of the matrix whose k-th column is vecs[k]."""
    return nullspace(list(zip(*vecs)))


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
    basis = _dependencies([va[k] + vb[k] for k in range(m + 1)])
    init = _combined_initial_terms(a, b, m, lambda x, y: x + y)
    return _best_annihilator(basis, init)


def closure_hadamard(a: Recurrence, b: Recurrence) -> Recurrence:
    """Recurrence of order <= order(a) * order(b) annihilating the termwise
    product u_n v_n."""
    r1, r2 = max(a.order, 1), max(b.order, 1)
    m = r1 * r2
    va = _shift_vectors(a, m)
    vb = _shift_vectors(b, m)
    basis = _dependencies([[x * y for x in va[k] for y in vb[k]]
                           for k in range(m + 1)])
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
    if N < 0:
        raise ValueError(f"transform index {N} is negative")
    stream = seq if isinstance(seq, SequenceStream) else SequenceStream.exact(seq)
    if len(stream) <= N:
        raise ValueError("sequence not defined through the requested index")
    k0 = 0 if include_zero_term else 1
    if stream.mode == "exact":
        # integers over the common denominator L, summed exactly
        nums, L = _scaled(stream.terms[k0:N + 1])
        sums = hpeval._sums([0] * k0 + nums, range(N + 1))
        return SequenceStream([Fraction(sums[n], L) for n in range(N + 1)], "exact")
    g = target_bits if target_bits is not None else 64
    out = hpeval.binomial_diff_stream_grid(stream, range(N + 1), g, start=k0)
    return SequenceStream([out[n].value for n in range(N + 1)], "float",
                          [out[n].bound for n in range(N + 1)])


# ---------------------------------------------------------------------------
# Rational substitution and rational multiplication at the ODE level
# ---------------------------------------------------------------------------

def _compose(ode: DiffOp, rho: RatFun, r: RatFun) -> DiffOp:
    """Operator of order e = order(ode) annihilating r(w) * y(rho(w)) for
    every solution y of the given operator.

    With g_i = y^(i) o rho, the chain rule gives (c g_i)' = c' g_i +
    c rho' g_{i+1}, and g_e reduces against the operator evaluated at
    rho(w).  So h = r g_0 and its derivatives are vectors over g_0..g_{e-1}
    with entries in Q(w).  The e functions r * (y o rho) are independent,
    so h, ..., h^(e-1) are too, and h, ..., h^(e) have exactly one
    dependency: the annihilator."""
    drho = rho.derivative()
    if drho.is_zero():
        raise DegenerateSubstitution("substitution has zero derivative")
    if r.is_zero():
        raise ValueError("multiplication by the zero function")
    e = ode.order
    if e == 0:
        return DiffOp([Poly([1])])
    q_at = [_as_ratfun(q(rho)) for q in ode.coeffs]
    red = [-(q_at[e - i] / q_at[0]) for i in range(e)]  # g_e = sum red[i] g_i
    vecs = [[r] + [RatFun(0)] * (e - 1)]
    for _ in range(e):
        prev = vecs[-1]
        nxt = [c.derivative() for c in prev]
        for i in range(e - 1):
            nxt[i + 1] = nxt[i + 1] + prev[i] * drho
        top = prev[e - 1] * drho
        if not top.is_zero():
            nxt = [c + top * q for c, q in zip(nxt, red)]
        vecs.append(nxt)
    (v,) = _dependencies(vecs)
    return DiffOp(list(reversed(v)))


def substitute_rational(ode: DiffOp, rho: RatFun) -> DiffOp:
    """Operator annihilating y(rho(w)) for every solution y of the given
    operator."""
    if not isinstance(rho, RatFun):
        rho = RatFun(rho)
    return _compose(ode, rho, RatFun(1))


def multiply_by_ratfun(ode: DiffOp, r: RatFun) -> DiffOp:
    """Operator annihilating r(w) * y(w) for every solution y."""
    if not isinstance(r, RatFun):
        r = RatFun(r)
    return _compose(ode, RatFun(Poly([0, 1])), r)


def binomial_transform_op(rec: Recurrence) -> Recurrence:
    """Recurrence annihilating the binomial difference transform of the
    sequence fixed by `rec` and its initial terms.

    Realized at the generating-function level: G(w) = 1/(1-w) F(-w/(1-w)),
    one `_compose` of the annihilator of F, converted back to a
    recurrence."""
    if rec.initial_terms is None:
        raise ValueError("binomial_transform_op needs initial terms")
    one_minus_w = Poly([1, -1])
    return ode_to_rec(_compose(rec_to_ode(rec), RatFun(Poly([0, -1]), one_minus_w),
                               RatFun(Poly([1]), one_minus_w)))
