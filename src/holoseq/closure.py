"""Holonomicity-preserving transformations: sums and termwise products of
recurrence solutions, the signed binomial difference transform, rational
substitution into differential operators, and multiplication of a solution
by a rational function.

Every closure operator is found by exact elimination: the shifts of a
solution (its derivatives, for an ODE) live in a finite-dimensional module
over Q(n) (Q(w)), so enough shifts of the combined object are linearly
dependent, and the dependency is an annihilator with a provable order
bound.  Every elimination goes through `_dependencies` to
`kernel.nullspace`, which returns primitive vectors of polynomials.  For
recurrences, `_shift_vectors` keeps the k-th shift as Poly numerators over
the known denominator p_0(n) ... p_0(n+k-r), so no rational function is
formed, and one core `_closure` serves the sum and the termwise product.
At the ODE level one chain-rule core, `_compose`, builds the operator of
r(w) * y(rho(w)): substitution is r = 1, multiplication by a rational
function is rho = w, and the binomial transform is one call with both.
Its k-th derivative is kept the same way, as Poly numerators over the
denominator S^(k+1) B^(2k) P_0^k known in advance (r = R/S, rho = A/B, P_0
the leading coefficient evaluated at rho and cleared by B), so no
rational-function arithmetic runs anywhere.  No term data is consulted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import hpeval
from .annihilators import (DiffOp, LeadingCoefficientZero, Recurrence, SequenceStream,
                           _removable_factor, ode_to_rec, rec_to_ode, unroll)
from .kernel import Poly, RatFun, _scaled, nullspace, poly_gcd, rational_roots


class DegenerateSubstitution(Exception):
    """The substitution has identically zero derivative."""


def _shift_vectors(rec: Recurrence, K: int):
    """Pairs (N_k, D_k), k = 0..K: S^k u = sum_i N_k[i] u_{n+i} / D_k over
    the basis u_n, ..., u_{n+r-1}, with N_k a list of Polys and the known
    denominator D_k = p_0(n) p_0(n+1) ... p_0(n+k-r), or 1 for k < r.
    Reducing u_{n+r} multiplies through by p_0(n), so no Q(n) arithmetic
    runs."""
    r = rec.order
    if r == 0:
        # p_0(n) u_n = 0 means u is identically zero from some point; treat
        # the module as one-dimensional with S u = u * 0
        return [([Poly([1 if k == 0 else 0])], Poly([1])) for k in range(K + 1)]
    # p_0(n) u_{n+r} = -sum_i p_{r-i}(n) u_{n+i}, with ps[i] = p_{r-i}
    p0, ps = rec.coeffs[0], rec.coeffs[:0:-1]
    vecs = [([Poly([int(i == k)]) for i in range(r)], Poly([1]))
            for k in range(min(r, K + 1))]
    for k in range(r, K + 1):
        num, den = vecs[-1]
        shifted = [c.shift_arg(1) for c in num]
        lead = shifted[r - 1]
        v = [p0 * c - lead * q for c, q in zip([Poly()] + shifted[:r - 1], ps)]
        vecs.append((v, den * p0.shift_arg(k - r)))
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


def _cancel_over(c, den):
    """c divided by the common factor g of its entries, which divides
    `den`: the gcd chain starts at `den`.  Every factor (n - r) of g with an
    integer root r >= 0 stays, since the relation c holds at every n >= 0
    and the divided one could fail at n = r.  `Recurrence` normalises the
    content."""
    g = den
    for p in c:
        if g.degree == 0:
            return c
        g = poly_gcd(g, p)
    g = _removable_factor(g)
    return c if g.degree == 0 else [p.exact_div(g) for p in c]


def _closure(a, b, m, column, combine) -> Recurrence:
    """Annihilator of combine(u, v) from the dependencies of its shifts
    k = 0..m.  `column(N^a_k, D^a_k, N^b_k, D^b_k)` gives the numerators of
    S^k combine(u, v) over D_k = D^a_k D^b_k, so a dependency c' of the
    columns is the dependency c_k = c'_k D_k of the shifts.  `nullspace`
    returns c' primitive, so each irreducible f is prime to some c'_j, and
    an f^e dividing every c_k divides D_j, hence D_m: the normal form of c
    starts its gcd chain there.

    `_shift_vectors` reads an order-0 operand as v = 0, which holds only
    where p_0(n) != 0; a root n >= 0 leaves v_n free, so the closure
    raises LeadingCoefficientZero(n) there."""
    for rec in (a, b):
        if rec.order == 0:
            free = [x for x in rational_roots(rec.coeffs[0]) if x.denominator == 1 and x >= 0]
            if free:
                raise LeadingCoefficientZero(int(min(free)))
    va, vb = _shift_vectors(a, m), _shift_vectors(b, m)
    dens = [da * db for (_, da), (_, db) in zip(va, vb)]
    basis = [_cancel_over([c * d for c, d in zip(v, dens)], dens[-1])
             for v in _dependencies([column(*x, *y) for x, y in zip(va, vb)])]
    init = None
    if a.initial_terms is not None and b.initial_terms is not None:
        n_init = max(len(a.initial_terms), len(b.initial_terms), m)
        ua = unroll(a, a.initial_terms, n_init - 1).terms
        ub = unroll(b, b.initial_terms, n_init - 1).terms
        init = [combine(x, y) for x, y in zip(ua, ub)]
    return _best_annihilator(basis, init)


def closure_sum(a: Recurrence, b: Recurrence) -> Recurrence:
    """Recurrence of order <= order(a) + order(b) annihilating u + v for
    every solution u of a and v of b; see `_closure` for an order-0
    operand."""
    m = max(a.order, 1) + max(b.order, 1)
    return _closure(a, b, m, lambda na, da, nb, db: [p * db for p in na] + [p * da for p in nb],
                    lambda x, y: x + y)


def closure_hadamard(a: Recurrence, b: Recurrence) -> Recurrence:
    """Recurrence of order <= order(a) * order(b) annihilating the termwise
    product u_n v_n; see `_closure` for an order-0 operand."""
    m = max(a.order, 1) * max(b.order, 1)
    return _closure(a, b, m, lambda na, da, nb, db: [x * y for x in na for y in nb],
                    lambda x, y: x * y)


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
    p, sums, amplified = hpeval.binomial_diff_stream_fixed(
        stream, range(N + 1), g, start=k0)
    return SequenceStream(hpeval._from_fixed(sums, amplified, p), "float",
                          [hpeval._upper(x, -p) for x in amplified.values()])


# ---------------------------------------------------------------------------
# Rational substitution and rational multiplication at the ODE level
# ---------------------------------------------------------------------------

def _compose(ode: DiffOp, rho, r) -> DiffOp:
    """Operator of order e = order(ode) annihilating r(w) * y(rho(w)) for
    every solution y of the given operator; rho = A/B and r = R/S are
    given as (numerator, denominator) pairs of Polys.

    With g_i = y^(i) o rho, the chain rule gives (c g_i)' = c' g_i +
    c rho' g_{i+1}, with rho' = W/B^2, W = A'B - AB', and g_e reduces
    against the operator at rho: g_e = -sum_i Q_{e-i}/P_0 g_i, with
    Q_j = B^d q_j(A/B) for d the largest coefficient degree and P_0 = Q_0.
    So h = r g_0 and its derivatives are vectors over g_0..g_{e-1}; the
    k-th is kept as Poly numerators N over D_k = S^(k+1) B^(2k) P_0^k.
    For D = S^a B^b P_0^c,
        (N/D)' = (N'SBP_0 - N(aS'BP_0 + bSB'P_0 + cSBP_0'))/(D SBP_0),
    so one derivative step multiplies the denominator by S B^2 P_0 and
    needs no gcd.  The e functions r * (y o rho) are independent, so
    h, ..., h^(e-1) are too, and h, ..., h^(e) have exactly one
    dependency v of the columns N; c_k = v_k D_k is the annihilator, which
    `DiffOp` puts in normal form."""
    (A, B), (R, S) = rho, r
    W = A.derivative() * B - A * B.derivative()
    if W.is_zero():
        raise DegenerateSubstitution("substitution has zero derivative")
    if R.is_zero():
        raise ValueError("multiplication by the zero function")
    e = ode.order
    if e == 0:
        return DiffOp([Poly([1])])
    d = ode.degree
    mono = [A ** m * B ** (d - m) for m in range(d + 1)]  # B^d (A/B)^m
    Q = [sum((c * x for c, x in zip(q.coeffs, mono)), Poly()) for q in ode.coeffs]
    P0 = Q[0]
    SB = S * B
    sbp = SB * P0
    dS, dB, dP = S.derivative() * B * P0, S * B.derivative() * P0, SB * P0.derivative()
    wsp = W * S * P0
    red = [W * S * Q[e - i] for i in range(e)]
    cols = [[R] + [Poly()] * (e - 1)]
    for k in range(e):
        # D_k = S^(k+1) B^(2k) P_0^k
        dlog = (k + 1) * dS + 2 * k * dB + k * dP
        prev = cols[-1]
        nxt = [B * (N.derivative() * sbp - N * dlog) for N in prev]
        for i in range(e - 1):
            nxt[i + 1] = nxt[i + 1] + prev[i] * wsp
        top = prev[e - 1]
        if top:
            nxt = [x - top * q for x, q in zip(nxt, red)]
        cols.append(nxt)
    (v,) = _dependencies(cols)
    c, D = [], S
    for x in v:
        c.append(x * D)
        D = D * sbp * B
    return DiffOp(list(reversed(c)))


def _num_den(f):
    """(numerator, denominator) of a RatFun, a Poly, an int or a Fraction."""
    if not isinstance(f, RatFun):
        f = RatFun(f)
    return f.num, f.den


def substitute_rational(ode: DiffOp, rho) -> DiffOp:
    """Operator annihilating y(rho(w)) for every solution y of the given
    operator; rho is a RatFun, a Poly, an int or a Fraction."""
    return _compose(ode, _num_den(rho), (Poly([1]), Poly([1])))


def multiply_by_ratfun(ode: DiffOp, r) -> DiffOp:
    """Operator annihilating r(w) * y(w) for every solution y; r is a
    RatFun, a Poly, an int or a Fraction."""
    return _compose(ode, (Poly([0, 1]), Poly([1])), _num_den(r))


def binomial_transform_op(rec: Recurrence) -> Recurrence:
    """Recurrence annihilating the binomial difference transform of the
    sequence fixed by `rec` and its initial terms.

    Realized at the generating-function level: G(w) = 1/(1-w) F(-w/(1-w)),
    one `_compose` of the annihilator of F, converted back to a
    recurrence."""
    if rec.initial_terms is None:
        raise ValueError("binomial_transform_op needs initial terms")
    one_minus_w = Poly([1, -1])
    return ode_to_rec(_compose(rec_to_ode(rec), (Poly([0, -1]), one_minus_w),
                               (Poly([1]), one_minus_w)))
