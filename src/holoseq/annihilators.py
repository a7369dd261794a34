"""Annihilating operators for sequences and for power series, conversions
between the two pictures, term unrolling, and singular-point reporting.

Conventions
-----------
A ``Recurrence`` of order d stores [p_0, ..., p_d] with p_i multiplying
f_{n+d-i}, i.e. the relation

    p_0(n) f_{n+d} + p_1(n) f_{n+d-1} + ... + p_d(n) f_n = 0,   n >= 0.

A ``DiffOp`` of order e stores [q_0, ..., q_e] with q_k multiplying the
(e-k)-th derivative:

    q_0(z) y^(e) + q_1(z) y^(e-1) + ... + q_e(z) y = 0.

Sequences are indexed from n = 0 throughout.

Both pictures meet in the Euler form, theta = z d/dz.  An operator L of
order e is written z^e L = sum_i z^i B_i(theta), with B_i a polynomial in
theta; `theta_slices` returns the slices {i: B_i} and `from_theta_slices`
turns slices back into D-form through theta^a = sum_k S(a,k) z^k D^k.
Since theta z^n = n z^n, a recurrence is the Euler form of its generating
function's operator read at z^n.  Every change of operator picture goes
through these two functions: `rec_to_ode`, `ode_to_rec`, and the local
operator at infinity in `singclass`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .kernel import (Poly, _content_sign, _primitive, poly_gcd,
                     rational_roots_and_cofactor)
from .series import Series


class LeadingCoefficientZero(Exception):
    """The leading recurrence coefficient vanished at an index where the
    next term was needed, so the recurrence cannot determine it."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"leading coefficient vanishes at n = {n}")


def _removable_factor(g: Poly) -> Poly:
    """g without its factors (n - r) for integer roots r >= 0: the part of
    a common factor of a recurrence's coefficients that can be divided out
    without changing the relation at any index n >= 0."""
    if g.degree < 1:
        return g
    roots, _ = rational_roots_and_cofactor(g)
    for r, mult in roots:
        if r.denominator == 1 and r >= 0:
            g = g.exact_div(Poly([-r, 1]) ** mult)
    return g


class Recurrence:
    """Linear recurrence with polynomial coefficients.

    Leading zero coefficient polynomials are dropped (lowering the order);
    trailing zero ones are dropped by re-basing the running index, so the
    stored operator always has p_0 != 0 and p_d != 0.
    """

    __slots__ = ("coeffs", "initial_terms")

    def __init__(self, coeffs: Sequence, initial_terms: Optional[Iterable] = None):
        ps = [c if isinstance(c, Poly) else Poly([c] if not isinstance(c, (list, tuple)) else c)
              for c in coeffs]
        if not ps or all(p.is_zero() for p in ps):
            raise ValueError("recurrence needs a nonzero coefficient list")
        while ps and ps[0].is_zero():
            ps.pop(0)
        shift = 0
        while ps and ps[-1].is_zero():
            ps.pop()
            shift += 1
        if shift:
            ps = [p.shift_arg(-shift) for p in ps]
        # scalar normalization: coprime integer coefficients, p_0 with a
        # positive leading coefficient
        content, sign = _content_sign(ps)
        self.coeffs = tuple([p * (sign / content) for p in ps])
        self.initial_terms = (tuple(Fraction(t) for t in initial_terms)
                              if initial_terms is not None else None)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max(p.degree for p in self.coeffs)

    def reduced(self) -> "Recurrence":
        """Divide out the common polynomial factor of all coefficients,
        keeping any factor with a nonnegative integer root (removing those
        would change the relation at actual indices)."""
        g = self.coeffs[0]
        for p in self.coeffs[1:]:
            g = poly_gcd(g, p)
            if g.degree < 1:
                return self
        g = _removable_factor(g)
        if g.degree < 1:
            return self
        return Recurrence([p.exact_div(g) for p in self.coeffs],
                          self.initial_terms)

    def __eq__(self, other):
        return isinstance(other, Recurrence) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Recurrence(order={self.order}, degree={self.degree})"


class DiffOp:
    """Linear differential operator with polynomial coefficients, stored
    primitively (common polynomial factor and rational content of all
    coefficients removed, which leaves solution sets unchanged) with a
    positive leading coefficient of q_0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        qs = [c if isinstance(c, Poly) else Poly([c] if not isinstance(c, (list, tuple)) else c)
              for c in coeffs]
        while qs and qs[0].is_zero():
            qs.pop(0)
        if not qs:
            raise ValueError("differential operator needs a nonzero leading coefficient")
        qs = _primitive(qs)
        if qs[0].leading() < 0:
            qs = [-p for p in qs]
        self.coeffs = tuple(qs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max(p.degree for p in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, DiffOp) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"DiffOp(order={self.order}, degree={self.degree})"


class SequenceStream:
    """A prefix of a sequence: exact rationals, or floats with per-term
    absolute error bounds."""

    __slots__ = ("mode", "terms", "bounds")

    def __init__(self, terms, mode: str = "exact", bounds=None):
        if mode not in ("exact", "float"):
            raise ValueError("mode must be 'exact' or 'float'")
        if mode == "exact":
            self.terms = [Fraction(t) if not isinstance(t, Fraction) else t
                          for t in terms]
            self.bounds = None
        else:
            self.terms = list(terms)
            self.bounds = list(bounds) if bounds is not None else [0.0] * len(self.terms)
        self.mode = mode

    @classmethod
    def exact(cls, terms) -> "SequenceStream":
        return cls(terms, "exact")

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, i):
        return self.terms[i]

    def __iter__(self):
        return iter(self.terms)

    def __repr__(self):
        return f"SequenceStream({self.mode}, len={len(self.terms)})"


def unroll(rec: Recurrence, init: Sequence, N: int) -> SequenceStream:
    """Terms f_0..f_N of the solution with the given initial values.

    Raises LeadingCoefficientZero(n) when p_0(n) = 0 for an n at which
    f_{n+d} is needed.
    """
    d = rec.order
    if len(init) < d:
        raise ValueError(f"need at least {d} initial terms, got {len(init)}")
    terms = [Fraction(t) for t in init]
    p = rec.coeffs
    while len(terms) <= N:
        n = len(terms) - d
        lead = p[0](n)
        if lead == 0:
            raise LeadingCoefficientZero(n)
        s = sum(p[i](n) * terms[n + d - i] for i in range(1, d + 1))
        terms.append(-s / lead)
    return SequenceStream(terms[:N + 1], "exact")


def apply(rec: Recurrence, seq, rng) -> list:
    """Residuals p_0(n) u_{n+d} + ... + p_d(n) u_n for each n >= 0 in rng,
    for exact terms (ints or Fractions): a Fraction, or the int 0 where
    every p_i(n) is 0.

    A Recurrence's coefficients are integral, so each p_i(n) is an integer
    by Horner on its numerators; the residual is summed in integers over
    the lcm L of the window's denominators, as sum p_i(n) a_k (L / b_k)
    for the terms a_k / b_k, and one Fraction is built per n."""
    d = rec.order
    terms = seq.terms if isinstance(seq, SequenceStream) else list(seq)
    polys = [p.nums for p in rec.coeffs]
    out = []
    for n in rng:
        if n < 0:
            raise ValueError(f"residual index n = {n} is negative")
        if n + d >= len(terms):
            raise ValueError(f"sequence too short for residual at n = {n}")
        live = []
        for i, nums in enumerate(polys):
            c = 0
            for a in reversed(nums):
                c = c * n + a
            if c:
                live.append((c, terms[n + d - i]))
        if not live:
            out.append(0)
            continue
        L = math.lcm(*[t.denominator for _, t in live])
        out.append(Fraction(sum(c * t.numerator * (L // t.denominator)
                                for c, t in live), L))
    return out


# ---------------------------------------------------------------------------
# Recurrence <-> differential operator
# ---------------------------------------------------------------------------

def theta_slices(qs) -> dict:
    """The Euler form of the operator with coefficients [q_0, ..., q_e]
    (a `DiffOp`'s `.coeffs`, or any unnormalised list): {i: B_i} with
    z^e L = sum_i z^i B_i(theta), B_i a Poly in theta.

    Each monomial z^j D^m is z^(j-m) theta (theta-1) ... (theta-m+1), so it
    lands in slice i = j + e - m >= 0.  The falling factorials are
    independent, so every slice a monomial lands in is nonzero."""
    e = len(qs) - 1
    slices = {}
    ff = [Poly([1])]
    for m in range(1, e + 1):
        ff.append(ff[-1] * Poly([-(m - 1), 1]))  # theta (theta-1) ... (theta-m+1)
    for m in range(e + 1):
        for j, c in enumerate(qs[e - m].coeffs):
            if c == 0:
                continue
            key = j + e - m
            slices[key] = slices.get(key, Poly()) + ff[m] * c
    return slices


def from_theta_slices(slices: dict) -> list:
    """Standard form of sum_i z^i B_i(theta) for slices {i: B_i} with
    i >= 0: the list [A_0, ..., A_r], r the largest degree of a B_i and
    A_k the coefficient of D^k, by theta^a = sum_k S(a,k) z^k D^k (S the
    Stirling numbers of the second kind).  The inverse of `theta_slices`
    up to the factor z^e."""
    amax = max(B.degree for B in slices.values())
    top = max(slices)
    S = [[1]]  # S[a][k] for k <= a
    for a in range(1, amax + 1):
        prev = S[-1] + [0]
        S.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, a + 1)])
    cols = [[0] * (top + k + 1) for k in range(amax + 1)]
    for i, B in slices.items():
        for a, b in enumerate(B.coeffs):
            if b:
                for k in range(a + 1):
                    if S[a][k]:
                        cols[k][i + k] += b * S[a][k]
    return [Poly(c) for c in cols]


def _compose_D(std):
    """Operator coefficients of D composed with the given operator
    (std[k] = coefficient of D^k)."""
    out = [Poly() for _ in range(len(std) + 1)]
    for k, A in enumerate(std):
        out[k] = out[k] + A.derivative()
        out[k + 1] = out[k + 1] + A
    while len(out) > 1 and out[-1].is_zero():
        out.pop()
    return out


def rec_to_ode(rec: Recurrence) -> DiffOp:
    """Differential operator annihilating the generating function
    sum f_n z^n of the solution fixed by the recurrence's initial terms.

    The recurrence is the Euler form sum_i z^i p_i(theta - (d - i)) of the
    generating function's operator, d the order, read through
    `from_theta_slices`; initial terms induce a polynomial right-hand side
    which is homogenized by one extra differentiation, so the order may
    grow by 1.
    """
    d = rec.order
    init = rec.initial_terms
    if d > 0 and init is None:
        raise ValueError("rec_to_ode needs the recurrence's initial terms")
    if init is not None and len(init) < d:
        raise ValueError("not enough initial terms")

    std = from_theta_slices({i: p.shift_arg(i - d)
                             for i, p in enumerate(rec.coeffs)})

    # right-hand side from initial terms: sum_i sum_{m<d-i} p_i(m-d+i) f_m z^{m+i}
    R = Poly()
    if init is not None:
        for i, p in enumerate(rec.coeffs):
            for m in range(d - i):
                c = p(m - d + i) * init[m]
                if c != 0:
                    R = R + Poly([0] * (m + i) + [c])

    if not R.is_zero():
        dstd = _compose_D(std)
        Rp = R.derivative()
        n = max(len(std), len(dstd))
        hom = [Poly() for _ in range(n)]
        for k, A in enumerate(std):
            hom[k] = hom[k] + Rp * A
        for k, A in enumerate(dstd):
            hom[k] = hom[k] - R * A
        std = hom
        while len(std) > 1 and std[-1].is_zero():
            std.pop()
    return DiffOp(list(reversed(std)))


def ode_to_rec(ode: DiffOp) -> Recurrence:
    """Recurrence satisfied by the coefficient sequence of every
    power-series solution of the operator, valid for all n >= 0.

    The operator is read in its Euler form z^e L = sum_i z^i B_i(theta):
    as theta z^n = n z^n, the coefficient of z^N is
    sum_i B_i(N - i) f_{N-i}.  With zero extension of f to negative
    indices it vanishes at every integer N, which justifies re-basing the
    relation so its lowest referenced index is n.
    """
    slices = theta_slices(ode.coeffs)
    lo, hi = min(slices), max(slices)
    return Recurrence([slices.get(i, Poly()).shift_arg(hi - i)
                       for i in range(lo, hi + 1)]).reduced()


def apply_diffop_to_series(ode: DiffOp, s: Series) -> Series:
    """Apply the operator to a truncated series; the result is reliable
    through order len(s) - 1 - order(ode)."""
    e = ode.order
    derivs = [s]
    for _ in range(e):
        derivs.append(derivs[-1].derivative())
    n = len(s.coeffs) - e
    acc = Series.zero(n)
    for k, q in enumerate(ode.coeffs):
        part = Series(derivs[e - k].coeffs, n)
        acc = acc + part * Series.from_poly(q, n)
    return acc


# ---------------------------------------------------------------------------
# Singular points (finiteness report)
# ---------------------------------------------------------------------------

class SingularPoints:
    """Roots of the leading coefficient: rational ones exactly with
    multiplicity, the rest summarized by the degree of the remaining
    factor.  The count is finite by construction."""

    __slots__ = ("rational", "nonrational_degree", "leading_degree")

    def __init__(self, rational, nonrational_degree, leading_degree):
        self.rational = rational
        self.nonrational_degree = nonrational_degree
        self.leading_degree = leading_degree

    def locations(self):
        return [r for r, _ in self.rational]

    def __repr__(self):
        return (f"SingularPoints(rational={self.rational}, "
                f"nonrational_degree={self.nonrational_degree})")


def singular_points(ode: DiffOp) -> SingularPoints:
    q0 = ode.coeffs[0]
    if q0.degree < 1:
        return SingularPoints([], 0, q0.degree)
    roots, cofactor = rational_roots_and_cofactor(q0)
    return SingularPoints(roots, max(cofactor.degree, 0), q0.degree)
