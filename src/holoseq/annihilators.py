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
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .kernel import Poly, poly_gcd, rational_roots_and_cofactor
from .series import Series


class LeadingCoefficientZero(Exception):
    """The leading recurrence coefficient vanished at an index where the
    next term was needed, so the recurrence cannot determine it."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"leading coefficient vanishes at n = {n}")


def _normalize_polys(polys):
    """Scalar normalization: divide the family by its global rational
    content and fix the sign so the first polynomial has positive leading
    coefficient.  Returns a list of Polys."""
    allc = [c for p in polys for c in p.coeffs]
    if not allc:
        return list(polys)
    den = math.lcm(*[c.denominator for c in allc])
    num = math.gcd(*[c.numerator for c in allc])
    content = Fraction(num, den)
    if content == 0:
        return list(polys)
    out = [p * (1 / content) for p in polys]
    first = next((p for p in out if not p.is_zero()), None)
    if first is not None and first.leading() < 0:
        out = [-p for p in out]
    return out


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
        self.coeffs = tuple(_normalize_polys(ps))
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
        roots, _ = rational_roots_and_cofactor(g)
        for r, mult in roots:
            if r.denominator == 1 and r >= 0:
                g = g.exact_div(Poly([-r, 1]) ** mult)
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
    primitively (common polynomial factor of all coefficients removed; this
    leaves power-series solution sets unchanged)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        qs = [c if isinstance(c, Poly) else Poly([c] if not isinstance(c, (list, tuple)) else c)
              for c in coeffs]
        while qs and qs[0].is_zero():
            qs.pop(0)
        if not qs:
            raise ValueError("differential operator needs a nonzero leading coefficient")
        g = qs[0]
        for p in qs[1:]:
            g = poly_gcd(g, p)
            if g.degree < 1:
                break
        if g.degree >= 1:
            qs = [p.exact_div(g) for p in qs]
        self.coeffs = tuple(_normalize_polys(qs))

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
        lead = p[0](Fraction(n))
        if lead == 0:
            raise LeadingCoefficientZero(n)
        s = Fraction(0)
        for i in range(1, d + 1):
            s += p[i](Fraction(n)) * terms[n + d - i]
        terms.append(-s / lead)
    return SequenceStream(terms[:N + 1], "exact")


def apply(rec: Recurrence, seq, rng) -> list:
    """Residuals p_0(n) u_{n+d} + ... + p_d(n) u_n for each n in rng."""
    d = rec.order
    terms = seq.terms if isinstance(seq, SequenceStream) else list(seq)
    out = []
    for n in rng:
        if n + d >= len(terms):
            raise ValueError(f"sequence too short for residual at n = {n}")
        s = 0
        for i, p in enumerate(rec.coeffs):
            c = p(Fraction(n))
            if c != 0:
                s = s + c * terms[n + d - i]
        out.append(s)
    return out


# ---------------------------------------------------------------------------
# Recurrence <-> differential operator
# ---------------------------------------------------------------------------

def _stirling2_table(nmax: int):
    S = [[0] * (nmax + 1) for _ in range(nmax + 1)]
    S[0][0] = 1
    for a in range(1, nmax + 1):
        for k in range(1, a + 1):
            S[a][k] = k * S[a - 1][k] + S[a - 1][k - 1]
    return S


def _theta_to_std(theta_coeffs):
    """Convert sum_a A_a(z) theta^a (theta = z d/dz) to standard derivative
    form; returns list std[k] = coefficient polynomial of D^k."""
    amax = len(theta_coeffs) - 1
    S = _stirling2_table(amax)
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

    The conversion passes through the Euler form theta = z d/dz; initial
    terms induce a polynomial right-hand side which is homogenized by one
    extra differentiation, so the order may grow by 1.
    """
    d = rec.order
    init = rec.initial_terms
    if d > 0 and init is None:
        raise ValueError("rec_to_ode needs the recurrence's initial terms")
    if init is not None and len(init) < d:
        raise ValueError("not enough initial terms")

    # theta-form: sum_i z^i p_i(theta - (d - i)) applied to f
    maxdeg = max(p.degree for p in rec.coeffs)
    theta_coeffs = [Poly() for _ in range(maxdeg + 1)]
    for i, p in enumerate(rec.coeffs):
        shifted = p.shift_arg(-(d - i))  # polynomial in theta
        zi = Poly([0] * i + [1])
        for a, c in enumerate(shifted.coeffs):
            if c != 0:
                theta_coeffs[a] = theta_coeffs[a] + zi * c
    std = _theta_to_std(theta_coeffs)

    # right-hand side from initial terms: sum_i sum_{m<d-i} p_i(m-d+i) f_m z^{m+i}
    R = Poly()
    if init is not None:
        for i, p in enumerate(rec.coeffs):
            for m in range(d - i):
                c = p(Fraction(m - d + i)) * init[m]
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

    Each monomial z^j D^m contributes, at z^n, the term
    (n-j+1)(n-j+2)...(n-j+m) f_{n+m-j}; with zero extension of f to
    negative indices the resulting relation holds at every integer n, which
    justifies re-basing it so its lowest referenced index is n.
    """
    e = ode.order
    contrib = {}  # t = m - j  ->  Poly in n
    for k, q in enumerate(ode.coeffs):
        m = e - k
        for j, c in enumerate(q.coeffs):
            if c == 0:
                continue
            P = Poly([c])
            for i in range(1, m + 1):
                P = P * Poly([i - j, 1])
            t = m - j
            contrib[t] = contrib.get(t, Poly()) + P
    contrib = {t: P for t, P in contrib.items() if not P.is_zero()}
    if not contrib:
        raise ValueError("operator reduced to zero")
    t_min = min(contrib)
    t_max = max(contrib)
    coeffs = []
    for t in range(t_max, t_min - 1, -1):  # p_0 corresponds to t_max
        P = contrib.get(t, Poly())
        coeffs.append(P.shift_arg(-t_min))
    return Recurrence(coeffs).reduced()


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
