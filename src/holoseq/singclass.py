"""Classification of singular points of linear differential operators, and
the compatibility test between asymptotic scales and what such operators
can produce at a singularity.

Local analysis happens in the parameter t = z - z0 (t = 1/z at infinity).
Writing the operator in the Euler form theta = t d/dt of
`annihilators.theta_slices`, t^e L = sum_i t^i B_i(theta), the lowest
slice B_i is the indicial polynomial; the Newton polygon of the points
(derivative order m, valuation of its coefficient - m) decides regularity
and carries the ramification and degree data of any exponential part
exp(P(Z^(-1/r))).  Local solutions at a regular singular point look like
Z^alpha * (polynomial in log Z) with alpha an indicial root; iterated
logarithms, or log powers that are not small nonnegative integers, can
never arise, which is the lever every witness in this package pulls.

Every reader here uses one local picture, `_local`: the coefficients in t
and their Euler slices, not normalised.  Normalising would change nothing:
the shift to z0 keeps the coefficients coprime, and at infinity the only
common factor is a power t^k, which moves every valuation and slice index
by k and so no slope, edge length or primitive slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .annihilators import DiffOp, from_theta_slices, theta_slices
from .formats import to_json
from .kernel import Poly, rational_roots_and_cofactor, read_number

INFINITY = "infinity"


class NonRationalPoint(Exception):
    """Only rational points and infinity have exact local parameters here."""


@dataclass
class SingularPointReport:
    location: Union[Fraction, str]
    kind: str  # "ordinary" | "regular_singular" | "irregular"
    indicial_exponents: List[Tuple[Fraction, int]]
    nonrational_indicial: List[Tuple[tuple, int]]  # (coefficients, degree)
    log_degree_bound: int
    log_flag: str  # "none" | "possible" | "certain"
    newton_slopes: List[Tuple[Fraction, int]]
    ramification: int
    exp_part_degree: Fraction
    operator_order: int

    def to_dict(self) -> dict:
        return to_json(self)


@dataclass
class CompatibilityVerdict:
    verdict: str  # "compatible" | "incompatible"
    reason: str
    matching_slot: Optional[Tuple[Fraction, int]] = None

    def __bool__(self):
        return self.verdict == "compatible"


def _point(z0):
    """INFINITY for "infinity", "inf", "oo" or a +inf, else z0 read by
    `kernel.read_number` as an exact rational; any other str or a complex
    raises NonRationalPoint."""
    if isinstance(z0, str):
        if z0 in ("infinity", "inf", "oo"):
            return INFINITY
        raise NonRationalPoint(f"unsupported point {z0!r}")
    if z0 == math.inf:
        return INFINITY
    z = read_number(z0)
    if isinstance(z, tuple):
        raise NonRationalPoint(f"algebraic points of degree > 1 are out of scope: {z0!r}")
    return z


def _local(ode: DiffOp, z0):
    """The local picture: coefficients q_0, ..., q_e in t = z - z0
    (t = 1/z at infinity), not normalised, and their Euler slices.

    At infinity theta_z = -theta_t, so the Euler form
    z^e L = sum_i z^i B_i(theta_z) becomes t^(-i) B_i(-theta_t); times
    t^top, top the highest slice, it is sum_i t^(top-i) B_i(-theta_t):
    the slices of the list, keyed e lower than `theta_slices` keys them."""
    z0 = _point(z0)
    if z0 is not INFINITY:
        qs = [q.shift_arg(z0) for q in ode.coeffs]
        return qs, theta_slices(qs)
    slices = theta_slices(ode.coeffs)
    top = max(slices)
    flipped = {top - i: Poly([-c if a % 2 else c for a, c in enumerate(B.coeffs)])
               for i, B in slices.items()}
    return list(reversed(from_theta_slices(flipped))), flipped


def local_operator(ode: DiffOp, z0) -> DiffOp:
    """The operator rewritten in the local parameter: t = z - z0 at a
    finite point, t = 1/z at infinity."""
    return DiffOp(_local(ode, z0)[0])


def indicial_polynomial(ode: DiffOp, z0) -> Poly:
    """Lowest theta-slice of the operator at the point (polynomial in
    theta = t d/dt); its degree equals the order exactly when the point is
    ordinary or regular singular."""
    slices = _local(ode, z0)[1]
    return slices[min(slices)].primitive()


def newton_polygon(ode: DiffOp, z0) -> List[Tuple[Fraction, int]]:
    """Slopes (with horizontal lengths) of the local Newton polygon built
    on the points (m, val(q_(e-m)) - m); the slope-0 part is the regular
    (Fuchs) part, positive slopes signal exponential parts."""
    return _newton(_local(ode, z0)[0])


def _newton(qs) -> List[Tuple[Fraction, int]]:
    pts = [(m, q.valuation() - m) for m, q in enumerate(reversed(qs)) if not q.is_zero()]
    # dominate leftward: each point also bounds everything to its left
    suffix = [(m, min(h for _, h in pts[i:])) for i, (m, _) in enumerate(pts)]
    hull = []
    for p in suffix:  # lower convex hull, left to right
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    edges = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        edges.append((slope, x2 - x1))
    if not edges:
        edges = [(Fraction(0), 0)]
    return edges


def _log_data(indicial: Poly):
    """(rational roots, nonrational factors, log bound, flag) from the
    indicial polynomial.  Logs are certain at a repeated root; distinct
    roots at integer distance only make them possible (deciding needs
    connection data no caller requires)."""
    roots, cofactor = rational_roots_and_cofactor(indicial)
    factors = cofactor.squarefree_decomposition()
    nonrational = [(tuple(fac.coeffs), fac.degree * mult)
                   for fac, mult in factors]
    bound = 0
    flag = "none"
    classes = {}
    for r, m in roots:
        key = r - math.floor(r)  # fractional part groups integer-distance roots
        classes.setdefault(key, []).append((r, m))
    for members in classes.values():
        total = sum(m for _, m in members)
        bound = max(bound, total - 1)
        if any(m >= 2 for _, m in members):
            flag = "certain"
        elif len(members) >= 2 and flag != "certain":
            flag = "possible"
    for fac, mult in factors:
        if mult >= 2:
            flag = "certain"
            bound = max(bound, mult - 1)
        elif fac.degree >= 2 and flag == "none":
            # irrational roots at integer distance cannot be excluded
            # without factoring; stay conservative
            flag = "possible"
    return roots, nonrational, bound, flag


def classify_point(ode: DiffOp, z0) -> SingularPointReport:
    """Full local report: kind, indicial exponents with multiplicities and
    log-degree bound, Newton slopes, ramification, and the degree of the
    exponential part.

    z0 is infinity ("infinity", "inf", "oo" or a +inf) or a real number
    read exactly by `kernel.read_number`: an int, a Fraction, a float or
    an mpf, so mpf(0) is the point 0.  Another str or a complex raises
    NonRationalPoint, a NaN or a -inf ValueError, and any other type
    TypeError."""
    z0c = _point(z0)
    qs, slices = _local(ode, z0c)
    slopes = _newton(qs)
    ordinary = qs[0].valuation() == min(q.valuation() for q in qs if not q.is_zero())
    if ordinary:
        kind = "ordinary"
    elif all(s == 0 for s, _ in slopes):
        kind = "regular_singular"
    else:
        kind = "irregular"
    roots, nonrational, bound, flag = _log_data(slices[min(slices)].primitive())
    if ordinary:
        bound, flag = 0, "none"
    positive = [s for s, _ in slopes if s > 0]
    ram = math.lcm(*[s.denominator for s in positive])
    exp_deg = max(positive, default=Fraction(0)) * ram
    return SingularPointReport(
        location=z0c,
        kind=kind,
        indicial_exponents=roots,
        nonrational_indicial=nonrational,
        log_degree_bound=bound,
        log_flag=flag,
        newton_slopes=slopes,
        ramification=ram,
        exp_part_degree=exp_deg,
        operator_order=len(qs) - 1,
    )


def forbidden_scale(scale) -> Optional[str]:
    """Why no singular expansion of any operator can contain the scale
    x^alpha (log x)^beta (loglog x)^gamma, or None if some operator's can:
    gamma != 0 (iterated logarithms never occur), or beta is not a
    nonnegative integer.

    beta is read by `kernel.read_number`: an int, a Fraction, a float, an
    mpf, a complex or an mpc (a complex beta is never a nonnegative
    integer).  A NaN or an infinite beta raises ValueError, and any other
    type TypeError."""
    if scale.gamma != 0:
        return "iterated logarithms cannot appear in any solution expansion"
    beta = read_number(scale.beta)
    if isinstance(beta, tuple) or beta.denominator != 1 or beta < 0:
        return f"log power {scale.beta} is not a nonnegative integer"
    return None


def forbidden_asymptotics_check(report: SingularPointReport, scale) -> CompatibilityVerdict:
    """Can a singular expansion of the reported operator contain the scale
    x^alpha (log x)^beta (loglog x)^gamma?

    Incompatible exactly when `forbidden_scale` gives a reason, or beta
    exceeds the report's log-degree bound.  Compatible verdicts name the
    matching (exponent, log-degree) slot when one is visible; a complex
    alpha matches none.  alpha and beta are read as in `forbidden_scale`,
    so a NaN or an infinity raises ValueError."""
    reason = forbidden_scale(scale)
    if reason is not None:
        return CompatibilityVerdict("incompatible", reason)
    beta = read_number(scale.beta)
    if beta > report.log_degree_bound:
        return CompatibilityVerdict(
            "incompatible",
            f"log power {scale.beta} exceeds the operator's log-degree bound "
            f"{report.log_degree_bound}")
    alpha = read_number(scale.alpha)
    target = None if isinstance(alpha, tuple) else -(alpha + 1)
    slot = next(((r, int(beta)) for r, _m in report.indicial_exponents
                 if r == target), None)
    return CompatibilityVerdict("compatible",
                                "scale fits the regular expansion form", slot)
