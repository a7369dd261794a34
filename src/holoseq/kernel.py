"""Exact arithmetic foundation: dense univariate polynomials and rational
functions over arbitrary-precision rationals, exact nullspaces of matrices
over Q or Q(x), and rational roots.

`nullspace` has one eliminator for both fields: rows are scaled to integral
form (ints, or Polys via `clear_denominators`) and reduced by fraction-free
Bareiss elimination, so no rational-function arithmetic happens inside it.

Rational roots come from p-adic lifting of the roots of the squarefree
part s modulo a small prime to a modulus above 2 |lead(s) s(0)|, with no
integer factoring, in time polynomial in the input size.

Everything in this module is pure value semantics; no operation mutates
its inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class Poly:
    """Dense univariate polynomial with Fraction coefficients, ascending
    degree.  The zero polynomial is represented by an empty coefficient
    list; otherwise the trailing (leading-degree) coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Poly(a)

    def __radd__(self, other) -> "Poly":
        return self.__add__(other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        a, da = _scaled(self.coeffs)
        b, db = _scaled(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        d = da * db
        return Poly([Fraction(c, d) for c in out])

    def __rmul__(self, other) -> "Poly":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x):
        """Horner evaluation; x may be Fraction, int, float, mpf or Poly."""
        if not self.coeffs:
            return x * 0
        acc = None
        for c in reversed(self.coeffs):
            if acc is None:
                acc = c if not isinstance(x, Poly) else Poly([c])
            else:
                acc = acc * x + c
        return acc

    def shift_arg(self, c: Rational) -> "Poly":
        """Return the polynomial X |-> p(X + c)."""
        return self(Poly([_frac(c), 1]))

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def reversed(self, degree: int = None) -> "Poly":
        """Coefficient reversal x^d * p(1/x) padded to the given degree."""
        d = self.degree if degree is None else degree
        if d < self.degree:
            raise ValueError("reversal degree below polynomial degree")
        cs = list(self.coeffs) + [Fraction(0)] * (d + 1 - len(self.coeffs))
        return Poly(cs[::-1])

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient; 0 for the zero poly."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return 0

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.coeffs[-1]
        dd = other.degree
        for i in range(len(rem) - 1, dd - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] / dlead
            q[i - dd] = f
            for j, c in enumerate(other.coeffs):
                rem[i - dd + j] -= f * c
        return Poly(q), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(_as_poly(other))[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(_as_poly(other))[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer
        coefficients; 0 for the zero polynomial."""
        if self.is_zero():
            return Fraction(0)
        den = math.lcm(*[c.denominator for c in self.coeffs])
        num = math.gcd(*[c.numerator for c in self.coeffs])
        return Fraction(num, den)

    def primitive(self) -> "Poly":
        c = self.content()
        if c == 0:
            return self
        p = Poly([x / c for x in self.coeffs])
        if p.coeffs[-1] < 0:
            p = -p
        return p

    def squarefree_decomposition(self):
        """Yield (factor, multiplicity) with factor squarefree, product of
        factor^multiplicity equal to self up to a constant."""
        p = self
        if p.degree < 1:
            return []
        out = []
        g = poly_gcd(p, p.derivative())
        w = p.exact_div(g)
        m = 1
        while w.degree > 0:
            y = poly_gcd(w, g)
            fac = w.exact_div(y)
            if fac.degree > 0:
                out.append((fac.primitive(), m))
            w = y
            g = g.exact_div(y)
            m += 1
        return out

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return "Poly(" + " + ".join(parts) + ")"


def _scaled(cs):
    """Integer numerators of ints or Fractions over their common
    denominator, and that denominator."""
    d = math.lcm(*[c.denominator for c in cs])
    return [c.numerator * (d // c.denominator) for c in cs], d


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly([x])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly()
    return (a * b).exact_div(poly_gcd(a, b)).monic()


def poly_arith(a: Poly, b, op: str) -> Poly:
    """Spec-level polynomial arithmetic dispatcher.

    op = "add" | "mul" take two polynomials; op = "shift_arg" takes a
    polynomial and a rational shift c and returns X |-> a(X + c).
    """
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "shift_arg":
        return a.shift_arg(b)
    raise ValueError(f"unknown polynomial operation {op!r}")


class RatFun:
    """Rational function: quotient of two Polys, stored reduced with a
    monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = Poly([1]) if den is None else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly([1])
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = den.coeffs[-1]
        if lead != 1:
            num = num * (1 / lead)
            den = den.monic()
        self.num, self.den = num, den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_ratfun(other) + (-self)

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_ratfun(other) / self

    def derivative(self) -> "RatFun":
        return RatFun(self.num.derivative() * self.den
                      - self.num * self.den.derivative(),
                      self.den * self.den)

    def shift_arg(self, c: Rational) -> "RatFun":
        """X |-> self(X + c)."""
        return RatFun(self.num.shift_arg(c), self.den.shift_arg(c))

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def __repr__(self):
        if self.den == Poly([1]):
            return f"RatFun({self.num!r})"
        return f"RatFun({self.num!r}, {self.den!r})"


def _as_ratfun(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction, Poly)):
        return RatFun(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# Exact nullspace
# ---------------------------------------------------------------------------

def clear_denominators(vec) -> list:
    """Polys proportional to the given entries (ints, Fractions, Polys or
    RatFuns): each entry times the monic lcm of all denominators."""
    rfs = [_as_ratfun(c) for c in vec]
    L = Poly([1])
    for c in rfs:
        if c.den.degree > 0:
            L = poly_lcm(L, c.den)
    return [c.num * L.exact_div(c.den) for c in rfs]


def nullspace(m: Sequence[Sequence]) -> list:
    """Exact basis of the right nullspace of a rectangular matrix.

    Entries may be ints/Fractions or Poly/RatFun.  Each row is scaled to
    integral form (scalar rows to ints by the lcm of their denominators,
    other rows to Polys by `clear_denominators`), and one fraction-free
    Bareiss elimination runs over Z or Q[x].  Returns one primitive vector
    per free column: ints with gcd 1 for scalar input, otherwise Polys with
    no common polynomial factor and coprime integer coefficients.  An empty
    list means the nullspace is trivial.
    """
    rows = [list(r) for r in m]
    if not rows:
        return []
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    if ncols == 0:
        return []
    if all(isinstance(x, (int, Fraction)) for r in rows for x in r):
        mat = [_scaled(r)[0] for r in rows]
        return _bareiss_nullspace(mat, ncols, 1, 0)
    mat = [clear_denominators(r) for r in rows]
    return _bareiss_nullspace(mat, ncols, Poly([1]), Poly())


def _bareiss_nullspace(mat, ncols, one, zero):
    # Bareiss keeps intermediate entries as minors of the original matrix,
    # bounding coefficient growth; `//` is exact division in Z and in Q[x]
    nrows = len(mat)
    pivots = []  # (row, col)
    prev = one
    prow = 0
    for col in range(ncols):
        # find pivot
        piv = None
        for i in range(prow, nrows):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[prow], mat[piv] = mat[piv], mat[prow]
        pc = mat[prow][col]
        # Bareiss one-step divisions stay exact only if every row below the
        # pivot is rescaled, including rows with a zero in the pivot column
        for i in range(prow + 1, nrows):
            ric = mat[i][col]
            row_i = mat[i]
            row_p = mat[prow]
            for j in range(col, ncols):
                row_i[j] = (pc * row_i[j] - ric * row_p[j]) // prev
            row_i[col] = zero
        pivots.append((prow, col))
        prev = pc
        prow += 1
        if prow == nrows:
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        left = [(r, c) for r, c in pivots if c < fc]
        # The last pivot left of fc is the leading minor of the system that
        # the pivot columns solve, so by Cramer's rule every entry of this
        # vector is a minor and every division below is exact.
        v = [zero] * ncols
        v[fc] = mat[left[-1][0]][left[-1][1]] if left else one
        for pr, pc in reversed(left):
            s = zero
            for j in range(pc + 1, fc + 1):
                if v[j]:
                    s = s + mat[pr][j] * v[j]
            v[pc] = -s // mat[pr][pc]
        basis.append(_primitive(v))
    return basis


def _primitive(v):
    """Divide a nonzero vector of ints by their gcd, or a vector of Polys
    by their monic gcd and then by the rational content of all
    coefficients."""
    if isinstance(v[0], int):
        g = math.gcd(*v)
        return [x // g for x in v]
    g = Poly()
    for p in v:
        g = poly_gcd(g, p)
        if g.degree == 0:
            break
    if g.degree > 0:
        v = [p.exact_div(g) for p in v]
    # the content of the coefficient list of every entry, read as one Poly
    content = Poly([c for p in v for c in p.coeffs]).content()
    return [p * (1 / content) for p in v]


# ---------------------------------------------------------------------------
# Rational roots
# ---------------------------------------------------------------------------

def rational_roots(p: Poly) -> list:
    """All rational roots of p, with multiplicity (each root repeated).

    By p-adic lifting (Loos, SIAM J. Comput. 12(2), 1983): the roots of
    the squarefree part s of p modulo a small prime are Newton-lifted to a
    modulus above 2 |lead(s) s(0)|, which bounds lead(s) times any rational
    root, so each is read back exactly; see `_lifted_candidates`.
    """
    roots, _ = rational_roots_and_cofactor(p)
    out = []
    for r, m in roots:
        out.extend([r] * m)
    return out


def rational_roots_and_cofactor(p: Poly):
    """Return ([(root, multiplicity), ...], cofactor) where the cofactor is
    the primitive polynomial left after deflating all rational roots (it has
    no rational roots; degree 0 when p splits over the rationals)."""
    if p.is_zero():
        raise ValueError("rational roots of the zero polynomial")
    q = p.primitive()
    roots = []
    # x = 0 roots
    v = q.valuation()
    if v > 0:
        roots.append((Fraction(0), v))
        q = Poly(q.coeffs[v:])
    if q.degree >= 1:
        for r in _lifted_candidates(q):
            mult = 0
            while q(r) == 0:
                mult += 1
                q = q.exact_div(Poly([-r, 1]))
            if mult:
                roots.append((r, mult))
    roots.sort()
    return roots, q.primitive()


def _lifted_candidates(q: Poly) -> list:
    """At most deg q rationals that include every rational root of q, for
    q with q(0) != 0.

    Let s be the primitive squarefree part of q, with leading coefficient
    c.  A root a/b of s has b | c and a | s(0).  Take the first prime
    p > 2 deg s that does not divide c and at which every root of s mod p
    is simple; such a p exists, since only the divisors of c disc(s) != 0
    fail.  Then a/b is a simple root mod p, and Newton's iteration lifts
    it to the unique root r mod m = p^(2^k) > 2 |c s(0)|.  The integer
    y = c a/b has |y| <= |c s(0)| < m/2, so it is the symmetric residue of
    c r mod m, and the candidate y/c equals a/b.  The time is polynomial
    in the size of q.
    """
    s = q.exact_div(poly_gcd(q, q.derivative())).primitive()
    cs = [c.numerator for c in s.coeffs]
    ds = [c.numerator for c in s.derivative().coeffs]
    lead = cs[-1]
    p = 2 * s.degree
    while True:
        p += 1
        if lead % p == 0 or any(p % k == 0
                                for k in range(2, math.isqrt(p) + 1)):
            continue
        rs = [r for r in range(p) if _eval_mod(cs, r, p) == 0]
        if all(_eval_mod(ds, r, p) for r in rs):
            break
    m = p
    while m <= 2 * abs(lead * cs[0]):
        m *= m
        rs = [(r - _eval_mod(cs, r, m) * pow(_eval_mod(ds, r, m), -1, m)) % m
              for r in rs]
    out = []
    for r in rs:
        y = lead * r % m
        out.append(Fraction(y - m if 2 * y > m else y, lead))
    return out


def _eval_mod(cs, x: int, m: int) -> int:
    """Horner evaluation of integer coefficients (ascending) mod m."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc
