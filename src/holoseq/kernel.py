"""Exact arithmetic foundation: dense univariate polynomials over
arbitrary-precision rationals, exact nullspaces of matrices over Q or Q[x],
rational roots, and `RatFun`, a reduced rational-function value that the
ODE closures take as input and that has no arithmetic of its own.

A `Poly` is integers over one denominator, so its arithmetic is integer
arithmetic: division is pseudo-division, and `poly_gcd` is the primitive
remainder sequence over Z (Knuth, TAOCP Vol. 2, 4.6.1).

`nullspace` has one eliminator for both rings: rows are reduced by
fraction-free Bareiss elimination, so no rational-function arithmetic
happens inside it.

Rational roots come from p-adic lifting of the roots of the squarefree
part s modulo a small prime to a modulus above 2 |lead(s) s(0)|, with no
integer factoring, in time polynomial in the input size.

`read_number` is the one reader of numeric arguments: an exponent, a
scale, a point or a special function's argument enters the package
through it as an exact rational (a pair of them when complex), and a NaN,
an infinity or a value of another type is refused there.

Everything in this module is pure value semantics; no operation mutates
its inputs.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Iterable, Sequence, Union

from mpmath.libmp import finf, fnan, fninf, from_float, to_rational

Rational = Union[int, Fraction]


class Poly:
    """Dense univariate polynomial over Q in ascending degree, stored in
    one integral form: a tuple of ints `nums`, the last nonzero, over an
    int `den > 0` with gcd(den, *nums) = 1; zero is `()` over 1.  `coeffs`
    is the read-only tuple of Fraction coefficients."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Rational] = ()):
        p = _poly(*_scaled([c if isinstance(c, (int, Fraction)) else Fraction(c)
                             for c in coeffs]))
        self.nums, self.den = p.nums, p.den

    @property
    def coeffs(self) -> tuple:
        d = self.den
        return tuple([Fraction(c, d) for c in self.nums])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def leading(self) -> Fraction:
        return Fraction(self.nums[-1], self.den) if self.nums else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        d = math.lcm(self.den, other.den)
        a = [c * (d // self.den) for c in self.nums]
        b = [c * (d // other.den) for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return _poly(a, d)

    def __radd__(self, other) -> "Poly":
        return self.__add__(other)

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self.nums], self.den)

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return _poly([c * other.numerator for c in self.nums],
                         self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.nums, other.nums
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(out, self.den * other.den)

    __rmul__ = __mul__

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
        """Horner evaluation; x may be Fraction, int, float, mpf or Poly.
        At an int or a Fraction it runs on the integer numerators, with
        powers of the argument's denominator, and divides once at the end."""
        nums = self.nums
        if not nums:
            return x * 0
        if isinstance(x, (int, Fraction)):
            a, b = x.numerator, x.denominator
            acc, bk = nums[-1], 1
            for c in reversed(nums[:-1]):
                bk *= b
                acc = acc * a + c * bk
            return Fraction(acc, self.den * bk)
        acc = None
        for c in reversed(self.coeffs):
            if acc is None:
                acc = c if not isinstance(x, Poly) else Poly([c])
            else:
                acc = acc * x + c
        return acc

    def shift_arg(self, c: Rational) -> "Poly":
        """Return the polynomial X |-> p(X + c)."""
        return self(Poly([c, 1]))

    def derivative(self) -> "Poly":
        return _poly([i * c for i, c in enumerate(self.nums)][1:], self.den)

    def reversed(self, degree: int = None) -> "Poly":
        """Coefficient reversal x^d * p(1/x) padded to the given degree."""
        d = self.degree if degree is None else degree
        if d < self.degree:
            raise ValueError("reversal degree below polynomial degree")
        cs = list(self.nums) + [0] * (d + 1 - len(self.nums))
        return _poly(cs[::-1], self.den)

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient; 0 for the zero poly."""
        for i, c in enumerate(self.nums):
            if c != 0:
                return i
        return 0

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r, s = _pseudo_divmod(self.nums, other.nums)
        d = s * self.den
        return _poly([c * other.den for c in q], d), _poly(r, d)

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
        return _poly(self.nums, self.nums[-1])

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer
        coefficients; 0 for the zero polynomial."""
        if self.is_zero():
            return Fraction(0)
        return Fraction(math.gcd(*self.nums), self.den)

    def primitive(self) -> "Poly":
        if self.is_zero():
            return self
        g = math.gcd(*self.nums)
        return _poly([c // g for c in self.nums], 1 if self.nums[-1] > 0 else -1)

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
        if not self.nums:
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
    denominator, and that denominator: the one place where denominators
    are cleared."""
    d = math.lcm(*[c.denominator for c in cs])
    return [c.numerator * (d // c.denominator) for c in cs], d


def _poly(nums, den: int = 1) -> Poly:
    """The Poly nums/den, for ints nums and den != 0, in integral form:
    trailing zeros dropped, the gcd of den and all nums divided out."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    g = math.gcd(den, *nums[:n]) if den > 0 else -math.gcd(den, *nums[:n])
    p = Poly.__new__(Poly)
    # from a list: tuple() of a generator sizes the tuple by realloc, and
    # such tuples pile up in CPython's per-size tuple free lists when freed
    p.nums, p.den = tuple([c // g for c in nums[:n]]), den // g
    return p


def _pseudo_divmod(a, b):
    """(q, r, s) with s a = q b + r over Z, s > 0 and len(r) <= deg b, for
    integer sequences a and b, b[-1] != 0.  A step scales by only
    |lead(b)| / gcd(lead(b), lead(r)), so s = 1 if b divides a in Z[x]."""
    r, db, lb = list(a), len(b) - 1, b[-1]
    q, s = [0] * max(0, len(r) - db), 1
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if not c:
            continue
        m = abs(lb) // math.gcd(c, lb)
        if m != 1:
            r = [x * m for x in r]
            q = [x * m for x in q]
            s *= m
            c *= m
        f = c // lb
        q[i - db] = f
        for j, y in enumerate(b):
            r[i - db + j] -= f * y
    return q, r[:db], s


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly([x])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the primitive remainder sequence over Z: Euclid on the
    primitive parts, each pseudo-remainder divided by its content."""
    a, b = a.primitive(), b.primitive()
    while b:
        a, b = b, _poly(_pseudo_divmod(a.nums, b.nums)[1]).primitive()
    return a.monic()


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
    """Rational function num/den as an input value: two Polys, stored
    reduced with a monic denominator.  It has no arithmetic; the closures
    read `num` and `den`."""

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
        self.num, self.den = num * (1 / den.leading()), den.monic()

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFun(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == Poly([1]):
            return f"RatFun({self.num!r})"
        return f"RatFun({self.num!r}, {self.den!r})"


# ---------------------------------------------------------------------------
# Exact nullspace
# ---------------------------------------------------------------------------

def nullspace(m: Sequence[Sequence]) -> list:
    """Exact basis of the right nullspace of a rectangular matrix.

    Entries are ints/Fractions, or Polys, among which an int or a Fraction
    is read as a constant Poly.  Scalar rows are scaled to ints by the lcm
    of their denominators, and one fraction-free Bareiss elimination runs
    over Z or Q[x].  Returns one primitive vector
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
    mat = [[_as_poly(x) for x in r] for r in rows]
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
    content, _ = _content_sign(v)
    return [p * (1 / content) for p in v]


def _content_sign(polys):
    """(c, s) for Polys not all zero: c > 0 the rational content of all
    their coefficients together, s the sign of the leading coefficient of
    the first nonzero one."""
    live = [p for p in polys if p.nums]
    c = Fraction(math.gcd(*[math.gcd(*p.nums) for p in live]),
                 math.lcm(*[p.den for p in live]))
    return c, 1 if live[0].nums[-1] > 0 else -1


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
        q = _poly(q.nums[v:])
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
    cs = s.nums
    ds = s.derivative().nums
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


def read_number(x):
    """x as an exact rational: an int or a Fraction as itself, a float, an
    mpf or anything else with `_mpf_` (an mpmath constant, read at the
    current precision) as its exact binary value, and a complex or an mpc
    as the pair (real, imag) of such reads.  NaN and infinities raise
    ValueError; any other type (a str, None, a `BigReal`) raises
    TypeError.  The exponents of the power witness and of a scale, the
    point of a local analysis and the arguments of the special functions
    all enter here."""
    if isinstance(x, numbers.Rational):
        return Fraction(x)
    if isinstance(x, complex) or hasattr(x, "_mpc_"):
        return read_number(x.real), read_number(x.imag)
    v = from_float(x) if isinstance(x, float) else getattr(x, "_mpf_", None)
    if v is None:
        raise TypeError(f"a number is needed, not {type(x).__name__}")
    if v in (finf, fninf, fnan):
        raise ValueError(f"{x} is not a finite number")
    return Fraction(*to_rational(v))


def read_real(x) -> Fraction:
    """`read_number` of a real x; a complex x raises TypeError."""
    q = read_number(x)
    if isinstance(q, tuple):
        raise TypeError(f"a real number is needed, not {x}")
    return q
