"""High-precision numerics with explicit error control.

The central difficulty is the alternating binomial sum

    sum_k binom(n,k) (-1)^k f(k),

whose terms reach about 2^n while the result stays O(loglog n), with 2^-g
the requested absolute error.  It is computed in fixed point: the values
become integers F_k = round(f(k) 2^p) at p = n + g + 2*log2(n) + 12 bits,
and D_n = sum_k binom(n,k) (-1)^k F_k is summed exactly at every n of a
grid (Flajolet and Sedgewick, "Mellin transforms and asymptotics: finite
differences and Rice's integrals", TCS 144, 1995).  `_sums` takes the
cheaper of two exact paths: a forward-difference sweep, max(ns)^2/2
additions, for a dense grid, and for a sparse one a direct sum at each n,
binary splitting over the n/2 + 1 terms binom(n,k) (F_k +- F_(n-k)) of
the symmetric binomial row; the direct sum runs when
40 sum(ns) < max(ns)^2.  The sweep holds a row as one int64 array of
signed 32-bit limbs, one row of limbs per entry, so a row step is one
array operation; carries are propagated every 30 rows, and a limb is
added on top when an entry outgrows the ones it has (`_sweep`).
Each F_k is within 1/2 + 16 M_n of 2^p f(k), M_n bounding |f(k)| for
k <= n, so the error of D_n 2^-p is at most 2^(n-p) (1/2 + 16 M_n): the
bound is known before the sums, and no retry is needed.

The f-tables of the log and power witnesses are built from the primes
(`log_seq`, `power_seq`): log k is additive and k^alpha multiplicative, so
a composite k = q m is the sum L_q + L_m, or one rounded product, of two
entries already in the table.  Only a prime takes real work:
log p = log(p-1) + 2 atanh(1/(2p-1)), an integer series (Brent and
Zimmermann, "Modern Computer Arithmetic", 4.9).  For alpha = a/b with
a > 0 and b <= 10, p^alpha is floor(2^w p^(a/b)), the certified integer
b-th root of p^a 2^(b w) (`_iroot`); any other alpha takes one
exp(alpha log p).  Every entry carries an integer count of its error in
units of 2^-w, the working precision w = prec + guard.  In the log table
a prime adds 1 to the count of p - 1 and a composite sums its factors'
counts, so log k is within 2 log2 k units; the guard is derived from the
counts, and every value returned is within 2^(1-prec) relative, inside
the 2^(4-prec) that `binomial_diff_grid` asks of f.  `_f_tables` takes
these tables as integers (`fixed`): each entry rounded to prec
significant bits, to nearest with ties to even, then to p fractional
bits, ties up (`_rounded`), which are the two roundings of the per-k
route, f(k, p) as an mpf and `_scaled` of it, with no mpf made.

Values are returned as ``BigReal``: a midpoint and the absolute error
bound that its producer derived (the sums above, `gamma`, `lambert_w`,
`primes.li`).  A BigReal has no arithmetic and is never an input, so
every bound comes from the code that computed the value.  The check of a
bound is `BigReal.agrees_with`: recompute at more bits and see that the
two enclosures overlap.  The grids have fixed-point cores that return
the integers before any BigReal is made (`binomial_diff_fixed`,
`binomial_diff_stream_fixed`): the log and power witnesses read each
float sample as the correctly rounded quotient D_n / 2^p, and the float
path of `closure.binomial_diff_seq` makes its mpf terms and bounds from
the integer sums directly.
"""

from __future__ import annotations

import contextvars
import math
import os
from fractions import Fraction
from itertools import accumulate
from operator import add, index, sub
from typing import Callable, Iterable

import mpmath
import numpy as np
from mpmath import mp, mpc, mpf
from mpmath.libmp import (fone, from_man_exp, fzero, mpc_exp, mpc_mul, mpc_pos,
                          mpf_exp, mpf_mul, mpf_pos, round_nearest, round_up)

from .kernel import read_number, read_real

DEFAULT_PRECISION_CAP = 1 << 18  # bits


class PrecisionExhausted(Exception):
    """The requested error bound is unachievable at the configured
    precision cap (or with the precision of the supplied data)."""


class PoleAtNonpositiveInteger(Exception):
    """Gamma evaluated at a pole."""


def precision_cap() -> int:
    env = os.environ.get("HOLO_PRECISION_CAP")
    if env:
        return int(env)
    return DEFAULT_PRECISION_CAP


def _check_precision(p: int):
    cap = precision_cap()
    if p > cap:
        raise PrecisionExhausted(
            f"needs {p} working bits, precision cap is {cap}")


class BigReal:
    """A midpoint value (mpf or mpc) and the absolute error bound (mpf) its
    producer derived: |value - true| <= bound.  It is an output only, with
    no arithmetic."""

    __slots__ = ("value", "bound")

    def __init__(self, value, bound=0):
        self.value = value
        self.bound = mpf(bound)
        # the sign bit: refuses negatives and -inf, without an mpf compare
        if self.bound._mpf_[0]:
            raise ValueError("negative error bound")

    def log2_bound(self) -> float:
        if self.bound == 0:
            return float("-inf")
        return float(mpmath.log(self.bound, 2))

    def agrees_with(self, other: "BigReal") -> bool:
        """Do the two enclosures overlap?"""
        return abs(self.value - other.value) <= self.bound + other.bound

    def __repr__(self):
        return f"BigReal({self.value}, bound~2^{self.log2_bound():.1f})"


def _ulp(v: mpf) -> mpf:
    if v == 0:
        return mpf(2) ** (-mp.prec)
    _, e = mpmath.frexp(abs(v))
    return mpf(2) ** (e - mp.prec + 1)


# ---------------------------------------------------------------------------
# Alternating binomial sums
# ---------------------------------------------------------------------------

def _alternating_precision(n: int, target_bits: int) -> int:
    return n + target_bits + 2 * math.ceil(math.log2(n + 2)) + 12


def _indices(ns) -> list:
    ns = sorted(set(int(n) for n in ns))
    if ns and ns[0] < 0:
        raise ValueError("indices must be nonnegative")
    return ns


# the cost of `_paired` per unit of n, in sweep additions (`_sums`)
_PRODUCT_COST = 40
# terms summed by recurrence at a leaf of `_paired`'s product tree
_LEAF = 16


def _sums(table, ns, op=sub) -> dict:
    """{n: sum_k binom(n,k) (-1)^k table[k] for n in ns} with `sub`, and
    sum_k binom(n,k) table[k] with `add`, for sorted `ns`.

    Both paths are exact integer sums, so the result does not depend on
    the choice.  The sweep costs max(ns)^2/2 additions whatever the grid;
    the direct sum costs about c n additions at each n, c sum(ns) in all,
    and runs when c sum(ns) < max(ns)^2 with c = 40.  Timed on log and sqrt
    tables on sparse grids of 8 and 24 points, the binary split of
    `_paired` breaks even with the limb sweep at c = 32-39 at 394 bits,
    34-62 at 796 bits, 41-75 at 1598 bits and 24-54 (mostly 26-30) at
    2550 bits; c = 40 is at most about 1.6 times off the break-even at
    any of them.  A dense grid (sum(ns) about max(ns)^2/2) always
    sweeps."""
    nmax = ns[-1]
    if _PRODUCT_COST * sum(ns) < nmax * nmax:
        return {n: _paired(table, n, op) for n in ns}
    return _sweep(table, ns, op)


def _paired(table, n: int, op) -> int:
    """The sum of `_sums` at one n, by binary splitting.

    Since binom(n,k) = binom(n,n-k), the sum is sum_{k<=h} binom(n,k) u_k
    over h = n // 2 with u_k = table[k] + s table[n-k] (s = (-1)^n for
    `sub`, 1 for `add`), u_h = table[h] alone for even n, and u_k signed by
    (-1)^k for `sub`.  Over a range [a, b) of k, P = prod (n-j),
    Q = prod (j+1) and T = sum_k u_k P(a,k) Q(k,b), so two halves combine
    as (P1 P2, Q1 Q2, T1 Q2 + P1 T2), and the sum is T(0,h+1) / Q(0,h+1),
    an exact division (Haible and Papanikolaou, "Fast multiprecision
    evaluation of series of rational numbers", ANTS-III, 1998).  A leaf of
    `_LEAF` terms runs T = (T + P u_k) (k+1): products of the p-bit u_k by
    small integers.  The u_k are read from the table in the leaves, so no
    list of them is made."""
    twin = sub if op is sub and n & 1 else add
    alt = op is sub

    def split(a, b):
        if b - a <= _LEAF:
            P, Q, T = 1, 1, 0
            for k in range(a, b):
                u = twin(table[k], table[n - k]) if 2 * k < n else table[k]
                T = (T - P * u if alt and k & 1 else T + P * u) * (k + 1)
                P *= n - k
                Q *= k + 1
            return P, Q, T
        m = (a + b) >> 1
        P1, Q1, T1 = split(a, m)
        P2, Q2, T2 = split(m, b)
        return P1 * P2, Q1 * Q2, T1 * Q2 + P1 * T2

    _, Q, T = split(0, (n >> 1) + 1)
    return T // Q


def _sweep(table, ns, op=sub) -> dict:
    """The sums of `_sums` as forward differences: {n: d_n[0] for n in ns}
    for the rows d_0 = table, d_j[k] = op(d_{j-1}[k], d_{j-1}[k+1]).

    Each row is one int64 array of shape (entries, L), an entry being
    sum_i x_i 2^(32 i) over its L signed limbs x_i, so a row step is one
    array operation on every limb, and the limbs may leave [0, 2^32)
    between carry passes (carries propagated late; Knuth, TAOCP vol. 2,
    4.3.1).  Row j lives at indices j..max(ns) of one of two arrays,
    taken in turn, so its head d_j[0] stays at index j of that array and
    no head is copied.

    Headroom: a carry pass (x_i -= c_i 2^32, x_(i+1) += c_i with
    c_i = x_i >> 32) leaves every limb of magnitude below 4/3 2^32 when
    the limbs before it were below 4/3 2^62, and a row step at most
    doubles a limb, so with a pass after every `_CARRY_ROWS` = 30 steps
    no limb reaches 4/3 2^62 < 2^63.  The top limb takes the carries:
    after each pass, once one reaches 2^31 in magnitude a limb is added
    above it, which holds its carry (below 2^31).  An entry of row j can
    reach 2^j times the largest entry of the table, so the limb count
    grows with the row and is not fixed in advance.  Every operation
    is exact in int64 and keeps the sum of the limbs, so the heads are
    the integers of the list sweep; they are normalised at the end
    (low limbs in [0, 2^32), the top one signed 32-bit) and read back
    by `int.from_bytes` in two's complement.  The entries may be of any
    integer type (a gmpy2 mpz under mpmath's gmpy backend): they are read
    as ints once, by `operator.index`."""
    nmax = ns[-1]
    m = nmax + 1
    table = list(map(index, table[:m]))
    width = max(map(int.bit_length, table)) // 32 + 1
    raw = b"".join(x.to_bytes(4 * width, "little", signed=True)
                   for x in table)
    rows = [np.frombuffer(raw, "<u4").reshape(m, width).astype(np.int64),
            np.zeros((m, width), np.int64)]
    rows[0][:, -1] = np.frombuffer(raw, "<i4")[width - 1::width]
    step = np.subtract if op is sub else np.add
    for j in range(1, m):
        old, new = rows[(j - 1) & 1], rows[j & 1]
        step(old[j - 1:-1], old[j:], out=new[j:])
        if j % _CARRY_ROWS == 0:
            _carry(new[j:])
            top = new[j:, -1]
            if top.max() >= 1 << 31 or top.min() < -(1 << 31):
                rows = [_grow(r) for r in rows]
    # row n's head is at index n of rows[n & 1]
    rows[0][1::2] = rows[1][1::2]
    heads = rows[0][np.array(ns)]
    while _carry(heads).any():
        pass
    heads = _grow(heads) & 0xFFFFFFFF
    size = 4 * heads.shape[1]
    raw = heads.astype("<u4").tobytes()
    return dict(zip(ns, [int.from_bytes(raw[i:i + size], "little", signed=True)
                         for i in range(0, len(raw), size)]))


# row steps of `_sweep` between two carry passes: each at most doubles a
# limb, and 30 of them take a limb below 4/3 2^32 to below 4/3 2^62 < 2^63
_CARRY_ROWS = 30


def _carry(d):
    """One carry pass over the entries `d` (in place, C-contiguous): each
    limb below the top keeps its residue mod 2^32 and adds the rest to
    the limb above.  Returns the carries."""
    c = d >> 32
    c[:, -1] = 0
    top = d[:, -1].copy()
    d &= 0xFFFFFFFF
    d[:, -1] = top
    d.reshape(-1)[1:] += c.reshape(-1)[:-1]
    return c


def _grow(d):
    """The entries `d` with one more limb on top, which takes the carry
    of the old top limb: that one is left in [0, 2^32)."""
    out = np.zeros((d.shape[0], d.shape[1] + 1), np.int64)
    out[:, :-1] = d
    c = out[:, -2] >> 32
    out[:, -2] -= c << 32
    out[:, -1] = c
    return out


def _scaled(x, p: int, ceil: bool = False) -> int:
    """x 2^p rounded to the nearest integer (error at most 1/2), or rounded
    up with `ceil`, exactly, for a real int, float, Fraction or mpf."""
    if isinstance(x, mpf):
        sign, man, exp, _ = x._mpf_
        if not man and exp:
            raise ValueError("non-finite value in an alternating sum")
        num = -man if sign else man
        exp += p
        if exp >= 0:
            return num << exp
        den = 1 << -exp
    else:
        num, den = Fraction(x).as_integer_ratio()
        num <<= p
    return -(-num // den) if ceil else (2 * num + den) // (2 * den)


def _fixed_tables(values, p: int) -> list:
    """[round(v 2^p)] as one integer table, or the real and the imaginary
    table when any value is complex."""
    if any(isinstance(v, (mpc, complex)) for v in values):
        return [[_scaled(v.real, p) for v in values],
                [_scaled(v.imag, p) for v in values]]
    return [[_scaled(v, p) for v in values]]


def _rounded(man: int, exp: int, prec: int, p: int) -> int:
    """`_scaled(x, p)` of the mpf x = from_man_exp(man, exp, prec,
    round_nearest), in integers: man 2^exp (man signed) rounded to prec
    significant bits, to nearest with ties to even as mpmath rounds, then
    times 2^p rounded to an integer, ties up.  The two roundings of an
    entry of the prime-built tables, which `_per_k` callables return as
    an mpf at prec bits and `_f_tables` scales to p fractional bits."""
    neg = man < 0
    if neg:
        man = -man
    n = man.bit_length() - prec
    if n > 0:
        t = man >> (n - 1)
        # the half bit set, and an odd result or a nonzero bit below it
        if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
            man = (t >> 1) + 1
        else:
            man = t >> 1
        exp += n
    if neg:
        man = -man
    exp += p
    if exp >= 0:
        return man << exp
    return (man + (1 << (-exp - 1))) >> -exp


def _from_fixed(sums, ns, p: int) -> list:
    """[the mpf with value sums[0][n] 2^-p exactly for n in ns], or the
    mpc with real part sums[0][n] 2^-p and imaginary part sums[1][n] 2^-p
    when two sums are given."""
    if len(sums) == 1:
        (s,) = sums
        return [mp.make_mpf(from_man_exp(s[n], -p)) for n in ns]
    re, im = sums
    return [mp.make_mpc((from_man_exp(re[n], -p), from_man_exp(im[n], -p)))
            for n in ns]


def _upper(man: int, exp: int) -> mpf:
    """man 2^exp rounded up to 53 bits."""
    return mp.make_mpf(from_man_exp(man, exp, 53, round_up))


def _f_tables(f: Callable, nmax: int, start: int, p: int) -> list:
    """The integer tables of f(k) 2^p for k <= nmax, zero below `start`:
    `_scaled(f(k, p), p)`, which a `_per_k` callable gives as integers
    directly (its `fixed`).  The tables that `_per_k` callables build
    while f is evaluated here are dropped on return, before the sums run
    (see `_per_k`)."""
    lead = min(start, nmax + 1)
    ks = range(lead, nmax + 1)
    token = _tabulating.set({})
    try:
        fixed = getattr(f, "fixed", None)
        if fixed is not None:
            tables = fixed(ks, p)
        else:
            with mp.workprec(p):
                tables = _fixed_tables([f(k, p) for k in ks], p)
    finally:
        _tabulating.reset(token)
    return [[0] * lead + t for t in tables]


def _error_numerators(tables, ns, p: int) -> dict:
    """{n: X_n} with X_n 2^(n-3p-1) = 2^(n-p) (r + 16 M_n), the error
    bound at n.

    r bounds the rounding of one table entry: 1/2 for a real table,
    sqrt(2)/2 <= 1 for a complex pair.  M_n = A_n (1 + 2^(5-p)) 2^-p bounds
    |f(k)| for k <= n, with A_n the largest |re| + |im| + 1 of those
    entries: the returned f(k) is at most A_k 2^-p in modulus and within
    2^(4-p) |f(k)| of the true value."""
    rounding = len(tables) << 2 * p
    scale = 32 * ((1 << p) + 32)
    mags = (map(abs, tables[0]) if len(tables) == 1
            else (abs(x) + abs(y) for x, y in zip(*tables)))
    A = list(accumulate(mags, max))
    return {n: rounding + scale * (A[n] + 1) for n in ns}


def binomial_diff_eval(f: Callable, n: int, target_bits: int,
                       start: int = 1) -> BigReal:
    """sum_{k=start}^{n} binom(n,k) (-1)^k f(k) with |error| <= 2^-target_bits.

    `f(k, prec)` must return an mpf/mpc with relative error at most
    2^(4-prec).  See `binomial_diff_grid` for the working precision and the
    error bound.
    """
    return binomial_diff_grid(f, [n], target_bits, start=start)[n]


def binomial_diff_grid(f: Callable, ns: Iterable[int], target_bits: int,
                       start: int = 1) -> dict:
    """Evaluate the alternating binomial sum at every n in `ns`, sharing
    one table of f-values: {n: BigReal}, read from the integers of
    `binomial_diff_fixed`.

    The table holds the integers F_k = round(f(k, p) 2^p) for k <= max(ns),
    with F_k = 0 for k < start, at p = n + target_bits + 2 log2 n + 12 bits
    for the largest n.  `_sums` adds them up exactly, by one
    forward-difference sweep when 40 sum(ns) >= max(ns)^2 (a dense grid)
    and otherwise by the direct binomial sum at each n, a binary split.
    The error bound is therefore known before the sums:
    |value - sum| <= 2^(n-p) (1/2 + 16 M_n), with M_n an upper bound on
    |f(k)| for k <= n read from the table (1 in place of 1/2 for complex
    f).  It is at most 2^-target_bits whenever |f(k)| <= 256 n^2 for
    k <= n; a faster-growing f is evaluated once more at the precision
    this formula asks for.  The value at n is the sum D_n 2^-p exactly
    (an mpc for complex f), the bound X_n 2^(n-3p-1) rounded up to 53
    bits.  Deterministic: identical (ns, target_bits) give identical
    bits.
    """
    p, sums, errors = binomial_diff_fixed(f, ns, target_bits, start)
    values = _from_fixed(sums, errors, p)
    return {n: BigReal(v, _upper(x, n - 3 * p - 1))
            for (n, x), v in zip(errors.items(), values)}


def binomial_diff_fixed(f: Callable, ns: Iterable[int], target_bits: int,
                        start: int = 1):
    """The fixed-point core of `binomial_diff_grid`: (p, sums, errors),
    with p the working precision, `sums` one dict {n: D_n} per table (the
    real one, or the real and the imaginary one for complex f) with
    D_n = sum_k binom(n,k) (-1)^k F_k, and `errors` the dict {n: X_n} in
    increasing n, so that |sum - D_n 2^-p| <= X_n 2^(n-3p-1) <=
    2^-target_bits (see `_error_numerators`).  An empty grid gives
    (0, [{}], {}).  The witnesses read their floats as D_n / 2^p, a
    correctly rounded division, and so make no mpf per grid point."""
    ns = _indices(ns)
    if not ns:
        return 0, [{}], {}
    nmax = ns[-1]
    g = target_bits
    start = max(start, 0)
    p = _alternating_precision(nmax, g)
    _check_precision(p)
    tables = _f_tables(f, nmax, start, p)
    errors = _error_numerators(tables, ns, p)
    # r + 16 M_n <= 2^c with c = bit_length(X_n) - 2p - 1; one more bit
    # covers the drift of M_n between two precisions
    need = max(n + g + (x - 1).bit_length() - 2 * p
               for n, x in errors.items())
    if need > p:
        p = need
        _check_precision(p)
        tables = _f_tables(f, nmax, start, p)
        errors = _error_numerators(tables, ns, p)
    # reached only by an f that breaks its contract
    if any(errors[n] > 1 << (3 * p + 1 - n - g) for n in ns):
        raise PrecisionExhausted("alternating sum failed to meet its bound")
    return p, [_sums(t, ns) for t in tables], errors


def binomial_diff_stream_grid(stream, ns: Iterable[int], target_bits: int,
                              start: int = 0) -> dict:
    """Alternating binomial sums of stored terms with per-term bounds b_k,
    at every n in `ns`: {n: BigReal}, read from the integers of
    `binomial_diff_stream_fixed`.

    The terms are rounded to F_k = round(t_k 2^p) at the working precision
    p of `binomial_diff_grid` and summed exactly by `_sums`, which sweeps
    a dense grid and sums a sparse one directly by binary splitting
    (40 sum(ns) < max(ns)^2);
    the same sums with + in place of - over ceil(b_k 2^p) + 1 give the
    bound 2^-p sum_k binom(n,k) (ceil(b_k 2^p) + 1) exactly.  The achievable
    accuracy is limited by the data: if that bound exceeds
    2^-target_bits, PrecisionExhausted is raised (more working precision
    cannot help)."""
    p, sums, amplified = binomial_diff_stream_fixed(stream, ns, target_bits,
                                                    start)
    values = _from_fixed(sums, amplified, p)
    return {n: BigReal(v, _upper(x, -p))
            for (n, x), v in zip(amplified.items(), values)}


def binomial_diff_stream_fixed(stream, ns: Iterable[int], target_bits: int,
                               start: int = 0):
    """The fixed-point core of `binomial_diff_stream_grid`: (p, sums,
    amplified), with `sums` one dict {n: D_n} per table (two for complex
    terms) and `amplified` the dict {n: B_n} in increasing n, so that the
    sum at n is D_n 2^-p within B_n 2^-p.  An empty grid gives
    (0, [{}], {})."""
    ns = _indices(ns)
    if not ns:
        return 0, [{}], {}
    nmax = ns[-1]
    if len(stream.terms) <= nmax:
        raise ValueError("stream too short")
    p = _alternating_precision(nmax, target_bits)
    _check_precision(p)
    lead = min(max(start, 0), nmax + 1)
    bounds = stream.bounds or [0] * len(stream.terms)
    slack = [0] * lead + [_scaled(b, p, ceil=True) + 1
                          for b in bounds[lead:nmax + 1]]
    amplified = _sums(slack, ns, add)
    if any(amplified[n] > 1 << (p - target_bits) for n in ns):
        raise PrecisionExhausted(
            "input bounds amplify beyond the requested accuracy")
    tables = _fixed_tables([0] * lead + stream.terms[lead:nmax + 1], p)
    return p, [_sums(t, ns) for t in tables], amplified


def binomial_diff_stream_eval(stream, n: int, target_bits: int,
                              start: int = 0) -> BigReal:
    """The sum of `binomial_diff_stream_grid` at the single index n."""
    return binomial_diff_stream_grid(stream, [n], target_bits, start)[n]


# ---------------------------------------------------------------------------
# log k and k^alpha from the primes
# ---------------------------------------------------------------------------

def _atanh_inv(x: int, w: int) -> int:
    """2 atanh(1/x) 2^w rounded to an integer within 1, for an integer
    x >= 3 and w >= 5.

    The series sum_j x^-(2j+1)/(2j+1) is summed in integers at w + s bits.
    Each term floor(2^(w+s) / ((2j+1) x^(2j+1))) is exact, since nested
    floors of positive integers compose, so the n + 1 terms and the tail
    after them fall short by less than n + 2 units; x^2 >= 9 makes
    n <= (w + s)/3 + 1 and 2 (n + 2) <= 2^(s-1).  Doubling and rounding
    away the s extra bits leaves an error below 1/2 + 1/2."""
    s = w.bit_length() + 2
    t = (1 << (w + s)) // x
    x2 = x * x
    total = t
    j = 3
    while t:
        t //= x2
        total += t // j
        j += 2
    return (total + (1 << (s - 2))) >> (s - 1)


def _least_factor(n: int, primes: list):
    """The smallest prime factor of a composite n, None for a prime;
    `primes` holds every prime below n in increasing order."""
    for q in primes:
        if q * q > n:
            return None
        if n % q == 0:
            return q
    return None


def _iroot(n: int, b: int) -> int:
    """floor(n^(1/b)) for integers n >= 0 and b >= 1, certified: math.isqrt
    for b = 2, otherwise Newton's iteration from a float seed, doubling the
    precision (Brent and Zimmermann, "Modern Computer Arithmetic", 1.5),
    and a final check y^b <= n < (y+1)^b that steps y to the floor."""
    if b == 2:
        return math.isqrt(n)
    y = _root_near(n, b)
    while True:
        z = y ** (b - 1)
        r = n - z * y
        if r < 0:
            y -= 1
        # (y+1)^b >= y^b + b y^(b-1) spares the power in almost every case
        elif r >= b * z and (y + 1) ** b <= n:
            y += 1
        else:
            return y


def _root_near(n: int, b: int) -> int:
    """y with floor(n^(1/b)) <= y <= floor(n^(1/b)) + 1, for b <= 16.

    Up to 40 bits of root: the float root of n's leading 64 bits, within
    2^-5 of n^(1/b), rounded.  Above: with k = bit_length(n) // b and
    s = (k - 10) // 2, the root of n >> b s shifted left by s is within
    2^(s+1) of n^(1/b), a relative error e < 2^(2+s-k).  One Newton step
    from it lands at most (b-1)/2 e^2 n^(1/b) < 1/4 above the root, never
    below it (by the inequality of the means), and the step in integers
    is the floor of that real step, since nested floors compose."""
    k = n.bit_length() // b
    if k <= 40:
        t = max(0, n.bit_length() - 64)
        return round(float(n >> t) ** (1 / b) * 2.0 ** (t / b))
    s = (k - 10) // 2
    z = _root_near(n >> b * s, b)
    # the step from y = z 2^s: n // y^(b-1) = (n >> s (b-1)) // z^(b-1)
    return (((b - 1) * z << s) + (n >> s * (b - 1)) // z ** (b - 1)) // b


class _Table:
    """Entries of a completely additive or multiplicative function of
    k >= 1, each a value at w = prec + guard bits with an integer error
    count in units of 2^-w, filled in increasing k.  A composite k = q m,
    with q its smallest prime factor, gets `_combine` of the entries of q
    and m and the sum of their counts; a prime p gets `_prime(p)`.  The
    counts do not depend on w."""

    def __init__(self, prec: int, guard: int, one):
        self.prec = prec
        self.w = prec + guard
        self.values = [None, one]
        self.counts = [None, 0]
        self.primes = []

    def entry(self, k: int):
        values, counts = self.values, self.counts
        for n in range(len(values), k + 1):
            q = _least_factor(n, self.primes)
            if q is None:
                self.primes.append(n)
                v, c = self._prime(n)
            else:
                v, c = self._combine(values[q], values[n // q])
                c += counts[q] + counts[n // q]
            values.append(v)
            counts.append(c)
        return values[k], counts[k]


class _LogTable(_Table):
    """log k in fixed point: integers L_k within counts[k] of 2^w log k.

    log p = log(p-1) + 2 atanh(1/(2p-1)), the series rounded within 1, so
    a prime's count is that of p-1 plus 1 (log 2 = 2 atanh(1/3) gets 1),
    and counts[k] <= 2 log2 k by induction over p - 1 = 2 m."""

    def __init__(self, prec: int, guard: int):
        super().__init__(prec, guard, 0)

    def _prime(self, p):
        return (self.values[p - 1] + _atanh_inv(2 * p - 1, self.w),
                self.counts[p - 1] + 1)

    def _combine(self, a, b):
        return a + b, 0

    def output(self, v):
        return mp.make_mpf(from_man_exp(v, -self.w, self.prec, round_nearest))

    def fixed(self, v, p):
        return _rounded(v, -self.w, self.prec, p)


# the largest denominator b of alpha = a/b that `_PowerTable` takes by the
# integer b-th root.  Timed on the 365 primes up to 2470 at 2550 bits, the
# roots beat one exp per prime up to b = 10 (0.12-0.13 s against
# 0.14-0.15 s for the table), tied at 11 and lost from 12 on (0.17-0.22 s):
# the exact powers y^(b-1) of the check grow with b, exp does not
_ROOT_CAP = 10


def _root_exponent(ratios: list):
    """(a, b) for real alpha = a/b in lowest terms with a > 0 and
    b <= _ROOT_CAP, the root route of `_PowerTable`; None otherwise."""
    if len(ratios) == 1 and ratios[0] > 0 \
            and ratios[0].denominator <= _ROOT_CAP:
        return ratios[0].as_integer_ratio()
    return None


class _PowerTable(_Table):
    """k^alpha in floating point: mpf (or mpc) tuples at w bits within the
    relative error counts[k] 2^-w.  Floating, not fixed point, so that
    |k^alpha| < 1 (Re alpha < 0) keeps its relative bound.

    A product is rounded once, which adds 1 to its count and 1 more for
    the product of its factors' errors.  `ratios` are the exact real (and
    imaginary) part of alpha.  On the root route, alpha = a/b in lowest
    terms with a > 0 and b <= _ROOT_CAP, a prime gets floor(2^w p^(a/b)),
    the certified integer b-th root of p^a 2^(b w), count 1 (p^alpha >= 1
    makes the floor's absolute error a relative one); so
    counts[k] <= 3 log2 k.  Otherwise, with `bound` >= |re| + |im|, a
    prime gets exp(alpha L_p 2^-w) at w bits, L_p from a log table at the
    same w with count c_p: the argument, floored per part, is within
    bound c_p + 2 units of alpha log p, and exp's own rounding (1 ulp per
    part) and the second order bring the count to bound c_p + 6.  So
    counts[k] <= (2 bound + 8) log2 k on the exp route."""

    def __init__(self, prec: int, guard: int, ratios: list, bound: int):
        self.complex = len(ratios) == 2
        super().__init__(prec, guard, (fone, fzero) if self.complex else fone)
        self.ratios = ratios
        self.bound = bound
        self.root = _root_exponent(ratios)
        self.logs = None if self.root else _LogTable(prec, guard)

    def _prime(self, p):
        w = self.w
        if self.root:
            a, b = self.root
            return from_man_exp(_iroot(p ** a << b * w, b), -w), 1
        log_p, c = self.logs.entry(p)
        x = [from_man_exp(log_p * r.numerator // r.denominator, -w)
             for r in self.ratios]
        value = (mpc_exp(tuple(x), w, round_nearest) if self.complex
                 else mpf_exp(x[0], w, round_nearest))
        return value, self.bound * c + 6

    def _combine(self, a, b):
        mul = mpc_mul if self.complex else mpf_mul
        return mul(a, b, self.w, round_nearest), 2

    def output(self, v):
        if self.complex:
            return mp.make_mpc(mpc_pos(v, self.prec, round_nearest))
        return mp.make_mpf(mpf_pos(v, self.prec, round_nearest))

    def fixed(self, v, p):
        if self.complex:
            return tuple(self._part(x, p) for x in v)
        return self._part(v, p)

    def _part(self, x, p):
        sign, man, exp, _ = x
        return _rounded(-man if sign else man, exp, self.prec, p)


# the tables `_per_k` callables build during one `_f_tables` evaluation
_tabulating = contextvars.ContextVar("_tabulating")


def _per_k(make: Callable, rate: int) -> Callable:
    """f(k, prec) for k >= 1, read from one table built by make(prec, guard)
    and built anew when prec changes.

    The guard starts at bit_length(rate log2 prec) + 2, enough for the
    count bound rate log2 k of every k <= prec, and the table is rebuilt
    with a guard taken from the count when an entry's count c reaches
    2^(guard-2).  So c 2^-w < 2^(-prec-2), and the value returned, rounded
    to prec bits, is within 2^-prec + 3 c 2^-w < 2^(1-prec) relative of
    f(k) (log k >= log 2 turns the absolute count of log into a relative
    one).

    f.fixed(ks, p) gives the integer tables `_f_tables` makes of f at p
    bits, [[_scaled(f(k, p), p) for k in ks]] (the real and the imaginary
    table for a complex f), from the same entries: each table's `fixed`
    rounds an entry twice in integers (`_rounded`), with no mpf.

    The table is kept with f between direct calls, but while `_f_tables`
    evaluates f it is kept in the scope `_f_tables` opens, so that it dies
    with the scope and not with f, which callers may hold through the
    sums."""
    key = object()
    kept = {}

    def entries(ks, prec):
        """(table, entry) for each k in ks, in turn."""
        if ks and min(ks) < 1:
            raise ValueError(f"the table starts at k = 1, not at {min(ks)}")
        tables = _tabulating.get(kept)
        table = tables.get(key)
        if table is None or table.prec != prec:
            table = tables[key] = make(
                prec, (rate * prec.bit_length()).bit_length() + 2)
        top = max(ks, default=0)
        table.entry(top)
        for k in ks:
            count = table.counts[k]
            if count >> (table.w - prec - 2):
                table = tables[key] = make(prec, count.bit_length() + 2)
                table.entry(top)
            yield table, table.values[k]

    def f(k, prec):
        ((table, value),) = entries((k,), prec)
        return table.output(value)

    def fixed(ks, p):
        rows = [table.fixed(value, p) for table, value in entries(ks, p)]
        if rows and isinstance(rows[0], tuple):
            return [list(part) for part in zip(*rows)]
        return [rows]

    f.fixed = fixed
    return f


def log_seq() -> Callable:
    """f(k, prec) = log k for k >= 1 within the relative error 2^(1-prec),
    from a fixed-point table that calls no mpmath function: only the
    primes sum a series (see `_LogTable`).  Each call of log_seq() makes
    a new table."""
    return _per_k(_LogTable, 2)


def power_seq(alpha) -> Callable:
    """f(k, prec) = k^alpha = exp(alpha log k) for k >= 1 within the
    relative error 2^(1-prec) of the alternating-sum contract, for real,
    complex or rational alpha.

    k^alpha is multiplicative, so only the primes take real work.  For
    alpha = a/b with a > 0 and b <= _ROOT_CAP = 10 (1/2, 1/3, 2/3, 3/2,
    7/2, ...) a prime gets floor(2^w p^(a/b)), an integer b-th root
    certified by y^b <= p^a 2^(b w) < (y+1)^b, with an error count of 1;
    no mpmath exp or log runs.  Any other alpha (complex, a <= 0, or a
    larger denominator) takes one mpmath exp of alpha log p per prime,
    with log p from the fixed-point log table.  A composite is one
    rounded product of two table entries.  Each entry carries an error
    count in units of 2^-w, w = prec + guard, and the guard comes from
    the counts (see `_PowerTable` and `_per_k`).  alpha enters exactly,
    through `kernel.read_number`: an int or a Fraction as itself, a float
    or an mpf as its binary value, so a float 1/3 (whose exact denominator
    is 2^54) takes the exp route; a complex or an mpc is read part by part.
    A NaN or an infinite part raises ValueError, any other type TypeError."""
    alpha = read_number(alpha)
    ratios = list(alpha) if isinstance(alpha, tuple) else [alpha]
    bound = sum(math.ceil(abs(r)) for r in ratios)

    def make(prec, guard):
        return _PowerTable(prec, guard, ratios, bound)
    return _per_k(make, 3 if _root_exponent(ratios) else 2 * bound + 8)


def power_diff_eval(alpha, n: int, target_bits: int) -> BigReal:
    """w_n = sum_{k=1}^n binom(n,k) (-1)^k k^alpha, k^alpha = exp(alpha log k).

    alpha may be an int, a Fraction, a float, an mpf, a complex or an mpc,
    read exactly by `power_seq`; a NaN or an infinity raises ValueError
    and any other type TypeError.  An integer alpha is computed like any other,
    although k^alpha is then holonomic; `witness.witness_powers` sends such
    an alpha to the guesser instead."""
    return binomial_diff_eval(power_seq(alpha), n, target_bits, start=1)


# ---------------------------------------------------------------------------
# Gamma via argument-shifted Stirling
# ---------------------------------------------------------------------------

def gamma(x, target_bits: int = 64) -> BigReal:
    """Gamma(x) for a real number x, via Stirling's series at a shifted
    argument with the tail truncated at a rigorously bounded term (for real
    positive arguments the remainder is bounded by the first omitted term).

    x is read by `kernel.read_real` at the working precision: an int, a
    Fraction, a float, an mpf or an mpmath constant, rounded once to the
    working precision.  An x that is, or rounds to, a nonpositive integer
    raises PoleAtNonpositiveInteger, a NaN or an infinity ValueError, and a
    complex or any other type TypeError.

    The working precision is wp = target_bits + 24 bits, and the bound
    (`_gamma`) counts, besides the series tail and the roundings of the
    operations, the rounding of x amplified by |x psi(x)| and the absolute
    error of log Gamma that exp turns into a relative one.  Near a pole
    the first, and at a large x both, can exceed 2^-target_bits: Gamma is
    then computed once more at wp plus the missing bits, and
    PrecisionExhausted is raised if that misses too."""
    wp = target_bits + 24
    for _ in range(2):
        _check_precision(wp)
        br = _gamma(x, wp)
        allowed = mpf(2) ** (-target_bits) * max(1, abs(br.value))
        if br.bound <= allowed:
            return br
        wp += int(mpmath.log(br.bound / allowed, 2)) + 3
    raise PrecisionExhausted("gamma failed to meet its bound")


def _gamma(x, wp: int) -> BigReal:
    """Gamma(x) at wp bits, with the bound 2 |value| max(rel, amp).

    In units u = 2^-wp, rel is the series tail plus 4 u for each of the
    shift + j + 8 operations, and amp counts two first-order errors: the
    rounding of x, u |x psi(x)|, with |psi(x)| <= log xs + sum_i 1/|x + i|
    over the shift factors (psi(xs) lies in (0, log xs) for xs >= 2), and
    the absolute error of lg = log Gamma(xs), 4 u |lg|, which exp turns
    into a relative one.  2 max(rel, amp) >= rel + amp, and while
    amp <= rel the bound is the 2 |value| rel of the operation count
    alone."""
    with mp.workprec(wp):
        q = read_real(x)
        xv = mpf(q.numerator) / q.denominator
        # on the rounded value: an x within 2^-wp of a pole meets it here
        if xv <= 0 and xv == mpmath.floor(xv):
            raise PoleAtNonpositiveInteger(f"gamma pole at {int(xv)}")
        shift = max(0, int(mpmath.ceil(wp / mpf(9) + 3 - xv)))
        xs = xv + shift
        # Stirling at xs: (xs - 1/2) log xs - xs + log(2 pi)/2 + series
        log_xs = mpmath.log(xs)
        lg = (xs - mpf(1) / 2) * log_xs - xs + mpmath.log(2 * mpmath.pi) / 2
        tail = None
        j = 1
        prev_mag = mpf("inf")
        while True:
            b2j = mpmath.bernoulli(2 * j)
            term = b2j / ((2 * j) * (2 * j - 1) * xs ** (2 * j - 1))
            mag = abs(term)
            if mag >= prev_mag or mag < mpf(2) ** (-wp - 4):
                tail = mag
                break
            lg += term
            prev_mag = mag
            j += 1
            if j > 4 * wp:
                tail = mag
                break
        gs = mpmath.exp(lg)
        prod = mpf(1)
        near = mpf(0)
        for i in range(shift):
            factor = xv + i
            prod *= factor
            near += 1 / abs(factor)
        value = gs / prod
        u = mpf(2) ** (-wp)
        # relative error: series tail + rounding on O(shift + j) operations
        rel = tail + u * (shift + j + 8) * 4
        amp = u * (abs(xv) * (log_xs + near) + 4 * abs(lg))
        return BigReal(value, abs(value) * max(rel, amp) * 2)


# ---------------------------------------------------------------------------
# Lambert W (principal branch, x >= e)
# ---------------------------------------------------------------------------

def lambert_w(x, target_bits: int = 64) -> BigReal:
    """w with w e^w = x, for a real number x >= e, by Newton iteration
    seeded at log x - loglog x.

    x is read by `kernel.read_real` at the working precision, so
    `mpmath.e` is e at that precision: an int, a Fraction, a float, an mpf
    or an mpmath constant.  x < e and a NaN or an infinity raise
    ValueError, a complex or any other type TypeError."""
    wp = target_bits + 32
    _check_precision(wp)
    with mp.workprec(wp):
        q = read_real(x)
        xv = mpf(q.numerator) / q.denominator
        if xv < mpmath.e - mpf(2) ** (-20):
            raise ValueError("lambert_w domain is x >= e")
        lx = mpmath.log(xv)
        w = lx - mpmath.log(lx) if lx > 1 else mpf(1)
        last_step = mpf("inf")
        for _ in range(200):
            ew = mpmath.exp(w)
            step = (w * ew - xv) / (ew * (w + 1))
            w = w - step
            if abs(step) < mpf(2) ** (-wp + 4) * max(1, abs(w)):
                last_step = abs(step)
                break
            last_step = abs(step)
        # quadratic convergence makes the final step a sound error proxy
        return BigReal(w, 2 * last_step + 4 * _ulp(w))


# ---------------------------------------------------------------------------
# Harmonic numbers
# ---------------------------------------------------------------------------

def harmonic(n: int) -> Fraction:
    """Exact H_n = 1 + 1/2 + ... + 1/n."""
    if n < 1:
        raise ValueError("harmonic numbers start at n = 1")
    return _hsum(1, n + 1)


def _hsum(lo: int, hi: int) -> Fraction:
    # divide and conquer keeps intermediate denominators balanced
    if hi - lo <= 8:
        return sum(Fraction(1, k) for k in range(lo, hi))
    mid = (lo + hi) // 2
    return _hsum(lo, mid) + _hsum(mid, hi)
