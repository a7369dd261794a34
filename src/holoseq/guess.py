"""Candidate annihilating recurrences from finite term data.

Positive results are certificates: a returned recurrence has exactly zero
residuals on every supplied term (exact mode) or normalized residuals
within tolerance on held-out terms (float mode).  An exact NotFound whose
screen reached full column rank ("ansatz system has full column rank") is
a proof over the supplied terms: the rank modulo p is at most the rank
over Q, so no recurrence in the box fits them.  Only a screen that passed
with no exact certificate surviving, or a float-mode NotFound, is
*evidence*, never proof.  The searched (order, degree) box is always
recorded in the provenance block.

Exact mode screens each box by a rank modulo a 61-bit prime and runs the
fraction-free nullspace over Z only on survivors.  One generator,
`_ansatz_rows`, lays out the integer ansatz rows; the screen reduces each
row mod p as it is read and streams it into an echelon form that stops at
full column rank, so a box that holds nothing costs about as many rows as
it has columns, and the whole matrix is built only for a survivor.

Float mode splits the terms once into integer mantissas and exponents and
eliminates in fixed-point integers: columns scaled by powers of two,
partial pivoting, w = precision + guard bits.  Partial pivoting bounds
every multiplier by 1 in magnitude, so a step at most doubles an entry;
the guard, ncols + bit_length(ncols), covers that growth and the rounding
of the updates (see `guess_float`).  Only the held-out residual
certificate runs in mpf.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp, mpf

from .annihilators import Recurrence, apply
from .kernel import Poly, _scaled, nullspace

# Mersenne prime 2^61 - 1: modular pre-filter rejects full-rank systems
# without touching big rationals
_FILTER_PRIME = (1 << 61) - 1


class InsufficientTerms(Exception):
    """Not enough terms for the requested search box."""


@dataclass
class GuessResult:
    found: bool
    recurrence: Optional[Recurrence]
    provenance: dict = field(default_factory=dict)

    def __bool__(self):
        return self.found


def _require_terms(n_terms: int, max_order: int, max_degree: int,
                   spare: int = 20):
    if max_order < 0 or max_degree < 0:
        raise ValueError(f"empty search box ({max_order},{max_degree}): "
                         "order and degree bounds must be nonnegative")
    need = (max_order + 1) * (max_degree + 1) + spare
    if n_terms < need:
        raise InsufficientTerms(
            f"need at least {need} terms for a ({max_order},{max_degree}) "
            f"search, got {n_terms}")


def _ansatz_rows(terms, r: int, d: int, n_rows: int):
    """Integer matrix rows of the linear system, one at a time: row n has
    entries n^j * f_{n+r-i} for columns (i, j), scaled to clear the
    denominators of its window."""
    for n in range(n_rows):
        window, _ = _scaled(terms[n:n + r + 1])
        npow = [n ** j for j in range(d + 1)]
        yield [t * m for t in reversed(window) for m in npow]


def _rank_mod_p(rows, ncols: int, p: int) -> int:
    """Rank mod p of a stream of rows, by echelon form: each row is reduced
    against the pivot rows found so far (ascending pivot column, each
    normalised to 1 there), and the stream is read no further once the
    rank reaches ncols, so a full-rank system costs about ncols rows."""
    pivots = []  # (column, row), ascending column
    for row in rows:
        for col, prow in pivots:
            c = row[col]
            if c:
                row[col:] = [(a - c * b) % p
                             for a, b in zip(row[col:], prow[col:])]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        # lead is no pivot column yet, so the tuples order by it alone
        insort(pivots, (lead, [x * inv % p for x in row]))
        if len(pivots) == ncols:
            break
    return len(pivots)


def _vector_to_recurrence(vec, r: int, d: int) -> Optional[Recurrence]:
    polys = []
    for i in range(r + 1):
        polys.append(Poly(vec[i * (d + 1):(i + 1) * (d + 1)]))
    if all(p.is_zero() for p in polys):
        return None
    return Recurrence(polys).reduced()


def _certify_exact(rec: Recurrence, terms) -> bool:
    d = rec.order
    if d >= len(terms):
        return False
    res = apply(rec, terms, range(len(terms) - d))
    return all(x == 0 for x in res)


def _operator_size(rec: Recurrence) -> int:
    return sum(c.numerator.bit_length() + c.denominator.bit_length()
               for p in rec.coeffs for c in p.coeffs)


def guess_exact(terms: Sequence, max_order: int, max_degree: int) -> GuessResult:
    """Search the (order <= max_order, degree <= max_degree) box for a
    recurrence with exactly zero residuals on all supplied terms.

    The box is scanned in ascending (order, degree), after the largest
    system: each grid point is first screened by a rank computation modulo
    a 61-bit prime p (full column rank modulo p proves full rank over Q, so
    nothing exists there), and only survivors pay for fraction-free
    elimination over Z.  The screen reads a box's integer rows from
    `_ansatz_rows` one at a time, reduces each mod p and against the
    pivots so far, and stops when the rank reaches the column count; the
    rows are those of the integer ansatz matrix, whatever the terms'
    denominators, so the rank mod p is that matrix's rank mod p.
    """
    terms = [t if isinstance(t, Fraction) else Fraction(t) for t in terms]
    _require_terms(len(terms), max_order, max_degree)
    prov = {
        "mode": "exact",
        "terms_used": len(terms),
        "max_order": max_order,
        "max_degree": max_degree,
        "searched": [],
    }

    if all(t == 0 for t in terms):
        rec = Recurrence([Poly([1]), Poly([-1])])
        prov["degenerate_data"] = "all supplied terms are zero; any operator fits"
        return GuessResult(True, rec, prov)

    p = _FILTER_PRIME

    def full_rank(r, d):
        ncols = (r + 1) * (d + 1)
        rows = _ansatz_rows(terms, r, d, len(terms) - r)
        return _rank_mod_p(([x % p for x in row] for row in rows),
                           ncols, p) == ncols

    # Nothing in the box exists if the largest system has full column rank.
    prov["searched"].append((max_order, max_degree))
    if full_rank(max_order, max_degree):
        prov["reason"] = "ansatz system has full column rank"
        return GuessResult(False, None, prov)

    best = None
    for r in range(max_order + 1):
        for d in range(max_degree + 1):
            if (r, d) != (max_order, max_degree):
                prov["searched"].append((r, d))
                if full_rank(r, d):
                    continue
            basis = nullspace(list(_ansatz_rows(terms, r, d, len(terms) - r)))
            for vec in basis:
                rec = _vector_to_recurrence(vec, r, d)
                if rec is None or not _certify_exact(rec, terms):
                    continue
                key = (rec.order, rec.degree, _operator_size(rec))
                if best is None or key < best[0]:
                    best = (key, rec)
            if best is not None:
                prov["residual_stats"] = {"max_abs": 0, "certified_terms": len(terms)}
                return GuessResult(True, best[1], prov)
    prov["reason"] = "modular filter passed but no exact certificate survived"
    return GuessResult(False, None, prov)


# ---------------------------------------------------------------------------
# Float mode
# ---------------------------------------------------------------------------

_HELD_OUT = 20


def _float_terms(terms):
    """The terms as mpf at the current precision.  A term that is not
    finite is a ValueError naming its index: it has no mantissa to split,
    and an infinite or NaN residual would pass any tolerance test."""
    out = []
    for k, t in enumerate(terms):
        if isinstance(t, Fraction):
            v = mpf(t.numerator) / t.denominator
        else:
            v = mpf(t)
        if not mp.isfinite(v):
            raise ValueError(f"term {k} is not finite: {v}")
        out.append(v)
    return out


def _normalized_residual(rec: Recurrence, terms, n: int, prec) -> mpf:
    with mp.workprec(prec):
        d = rec.order
        window = terms[n:n + d + 1]
        s = mpf(0)
        for i, p in enumerate(rec.coeffs):
            c = p(n)
            s += mpf(c.numerator) / c.denominator * window[d - i]
        scale = max(abs(t) for t in window)
        if scale == 0:
            scale = mpf(1)
        return abs(s) / scale


def guess_float(terms: Sequence, max_order: int, max_degree: int,
                residual_tol: float, precision_bits: int = 192) -> GuessResult:
    """Float-data guessing: column-scaled elimination with partial pivoting
    and a relative pivot threshold 2^(-precision/2); a candidate is accepted
    only when its normalized residuals on the last 20 (held-out) terms stay
    within residual_tol.  Coefficients are snapped to small rationals before
    certification, so agreement with guess_exact is exact on holonomic
    data.

    The terms are rounded to precision_bits once and split into integer
    mantissas and exponents, so entry (i, j) of row n is exactly
    m_{n+r-i} n^j at exponent e_{n+r-i}.  Elimination and
    back-substitution run on Python integers in fixed point at
    w = precision + guard bits, each column scaled by a power of two so
    that its largest entry is below 1; the pivot threshold is
    2^(w - precision//2).  The guard is ncols + bit_length(ncols) for a
    system of ncols columns: partial pivoting keeps every multiplier at
    most 1 in magnitude, so a step at most doubles an entry (growth at most
    2^ncols over the elimination), and an entry takes at most ncols rounded
    updates; the accumulated rounding thus stays about 2^-precision of each
    column's scale.  The null vectors are unscaled into exact dyadic
    rationals before the snap.  Only the held-out residual certificate runs
    in mpf.  Every box of the search is eliminated: too few terms for the
    largest box is InsufficientTerms, and a non-finite term a ValueError."""
    p = precision_bits
    with mp.workprec(p):
        vals = _float_terms(terms)
    # each box needs ncols + 2 training rows after the held-out terms
    _require_terms(len(vals), max_order, max_degree,
                   spare=_HELD_OUT + max_order + 2)
    prov = {
        "mode": "float",
        "terms_used": len(vals),
        "max_order": max_order,
        "max_degree": max_degree,
        "residual_tol": float(residual_tol),
        "held_out": _HELD_OUT,
        "precision_bits": p,
        "searched": [],
    }
    n_train = len(vals) - _HELD_OUT
    tol = mpf(residual_tol)

    if all(v == 0 for v in vals):
        rec = Recurrence([Poly([1]), Poly([-1])])
        prov["degenerate_data"] = "all supplied terms are zero"
        return GuessResult(True, rec, prov)
    # value = mantissa * 2^exponent, mantissa a signed int
    split = [(-int(man) if sign else int(man), exp)
             for sign, man, exp, _ in (v._mpf_ for v in vals)]
    for r in range(max_order + 1):
        for d in range(max_degree + 1):
            prov["searched"].append((r, d))
            rec = _guess_float_box(vals, split, r, d, n_train, p, tol, prov)
            if rec is not None:
                return GuessResult(True, rec, prov)
    prov["reason"] = "no candidate met the held-out residual tolerance"
    return GuessResult(False, None, prov)


def _rdiv(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, ties away from zero."""
    q, rem = divmod(abs(a), abs(b))
    if 2 * rem >= abs(b):
        q += 1
    return q if (a < 0) == (b < 0) else -q


def _guess_float_box(vals, split, r, d, n_train, p, tol, prov):
    ncols = (r + 1) * (d + 1)
    n_rows = n_train - r
    w = p + ncols + ncols.bit_length()
    # column j is scaled by 2^-E_j, E_j the bit position just above its
    # largest entry, so every scaled entry is below 1
    exact_rows = []
    for n in range(n_rows):
        npow = [n ** j for j in range(d + 1)]
        exact_rows.append([(m * q, e) for m, e in
                           (split[n + r - i] for i in range(r + 1))
                           for q in npow])
    scale = [max((v.bit_length() + e for v, e in col if v), default=0)
             for col in zip(*exact_rows)]
    rows = []
    for row in exact_rows:
        fixed = []
        for (v, e), E in zip(row, scale):
            s = e + w - E
            fixed.append(v << s if s >= 0 else _rdiv(v, 1 << -s))
        rows.append(fixed)

    threshold = 1 << (w - p // 2)
    half = 1 << (w - 1)
    pivots = []
    free_cols = []
    rank = 0
    for col in range(ncols):
        piv = max(range(rank, n_rows), key=lambda i: abs(rows[i][col]))
        if abs(rows[piv][col]) <= threshold:
            free_cols.append(col)
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pv, ptail = prow[col], prow[col + 1:]
        for i in range(rank + 1, n_rows):
            row = rows[i]
            if row[col]:
                c = _rdiv(row[col] << w, pv)  # |c| <= 2^w: |multiplier| <= 1
                row[col + 1:] = [a - ((c * b + half) >> w)
                                 for a, b in zip(row[col + 1:], ptail)]
                row[col] = 0
        pivots.append((rank, col))
        rank += 1
    if not free_cols:
        return None

    top_e = max(scale)
    for fc in free_cols:
        x = [0] * ncols
        x[fc] = 1 << w
        for (pr, pc) in reversed(pivots):
            if pc >= fc:
                continue
            row = rows[pr]
            s = sum(row[j] * x[j] for j in range(pc + 1, ncols) if x[j])
            x[pc] = _rdiv(-s, row[pc])
        # unscale back to raw coordinates x_j 2^-(w + E_j), as integers over
        # the common 2^-(w + max E); normalised by the largest they are exact
        # rationals, which the continued-fraction snap reads at full
        # precision, so denominators up to ~2^(p/2) are recoverable
        raw = [xj << (top_e - E) for xj, E in zip(x, scale)]
        top = max(abs(v) for v in raw)
        exact = [Fraction(v, top) for v in raw]
        for denom_cap in (10 ** 3, 10 ** 9, 10 ** 15):
            frac = [v.limit_denominator(denom_cap) for v in exact]
            rec = _vector_to_recurrence(frac, r, d)
            if rec is None or rec.order > len(vals) - _HELD_OUT:
                continue
            res = [_normalized_residual(rec, vals, n, p)
                   for n in range(len(vals) - _HELD_OUT - rec.order,
                                  len(vals) - rec.order)]
            if res and max(res) <= tol:
                prov["residual_stats"] = {
                    "max_normalized_residual": float(max(res)),
                    "held_out_checked": len(res),
                }
                return rec
    return None
