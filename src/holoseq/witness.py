"""Executable evidence for the three non-holonomicity arguments, emitting
machine-readable reports.

Every numeric verdict window here is a calibration of a qualitative O(.)
statement: the underlying asymptotics guarantee bounded error terms, not
constants, so each report carries its thresholds with a provenance tag and
a disclaimer.  Verdicts are recomputable from the stored samples.

Sign note: the alternating power differences sum_k binom(n,k)(-1)^k k^a
tend to -(log n)^(-a)/Gamma(1-a); the power witness normalizes with that
(computationally verified) sign.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional

import numpy as np
from mpmath import mpf

from . import hpeval
from .abelian import AsymptoticScale, verify_transfer
from .annihilators import Recurrence, apply
from .closure import closure_hadamard
from .guess import guess_exact
from .formats import to_json
from .kernel import Poly, read_number
from .primes import PrimeTable, nth_prime_grid, sieve
from .series import Series
from .singclass import forbidden_scale

_DISCLAIMER = ("verdict windows are derived calibrations of qualitative "
               "O(1)-type asymptotic statements; the windows are the "
               "tool's, the limit behavior is the theorem's")


@dataclass
class WitnessReport:
    experiment: str
    params: dict
    samples: List[dict]
    verdicts: dict
    thresholds: dict
    precision_bits: int
    runtime_ms: int
    notes: List[str] = field(default_factory=list)
    disclaimer: str = _DISCLAIMER

    def to_dict(self) -> dict:
        return to_json(self)

    def passed(self) -> bool:
        return all(self.verdicts.values())


def witness_log(nmax: int = 2000, grid=None, target_bits: int = 64) -> WitnessReport:
    """Alternating binomial differences of log k against loglog n:
    d_n = transform(n) - loglog(n) must stay inside (0, 2) with small
    spread, while the loglog scale itself is incompatible with any
    holonomic singular expansion."""
    t0 = time.monotonic()
    ns = _grid(grid, nmax, 100, range(100, nmax + 1))
    if ns[0] < 2:
        raise ValueError("grid indices need n >= 2 so loglog n is defined")
    # each sample is D_n / 2^p, correctly rounded, from the integer sums;
    # the report's precision is their p
    p, (sums,), _ = hpeval.binomial_diff_fixed(hpeval.log_seq(), ns,
                                               target_bits)
    scale = 1 << p
    samples = []
    for n in ns:
        v = sums[n] / scale
        ref = math.log(math.log(n))
        samples.append({"x": n, "value": v, "reference": ref,
                        "deviation": v - ref})
    devs = [s["deviation"] for s in samples]
    window = [s for s in samples if s["x"] >= 100]
    wdevs = [s["deviation"] for s in window] or devs
    spread = max(wdevs) - min(wdevs)
    verdicts = {
        "bounded": all(0 < d < 2 for d in devs),
        "spread_small": spread <= 0.5,
        "loglog_scale_incompatible":
            forbidden_scale(AsymptoticScale(-1, 0, 1)) is not None,
    }
    thresholds = {
        "bounded_window": {"low": 0, "high": 2,
                           "provenance": "derived: doubling-precision "
                                         "calibration of an O(1) estimate"},
        "spread_max": {"value": 0.5, "provenance": "derived calibration"},
    }
    return WitnessReport("log", {"nmax": nmax, "grid_size": len(ns)},
                         samples, verdicts, thresholds, p,
                         int((time.monotonic() - t0) * 1000))


def log_grid(lo: int, hi: int, points: int) -> List[int]:
    return sorted(set(int(round(x)) for x in np.geomspace(lo, hi, points)))


# largest n of the binomial-difference witnesses: their f-table holds n
# entries of about n bits each, and the sums cost about n^3 bit operations
_NMAX = 5000


def _grid(grid, nmax: int, lo: int, default) -> List[int]:
    """The sorted sample indices: `grid` if given, else `default`, the
    default grid lo..nmax, which needs nmax >= lo.  Neither nmax nor a grid
    point may exceed _NMAX."""
    if nmax > _NMAX:
        raise ValueError(f"nmax = {nmax} is above the cap {_NMAX}")
    if grid is None:
        if nmax < lo:
            raise ValueError(f"nmax = {nmax} is below {lo}, the lower end of "
                             f"the default grid; pass nmax >= {lo} or a grid")
        grid = default
    ns = sorted(set(int(n) for n in grid))
    if not ns:
        raise ValueError("empty grid")
    if ns[-1] > _NMAX:
        raise ValueError(f"grid point {ns[-1]} is above the cap {_NMAX}")
    return ns


def witness_powers(alpha=0.5, nmax: Optional[int] = None, grid=None,
                   target_bits: int = 64) -> WitnessReport:
    """Powers n^alpha: for non-integer alpha the normalized alternating
    differences rho_n = -w_n Gamma(1-alpha) (log n)^alpha tend to 1 on the
    grid up to nmax (5000 if None), and the fractional log power in the
    transferred scale is foreign to holonomic expansions; for integer alpha
    the sequence is holonomic and the guesser must find a certified
    recurrence from 100 terms, so nmax and grid are refused there.

    alpha is read once by `kernel.read_number`.  An int or a Fraction is
    taken as it is.  A float, an mpf or an mpmath constant is read as the
    nearest fraction with denominator at most 10^9 to its exact binary
    value: 1/3 for 0.3333333333333333, the same alpha as the Fraction 1/3
    or the CLI's `--alpha 1/3`.  The sums, Gamma(1-alpha) and the forbidden
    scale all use that alpha, so a float with a small denominator takes the
    integer root route of `hpeval.power_seq`.  The branch is decided on
    that alpha too: 2.0000000001 is read as 2 and takes the integer branch.
    A complex alpha, a NaN and an infinity raise ValueError (Gamma is
    evaluated on the real line only), and any other type TypeError."""
    t0 = time.monotonic()
    exact = read_number(alpha)
    if isinstance(exact, tuple):
        raise ValueError(f"alpha must be real, not {alpha}")
    a_frac = (exact if isinstance(alpha, (int, Fraction))
              else exact.limit_denominator(10 ** 9))
    if a_frac.denominator == 1:
        a = a_frac.numerator
        if nmax is not None or grid is not None:
            raise ValueError(f"alpha = {alpha} is an integer as read ({a}): "
                             "the guess reads 100 terms, so nmax and grid do "
                             "not apply")
        terms = [Fraction(0)] + [Fraction(n) ** a for n in range(1, 100)]
        res = guess_exact(terms, 4, max(4, abs(a)))
        verdicts = {"holonomic_branch_recurrence_found": res.found}
        samples = [{"x": "guess", "value": bool(res.found),
                    "reference": True, "deviation": 0}]
        if res.found:
            d = res.recurrence.order
            residuals = apply(res.recurrence, terms, range(100 - d))
            verdicts["certified_on_all_terms"] = all(r == 0 for r in residuals)
        return WitnessReport(
            "powers", {"alpha": a, "branch": "integer"},
            samples, verdicts,
            {"search_box": {"value": [4, max(4, abs(a))],
                            "provenance": "positive evidence by exact certificate"}},
            0, int((time.monotonic() - t0) * 1000))

    nmax = 5000 if nmax is None else nmax
    ns = _grid(grid, nmax, 500, log_grid(500, nmax, 48))
    p, (sums,), _ = hpeval.binomial_diff_fixed(hpeval.power_seq(a_frac), ns,
                                               target_bits)
    scale = 1 << p
    g1a = hpeval.gamma(1 - a_frac, target_bits)
    a = float(a_frac)
    samples = []
    for n in ns:
        w = sums[n] / scale
        ref = -float((mpf(math.log(n)) ** mpf(-a)) / g1a.value)
        rho = -w * float(g1a.value) * math.log(n) ** a
        samples.append({"x": n, "value": w, "reference": ref,
                        "deviation": rho - 1})
    verdicts = {
        "normalized_ratio_near_one":
            all(abs(s["deviation"]) <= 0.35 for s in samples),
    }
    verdicts["fractional_log_scale_incompatible"] = (
        forbidden_scale(AsymptoticScale(0, -a_frac, 0)) is not None)
    thresholds = {
        "ratio_window": {"value": 0.35,
                         "provenance": "derived: the estimate is "
                                       "1 + O(1/log n) with unknown constant"},
    }
    rep = WitnessReport("powers", {"alpha": a, "nmax": nmax,
                                   "branch": "fractional",
                                   "grid_size": len(ns)},
                        samples, verdicts, thresholds, p,
                        int((time.monotonic() - t0) * 1000))
    rep.notes.append("normalization uses the computationally verified sign "
                     "w_n ~ -(log n)^(-alpha)/Gamma(1-alpha)")
    return rep


def witness_primes(nmax: int = 10 ** 6, grid_points: int = 60) -> WitnessReport:
    """The nth prime: e_n = (g_n - n H_n)/n - loglog n stays bounded (the
    two-term expansion), the guesser finds nothing at (4,4) on 300 primes,
    and the n loglog n term's scale is incompatible with holonomicity.
    The grid is grid_points geometric points from 100 to nmax, so nmax
    below 100 or above 10^6, and grid_points below 1, raise ValueError."""
    if not 100 <= nmax <= 10 ** 6 or grid_points < 1:
        raise ValueError(f"need 100 <= nmax <= 10^6 and grid_points >= 1, "
                         f"got nmax = {nmax}, grid_points = {grid_points}")
    t0 = time.monotonic()
    ns = np.array(log_grid(100, nmax, grid_points), dtype=np.int64)
    table = PrimeTable()
    g = nth_prime_grid(ns, table=table)
    h = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, int(ns.max()) + 1))])
    samples = []
    for n, gn in zip(ns.tolist(), g.tolist()):
        val = (gn - n * h[n]) / n
        ref = math.log(math.log(n))
        samples.append({"x": n, "value": val, "reference": ref,
                        "deviation": val - ref})
    prime300 = [int(p) for p in table.primes[:300]]
    res = guess_exact(prime300, 4, 4)
    verdicts = {
        "bounded": all(abs(s["deviation"]) <= 2 for s in samples),
        "guesser_not_found": not res.found,
        "nloglogn_scale_incompatible":
            forbidden_scale(AsymptoticScale(1, 0, 1)) is not None,
    }
    thresholds = {
        "residual_window": {"value": 2,
                            "provenance": "derived: O(n)/n = O(1) with "
                                          "unknown constant"},
        "guess_box": {"value": [4, 4], "provenance": "bounded-search "
                                                     "negative evidence"},
    }
    return WitnessReport("primes", {"nmax": int(nmax), "grid_size": len(ns)},
                         samples, verdicts, thresholds, 53,
                         int((time.monotonic() - t0) * 1000))


def central_binomial_power_rec(k: int) -> Recurrence:
    """Annihilator of binom(2n,n)^k built by iterated Hadamard closure;
    the powers are the guesser-positive specimens of the transcendence
    circle of ideas (their arithmetic nature itself is out of scope)."""
    base = Recurrence([Poly([1, 1]), Poly([-2, -4])], initial_terms=[1])
    rec = base
    for _ in range(k - 1):
        rec = closure_hadamard(rec, base)
    return rec


def children_rounds_coefficients(N: int) -> List[Fraction]:
    """Exact Taylor coefficients of (1-z)^(-z) = exp(sum_{m>=1} z^{m+1}/m)."""
    u = Series([0, 0] + [Fraction(1, m) for m in range(1, N - 1)], N)
    return u.exp().coeffs


def bell_numbers(N: int) -> List[int]:
    """First N Bell numbers from the Bell triangle (Aitken's array): each
    row starts with the last entry of the row above and adds that row's
    entries one by one, and B_n starts row n.  Additions only."""
    bell = [1]
    row = [1]
    for _ in range(N - 1):
        row = list(accumulate(row, initial=row[-1]))
        bell.append(row[0])
    return bell


def witness_misc(transfer_kmax: int = 12) -> WitnessReport:
    """The survey experiments: Lambert-W bootstrap, children-rounds and
    Bell guesser negatives, and the prime-counting Abelian transfer."""
    t0 = time.monotonic()
    samples = []
    verdicts = {}

    # (a) W(x) = log x - loglog x + O(1)
    w_ok = True
    for k in range(1, 9):
        x = 10 ** k
        w = hpeval.lambert_w(x, 64)
        ref = math.log(x) - math.log(math.log(x))
        dev = float(w.value) - ref
        samples.append({"x": f"W(10^{k})", "value": float(w.value),
                        "reference": ref, "deviation": dev})
        w_ok = w_ok and abs(dev) <= 1
    verdicts["lambert_bootstrap_bounded"] = w_ok

    # (b) children rounds: exact coefficients, guesser negative
    coeffs = children_rounds_coefficients(120)
    samples.append({"x": "children_rounds[2]", "value": float(coeffs[2]),
                    "reference": 1.0, "deviation": float(coeffs[2]) - 1.0})
    res_cr = guess_exact(coeffs, 4, 4)
    verdicts["children_rounds_not_found"] = not res_cr.found

    # (c) Bell numbers: guesser negative
    res_bell = guess_exact(bell_numbers(300), 4, 4)
    verdicts["bell_not_found"] = not res_bell.found

    # (d) prime counting function through the Abelian transfer; the ratio
    # overshoots before settling, so the trend is judged from k = 8 on
    N = math.ceil(2 ** transfer_kmax * transfer_kmax ** 2)
    primes = sieve(N + 10)
    pi = np.searchsorted(primes, np.arange(N + 1), side="right").astype(np.float64)
    rep = verify_transfer(pi, AsymptoticScale(1, -1, 0), 0.0,
                          kmax=transfer_kmax,
                          kmin=min(8, max(4, transfer_kmax - 2)))
    samples.append({"x": f"pi-transfer k={transfer_kmax}",
                    "value": rep.final_ratio, "reference": 1.0,
                    "deviation": rep.final_ratio - 1.0})
    verdicts["prime_pi_transfer_trend"] = rep.trend_improving

    thresholds = {
        "lambert_window": {"value": 1, "provenance": "derived: bootstrap "
                                                     "guarantees O(1)"},
        "guess_box": {"value": [4, 4], "provenance": "bounded-search "
                                                     "negative evidence"},
    }
    return WitnessReport("misc", {"transfer_kmax": transfer_kmax},
                         samples, verdicts, thresholds, 64,
                         int((time.monotonic() - t0) * 1000))
