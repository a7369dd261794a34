"""Transfer of sequence asymptotics to generating-function singular
behavior, with numeric verification in sectors.

A sequence growing like phi(n) = n^alpha (log n)^beta (loglog n)^gamma,
alpha >= 0, has generating function behaving like
Gamma(alpha+1) * (1-z)^(-1) * phi(1/(1-z)) as z -> 1, uniformly in any
sector at 1 of opening < pi symmetric about the real axis.  The numeric
verifier walks z = 1 - 2^(-k) e^(i theta) toward 1 and compares truncated
partial sums of the series against the predicted singular element.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np
from mpmath import mp, mpc

from .formats import to_json
from .hpeval import BigReal, gamma
from .kernel import read_number


class AlphaNegative(Exception):
    """The transfer theorem requires alpha >= 0."""


@dataclass
class AsymptoticScale:
    """The scale phi(x) = x^alpha (log x)^beta (loglog x)^gamma.

    Complex beta/gamma are accepted but flagged experimental (the transfer
    statement permits them; nothing here exercises them numerically)."""

    alpha: object
    beta: object = 0
    gamma: object = 0

    @property
    def experimental(self) -> bool:
        return any(isinstance(v, complex) or isinstance(v, mpc)
                   for v in (self.beta, self.gamma))

    def phi(self, x: complex) -> complex:
        """Principal-branch evaluation of the scale at a complex point."""
        out = complex(1)
        a, b, g = complex(self.alpha), complex(self.beta), complex(self.gamma)
        if a != 0:
            out *= cmath.exp(a * cmath.log(x))
        if b != 0:
            out *= cmath.exp(b * cmath.log(cmath.log(x)))
        if g != 0:
            out *= cmath.exp(g * cmath.log(cmath.log(cmath.log(x))))
        return out

    def describe(self) -> str:
        return f"x^{self.alpha} (log x)^{self.beta} (loglog x)^{self.gamma}"


@dataclass
class SingularElement:
    """The right-hand shape Gamma(alpha+1) (1-z)^(-alpha-1)
    (log 1/(1-z))^beta (loglog 1/(1-z))^gamma near z = 1."""

    gamma_factor: BigReal
    pole_order: object  # alpha + 1
    log_power: object
    loglog_power: object
    scale: AsymptoticScale

    def evaluate(self, z: complex) -> complex:
        x = 1 / (1 - complex(z))
        return complex(self.gamma_factor.value) * x * self.scale.phi(x)

    def describe(self) -> str:
        return (f"{float(self.gamma_factor.value):.12g} * "
                f"(1-z)^(-{self.pole_order}) * "
                f"log(1/(1-z))^{self.log_power} * "
                f"loglog(1/(1-z))^{self.loglog_power}")


def transfer(scale: AsymptoticScale, bits: int = 64) -> SingularElement:
    """Singular element corresponding to the scale; raises AlphaNegative
    outside the theorem's hypothesis alpha >= 0.

    alpha, beta and gamma are read by `kernel.read_number`: an int, a
    Fraction, a float or an mpf, and for beta and gamma also a complex or an
    mpc.  A complex or a negative alpha raises AlphaNegative, a NaN or an
    infinity in any of the three ValueError, and any other type TypeError.
    Gamma(alpha + 1) is taken at the exact alpha; the element keeps the
    scale's own values."""
    alpha, _, _ = map(read_number, (scale.alpha, scale.beta, scale.gamma))
    if isinstance(alpha, tuple):
        raise AlphaNegative("alpha must be a nonnegative real")
    if alpha < 0:
        raise AlphaNegative(f"alpha = {scale.alpha} < 0")
    g = gamma(alpha + 1, bits)
    return SingularElement(
        gamma_factor=g,
        pole_order=scale.alpha + 1,
        log_power=scale.beta,
        loglog_power=scale.gamma,
        scale=scale,
    )


# ---------------------------------------------------------------------------
# Sector verification
# ---------------------------------------------------------------------------

@dataclass
class TransferSample:
    k: int
    n_terms: int
    z: complex
    ratio: float
    tail_estimate: float

    def to_dict(self):
        return to_json(self)


@dataclass
class TransferReport:
    theta: float
    kmin: int
    kmax: int
    samples: List[TransferSample]
    trend_improving: bool
    final_ratio: float
    precision_bits: int

    def to_dict(self):
        return to_json(self)


def truncation_depth(k: int) -> int:
    """N_k = ceil(2^k k^2): past this index the tail of the series at
    |1 - z| = 2^-k is provably negligible for slowly varying scales."""
    return math.ceil(2 ** k * k * k)


def _partial_sum_numpy(u: np.ndarray, z: complex, N: int) -> complex:
    logz = cmath.log(z)
    total = 0j
    chunk = 1 << 18
    for lo in range(0, N + 1, chunk):
        hi = min(lo + chunk, N + 1)
        n = np.arange(lo, hi, dtype=np.float64)
        total += np.sum(u[lo:hi] * np.exp(n * logz))
    return complex(total)


def _partial_sum_mpmath(u, z, N: int, prec: int) -> complex:
    with mp.workprec(prec):
        zm = mpc(z)
        acc = mpc(0)
        zp = mpc(1)
        for n in range(N + 1):
            un = u[n]
            if un != 0:
                acc += un * zp
            zp *= zm
        return complex(acc)


def verify_transfer(u: Union[Sequence, np.ndarray], scale: AsymptoticScale,
                    sector_angle: float = 0.0, kmax: int = 12,
                    kmin: int = 4, precision_bits: int = 53) -> TransferReport:
    """Ratios |partial sum / singular element| at z = 1 - 2^(-k) e^(i theta)
    for k = kmin..kmax, with recorded truncation tails.

    |theta| <= pi/4 keeps z inside the theorem's sector, and a theta that
    is not finite is refused.  `u` must supply values through index
    N_kmax = ceil(2^kmax kmax^2); numpy arrays take a vectorized float64
    path, higher precisions a scalar path in which mpmath rounds exact (int
    or Fraction) terms at precision_bits."""
    if not 1 <= kmin <= kmax:
        raise ValueError(f"need 1 <= kmin <= kmax, got kmin = {kmin}, "
                         f"kmax = {kmax}")
    if not abs(sector_angle) <= math.pi / 4 + 1e-12:
        raise ValueError(f"|sector_angle| must be <= pi/4, got {sector_angle}")
    element = transfer(scale)
    n_needed = truncation_depth(kmax) + 1
    if precision_bits <= 53:
        arr = np.asarray(u, dtype=np.float64)
        if len(arr) < n_needed:
            raise ValueError(f"need {n_needed} terms, got {len(arr)}")
    else:
        if len(u) < n_needed:
            raise ValueError(f"need {n_needed} terms, got {len(u)}")

    samples = []
    for k in range(kmin, kmax + 1):
        N = truncation_depth(k)
        z = 1 - 2.0 ** (-k) * cmath.exp(1j * sector_angle)
        if precision_bits <= 53:
            partial = _partial_sum_numpy(arr, z, N)
            tail_scale = float(abs(arr[N]))
        else:
            partial = _partial_sum_mpmath(u, z, N, precision_bits)
            tail_scale = float(abs(u[N]))
        q = abs(z)
        tail = tail_scale * q ** (N + 1) / (1 - q) * 2 if q < 1 else math.inf
        ev = element.evaluate(z)
        ratio = abs(partial) / abs(ev)
        samples.append(TransferSample(k, N, z, float(ratio), float(tail / abs(ev))))
    devs = [abs(s.ratio - 1) for s in samples]
    trend = all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    return TransferReport(
        theta=float(sector_angle), kmin=kmin, kmax=kmax,
        samples=samples, trend_improving=trend,
        final_ratio=samples[-1].ratio, precision_bits=precision_bits,
    )
