#!/usr/bin/env python3
"""Why log n and fractional powers n^a are not holonomic.

The strategy: hit the sequence with the signed binomial difference
transform (a holonomicity-preserving operation), evaluate the transformed
sequence at high precision, and watch an asymptotic element appear that
the Structure Theorem forbids: loglog n for the logarithm, a fractional
power of log n for n^a.

The sums cancel catastrophically (terms ~ 2^n, result ~ loglog n), so the
evaluation runs at n + g + 2 log2 n bits with explicit error bounds.
"""

import math

from holoseq import binomial_diff_eval, gamma, log_seq, power_diff_eval
from holoseq.witness import witness_log, witness_powers


print("transform of log k versus loglog n:")
print("   n      transform        loglog n    difference")
log = log_seq()  # log k built from the primes, one table per precision
for n in [100, 400, 1600]:
    v = binomial_diff_eval(log, n, 64)
    ll = math.log(math.log(n))
    print(f"{n:6d}  {float(v.value):14.9f}  {ll:10.6f}  {float(v.value)-ll:10.6f}")
print("the difference hugs Euler's constant 0.5772...; boundedness is the")
print("fingerprint, and a loglog element is incompatible with holonomy\n")

# --- powers: sign-corrected normalization tends to 1 ----------------------
print("transform of sqrt(k), scaled by -Gamma(1/2) sqrt(log n):")
g_half = float(gamma(0.5, 64).value)
for n in [500, 2000, 5000]:
    w = power_diff_eval(0.5, n, 64)
    rho = -float(w.value) * g_half * math.sqrt(math.log(n))
    print(f"   n={n:5d}  rho = {rho:.6f}")
print("(the alternating differences of k^a tend to "
      "-(log n)^(-a)/Gamma(1-a))\n")

# --- the packaged witnesses -------------------------------------------------
rep = witness_log(nmax=600, grid=range(100, 601, 50))
print("log witness verdicts:", rep.verdicts)

rep = witness_powers(0.5, nmax=2000, grid=[500, 1000, 2000])
print("powers witness verdicts:", rep.verdicts)

rep = witness_powers(3)
print("integer-power branch (alpha = 3):", rep.verdicts)
