#!/usr/bin/env python3
"""Why the alternating sums need n + g + 2 log2 n working bits.

The transform sum_k binom(n,k)(-1)^k f(k) has terms as large as 2^n while
the result is O(loglog n): at n = 200 the largest term is ~10^59 and the
answer is ~1.7.  Double precision produces pure noise; the evaluator
rounds f(k) to integers at n + g + 2 log2 n + 12 bits and takes the sum
exactly in integers: directly, binom(n,k) times f(k) +- f(n-k) for k <= n/2
summed by binary splitting, at a single n or a sparse grid, and by one
forward-difference sweep on a dense grid (the cheaper by 40 sum(ns) against
max(ns)^2).  It returns the value with the error bound
2^(n-p) (1/2 + 16 max|f|), known before the sum starts.
"""

import math

import mpmath

from holoseq import binomial_diff_eval, gamma, lambert_w, log_seq


n = 200

# what float64 thinks the sum is
noise = sum(math.comb(n, k) * (-1) ** k * math.log(k) for k in range(1, n + 1))
print(f"float64 'value' at n = {n}: {noise:.6g}   (garbage)")
print(f"largest term: ~{math.comb(n, n // 2) * math.log(n):.3g}")

r = binomial_diff_eval(log_seq(), n, 64)
print(f"\ncontrolled value:  {float(r.value):.12f}")
print(f"claimed bound:      2^{r.log2_bound():.0f}")
print(f"loglog {n} =        {math.log(math.log(n)):.12f}")

# the operational check of the error model: recompute with 64 extra bits
r2 = binomial_diff_eval(log_seq(), n, 128)
print(f"\n+64-bit recompute agrees within bounds: {r.agrees_with(r2)}")
print(f"actual shift: {abs(float(r.value - r2.value)):.3g}")

# the special functions carry bounds the same way
g = gamma(0.5, 96)
print(f"\nGamma(1/2)     = {float(g.value):.15f}  (bound 2^{g.log2_bound():.0f})")
print(f"sqrt(pi)       = {math.sqrt(math.pi):.15f}")
w = lambert_w(10 ** 6, 96)
print(f"W(10^6)        = {float(w.value):.15f}  (bound 2^{w.log2_bound():.0f})")
print(f"residual check: W e^W - 10^6 = "
      f"{float(w.value * mpmath.exp(w.value) - 10 ** 6):.3g}")
