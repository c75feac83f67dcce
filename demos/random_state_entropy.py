"""Typical entanglement of random pure states, measured against the law.

Haar-random states on C^m x C^n are almost maximally entangled: the mean
entanglement entropy is the exact harmonic-sum expression
sum_{k=n+1}^{mn} 1/k - (m-1)/(2n), whose large-n shape is ln(m) - m/(2n).
The asymptotic form is the one usually quoted, but at small mn the dropped
terms dwarf the Monte-Carlo error bar, which is worth seeing once rather
than reading about.

The mean purity of the small side is exactly (m+n)/(mn+1), often rounded to
(m+n)/(mn) - at these sizes that rounding is a visible 3% too.
"""

import math

from bellscope import page_experiment
from bellscope.numerics import seeded_generator

samples = 4000
print(f"{samples} Haar samples per row; entropies in nats")
print(f"{'(m, n)':>8} {'mean S':>9} {'se':>8} {'exact mean':>11} "
      f"{'asymptotic':>11} {'purity':>8} {'(m+n)/(mn+1)':>13}")
for m, n in ((2, 2), (2, 8), (2, 16), (2, 64), (4, 16)):
    rng = seeded_generator(20260815)
    mean, se, purity = page_experiment(m, n, samples, rng)
    exact = sum(1.0 / k for k in range(n + 1, m * n + 1)) - (m - 1) / (2.0 * n)
    asymptotic = math.log(m) - m / (2.0 * n)
    exact_purity = (m + n) / (m * n + 1.0)
    print(f"({m:>2},{n:>3}) {mean:>9.5f} {se:>8.1e} {exact:>11.5f} "
          f"{asymptotic:>11.5f} {purity:>8.5f} {exact_purity:>13.5f}")

print("\nthe sample mean lands on the exact column every time; the asymptotic")
print("column sits tens of error bars away until mn gets genuinely large")
