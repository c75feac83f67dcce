"""The CHSH game, both ways: what classical strategies can reach, and what
a shared entangled pair buys you.

Two parties each pick one of two measurement settings and output a bit.
Local deterministic strategies form a finite set, so the classical bound of
any functional on the outcome statistics is an exact max over 4^2 = 16
strategies.  The probability form (win when a XOR b = x AND y) caps at 3 of
the 4 setting pairs; the correlator form E00 + E01 + E10 - E11 caps at 2.

Sharing a maximally entangled pair breaks the correlator bound up to
2*sqrt(2) ~ 2.828, and no further.  In the (z, x) plane the best analyzer
angles have a closed form: the optimum is 2 ||T||_F, with T the state's
2x2 block of (z, x) correlators.
"""

import math

from bellscope import (
    chsh_correlator_functional,
    chsh_probability_functional,
    chsh_quantum_demo,
    local_bound_bruteforce,
)

prob = chsh_probability_functional()
corr = chsh_correlator_functional()

lb_prob = local_bound_bruteforce(prob)
lb_corr = local_bound_bruteforce(corr)
print("classical bounds over all deterministic strategies")
print(f"  probability form: max = {lb_prob.max_value}  (3 of 4 clauses)")
print(f"  correlator form : max = {lb_corr.max_value}, min = {lb_corr.min_value}")

value, angles = chsh_quantum_demo()
print("\nquantum optimum on the maximally entangled pair")
print(f"  best value  = {value:.9f}")
print(f"  target      = {2 * math.sqrt(2):.9f}")
print(f"  angles (rad) = {tuple(round(float(a), 6) for a in angles)}")
print(f"  gap over classical = {value - lb_corr.max_value:.6f}")
