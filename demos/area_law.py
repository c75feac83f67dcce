"""Entropy that lives on the boundary, three ways.

Block entanglement entropy of a gapped ground state stops growing once the
block is a few correlation lengths wide - the plateau is the 1D area law,
and it is the reason MPS compression works (see mps_compression.py).

At finite temperature the sharp statement is about mutual information:
across any cut, I(A:B) <= 2 beta ||h|| |dA|, with ||h|| the strength of the
boundary-crossing terms.  The bound is vacuous at beta -> infinity and tight
in spirit at high temperature.  For purely classical Gibbs chains the
temperature drops out entirely: I <= |dA| log2(d) for any beta.
"""

import numpy as np

from bellscope.chains import (
    block_entropy_curve,
    classical_gibbs_mutual_info,
    ground_state_exact,
    heisenberg_chain,
    thermal_mutual_info_check,
    transverse_ising_chain,
)
from bellscope.numerics import seeded_generator

# Gapped ground state: entropy saturates.  Critical-ish: it keeps creeping.
N = 12
for g, label in ((4.0, "gapped (g = 4)"), (1.0, "critical (g = 1)")):
    _, psi = ground_state_exact(transverse_ising_chain(N, j=1.0, g=g))
    curve = block_entropy_curve(psi, N // 2)
    vals = " ".join(f"{s:.4f}" for s in curve)
    print(f"block entropy, Ising chain {label:<16}: {vals}")
print()

# Thermal mutual information across the middle cut of a Heisenberg chain.
ham = heisenberg_chain(8)
print("Heisenberg chain (N = 8), mutual information across the middle cut")
print(f"{'beta':>6} {'I(A:B) nats':>12} {'bound':>10} {'ok':>4}")
for beta in (0.05, 0.2, 1.0, 5.0, 20.0):
    rep = thermal_mutual_info_check(ham, beta, cut=4)
    print(f"{beta:>6.2f} {rep.mutual_info:>12.6f} {rep.bound:>10.4f} "
          f"{str(rep.ok):>4}")
print("the bound scales linearly in beta; the actual MI saturates\n")

# Classical chains: the same cut geometry, a temperature-free ceiling.
rng = seeded_generator(8)
print("random classical Gibbs chains (d = 3), bound |dA| log2(3) = 1.585 bits")
for beta in (0.5, 2.0, 8.0):
    mis = []
    for _ in range(20):
        couplings = [rng.standard_normal((3, 3)) for _ in range(5)]
        mis.append(classical_gibbs_mutual_info(couplings, beta, cut=3).mutual_info)
    print(f"  beta = {beta:>4}: I in [{min(mis):.4f}, {max(mis):.4f}] bits")
