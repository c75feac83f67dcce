"""Schmidt structure, the partial-transpose test, and how much they see.

A pure bipartite state is entangled iff its Schmidt rank exceeds 1, and the
partial transpose makes that quantitative: a Schmidt-rank-r pure state has
exactly r(r-1)/2 negative eigenvalues after transposing one side, one per
Schmidt pair.  For mixed states the test is one-sided (no negative
eigenvalues does not certify separability in general), but separable states
always pass it, which is what makes a failure conclusive.
"""

import numpy as np

from bellscope import (
    DensityOperator,
    StateVector,
    log_negativity,
    max_entangled,
    negativity,
    ppt_report,
    schmidt_decompose,
)
from bellscope.numerics import seeded_generator

rng = seeded_generator(11)

# Pure states: negative-eigenvalue count is pure combinatorics in the rank.
print("pure states on C^4 x C^4, Schmidt rank r -> negative PT eigenvalues")
for r in (1, 2, 3, 4):
    coeffs = np.sort(rng.dirichlet(np.ones(r)))[::-1]
    amp = np.zeros(16, dtype=complex)
    for k in range(r):
        amp[k * 4 + k] = np.sqrt(coeffs[k])
    psi = StateVector((4, 4), amp)
    rho = DensityOperator((4, 4), np.outer(amp, amp.conj()))
    rep = ppt_report(rho)
    print(f"  r = {r}: {rep.negative_count} negative (expect {r * (r - 1) // 2}), "
          f"entangled = {rep.entangled}")

# The maximally entangled pair carries the largest negativity on 2 qubits.
bell = max_entangled(2)
rho_bell = DensityOperator((2, 2), np.outer(bell.amplitudes, bell.amplitudes.conj()))
print("\ntwo-qubit maximally entangled state")
sd = schmidt_decompose(bell)
print(f"  schmidt coefficients = {np.round(sd.coefficients, 6)}")
print(f"  negativity = {negativity(rho_bell):.6f}  (max possible 0.5)")
print(f"  log-negativity = {log_negativity(rho_bell):.6f} bits")

# Separable mixtures never trip the test, however they are stitched together.
flagged = 0
for _ in range(200):
    rho = np.zeros((9, 9), dtype=complex)
    weights = rng.dirichlet(np.ones(4))
    for w in weights:
        ga = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        gb = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        ra, rb = ga @ ga.conj().T, gb @ gb.conj().T
        rho += w * np.kron(ra / np.trace(ra), rb / np.trace(rb))
    if ppt_report(DensityOperator((3, 3), rho)).entangled:
        flagged += 1
print(f"\n200 random separable 3x3 mixtures flagged entangled: {flagged} (expect 0)")
