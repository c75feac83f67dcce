"""How compressible is a state?  Matrix product states with receipts.

Any pure chain state becomes an MPS by repeated SVD; capping the bond
dimension at D throws away the small Schmidt coefficients at every cut.
The discarded weight is not just measurable after the fact - it is bounded
a priori by twice the summed tails of the cut spectra, and a Renyi entropy
of a single spectrum already bounds how fast its tail can decay.

Ground states of local Hamiltonians sit near the compressible corner of
Hilbert space; Haar-random states sit at the opposite one.  Same N, same
bond caps, very different stories.
"""

import numpy as np

from bellscope.chains import ground_state_exact, transverse_ising_chain
from bellscope.mps import (
    canonical_residuals,
    cut_spectra,
    mps_to_dense,
    renyi_tail_bound,
    truncate,
    truncation_bound,
)
from bellscope.numerics import seeded_generator

N = 10
rng = seeded_generator(3)

amp = rng.standard_normal(2**N) + 1j * rng.standard_normal(2**N)
random_state = amp / np.linalg.norm(amp)
_, ground = ground_state_exact(transverse_ising_chain(N, j=1.0, g=1.05))

print(f"N = {N} qubits, truncation error^2 vs a-priori bound")
print(f"{'D':>4} {'random err^2':>14} {'bound':>10} {'ground err^2':>14} {'bound':>10}")
for dmax in (1, 2, 4, 8, 16):
    r_mps, r_err = truncate(random_state, dmax)
    g_mps, g_err = truncate(ground.amplitudes, dmax)
    r_bound = truncation_bound(cut_spectra(random_state), dmax)
    g_bound = truncation_bound(cut_spectra(ground.amplitudes), dmax)
    print(f"{dmax:>4} {r_err:>14.3e} {r_bound:>10.3e} {g_err:>14.3e} {g_bound:>10.3e}")

# The truncated tensors stay in canonical form; the residuals say so.
worst = float(np.max(canonical_residuals(g_mps)))
print(f"\nmax canonical-form residual after truncation: {worst:.2e}")

# Fidelity of the D = 8 compression, both states.
for name, state in (("random", random_state), ("TFI ground", ground.amplitudes)):
    mps, _ = truncate(state, 8)
    fid = abs(np.vdot(state, mps_to_dense(mps)))
    print(f"fidelity at D = 8, {name:<11}: {fid:.10f}")

# A single cut spectrum plus one Renyi entropy bounds its own tail.
spectrum = np.sort(cut_spectra(random_state)[N // 2 - 1])[::-1]
print("\nmiddle-cut tail weight vs Renyi-alpha bound (alpha = 0.5), random state")
for dmax in (2, 4, 8, 16):
    eps = float(spectrum[dmax:].sum())
    cap = renyi_tail_bound(spectrum, 0.5, dmax)
    print(f"  D = {dmax:>2}: log2(eps) = {np.log2(eps):>8.3f} <= {cap:>8.3f}")
