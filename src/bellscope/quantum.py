"""Finite-dimensional quantum states and bipartite entanglement measures.

Conventions
-----------
* A bipartite system ``dims = (m, n)`` orders subsystem A first (slow index):
  the composite basis index is ``i * n + j`` for ``|i>_A |j>_B``.
* Entropies default to base 2 (bits); every entropy-like routine takes an
  explicit ``base`` argument.  The Haar-average experiment reports natural
  log, matching the asymptotic formula it is checked against.
* Density operators are validated on construction; eigenvalues in
  ``[-1e-10, 0)`` are clipped to zero, anything more negative is rejected.
* The entanglement measures act on states of exactly two factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _require_size, hermitian_eigen

__all__ = [
    "StateVector",
    "DensityOperator",
    "SchmidtData",
    "PPTReport",
    "max_entangled",
    "haar_state",
    "schmidt_decompose",
    "partial_transpose",
    "ppt_report",
    "negativity",
    "log_negativity",
    "renyi_entropy",
    "page_experiment",
    "state_to_json",
    "state_from_json",
]

NORM_TOL = 1e-10
EIG_CLIP = 1e-10  # eigenvalues in [-EIG_CLIP, 0) are treated as rounding noise
RANK_TOL = 1e-10  # relative cutoff used for ranks and Schmidt coefficients

#: Most amplitudes ``page_experiment`` draws and decomposes in one block; this
#: size keeps a block's working set near 3 MB.
PAGE_BLOCK_AMPLITUDES = 2**16


def _as_dims(dims):
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"invalid subsystem dimensions {dims}")
    return dims


@dataclass(eq=False)
class StateVector:
    """Pure state on a tensor product of finite-dimensional factors.

    Parameters
    ----------
    dims : tuple of int
        Subsystem dimensions, leftmost factor slowest.
    amplitudes : ndarray
        Complex amplitudes of length ``prod(dims)``, unit norm to 1e-10.
    """

    dims: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        self.dims = _as_dims(self.dims)
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != math.prod(self.dims):
            raise ValueError(
                f"amplitude length {amp.size} does not match dims {self.dims}"
            )
        nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector is not normalised: |psi| = {nrm!r}")
        self.amplitudes = amp


@dataclass(eq=False)
class DensityOperator:
    """Density operator with subsystem bookkeeping.

    Validation checks Hermiticity (1e-12 relative), unit trace (1e-10) and
    positivity: eigenvalues below ``-1e-10`` raise, eigenvalues in
    ``[-1e-10, 0)`` are clipped to zero and the operator renormalised.
    """

    dims: tuple
    matrix: np.ndarray

    def __init__(self, dims, matrix):
        self.dims = _as_dims(dims)
        m = np.asarray(matrix, dtype=complex)
        d = math.prod(self.dims)
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match dims {self.dims}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        w, v = hermitian_eigen(m)  # rejects non-Hermitian input
        if w[0] < -EIG_CLIP:
            raise ValueError(
                f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}"
            )
        if w[0] < 0.0:
            w = np.clip(w, 0.0, None)
            m = (v * w) @ v.conj().T
            m /= np.trace(m).real
        self.matrix = m

    def eigenvalues(self):
        """Spectrum, ascending, clipped to be nonnegative."""
        w, _ = hermitian_eigen(self.matrix)
        return np.clip(w, 0.0, None)


@dataclass(eq=False)
class SchmidtData:
    """Schmidt decomposition of a bipartite pure state.

    ``coefficients`` are nonnegative, descending, with squares summing to 1;
    ``left[:, i]`` / ``right[:, i]`` are the orthonormal Schmidt vectors and
    ``rank`` counts coefficients above the relative cutoff 1e-10.
    """

    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray
    rank: int


@dataclass
class PPTReport:
    """Outcome of the positive-partial-transpose test."""

    negative_count: int
    min_eigenvalue: float
    entangled: bool
    negativity: float


def max_entangled(d):
    """Maximally entangled state on C^d x C^d: sum_i |ii> / sqrt(d)."""
    if d < 2:
        raise ValueError(f"need local dimension at least 2, got {d}")
    amp = np.zeros(d * d, dtype=complex)
    amp[:: d + 1] = 1.0 / math.sqrt(d)
    return StateVector((d, d), amp)


#: Largest Haar vector ``_haar_rows`` draws: 2^24 amplitudes take 256 MiB
#: of Gaussian draws and 256 MiB of complex amplitudes.
HAAR_GUARD = 2**24


def _haar_rows(k, size, rng):
    """``k`` Haar-random unit vectors in C^size, as the rows of a (k, size) array.

    ``rng`` is a numpy ``Generator``.  Row i normalises ``g[i, 0] + 1j g[i,
    1]`` for one ``g = rng.standard_normal((k, 2, size))`` draw, so a seed
    gives the same vectors whatever k is; the law of i.i.d. complex
    Gaussians is unitarily invariant, so this is exact.
    A ``size`` above ``HAAR_GUARD`` is refused before anything is drawn.
    """
    _require_size("Haar", "dimension", HAAR_GUARD, size)
    g = rng.standard_normal((k, 2, size))
    amp = g[:, 0] + 1j * g[:, 1]
    amp /= np.sqrt(np.einsum("kij,kij->k", g, g))[:, None]
    return amp


def haar_state(m, n, rng):
    """Haar-random pure state on C^m x C^n."""
    return StateVector((m, n), _haar_rows(1, m * n, rng)[0])


def _bipartition(state):
    """The factor dimensions ``(m, n)`` of a state of exactly two factors."""
    if len(state.dims) != 2:
        raise ValueError(f"need a state of two factors, got dims {state.dims}")
    return state.dims


def schmidt_decompose(psi):
    """Schmidt decomposition of a pure state with ``dims = (m, n)``.

    The amplitude vector is reshaped to an m x n matrix (A slow) and an SVD
    taken; singular values are the Schmidt coefficients.
    """
    m, n = _bipartition(psi)
    mat = psi.amplitudes.reshape(m, n)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0])) if s[0] > 0 else 0  # s descends
    return SchmidtData(coefficients=s[:rank], left=u[:, :rank], right=vh.T[:, :rank], rank=rank)


def partial_transpose(rho, side="B"):
    """Partial transpose on tensor factor ``side``, "A" or "B", of a
    DensityOperator or of |psi><psi| for a StateVector."""
    m, n = _bipartition(rho)
    if isinstance(rho, StateVector):
        r = np.outer(rho.amplitudes, rho.amplitudes.conj()).reshape(m, n, m, n)
    else:
        r = rho.matrix.reshape(m, n, m, n)
    if side == "A":
        r = r.transpose(2, 1, 0, 3)
    elif side == "B":
        r = r.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return r.reshape(m * n, m * n)


def ppt_report(rho, side="B", tol=1e-10):
    """The PPT verdict and negativity from the spectrum of the partial transpose.

    A pure state of Schmidt rank r yields exactly r(r-1)/2 negative
    eigenvalues; any eigenvalue below ``-tol`` certifies entanglement.
    """
    pt = partial_transpose(rho, side=side)
    w, _ = hermitian_eigen(pt)
    return PPTReport(
        negative_count=int(np.count_nonzero(w < -tol)),
        min_eigenvalue=float(w[0]),
        entangled=bool(w[0] < -tol),
        negativity=float((-w[w < 0.0]).sum()),  # negated first: no negatives sum to +0.0
    )


def negativity(rho):
    """Entanglement negativity: total weight of negative PT eigenvalues.
    PT_A is the full transpose of PT_B, so either side gives it."""
    return ppt_report(rho).negativity


def log_negativity(rho):
    """Logarithmic negativity log2(2 N + 1) = log2 ||rho^T_B||_1."""
    return math.log2(2.0 * negativity(rho) + 1.0)


def _entropy_of_probs(p, base, alpha=1):
    """Shannon (alpha = 1) or Renyi entropy of each distribution along the
    last axis of ``p``, with 0 log 0 = 0; entries <= 0 count as 0, and a
    NaN entry makes its entropy NaN."""
    p = np.where(p <= 0.0, 0.0, p)
    if alpha == 1:
        h = -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1) / math.log(base)
    else:
        h = np.log((p**alpha).sum(axis=-1)) / ((1.0 - alpha) * math.log(base))
    return h if h.ndim else float(h)


def renyi_entropy(rho, alpha, base=2):
    """Renyi entropy log(tr rho^alpha) / (1 - alpha).

    ``alpha = 0`` gives log(rank), ``alpha = 1`` the von Neumann entropy,
    ``alpha = inf`` the min-entropy -log(lambda_max).  For every
    ``alpha < 1``, eigenvalues at most ``RANK_TOL`` times the largest count
    as 0, since p**alpha would lift rounding-level ones to real weight.
    A StateVector gives 0 for every alpha.
    """
    if not alpha >= 0:  # also refuses NaN
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if isinstance(rho, StateVector):
        return 0.0
    p = rho.eigenvalues()
    if alpha < 1:
        p = np.where(p > RANK_TOL * p[-1], p, 0.0)
    if alpha == 0:
        return math.log(max(np.count_nonzero(p), 1)) / math.log(base)
    if math.isinf(alpha):
        return float(-math.log(p[-1]) / math.log(base))
    return _entropy_of_probs(p, base, alpha)


def page_experiment(m, n, samples, rng):
    """Monte-Carlo average entanglement of Haar-random states on C^m x C^n.

    Samples are drawn in ``_haar_rows`` blocks of at most
    ``PAGE_BLOCK_AMPLITUDES`` amplitudes, the states repeated
    :func:`haar_state` calls would give.  Each sample's spectrum p comes from
    one stacked ``eigvalsh`` of its reduced density matrix rho_A = M M^dag
    (m x m, as m <= n), clipped at 0.  This Gram route is safe here, unlike
    at an MPS cut: no rank cutoff is applied, and p enters only the entropy
    and the purity, where an absolute error of eps is harmless.

    Returns
    -------
    mean_entropy : float
        Sample mean of S(rho_A) in nats.
    std_error : float
        Standard error of that mean.
    mean_purity : float
        Sample mean of tr(rho_A^2).
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got ({m}, {n})")
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    ent = np.empty(samples)
    pur = np.empty(samples)
    block = max(1, PAGE_BLOCK_AMPLITUDES // (m * n))
    for start in range(0, samples, block):
        k = min(block, samples - start)
        mat = _haar_rows(k, m * n, rng).reshape(k, m, n)
        p = np.linalg.eigvalsh(mat @ mat.conj().transpose(0, 2, 1))
        np.maximum(p, 0.0, out=p)
        p /= p.sum(axis=1, keepdims=True)  # exact simplex point; m = 1 gives S = 0
        ent[start:start + k] = _entropy_of_probs(p, math.e)
        pur[start:start + k] = (p * p).sum(axis=1)
    se = float(ent.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return float(ent.mean()), se, float(pur.mean())


# ---------------------------------------------------------------------------
# JSON wire format: {"dims": [...], "re": [...], "im": [...]}
# Vectors store amplitudes; operators store the matrix flattened row-major.


def state_to_json(obj):
    """Serialise a StateVector or DensityOperator to a JSON-ready dict."""
    if isinstance(obj, StateVector):
        flat = obj.amplitudes
    elif isinstance(obj, DensityOperator):
        flat = obj.matrix.reshape(-1)
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")
    return {
        "dims": list(obj.dims),
        "re": [float(x) for x in flat.real],
        "im": [float(x) for x in flat.imag],
    }


def state_from_json(data):
    """Inverse of :func:`state_to_json`; length disambiguates vector/operator."""
    dims = _as_dims(data["dims"])
    flat = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
    d = math.prod(dims)
    if flat.size == d:
        return StateVector(dims, flat)
    if flat.size == d * d:
        return DensityOperator(dims, flat.reshape(d, d))
    raise ValueError(
        f"payload length {flat.size} matches neither a vector ({d}) "
        f"nor an operator ({d * d}) on dims {dims}"
    )
