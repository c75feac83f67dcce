"""Matrix product states (open boundary) in canonical form, with truncation
and the entropy-based approximability bounds.

Canonical form used here: per bond k a diagonal positive matrix Lambda^[k]
(descending, unit trace) equal to the spectrum of the reduced density matrix
of sites 1..k, and site tensors A^[k] satisfying

    sum_i A_i^[k] A_i^[k]^dag           = 1            (end bonds trivial)
    sum_i A_i^[k]^dag Lambda^[k-1] A_i^[k] = Lambda^[k]

Singular values below ``1e-12 * sigma_max`` are discarded everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum import StateVector, _entropy_of_probs

__all__ = [
    "MpsState",
    "cut_spectra",
    "mps_from_dense",
    "mps_to_dense",
    "canonical_residuals",
    "truncate",
    "truncation_bound",
    "renyi_tail_bound",
    "bond_entropies",
]

SVD_CUTOFF = 1e-12  # relative to the largest singular value at each cut


@dataclass
class MpsState:
    """Open-boundary MPS in canonical form.

    tensors[k] has shape (D_k, d, D_{k+1}) with D_0 = D_N = 1; lambdas[k]
    (k = 0..N-2) sits on the bond after site k.
    """

    tensors: list
    lambdas: list

    def __post_init__(self):
        if not self.tensors:
            raise ValueError("empty tensor list")
        if len(self.lambdas) != len(self.tensors) - 1:
            raise ValueError(
                f"{len(self.tensors)} tensors need {len(self.tensors) - 1} "
                f"bond spectra, got {len(self.lambdas)}"
            )
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[2] != 1:
            raise ValueError("open-boundary MPS must have trivial end bonds")
        for k in range(len(self.tensors) - 1):
            if self.tensors[k].shape[2] != self.tensors[k + 1].shape[0]:
                raise ValueError(f"bond mismatch between sites {k} and {k + 1}")
            if self.lambdas[k].shape[0] != self.tensors[k].shape[2]:
                raise ValueError(f"lambda size mismatch on bond {k}")

    @property
    def n_sites(self):
        return len(self.tensors)

    @property
    def local_dim(self):
        return self.tensors[0].shape[1]

    @property
    def bond_dimensions(self):
        return tuple(t.shape[2] for t in self.tensors[:-1])


def _infer_sites(size, d):
    n = round(math.log(size, d))
    if d**n != size:
        raise ValueError(f"amplitude length {size} is not a power of d = {d}")
    return n


def _as_amplitudes(psi, d):
    if isinstance(psi, StateVector):
        dims = set(psi.dims)
        if dims != {psi.dims[0]}:
            raise ValueError("MPS conversion needs uniform local dimensions")
        return np.asarray(psi.amplitudes, dtype=complex), psi.dims[0]
    amp = np.asarray(psi, dtype=complex).reshape(-1)
    return amp, d


def cut_spectra(psi, d=2):
    """Reduced-density spectra at every cut of a dense state.

    Returns a list over cuts k = 1..N-1 of descending eigenvalue arrays of
    the reduced density matrix of sites 1..k (squared Schmidt
    coefficients), each truncated at the relative SVD cutoff.
    """
    amp, d = _as_amplitudes(psi, d)
    n = _infer_sites(amp.size, d)
    out = []
    for k in range(1, n):
        s = np.linalg.svd(amp.reshape(d**k, d ** (n - k)), compute_uv=False)
        keep = s > SVD_CUTOFF * s[0] if s.size and s[0] > 0 else slice(0)
        out.append((s[keep] ** 2).astype(float))
    return out


def _left_sweep(amp, d, dmax=None):
    """Left-to-right SVD sweep over every cut of a dense state.

    Each cut keeps its singular values above the relative cutoff, at most
    ``dmax`` of them when ``dmax`` is set, and always at least one.

    Returns
    -------
    blocks : list of ndarray
        Left-isometric pieces, ``blocks[k]`` of shape (D_k * d, D_{k+1}).
    svals : list of ndarray
        The kept singular values of each cut.
    rest : ndarray, shape (D_{N-1}, d)
        What remains after the last cut.
    """
    n = _infer_sites(amp.size, d)
    work = amp.reshape(1, -1)
    left_dim = 1
    blocks = []
    svals = []
    for _ in range(n - 1):
        work = work.reshape(left_dim * d, -1)
        u, s, vh = np.linalg.svd(work, full_matrices=False)
        keep = int(np.count_nonzero(s > SVD_CUTOFF * s[0])) if s[0] > 0 else 1
        if dmax is not None:
            keep = min(keep, dmax)
        keep = max(1, keep)
        blocks.append(u[:, :keep])
        svals.append(s[:keep])
        work = s[:keep, None] * vh[:keep]
        left_dim = keep
    return blocks, svals, work


def _project_tails(amp, d, dmax):
    """Sequentially project every cut onto its top-dmax Schmidt space.

    Returns the (generally unnormalised) projected amplitudes; the squared
    norm deficit is the truncation error the tail-sum bound controls.
    """
    blocks, _, out = _left_sweep(amp, d, dmax)
    for u in reversed(blocks):
        out = u @ out.reshape(u.shape[1], -1)   # (D_k * d, rest)
        out = out.reshape(u.shape[0] // d, -1)  # (D_k, d * rest)
    return out.reshape(-1)


def mps_from_dense(psi, d=2, dmax=None):
    """Exact (or bond-capped) canonical MPS of a dense state vector.

    With ``dmax`` set, every cut is first projected onto its leading
    ``dmax`` Schmidt vectors and the state renormalised, so the result is a
    valid canonical MPS of the truncated state; use :func:`truncate` to
    also get the truncation error.
    """
    amp, d = _as_amplitudes(psi, d)
    if dmax is not None:
        amp = _project_tails(amp, d, int(dmax))
        amp = amp / np.linalg.norm(amp)
    n = _infer_sites(amp.size, d)

    # left sweep: psi = L^[0] ... L^[N-1] with isometric L and cut spectra s
    blocks, svals, rest = _left_sweep(amp, d)
    ls = [u.reshape(u.shape[0] // d, d, u.shape[1]) for u in blocks]
    ls.append(rest.reshape(rest.shape[0], d, 1))

    # rescale into canonical tensors: A^[k] = diag(1/s^[k-1]) L^[k] diag(s^[k])
    tensors = []
    for k, t in enumerate(ls):
        a = t.astype(complex).copy()
        if k > 0:
            a /= svals[k - 1][:, None, None]
        if k < n - 1:
            a *= svals[k][None, None, :]
        tensors.append(a)
    lambdas = [s * s for s in svals]
    return MpsState(tensors=tensors, lambdas=lambdas)


def mps_to_dense(mps):
    """Contract an MPS back to its dense amplitude vector."""
    d = mps.local_dim
    work = mps.tensors[0].reshape(d, -1)  # (phys, bond)
    for t in mps.tensors[1:]:
        work = work @ t.reshape(t.shape[0], -1)          # (phys_prev, d * D)
        work = work.reshape(-1, t.shape[2])
    return work.reshape(-1)


def canonical_residuals(mps):
    """Per-site residuals of the canonical-form conditions (max-abs norm).

    Columns: (isometry ``sum A A^dag = 1``, spectrum transport
    ``sum A^dag L A = L'``, bond spectrum health: positive, descending,
    unit trace).
    """
    n = mps.n_sites
    out = np.zeros((n, 3))
    lam_left = np.array([1.0])
    for k, t in enumerate(mps.tensors):
        dk, d, dk1 = t.shape
        mats = [t[:, i, :] for i in range(d)]
        gram = sum(m @ m.conj().T for m in mats)
        out[k, 0] = float(np.max(np.abs(gram - np.eye(dk))))
        lam_right = mps.lambdas[k] if k < n - 1 else np.array([1.0])
        transport = sum(m.conj().T @ np.diag(lam_left) @ m for m in mats)
        out[k, 1] = float(np.max(np.abs(transport - np.diag(lam_right))))
        if k < n - 1:
            lam = mps.lambdas[k]
            health = abs(float(lam.sum()) - 1.0)
            if lam.size:
                health = max(health, float(-lam.min()) if lam.min() < 0 else 0.0)
                if lam.size > 1:
                    increases = np.diff(lam)
                    health = max(health, float(increases.max()) if increases.max() > 0 else 0.0)
            out[k, 2] = health
        lam_left = lam_right
    return out


def truncate(psi, dmax, d=2):
    """Cap every bond at ``dmax``, reporting the squared truncation error.

    Accepts a dense state (array or StateVector) or an existing MpsState.
    The error is ``|| psi - P psi ||^2`` for the sequential Schmidt-space
    projection P (the quantity the tail-sum bound controls); the returned
    MPS is the renormalised projected state, again in canonical form.
    """
    if dmax < 1:
        raise ValueError("dmax must be at least 1")
    if isinstance(psi, MpsState):
        amp, d = mps_to_dense(psi), psi.local_dim
    else:
        amp, d = _as_amplitudes(psi, d)
    projected = _project_tails(amp, d, int(dmax))
    err2 = float(np.linalg.norm(amp - projected) ** 2)
    norm = np.linalg.norm(projected)
    truncated = mps_from_dense(projected / norm, d=d)
    return truncated, err2


def truncation_bound(spectra, dmax):
    """Tail-sum bound: || psi - psi_D ||^2 <= 2 sum_cuts sum_{i > D} lambda_i."""
    total = 0.0
    for lam in spectra:
        lam = np.sort(np.asarray(lam, dtype=float))[::-1]
        total += float(lam[int(dmax):].sum())
    return 2.0 * total


def renyi_tail_bound(spectrum, alpha, dmax):
    """Entropy bound on the tail weight of a single cut.

    For 0 < alpha < 1 the discarded weight eps(D) = sum_{i > D} lambda_i of
    any density spectrum obeys

        log2 eps(D) <= ((1 - alpha) / alpha) * (S_alpha - log2(D / (1 - alpha)))

    with S_alpha the base-2 Renyi entropy of the spectrum.  Returns the
    right-hand side.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    lam = np.asarray(spectrum, dtype=float)
    lam = lam[lam > 0.0]
    s_alpha = math.log2(float((lam**alpha).sum())) / (1.0 - alpha)
    return ((1.0 - alpha) / alpha) * (s_alpha - math.log2(dmax / (1.0 - alpha)))


def bond_entropies(mps, base=2):
    """Entanglement entropy at every bond, from the canonical spectra."""
    return np.asarray([_entropy_of_probs(lam, base) for lam in mps.lambdas])
