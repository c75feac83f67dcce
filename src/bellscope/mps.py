"""Matrix product states (open boundary) in canonical form, with truncation
and the entropy-based approximability bounds.

Canonical form used here: per bond k a diagonal positive matrix Lambda^[k]
(descending, unit trace) equal to the spectrum of the reduced density matrix
of sites 1..k, and site tensors A^[k] satisfying

    sum_i A_i^[k] A_i^[k]^dag           = 1            (end bonds trivial)
    sum_i A_i^[k]^dag Lambda^[k-1] A_i^[k] = Lambda^[k]

Singular values below ``1e-12 * sigma_max`` are discarded everywhere.

The spectra at every cut come from one QR chain per side of the middle
(:func:`cut_spectra`).  A state is factored by one left-to-right sweep over
its cuts, QR-first and, under a cap, starting at the first cut the cap can
truncate.  A right-to-left pass over the swept factors then gives the
canonical tensors.  The truncation error is the squared weight the sweep
discards (:func:`truncate`).  States with zero norm or non-finite
amplitudes are refused with ``ValueError``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import _cut_singular_values, _left_singular
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
]

SVD_CUTOFF = 1e-12  # relative to the largest singular value at each cut


@dataclass(eq=False)
class MpsState:
    """Open-boundary MPS in canonical form.

    tensors[k] has shape (D_k, d, D_{k+1}) with D_0 = D_N = 1; lambdas[k]
    (k = 0..N-2) sits on the bond after site k.  ``discarded`` is the
    squared norm that :func:`mps_from_dense` projected out of its input.
    """

    tensors: list
    lambdas: list
    discarded: float = 0.0

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
    if d < 2:
        raise ValueError(f"local dimension must be at least 2, got {d}")
    n = round(math.log(size, d))
    if d**n != size:
        raise ValueError(f"amplitude length {size} is not a power of d = {d}")
    if n < 1:
        raise ValueError("a single amplitude is a state of zero sites; need at least one")
    return n


def _as_amplitudes(psi, d):
    if isinstance(psi, StateVector):
        dims = set(psi.dims)
        if dims != {psi.dims[0]}:
            raise ValueError("MPS conversion needs uniform local dimensions")
        amp, d = np.asarray(psi.amplitudes, dtype=complex), psi.dims[0]
    else:
        amp = np.asarray(psi, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(amp))
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValueError(f"state needs a finite, nonzero norm, got {norm}")
    return amp, d


def _kept(s, dmax=None):
    """How many singular values a cut keeps: those above the relative
    cutoff, at most ``dmax`` of them when set, and always at least one."""
    keep = int(np.count_nonzero(s > SVD_CUTOFF * s[0]))
    return max(1, keep if dmax is None else min(keep, dmax))


def cut_spectra(psi, d=2):
    """Reduced-density spectra at every cut of a dense state.

    Returns a list over cuts k = 1..N-1 of descending eigenvalue arrays of
    the reduced density matrix of sites 1..k (squared Schmidt
    coefficients), each truncated at the relative SVD cutoff.  At most three
    cuts are factored at full size, each other from a QR of its neighbour's
    triangular factor (:func:`numerics._cut_singular_values`), so every
    value keeps an absolute error of O(N eps sigma_max).
    """
    amp, d = _as_amplitudes(psi, d)
    n = _infer_sites(amp.size, d)
    return [s[s > SVD_CUTOFF * s[0]] ** 2 for s in _cut_singular_values(amp, d, n, n - 1)]


def _left_sweep(amp, d, dmax=None):
    """Left-to-right SVD sweep over every cut of a dense state.

    Each cut keeps its singular values above the relative cutoff, at most
    ``dmax`` of them when ``dmax`` is set, and always at least one.  The
    cuts are factored QR-first (:func:`numerics._left_singular`), and the
    kept rows of ``diag(s) vh`` are taken as ``u^dag w``.  The cap cannot
    truncate a cut k <= N/2 with d^k <= ``dmax``, so those cuts get identity
    blocks, whose sub-cutoff directions :func:`_right_pass` drops.

    Returns
    -------
    blocks : list of ndarray
        Left-isometric pieces, ``blocks[k]`` of shape (D_k * d, D_{k+1}).
    rest : ndarray, shape (D_{N-1}, d)
        What remains after the last cut.
    discarded : float
        Sum of the squared singular values the cuts drop.
    """
    n = _infer_sites(amp.size, d)
    start = 0
    while dmax is not None and start < n // 2 and d ** (start + 1) <= dmax:
        start += 1
    blocks = [np.eye(d**k) for k in range(1, start + 1)]
    work = amp.reshape(d**start, -1)
    discarded = 0.0
    for _ in range(start, n - 1):
        work = work.reshape(work.shape[0] * d, -1)
        u, s = _left_singular(work)
        keep = _kept(s, dmax)
        discarded += float(np.sum(s[keep:] ** 2))
        blocks.append(u[:, :keep])
        work = blocks[-1].conj().T @ work
    return blocks, work, discarded


def _right_pass(blocks, rest, d, discarded):
    """Canonical MPS of the normalised state ``blocks[0] ... blocks[-1] rest``.

    A right-to-left SVD pass over the small factors: each SVD splits off a
    right-isometric site tensor, and since everything to its left is an
    isometry, its singular values are the exact Schmidt coefficients of the
    state at that bond.  Bonds at most D cost O(N d D^3).
    """
    n = len(blocks) + 1
    tensors = [None] * n
    lambdas = [None] * (n - 1)
    work = rest / np.linalg.norm(rest)  # (D_{N-1}, d)
    for k in range(n - 1, 0, -1):
        u, s, vh = np.linalg.svd(work, full_matrices=False)
        keep = _kept(s)
        tensors[k] = vh[:keep].reshape(keep, d, -1)
        lambdas[k - 1] = s[:keep] ** 2
        work = (blocks[k - 1] @ (u[:, :keep] * s[:keep])).reshape(-1, d * keep)
    tensors[0] = work.reshape(1, d, -1)
    return MpsState(tensors=tensors, lambdas=lambdas, discarded=discarded)


def _bond_cap(dmax):
    """``dmax`` as an int, or ``ValueError`` if it is below 1 or not an integer."""
    if not (isinstance(dmax, numbers.Integral) and dmax >= 1):
        raise ValueError(f"dmax must be at least 1 and an integer, got {dmax!r}")
    return int(dmax)


def mps_from_dense(psi, d=2, dmax=None):
    """Exact (or bond-capped) canonical MPS of a dense state vector.

    One left-to-right sweep (:func:`_left_sweep`) factors the state, and a
    right-to-left pass (:func:`_right_pass`) over its factors gives the
    right-isometric tensors and exact bond spectra.

    With ``dmax`` set, the sweep keeps at most ``dmax`` singular vectors per
    cut, which projects every cut in turn onto its leading Schmidt space.
    The result is the canonical MPS of that projected state, renormalised,
    and the right-to-left pass costs O(N d dmax^3).  Use :func:`truncate`
    to also get the truncation error.  A ``dmax`` below 1 or not an
    integer raises ``ValueError``.
    """
    dmax = None if dmax is None else _bond_cap(dmax)
    amp, d = _as_amplitudes(psi, d)
    blocks, rest, discarded = _left_sweep(amp, d, dmax)
    return _right_pass(blocks, rest, d, discarded)


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
            out[k, 2] = max(abs(float(lam_right.sum()) - 1.0), -float(lam_right.min(initial=0.0)),
                            float(np.diff(lam_right).max(initial=0.0)))
        lam_left = lam_right
    return out


def truncate(psi, dmax, d=2):
    """Cap every bond at ``dmax``, reporting the squared truncation error.

    Accepts a dense state, as an array or a StateVector.  The error is
    ``|| psi - P psi ||^2`` for the sequential Schmidt-space projection P
    (the quantity the tail-sum bound controls); the returned MPS is the
    renormalised projected state, again in canonical form, from the single
    capped sweep of :func:`mps_from_dense`.  Each cut's kept
    left space lies inside the previous cut's kept space tensored with C^d,
    so ``psi - P psi`` is a sum of mutually orthogonal pieces, one per cut,
    and the error is the sum of the squared singular values the sweep
    discards: no cancellation, and exactly 0.0 when no cut drops a value.
    """
    amp, d = _as_amplitudes(psi, d)
    truncated = mps_from_dense(amp, d=d, dmax=dmax)
    return truncated, truncated.discarded


def truncation_bound(spectra, dmax):
    """Tail-sum bound: || psi - psi_D ||^2 <= 2 sum_cuts sum_{i > D} lambda_i."""
    dmax, total = _bond_cap(dmax), 0.0
    for lam in spectra:
        lam = np.sort(np.asarray(lam, dtype=float))[::-1]
        total += float(lam[dmax:].sum())
    return 2.0 * total


def renyi_tail_bound(spectrum, alpha, dmax):
    """Entropy bound on the tail weight of a single cut.

    For 0 < alpha < 1 the discarded weight eps(D) = sum_{i > D} lambda_i of
    any density spectrum obeys

        log2 eps(D) <= ((1 - alpha) / alpha) * (S_alpha - log2(D / (1 - alpha)))

    with S_alpha the base-2 Renyi entropy of the spectrum.  Returns the
    right-hand side.
    """
    dmax = _bond_cap(dmax)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    s_alpha = _entropy_of_probs(np.asarray(spectrum, dtype=float), 2, alpha)
    return ((1.0 - alpha) / alpha) * (s_alpha - math.log2(dmax / (1.0 - alpha)))

