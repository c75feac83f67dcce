"""Short spin chains: matrix-free Hamiltonians, ground states by Lanczos, block
entropies, and thermal and classical Gibbs mutual information.

Entropies in this module are in bits, except the thermal
mutual-information check, which works in nats: its bound carries no log
factor, so it is only a theorem for the natural-log mutual information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _cut_singular_values, _require_hermitian, _require_size, _start_vector
from .quantum import StateVector, _entropy_of_probs

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "ChainHamiltonian",
    "heisenberg_chain",
    "transverse_ising_chain",
    "random_chain",
    "ground_state_exact",
    "block_entropy_curve",
    "ThermalMIReport",
    "thermal_mutual_info_check",
    "classical_gibbs_mutual_info",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

DENSE_GUARD = 2**13   # total dimension d^n of a chain and of its ground state
LANCZOS_TOL = 1e-14   # stop at residual estimate <= LANCZOS_TOL * ||T||
LANCZOS_RESIDUAL = 1e-10   # verified ||H psi - E psi|| <= this * max(1, ||T||)
LANCZOS_MAX_STEPS = 300
THERMAL_GUARD = 2**10
CLASSICAL_GUARD = 10**6
CLASSICAL_SITES = 64   # the energy table has one axis per site, and numpy allows 64


def _local_term(term, size, what):
    t = np.asarray(term, dtype=complex)
    if t.shape != (size, size):
        raise ValueError(f"{what} has shape {t.shape}, want ({size},{size})")
    if not np.isfinite(t).all():
        raise ValueError(f"{what} has non-finite entries")
    _require_hermitian(t, what)
    return t if t.imag.any() else t.real.copy()


@dataclass(eq=False)
class ChainHamiltonian:
    """Nearest-neighbour chain H = sum_i h_i^{(i,i+1)} + sum_i f_i.

    ``bond_terms[i]`` is the (d^2, d^2) term on sites (i, i+1); a periodic
    chain carries one extra term on (N-1, 0).  ``site_fields`` is an
    optional list of (d, d) single-site terms.  Terms must be finite and
    Hermitian to 1e-12 relative; real ones are stored, and applied, as real.
    The dimension d^N is at most ``DENSE_GUARD``.
    """

    n_sites: int
    local_dim: int
    bond_terms: list
    site_fields: list | None = None
    boundary: str = "open"

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("need at least two sites")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        want = _bond_count(self.n_sites, self.local_dim, self.boundary)
        if len(self.bond_terms) != want:
            raise ValueError(
                f"{self.boundary} chain of {self.n_sites} sites needs "
                f"{want} bond terms, got {len(self.bond_terms)}"
            )
        self.bond_terms = [_local_term(t, self.local_dim**2, f"bond term {i}")
                           for i, t in enumerate(self.bond_terms)]
        if self.site_fields is not None:
            if len(self.site_fields) != self.n_sites:
                raise ValueError("need one field per site")
            self.site_fields = [_local_term(f, self.local_dim, f"site field {i}")
                                for i, f in enumerate(self.site_fields)]

    @property
    def dimension(self):
        return self.local_dim**self.n_sites

    def apply(self, psi):
        """H on a (dim,) vector or a (dim, k) block, matrix-free: each site in
        turn is rotated to the front, where its bond term (wrap included) and
        its field are one matrix product each; N rotations restore the order."""
        n, d, fields = self.n_sites, self.local_dim, self.site_fields or ()
        x = np.asarray(psi).reshape(self.dimension, -1)
        out = np.zeros(x.shape, np.result_type(x, *self.bond_terms, *fields))
        for i in range(n):
            if i < len(self.bond_terms):
                out += (self.bond_terms[i] @ x.reshape(d * d, -1)).reshape(out.shape)
            if fields:
                out += (fields[i] @ x.reshape(d, -1)).reshape(out.shape)
            x, out = (np.ascontiguousarray(a.reshape(d, -1, out.shape[-1]).swapaxes(0, 1))
                      for a in (x, out))
        return out.reshape(np.shape(psi))

    def dense(self):
        """The full complex Hamiltonian: ``apply`` on 128 identity columns at a time."""
        terms = [*self.bond_terms, *(self.site_fields or ())]
        out = np.eye(self.dimension, dtype=np.result_type(*terms))  # real when H is real
        for j in range(0, self.dimension, 128):
            out[:, j:j + 128] = self.apply(out[:, j:j + 128])
        return out.astype(complex, copy=False)


def _bond_count(n, d, boundary):
    """Bonds of an n-site chain, after the one check of d^n against ``DENSE_GUARD``."""
    _require_size("chain", "dimension d^n", DENSE_GUARD, d, n)
    return n if boundary == "periodic" else n - 1


def heisenberg_chain(n, j=1.0, boundary="open"):
    """Isotropic Heisenberg chain J sum_i S_i . S_{i+1} (spin-1/2)."""
    term = (j / 4.0) * (
        np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z)
    )
    return ChainHamiltonian(n, 2, [term] * _bond_count(n, 2, boundary), boundary=boundary)


def transverse_ising_chain(n, j=1.0, g=1.0, boundary="open"):
    """Transverse-field Ising chain -j sum sx sx - g sum sz."""
    term = -j * np.kron(SIGMA_X, SIGMA_X)
    bonds = _bond_count(n, 2, boundary)
    fields = [-g * SIGMA_Z] * n
    return ChainHamiltonian(n, 2, [term] * bonds, site_fields=fields, boundary=boundary)


def random_chain(n, d, rng, boundary="open", field_scale=0.0):
    """Chain with independent random Hermitian bond terms (unit scale)."""
    def hermitian(shape, scale=1.0):  # real part drawn first
        g = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        return (g + g.conj().T) / 2.0

    bonds = _bond_count(n, d, boundary)
    terms = [hermitian((d * d, d * d)) for _ in range(bonds)]
    fields = None
    if field_scale:
        fields = [hermitian((d, d), field_scale) for _ in range(n)]
    return ChainHamiltonian(n, d, terms, site_fields=fields, boundary=boundary)


def ground_state_exact(ham):
    """Lowest eigenpair ``(energy, StateVector)`` of a chain Hamiltonian.

    Lanczos with full reorthogonalisation (Parlett, ch. 13) on ``ham.apply``
    from the seeded ``numerics._start_vector(dim)``.
    It stops at ``beta_m |s_m| <= LANCZOS_TOL ||T_m||``, at ``m == dim`` or at
    ``beta_m <= LANCZOS_TOL max_j(|alpha_j|, beta_j)`` (the Krylov space is
    exhausted), then needs ``||H psi - E psi|| <= LANCZOS_RESIDUAL max(1,
    ||T_m||)``; else, or at ``LANCZOS_MAX_STEPS``, ``ArithmeticError``.  A
    step or residual that overflows (terms above about 1e153, where
    ||H v||^2 leaves the float range) raises ``ValueError`` as soon as it
    is made, before any tridiagonal eigensolve sees it.  A degenerate
    ground level gives the start vector's projection onto it.
    """
    dim = ham.dimension
    dims = (ham.local_dim,) * ham.n_sites
    v = _start_vector(dim)
    v = v / np.linalg.norm(v)
    basis = np.empty((0, dim))
    alpha, beta = [], []
    tnorm = 0.0  # max_j(|alpha_j|, beta_j) <= ||T||, O(1) per step
    for m in range(1, LANCZOS_MAX_STEPS + 1):
        w = ham.apply(v)
        if m > len(basis):  # grow geometrically, in the dtype apply returns
            basis = np.concatenate([basis, np.empty((m, dim), w.dtype)])
        basis[m - 1] = v
        vm = basis[:m]
        if m > 1:
            w -= beta[-1] * vm[-2]
        alpha.append(float(np.vdot(v, w).real))
        w -= alpha[-1] * v
        w -= (vm @ w.conj()).conj() @ vm  # full reorthogonalisation
        beta.append(float(np.linalg.norm(w)))
        _require_no_overflow(alpha[-1] + beta[-1])
        tnorm = max(tnorm, abs(alpha[-1]), beta[-1])
        exhausted = m == dim or beta[-1] <= LANCZOS_TOL * tnorm
        if m % 4 == 0 or m == LANCZOS_MAX_STEPS or exhausted:
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], 1), UPLO="U")
            scale = max(abs(theta[0]), abs(theta[-1]))
            converged = exhausted or beta[-1] * abs(s[-1, 0]) <= LANCZOS_TOL * scale
            if converged or m == LANCZOS_MAX_STEPS:
                break
        v = w / beta[-1]
    x = s[:, 0] @ vm
    x /= np.linalg.norm(x)
    residual = float(np.linalg.norm(ham.apply(x) - theta[0] * x))
    _require_no_overflow(residual)
    if not converged or residual > LANCZOS_RESIDUAL * max(1.0, scale):
        raise ArithmeticError(f"Lanczos did not converge in {m} steps: "
                              f"residual ||H psi - E psi|| = {residual:.3g}")
    return float(theta[0]), StateVector(dims, x)


def _require_no_overflow(value):
    """Refuse a Lanczos step or residual that left the float range."""
    if not math.isfinite(value):
        raise ValueError("Lanczos overflowed the float range: the chain's terms are too large")


def block_entropy_curve(psi, max_block=None):
    """Entanglement entropy (bits) of the leftmost r sites, r = 1..max_block.

    The Schmidt values come from one QR chain per side of the middle
    (:func:`numerics._cut_singular_values`), which factors no cut beyond
    ``max_block``; each keeps an absolute error of O(n eps s_max).
    """
    if not isinstance(psi, StateVector):
        raise TypeError("expected a StateVector")
    d = psi.dims[0]
    if any(dd != d for dd in psi.dims):
        raise ValueError("block curve needs uniform local dimensions")
    n = len(psi.dims)
    if max_block is None:
        max_block = n - 1
    if not 1 <= max_block <= n - 1:
        raise ValueError(f"max_block must lie in 1..{n - 1}")
    spectra = _cut_singular_values(psi.amplitudes, d, n, max_block)
    return np.array([_entropy_of_probs(s * s, 2) for s in spectra])


@dataclass
class ThermalMIReport:
    """Mutual information (nats) across a cut of a Gibbs state vs its bound."""

    mutual_info: float
    bound: float
    ok: bool
    boundary_norm: float
    crossing_terms: int


def _mi_report(mi, bound, norm, crossing):
    return ThermalMIReport(mutual_info=mi, bound=float(bound), ok=bool(mi <= bound + 1e-9),
                           boundary_norm=norm, crossing_terms=crossing)


def _boltzmann(energy, beta):
    """exp(-beta E) / Z, shifted by the E that minimises beta E, so no
    weight exceeds 1 for either sign of beta.  An exponent can then only
    overflow to -inf, whose weight 0 is exact."""
    with np.errstate(over="ignore"):
        w = np.exp(-beta * (energy - (energy.min() if beta >= 0 else energy.max())))
    return w / w.sum()


def _crossing_terms(ham, cut):
    terms = [ham.bond_terms[cut - 1]]
    if ham.boundary == "periodic":
        terms.append(ham.bond_terms[-1])
    return terms


def thermal_mutual_info_check(ham, beta, cut):
    """Mutual information of exp(-beta H)/Z across a cut, with its bound.

    The cut separates sites 0..cut-1 from the rest.  The bound is
    ``2 beta ||h|| |dA|`` with ``||h||`` the largest spectral norm among the
    boundary-crossing bond terms and ``|dA|`` their count; the comparison
    uses natural-log mutual information, which is what the bound controls.
    A spectrum that overflows the float range raises ``ValueError``.

    H is diagonalised once.  S(AB) is the Shannon entropy of the Boltzmann
    weights p of its spectrum; rho_A and rho_B are contracted from its
    eigenvectors and p, and their spectra taken values-only.  No full Gibbs
    state is formed.
    """
    if not 1 <= cut <= ham.n_sites - 1:
        raise ValueError(f"cut must lie in 1..{ham.n_sites - 1}")
    _require_size("thermal", "dimension d^n", THERMAL_GUARD, ham.local_dim, ham.n_sites)
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
    w, v = np.linalg.eigh(ham.dense())
    if not np.isfinite(w).all():
        raise ValueError("the dense spectrum overflowed: the chain's terms are too large")
    p = _boltzmann(w, beta)
    d = ham.local_dim
    vecs = v.reshape(d**cut, d ** (ham.n_sites - cut), -1)
    rho_a = np.einsum("ikm,jkm,m->ij", vecs, vecs.conj(), p)
    rho_b = np.einsum("kim,kjm,m->ij", vecs, vecs.conj(), p)
    mi = (_entropy_of_probs(np.linalg.eigvalsh(rho_a), math.e)
          + _entropy_of_probs(np.linalg.eigvalsh(rho_b), math.e) - _entropy_of_probs(p, math.e))
    terms = _crossing_terms(ham, cut)
    hnorm = max(float(np.max(np.abs(np.linalg.eigvalsh(t)))) for t in terms)
    return _mi_report(mi, 2.0 * beta * hnorm * len(terms), hnorm, len(terms))


def classical_gibbs_mutual_info(couplings, beta, cut, boundary="open"):
    """Shannon mutual information (bits) across a cut of a classical chain.

    Parameters
    ----------
    couplings : sequence of (d, d) arrays
        ``couplings[i][s, t]`` is the energy of sites (i, i+1) in states
        (s, t); a periodic chain's last entry couples (N-1, 0).  The
        chain needs at least two sites, and every entry must be finite.
    beta : float
        Finite, of either sign.
    cut : int
        Sites 0..cut-1 form block A.

    Returns
    -------
    report : ThermalMIReport
        Mutual information in bits against the bound |dA| log2 d.
    """
    couplings = [np.asarray(c, dtype=float) for c in couplings]
    if boundary not in ("open", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    n = len(couplings) + (boundary == "open")
    if n < 2:
        raise ValueError("a chain needs at least two sites")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    d = couplings[0].shape[0] if couplings[0].ndim else 0
    if not d or any(c.shape != (d, d) for c in couplings):
        raise ValueError("coupling tables must all be (d, d) with one d >= 1, "
                         "not ragged or non-square")
    _require_size("classical", "d^n", CLASSICAL_GUARD, d, n)
    _require_size("classical", "sites n", CLASSICAL_SITES, n)
    if not 1 <= cut <= n - 1:
        raise ValueError(f"cut must lie in 1..{n - 1}")
    if not all(np.isfinite(c).all() for c in couplings):
        raise ValueError("couplings must be finite")

    energy = np.zeros((d,) * n)
    for i, c in enumerate(couplings):
        j = (i + 1) % n
        shape = [1] * n
        shape[i] = d
        shape[j] = d
        if j > i:
            energy += c.reshape(shape)
        else:  # wrap-around: axis order in reshape is (j=0 ... i=n-1)
            energy += c.T.reshape(shape)

    p = _boltzmann(energy, beta)

    p_a = p.sum(axis=tuple(range(cut, n)))
    p_b = p.sum(axis=tuple(range(cut)))
    mi = (_entropy_of_probs(p_a.reshape(-1), 2) + _entropy_of_probs(p_b.reshape(-1), 2)
          - _entropy_of_probs(p.reshape(-1), 2))
    crossing = 1 if boundary == "open" else 2
    return _mi_report(mi, crossing * math.log2(d), math.log2(d), crossing)
