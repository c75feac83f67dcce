"""Short spin chains: exact diagonalisation, block entropies, and the
mutual-information bounds for thermal and classical Gibbs states.

Quantum entropies in this module default to base 2, except the thermal
mutual-information check, which works in nats: its bound carries no log
factor, so it is only a theorem for the natural-log mutual information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _singular_values, _start_vector
from .quantum import (
    DensityOperator,
    StateVector,
    _entropy_of_probs,
    partial_trace,
    vn_entropy,
)

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

DENSE_GUARD = 2**13   # total dimension for exact ground states
THERMAL_GUARD = 2**10
CLASSICAL_GUARD = 10**6


@dataclass
class ChainHamiltonian:
    """Nearest-neighbour chain H = sum_i h_i^{(i,i+1)} + sum_i f_i.

    ``bond_terms[i]`` is the (d^2, d^2) term on sites (i, i+1); a periodic
    chain carries one extra term on (N-1, 0).  ``site_fields`` is an
    optional list of (d, d) single-site terms.
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
        want = self.n_sites if self.boundary == "periodic" else self.n_sites - 1
        if len(self.bond_terms) != want:
            raise ValueError(
                f"{self.boundary} chain of {self.n_sites} sites needs "
                f"{want} bond terms, got {len(self.bond_terms)}"
            )
        d2 = self.local_dim**2
        self.bond_terms = [np.asarray(t, dtype=complex) for t in self.bond_terms]
        for i, t in enumerate(self.bond_terms):
            if t.shape != (d2, d2):
                raise ValueError(f"bond term {i} has shape {t.shape}, want ({d2},{d2})")
            if np.max(np.abs(t - t.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(t))):
                raise ValueError(f"bond term {i} is not Hermitian")
        if self.site_fields is not None:
            self.site_fields = [np.asarray(f, dtype=complex) for f in self.site_fields]
            if len(self.site_fields) != self.n_sites:
                raise ValueError("need one field per site")

    @property
    def dimension(self):
        return self.local_dim**self.n_sites

    def sparse(self):
        """Assemble the full Hamiltonian as a sparse matrix."""
        if self.dimension > DENSE_GUARD:
            raise ValueError(f"assembly guard is dimension <= {DENSE_GUARD}")
        import scipy.sparse

        n, d = self.n_sites, self.local_dim
        dim = self.dimension
        h = scipy.sparse.csr_matrix((dim, dim), dtype=complex)
        for i, term in enumerate(self.bond_terms):
            j = (i + 1) % n
            if j == i + 1:
                left = scipy.sparse.identity(d**i, format="csr")
                right = scipy.sparse.identity(d ** (n - i - 2), format="csr")
                h = h + scipy.sparse.kron(
                    scipy.sparse.kron(left, scipy.sparse.csr_matrix(term)), right
                )
            else:
                # wrap-around term on (N-1, 0): permute site 0 next to N-1
                h = h + self._wrap_term(term)
        if self.site_fields is not None:
            for i, f in enumerate(self.site_fields):
                left = scipy.sparse.identity(d**i, format="csr")
                right = scipy.sparse.identity(d ** (n - i - 1), format="csr")
                h = h + scipy.sparse.kron(
                    scipy.sparse.kron(left, scipy.sparse.csr_matrix(f)), right
                )
        return h.tocsr()

    def _wrap_term(self, term):
        """kron-embed a (site N-1, site 0) term without reordering sites."""
        import scipy.sparse

        n, d = self.n_sites, self.local_dim
        t4 = np.asarray(term).reshape(d, d, d, d)  # (a' b' | a b) on (N-1, 0)
        mid = scipy.sparse.identity(d ** (n - 2), format="coo")
        # build sum_{a'b'ab} t[a'b'ab] |b'> <b| (site 0) kron I kron |a'> <a| (site N-1)
        out = None
        for ap in range(d):
            for bp in range(d):
                for a in range(d):
                    for b in range(d):
                        v = t4[ap, bp, a, b]
                        if v == 0:
                            continue
                        first = scipy.sparse.coo_matrix(
                            ([1.0], ([bp], [b])), shape=(d, d)
                        )
                        last = scipy.sparse.coo_matrix(
                            ([1.0], ([ap], [a])), shape=(d, d)
                        )
                        piece = v * scipy.sparse.kron(scipy.sparse.kron(first, mid), last)
                        out = piece if out is None else out + piece
        return out.tocsr() if out is not None else scipy.sparse.csr_matrix(
            (self.dimension, self.dimension), dtype=complex
        )

    def dense(self):
        return self.sparse().toarray()


def heisenberg_chain(n, j=1.0, boundary="open"):
    """Isotropic Heisenberg chain J sum_i S_i . S_{i+1} (spin-1/2)."""
    term = (j / 4.0) * (
        np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z)
    )
    bonds = n if boundary == "periodic" else n - 1
    return ChainHamiltonian(n, 2, [term] * bonds, boundary=boundary)


def transverse_ising_chain(n, j=1.0, g=1.0, boundary="open"):
    """Transverse-field Ising chain -j sum sx sx - g sum sz."""
    term = -j * np.kron(SIGMA_X, SIGMA_X)
    bonds = n if boundary == "periodic" else n - 1
    fields = [-g * SIGMA_Z] * n
    return ChainHamiltonian(n, 2, [term] * bonds, site_fields=fields, boundary=boundary)


def random_chain(n, d, rng, boundary="open", field_scale=0.0):
    """Chain with independent random Hermitian bond terms (unit scale)."""
    bonds = n if boundary == "periodic" else n - 1
    terms = []
    for _ in range(bonds):
        g = rng.complex_normal((d * d, d * d))
        terms.append((g + g.conj().T) / 2.0)
    fields = None
    if field_scale:
        fields = []
        for _ in range(n):
            g = field_scale * rng.complex_normal((d, d))
            fields.append((g + g.conj().T) / 2.0)
    return ChainHamiltonian(n, d, terms, site_fields=fields, boundary=boundary)


def ground_state_exact(ham):
    """Lowest eigenpair of the assembled chain Hamiltonian.

    Dense for dimensions up to 512, Lanczos above, started from the fixed
    seeded vector ``numerics._start_vector(dim)`` so that the result is the
    same in every process.
    """
    dim = ham.dimension
    dims = (ham.local_dim,) * ham.n_sites
    if dim <= 512:
        w, v = np.linalg.eigh(ham.dense())
        return float(w[0]), StateVector(dims, v[:, 0])
    import scipy.sparse.linalg

    h = ham.sparse()
    w, v = scipy.sparse.linalg.eigsh(h, k=1, which="SA", v0=_start_vector(dim))
    vec = v[:, 0]
    vec = vec / np.linalg.norm(vec)
    return float(w[0]), StateVector(dims, vec)


def block_entropy_curve(psi, max_block=None, base=2):
    """Entanglement entropy of the leftmost r sites, r = 1..max_block."""
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
    out = np.empty(max_block)
    for r in range(1, max_block + 1):
        s = _singular_values(psi.amplitudes.reshape(d**r, -1))
        out[r - 1] = _entropy_of_probs(s * s, base)
    return out


@dataclass
class ThermalMIReport:
    """Mutual information (nats) across a cut of a Gibbs state vs its bound."""

    mutual_info: float
    bound: float
    ok: bool
    boundary_norm: float
    crossing_terms: int


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
    """
    if not 1 <= cut <= ham.n_sites - 1:
        raise ValueError(f"cut must lie in 1..{ham.n_sites - 1}")
    if ham.dimension > THERMAL_GUARD:
        raise ValueError(f"thermal guard is dimension <= {THERMAL_GUARD}")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    h = ham.dense()
    w, v = np.linalg.eigh(h)
    weights = np.exp(-beta * (w - w[0]))  # shift for stability
    weights /= weights.sum()
    rho = (v * weights) @ v.conj().T
    d = ham.local_dim
    dims = (d**cut, d ** (ham.n_sites - cut))
    rho_op = DensityOperator(dims, rho, validate=False)
    e = math.e
    mi = (
        vn_entropy(partial_trace(rho_op, "A"), base=e)
        + vn_entropy(partial_trace(rho_op, "B"), base=e)
        - vn_entropy(rho_op, base=e)
    )
    terms = _crossing_terms(ham, cut)
    hnorm = max(float(np.max(np.abs(np.linalg.eigvalsh(t)))) for t in terms)
    bound = 2.0 * beta * hnorm * len(terms)
    return ThermalMIReport(
        mutual_info=float(mi),
        bound=float(bound),
        ok=bool(mi <= bound + 1e-9),
        boundary_norm=hnorm,
        crossing_terms=len(terms),
    )


def classical_gibbs_mutual_info(couplings, beta, cut, boundary="open", fields=None):
    """Shannon mutual information (bits) across a cut of a classical chain.

    Parameters
    ----------
    couplings : sequence of (d, d) arrays
        ``couplings[i][s, t]`` is the energy of sites (i, i+1) in states
        (s, t); a periodic chain's last entry couples (N-1, 0).
    beta : float
    cut : int
        Sites 0..cut-1 form block A.
    fields : sequence of length-d arrays, optional

    Returns
    -------
    report : ThermalMIReport
        Mutual information in bits against the bound |dA| log2 d.
    """
    couplings = [np.asarray(c, dtype=float) for c in couplings]
    d = couplings[0].shape[0]
    if boundary == "open":
        n = len(couplings) + 1
    elif boundary == "periodic":
        n = len(couplings)
    else:
        raise ValueError(f"unknown boundary {boundary!r}")
    if any(c.shape != (d, d) for c in couplings):
        raise ValueError("ragged coupling tables")
    if d**n > CLASSICAL_GUARD:
        raise ValueError(f"classical guard is d^n <= {CLASSICAL_GUARD}")
    if not 1 <= cut <= n - 1:
        raise ValueError(f"cut must lie in 1..{n - 1}")

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
    if fields is not None:
        for i, f in enumerate(fields):
            shape = [1] * n
            shape[i] = d
            energy += np.asarray(f, dtype=float).reshape(shape)

    w = np.exp(-beta * (energy - energy.min()))
    p = w / w.sum()

    def shannon(q):
        q = q[q > 0.0]
        return float(-(q * np.log2(q)).sum())

    p_a = p.sum(axis=tuple(range(cut, n)))
    p_b = p.sum(axis=tuple(range(cut)))
    mi = shannon(p_a.reshape(-1)) + shannon(p_b.reshape(-1)) - shannon(p.reshape(-1))
    crossing = 1 if boundary == "open" else 2
    bound = crossing * math.log2(d)
    return ThermalMIReport(
        mutual_info=mi,
        bound=float(bound),
        ok=bool(mi <= bound + 1e-9),
        boundary_norm=math.log2(d),
        crossing_terms=crossing,
    )
