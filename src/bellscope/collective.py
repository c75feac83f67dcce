"""Quantum values of permutationally invariant Bell expressions in the
symmetric (maximal total spin) sector.

The n-party symmetric sector is spanned by the Dicke states |n, k>, k being
the number of flipped spins (amplitudes are ordered k = 0..n).  Both
measurement settings act collectively:

    A = 2 Jz,   B = 2 (cos(theta) Jz + sin(theta) Jx),

so the Bell operator of a two-body expression is a real symmetric matrix of
bandwidth 2 in the Dicke basis.  All heavy paths work directly on the three
bands, which keeps scans over n in the thousands cheap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    eigen_above_stacked,
    gershgorin_bounds,
    lowest_eigen_banded,
    prescan_grid,
    scalar_minimize,
)
from .symmetric import SymmetrizedCorrelators

__all__ = [
    "SymmetricState",
    "CollectiveOperator",
    "MaxViolation",
    "DickeViolation",
    "ScanRow",
    "SweepRow",
    "collective_operator",
    "dicke_state",
    "to_full_space",
    "lmg_energies",
    "measurement_pair",
    "symmetrized_correlators",
    "bell_operator",
    "bell_operator_bands",
    "max_violation",
    "dicke_violation",
    "ratio_scan",
    "theta_sweep",
]

NORM_TOL = 1e-10
DENSE_GUARD = 4000  # largest n for which dense (n+1)^2 matrices are built

#: Screening margin of ``max_violation``, relative to a bound S on
#: ||H(theta)||_inf over all theta.  It must exceed the error of the
#: eigenvalue a grid point would get (``sbevx``'s backward error, or the
#: inertia path's ``INERTIA_RTOL`` bracket), both near 1e-12 relative or
#: below, plus the difference between the stacked bands the screen factors
#: and ``bell_operator_bands`` (last bits, at most 2e-16 S measured); a
#: wide margin costs nothing, since only points within it of the best value
#: are evaluated in full.
SCREEN_RTOL = 1e-9


@dataclass
class SymmetricState:
    """Pure state of the symmetric sector, amplitudes over k = 0..n."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != self.n + 1:
            raise ValueError(f"need {self.n + 1} amplitudes, got {amp.size}")
        nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalised: |psi| = {nrm!r}")
        self.amplitudes = amp


@dataclass
class CollectiveOperator:
    """A collective spin operator restricted to the symmetric sector."""

    n: int
    label: str
    matrix: np.ndarray


def _jz_diag(n):
    # m = n/2 - k for k = 0..n
    return n / 2.0 - np.arange(n + 1)


def _ladder_offdiag(n):
    # f[k-1] = <k-1| J+ |k> = sqrt(k (n - k + 1)), k = 1..n
    k = np.arange(1, n + 1, dtype=float)
    return np.sqrt(k * (n - k + 1.0))


def collective_operator(n, label):
    """Total spin operator on the (n+1)-dimensional symmetric sector.

    Labels: ``jz``, ``jx``, ``jy``, ``j+``, ``j-``.  Basis ordering is
    k = 0..n flipped spins, so ``jz`` is ``diag(n/2 - k)``.
    """
    if n < 1:
        raise ValueError("need at least one spin")
    if n > DENSE_GUARD:
        raise ValueError(f"dense operator guard is n <= {DENSE_GUARD}")
    label_lc = str(label).lower()
    dim = n + 1
    f = _ladder_offdiag(n)
    if label_lc == "jz":
        mat = np.diag(_jz_diag(n)).astype(complex)
    elif label_lc == "j+":
        mat = np.zeros((dim, dim), dtype=complex)
        mat[np.arange(n), np.arange(1, n + 1)] = f
    elif label_lc == "j-":
        mat = np.zeros((dim, dim), dtype=complex)
        mat[np.arange(1, n + 1), np.arange(n)] = f
    elif label_lc == "jx":
        mat = np.zeros((dim, dim), dtype=complex)
        mat[np.arange(n), np.arange(1, n + 1)] = f / 2.0
        mat[np.arange(1, n + 1), np.arange(n)] = f / 2.0
    elif label_lc == "jy":
        mat = np.zeros((dim, dim), dtype=complex)
        mat[np.arange(n), np.arange(1, n + 1)] = f / 2.0j
        mat[np.arange(1, n + 1), np.arange(n)] = -f / 2.0j
    else:
        raise ValueError(f"unknown label {label!r}")
    return CollectiveOperator(n=n, label=label_lc, matrix=mat)


def dicke_state(n, k):
    """The Dicke state |n, k>: k flipped spins, fully symmetrised."""
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    amp = np.zeros(n + 1, dtype=complex)
    amp[k] = 1.0
    return SymmetricState(n, amp)


def to_full_space(state):
    """Embed a symmetric-sector state into the full 2^n product space.

    Each Dicke component |n, k> spreads uniformly over the C(n, k)
    computational basis states with k ones (site 0 is the most significant
    bit).
    """
    from .quantum import StateVector

    n = state.n
    if n > 24:
        raise ValueError("full-space embedding guard is n <= 24")
    full = np.zeros(2**n, dtype=complex)
    weights = np.array([
        state.amplitudes[k] / math.sqrt(math.comb(n, k)) for k in range(n + 1)
    ])
    for idx in range(2**n):
        full[idx] = weights[idx.bit_count()]
    return StateVector((2,) * n, full)


def lmg_energies(n, lam, h):
    """Spectrum of the collective XY (infinite-range) Hamiltonian

        H = -(lam/n) sum_{i<j} (sx_i sx_j + sy_i sy_j) - h sum_i sz_i

    restricted to the symmetric sector, where it is diagonal in the Dicke
    basis:  E(m) = -(2 lam / n) (j(j+1) - m^2) + lam - 2 h m with j = n/2
    and m = n/2 - k.

    Returns
    -------
    energies : ndarray, shape (n+1,)
        E(k) for k = 0..n.
    ground : tuple of int
        All k attaining the minimum (degenerate pair for odd n at h = 0).
    """
    if n < 1:
        raise ValueError("need at least one spin")
    j = n / 2.0
    m = _jz_diag(n)
    energies = -(2.0 * lam / n) * (j * (j + 1.0) - m * m) + lam - 2.0 * h * m
    emin = float(energies.min())
    scale = max(1.0, float(np.max(np.abs(energies))))
    ground = tuple(int(k) for k in np.nonzero(energies - emin <= 1e-12 * scale)[0])
    return energies, ground


def measurement_pair(n, theta):
    """Dense collective measurement operators (A, B) at angle theta."""
    a = np.diag(2.0 * _jz_diag(n))
    jx = np.zeros((n + 1, n + 1))
    f = _ladder_offdiag(n)
    jx[np.arange(n), np.arange(1, n + 1)] = f / 2.0
    jx[np.arange(1, n + 1), np.arange(n)] = f / 2.0
    b = math.cos(theta) * np.diag(2.0 * _jz_diag(n)) + 2.0 * math.sin(theta) * jx
    return a, b


def _apply_b(state_amp, n, theta):
    """Apply B = 2(cos t Jz + sin t Jx) to symmetric-sector amplitudes."""
    c, s = math.cos(theta), math.sin(theta)
    diag = 2.0 * c * _jz_diag(n)
    f = s * _ladder_offdiag(n)  # couples k-1 <-> k
    out = diag * state_amp
    out[:-1] += f * state_amp[1:]
    out[1:] += f * state_amp[:-1]
    return out


def symmetrized_correlators(state, theta):
    """Two-body symmetrized correlators of a symmetric state.

    S0 = <A>, S1 = <B>, S00 = <A^2> - n, S11 = <B^2> - n and
    S01 = <AB + BA>/2 - n cos(theta); the subtractions remove the n
    same-site (i = j) terms, using M0 M0 = M1 M1 = 1 and the site-local
    anticommutator {M0, M1} = 2 cos(theta) 1.
    """
    n = state.n
    psi = state.amplitudes
    a_diag = 2.0 * _jz_diag(n)
    a_psi = a_diag * psi
    b_psi = _apply_b(psi, n, theta)
    s0 = float(np.vdot(psi, a_psi).real)
    s1 = float(np.vdot(psi, b_psi).real)
    s00 = float(np.vdot(a_psi, a_psi).real) - n
    s11 = float(np.vdot(b_psi, b_psi).real) - n
    s01 = float(np.vdot(a_psi, b_psi).real) - n * math.cos(theta)
    return SymmetrizedCorrelators(s0=s0, s1=s1, s00=s00, s01=s01, s11=s11)


def _float_coeffs(expr):
    return tuple(map(float, expr.coefficients()))


@functools.lru_cache(maxsize=8)
def _band_terms(n, coeffs):
    """Read-only (6, 3 (n+1)) array: the bands of the Bell operator as
    ``sum_k w_k P_k`` with ``w = (1, c, s, c^2, c s, s^2)``, c = cos(theta)
    and s = sin(theta); row k is the flattened lower band storage of P_k.
    """
    alpha, beta, gamma, delta, epsilon = coeffs
    a = 2.0 * _jz_diag(n)            # diagonal of A; B has diagonal c a
    f = _ladder_offdiag(n)           # B has off-diagonal s f, f[k] couples k, k+1
    fsq = np.zeros(n + 1)
    fsq[:-1] += f * f               # f_{k+1}^2 contribution at k
    fsq[1:] += f * f                # f_k^2 contribution at k
    asum = a[:-1] + a[1:]
    terms = np.zeros((6, 3, n + 1))
    terms[0, 0] = alpha * a + 0.5 * gamma * (a * a - n) - 0.5 * epsilon * n
    terms[1, 0] = beta * a + delta * (a * a - n)
    terms[3, 0] = 0.5 * epsilon * a * a
    terms[5, 0] = 0.5 * epsilon * fsq
    terms[2, 1, :n] = beta * f + 0.5 * delta * f * asum
    terms[4, 1, :n] = 0.5 * epsilon * f * asum
    terms[5, 2, : n - 1] = 0.5 * epsilon * f[:-1] * f[1:]
    terms = terms.reshape(6, -1)
    terms.setflags(write=False)
    return terms


def bell_operator_bands(expr, theta):
    """Lower band storage (3, n+1) of the Bell operator at angle theta.

    The operator is

        alpha A + beta B + (gamma/2)(A^2 - n)
        + delta((AB + BA)/2 - n cos t) + (epsilon/2)(B^2 - n),

    real symmetric with bandwidth 2 in the Dicke basis.  It is a degree-2
    trigonometric polynomial in theta, so the bands are one weighted sum of
    six coefficient arrays, built once per (n, coefficients) and cached.
    """
    c, s = math.cos(theta), math.sin(theta)
    terms = _band_terms(expr.n, _float_coeffs(expr))
    return np.dot((1.0, c, s, c * c, c * s, s * s), terms).reshape(3, expr.n + 1)


def _bell_slope(expr, theta, vec):
    """d lambda / d theta = vec^T H'(theta) vec (Hellmann-Feynman) for a unit
    eigenvector ``vec`` of a simple eigenvalue lambda of the Bell operator H.
    """
    c, s = math.cos(theta), math.sin(theta)
    terms = _band_terms(expr.n, _float_coeffs(expr))
    bands = np.dot((0.0, -s, c, -2.0 * c * s, c * c - s * s, 2.0 * c * s), terms)
    n = expr.n + 1
    return float(
        bands[:n] @ (vec * vec)
        + 2.0 * (bands[n: 2 * n - 1] @ (vec[:-1] * vec[1:]))
        + 2.0 * (bands[2 * n: 3 * n - 2] @ (vec[:-2] * vec[2:]))
    )


def bell_operator(expr, theta):
    """Dense Bell operator matrix (for moderate n; scans use the bands)."""
    n = expr.n
    if n > DENSE_GUARD:
        raise ValueError(f"dense Bell operator guard is n <= {DENSE_GUARD}")
    bands = bell_operator_bands(expr, theta)
    mat = np.diag(bands[0])
    idx = np.arange(n)
    mat[idx, idx + 1] = bands[1, :n]
    mat[idx + 1, idx] = bands[1, :n]
    idx = np.arange(n - 1)
    mat[idx, idx + 2] = bands[2, : n - 1]
    mat[idx + 2, idx] = bands[2, : n - 1]
    return mat


def _require_bound(expr):
    if expr.bound is None:
        raise ValueError(
            "expression has no classical bound; set one (closed form or "
            "classical_bound_symmetric) before asking for violations"
        )
    return float(expr.bound)


@dataclass
class MaxViolation:
    """Best quantum violation over measurement angles.

    ``theta`` comes from the pre-scan of :func:`numerics.scalar_minimize`
    polished by Illinois regula falsi on the exact Hellmann-Feynman slope
    of the lowest eigenvalue.  ``evals`` counts the lowest-eigenvalue
    evaluations made (calls of ``lowest_eigen_banded``) and ``screened``
    the grid points ruled out by a banded Cholesky factorisation instead
    (:func:`numerics.eigen_above_stacked`): ``evals + screened`` is the
    pre-scan's ``max(grid_points, 64)`` plus one per polish point.  How
    they split depends on the ``start`` of :func:`max_violation`; every
    other field does not.
    """

    violation: float      # max(0, -lambda_min - beta_c)
    theta: float
    quantum_value: float  # lambda_min of the Bell operator at theta
    bound: float
    state: SymmetricState
    evals: int
    screened: int


def max_violation(expr, theta_range=(0.0, math.pi), tol=1e-6, grid_points=256,
                  start=None):
    """Maximal violation of a PI expression over collective measurements.

    Minimises the lowest Bell-operator eigenvalue over theta in
    ``theta_range``: a ``grid_points`` scan, then a bracketed refinement to
    ``tol`` on the slope lambda'(theta) = v^T H'(theta) v, with v the
    eigenvector of each polish point; the state is the one kept from the
    polish at the returned angle.  The default range [0, pi] suffices:
    theta -> 2 pi - theta is a similarity transform of the operator
    (conjugation by diag((-1)^k)).

    The scan skips a grid point when a banded Cholesky factorisation
    certifies that every eigenvalue there exceeds a level by more than
    ``SCREEN_RTOL * S``, with S = sum_k ||P_k||_inf over the band terms of
    :func:`bell_operator_bands`, a bound on ||H(theta)||_inf for every
    theta.  The level is the eigenvalue at the grid angle nearest
    ``start``, a guess such as the optimum of a neighbouring n, or without
    it the best of a coarse pass over every s-th angle, s = isqrt(grid
    size).  One call of :func:`numerics.eigen_above_stacked` then screens
    the whole grid at that level, and every angle it leaves open is
    evaluated.  The stack's bands come from one (k, 6) @ (6, 3 (n+1))
    product and differ from those of :func:`bell_operator_bands` in the
    last bits, which the margin covers.  Whatever ``start`` is, the result
    is bitwise that of the full grid; only the split of ``evals`` and
    ``screened`` moves.  A non-finite ``start`` raises ``ValueError``.
    """
    beta_c = _require_bound(expr)
    m = expr.n + 1
    terms = _band_terms(expr.n, _float_coeffs(expr)).reshape(6, 3, m)
    margin = SCREEN_RTOL * sum(gershgorin_bounds(p)[1] for p in terms)
    # each term laid out (m, 3), so weights @ stack_terms is Fortran band
    # storage; _band_terms keeps (3, m), since laid out (m, 3) its one-angle
    # product changed the last diagonal entry in the last bit at 7% of angles
    stack_terms = terms.transpose(0, 2, 1).reshape(6, 3 * m)
    grid = prescan_grid(theta_range[0], theta_range[1], grid_points)
    vectors = {}
    evals = grid_evals = 0

    def grid_bands(i, j):
        c, s = np.cos(grid[i:j]), np.sin(grid[i:j])
        weights = np.stack((np.ones_like(c), c, s, c * c, c * s, s * s), axis=1)
        return (weights @ stack_terms).reshape(-1, 3).T

    def screen(level):
        return eigen_above_stacked(grid_bands, len(grid), m, level + margin)

    def objective(theta):
        nonlocal evals, grid_evals
        evals += 1
        grid_evals += 1
        w, _ = lowest_eigen_banded(bell_operator_bands(expr, theta), want_vector=False)
        return w

    def value_and_slope(theta):
        nonlocal evals
        evals += 1
        w, vec = lowest_eigen_banded(bell_operator_bands(expr, theta))
        vectors[theta] = vec
        return w, _bell_slope(expr, theta, vec)

    theta_star, lam_min = scalar_minimize(
        objective, theta_range[0], theta_range[1], tol=tol, grid_points=grid_points,
        value_and_slope=value_and_slope, screen=screen, start=start,
    )
    vec = vectors[theta_star]
    return MaxViolation(
        violation=max(0.0, -lam_min - beta_c),
        theta=theta_star,
        quantum_value=lam_min,
        bound=beta_c,
        state=SymmetricState(expr.n, vec / np.linalg.norm(vec)),
        evals=evals,
        screened=len(grid) - grid_evals,
    )


@dataclass
class DickeViolation:
    """Value of the half-filled Dicke state against its tailored expression."""

    quantum_value: float
    bound: float
    violated: bool
    theta: float


def dicke_violation(n, theta_range=(0.0, math.pi), tol=1e-6, grid_points=512):
    """Evaluate the Dicke-tailored expression on |n, floor(n/2)>.

    Scans the measurement angle and reports the minimum of the quantum
    value I(theta); ``violated`` means it drops below -beta_C.
    """
    from .symmetric import dicke_expression

    expr = dicke_expression(n)
    beta_c = _require_bound(expr)
    state = dicke_state(n, n // 2)

    def objective(theta):
        return expr.value_float(symmetrized_correlators(state, theta))

    theta_star, val = scalar_minimize(
        objective, theta_range[0], theta_range[1], tol=tol, grid_points=grid_points
    )
    return DickeViolation(
        quantum_value=val,
        bound=beta_c,
        violated=bool(val < -beta_c - 1e-9),
        theta=theta_star,
    )


@dataclass
class ScanRow:
    n: int
    beta_c: float
    qv: float
    ratio: float
    theta_star: float
    evals: int      # MaxViolation.evals and .screened of the row's call
    screened: int


def ratio_scan(family, ns, theta_range=(0.0, math.pi), tol=1e-6, grid_points=256):
    """Violation scan over system sizes for a family of expressions.

    Each n's :func:`max_violation` starts its screened pre-scan from the
    previous n's optimal angle if that n was violated; the first n, and any
    n after one without a violation, takes the coarse pass.  The rows are
    those of independent calls, and only ``evals`` and ``screened`` depend
    on which n came before.

    Parameters
    ----------
    family : callable
        Maps n to a PIBellExpression carrying its classical bound.
    ns : iterable of int

    Returns rows (n, beta_c, qv, qv/beta_c, theta_star, evals, screened)
    sorted by n.
    """
    rows = []
    start = None
    for n in sorted(int(v) for v in ns):
        expr = family(n)
        mv = max_violation(expr, theta_range=theta_range, tol=tol,
                           grid_points=grid_points, start=start)
        start = mv.theta if mv.violation > 0 else None
        rows.append(
            ScanRow(
                n=n,
                beta_c=mv.bound,
                qv=mv.violation,
                ratio=mv.violation / mv.bound if mv.bound else math.nan,
                theta_star=mv.theta,
                evals=mv.evals,
                screened=mv.screened,
            )
        )
    return rows


@dataclass
class SweepRow:
    n: int
    theta: float
    value: float    # lowest Bell-operator eigenvalue at theta
    beta_c: float
    violated: bool


def theta_sweep(expr, thetas):
    """Lowest Bell-operator eigenvalue along a grid of angles."""
    beta_c = _require_bound(expr)
    rows = []
    for theta in thetas:
        w, _ = lowest_eigen_banded(bell_operator_bands(expr, float(theta)),
                                   want_vector=False)
        rows.append(
            SweepRow(
                n=expr.n,
                theta=float(theta),
                value=w,
                beta_c=beta_c,
                violated=bool(w < -beta_c - 1e-9),
            )
        )
    return rows
