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
from fractions import Fraction

import numpy as np

from .numerics import (
    _require_size,
    eigen_above_stacked,
    gershgorin_bounds,
    lowest_eigen_banded,
    scalar_minimize,
)
from .symmetric import SymmetrizedCorrelators

__all__ = [
    "SymmetricState",
    "MaxViolation",
    "DickeViolation",
    "dicke_state",
    "lmg_energies",
    "symmetrized_correlators",
    "bell_operator_bands",
    "max_violation",
    "dicke_violation",
    "ratio_scan",
    "theta_sweep",
]

NORM_TOL = 1e-10
#: Largest n of the Dicke basis |n, 0..n>; ``_band_terms`` holds about 150 MB there.
DICKE_GUARD = 2**20

#: Screening margin of ``max_violation``, relative to a bound S on
#: ||H(theta)||_inf over all theta.  It must exceed the error of the
#: eigenvalue a grid point would get (``sbevx``'s backward error, or the
#: inertia path's ``INERTIA_RTOL`` bracket), both near 1e-12 relative or
#: below, plus the difference between the stacked bands the screen factors
#: and ``bell_operator_bands`` (last bits, at most 2e-16 S measured); a
#: wide margin costs nothing, since only points within it of the best value
#: are evaluated in full.
SCREEN_RTOL = 1e-9


@dataclass(eq=False)
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


def _jz_diag(n):
    # m = n/2 - k for k = 0..n; _ladder_offdiag's callers pass this first
    _require_size("Dicke-basis", "n", DICKE_GUARD, n)
    return n / 2.0 - np.arange(n + 1)


def _ladder_offdiag(n):
    # f[k-1] = <k-1| J+ |k> = sqrt(k (n - k + 1)), k = 1..n
    k = np.arange(1, n + 1, dtype=float)
    return np.sqrt(k * (n - k + 1.0))


def dicke_state(n, k):
    """The Dicke state |n, k>: k flipped spins, fully symmetrised."""
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    _require_size("Dicke-basis", "n", DICKE_GUARD, n)
    amp = np.zeros(n + 1, dtype=complex)
    amp[k] = 1.0
    return SymmetricState(n, amp)


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


@dataclass
class MaxViolation:
    """Best quantum violation over measurement angles.

    ``theta`` comes from the pre-scan of :func:`numerics.scalar_minimize`
    polished by Illinois regula falsi on the exact Hellmann-Feynman slope
    of the lowest eigenvalue.  ``evals`` counts the lowest-eigenpair
    evaluations made (calls of ``lowest_eigen_banded``) and ``screened``
    the grid points ruled out by a banded Cholesky factorisation instead
    (:func:`numerics.eigen_above_stacked`).  Each grid angle is either
    screened or evaluated once, and the polish evaluates a screened
    neighbour of the grid minimum and its off-grid trial angles:
    ``evals + screened`` is the pre-scan's ``grid_points`` plus the
    polish's own calls.  ``state`` is the eigenvector of the evaluation at
    ``theta``, not of a call of its own.  How they split
    depends on the ``start`` of :func:`max_violation`; every other field
    does not.
    """

    violation: float      # max(0, -lambda_min - beta_c)
    theta: float
    quantum_value: float  # lambda_min of the Bell operator at theta
    bound: float
    state: SymmetricState
    evals: int
    screened: int


def max_violation(expr, tol=1e-6, grid_points=256, start=None):
    """Maximal violation of a PI expression over collective measurements.

    Minimises the lowest Bell-operator eigenvalue over theta in [0, pi]: a
    ``grid_points`` scan, then a bracketed refinement to ``tol`` on the
    slope lambda'(theta) = v^T H'(theta) v.  Each angle is evaluated once,
    for its lowest eigenvalue and, from the eigenvector v, its slope; the
    minimiser hands back the v of the returned angle's evaluation as the
    state, holding at most a few vectors at a time, so no angle is sent to
    the eigen kernel twice.  The range [0, pi] suffices:
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
    the angles not yet evaluated at that level, and every angle it leaves
    open is evaluated.  The stack's bands come from one
    (k, 6) @ (6, 3 (n+1)) product and differ from those of
    :func:`bell_operator_bands` in the last bits, which the margin covers.  Whatever ``start`` is, the result
    is bitwise that of the full grid; only the split of ``evals`` and
    ``screened`` moves.  A non-finite ``start`` or ``grid_points < 64``
    raises ``ValueError``.
    """
    if expr.bound is None:
        raise ValueError(
            "expression has no classical bound; build it with bound= (a closed form, "
            "or classical_bound_symmetric(expr)[0]) before asking for violations"
        )
    beta_c = float(expr.bound)
    m = expr.n + 1
    terms = _band_terms(expr.n, _float_coeffs(expr)).reshape(6, 3, m)
    margin = SCREEN_RTOL * sum(gershgorin_bounds(p)[1] for p in terms)
    # each term laid out (m, 3), so weights @ stack_terms is Fortran band
    # storage; _band_terms keeps (3, m), since laid out (m, 3) its one-angle
    # product changed the last diagonal entry in the last bit at 7% of angles
    stack_terms = terms.transpose(0, 2, 1).reshape(6, 3 * m)
    evals = screened = 0

    def screen(thetas, level):
        nonlocal screened
        c, s = np.cos(thetas), np.sin(thetas)
        weights = np.stack((np.ones_like(c), c, s, c * c, c * s, s * s), axis=1)

        def bands_of(i, j):
            return (weights[i:j] @ stack_terms).reshape(-1, 3).T

        mask = eigen_above_stacked(bands_of, len(thetas), m, level + margin)
        screened += int(mask.sum())
        return mask

    def value_and_slope(theta):
        nonlocal evals
        evals += 1
        w, vec = lowest_eigen_banded(bell_operator_bands(expr, theta))
        return w, _bell_slope(expr, theta, vec), vec

    theta_star, lam_min, vec = scalar_minimize(
        value_and_slope, 0.0, math.pi, tol=tol, grid_points=grid_points,
        screen=screen, start=start,
    )
    return MaxViolation(
        violation=max(0.0, -lam_min - beta_c),
        theta=theta_star,
        quantum_value=lam_min,
        bound=beta_c,
        state=SymmetricState(expr.n, vec / np.linalg.norm(vec)),
        evals=evals,
        screened=screened,
    )


@dataclass
class DickeViolation:
    """Value of the half-filled Dicke state against its tailored expression."""

    quantum_value: float
    bound: float
    violated: bool
    theta: float
    violation: Fraction   # max(0, -quantum_value - bound), exact


def dicke_violation(n):
    """Exact minimum of the Dicke-tailored expression on |n, k>, k = floor(n/2).

    With m = <A> = n - 2k, X = <(2 Jx)^2> = k(n-k+1) + (k+1)(n-k) and
    <Jx> = <Jz Jx + Jx Jz> = 0, the correlators are S0 = m, S1 = c m,
    S00 = m^2 - n, S01 = c (m^2 - n) and S11 = c^2 m^2 + (1 - c^2) X - n in
    c = cos(theta), so I = a + b c + q c^2 with rational a, b and q.  Its
    minimum over c in [-1, 1] is at the vertex -b / 2q when q > 0 and
    |b| < 2q, else at theta = 0 or pi (the smaller angle on a tie).
    ``violated`` means ``violation > 0``.
    """
    from .symmetric import dicke_expression

    expr = dicke_expression(n)
    alpha, beta, gamma, delta, epsilon = map(Fraction, expr.coefficients())
    k = n // 2
    m, x = n - 2 * k, k * (n - k + 1) + (k + 1) * (n - k)
    a = alpha * m + gamma * (m * m - n) / 2 + epsilon * (x - n) / 2
    b = beta * m + delta * (m * m - n)
    q = epsilon * (m * m - x) / 2
    if q > 0 and abs(b) < 2 * q:
        val, theta = a - b * b / (4 * q), math.acos(-b / (2 * q))
    else:
        val, theta = min((a + b + q, 0.0), (a - b + q, math.pi))
    violation = max(Fraction(0), -val - Fraction(expr.bound))
    return DickeViolation(
        quantum_value=float(val),
        bound=float(expr.bound),
        violated=violation > 0,
        theta=theta,
        violation=violation,
    )


def ratio_scan(family, ns, tol=1e-6, grid_points=256):
    """Violation scan over system sizes for a family of expressions.

    Each n's :func:`max_violation` starts its screened pre-scan from the
    previous n's optimal angle if that n was violated; the first n, and any
    n after one without a violation, takes the coarse pass.  The results
    are those of independent calls, and only ``evals`` and ``screened``
    depend on which n came before.

    Parameters
    ----------
    family : callable
        Maps n to a PIBellExpression carrying its classical bound.
    ns : iterable of int

    Returns the :class:`MaxViolation` of each n, in increasing n.
    """
    results = []
    start = None
    for n in sorted(int(v) for v in ns):
        mv = max_violation(family(n), tol=tol, grid_points=grid_points, start=start)
        start = mv.theta if mv.violation > 0 else None
        results.append(mv)
    return results


def theta_sweep(expr, thetas):
    """Lowest Bell-operator eigenvalue at each angle of ``thetas``, as a list
    of floats; the expression needs no classical bound."""
    return [lowest_eigen_banded(bell_operator_bands(expr, float(theta)))[0]
            for theta in thetas]
