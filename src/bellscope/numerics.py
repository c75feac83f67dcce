"""Shared numerical kernels: Hermitian eigensolvers, SVD, bracketed scalar
minimisation, banded extreme eigenpairs, and seeded random streams.

Everything downstream funnels its linear algebra through this module so that
tolerances and conventions (eigenvalue ordering, singular-value ordering,
band storage) are fixed in one place.

scipy is loaded on first use, not at import: ``scipy.optimize`` by
:func:`scalar_minimize` and the LAPACK handles by the first
:func:`lowest_eigen_banded` call, so commands that need neither start
without it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "hermitian_eigen",
    "svd",
    "scalar_minimize",
    "lowest_eigen_banded",
    "RandomSource",
]

#: Relative tolerance for accepting a matrix as Hermitian.
HERMITICITY_TOL = 1e-12

#: Matrix order from which ``lowest_eigen_banded`` uses inertia bisection
#: instead of LAPACK ``sbevx``; the per-call timings that place it are in
#: its docstring.
INERTIA_CROSSOVER = 200

#: Width of the certified eigenvalue bracket, relative to ``||H||_inf``.
INERTIA_RTOL = 1e-12

#: Step cap of the inertia iteration; each step is one solve and at most one
#: factorisation.
INERTIA_MAX_STEPS = 200


@functools.cache
def _lapack():
    """LAPACK handles ``(sbevx, pbtrf, pbtrs)`` and the ``sbevx`` abstol.

    Fetched once, on the first eigen call; the abstol is the value
    ``scipy.linalg.eig_banded`` passes.
    """
    import scipy.linalg

    sbevx, pbtrf, pbtrs, lamch = scipy.linalg.get_lapack_funcs(
        ("sbevx", "pbtrf", "pbtrs", "lamch"), dtype=np.float64
    )
    return sbevx, pbtrf, pbtrs, 2 * lamch("s")


def hermitian_eigen(matrix):
    """Full eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    matrix : array_like, shape (n, n)
        Hermitian matrix.  Hermiticity is checked entrywise to a relative
        tolerance of ``1e-12`` and violations are rejected with a
        diagnostic rather than silently symmetrised.

    Returns
    -------
    w : ndarray, shape (n,)
        Eigenvalues in ascending order.
    v : ndarray, shape (n, n)
        Orthonormal eigenvectors; ``v[:, i]`` belongs to ``w[i]``.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    asym = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if asym > HERMITICITY_TOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dag| = {asym:.3e} "
            f"exceeds {HERMITICITY_TOL:.0e} * {scale:.3e}"
        )
    return np.linalg.eigh(m)


def svd(matrix):
    """Singular value decomposition ``M = U @ diag(s) @ V.conj().T``.

    Returns
    -------
    u : ndarray
    s : ndarray
        Singular values, descending (LAPACK convention).
    v : ndarray
        Right singular vectors as columns (not the adjoint).
    """
    u, s, vh = np.linalg.svd(np.asarray(matrix), full_matrices=False)
    return u, s, vh.conj().T


def scalar_minimize(f, lo, hi, tol=1e-8, grid_points=64):
    """Minimise a scalar function on ``[lo, hi]``.

    A uniform pre-scan with at least 64 points locates the best bracket,
    then bounded Brent refinement polishes the minimiser to ``tol``.  Grid
    ties resolve toward the smaller argument.  ``f`` returning NaN anywhere
    on the scan is rejected.

    Returns
    -------
    (x, fx) : tuple of float
        Approximate minimiser and its value.
    """
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    grid_points = max(int(grid_points), 64)
    xs = np.linspace(lo, hi, grid_points)
    fs = np.array([float(f(x)) for x in xs])
    if np.any(np.isnan(fs)):
        bad = xs[np.where(np.isnan(fs))[0][0]]
        raise ValueError(f"objective returned NaN at x = {bad!r}")
    i = int(np.argmin(fs))  # first minimum: ties go to smaller x
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, grid_points - 1)]
    best_x, best_f = float(xs[i]), float(fs[i])
    if b > a:
        import scipy.optimize

        res = scipy.optimize.minimize_scalar(
            f, bounds=(a, b), method="bounded", options={"xatol": tol}
        )
        fx = float(res.fun)
        if not np.isnan(fx) and fx < best_f:
            best_x, best_f = float(res.x), fx
    return best_x, best_f


def lowest_eigen_banded(bands, want_vector=True):
    """Lowest eigenpair of a real symmetric banded matrix.

    Two paths, split at ``INERTIA_CROSSOVER`` on the order n of the matrix:

    * ``n < INERTIA_CROSSOVER``: LAPACK ``sbevx`` for the lowest index,
      through a handle cached on the first call.  It gives the same numbers as
      ``scipy.linalg.eig_banded(..., select="i")`` without its wrapper
      cost: 22 us against 41 us per call at n = 21.
    * ``n >= INERTIA_CROSSOVER``: Sylvester-inertia bisection with inverse
      iteration (:func:`_lowest_by_inertia`), O(n b^2) per step.  The lower
      end ``lo`` of a bracket is a shift at which the banded Cholesky
      factorisation of ``H - lo I`` exists, so every eigenvalue lies above
      ``lo``.  The upper end ``hi`` is the Rayleigh quotient of the
      inverse-iteration vector, so the lowest eigenvalue is at most ``hi``.

    Why the split is where it is: the band-to-tridiagonal reduction in
    ``sbevx`` is O(n^2), while the inertia path costs 10 to 14
    factorisations and solves per call.  On murcia Bell operators, averaged
    over 64 angles in [0, pi] on a 2-core Xeon with one BLAS thread,
    ``sbevx`` took 116, 199, 335 and 673 us per call at n = 101, 151, 201
    and 301, and the inertia path 260, 235, 307 and 387 us.  At n = 1501
    it was 12.8 ms against 1.7 ms, at n = 2001 (three angles) 17 ms against
    2.2 ms, and the inertia path took 2.7 ms at n = 2501.

    Accuracy contract: below the crossover, the backward-stable LAPACK
    result.  From the crossover up, ``w`` is the upper end of a bracket of
    width at most ``INERTIA_RTOL * ||H||_inf`` (largest absolute row sum)
    that contains the lowest eigenvalue, and the vector is the one whose
    Rayleigh quotient is ``w``.  Neither path falls back to the other or to
    any other method.

    Parameters
    ----------
    bands : ndarray, shape (b + 1, n)
        Lower band storage: ``bands[i, j] = A[i + j, j]``; row 0 is the
        diagonal.  Must be finite.
    want_vector : bool
        Also return the eigenvector.

    Returns
    -------
    w : float
        Lowest eigenvalue.
    v : ndarray or None
        Corresponding unit eigenvector (sign-normalised so its largest
        entry is positive), or None if ``want_vector`` is False.

    Raises
    ------
    ValueError
        If ``bands`` is not a non-empty 2-D array of finite numbers.
    ArithmeticError
        If LAPACK reports a failure or the inertia iteration does not close
        its bracket within ``INERTIA_MAX_STEPS`` steps.
    """
    bands = np.ascontiguousarray(bands, dtype=float)
    if bands.ndim != 2 or bands.size == 0:
        raise ValueError(f"expected non-empty 2-D band storage, got shape {bands.shape}")
    if not np.isfinite(bands).all():
        raise ValueError("band storage contains NaN or infinite entries")
    if bands.shape[1] < INERTIA_CROSSOVER:
        sbevx, _, _, abstol = _lapack()
        w, vecs, _, _, info = sbevx(
            bands, 0.0, 1.0, 1, 1, compute_v=int(want_vector), range=2,
            lower=1, abstol=abstol, mmax=1, overwrite_ab=0,
        )
        if info != 0:
            raise ArithmeticError(f"LAPACK sbevx failed with info = {info}")
        w, vec = float(w[0]), (vecs[:, 0] if want_vector else None)
    else:
        w, vec = _lowest_by_inertia(bands)
        if not want_vector:
            vec = None
    if vec is not None:
        j = int(np.argmax(np.abs(vec)))
        if vec[j] < 0:
            vec = -vec
    return w, vec


def _lowest_by_inertia(bands):
    """Certified bracket on the lowest eigenvalue of a banded matrix.

    Starts from the Gershgorin lower bound.  Each step makes one
    inverse-iteration solve ``(H - lo I) y = x`` with the Cholesky factor
    at ``lo``.  Since ``H y = x + lo y``, the Rayleigh quotient of ``y`` is
    ``hi = lo + (y.x)/(y.y)`` and its residual is ``|x - (hi - lo) y|/|y|``,
    with no product by ``H``.  The next trial shift is ``hi - r`` (some
    eigenvalue lies within ``r`` of ``hi``), kept inside the open bracket,
    or the midpoint after a failed trial.  A trial whose factorisation
    succeeds becomes the new ``lo``.
    """
    _, pbtrf, pbtrs, _ = _lapack()
    nb = bands.shape[0] - 1
    n = bands.shape[1]
    diag = bands[0]
    off = np.zeros(n)
    for k in range(1, nb + 1):
        a = np.abs(bands[k, : n - k])
        off[: n - k] += a
        off[k:] += a
    norm = float(np.max(np.abs(diag) + off))
    tol = INERTIA_RTOL * (norm if norm > 0 else 1.0)
    bands = np.asfortranarray(bands)
    lo = float(np.min(diag - off)) - 0.25 * tol
    factor = _shifted_cholesky(pbtrf, bands, lo)
    if factor is None:
        raise ArithmeticError(f"banded Cholesky failed below the Gershgorin bound {lo!r}")
    # top: least shift known to lie at or above the lowest eigenvalue; the
    # smallest diagonal entry is the Rayleigh quotient of a unit vector
    top = float(np.min(diag))
    x = _start_vector(n)
    failed = False
    for _ in range(INERTIA_MAX_STEPS):
        y = pbtrs(factor, x[:, None], lower=1)[0][:, 0]
        ynorm = math.sqrt(float(y @ y))
        delta = float(y @ x) / (ynorm * ynorm)
        hi = lo + delta
        if hi - lo <= tol:
            return hi, y / ynorm
        top = min(top, hi)
        if failed:
            sigma = 0.5 * (lo + top)
        else:
            r = float(np.linalg.norm(x - delta * y)) / ynorm
            sigma = hi - max(r, 0.25 * tol)
            if not lo < sigma < top:
                sigma = 0.5 * (lo + top)
        x = y / ynorm
        trial = _shifted_cholesky(pbtrf, bands, sigma)
        failed = trial is None
        if failed:
            top = sigma
        else:
            lo, factor = sigma, trial
    raise ArithmeticError(
        f"inertia bisection did not close [{lo!r}, {top!r}] to {tol:.3e} "
        f"in {INERTIA_MAX_STEPS} steps"
    )


@functools.lru_cache(maxsize=64)
def _start_vector(n):
    """Fixed seeded start vector for inverse iteration (read-only)."""
    x = np.random.default_rng(n).standard_normal(n)
    x.setflags(write=False)
    return x


def _shifted_cholesky(pbtrf, bands, sigma):
    """Banded Cholesky factor of ``H - sigma I``, or None if not positive definite."""
    ab = bands.copy(order="F")
    ab[0] -= sigma
    factor, info = pbtrf(ab, lower=1, overwrite_ab=1)
    return factor if info == 0 else None


class RandomSource:
    """Seeded random stream (PCG64).  Equal seeds give bitwise-equal streams.

    Thin wrapper over :class:`numpy.random.Generator` that records the seed
    and algorithm so runs can be reproduced from logged configuration.
    """

    algorithm = "pcg64"

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def __repr__(self):
        return f"RandomSource(seed={self.seed})"

    @property
    def generator(self):
        """The underlying :class:`numpy.random.Generator`."""
        return self._gen

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def complex_normal(self, size=None):
        """Standard complex Gaussian: independent N(0,1) real and imaginary parts."""
        return self._gen.standard_normal(size) + 1j * self._gen.standard_normal(size)

    def uniform(self, lo=0.0, hi=1.0, size=None):
        return self._gen.uniform(lo, hi, size)

    def integers(self, lo, hi=None, size=None):
        return self._gen.integers(lo, hi, size=size)

    def spawn(self, count):
        """Derive ``count`` independent child streams, deterministically."""
        children = np.random.SeedSequence(self.seed).spawn(count)
        out = []
        for child in children:
            src = RandomSource.__new__(RandomSource)
            src.seed = self.seed
            src._gen = np.random.Generator(np.random.PCG64(child))
            out.append(src)
        return out
