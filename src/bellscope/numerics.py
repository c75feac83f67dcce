"""Shared numerical kernels: Hermitian eigensolvers, bracketed scalar
minimisation, banded extreme eigenpairs, and the seeded random generator.

It owns the kernels whose conventions other modules rely on: the checked
Hermitian eigensolver, the QR-chain cut spectra, the banded lowest
eigenpair and its Cholesky screen, the theta minimiser and its pre-scan
grid, and :func:`seeded_generator`, the one place a numpy random
``Generator`` is built.  ``quantum`` (the Schmidt SVDs and
``page_experiment``), ``chains`` and ``mps._right_pass`` call
``np.linalg`` directly on matrices they build themselves.

No scipy Python package is imported here.  The first
:func:`lowest_eigen_banded` or :func:`eigen_above_stacked` call loads scipy's
compiled LAPACK extension, ``scipy.linalg._flapack``, straight from its file
and takes the ``dsbevx``, ``dpbtrf``, ``dpbtrs`` and ``dlamch`` wrappers from
it; commands that need no banded eigenpair never load it.  Nothing here uses
``scipy.optimize``: :func:`scalar_minimize` polishes its grid minimum by
Illinois regula falsi on the slope, which its one objective returns
exactly with each value (``max_violation`` passes the Hellmann-Feynman
slope of the lowest eigenvalue).  Its fine pre-scan is made cheap by
screening: grid points that a banded Cholesky factorisation
(:func:`eigen_above_stacked`) proves lie above a level are skipped, with
the same answer as the full grid.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

__all__ = [
    "hermitian_eigen",
    "scalar_minimize",
    "lowest_eigen_banded",
    "eigen_above_stacked",
    "gershgorin_bounds",
    "prescan_grid",
    "seeded_generator",
]

#: Relative tolerance for accepting a matrix as Hermitian.
HERMITICITY_TOL = 1e-12

#: Matrix order from which ``lowest_eigen_banded`` uses inertia bisection
#: instead of LAPACK ``sbevx``.
INERTIA_CROSSOVER = 200

#: Width of the certified eigenvalue bracket, relative to ``||H||_inf``.
INERTIA_RTOL = 1e-12

_EPS = float(np.finfo(float).eps)

#: Illinois steps of the slope polish in ``scalar_minimize`` before it turns
#: to bisection, which closes the bracket where a multiple zero of the slope
#: (a flat minimum) makes regula falsi converge only linearly.
POLISH_SECANT_STEPS = 20

#: Step cap of the slope polish; reaching it raises ``ArithmeticError``.
#: Bisection halves a grid bracket to 1e-9 in about 25 steps.
POLISH_MAX_STEPS = 100

#: Step cap of the inertia iteration; each step is one solve and at most one
#: factorisation.
INERTIA_MAX_STEPS = 200

#: Matrix rows in one stack of :func:`eigen_above_stacked`: 2^14 rows of a
#: bandwidth-2 matrix are 393 KB of band storage, so a screen of many large
#: matrices never holds all their bands at once.
SCREEN_STACK_ROWS = 2**14


@functools.cache
def _lapack():
    """LAPACK handles ``(dsbevx, dpbtrf, dpbtrs)`` and the ``dsbevx`` abstol.

    Taken on the first eigen call from scipy's compiled LAPACK extension,
    ``scipy.linalg._flapack``, which is loaded from its file without
    importing ``scipy`` or ``scipy.linalg``; a module already in
    ``sys.modules`` under that name is reused, and a fresh one is put there,
    so a later ``import scipy.linalg`` shares it.  These are the objects
    ``scipy.linalg.get_lapack_funcs(..., dtype=float64)`` returns, and the
    abstol, ``2 * dlamch("s")``, is the value ``scipy.linalg.eig_banded``
    passes.  Raises ``ImportError``, naming the file, if the extension is
    missing.
    """
    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None:
        spec = importlib.util.find_spec("scipy")
        if spec is None:
            raise ImportError("scipy is not installed", name="scipy")
        stem = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack")
        paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(f"scipy's LAPACK extension not found: looked for "
                              f"{', '.join(paths)}", name=name)
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        flapack = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(name, path, loader=loader))
        loader.exec_module(flapack)
        sys.modules[name] = flapack
    return flapack.dsbevx, flapack.dpbtrf, flapack.dpbtrs, 2 * flapack.dlamch("s")


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
    _require_hermitian(m, "matrix")
    return np.linalg.eigh(m)


def _require_hermitian(m, what):
    """Refuse a square ``m`` with max |M - M^dag| above ``HERMITICITY_TOL``
    times max(1, max |M|), naming it ``what`` in the error."""
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    asym = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if asym > HERMITICITY_TOL * scale:
        raise ValueError(f"{what} is not Hermitian: max |M - M^dag| = {asym:.3e} "
                         f"exceeds {HERMITICITY_TOL:.0e} * {scale:.3e}")


def _require_size(what, quantity, limit, base, exponent=1):
    """The one size rule: refuse ``base**exponent`` above ``limit`` with
    ``ValueError("<what> guard is <quantity> <= <limit>, got <value>")``.
    For base >= 2 an exponent above ``limit.bit_length()`` is refused without
    building the power, so no exponent can stall the check."""
    if (base >= 2 and exponent > limit.bit_length()) or base**exponent > limit:
        got = base if exponent == 1 else f"{base}^{exponent}"
        raise ValueError(f"{what} guard is {quantity} <= {limit}, got {got}")


def _qr_reduced(matrix, with_q=False):
    """Householder QR reduction of a wide or tall 2-D array.

    Returns ``(q, r)`` with ``r`` square and with the singular values of
    ``matrix``: a wide matrix (rows <= cols / 2) ``M = R^T Q^T`` gives
    ``(None, R^T)``, whose left singular vectors are those of M; a tall
    one (cols <= rows / 2) ``M = Q R`` gives ``(Q, R)``, and M's left
    singular vectors are Q times those of R.  Q is formed only when
    ``with_q`` is set (``None`` otherwise).  Any other shape is returned
    as ``(None, matrix)``.  QR is backward stable, so every singular value
    keeps an absolute error of O(eps * s_max), which a relative cutoff such
    as ``mps.SVD_CUTOFF`` (1e-12) relies on; eigenvalues of the Gram matrix
    M M^dag would not resolve values below about 1e-8 * s_max.
    """
    rows, cols = matrix.shape
    if 2 * rows <= cols:
        return None, np.linalg.qr(matrix.T, mode="r").T
    if 2 * cols <= rows:
        return np.linalg.qr(matrix) if with_q else (None, np.linalg.qr(matrix, mode="r"))
    return None, matrix


def _cut_singular_values(amp, d, n, last_cut):
    """Singular values, descending, of each cut ``M_k = amp.reshape(d**k, -1)``
    of an n-site state, k = 1..last_cut; only the cuts next to the middle
    are factored at full size (:func:`_qr_reduced`).

    A wide ``M_k = L Q`` gives ``M_{k-1} = L.reshape(d**(k-1), -1) (I_d x Q)``
    and a tall ``M_k = Q R`` gives ``M_{k+1} = (Q x I_d) R.reshape(-1,
    d**(n-k-1))``, with (co-)isometric Q factors, so each chain step is one
    backward-stable QR of a small factor and every value keeps an absolute
    error of O(n * eps * s_max).
    """
    out = [None] * last_cut
    for cuts in (range(min(last_cut, n // 2), 0, -1), range(n // 2 + 1, last_cut + 1)):
        factor = amp
        for k in cuts:
            shape = (d**k, -1) if 2 * k <= n else (-1, d ** (n - k))
            factor = _qr_reduced(factor.reshape(shape))[1]
            out[k - 1] = np.linalg.svd(factor, compute_uv=False)
    return out


def _left_singular(matrix):
    """Left singular vectors (as columns) and values of a 2-D array,
    QR-first on wide and tall shapes (:func:`_qr_reduced`).  Callers that
    need the right factor on the kept rows take ``u^dag M = diag(s) vh``.
    """
    q, r = _qr_reduced(matrix, with_q=True)
    u, s, _ = np.linalg.svd(r, full_matrices=False)
    return (u if q is None else q @ u), s


def scalar_minimize(value_and_slope, lo, hi, tol=1e-8, grid_points=64, *, screen=None,
                    start=None):
    """Minimise a scalar function on ``[lo, hi]``, given its value and slope.

    A uniform pre-scan on :func:`prescan_grid` records the value and the
    slope at each grid point it evaluates and locates the best grid point
    x_i; grid ties resolve toward the smaller argument.  A NaN value at a
    grid point it evaluates is rejected.  The polish
    (:func:`_polish_on_slope`) then looks for a zero of the slope f' in
    ``[x_{i-1}, x_{i+1}]`` by safeguarded Illinois regula falsi, turning to
    bisection after ``POLISH_SECANT_STEPS`` steps, until the bracket on that
    zero is at most ``tol`` wide.  It starts from the recorded value and
    slope at x_i, and at its neighbour if the pre-scan evaluated it, so no
    grid point is evaluated twice: the polish's own calls are a screened
    neighbour and off-grid trial points.  Its point replaces x_i only if
    its value is lower, so the result is never worse than the grid minimum.

    With ``screen``, the pre-scan skips the grid points that ``screen``
    rules out (:func:`_screened_scan`).  A skipped point has a value above
    one already found, so it can neither be nor tie with the minimum: x_i,
    f(x_i) and the polish are exactly those of the full grid, whatever
    ``start`` is.  The objective is called once at each grid point not
    screened out, plus the polish's own calls.  Keep the pre-scan fine: a
    narrow well is found only if a grid point falls in it.

    Parameters
    ----------
    value_and_slope : callable
        The objective, ``x -> (f(x), f'(x), *extra)``, with the exact slope:
        the polish has no finite-difference fallback.  ``extra`` (such as
        the eigenvector behind a value) is handed back for the returned
        point, from the call that evaluated it; it is kept for the best
        grid point and the polish's bracket ends only.
    screen : callable, optional
        ``(xs, level) -> bool array`` over ``xs``, the grid points still
        open after the first evaluations, True only where f(x) > level is
        certain; it must be False where it cannot tell, wherever f(x) may be
        NaN, and everywhere when ``level`` is not finite.  It is called once
        per minimisation.
    start : float, optional
        A guess of the minimiser, such as the minimiser of a neighbouring
        problem.  The pre-scan evaluates the grid point nearest it first
        instead of a coarse pass; with ``screen`` that sets the level, so it
        changes the number of evaluations, never the result.

    Returns
    -------
    (x, fx, *extra) : tuple
        Approximate minimiser, its value as floats, and the objective's
        ``extra`` at it.

    Raises
    ------
    ValueError
        If ``hi <= lo``, ``grid_points < 64``, ``start`` is not finite, or
        the objective's value is NaN on the grid.
    ArithmeticError
        If the polish does not close its bracket in ``POLISH_MAX_STEPS``.
    """
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    if start is not None and not math.isfinite(start):
        raise ValueError(f"start must be finite, got {start!r}")
    xs = prescan_grid(lo, hi, grid_points)
    seen, i = _screened_scan(value_and_slope, screen, xs, start)
    x, record = _polish_on_slope(value_and_slope, xs, seen, i, tol)
    if not record[0] < seen[i][0]:
        x, record = xs[i], seen[i]
    return float(x), float(record[0]), *record[2:]


def prescan_grid(lo, hi, grid_points):
    """The pre-scan grid of :func:`scalar_minimize`:
    ``np.linspace(lo, hi, grid_points)``; fewer than 64 points raise ``ValueError``."""
    if grid_points < 64:
        raise ValueError(f"grid_points must be at least 64, got {grid_points}")
    return np.linspace(lo, hi, int(grid_points))


def _screened_scan(value_and_slope, screen, xs, start):
    """Records at the grid points of ``xs`` that ``screen`` leaves open, and
    the first grid argmin i, as ``({index: record}, i)``.

    A record is the objective's ``(f, f', *extra)``; only x_i's keeps its
    ``extra`` and every other point keeps ``(f, f')``, so one ``extra`` is
    held at a time.  A NaN value raises ``ValueError`` at once.  First the
    objective is evaluated at the grid point nearest ``start`` (the smaller
    x on a tie), or without ``start`` at every s-th point and the last one,
    s = isqrt(len(xs)).  Then ``screen`` is asked once about the other
    points, at the least of those values, and every point it leaves open is
    evaluated.  It rules out no point whose value is at most that level,
    and so none at or below the grid minimum: i (ties to the smaller index)
    and its value are those of the full grid, whatever the first points
    are.  Without ``screen`` every point is evaluated.
    """
    m = len(xs)
    if start is None:
        first = list(range(0, m, math.isqrt(m)))
        if first[-1] != m - 1:
            first.append(m - 1)
    else:
        first = [int(np.argmin(np.abs(xs - start)))]

    def order():  # the screen runs once the first points are evaluated
        yield from first
        rest = np.delete(np.arange(m), first)
        if screen is not None:
            rest = rest[~screen(xs[rest], float(np.min([seen[j][0] for j in first])))]
        yield from rest.tolist()

    seen, i = {}, None
    for j in order():
        record = seen[j] = value_and_slope(float(xs[j]))
        if math.isnan(record[0]):
            raise ValueError(f"objective returned NaN at x = {xs[j]!r}")
        if i is None or (record[0], j) < (seen[i][0], i):
            i, j = j, i
        if j is not None:  # j is now the point that lost
            seen[j] = seen[j][:2]
    return seen, i


def _polish_on_slope(value_and_slope, xs, seen, i, tol):
    """Zero of the slope next to the grid minimum ``xs[i]``, as ``(x, record)``
    with ``record`` the objective's ``(f, f', *extra)`` at x.

    ``seen`` holds the record of each evaluated grid point, x_i's with its
    ``extra``.  The slope at x_i says on which side of it the function
    falls.  With the slope at that neighbour, recorded or (if it was
    screened out) evaluated here, a sign change brackets a stationary
    point, which Illinois regula falsi closes to ``tol``: a bracket end kept
    twice in a row has its slope halved, so both ends move, and every trial
    point stays ``tol / 2`` inside the bracket, so the last step lands
    across the zero.  At a multiple zero (a flat minimum) Illinois is only
    linear, so after ``POLISH_SECANT_STEPS`` steps the trial point is the
    midpoint.  Returns the end with the smaller slope.  Without a sign
    change (x_i at the end of the grid with the function falling outward,
    or a non-smooth objective) it returns the best point evaluated; a
    non-finite slope stops the polish at the better bracket end.  The
    polish also stops when no double lies strictly inside the bracket,
    whatever ``tol``; a bracket still open after ``POLISH_MAX_STEPS`` steps
    raises ``ArithmeticError``.  A recorded neighbour has no ``extra``, but
    its value is not below x_i's, so the caller never returns it.
    """
    m, rm = float(xs[i]), seen[i]
    j = i - 1 if rm[1] > 0 else i + 1
    if rm[1] == 0 or not 0 <= j < len(xs):
        return m, rm
    e = float(xs[j])
    re = seen[j] if j in seen else value_and_slope(e)
    if re[1] == 0 or (re[1] > 0) == (rm[1] > 0):
        return (e, re) if re[0] < rm[0] else (m, rm)
    # slope < 0 at a and > 0 at b; wa, wb are the slopes regula falsi weighs;
    # kept is +1 (-1) when the last step kept b (a)
    (a, ra), (b, rb) = ((m, rm), (e, re)) if m < e else ((e, re), (m, rm))
    wa, wb, kept = ra[1], rb[1], 0
    for step in range(POLISH_MAX_STEPS + 1):
        if b - a <= tol or math.nextafter(a, b) == b:  # no double lies inside
            break
        if step == POLISH_MAX_STEPS:
            raise ArithmeticError(
                f"slope polish did not close [{a!r}, {b!r}] to {tol!r} "
                f"in {POLISH_MAX_STEPS} steps"
            )
        if step < POLISH_SECANT_STEPS:
            x = b - wb * (b - a) / (wb - wa)
            x = min(max(x, a + 0.5 * tol), b - 0.5 * tol)
        else:
            x = 0.5 * (a + b)
        rx = value_and_slope(x)
        if rx[1] == 0:
            return x, rx
        if not math.isfinite(rx[1]):
            break
        if rx[1] < 0:
            a, ra, wa = x, rx, rx[1]
            wb = 0.5 * wb if kept > 0 else wb
            kept = 1
        else:
            b, rb, wb = x, rx, rx[1]
            wa = 0.5 * wa if kept < 0 else wa
            kept = -1
    return (a, ra) if -ra[1] <= rb[1] else (b, rb)


def lowest_eigen_banded(bands):
    """Lowest eigenpair of a real symmetric banded matrix.

    Two paths, split at ``INERTIA_CROSSOVER`` on the order n of the matrix:

    * ``n < INERTIA_CROSSOVER``: LAPACK ``sbevx`` for the lowest index,
      through a handle cached on the first call.  It gives the same numbers as
      ``scipy.linalg.eig_banded(..., select="i")`` without its wrapper cost.
    * ``n >= INERTIA_CROSSOVER``: Sylvester-inertia bisection with inverse
      iteration (:func:`_lowest_by_inertia`), O(n b^2) per step.

    The split is not where the two cost the same: ``sbevx``'s O(n^2)
    band-to-tridiagonal reduction overtakes the 10 to 14 O(n b^2)
    factorisations of the inertia path from order about 130 (murcia bands,
    one BLAS thread, 2-vCPU Xeon: 221 against 183 us at order 130, 634
    against 211 us at order 199).  It stays at 200 because moving it
    would change the printed digits of every order in between.

    Accuracy contract: below the crossover, the backward-stable LAPACK
    result.  From the crossover up, ``w`` is the upper end of a bracket
    [lo, w] of width at most ``INERTIA_RTOL * ||H||_inf`` (largest absolute
    row sum) that contains the lowest eigenvalue in exact arithmetic: lo is
    certified by a shifted Cholesky factorisation that carries a margin for
    its own rounding (:func:`_certified_cholesky`), and ``w`` is the
    Rayleigh quotient of the returned vector.  Neither path falls back to
    the other or to any other method.

    Parameters
    ----------
    bands : ndarray, shape (b + 1, n)
        Lower band storage: ``bands[i, j] = A[i + j, j]``; row 0 is the
        diagonal.  Must be finite.

    Returns
    -------
    w : float
        Lowest eigenvalue.
    v : ndarray
        Corresponding unit eigenvector, sign-normalised so its largest
        entry is positive.

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
            bands, 0.0, 1.0, 1, 1, compute_v=1, range=2,
            lower=1, abstol=abstol, mmax=1, overwrite_ab=0,
        )
        if info != 0:
            raise ArithmeticError(f"LAPACK sbevx failed with info = {info}")
        w, vec = float(w[0]), vecs[:, 0]
    else:
        w, vec = _lowest_by_inertia(bands)
    j = int(np.argmax(np.abs(vec)))
    if vec[j] < 0:
        vec = -vec
    return w, vec


def _lowest_by_inertia(bands):
    """Bracket on the lowest eigenvalue of a banded matrix.

    Each step first certifies a trial shift sigma (at the first step, just
    below the Gershgorin lower bound) by :func:`_certified_cholesky` on a
    copy of ``H``, which factors ``H - s I`` at s = sigma + rho.  A success makes
    sigma the new ``lo``, a certified lower bound on every eigenvalue, and
    its factor the one solved with; a failure makes sigma the new ``top``.
    Then the step makes one inverse-iteration solve ``(H - s I) y = x``
    with the last certified factor.  Since ``H y = x + s y``, the Rayleigh
    quotient of ``y`` is ``hi = s + (y.x)/(y.y)`` and its residual is
    ``|x - (hi - s) y|/|y|``, with no product by ``H``.  The next trial
    shift is ``hi - r`` (some eigenvalue lies within ``r`` of ``hi``), kept
    inside the open bracket, or the midpoint after a failed trial.
    """
    _, _, pbtrs, _ = _lapack()
    n = bands.shape[1]
    floor, norm = gershgorin_bounds(bands)
    tol = INERTIA_RTOL * (norm if norm > 0 else 1.0)
    # top: least shift known to lie at or above the lowest eigenvalue; the
    # smallest diagonal entry is the Rayleigh quotient of a unit vector
    top = float(bands[0].min())
    bands, peak = np.asfortranarray(bands), bands.max()
    lo, sigma = None, floor - 0.25 * tol
    x = _start_vector(n)
    for _ in range(INERTIA_MAX_STEPS):
        trial = bands.copy(order="F")
        ok, trial_shift = _certified_cholesky(trial, n, sigma, peak)
        failed = not ok[0]
        if not failed:
            lo, factor, shift = sigma, trial, float(trial_shift)
        elif lo is None:
            raise ArithmeticError(f"banded Cholesky failed below the Gershgorin bound {sigma!r}")
        else:
            top = sigma
        y = pbtrs(factor, x, lower=1)[0]
        ynorm = math.sqrt(float(y @ y))
        delta = float(y @ x) / (ynorm * ynorm)
        hi = shift + delta
        if hi - lo <= tol:
            return hi, y / ynorm
        top = min(top, hi)
        if failed:
            sigma = 0.5 * (lo + top)
        else:
            r = math.sqrt(float((v := x - delta * y) @ v)) / ynorm
            sigma = hi - max(r, 0.25 * tol)
            if not lo < sigma < top:
                sigma = 0.5 * (lo + top)
        x = y / ynorm
    raise ArithmeticError(
        f"inertia bisection did not close [{lo!r}, {top!r}] to {tol:.3e} "
        f"in {INERTIA_MAX_STEPS} steps"
    )


def gershgorin_bounds(bands):
    """``(floor, norm)`` of a real symmetric matrix in lower band storage.

    ``floor`` is the Gershgorin lower bound on its eigenvalues,
    min_i (A_ii - sum_{j != i} |A_ij|), and ``norm`` is ``||A||_inf``, its
    largest absolute row sum, which bounds every eigenvalue's magnitude.
    """
    nb, n = bands.shape[0] - 1, bands.shape[1]
    diag = bands[0]
    off = np.zeros(n)
    for k in range(1, nb + 1):
        a = np.abs(bands[k, : n - k])
        off[: n - k] += a
        off[k:] += a
    return float((diag - off).min()), float((np.abs(diag) + off).max())


def eigen_above_stacked(bands_of, count, order, level):
    """Whether every eigenvalue of each of ``count`` banded symmetric
    matrices of one order exceeds ``level``; a bool array of length ``count``.

    ``bands_of(i, j)`` returns matrices i..j-1 side by side in lower band
    storage, a Fortran-order array of shape (b + 1, (j - i) * order) that
    this function overwrites.  It is asked for stacks of at most
    max(1, ``SCREEN_STACK_ROWS // order``) matrices, each factored by one
    ``pbtrf`` call as one block-diagonal matrix, O(rows b^2).

    True is a certificate: lambda_min(H) > level in exact arithmetic
    (:func:`_certified_cholesky`).  False means not certified: some
    eigenvalue is at most ``level``, or within the margin rho of it, or the
    block or ``level`` is not finite; a non-finite ``level`` gets all False
    before any stack is built.  Each block gets the answer it would get
    alone.  A block that is not finite is zeroed and factored with
    ``top`` = +inf, so it fails before its values can reach a neighbour.

    A caller that certifies bands computed another way than those it will
    evaluate must widen ``level`` by more than the difference between them.
    ``collective.max_violation`` builds its stacks from one matrix product,
    whose bands differ from ``bell_operator_bands`` in the last bits, far
    inside its margin ``SCREEN_RTOL * S`` (S = sum_k ||P_k||_inf).
    """
    per = max(1, SCREEN_STACK_ROWS // order)
    certified = np.zeros(count, dtype=bool)
    if not math.isfinite(level):
        return certified
    for i in range(0, count, per):
        j = min(i + per, count)
        ab = np.asfortranarray(bands_of(i, j))
        cols = ab.T.reshape(j - i, order, -1)
        top = cols.max(axis=(1, 2))
        bad = ~(np.isfinite(top) & np.isfinite(cols.min(axis=(1, 2))))
        cols[bad], top[bad] = 0.0, np.inf
        certified[i:j] = _certified_cholesky(ab, order, level, top)[0]
    return certified


def _certified_cholesky(ab, order, level, top):
    """Certify lambda_min > ``level`` for each block of a band stack.

    ``ab`` holds blocks of ``order`` rows side by side in Fortran-order lower
    band storage, bandwidth b, and ``top`` the largest entry of each block
    (its unused band slots included), a scalar for one block; ``level``
    must be finite.  Each block is factored in place as H - shift I, shift
    = level + rho.  Returns ``(ok, shift)``: ``ok[k]`` certifies block k,
    and a one-block ``ab`` it certifies is left holding the Cholesky factor
    of H - shift I.

    By Sylvester's law of inertia, H - sigma I is positive definite exactly
    when its Cholesky factorisation exists.  One that succeeds in floating
    point is exact for a matrix within ((b + 2)(2b + 1) + 1) u
    max_i (A_ii - sigma) of H - sigma I (u the unit roundoff; Higham,
    *Accuracy and Stability of Numerical Algorithms*, Thm 10.3, with
    |L||L^T| bounded row by row).  rho = ((b + 2)(2b + 1) + 4) eps
    (|top| + |level|) is more than twice that, with |top| + |level| in
    place of max_i (A_ii - sigma) so that the rounding of level + rho is
    covered too; so ``ok[k]`` means lambda_min > level in exact arithmetic.

    The entries a band row holds past the end of a block, which would
    couple it to the next, are set to zero, so the next block's rows start
    with an exact-zero coupling.  At small bandwidths (up to 64 in reference
    LAPACK) ``pbtrf`` works column by column, so it does each block's
    arithmetic as if the block stood alone and adds only exact zeros to its
    neighbour; at any bandwidth the coupling stays zero, so a success
    certifies every block.  A block that fails stops the factorisation,
    which restarts at the next block, so no row is factored twice.  A block
    with finite entries and ``top`` = +inf fails at its first pivot, -inf.
    """
    _, pbtrf, _, _ = _lapack()
    nb = ab.shape[0] - 1
    shift = level + ((nb + 2) * (2 * nb + 1) + 4) * _EPS * (abs(top) + abs(level))
    cols = ab.T.reshape(-1, order, nb + 1)  # cols[k, r, d] = entry (r + d, r) of block k
    diag = cols[:, :, 0].T
    diag -= shift
    if len(cols) > 1:  # slots past a block's end couple it to the next
        for d in range(1, nb + 1):
            cols[:, max(order - d, 0):, d] = 0.0
    failed = np.zeros(len(cols), dtype=bool)
    rest = ab
    while rest.shape[1]:
        _, info = pbtrf(rest, lower=1, overwrite_ab=1)
        if info == 0:
            break
        if info < 0:
            raise ValueError(f"LAPACK pbtrf rejected argument {-info}")
        k = (ab.shape[1] - rest.shape[1] + info - 1) // order
        failed[k] = True
        rest = ab[:, (k + 1) * order:]
    return ~failed, shift


def seeded_generator(seed):
    """numpy ``Generator`` over ``PCG64(seed)``: the one place the bit
    generator is pinned, so equal seeds give bitwise-equal streams."""
    return np.random.Generator(np.random.PCG64(int(seed)))


@functools.lru_cache(maxsize=64)
def _start_vector(n):
    """Fixed seeded start vector for inverse iteration and Lanczos (read-only)."""
    x = seeded_generator(n).standard_normal(n)
    x.setflags(write=False)
    return x
