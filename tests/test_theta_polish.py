"""The theta objective of ``max_violation``: cached trigonometric band terms,
the Hellmann-Feynman slope, the Cholesky-screened pre-scan and the slope
polish of ``scalar_minimize``, checked against the explicit band formula,
the unscreened grid and the grid + Brent minimiser in ``helpers``."""

import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellscope import collective, numerics
from bellscope.collective import (
    _bell_slope,
    bell_operator_bands,
    dicke_state,
    dicke_violation,
    max_violation,
    symmetrized_correlators,
)
from bellscope.correlations import chsh_quantum_demo
from bellscope.numerics import lowest_eigen_banded, scalar_minimize
from bellscope.quantum import max_entangled
from bellscope.symmetric import PIBellExpression, dicke_expression, murcia

from helpers import (
    bell_operator_bands_explicit,
    bell_operator_dense,
    grid_brent_minimize,
    pair_correlator,
)

COEFF = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=8),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
COEFFS = st.tuples(COEFF, COEFF, COEFF, COEFF, COEFF).filter(lambda c: any(c))
# alpha = delta = 0: lambda(theta) = lambda(pi - theta), so mirror grid
# points nearly tie
MIRRORED = st.tuples(COEFF, COEFF, COEFF).map(
    lambda c: (0, c[0], c[1], 0, c[2])).filter(lambda c: any(c))
MURCIA = (-2, 0, 1, -1, 1)
THETA_GRID = np.linspace(0.0, math.pi, 256)


def expression(n, coeffs):
    return PIBellExpression(n, *coeffs, bound=0)


def band_norm(bands):
    """||H||_inf, the largest absolute row sum, from lower band storage."""
    n = bands.shape[1]
    rows = np.abs(bands[0]).copy()
    for k in range(1, bands.shape[0]):
        rows[k:] += np.abs(bands[k, : n - k])
        rows[: n - k] += np.abs(bands[k, : n - k])
    return float(rows.max())


def lowest(expr, theta):
    return lowest_eigen_banded(bell_operator_bands(expr, theta))[0]


def traced_max_violation(expr, screen=True, **kwargs):
    """``max_violation`` with the angle of each eigen call recorded: every
    call is made on ``bell_operator_bands(expr, theta)``, so its angle is
    the one those bands were built at.  ``screen=False`` runs the pre-scan
    unscreened, at every grid angle."""
    angles, eigen_calls = [], []
    real_bands, real_eigen = collective.bell_operator_bands, collective.lowest_eigen_banded

    def bands(expr, theta):
        angles.append(theta)
        return real_bands(expr, theta)

    def eigen(bands):
        eigen_calls.append(bands)
        return real_eigen(bands)

    def unscreened(*args, screen=None, **kwargs):
        return scalar_minimize(*args, **kwargs)

    with mock.patch.object(collective, "bell_operator_bands", bands), \
            mock.patch.object(collective, "lowest_eigen_banded", eigen), \
            mock.patch.object(collective, "scalar_minimize",
                              scalar_minimize if screen else unscreened):
        mv = max_violation(expr, **kwargs)
    assert len(eigen_calls) == len(angles) == mv.evals
    return mv, angles


def polish_calls(mv, angles, grid_points=256):
    """The angles of the polish's own eigen calls, checking the order of a
    ``max_violation`` call's evaluations: first the grid angles the
    pre-scan evaluates, each once, then the polish's calls, which evaluate
    off-grid angles and at most one grid angle the pre-scan skipped; the
    returned angle is one of the evaluated ones.  Pins
    ``evals + screened == grid_points + len(polish)``."""
    grid = set(np.linspace(0.0, math.pi, grid_points).tolist())
    scanned = grid_points - mv.screened
    on_grid = [t for t in angles if t in grid]
    assert mv.theta in angles
    assert len(set(on_grid)) == len(on_grid)  # no grid angle twice
    assert set(angles[:scanned]) <= grid
    polish = angles[scanned:]
    assert len([t for t in polish if t in grid]) <= 1  # a screened neighbour
    assert mv.evals + mv.screened == grid_points + len(polish)
    return polish


class TestBands:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 300), coeffs=COEFFS,
           theta=st.floats(min_value=-7.0, max_value=7.0, allow_nan=False))
    @example(n=2, coeffs=(-2, 0, 1, -1, 1), theta=0.0)
    @example(n=2500, coeffs=(-2, 0, 1, -1, 1), theta=math.pi)
    @example(n=7, coeffs=(Fraction(1, 3), 0, 0, 0, Fraction(-5, 2)), theta=1.0)
    def test_match_explicit_formula(self, n, coeffs, theta):
        expr = expression(n, coeffs)
        want = bell_operator_bands_explicit(expr, theta)
        got = bell_operator_bands(expr, theta)
        assert got.shape == (3, n + 1)
        assert np.abs(got - want).max() <= 1e-13 * max(band_norm(want), 1e-300)
        assert not got[1, n:].any() and not got[2, n - 1:].any()

    def test_cached_terms_are_read_only(self):
        expr = murcia(9)
        bell_operator_bands(expr, 0.4)
        terms = collective._band_terms(9, collective._float_coeffs(expr))
        with pytest.raises(ValueError):
            terms[0, 0] = 1.0
        # callers get a fresh array they may write to
        bands = bell_operator_bands(expr, 0.4)
        bands[0, 0] = 123.0
        assert bell_operator_bands(expr, 0.4)[0, 0] != 123.0


class TestHellmannFeynmanSlope:
    @pytest.mark.parametrize("n, coeffs", [
        (5, (-2, 0, 1, -1, 1)),
        (12, (-2, 0, 1, -1, 1)),
        (30, (1, -0.5, 0.25, 2, -1.5)),
        (150, (-2, 0, 1, -1, 1)),
        (260, (0.3, 1, -0.7, 0.2, 0.9)),
    ])
    def test_matches_central_difference(self, n, coeffs):
        expr = expression(n, coeffs)
        h = 1e-5
        for theta in np.linspace(0.2, 2.9, 7):
            w = np.linalg.eigvalsh(bell_operator_dense(expr, theta))
            scale = band_norm(bell_operator_bands(expr, theta))
            if w[1] - w[0] < 1e-3 * scale:
                continue  # slope of a near-degenerate level is not defined
            _, vec = lowest_eigen_banded(bell_operator_bands(expr, theta))
            slope = _bell_slope(expr, theta, vec)
            lam = [np.linalg.eigvalsh(bell_operator_dense(expr, t))[0]
                   for t in (theta - h, theta + h)]
            fd = (lam[1] - lam[0]) / (2 * h)
            assert slope == pytest.approx(fd, abs=1e-6 * scale)


class TestMaxViolationOracle:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 40), coeffs=COEFFS)
    @example(n=4, coeffs=(-2, 0, 1, -1, 1))
    @example(n=5, coeffs=(-2, 0, 1, -1, 1))
    @example(n=40, coeffs=(-2, 0, 1, -1, 1))
    def test_grid_bound_and_brent_oracle(self, n, coeffs):
        expr = expression(n, coeffs)
        mv = max_violation(expr)
        grid_min = min(lowest(expr, t) for t in THETA_GRID)
        assert mv.quantum_value <= grid_min
        _, want = grid_brent_minimize(lambda t: lowest(expr, t), 0.0, math.pi,
                                      tol=1e-6, grid_points=256)
        assert abs(mv.quantum_value - want) <= 1e-9 * max(abs(want), 1.0)
        assert 0.0 <= mv.theta <= math.pi
        assert mv.quantum_value == pytest.approx(lowest(expr, mv.theta), rel=1e-14, abs=1e-14)

    def test_evals_counts_eigen_calls(self):
        for n, grid_points in ((6, 256), (23, 256), (30, 64)):
            mv, angles = traced_max_violation(murcia(n), grid_points=grid_points)
            polish_calls(mv, angles, grid_points)
            assert grid_points < mv.evals + mv.screened <= grid_points + 12

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 60), coeffs=st.one_of(COEFFS, MIRRORED),
           start=st.one_of(st.none(), st.floats(0.0, math.pi)))
    @example(n=5, coeffs=MURCIA, start=None)
    @example(n=40, coeffs=MURCIA, start=2.0)
    @example(n=250, coeffs=MURCIA, start=None)
    @example(n=300, coeffs=(0.3, 1, -0.7, 0.2, 0.9), start=1.0)
    def test_no_angle_reaches_the_eigen_kernel_twice(self, n, coeffs, start):
        # the state comes from the evaluation at theta, not from a call of
        # its own, and it is bitwise the normalised vector of a fresh call
        expr = expression(n, coeffs)
        mv, angles = traced_max_violation(expr, start=start)
        assert len(set(angles)) == len(angles)
        assert mv.theta in angles
        _, vec = lowest_eigen_banded(bell_operator_bands(expr, mv.theta))
        want = collective.SymmetricState(n, vec / np.linalg.norm(vec)).amplitudes
        assert mv.state.amplitudes.tobytes() == want.tobytes()

    def test_holds_a_few_eigenvectors_not_one_per_evaluation(self):
        # the reference drops each evaluation's vector and builds the state
        # from one more eigen call at theta.  The scan keeps one vector, the
        # best grid angle's, and the polish also keeps its two bracket ends':
        # at most three vectors more than the reference, where one per grid
        # angle evaluated would be about thirty
        n = 20_000
        expr = murcia(n)

        def last_call(value_and_slope, *args, **kwargs):
            x, f = scalar_minimize(lambda t: value_and_slope(t)[:2], *args, **kwargs)
            return x, f, lowest_eigen_banded(bell_operator_bands(expr, x))[1]

        def peak(**patch):
            with mock.patch.multiple(collective, **patch):
                tracemalloc.start()
                try:
                    mv = max_violation(expr)
                    return tracemalloc.get_traced_memory()[1], mv
                finally:
                    tracemalloc.stop()

        max_violation(expr)  # fills the band-term cache and loads LAPACK
        ref_peak, ref = peak(scalar_minimize=last_call)
        got_peak, got = peak(scalar_minimize=scalar_minimize)
        assert got.state.amplitudes.tobytes() == ref.state.amplitudes.tobytes()
        assert (got.theta, got.evals) == (ref.theta, ref.evals)  # evals skips the last call
        assert got_peak <= ref_peak + 3 * 8 * (n + 1) + 4096

    def test_murcia_census_at_the_bound_is_exact(self):
        # lambda_min = -2n exactly for n <= 4; the polish adds no rounding
        for n in (2, 3, 4):
            mv = max_violation(murcia(n))
            assert mv.violation <= 1e-12


class TestScreenedScan:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 60), coeffs=st.one_of(COEFFS, MIRRORED))
    @example(n=2, coeffs=MURCIA)
    @example(n=3, coeffs=MURCIA)
    @example(n=4, coeffs=MURCIA)
    @example(n=11, coeffs=(0, 0, 1, 0, -1))
    @example(n=24, coeffs=(0, 1, -0.7, 0, 0.9))
    @example(n=199, coeffs=MURCIA)
    @example(n=200, coeffs=(0, 1, -0.7, 0, 0.9))
    @example(n=300, coeffs=(0.3, 1, -0.7, 0.2, 0.9))
    def test_bitwise_equal_to_the_full_grid(self, n, coeffs):
        expr = expression(n, coeffs)
        self.check_full_grid_answer(expr, *traced_max_violation(expr))

    @staticmethod
    def check_full_grid_answer(expr, mv, angles):
        # the same answer as the unscreened scan, whose polish evaluates no
        # grid angle, and the same off-grid polish points
        ref, ref_angles = traced_max_violation(expr, screen=False)
        assert ref.screened == 0
        assert mv.theta.hex() == ref.theta.hex()
        assert mv.quantum_value.hex() == ref.quantum_value.hex()
        assert mv.state.amplitudes.tobytes() == ref.state.amplitudes.tobytes()
        polish, ref_polish = polish_calls(mv, angles), polish_calls(ref, ref_angles)
        grid = set(THETA_GRID.tolist())
        assert not grid & set(ref_polish)
        assert [t for t in polish if t not in grid] == ref_polish

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 60), coeffs=st.one_of(COEFFS, MIRRORED),
           start=st.one_of(st.sampled_from(THETA_GRID.tolist()),
                           st.floats(0.0, math.pi)))
    @example(n=5, coeffs=MURCIA, start=0.0)
    @example(n=5, coeffs=MURCIA, start=math.pi)
    @example(n=5, coeffs=MURCIA, start=0.5 * (THETA_GRID[100] + THETA_GRID[101]))
    @example(n=11, coeffs=(0, 0, 1, 0, -1), start=THETA_GRID[200])
    @example(n=24, coeffs=(0, 1, -0.7, 0, 0.9), start=3.0)
    @example(n=250, coeffs=MURCIA, start=2.0)
    @example(n=5, coeffs=MURCIA, start=-1.0)
    @example(n=24, coeffs=(0, 1, -0.7, 0, 0.9), start=4.0)
    def test_any_start_gives_the_full_grid_answer(self, n, coeffs, start):
        expr = expression(n, coeffs)
        self.check_full_grid_answer(expr, *traced_max_violation(expr, start=start))

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_is_refused(self, start):
        with pytest.raises(ValueError, match="start"):
            max_violation(murcia(6), start=start)

    def test_one_stacked_screen_per_call(self, monkeypatch):
        # one stacked screen per call, over the grid angles the first
        # evaluations left open, and no pbtrf outside it and the eigen
        # kernel; every grid angle the screen leaves open is evaluated
        stacks, angles, inside, outside = [], [], [], []
        real_stacked = collective.eigen_above_stacked
        real_eigen = collective.lowest_eigen_banded
        real_bands = collective.bell_operator_bands
        real_lapack = numerics._lapack()

        def stacked(bands_of, count, order, level):
            inside.append(True)
            stacks.append(real_stacked(bands_of, count, order, level))
            inside.pop()
            return stacks[-1]

        def counting(bands):
            inside.append(True)
            result = real_eigen(bands)
            inside.pop()
            return result

        def bands(expr, theta):
            angles.append(theta)
            return real_bands(expr, theta)

        def pbtrf(*args, **kwargs):
            if not inside:
                outside.append(args[0].shape)
            return real_lapack[1](*args, **kwargs)

        monkeypatch.setattr(collective, "eigen_above_stacked", stacked)
        monkeypatch.setattr(collective, "lowest_eigen_banded", counting)
        monkeypatch.setattr(collective, "bell_operator_bands", bands)
        monkeypatch.setattr(numerics, "_lapack",
                            lambda: (real_lapack[0], pbtrf, *real_lapack[2:]))
        for n, grid_points in ((5, 256), (40, 256), (250, 256), (30, 64)):
            for record in (stacks, angles):
                record.clear()
            mv = max_violation(murcia(n), grid_points=grid_points)
            assert len(stacks) == 1 and not outside
            first = math.isqrt(grid_points) + 1  # the coarse pass
            assert len(stacks[0]) == grid_points - first
            assert mv.screened == int(stacks[0].sum())
            polish_calls(mv, angles, grid_points)

    def test_screens_most_of_the_grid(self):
        for n in (5, 40, 250):
            mv = max_violation(murcia(n))
            assert mv.evals <= 40 and mv.screened >= 220

    def test_generic_objective_keeps_the_grid_answer(self):
        # identical wells at pi and 2 pi: the screened scan must still pick
        # the left one, and find the value of the full scan
        def value_and_slope(x):
            calls.append(x)
            return math.sin(x) ** 2 - 1.0, math.sin(2.0 * x)

        calls = []
        want = scalar_minimize(value_and_slope, 1.0, 8.0, grid_points=256)
        full = len(calls)
        calls.clear()
        got = scalar_minimize(value_and_slope, 1.0, 8.0, grid_points=256,
                              screen=lambda xs, level: np.sin(xs) ** 2 - 1.0 > level + 1e-12)
        assert got == want
        assert abs(got[0] - math.pi) <= 1e-6
        assert len(calls) < full // 2


class TestScalarMinimizeSlope:
    def test_supplied_slope_reaches_a_stationary_point(self):
        def f(x):
            return math.cos(3 * x) + 0.3 * x * x

        def value_and_slope(x):
            return f(x), -3 * math.sin(3 * x) + 0.6 * x

        x, _ = scalar_minimize(value_and_slope, -2.0, 3.0, tol=1e-10)
        assert abs(value_and_slope(x)[1]) <= 1e-8

    def test_narrow_well_next_to_the_end(self):
        # a well 0.03 wide at 0.02 from the left end, as in the misses of
        # a coarse grid; the 256-point pre-scan must land in it
        def f(x):
            return -0.5 * math.exp(-((x - 0.02) / 0.015) ** 2) - 0.1 * math.cos(x - 2.0)

        def value_and_slope(x):
            u = (x - 0.02) / 0.015
            return f(x), math.exp(-u * u) * u / 0.015 + 0.1 * math.sin(x - 2.0)

        x, fx = scalar_minimize(value_and_slope, 0.0, math.pi, tol=1e-9, grid_points=256)
        assert x == pytest.approx(0.02, abs=1e-3)
        grid = min(f(t) for t in THETA_GRID)
        assert fx <= grid

    def test_minimum_at_the_range_end(self):
        x, fx = scalar_minimize(lambda x: (x * x, 2.0 * x), 0.5, 2.0)
        assert (x, fx) == (0.5, 0.25)
        x, fx = scalar_minimize(lambda x: (-x, -1.0), 0.0, 1.0)
        assert (x, fx) == (1.0, -1.0)

    def test_flat_minimum_closes(self):
        # a triple zero of the slope: plain regula falsi keeps one end and
        # crawls; the Illinois halving closes the bracket
        def value_and_slope(x):
            return (x - 0.3) ** 4, 4 * (x - 0.3) ** 3

        x, _ = scalar_minimize(value_and_slope, 0.0, 1.0, tol=1e-9)
        assert abs(x - 0.3) <= 1e-8

    @pytest.mark.parametrize("p", [6, 8, 10])
    def test_flatter_minima_close_by_bisection(self, p):
        # Illinois alone is linear here and used to stop at its step cap with
        # an open bracket (errors 1.1e-7 at p = 8 and 2e-6 at p = 10); the
        # polish's calls are the off-grid ones
        calls = []

        def value_and_slope(x):
            calls.append(x)
            return (x - 0.3) ** p, p * (x - 0.3) ** (p - 1)

        x, _ = scalar_minimize(value_and_slope, 0.0, 1.0, tol=1e-9)
        assert abs(x - 0.3) <= 1e-9
        grid = set(numerics.prescan_grid(0.0, 1.0, 64).tolist())
        assert len([t for t in calls if t not in grid]) <= numerics.POLISH_SECANT_STEPS + 30

    @pytest.mark.parametrize("tol", [1e-16, 1e-300, 5e-324])
    def test_a_tol_below_float_resolution_closes_at_adjacent_doubles(self, tol):
        # murcia(5)'s optimum used to end on the bracket
        # [2.3468788734760695, 2.34687887347607], two adjacent doubles, and
        # raise at the step cap
        mv = max_violation(murcia(5), tol=tol)
        ref = max_violation(murcia(5), tol=1e-12)
        assert abs(mv.theta - ref.theta) <= 1e-9
        assert mv.violation == pytest.approx(ref.violation, rel=1e-12)

    def test_open_bracket_at_the_cap_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "POLISH_MAX_STEPS", 10)

        def value_and_slope(x):
            return (x - 0.3) ** 8, 8 * (x - 0.3) ** 7

        with pytest.raises(ArithmeticError, match=r"did not close \["):
            scalar_minimize(value_and_slope, 0.0, 1.0, tol=1e-9)

    def test_polish_never_loses_to_the_grid(self):
        # a kink: the slope jumps from -1 to +1 at 1/3
        def value_and_slope(x):
            return abs(x - 1.0 / 3.0), math.copysign(1.0, x - 1.0 / 3.0)

        x, fx = scalar_minimize(value_and_slope, 0.0, 1.0, tol=1e-12)
        assert abs(x - 1.0 / 3.0) <= 1e-9
        assert fx <= 1e-9


class TestChshAscent:
    def test_angles_reach_the_planar_optimum(self):
        half = 0.5 * math.pi
        amp = max_entangled(2).amplitudes
        rho = np.outer(amp, amp.conj())
        t = np.array([[pair_correlator(rho, x, y) for y in (0.0, half)] for x in (0.0, half)])
        # max over planar settings: 2 sqrt(|T e|^2 + |T e_perp|^2)
        want = 2.0 * float(np.linalg.norm(t))
        value, angles = chsh_quantum_demo()
        assert value == pytest.approx(want, abs=1e-12)
        a0, a1, b0, b1 = angles
        got = (pair_correlator(rho, a0, b0) + pair_correlator(rho, a0, b1)
               + pair_correlator(rho, a1, b0) - pair_correlator(rho, a1, b1))
        assert got == pytest.approx(value, abs=1e-12)


def test_violation_paths_do_not_load_scipy_optimize():
    code = ("import sys; from bellscope.collective import max_violation, dicke_violation; "
            "from bellscope.correlations import chsh_quantum_demo; "
            "from bellscope.symmetric import murcia; "
            "max_violation(murcia(6)); dicke_violation(6); chsh_quantum_demo(); "
            "print('scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_dicke_violation_matches_brent_oracle():
    for n in (4, 9, 16):
        expr = dicke_expression(n)
        state = dicke_state(n, n // 2)
        _, want = grid_brent_minimize(
            lambda t: expr.value_float(symmetrized_correlators(state, t)),
            0.0, math.pi, tol=1e-6, grid_points=512)
        assert dicke_violation(n).quantum_value == pytest.approx(want, abs=1e-9 * abs(want))


def test_dicke_violation_runs_no_state_and_no_minimiser():
    def refuse(*args, **kwargs):
        raise AssertionError("dicke_violation must not call this")

    with mock.patch.object(collective, "symmetrized_correlators", refuse), \
            mock.patch.object(collective, "scalar_minimize", refuse), \
            mock.patch.object(numerics, "scalar_minimize", refuse):
        for n in (2, 3, 10, 11):
            dicke_violation(n)
