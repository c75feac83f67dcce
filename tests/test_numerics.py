import importlib.machinery
import importlib.util
import json
import math
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellscope import numerics
from bellscope.numerics import (
    INERTIA_CROSSOVER,
    gershgorin_bounds,
    hermitian_eigen,
    lowest_eigen_banded,
    scalar_minimize,
    seeded_generator,
)

from helpers import bell_operator_dense, complex_normal, haar_vector
from helpers import pointwise_eigen_above


def random_hermitian(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


class TestHermitianEigen:
    def test_identity(self):
        w, v = hermitian_eigen(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        w, v = hermitian_eigen(np.diag([3.0, -1.0]))
        assert np.allclose(w, [-1.0, 3.0])

    def test_pauli_x(self):
        w, v = hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            dim = int(rng.integers(2, 65))
            m = random_hermitian(dim, rng)
            w, v = hermitian_eigen(m)
            scale = max(np.linalg.norm(m), 1.0)
            assert np.linalg.norm(m @ v - v * w) <= 1e-9 * scale
            assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-9
            assert np.all(np.diff(w) >= -1e-12)
            assert abs(np.trace(m).real - w.sum()) <= 1e-9 * scale

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRequireSize:
    def test_limit_is_accepted_and_limit_plus_one_refused(self):
        numerics._require_size("x", "n", 10**6, 10**6)
        numerics._require_size("x", "d^n", 10**6, 10**3, 2)
        with pytest.raises(ValueError) as info:
            numerics._require_size("x", "n", 10**6, 10**6 + 1)
        assert str(info.value) == "x guard is n <= 1000000, got 1000001"
        with pytest.raises(ValueError, match=r"^x guard is d\^n <= 1000000, got 1001\^2$"):
            numerics._require_size("x", "d^n", 10**6, 1001, 2)

    @pytest.mark.parametrize("base", [2, 3, 10**6])
    def test_a_power_is_refused_without_being_built(self, base):
        # 2^(10^18) has more bits than any memory; refusing it proves the
        # comparison never builds the power
        with pytest.raises(ValueError, match=rf"got {base}\^{10**18}$"):
            numerics._require_size("x", "d^n", 10**6, base, 10**18)

    def test_every_exponent_at_the_bit_length_is_compared_exactly(self):
        limit = 10**6  # 20 bits: 2^19 passes, 2^20 does not
        numerics._require_size("x", "d^n", limit, 2, 19)
        with pytest.raises(ValueError):
            numerics._require_size("x", "d^n", limit, 2, 20)

    @pytest.mark.parametrize("base", [0, 1])
    def test_a_base_below_2_passes_any_exponent(self, base):
        numerics._require_size("x", "d^n", 10**6, base, 10**18)


class TestQrFirstSingular:
    """The QR-first cut factorisations against a plain ``np.linalg.svd``."""

    SHAPES = [(2, 1024), (16, 512), (1, 7), (512, 16), (300, 4), (7, 1),
              (20, 20), (30, 50), (50, 30)]

    @staticmethod
    def matrix(shape, rank, complex_, seed):
        rng = np.random.default_rng(seed)

        def gauss(*dims):
            g = rng.normal(size=dims)
            return g + 1j * rng.normal(size=dims) if complex_ else g

        rows, cols = shape
        return gauss(rows, cols) if rank is None else gauss(rows, rank) @ gauss(rank, cols)

    @pytest.mark.parametrize("shape,rank", [
        (shape, rank) for shape in SHAPES for rank in (None, 1, 3)
        if rank is None or rank < min(shape)])
    @pytest.mark.parametrize("complex_", [True, False])
    def test_matches_plain_svd(self, shape, rank, complex_):
        w = self.matrix(shape, rank, complex_, seed=sum(shape) + (rank or 0))
        s_ref = np.linalg.svd(w, compute_uv=False)
        tol = 1e-14 * s_ref[0]
        s = np.linalg.svd(numerics._qr_reduced(w)[1], compute_uv=False)
        u, s_left = numerics._left_singular(w)
        for values in (s, s_left):
            assert values.shape == s_ref.shape
            assert np.max(np.abs(values - s_ref)) <= tol
            assert (np.count_nonzero(values > 1e-12 * values[0])
                    == np.count_nonzero(s_ref > 1e-12 * s_ref[0]))
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))) <= 1e-14
        assert np.max(np.abs(u @ (u.conj().T @ w) - w)) <= tol


class TestScalarMinimize:
    def test_parabola(self):
        x, f = scalar_minimize(lambda x: ((x - 1.0) ** 2, 2.0 * (x - 1.0)), 0.0, 2.0)
        assert abs(x - 1.0) <= 1e-8
        assert f <= 1e-15

    def test_cosine(self):
        x, f = scalar_minimize(lambda x: (math.cos(x), -math.sin(x)), 0.0, 2 * math.pi)
        assert abs(x - math.pi) <= 1e-8

    def test_tie_resolves_to_smaller_x(self):
        # identical wells at pi and 2*pi; the scan must pick the left one
        x, _ = scalar_minimize(lambda x: (math.sin(x) ** 2 - 1.0, math.sin(2.0 * x)),
                               1.0, 8.0)
        assert abs(x - math.pi) <= 1e-6

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            scalar_minimize(lambda x: (float("nan"), float("nan")), 0.0, 1.0)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        terms=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 2 * math.pi)),
                       max_size=4),
        curvature=st.floats(-1.0, 1.0),
        grid_points=st.integers(64, 300),
        keep=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        start=st.one_of(st.none(), st.floats(-1.0, 4.0)),
    )
    def test_each_grid_point_is_evaluated_at_most_once(
            self, terms, curvature, grid_points, keep, seed, start):
        # a smooth f = c x^2 + sum_k a_k cos((k + 1) x + p_k) on [0, 3] and
        # a sound screen, True only at some of the points where f > level
        def value_and_slope(x):
            f = curvature * x * x + sum(a * math.cos((k + 1) * x + p)
                                        for k, (a, p) in enumerate(terms))
            g = 2.0 * curvature * x - sum(a * (k + 1) * math.sin((k + 1) * x + p)
                                          for k, (a, p) in enumerate(terms))
            return f, g

        def counted(x):
            calls.append(x)
            return value_and_slope(x)

        def screen(xs, level):
            assert not set(xs.tolist()) & set(calls)  # only points not yet evaluated
            above = np.array([value_and_slope(x)[0] > level for x in xs.tolist()], dtype=bool)
            return above & (rng.random(len(xs)) < keep)

        grid = numerics.prescan_grid(0.0, 3.0, grid_points).tolist()
        calls, rng = [], np.random.default_rng(seed)
        got = scalar_minimize(counted, 0.0, 3.0, grid_points=grid_points, screen=screen,
                              start=start)
        on_grid = [x for x in calls if x in set(grid)]
        assert len(on_grid) == len(set(on_grid))
        calls.clear()
        want = scalar_minimize(counted, 0.0, 3.0, grid_points=grid_points)
        assert sorted(x for x in calls if x in set(grid)) == grid
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        terms=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 2 * math.pi)),
                       max_size=4),
        curvature=st.floats(-1.0, 1.0),
        grid_points=st.integers(64, 300),
        keep=st.one_of(st.none(), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
        start=st.one_of(st.none(), st.floats(-1.0, 4.0)),
    )
    # the minimum on the grid: at the end 3.0, and at 1.5 where the slope is 0
    @example(terms=[], curvature=-1.0, grid_points=64, keep=None, seed=0, start=None)
    @example(terms=[], curvature=-1.0, grid_points=64, keep=1.0, seed=0, start=0.0)
    @example(terms=[(-1.0, -1.5)], curvature=0.0, grid_points=67, keep=None, seed=0,
             start=None)
    @example(terms=[(-1.0, -1.5)], curvature=0.0, grid_points=67, keep=0.5, seed=1,
             start=2.0)
    # the minimum off the grid, at pi - 0.3, reached by the polish
    @example(terms=[(1.0, 0.3)], curvature=0.0, grid_points=64, keep=None, seed=0,
             start=None)
    @example(terms=[(1.0, 0.3)], curvature=0.0, grid_points=64, keep=1.0, seed=0,
             start=1.0)
    def test_extras_come_from_the_evaluation_of_the_returned_point(
            self, terms, curvature, grid_points, keep, seed, start):
        # an objective returning (f, f', x, -x) gets back the extras of the
        # call that evaluated the returned x; dropping them changes nothing
        def value_and_slope(x):
            f = curvature * x * x + sum(a * math.cos((k + 1) * x + p)
                                        for k, (a, p) in enumerate(terms))
            g = 2.0 * curvature * x - sum(a * (k + 1) * math.sin((k + 1) * x + p)
                                          for k, (a, p) in enumerate(terms))
            return f, g, x, -x

        def screen(xs, level):
            above = np.array([value_and_slope(x)[0] > level for x in xs.tolist()], dtype=bool)
            return above & (rng.random(len(xs)) < keep)

        rng = np.random.default_rng(seed)
        kwargs = dict(grid_points=grid_points, start=start,
                      screen=None if keep is None else screen)
        got = scalar_minimize(value_and_slope, 0.0, 3.0, **kwargs)
        assert len(got) == 4
        assert got[2].hex() == got[0].hex() and got[3].hex() == (-got[0]).hex()
        rng = np.random.default_rng(seed)
        plain = scalar_minimize(lambda x: value_and_slope(x)[:2], 0.0, 3.0, **kwargs)
        assert [v.hex() for v in plain] == [v.hex() for v in got[:2]]

    @pytest.mark.parametrize("grid_points", [63, 10, 0, -5])
    def test_grids_below_64_points_are_refused(self, grid_points):
        from bellscope.collective import max_violation, ratio_scan
        from bellscope.symmetric import murcia

        calls = []

        def value_and_slope(x):
            calls.append(x)
            return x * x, 2.0 * x

        with pytest.raises(ValueError, match="grid_points must be at least 64"):
            numerics.prescan_grid(0.0, 1.0, grid_points)
        with pytest.raises(ValueError, match="grid_points must be at least 64"):
            scalar_minimize(value_and_slope, -1.0, 1.0, grid_points=grid_points)
        with pytest.raises(ValueError, match="grid_points must be at least 64"):
            max_violation(murcia(6), grid_points=grid_points)
        with pytest.raises(ValueError, match="grid_points must be at least 64"):
            ratio_scan(murcia, [5, 6], grid_points=grid_points)
        assert calls == []

    def test_matches_dense_grid_on_bell_objective(self):
        from bellscope.collective import _bell_slope
        from bellscope.symmetric import murcia

        expr = murcia(10)

        def objective(theta):
            return float(np.linalg.eigvalsh(bell_operator_dense(expr, theta))[0])

        def value_and_slope(theta):
            # Hellmann-Feynman slope on the eigh eigenvector
            w, v = np.linalg.eigh(bell_operator_dense(expr, theta))
            return float(w[0]), _bell_slope(expr, theta, v[:, 0])

        xs = np.linspace(0.0, math.pi, 10_000)
        fs = np.array([objective(x) for x in xs])
        i = int(np.argmin(fs))
        # parabolic vertex through the argmin neighbours: the raw grid pitch
        # (3e-4) is coarser than the agreement we are checking
        da, db = fs[i - 1] - fs[i], fs[i + 1] - fs[i]
        dense = xs[i] + 0.5 * (xs[i] - xs[i - 1]) * (da - db) / (da + db)
        x, _ = scalar_minimize(value_and_slope, 0.0, math.pi, tol=1e-6)
        assert abs(x - dense) <= 1e-4


class TestLowestEigenBanded:
    def build_banded(self, dim, bandwidth, rng):
        # lower band storage: bands[k, j] = A[k + j, j], rows zero-padded
        bands = np.zeros((bandwidth + 1, dim))
        bands[0] = rng.normal(size=dim)
        full = np.diag(bands[0])
        for k in range(1, bandwidth + 1):
            off = rng.normal(size=dim - k)
            bands[k, : dim - k] = off
            full += np.diag(off, -k) + np.diag(off, k)
        return bands, full

    def test_matches_dense(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            dim = int(rng.integers(4, 200))
            bands, full = self.build_banded(dim, 2, rng)
            lam, vec = lowest_eigen_banded(bands)
            ref = np.linalg.eigvalsh(full)[0]
            assert abs(lam - ref) <= 1e-9 * max(1.0, abs(ref))
            assert np.linalg.norm(full @ vec - lam * vec) <= 1e-8 * max(
                1.0, np.linalg.norm(full)
            )

    def test_iterative_path_agrees(self):
        rng = np.random.default_rng(4)
        dim = 2300  # beyond the dense threshold
        bands, full = self.build_banded(dim, 2, rng)
        lam, _ = lowest_eigen_banded(bands)
        ref = np.linalg.eigvalsh(full)[0]
        assert abs(lam - ref) <= 1e-6 * max(1.0, abs(ref))


def random_banded(dim, bandwidth, seed, degenerate):
    """Random symmetric band matrix: (lower band storage, dense copy).

    ``degenerate`` puts the two lowest diagonal entries 1e-7 of the norm
    apart under off-diagonal bands of 1e-16 to 1e-9, the shape of the Bell
    operator at theta = pi.
    """
    rng = np.random.default_rng(seed)
    bands = np.zeros((bandwidth + 1, dim))
    if degenerate:
        bands[0] = rng.uniform(0.0, 1.0, dim)
        i, j = rng.choice(dim, 2, replace=False)
        bands[0, i], bands[0, j] = -1.0, -1.0 + 1e-7
        off_scale = 10.0 ** rng.uniform(-16, -9)
    else:
        bands[0] = rng.normal(size=dim)
        off_scale = 1.0
    full = np.diag(bands[0])
    for k in range(1, bandwidth + 1):
        off = off_scale * rng.normal(size=dim - k)
        bands[k, : dim - k] = off
        full += np.diag(off, -k) + np.diag(off, k)
    return bands, full


class TestLowestEigenBandedContract:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.one_of(st.integers(2, INERTIA_CROSSOVER - 1),
                      st.integers(INERTIA_CROSSOVER, 600)),
        bandwidth=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
    )
    @example(dim=INERTIA_CROSSOVER - 1, bandwidth=2, seed=1, degenerate=False)
    @example(dim=INERTIA_CROSSOVER, bandwidth=2, seed=1, degenerate=False)
    @example(dim=INERTIA_CROSSOVER - 1, bandwidth=2, seed=2, degenerate=True)
    @example(dim=600, bandwidth=2, seed=2, degenerate=True)
    @example(dim=600, bandwidth=1, seed=3, degenerate=False)
    def test_matches_dense_eigvalsh(self, dim, bandwidth, seed, degenerate):
        bands, full = random_banded(dim, bandwidth, seed, degenerate)
        norm = np.max(np.abs(full).sum(axis=1))
        lam, vec = lowest_eigen_banded(bands)
        ref = np.linalg.eigvalsh(full)[0]
        assert abs(lam - ref) <= 1e-12 * norm
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        assert np.linalg.norm(full @ vec - lam * vec) <= 1e-8 * norm
        assert vec[np.argmax(np.abs(vec))] > 0

    def test_small_path_is_lapack_eig_banded(self):
        bands, _ = random_banded(INERTIA_CROSSOVER - 1, 2, 5, False)
        lam, vec = lowest_eigen_banded(bands)
        w, v = scipy.linalg.eig_banded(bands, lower=True, select="i",
                                       select_range=(0, 0))
        assert lam == w[0]
        assert np.array_equal(np.abs(vec), np.abs(v[:, 0]))

    @pytest.mark.parametrize("dim", [50, INERTIA_CROSSOVER + 200])
    def test_rejects_nan_band(self, dim):
        bands, _ = random_banded(dim, 2, 6, False)
        bands[1, dim // 2] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            lowest_eigen_banded(bands)

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError, match="2-D"):
            lowest_eigen_banded(np.ones(5))

    def test_step_cap_raises(self, monkeypatch):
        bands, _ = random_banded(INERTIA_CROSSOVER + 100, 2, 7, False)
        monkeypatch.setattr(numerics, "INERTIA_MAX_STEPS", 1)
        with pytest.raises(ArithmeticError, match="did not close"):
            lowest_eigen_banded(bands)

    @pytest.mark.parametrize("seed, degenerate", [(11, False), (12, True)])
    def test_every_inertia_factorisation_carries_the_margin(
            self, monkeypatch, seed, degenerate):
        # white box: each successful pbtrf of the inertia path factors
        # H - s I with s at least rho above the lower end lo it certifies,
        # rho = ((b + 2)(2b + 1) + 4) eps (max entry + |lo|); the first
        # factorisation is the Gershgorin start
        bands, full = random_banded(INERTIA_CROSSOVER + 50, 2, seed, degenerate)
        lam = np.linalg.eigvalsh(full)[0]
        floor, norm = gershgorin_bounds(bands)
        tol = numerics.INERTIA_RTOL * norm

        def rho(lo):
            return 24 * np.finfo(float).eps * (abs(bands.max()) + abs(lo))

        real_lapack = numerics._lapack()
        real_certify = numerics._certified_cholesky
        shifts, levels = [], []

        def pbtrf(ab, **kwargs):
            shift = float(np.median(bands[0] - ab[0]))
            factor, info = real_lapack[1](ab, **kwargs)
            shifts.append((shift, info == 0))
            return factor, info

        def certify(ab, order, level, top):
            levels.append(level)
            return real_certify(ab, order, level, top)

        monkeypatch.setattr(numerics, "_lapack",
                            lambda: (real_lapack[0], pbtrf, *real_lapack[2:]))
        monkeypatch.setattr(numerics, "_certified_cholesky", certify)
        w, _ = lowest_eigen_banded(bands)
        start = floor - 0.25 * tol
        assert shifts[0][1] and shifts[0][0] - start >= 0.9 * rho(start)
        assert len(levels) == len(shifts) and levels[0] == start
        certified = [(lo, s) for lo, (s, ok) in zip(levels, shifts) if ok]
        assert all(s - lo >= 0.9 * rho(lo) for lo, s in certified)
        lo = max(lo for lo, _ in certified)
        assert lo < lam <= w + 1e-15 * norm
        assert w - lo <= tol


_LOAD_ORDER_SCRIPT = """
import json, sys
import numpy as np
if {scipy_first}:
    import scipy.linalg
from bellscope.numerics import _lapack, lowest_eigen_banded
handles = _lapack()
linalg_loaded = "scipy.linalg" in sys.modules
import scipy.linalg
*funcs, lamch = scipy.linalg.get_lapack_funcs(("sbevx", "pbtrf", "pbtrs", "lamch"),
                                              dtype=np.float64)
bands = np.random.default_rng(5).normal(size=(3, 150))
bands[1, -1:] = bands[2, -2:] = 0.0
lam, vec = lowest_eigen_banded(bands)
w, v = scipy.linalg.eig_banded(bands, lower=True, select="i", select_range=(0, 0))
print(json.dumps({{
    "same": [h is f for h, f in zip(handles, funcs)],
    "abstol": handles[3] == 2 * lamch("s"),
    "linalg_loaded": linalg_loaded,
    "eigen_equal": bool(lam == w[0] and np.array_equal(np.abs(vec), np.abs(v[:, 0]))),
}}))
"""


class TestLapackLoading:
    @pytest.mark.parametrize("scipy_first", [False, True])
    def test_handles_are_scipy_lapack_funcs_in_either_import_order(self, scipy_first):
        proc = subprocess.run(
            [sys.executable, "-c", _LOAD_ORDER_SCRIPT.format(scipy_first=scipy_first)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "same": [True, True, True],
            "abstol": True,
            "linalg_loaded": scipy_first,
            "eigen_equal": True,
        }

    def test_missing_extension_raises_import_error(self, monkeypatch, tmp_path):
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        bands, _ = random_banded(50, 2, 8, False)
        numerics._lapack.cache_clear()
        try:
            with pytest.raises(ImportError, match=re.escape(
                    str(tmp_path / "linalg" / "_flapack"))):
                lowest_eigen_banded(bands)
        finally:
            numerics._lapack.cache_clear()


def one_block_above(bands, level):
    """``eigen_above_stacked`` on the one matrix ``bands``, which it leaves as is."""
    bands = np.asarray(bands, dtype=float)
    return bool(numerics.eigen_above_stacked(
        lambda i, j: np.array(bands, order="F"), 1, bands.shape[1], level)[0])


class TestEigenAbove:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.one_of(st.integers(2, 60), st.integers(61, 400)),
        bandwidth=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
        offset=st.floats(min_value=-1.0, max_value=1.0),
    )
    @example(dim=2, bandwidth=1, seed=0, degenerate=False, offset=0.0)
    @example(dim=300, bandwidth=2, seed=1, degenerate=True, offset=0.0)
    @example(dim=300, bandwidth=2, seed=1, degenerate=True, offset=-1e-3)
    @example(dim=50, bandwidth=2, seed=2, degenerate=False, offset=1e-3)
    def test_never_certifies_a_level_at_or_above_the_minimum(
            self, dim, bandwidth, seed, degenerate, offset):
        # levels within 1e-12 ||H|| on both sides of lambda_min
        bands, full = random_banded(dim, bandwidth, seed, degenerate)
        norm = np.max(np.abs(full).sum(axis=1))
        lam = np.linalg.eigvalsh(full)[0]
        level = lam + offset * 1e-12 * norm
        if one_block_above(bands, level):
            assert lam > level
        assert one_block_above(bands, lam - 1e-10 * norm)
        assert not one_block_above(bands, lam + 1e-10 * norm)

    def test_not_finite_is_not_certified(self):
        bands, _ = random_banded(40, 2, 8, False)
        floor, _ = gershgorin_bounds(bands)
        assert one_block_above(bands, floor - 1.0)
        for value in (np.nan, np.inf):
            bad = bands.copy()
            bad[1, 20] = value
            assert not one_block_above(bad, floor - 1.0)
            bad = bands.copy()
            bad[0, 20] = value
            assert not one_block_above(bad, floor - 1.0)
        for level in (np.nan, -np.inf, np.inf):
            assert not one_block_above(bands, level)

    def test_gershgorin_bounds(self):
        bands, full = random_banded(30, 2, 9, False)
        floor, norm = gershgorin_bounds(bands)
        assert norm == pytest.approx(np.max(np.abs(full).sum(axis=1)), rel=1e-15)
        assert floor <= np.linalg.eigvalsh(full)[0]
        d = np.diag(full)
        assert floor == pytest.approx(
            np.min(d + np.abs(d) - np.abs(full).sum(axis=1)), rel=1e-14)


#: lambda_min of a stacked block relative to the level, in units of its norm
#: (-0.5 and 0.5 are far from it; the rest lie within about 10 rho)
STACK_GAPS = (-0.5, -1e-13, 0.0, 1e-14, 1e-13, 1e-12, 0.5)


def stack_blocks(order, bandwidth, seed, gaps, level, junk):
    """Banded matrices of one order with lambda_min = level + gap * norm;
    ``junk`` fills the band slots past each block's end."""
    rng = np.random.default_rng(seed)
    blocks = []
    for i, gap in enumerate(gaps):
        inner, full = random_banded(order, min(bandwidth, order - 1), seed + i, False)
        bands = np.zeros((bandwidth + 1, order))
        bands[: len(inner)] = inner
        norm = np.max(np.abs(full).sum(axis=1))
        bands[0] += level + gap * norm - np.linalg.eigvalsh(full)[0]
        if junk:
            for k in range(1, bandwidth + 1):
                bands[k, max(order - k, 0):] = 10.0 * rng.normal(size=min(k, order))
        blocks.append(bands)
    return blocks


class TestEigenAboveStacked:
    """The stacked screen gives each block the answer of a one-block stack
    and of the one-matrix ``pbtrf`` oracle on that block alone."""

    @staticmethod
    def screen(blocks, level, rows):
        order = blocks[0].shape[1]
        stack = np.asfortranarray(np.concatenate(blocks, axis=1))
        asked = []

        def bands_of(i, j):
            asked.append((i, j))
            return stack[:, i * order: j * order].copy(order="F")

        with mock.patch.object(numerics, "SCREEN_STACK_ROWS", rows):
            got = numerics.eigen_above_stacked(bands_of, len(blocks), order, level)
        per = max(1, rows // order)
        # a level that is not finite is refused before any stack is built
        stacks = range(0, len(blocks), per) if math.isfinite(level) else ()
        assert asked == [(i, min(i + per, len(blocks))) for i in stacks]
        return got.tolist()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        order=st.integers(1, 30),
        bandwidth=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**31),
        gaps=st.lists(st.sampled_from(STACK_GAPS), min_size=1, max_size=12),
        level=st.sampled_from([0.0, -3.5, 1e3]),
        junk=st.booleans(),
        rows=st.one_of(st.integers(1, 90), st.just(numerics.SCREEN_STACK_ROWS)),
        bad=st.one_of(st.none(), st.tuples(st.integers(0, 11), st.integers(0, 89),
                                           st.sampled_from([np.nan, np.inf, -np.inf]))),
    )
    # a failing block first, in the middle, last and everywhere
    @example(order=12, bandwidth=2, seed=1, gaps=[-0.5, 0.5, 0.5, 0.5], level=0.0,
             junk=False, rows=30, bad=None)
    @example(order=12, bandwidth=2, seed=2, gaps=[0.5, 0.5, -0.5, 0.5, 0.5], level=0.0,
             junk=False, rows=30, bad=None)
    @example(order=12, bandwidth=2, seed=3, gaps=[0.5, 0.5, 0.5, -0.5], level=0.0,
             junk=True, rows=30, bad=None)
    @example(order=5, bandwidth=1, seed=4, gaps=[-0.5] * 6, level=0.0,
             junk=False, rows=2**14, bad=None)
    # order below the bandwidth: every off-diagonal slot is a coupling slot
    @example(order=1, bandwidth=2, seed=5, gaps=[0.5, -0.5, 0.5], level=-3.5,
             junk=True, rows=2, bad=None)
    # one non-finite block between certified neighbours
    @example(order=8, bandwidth=2, seed=6, gaps=[0.5, 0.5, 0.5], level=0.0,
             junk=False, rows=2**14, bad=(1, 3, np.nan))
    @example(order=8, bandwidth=2, seed=7, gaps=[0.5, 0.5, 0.5], level=0.0,
             junk=False, rows=2**14, bad=(1, 10, -np.inf))
    @example(order=8, bandwidth=1, seed=8, gaps=[0.5, 0.5, 0.5], level=0.0,
             junk=False, rows=2**14, bad=(1, 15, np.inf))
    def test_each_block_as_if_alone(self, order, bandwidth, seed, gaps, level, junk,
                                    rows, bad):
        blocks = stack_blocks(order, bandwidth, seed, gaps, level, junk)
        if bad is not None:
            i, entry, value = bad
            i %= len(blocks)
            blocks[i].reshape(-1)[entry % blocks[i].size] = value
        got = self.screen(blocks, level, rows)
        assert got == [one_block_above(b, level) for b in blocks]
        for b, certified in zip(blocks, got):
            if np.isfinite(b).all():
                assert certified == pointwise_eigen_above(b, level)
            else:
                assert not certified
        for gap, b, certified in zip(gaps, blocks, got):
            if np.isfinite(b).all() and abs(gap) == 0.5:
                assert certified == (gap > 0)

    def test_non_finite_block_leaves_its_neighbours_certified(self):
        for value in (np.nan, np.inf, -np.inf):
            for position in range(4):
                blocks = stack_blocks(10, 2, 11, [0.5] * 4, 0.0, False)
                blocks[position][0, 9] = value
                got = self.screen(blocks, 0.0, numerics.SCREEN_STACK_ROWS)
                assert got == [i != position for i in range(4)]

    def test_not_finite_level(self):
        blocks = stack_blocks(6, 2, 12, [0.5] * 3, 0.0, False)
        for level in (np.nan, np.inf, -np.inf):
            assert self.screen(blocks, level, 12) == [False] * 3


class TestSeededGenerator:
    def test_equal_seeds_equal_streams(self):
        a = seeded_generator(123)
        b = seeded_generator(123)
        assert np.array_equal(a.standard_normal(size=1000), b.standard_normal(size=1000))
        assert np.array_equal(a.integers(0, 10, size=50), b.integers(0, 10, size=50))
        za = complex_normal(a, 64)
        zb = complex_normal(b, 64)
        assert np.array_equal(za, zb)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            seeded_generator(1).standard_normal(size=100),
            seeded_generator(2).standard_normal(size=100),
        )

    def test_bit_generator_is_pcg64(self):
        assert isinstance(seeded_generator(77).bit_generator, np.random.PCG64)

    def test_stream_is_usable_for_haar_sampling(self):
        rng = seeded_generator(10)
        v = haar_vector(16, np.random.default_rng(0))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        w = complex_normal(rng, 16)
        assert w.shape == (16,) and np.iscomplexobj(w)
