import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bellscope import collective
from bellscope.collective import (
    DICKE_GUARD,
    SymmetricState,
    bell_operator_bands,
    dicke_state,
    dicke_violation,
    lmg_energies,
    max_violation,
    ratio_scan,
    symmetrized_correlators,
    theta_sweep,
)
from bellscope.numerics import lowest_eigen_banded, seeded_generator
from bellscope.symmetric import (PIBellExpression, classical_bound_symmetric,
                                 dicke_expression, murcia)

from helpers import (
    SX,
    SY,
    SZ,
    bell_operator_dense,
    dense_from_bands,
    dicke_dense,
    dicke_embedding,
    dicke_measurements,
    embed,
    full_space_bell,
)


def random_symmetric_state(n, rng):
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    amp /= np.linalg.norm(amp)
    return SymmetricState(n, amp)


def spin_operators(n):
    """Dense Jz, Jx and Jy on the Dicke basis, from the diagonal and the
    ladder that the Bell-operator bands, ``symmetrized_correlators`` and
    ``lmg_energies`` are built from."""
    jz = np.diag(collective._jz_diag(n)).astype(complex)
    jp = np.diag(collective._ladder_offdiag(n), 1).astype(complex)
    return {"jz": jz, "jx": (jp + jp.T) / 2, "jy": (jp - jp.T) / 2j}


class TestCollectiveOperators:
    def test_single_spin_is_half_pauli(self):
        ops = spin_operators(1)
        assert np.allclose(ops["jz"], SZ / 2)
        assert np.allclose(ops["jx"], SX / 2)
        assert np.allclose(ops["jy"], SY / 2)

    def test_two_spin_jz(self):
        assert np.allclose(spin_operators(2)["jz"], np.diag([1.0, 0.0, -1.0]))

    def test_ladder_and_commutators(self):
        for n in (1, 2, 5, 40, 200):
            ops = spin_operators(n)
            jx, jy, jz = ops["jx"], ops["jy"], ops["jz"]
            assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-10)
            assert np.allclose(jy @ jz - jz @ jy, 1j * jx, atol=1e-10)
            assert np.allclose(jz @ jx - jx @ jz, 1j * jy, atol=1e-10)
            casimir = jx @ jx + jy @ jy + jz @ jz
            j = n / 2.0
            assert np.allclose(casimir, j * (j + 1) * np.eye(n + 1), atol=1e-9)

    def test_matches_full_space_restriction(self):
        paulis = {"jz": SZ, "jx": SX, "jy": SY}
        for n in (2, 3, 5):
            v = dicke_embedding(n)
            ops = spin_operators(n)
            for label, pauli in paulis.items():
                full = sum(embed(pauli, i, n) for i in range(n)) / 2.0
                restricted = v.conj().T @ full @ v
                assert np.allclose(restricted, ops[label], atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="at least one spin"):
            lmg_energies(0, 1.0, 0.0)
        with pytest.raises(ValueError, match="need 4 amplitudes, got 3"):
            SymmetricState(3, np.ones(3) / math.sqrt(3))


class TestDickeStates:
    def test_one_hot_amplitudes(self):
        st = dicke_state(4, 2)
        assert st.amplitudes[2] == 1.0 and np.sum(np.abs(st.amplitudes)) == 1.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            dicke_state(3, 4)
        with pytest.raises(ValueError):
            dicke_state(3, -1)

    @pytest.mark.parametrize("n", [DICKE_GUARD + 1, 10**12])
    def test_refuses_past_the_dicke_guard_before_allocating(self, n):
        # the amplitudes of DICKE_GUARD + 1 take 16 MB, and of 10^12 more than any host holds
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="Dicke-basis guard") as info:
                dicke_state(n, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"Dicke-basis guard is n <= {DICKE_GUARD}, got {n}"
        assert peak < 2**20

    def test_embedding_matches_explicit_symmetrization(self):
        # |n, k> has k flipped spins, so total Jz is n/2 - k on its embedding
        for n, k in ((2, 1), (4, 2), (5, 3)):
            full = dicke_embedding(n) @ dicke_state(n, k).amplitudes
            assert np.allclose(full, dicke_dense(n, k))
            jz = sum(embed(SZ, i, n) for i in range(n)) / 2.0
            assert np.allclose(jz @ full, collective._jz_diag(n)[k] * full)

    def test_embedding_preserves_norm_and_overlaps(self):
        rng = seeded_generator(31)
        for n in (2, 4, 6):
            s1 = random_symmetric_state(n, rng)
            s2 = random_symmetric_state(n, rng)
            f1, f2 = dicke_embedding(n) @ s1.amplitudes, dicke_embedding(n) @ s2.amplitudes
            assert abs(np.linalg.norm(f1) - 1.0) < 1e-12
            want = np.vdot(s1.amplitudes, s2.amplitudes)
            got = np.vdot(f1, f2)
            assert abs(want - got) < 1e-12

    def test_unnormalised_rejected(self):
        with pytest.raises(ValueError):
            SymmetricState(2, np.array([1.0, 1.0, 0.0]))


class TestLmg:
    def test_sector_spectrum_inside_full_spectrum(self):
        for n in (2, 3, 4, 6):
            for lam in (0.5, 1.0):
                for h in (0.0, 0.5, 1.0):
                    hx = sum(
                        embed(SX, i, n) @ embed(SX, j, n)
                        + embed(SY, i, n) @ embed(SY, j, n)
                        for i in range(n)
                        for j in range(i + 1, n)
                    )
                    hz = sum(embed(SZ, i, n) for i in range(n))
                    full = np.linalg.eigvalsh(-(lam / n) * hx - h * hz)
                    sector, _ = lmg_energies(n, lam, h)
                    for e in sector:
                        assert np.min(np.abs(full - e)) < 1e-9

    def test_ground_is_half_filled_dicke_at_zero_field(self):
        for n in (2, 4, 10, 21):
            _, ground = lmg_energies(n, 1.0, 0.0)
            if n % 2 == 0:
                assert ground == (n // 2,)
            else:
                assert ground == ((n - 1) // 2, (n + 1) // 2)

    def test_strong_field_polarises(self):
        energies, ground = lmg_energies(6, 0.5, 50.0)
        assert ground == (0,)
        j = m = 3.0
        want = -(2 * 0.5 / 6) * (j * (j + 1) - m * m) + 0.5 - 2 * 50.0 * m
        assert energies[0] == pytest.approx(want, rel=1e-12)


class TestSymmetrizedCorrelators:
    def test_matches_full_space_oracle(self):
        rng = seeded_generator(7)
        for n in (2, 3, 5):
            state = random_symmetric_state(n, rng)
            psi = dicke_embedding(n) @ state.amplitudes
            for theta in np.linspace(0.0, 2 * math.pi, 9):
                m0 = SZ
                m1 = math.cos(theta) * SZ + math.sin(theta) * SX
                def ev(op):
                    return float(np.vdot(psi, op @ psi).real)
                s0 = sum(ev(embed(m0, i, n)) for i in range(n))
                s1 = sum(ev(embed(m1, i, n)) for i in range(n))
                s00 = s01 = s11 = 0.0
                for i in range(n):
                    for j in range(n):
                        if i == j:
                            continue
                        s00 += ev(embed(m0, i, n) @ embed(m0, j, n))
                        s01 += ev(embed(m0, i, n) @ embed(m1, j, n))
                        s11 += ev(embed(m1, i, n) @ embed(m1, j, n))
                got = symmetrized_correlators(state, theta)
                want = (s0, s1, s00, s01, s11)
                assert np.allclose(got, want, atol=1e-9), (n, theta)

    def test_polarised_state_values(self):
        # all spins up: every correlator is its classical all-plus value
        n = 5
        got = symmetrized_correlators(dicke_state(n, 0), 0.0)
        assert np.allclose(got, (n, n, n * n - n, n * n - n, n * n - n))

    def test_theta_zero_collapses_settings(self):
        rng = seeded_generator(11)
        state = random_symmetric_state(4, rng)
        c = symmetrized_correlators(state, 0.0)
        assert c.s0 == pytest.approx(c.s1, abs=1e-12)
        assert c.s00 == pytest.approx(c.s01, abs=1e-12)
        assert c.s00 == pytest.approx(c.s11, abs=1e-12)


class TestBellOperator:
    def test_zero_expression(self):
        expr = PIBellExpression(n=4, alpha=0, beta=0, gamma=0, delta=0, epsilon=0)
        assert not bell_operator_bands(expr, 1.1).any()

    def test_dense_matches_measurement_pair_build(self):
        rng = seeded_generator(17)
        for trial in range(10):
            n = int(rng.integers(2, 9))
            coeffs = [int(v) for v in rng.integers(-3, 4, size=5)]
            expr = PIBellExpression(
                n=n, alpha=coeffs[0], beta=coeffs[1], gamma=coeffs[2],
                delta=coeffs[3], epsilon=coeffs[4],
            )
            theta = float(rng.uniform(0, 2 * math.pi))
            a, b = dicke_measurements(n, theta)
            eye = np.eye(n + 1)
            want = (
                coeffs[0] * a + coeffs[1] * b
                + coeffs[2] / 2 * (a @ a - n * eye)
                + coeffs[3] * ((a @ b + b @ a) / 2 - n * math.cos(theta) * eye)
                + coeffs[4] / 2 * (b @ b - n * eye)
            )
            got = dense_from_bands(bell_operator_bands(expr, theta))
            assert np.allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("build", [
        lambda n: bell_operator_bands(murcia(n), 0.3),
        lambda n: theta_sweep(murcia(n), [0.3]),
        lambda n: max_violation(murcia(n)),
        lambda n: lmg_energies(n, 1.0, 0.0),
    ], ids=["bell_operator_bands", "theta_sweep", "max_violation", "lmg_energies"])
    def test_dense_builders_refuse_past_the_guard_before_allocating(self, build):
        # each builds Dicke-basis arrays; the cached band terms alone take
        # 150 MB just past the guard
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                build(DICKE_GUARD + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (f"Dicke-basis guard is n <= {DICKE_GUARD}, "
                                   f"got {DICKE_GUARD + 1}")
        assert peak < 2**20

    @pytest.mark.parametrize("n", range(1, 41))
    def test_dense_builders_place_every_entry_of_the_dicke_ladder(self, n):
        """The Dicke-basis diagonal and ladder, bitwise, against entries
        placed here one at a time from <k|Jz|k> = n/2 - k and
        <k-1|J+|k> = sqrt(k (n - k + 1)); and every entry of the Bell
        operator's bands against the measurement operators placed the same
        way."""
        jz = np.array([n / 2 - k for k in range(n + 1)])
        ladder = np.array([math.sqrt(k * (n - k + 1)) for k in range(1, n + 1)])
        for got, want in ((collective._jz_diag(n), jz), (collective._ladder_offdiag(n), ladder)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

        exprs = [PIBellExpression(n=n, alpha=1, beta=-2, gamma=3, delta=-1, epsilon=2),
                 murcia(n)] if n >= 2 else []
        eye = np.eye(n + 1)
        for theta in (0.0, 0.3, math.pi / 2, 2.0, math.pi, 4.7, 6.2):
            a, b = dicke_measurements(n, theta)
            for expr in exprs:
                al, be, ga, de, ep = (float(v) for v in expr.coefficients())
                want = (al * a + be * b + ga / 2 * (a @ a - n * eye)
                        + de * ((a @ b + b @ a) / 2 - n * math.cos(theta) * eye)
                        + ep / 2 * (b @ b - n * eye))
                got = dense_from_bands(bell_operator_bands(expr, theta))
                assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max()), (
                    expr.name, theta)

    def test_expectation_consistent_with_correlators(self):
        rng = seeded_generator(19)
        for n in (3, 6):
            expr = dicke_expression(n)
            state = random_symmetric_state(n, rng)
            for theta in (0.4, 1.9):
                op = bell_operator_dense(expr, theta)
                direct = float(
                    np.vdot(state.amplitudes, op @ state.amplitudes).real
                )
                via_corr = expr.value_float(symmetrized_correlators(state, theta))
                assert direct == pytest.approx(via_corr, abs=1e-9)

    def test_sector_minimum_equals_full_space_minimum(self):
        for n in (2, 3, 4, 6):
            expr = murcia(n)
            for theta in (0.7, 2.0, 2.9):
                full = np.linalg.eigvalsh(full_space_bell(expr, theta))[0]
                sector = np.linalg.eigvalsh(bell_operator_dense(expr, theta))[0]
                assert sector == pytest.approx(full, abs=1e-9)

    def test_restriction_of_full_operator(self):
        for n in (2, 4):
            expr = dicke_expression(n)
            v = dicke_embedding(n)
            for theta in (0.9, 2.4):
                full = full_space_bell(expr, theta)
                assert np.allclose(
                    v.conj().T @ full @ v, bell_operator_dense(expr, theta), atol=1e-10
                )

    def test_band_storage_agrees_with_dense(self):
        expr = murcia(30)
        for theta in (0.3, 1.6, 3.0):
            bands = bell_operator_bands(expr, theta)
            w_band, _ = lowest_eigen_banded(bands)
            w_dense = np.linalg.eigvalsh(bell_operator_dense(expr, theta))[0]
            assert w_band == pytest.approx(w_dense, abs=1e-9)

    def test_mirror_angle_preserves_spectrum(self):
        expr = dicke_expression(7)
        for theta in (0.5, 1.2, 2.8):
            w1 = np.linalg.eigvalsh(bell_operator_dense(expr, theta))
            w2 = np.linalg.eigvalsh(bell_operator_dense(expr, 2 * math.pi - theta))
            assert np.allclose(w1, w2, atol=1e-10)


class TestMaxViolation:
    def test_murcia_small_sizes_do_not_violate(self):
        # lambda_min = -2n exactly here, so any reported excess is solver noise
        for n in (2, 3, 4):
            mv = max_violation(murcia(n))
            assert mv.violation <= 1e-10
            assert mv.quantum_value >= -2 * n - 1e-10

    def test_murcia_first_violation_and_growth(self):
        values = {}
        for n in (5, 6, 7, 8):
            mv = max_violation(murcia(n))
            assert mv.violation > 0.0
            values[n] = mv.violation
        assert values[5] == pytest.approx(0.151463723, abs=1e-6)
        assert values[6] > values[5]

    def test_matches_dense_diagonalisation(self):
        expr = murcia(10)
        mv = max_violation(expr)
        w = np.linalg.eigvalsh(bell_operator_dense(expr, mv.theta))
        assert mv.quantum_value == pytest.approx(w[0], abs=1e-9)
        assert mv.violation == pytest.approx(1.105534, abs=1e-5)

    def test_reported_state_is_the_ground_state(self):
        expr = murcia(12)
        mv = max_violation(expr)
        op = bell_operator_dense(expr, mv.theta)
        val = float(np.vdot(mv.state.amplitudes, op @ mv.state.amplitudes).real)
        assert val == pytest.approx(mv.quantum_value, abs=1e-8)

    def test_product_states_never_violate(self):
        # polarised (product) states must respect every classical bound
        for n in (4, 7):
            expr = murcia(n)
            for k in (0, n):
                state = dicke_state(n, k)
                for theta in np.linspace(0, math.pi, 40):
                    v = expr.value_float(symmetrized_correlators(state, theta))
                    assert v >= -2 * n - 1e-9

    def test_missing_bound_rejected(self):
        expr = PIBellExpression(n=4, alpha=0, beta=0, gamma=1, delta=0, epsilon=1)
        with pytest.raises(ValueError, match="bound") as info:
            max_violation(expr)
        # the record is immutable, so the refusal says how to build one with a bound
        assert "build it with bound=" in str(info.value)
        assert "classical_bound_symmetric(expr)[0]" in str(info.value)
        mv = max_violation(expr._replace(bound=classical_bound_symmetric(expr)[0]))
        assert mv.bound == 4.0 and mv.violation <= 1e-9

    def test_large_n_banded_path(self):
        mv = max_violation(murcia(800), grid_points=64)
        assert mv.violation > 0.0
        assert 0.0 <= mv.theta <= math.pi


class TestDickeViolation:
    def test_even_sizes_violate(self):
        for n in (4, 6, 12):
            dv = dicke_violation(n)
            assert dv.violated
            assert dv.quantum_value < -dv.bound

    def test_violation_magnitude_closed_form(self):
        # best violation of the half-filled Dicke state is n/(n+2); relative
        # to the quantum value, since the violation is a difference of two
        # numbers of size beta_C and keeps only their absolute rounding
        for n in range(2, 101, 2):
            dv = dicke_violation(n)
            assert dv.quantum_value == pytest.approx(-(dv.bound + n / (n + 2)), rel=1e-12)

    def test_violation_is_exact(self):
        for n in range(2, 401, 2):
            assert dicke_violation(n).violation == Fraction(n, n + 2)
        for n in range(3, 402, 2):
            dv = dicke_violation(n)
            assert dv.violation == 0 and not dv.violated

    def test_never_above_a_dense_grid(self):
        # I(theta) is the Bell operator's diagonal entry at k = n // 2
        grid = np.linspace(0.0, math.pi, 4096)
        for n in range(2, 61):
            expr = dicke_expression(n)
            dense = min(bell_operator_bands(expr, t)[0, n // 2] for t in grid)
            assert dicke_violation(n).quantum_value <= dense

    def test_aligned_measurements_only_saturate(self):
        for n in (4, 8):
            expr = dicke_expression(n)
            state = dicke_state(n, n // 2)
            v = expr.value_float(symmetrized_correlators(state, 0.0))
            assert v == pytest.approx(-float(expr.bound), abs=1e-9)

    def test_agrees_with_full_space(self):
        n = 4
        dv = dicke_violation(n)
        expr = dicke_expression(n)
        psi = dicke_dense(n, n // 2)
        full = full_space_bell(expr, dv.theta)
        want = float(np.vdot(psi, full @ psi).real)
        assert dv.quantum_value == pytest.approx(want, abs=1e-9)


class TestScans:
    def test_ratio_scan_consistent_with_pointwise(self):
        # each result is bitwise that of an independent call; the warm start
        # moves only the split of evals and screened
        results = ratio_scan(murcia, [6, 10, 8])
        assert [mv.state.n for mv in results] == [6, 8, 10]
        assert all(mv.violation > 0 for mv in results)  # so n = 8 and 10 start warm
        for got in results:
            want = max_violation(murcia(got.state.n))
            for field in ("theta", "quantum_value", "violation", "bound"):
                assert getattr(got, field).hex() == getattr(want, field).hex(), field
            assert got.state.amplitudes.tobytes() == want.state.amplitudes.tobytes()

    def test_theta_sweep_values_and_continuity(self):
        expr = murcia(20)
        thetas = np.arange(0.0, math.pi, 1e-2)
        vals = np.array(theta_sweep(expr, thetas))
        assert vals.shape == thetas.shape
        # lowest eigenvalue is continuous in theta; crude Lipschitz check
        assert np.max(np.abs(np.diff(vals))) < 0.05 * 2 * 20
        best = vals.min()
        mv = max_violation(expr)
        assert best >= mv.quantum_value - 1e-6
        flagged = vals < -float(expr.bound) - 1e-9
        assert flagged.any() and not flagged.all()

    def test_degenerate_sweep_endpoint_at_large_n(self):
        # at theta = pi the two lowest levels, -5000 and -4996, are 3e-7 of
        # the operator norm apart
        (value,) = theta_sweep(murcia(2500), [math.pi])
        assert value == pytest.approx(-5000.0, rel=1e-9)

    def test_sweep_rows_match_dense_eigenvalues(self):
        expr = dicke_expression(5)
        thetas = [0.5, 1.5, 2.5]
        for theta, value in zip(thetas, theta_sweep(expr, thetas), strict=True):
            w = np.linalg.eigvalsh(bell_operator_dense(expr, theta))[0]
            assert value == pytest.approx(w, abs=1e-9)

    def test_sweep_needs_no_bound(self):
        expr = PIBellExpression(n=5, alpha=1, beta=-2, gamma=3, delta=-1, epsilon=2)
        assert expr.bound is None
        (value,) = theta_sweep(expr, [0.7])
        assert value == pytest.approx(np.linalg.eigvalsh(bell_operator_dense(expr, 0.7))[0], abs=1e-9)
