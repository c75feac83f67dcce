import argparse
import json
import math

import numpy as np
import pytest

from bellscope import cli, quantum
from bellscope.numerics import seeded_generator
from bellscope.quantum import (
    DensityOperator,
    StateVector,
    haar_state,
    log_negativity,
    max_entangled,
    negativity,
    page_experiment,
    partial_transpose,
    ppt_report,
    renyi_entropy,
    schmidt_decompose,
    state_from_json,
    state_to_json,
)

from helpers import (
    entropy_of_matrix,
    haar_vector,
    page_oracle,
    partial_trace_loops,
    pure_density,
    random_rank_r_state,
)


class TestValidation:
    def test_state_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector(dims=(2,), amplitudes=[1.0, 1.0])

    def test_density_trace_enforced(self):
        with pytest.raises(ValueError):
            DensityOperator(dims=(2,), matrix=np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        bad = np.diag([1.5, -0.5])
        with pytest.raises(ValueError):
            DensityOperator(dims=(2,), matrix=bad)

    def test_density_clips_roundoff_negatives(self):
        eps = 5e-11
        rho = DensityOperator(dims=(2,), matrix=np.diag([1.0 + eps, -eps]))
        w = np.linalg.eigvalsh(rho.matrix)
        assert w.min() >= -1e-15 and abs(np.trace(rho.matrix) - 1.0) < 1e-12


class TestMaxEntangled:
    def test_d2_amplitudes(self):
        psi = max_entangled(2)
        assert np.allclose(psi.amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2))

    def test_d3_support(self):
        psi = max_entangled(3)
        amp = np.asarray(psi.amplitudes).reshape(3, 3)
        assert np.allclose(np.diag(amp), 1 / math.sqrt(3))
        assert np.count_nonzero(amp) == 3

    def test_entropy_is_log_d(self):
        for d in (2, 3, 4):
            amp = max_entangled(d).amplitudes
            rho_a = partial_trace_loops(np.outer(amp, amp.conj()), d, d, "A")
            entropy = renyi_entropy(DensityOperator(dims=(d,), matrix=rho_a), 1)
            assert abs(entropy - math.log2(d)) < 1e-10

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            max_entangled(1)


class TestSchmidt:
    def test_product_state(self):
        psi = StateVector(dims=(2, 2), amplitudes=[1, 0, 0, 0])
        data = schmidt_decompose(psi)
        assert data.rank == 1
        assert np.allclose(data.coefficients, [1.0])

    def test_maximally_entangled_d3(self):
        data = schmidt_decompose(max_entangled(3))
        assert data.rank == 3
        assert np.allclose(data.coefficients, 1 / math.sqrt(3))

    def test_reconstruction_and_reduced_spectra(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            psi = StateVector(dims=(2, 3), amplitudes=haar_vector(6, rng))
            data = schmidt_decompose(psi)
            rebuilt = sum(
                lam * np.kron(data.left[:, i], data.right[:, i])
                for i, lam in enumerate(data.coefficients)
            )
            assert np.linalg.norm(rebuilt - np.asarray(psi.amplitudes)) < 1e-9
            rho = np.outer(psi.amplitudes, np.conj(psi.amplitudes))
            for side, dim in (("A", 2), ("B", 3)):
                red = partial_trace_loops(rho, 2, 3, side)
                w = np.sort(np.linalg.eigvalsh(red))[::
                    -1][: data.rank]
                assert np.allclose(w, data.coefficients**2, atol=1e-9)

    def test_reconstruction_and_isometries(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            r = int(rng.integers(1, 65))
            c = int(rng.integers(1, 65))
            m = rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
            m /= np.linalg.norm(m)
            data = schmidt_decompose(StateVector(dims=(r, c), amplitudes=m.reshape(-1)))
            u, s, v = data.left, data.coefficients, data.right
            assert data.rank == s.size == min(r, c)
            assert np.linalg.norm(m - (u * s) @ v.T) <= 1e-9
            k = s.size
            assert np.linalg.norm(u.conj().T @ u - np.eye(k)) <= 1e-9
            assert np.linalg.norm(v.conj().T @ v - np.eye(k)) <= 1e-9
            assert np.all(np.diff(s) <= 1e-12) and np.all(s >= -1e-15)

    def test_rank_and_separability(self):
        # a pure state is separable across the cut iff its Schmidt rank is 1
        zero_one = StateVector(dims=(2, 2), amplitudes=[0, 1, 0, 0])
        assert schmidt_decompose(zero_one).rank == 1
        assert schmidt_decompose(max_entangled(2)).rank == 2
        plus = StateVector(dims=(2, 2), amplitudes=np.array([1, 1, 0, 0]) / math.sqrt(2))
        assert schmidt_decompose(plus).rank == 1
        # Schmidt coefficients proportional to (1, 1e-12): the second lies
        # below the relative cutoff 1e-10
        amp = np.array([1.0, 0.0, 0.0, 1e-12])
        psi = StateVector(dims=(2, 2), amplitudes=amp / np.linalg.norm(amp))
        data = schmidt_decompose(psi)
        assert data.rank == 1 and data.coefficients.shape == (1,)

    def test_dimension_mismatch(self):
        # the measures cut a state into exactly two factors
        three = StateVector(dims=(2, 2, 2), amplitudes=np.eye(8)[0])
        with pytest.raises(ValueError, match="two factors"):
            schmidt_decompose(three)


class TestPartialTranspose:
    def test_involution(self):
        # swapping A's ket and bra axes of the transpose's (2, 3, 2, 3)
        # reshape transposes A again, which restores rho
        rng = np.random.default_rng(14)
        v = haar_vector(6, rng)
        rho = pure_density(v, (2, 3))
        pt = partial_transpose(rho, "A").reshape(2, 3, 2, 3)
        assert np.allclose(pt.swapaxes(0, 2).reshape(6, 6), rho.matrix, atol=1e-14)

    @pytest.mark.parametrize("side", [0, 1, "C"])
    def test_side_must_be_a_or_b(self, side):
        with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
            partial_transpose(max_entangled(2), side)

    def test_bell_state_spectrum(self):
        rho = pure_density(max_entangled(2).amplitudes, (2, 2))
        w = np.sort(np.linalg.eigvalsh(partial_transpose(rho, "B")))
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(15)
        v = haar_vector(9, rng)
        rho = pure_density(v, (3, 3))
        pt = partial_transpose(rho, "A")
        assert abs(np.trace(pt) - 1.0) < 1e-12
        assert np.linalg.norm(pt - pt.conj().T) < 1e-12

    def test_global_transpose_leaves_spectrum(self):
        rng = np.random.default_rng(16)
        v = haar_vector(6, rng)
        rho = pure_density(v, (2, 3))
        wa = np.linalg.eigvalsh(partial_transpose(rho, "A"))
        wb = np.linalg.eigvalsh(partial_transpose(rho, "B"))
        assert np.allclose(np.sort(wa), np.sort(wb), atol=1e-10)

    def test_separable_mixture_stays_psd(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            terms = []
            weights = rng.dirichlet(np.ones(4))
            for w in weights:
                a = haar_vector(2, rng)
                b = haar_vector(2, rng)
                terms.append(w * np.outer(np.kron(a, b), np.kron(a, b).conj()))
            rho = DensityOperator(dims=(2, 2), matrix=sum(terms))
            w_min = np.linalg.eigvalsh(partial_transpose(rho, "B")).min()
            assert w_min >= -1e-10


class TestPptReport:
    def test_negative_count_formula_for_pure_states(self):
        rng = np.random.default_rng(18)
        for r in (2, 3, 4):
            for trial in range(10):
                psi = random_rank_r_state(4, 4, r, rng)
                rho = pure_density(psi.amplitudes, (4, 4))
                rep = ppt_report(rho)
                assert rep.negative_count == r * (r - 1) // 2
                assert rep.entangled

    def test_maximally_mixed_passes(self):
        rho = DensityOperator(dims=(2, 2), matrix=np.eye(4) / 4)
        rep = ppt_report(rho)
        assert rep.negative_count == 0
        assert not rep.entangled


class TestNegativity:
    def test_separable_gives_zero(self):
        rng = np.random.default_rng(19)
        a = haar_vector(2, rng)
        b = haar_vector(2, rng)
        rho = pure_density(np.kron(a, b), (2, 2))
        assert negativity(rho) < 1e-12
        assert log_negativity(rho) < 1e-10

    def test_no_negative_eigenvalue_gives_positive_zero(self):
        # -(empty sum) was -0.0, which the CLI printed as "-0"
        product = StateVector(dims=(2, 2), amplitudes=np.array([1.0, 0.0, 0.0, 0.0]))
        for state in (product, DensityOperator(dims=(2, 2), matrix=np.eye(4) / 4)):
            assert negativity(state) == 0.0
            assert math.copysign(1.0, negativity(state)) == 1.0

    def test_bell_state_values(self):
        rho = pure_density(max_entangled(2).amplitudes, (2, 2))
        assert abs(negativity(rho) - 0.5) < 1e-12
        assert abs(log_negativity(rho) - 1.0) < 1e-12

    def test_log_negativity_bounds_entropy_for_pure_states(self):
        rng = np.random.default_rng(20)
        for trial in range(50):
            v = haar_vector(9, rng)
            rho = pure_density(v, (3, 3))
            entropy = entropy_of_matrix(partial_trace_loops(rho.matrix, 3, 3, "A"))
            assert log_negativity(rho) >= entropy - 1e-9


class TestEntropies:
    def test_pure_state_zero(self):
        rho = pure_density([1, 0], (2,))
        assert abs(renyi_entropy(rho, 1)) < 1e-12

    def test_maximally_mixed(self):
        for d, base in ((2, 2.0), (3, math.e), (4, 2.0)):
            rho = DensityOperator(dims=(d,), matrix=np.eye(d) / d)
            assert abs(renyi_entropy(rho, 1, base=base) - math.log(d) / math.log(base)) < 1e-10

    def test_renyi_special_orders(self):
        rho = DensityOperator(dims=(4,), matrix=np.diag([0.5, 0.3, 0.2, 0.0]))
        assert abs(renyi_entropy(rho, 0) - math.log2(3)) < 1e-9
        assert abs(renyi_entropy(rho, 1) - entropy_of_matrix(rho.matrix)) < 1e-12
        assert abs(renyi_entropy(rho, math.inf) + math.log2(0.5)) < 1e-12

    @pytest.mark.parametrize("alpha", [1, 0.5, 2])
    def test_nan_probabilities_give_nan_not_zero(self, alpha):
        # an overflowed Boltzmann weight is NaN; counting it as 0 used to
        # turn it into a plausible entropy
        p = np.array([0.5, np.nan, 0.5])
        assert math.isnan(quantum._entropy_of_probs(p, 2, alpha))
        rows = np.array([[0.25, 0.75, 0.0], [np.nan, 0.5, 0.5]])
        h = quantum._entropy_of_probs(rows, 2, alpha)
        assert h[0] == quantum._entropy_of_probs(rows[0], 2, alpha) and math.isnan(h[1])

    def test_entries_at_or_below_zero_still_count_as_zero(self):
        p = np.array([0.5, -0.0, 0.25, -1e-17, 0.25])
        assert quantum._entropy_of_probs(p, 2) == 1.5

    def test_renyi_monotone_in_alpha(self):
        rng = np.random.default_rng(21)
        alphas = [0.0, 0.3, 0.7, 1.0, 1.5, 2.0, 5.0, math.inf]
        for trial in range(50):
            p = rng.dirichlet(np.ones(5))
            rho = DensityOperator(dims=(5,), matrix=np.diag(p))
            values = [renyi_entropy(rho, a) for a in alphas]
            assert all(x >= y - 1e-9 for x, y in zip(values, values[1:]))

    def test_renyi_below_1_ignores_rounding_level_eigenvalues(self):
        # a pure density's 15 zero eigenvalues come out near 1e-17, which
        # p**0.1 would lift to about 0.02 each
        rho = pure_density(haar_state(2, 16, seeded_generator(1)).amplitudes, (2, 16))
        for alpha in (0.0, 0.1, 0.5):
            assert abs(renyi_entropy(rho, alpha)) < 1e-12
        p = np.random.default_rng(24).dirichlet(np.ones(6))
        full = DensityOperator(dims=(6,), matrix=np.diag(p))
        for alpha in (0.1, 0.5, 2.0):
            want = math.log2((p**alpha).sum()) / (1.0 - alpha)
            assert abs(renyi_entropy(full, alpha) - want) < 1e-12

    def test_rejects_negative_alpha(self):
        rho = DensityOperator(dims=(2,), matrix=np.eye(2) / 2)
        with pytest.raises(ValueError):
            renyi_entropy(rho, -0.5)

    def test_rejects_nan_alpha_and_keeps_the_min_entropy(self):
        rho = DensityOperator(dims=(2,), matrix=np.diag([0.75, 0.25]))
        with pytest.raises(ValueError, match="alpha must be nonnegative, got nan"):
            renyi_entropy(rho, math.nan)
        assert renyi_entropy(rho, math.inf) == pytest.approx(-math.log2(0.75), abs=1e-12)

    def test_additive_on_products(self):
        rng = np.random.default_rng(22)
        pa = rng.dirichlet(np.ones(3))
        pb = rng.dirichlet(np.ones(2))
        rho = DensityOperator(dims=(3, 2), matrix=np.diag(np.kron(pa, pb)))
        sa = entropy_of_matrix(np.diag(pa))
        sb = entropy_of_matrix(np.diag(pb))
        assert abs(renyi_entropy(rho, 1) - sa - sb) < 1e-9

    def test_entanglement_entropy_sides_agree(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            v = haar_vector(8, rng)
            rho = np.outer(v, v.conj())
            rho_a = partial_trace_loops(rho, 2, 4, "A")
            sa = entropy_of_matrix(rho_a)
            sb = entropy_of_matrix(partial_trace_loops(rho, 2, 4, "B"))
            e = renyi_entropy(DensityOperator(dims=(2,), matrix=rho_a), 1)
            assert abs(sa - sb) < 1e-9
            assert abs(e - sa) < 1e-9


def mutual_information(rho):
    """S(A) + S(B) - S(AB) in bits of a two-factor DensityOperator, each
    entropy by ``renyi_entropy(., 1)`` and each reduced state by the loop
    partial trace."""
    da, db = rho.dims
    reduced = [DensityOperator(dims=(d,), matrix=partial_trace_loops(rho.matrix, da, db, side))
               for d, side in ((da, "A"), (db, "B"))]
    return sum(renyi_entropy(r, 1) for r in reduced) - renyi_entropy(rho, 1)


class TestMutualInformation:
    def test_product_zero(self):
        rng = np.random.default_rng(24)
        a = haar_vector(2, rng)
        b = haar_vector(2, rng)
        rho = pure_density(np.kron(a, b), (2, 2))
        assert abs(mutual_information(rho)) < 1e-10

    def test_pure_state_doubles_entanglement(self):
        rho = pure_density(max_entangled(2).amplitudes, (2, 2))
        assert abs(mutual_information(rho) - 2.0) < 1e-10
        rng = np.random.default_rng(25)
        v = haar_vector(6, rng)
        rho = pure_density(v, (2, 3))
        entropy = entropy_of_matrix(partial_trace_loops(rho.matrix, 2, 3, "A"))
        assert abs(mutual_information(rho) - 2 * entropy) < 1e-9

    def test_classically_correlated_pair(self):
        m = np.zeros((4, 4))
        m[0, 0] = m[3, 3] = 0.5
        rho = DensityOperator(dims=(2, 2), matrix=m)
        assert abs(mutual_information(rho) - 1.0) < 1e-12


class TestHaarSampling:
    def test_normalized(self, monkeypatch):
        rng = seeded_generator(31)
        psi = haar_state(2, 5, rng)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

        # page blocks (here of 2 and 1 samples) and `mps --random` draw the
        # states that successive haar_state calls give, bit for bit
        rng = seeded_generator(31)
        singles = [haar_state(2, 4, rng).amplitudes for _ in range(3)]
        blocks = []
        haar_rows = quantum._haar_rows

        def spy(k, size, rng):
            blocks.append(haar_rows(k, size, rng))
            return blocks[-1]

        monkeypatch.setattr(quantum, "_haar_rows", spy)
        monkeypatch.setattr(quantum, "PAGE_BLOCK_AMPLITUDES", 16)
        page_experiment(2, 4, 3, seeded_generator(31))
        assert [len(b) for b in blocks] == [2, 1]
        assert np.array_equal(np.concatenate(blocks), singles)
        args = argparse.Namespace(local_dim=None, state=None, random=3, seed=31)
        amp, d = cli._mps_input_state(args)
        assert d == 2 and np.array_equal(amp, singles[0])

    def test_mean_amplitude_vanishes(self):
        rng = seeded_generator(32)
        total = np.zeros(4, dtype=complex)
        samples = 10_000
        for _ in range(samples):
            total += np.asarray(haar_state(2, 2, rng).amplitudes)
        mean = total / samples
        # amplitudes are approximately uniform on the sphere: per-component
        # std is 1/sqrt(d * samples)
        sigma = 1.0 / math.sqrt(4 * samples)
        assert np.all(np.abs(mean) < 3 * 2 * sigma)

    def test_local_unitary_invariance_of_entropy_statistics(self):
        rng = np.random.default_rng(33)
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        src_a = seeded_generator(34)
        src_b = seeded_generator(34)
        plain, rotated = [], []

        def entropy(amp):
            return entropy_of_matrix(partial_trace_loops(np.outer(amp, amp.conj()), 2, 4, "A"))

        for _ in range(400):
            plain.append(entropy(haar_state(2, 4, src_a).amplitudes))
            rotated.append(entropy(np.kron(u, np.eye(4)) @ haar_state(2, 4, src_b).amplitudes))
        plain, rotated = np.array(plain), np.array(rotated)
        pooled = math.sqrt(plain.var(ddof=1) / plain.size + rotated.var(ddof=1) / rotated.size)
        assert abs(plain.mean() - rotated.mean()) < 4 * pooled


class TestPageExperiment:
    def test_m1_gives_zero_entropy(self):
        mean, se, purity = page_experiment(1, 4, 120, seeded_generator(41))
        assert mean == 0.0 and abs(purity - 1.0) < 1e-12

    def test_rejects_m_bigger_than_n(self):
        with pytest.raises(ValueError):
            page_experiment(4, 2, 100, seeded_generator(42))

    def test_small_case_purity_is_finite_size_biased(self):
        # at (2,2) the asymptotic purity estimate (m+n)/(mn) = 1 overshoots;
        # the exact ensemble purity is (m+n)/(mn+1) = 0.8
        mean, se, purity = page_experiment(2, 2, 4000, seeded_generator(43))
        assert abs(purity - 0.8) < 0.02
        assert purity < 1.0

    def test_reproducible(self):
        a = page_experiment(2, 8, 200, seeded_generator(44))
        b = page_experiment(2, 8, 200, seeded_generator(44))
        assert a == b

    def test_tracks_exact_ensemble_mean(self):
        exact = sum(1.0 / k for k in range(9, 17)) - 1.0 / 16
        mean, se, _ = page_experiment(2, 8, 3000, seeded_generator(45))
        assert abs(mean - exact) < 4 * se


class TestPageBlocks:
    """The blocked sampler against the per-sample loop, across block edges."""

    SHAPES = [(1, 1), (1, 16), (2, 3), (2, 16), (3, 5), (3, 16)]

    @staticmethod
    def assert_matches_oracle(m, n, samples, seed):
        got = page_experiment(m, n, samples, seeded_generator(seed))
        want = page_oracle(m, n, samples, seeded_generator(seed))
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_counts_around_block_edges(self, monkeypatch, m, n):
        # blocks of 5 samples, from a constant one amplitude short of 6 samples
        monkeypatch.setattr(quantum, "PAGE_BLOCK_AMPLITUDES", 6 * m * n - 1)
        block = 5
        for samples in (1, 2, block - 1, block, block + 1, 3 * block + 7):
            self.assert_matches_oracle(m, n, samples, seed=100 * m + n + samples)

    def test_one_past_a_full_block(self):
        block = quantum.PAGE_BLOCK_AMPLITUDES // (3 * 16)
        self.assert_matches_oracle(3, 16, block + 1, seed=61)

    def test_draws_at_most_the_block_size(self):
        class Recording(np.random.Generator):
            def standard_normal(self, size=None):
                sizes.append(size)
                return super().standard_normal(size)

        sizes = []
        block = quantum.PAGE_BLOCK_AMPLITUDES // (3 * 16)
        page_experiment(3, 16, 3 * block + 7, Recording(seeded_generator(62).bit_generator))
        assert sizes == [(block, 2, 48)] * 3 + [(7, 2, 48)]
        assert block * 48 <= 2**20


class TestJsonRoundTrip:
    def test_state_vector(self):
        psi = max_entangled(3)
        doc = json.loads(json.dumps(state_to_json(psi)))
        back = state_from_json(doc)
        assert isinstance(back, StateVector)
        assert tuple(back.dims) == (3, 3)
        assert np.allclose(back.amplitudes, psi.amplitudes)

    def test_density_operator(self):
        rho = DensityOperator(dims=(2, 2), matrix=np.eye(4) / 4)
        doc = json.loads(json.dumps(state_to_json(rho)))
        back = state_from_json(doc)
        assert isinstance(back, DensityOperator)
        assert np.allclose(back.matrix, rho.matrix)
