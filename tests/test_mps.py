import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellscope.chains import block_entropy_curve
from bellscope.mps import (
    MpsState,
    canonical_residuals,
    cut_spectra,
    mps_from_dense,
    mps_to_dense,
    renyi_tail_bound,
    truncate,
    truncation_bound,
)
from bellscope.numerics import seeded_generator
from bellscope.quantum import StateVector

from helpers import (
    entropy_of_matrix,
    haar_vector,
    partial_trace_loops,
    plain_svd_cut_spectra,
    projection_truncation_error,
    shannon,
    two_sweep_truncate,
)


def ghz(n):
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1 / math.sqrt(2)
    return amp


def product_state(n, rng):
    amp = np.array([1.0], dtype=complex)
    for _ in range(n):
        amp = np.kron(amp, haar_vector(2, rng))
    return amp


class TestConstruction:
    def test_product_state_has_trivial_bonds(self):
        rng = seeded_generator(1)
        mps = mps_from_dense(product_state(5, rng))
        assert mps.bond_dimensions == (1, 1, 1, 1)
        assert all(lam.shape == (1,) for lam in mps.lambdas)

    def test_ghz_bonds_and_spectra(self):
        mps = mps_from_dense(ghz(6))
        assert mps.bond_dimensions == (2, 2, 2, 2, 2)
        for lam in mps.lambdas:
            assert np.allclose(np.sort(lam), [0.5, 0.5])

    def test_round_trip_exact(self):
        rng = seeded_generator(2)
        for n in (2, 4, 6):
            amp = haar_vector(2**n, rng)
            back = mps_to_dense(mps_from_dense(amp))
            fidelity = abs(np.vdot(amp, back))
            assert fidelity >= 1 - 1e-10

    def test_round_trip_with_ample_cap(self):
        rng = seeded_generator(3)
        amp = haar_vector(2**6, rng)
        back = mps_to_dense(mps_from_dense(amp, dmax=8))
        assert abs(np.vdot(amp, back)) >= 1 - 1e-10

    def test_accepts_state_vector_and_qutrits(self):
        rng = seeded_generator(4)
        amp = haar_vector(3**3, rng)
        mps = mps_from_dense(StateVector((3, 3, 3), amp))
        assert mps.local_dim == 3
        assert abs(np.vdot(amp, mps_to_dense(mps))) >= 1 - 1e-10

    def test_lambda_equals_cut_density_spectrum(self):
        rng = seeded_generator(5)
        amp = haar_vector(2**5, rng)
        mps = mps_from_dense(amp)
        for k, lam in enumerate(mps.lambdas, start=1):
            da = 2**k
            rho = partial_trace_loops(np.outer(amp, amp.conj()), da, 2**5 // da, "A")
            w = np.sort(np.linalg.eigvalsh(rho))[::-1][: lam.size]
            assert np.allclose(np.sort(lam)[::-1], w, atol=1e-9)

    def test_bond_dimension_ceiling(self):
        rng = seeded_generator(6)
        amp = haar_vector(2**7, rng)
        mps = mps_from_dense(amp)
        n = 7
        for k, dk in enumerate(mps.bond_dimensions, start=1):
            assert dk <= 2 ** min(k, n - k)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            mps_from_dense(np.ones(6) / math.sqrt(6.0))  # not a power of d=2
        with pytest.raises(ValueError):
            mps_from_dense(StateVector((2, 3), np.ones(6) / math.sqrt(6.0)))
        rng = seeded_generator(18)
        good = mps_from_dense(haar_vector(2**5, rng))
        assert good.bond_dimensions == (2, 4, 4, 2)
        with pytest.raises(ValueError, match="bond"):
            MpsState(tensors=[good.tensors[0], good.tensors[2], good.tensors[4]],
                     lambdas=[good.lambdas[0], good.lambdas[2]])
        with pytest.raises(ValueError):
            MpsState(tensors=good.tensors, lambdas=good.lambdas[:1])


    @pytest.mark.parametrize("d", [1, 0, -2])
    def test_rejects_local_dimension_below_two(self, d):
        for call in (cut_spectra, mps_from_dense):
            with pytest.raises(ValueError, match="local dimension must be at least 2"):
                call(np.ones(4) / 2.0, d)


class TestCanonicalForm:
    def test_constructed_states_are_canonical(self):
        rng = seeded_generator(7)
        for n in (3, 5, 7):
            res = canonical_residuals(mps_from_dense(haar_vector(2**n, rng)))
            assert np.max(res) <= 1e-10

    @pytest.mark.parametrize("g", [0.5, 4.0])
    def test_gapped_ground_state_is_canonical(self, g):
        # Schmidt values of these states fall to the cutoff, where dividing
        # by them would spoil the isometry condition
        from bellscope.chains import ground_state_exact, transverse_ising_chain

        psi = ground_state_exact(transverse_ising_chain(10, g=g))[1]
        assert np.max(canonical_residuals(mps_from_dense(psi))) <= 1e-12

    def test_scaled_tensor_breaks_isometry(self):
        mps = mps_from_dense(ghz(4))
        mps.tensors[0] = 2.0 * mps.tensors[0]
        res = canonical_residuals(mps)
        assert res[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_phase_gauge_moves_are_invisible(self):
        rng = seeded_generator(8)
        amp = haar_vector(2**5, rng)
        mps = mps_from_dense(amp)
        for k in range(mps.n_sites - 1):
            dk1 = mps.tensors[k].shape[2]
            phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=dk1))
            mps.tensors[k] = mps.tensors[k] * phases[None, None, :]
            mps.tensors[k + 1] = mps.tensors[k + 1] * phases.conj()[:, None, None]
        assert np.max(canonical_residuals(mps)) <= 1e-9
        assert abs(np.vdot(amp, mps_to_dense(mps))) >= 1 - 1e-10


class TestTruncation:
    def test_full_rank_cap_is_lossless(self):
        rng = seeded_generator(9)
        amp = haar_vector(2**6, rng)
        mps, err2 = truncate(amp, 8)
        assert err2 <= 1e-20
        assert abs(np.vdot(amp, mps_to_dense(mps))) >= 1 - 1e-10

    def test_product_state_d1_exact(self):
        rng = seeded_generator(10)
        amp = product_state(6, rng)
        mps, err2 = truncate(amp, 1)
        assert err2 <= 1e-20
        assert truncation_bound(cut_spectra(amp), 1) <= 1e-12

    def test_error_within_tail_bound(self):
        rng = seeded_generator(11)
        for trial in range(100):
            amp = haar_vector(2**8, rng)
            spectra = cut_spectra(amp)
            for dmax in (1, 2, 4):
                _, err2 = truncate(amp, dmax)
                bound = truncation_bound(spectra, dmax)
                assert err2 <= bound + 1e-12

    def test_error_monotone_in_cap(self):
        rng = seeded_generator(12)
        for trial in range(10):
            amp = haar_vector(2**7, rng)
            errs = [truncate(amp, dmax)[1] for dmax in (1, 2, 4, 8)]
            assert all(a >= b - 1e-14 for a, b in zip(errs, errs[1:]))

    def test_input_forms_agree(self):
        rng = seeded_generator(13)
        amp = haar_vector(2**5, rng)
        m1, e1 = truncate(amp, 2)
        m2, e2 = truncate(StateVector((2,) * 5, amp), 2)
        assert e1 == pytest.approx(e2, abs=1e-14)
        assert abs(np.vdot(mps_to_dense(m1), mps_to_dense(m2))) >= 1 - 1e-12

    def test_truncated_state_is_canonical(self):
        rng = seeded_generator(14)
        amp = haar_vector(2**6, rng)
        mps, _ = truncate(amp, 2)
        assert max(mps.bond_dimensions) <= 2
        assert np.max(canonical_residuals(mps)) <= 1e-10

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            truncate(ghz(3), 0)


class TestRenyiTailBound:
    def test_uniform_spectrum(self):
        lam = np.full(8, 1 / 8)
        bound = renyi_tail_bound(lam, 0.5, 4)
        eps = lam[4:].sum()
        assert math.log2(eps) <= bound
        assert bound == pytest.approx(0.0, abs=1e-12)

    def test_cap_above_rank(self):
        lam = np.array([0.7, 0.3])
        bound = renyi_tail_bound(lam, 0.5, 5)
        assert math.isfinite(bound)  # eps = 0, inequality vacuous

    def test_random_spectra(self):
        rng = seeded_generator(15)
        for trial in range(100):
            lam = np.sort(rng.dirichlet(np.ones(16)))[::-1]
            for alpha in (0.3, 0.5, 0.7):
                for dmax in (1, 2, 4, 8):
                    eps = float(lam[dmax:].sum())
                    if eps <= 0:
                        continue
                    assert math.log2(eps) <= renyi_tail_bound(lam, alpha, dmax) + 1e-12

    def test_alpha_domain(self):
        lam = [0.5, 0.5]
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                renyi_tail_bound(lam, alpha, 1)


class TestEntropies:
    """The canonical spectra ``lambdas`` are the reduced spectra at each
    bond, so their Shannon entropies are the bond entanglement entropies."""

    def test_bond_entropies_match_dense(self):
        rng = seeded_generator(16)
        amp = haar_vector(2**6, rng)
        mps = mps_from_dense(amp)
        ents = [shannon(lam) for lam in mps.lambdas]
        for k in range(1, 6):
            da = 2**k
            rho = partial_trace_loops(np.outer(amp, amp.conj()), da, 2**6 // da, "A")
            assert ents[k - 1] == pytest.approx(entropy_of_matrix(rho), abs=1e-9)

    def test_ghz_is_one_bit_everywhere(self):
        lambdas = mps_from_dense(ghz(5)).lambdas
        assert len(lambdas) == 4
        assert all(np.allclose(lam, [0.5, 0.5], rtol=0, atol=1e-12) for lam in lambdas)
        assert np.allclose([shannon(lam) for lam in lambdas], 1.0, atol=1e-12)

    def test_natural_log_base(self):
        mps = mps_from_dense(ghz(4))
        nats = [shannon(lam, base=math.e) for lam in mps.lambdas]
        assert np.allclose(nats, math.log(2.0), atol=1e-12)

    def test_cut_spectra_shannon_consistency(self):
        rng = seeded_generator(17)
        amp = haar_vector(2**5, rng)
        mps = mps_from_dense(amp)
        spectra = cut_spectra(amp)
        assert len(spectra) == len(mps.lambdas) == 4
        for lam, canonical in zip(spectra, mps.lambdas):
            assert lam.shape == canonical.shape
            assert np.allclose(lam, canonical, rtol=0, atol=1e-12)
            assert shannon(lam) == pytest.approx(shannon(canonical), abs=1e-9)


class TestRejectsBadStates:
    BAD = {
        "zero": np.zeros(8),
        "nan": np.array([np.nan, 0, 0, 0, 0, 0, 0, 1.0]),
        "inf": np.array([np.inf, 0, 0, 0, 0, 0, 0, 1.0]),
    }

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_cut_spectra(self, kind):
        with pytest.raises(ValueError, match="finite, nonzero norm"):
            cut_spectra(self.BAD[kind])

    @pytest.mark.parametrize("kind", sorted(BAD))
    @pytest.mark.parametrize("dmax", [None, 1])
    def test_mps_from_dense(self, kind, dmax):
        with pytest.raises(ValueError, match="finite, nonzero norm"):
            mps_from_dense(self.BAD[kind], dmax=dmax)

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_truncate(self, kind):
        with pytest.raises(ValueError, match="finite, nonzero norm"):
            truncate(self.BAD[kind], 2)

    def test_a_single_amplitude_is_refused_as_zero_sites(self):
        one = np.array([1.0])
        for call in (lambda: cut_spectra(one), lambda: mps_from_dense(one),
                     lambda: truncate(one, 1)):
            with pytest.raises(ValueError, match="zero sites; need at least one"):
                call()


class TestBondCap:
    @pytest.mark.parametrize("dmax", [0, -3, 2.7, 2.0])
    def test_mps_from_dense_refuses(self, dmax):
        with pytest.raises(ValueError) as info:
            mps_from_dense(ghz(4), dmax=dmax)
        assert str(info.value) == f"dmax must be at least 1 and an integer, got {dmax!r}"

    @pytest.mark.parametrize("dmax", [0, -3, 2.7])
    def test_truncate_refuses_through_the_same_rule(self, dmax):
        for psi in (ghz(4), StateVector((2,) * 4, ghz(4))):
            with pytest.raises(ValueError, match="^dmax must be at least 1"):
                truncate(psi, dmax)

    @pytest.mark.parametrize("dmax", [0, -1, 2.7, 2.0])
    def test_bounds_refuse_through_the_same_rule(self, dmax):
        # a negative cap once summed the last entries, a float was floored
        # and 0 reached log2(0)
        with pytest.raises(ValueError, match="^dmax must be at least 1"):
            truncation_bound([[0.7, 0.2, 0.1], [0.5, 0.5]], dmax)
        with pytest.raises(ValueError, match="^dmax must be at least 1"):
            renyi_tail_bound([0.5, 0.5], 0.5, dmax)

    def test_integer_caps_of_any_integer_type(self):
        amp = haar_vector(2**6, seeded_generator(5))
        want = truncate(amp, 2)
        for dmax in (np.int64(2), np.int32(2)):
            got = truncate(amp, dmax)
            assert got[1] == want[1] and got[0].bond_dimensions == want[0].bond_dimensions


def _oracle_state(kind, d, n, rank, seed):
    """Haar, product, weighted GHZ (Schmidt rank d) or bond-``rank`` MPS state."""
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if kind == "haar":
        amp = gauss(d**n)
    elif kind == "product":
        amp = np.array([1.0 + 0j])
        for _ in range(n):
            amp = np.kron(amp, gauss(d))
    elif kind == "ghz":
        # distinct weights keep the d Schmidt values apart, so a capped
        # projection is unique and the two implementations can be compared
        amp = np.zeros(d**n, dtype=complex)
        amp[[i * (d**n - 1) // (d - 1) for i in range(d)]] = gauss(d)
    else:
        amp = gauss(1, d, rank).reshape(d, rank)
        for site in range(1, n):
            right = 1 if site == n - 1 else rank
            amp = (amp @ gauss(rank, d, right).reshape(rank, -1)).reshape(-1, right)
        amp = amp.reshape(-1)
    return amp / np.linalg.norm(amp)


class TestAgainstTwoSweepOracle:
    """The single capped sweep against the two-sweep truncation and plain-SVD
    cut spectra it replaced (``helpers.two_sweep_truncate``)."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        d=st.sampled_from([2, 3]),
        n=st.integers(2, 10),
        kind=st.sampled_from(["haar", "product", "ghz", "rank"]),
        rank=st.integers(1, 4),
        cap_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=2, n=8, kind="haar", rank=1, cap_fraction=1.0, seed=1)
    @example(d=3, n=5, kind="rank", rank=2, cap_fraction=1.0, seed=2)
    def test_truncate_matches_two_sweeps(self, d, n, kind, rank, cap_fraction, seed):
        amp = _oracle_state(kind, d, n, rank, seed)
        full = d ** (n // 2)
        cap = 1 + round(cap_fraction * (full - 1))
        new, err2 = truncate(amp, cap, d)
        old, err2_old = two_sweep_truncate(amp, cap, d)
        assert new.bond_dimensions == old.bond_dimensions
        for lam, lam_old in zip(new.lambdas, old.lambdas):
            assert np.max(np.abs(lam - lam_old)) <= 1e-12
        assert abs(err2 - err2_old) <= 1e-13
        overlap = abs(np.vdot(mps_to_dense(old), mps_to_dense(new)))
        assert abs(overlap - 1.0) <= 1e-12
        assert np.max(canonical_residuals(new)) <= 1e-12
        spectra, spectra_old = cut_spectra(amp, d), plain_svd_cut_spectra(amp, d)
        assert [s.size for s in spectra] == [s.size for s in spectra_old]
        for lam, lam_old in zip(spectra, spectra_old):
            assert np.max(np.abs(lam - lam_old)) <= 1e-13

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        d=st.sampled_from([2, 3]),
        n=st.integers(2, 10),
        kind=st.sampled_from(["haar", "product", "ghz", "rank"]),
        rank=st.integers(1, 4),
        cap_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=2, n=10, kind="haar", rank=1, cap_fraction=0.0, seed=3)
    @example(d=3, n=6, kind="haar", rank=1, cap_fraction=0.2, seed=4)
    def test_err2_is_the_discarded_weight(self, d, n, kind, rank, cap_fraction, seed):
        # the sweep's discarded weight against the dense projection error;
        # both carry an absolute rounding error of O(eps * |psi|^2)
        amp = _oracle_state(kind, d, n, rank, seed)
        cap = 1 + round(cap_fraction * (d ** (n // 2) - 1))
        truncated, err2 = truncate(amp, cap, d)
        assert err2 == pytest.approx(projection_truncation_error(amp, truncated, d),
                                     rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("d, n, kind, cap", [
        (2, 1, "haar", 1), (2, 2, "haar", 2), (2, 8, "haar", 16), (3, 5, "haar", 9),
        (3, 3, "ghz", 3),
    ])
    def test_lossless_cap_reports_exactly_zero(self, d, n, kind, cap):
        amp = _oracle_state(kind, d, n, 2, 7)
        truncated, err2 = truncate(amp, cap, d)
        assert err2 == 0.0
        assert abs(np.vdot(amp, mps_to_dense(truncated))) >= 1 - 1e-12

    def test_one_sweep_per_cap(self, monkeypatch):
        import bellscope.mps as mps_module

        calls = {"_left_sweep": 0, "mps_from_dense": 0}
        for name in calls:
            inner = getattr(mps_module, name)

            def counted(*args, _inner=inner, _name=name, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(mps_module, name, counted)
        amp = haar_vector(2**8, seeded_generator(19))
        for dmax in (1, 4, 16):
            calls.update({"_left_sweep": 0, "mps_from_dense": 0})
            truncate(amp, dmax)
            assert calls == {"_left_sweep": 1, "mps_from_dense": 1}


class TestCutSpectraChain:
    """The QR-chain cut spectra against one plain SVD per cut
    (``helpers.plain_svd_cut_spectra``), and the number of full-size
    factorisations they take."""

    # d^n <= 4^8 keeps each plain SVD of the oracle small
    SIZES = [(d, n) for d in (2, 3, 4) for n in range(2, 11) if d**n <= 4**8]

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        d_n=st.sampled_from(SIZES),
        kind=st.sampled_from(["haar", "product", "ghz", "rank"]),
        rank=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d_n=(2, 10), kind="haar", rank=1, seed=1)
    @example(d_n=(3, 7), kind="rank", rank=3, seed=2)
    @example(d_n=(4, 5), kind="ghz", rank=1, seed=3)
    def test_matches_plain_svd(self, d_n, kind, rank, seed):
        d, n = d_n
        amp = _oracle_state(kind, d, n, rank, seed)
        spectra, spectra_ref = cut_spectra(amp, d), plain_svd_cut_spectra(amp, d)
        assert [s.size for s in spectra] == [s.size for s in spectra_ref]
        for lam, lam_ref in zip(spectra, spectra_ref):
            assert np.max(np.abs(lam - lam_ref)) <= 1e-13

    @pytest.mark.parametrize("d,n,max_block", [
        (2, 7, 2), (2, 8, 4), (2, 9, 6), (2, 10, 8), (3, 6, 1), (3, 7, 4)])
    def test_block_entropy_curve_matches_oracle(self, d, n, max_block):
        amp = _oracle_state("haar", d, n, 1, seed=10 * d + n)
        curve = block_entropy_curve(StateVector((d,) * n, amp), max_block=max_block)
        ref = [shannon(lam) for lam in plain_svd_cut_spectra(amp, d)[:max_block]]
        assert curve.shape == (max_block,)
        assert np.max(np.abs(curve - ref)) <= 1e-12

    @staticmethod
    def _count_factorisations(monkeypatch):
        calls = []
        for name in ("qr", "svd"):
            inner = getattr(np.linalg, name)

            def counted(a, *args, _inner=inner, _name=name, **kwargs):
                calls.append((_name, np.asarray(a).size))
                return _inner(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.mark.parametrize("n,full_size", [(12, 3), (11, 2)])
    def test_at_most_three_full_size_factorisations(self, monkeypatch, n, full_size):
        amp = haar_vector(2**n, seeded_generator(n))
        calls = self._count_factorisations(monkeypatch)
        spectra = cut_spectra(amp)
        assert len(spectra) == n - 1
        assert sum(size >= 2**n for _, size in calls) <= full_size

    @pytest.mark.parametrize("max_block,full_size", [(3, 1), (8, 3)])
    def test_block_curve_factors_no_cut_beyond_max_block(self, monkeypatch, max_block,
                                                         full_size):
        amp = haar_vector(2**12, seeded_generator(max_block))
        calls = self._count_factorisations(monkeypatch)
        block_entropy_curve(StateVector((2,) * 12, amp), max_block=max_block)
        assert [name for name, _ in calls].count("svd") == max_block
        assert sum(size >= 2**12 for _, size in calls) <= full_size
