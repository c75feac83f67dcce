import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellscope import chains
from bellscope.chains import (
    SIGMA_Z,
    ChainHamiltonian,
    block_entropy_curve,
    classical_gibbs_mutual_info,
    ground_state_exact,
    heisenberg_chain,
    random_chain,
    thermal_mutual_info_check,
    transverse_ising_chain,
)
from bellscope.numerics import seeded_generator
from bellscope.quantum import StateVector

from helpers import (
    chain_kron_sparse,
    complex_normal,
    eigsh_ground_state,
    entropy_of_matrix,
    ground_energy_power_iteration,
    partial_trace_loops,
)


def ghz_vector(n):
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1 / math.sqrt(2)
    return StateVector((2,) * n, amp)


def chain_oracle(ham):
    """Index-loop assembly of the chain Hamiltonian, wrap term included."""
    n, d = ham.n_sites, ham.local_dim
    dim = d**n
    out = np.zeros((dim, dim), dtype=complex)
    sites = list(itertools.product(range(d), repeat=n))
    index = {s: k for k, s in enumerate(sites)}
    for i, t in enumerate(ham.bond_terms):
        j = (i + 1) % n
        t4 = np.asarray(t).reshape(d, d, d, d)
        for cfg in sites:
            for ai in range(d):
                for aj in range(d):
                    new = list(cfg)
                    new[i], new[j] = ai, aj
                    out[index[tuple(new)], index[cfg]] += t4[ai, aj, cfg[i], cfg[j]]
    if ham.site_fields is not None:
        for i, f in enumerate(ham.site_fields):
            for cfg in sites:
                for ai in range(d):
                    new = list(cfg)
                    new[i] = ai
                    out[index[tuple(new)], index[cfg]] += f[ai, cfg[i]]
    return out


class TestAssembly:
    def test_a_chain_past_the_guard_is_refused_before_its_terms(self):
        # the one check precedes every term, so these bad ones are never read
        bad = np.full((3, 3), np.nan)
        with pytest.raises(ValueError, match=r"^chain guard is dimension d\^n <= 8192, got 2\^14$"):
            ChainHamiltonian(14, 2, [bad] * 13)
        for build in (heisenberg_chain, transverse_ising_chain,
                      lambda n: random_chain(n, 2, None)):
            with pytest.raises(ValueError, match=r"got 2\^1000000000000$"):
                build(10**12)

    def test_open_chain_matches_loop_oracle(self):
        rng = seeded_generator(1)
        ham = random_chain(4, 2, rng, field_scale=0.5)
        assert np.max(np.abs(ham.dense() - chain_oracle(ham))) < 1e-12

    def test_periodic_wrap_matches_loop_oracle(self):
        rng = seeded_generator(2)
        for d in (2, 3):
            ham = random_chain(4, d, rng, boundary="periodic")
            assert np.max(np.abs(ham.dense() - chain_oracle(ham))) < 1e-12

    def test_validation(self):
        term = np.eye(4)
        with pytest.raises(ValueError, match="bond terms"):
            ChainHamiltonian(4, 2, [term] * 2)
        with pytest.raises(ValueError, match="Hermitian"):
            bad = np.zeros((4, 4))
            bad[0, 1] = 1.0
            ChainHamiltonian(3, 2, [bad, bad])
        with pytest.raises(ValueError, match="boundary"):
            ChainHamiltonian(3, 2, [term, term], boundary="twisted")
        with pytest.raises(ValueError, match="field"):
            ChainHamiltonian(3, 2, [term, term], site_fields=[SIGMA_Z])


class TestTermValidation:
    def test_non_finite_terms_are_refused(self):
        bad = np.eye(4)
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="bond term 1 has non-finite"):
            ChainHamiltonian(3, 2, [np.eye(4), bad])
        with pytest.raises(ValueError, match="site field 2 has non-finite"):
            ChainHamiltonian(3, 2, [np.eye(4)] * 2,
                             site_fields=[SIGMA_Z, SIGMA_Z, np.diag([1.0, np.inf])])

    def test_field_shape_is_checked(self):
        with pytest.raises(ValueError, match=r"site field 0 has shape \(3, 3\)"):
            ChainHamiltonian(3, 2, [np.eye(4)] * 2, site_fields=[np.eye(3)] * 3)

    def test_non_hermitian_field_is_refused(self):
        raising = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="site field 1 is not Hermitian"):
            ChainHamiltonian(3, 2, [np.eye(4)] * 2,
                             site_fields=[SIGMA_Z, raising, SIGMA_Z])


class TestApply:
    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3]), n=st.integers(2, 6),
           periodic=st.booleans(), fields=st.booleans(), real=st.booleans(),
           k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_vector_and_block_match_oracles(self, d, n, periodic, fields, real, k, seed):
        ham = random_chain(n, d, seeded_generator(seed),
                           boundary="periodic" if periodic else "open",
                           field_scale=0.7 if fields else 0.0)
        if real:  # the real parts of Hermitian terms are real symmetric
            ham = ChainHamiltonian(n, d, [t.real for t in ham.bond_terms],
                                   site_fields=ham.site_fields and
                                   [f.real for f in ham.site_fields],
                                   boundary=ham.boundary)
        loops = chain_oracle(ham)
        kron = chain_kron_sparse(ham).toarray()
        assert np.max(np.abs(loops - kron)) < 1e-12
        gen = np.random.default_rng(seed)
        block = gen.standard_normal((d**n, k))
        if not real:
            block = block + 1j * gen.standard_normal((d**n, k))
        out = ham.apply(block)
        assert out.shape == (d**n, k)
        assert np.max(np.abs(out - loops @ block)) < 1e-12
        vec = ham.apply(block[:, 0])
        assert vec.shape == (d**n,)
        assert np.max(np.abs(vec - kron @ block[:, 0])) < 1e-12
        assert np.max(np.abs(ham.dense() - loops)) < 1e-12


class TestLanczos:
    @pytest.mark.parametrize("ham", [
        transverse_ising_chain(11, g=1.5),
        transverse_ising_chain(13, g=2.0, boundary="periodic"),
        heisenberg_chain(12),
        heisenberg_chain(10, boundary="periodic"),
    ], ids=["ising-open-11", "ising-periodic-13", "heisenberg-open-12",
            "heisenberg-periodic-10"])
    def test_matches_eigsh_oracle(self, ham):
        energy, psi = ground_state_exact(ham)
        oracle_energy, oracle_vec = eigsh_ground_state(ham)
        x = psi.amplitudes
        assert abs(energy - oracle_energy) <= 1e-11
        assert 1.0 - abs(np.vdot(oracle_vec, x)) <= 1e-12
        assert np.linalg.norm(chain_kron_sparse(ham) @ x - energy * x) <= 1e-9

    @pytest.mark.parametrize("g", [0.3, 1.5])
    def test_basis_stays_orthonormal(self, g):
        # every vector Lanczos applies H to is a basis vector.  Without the
        # reorthogonalisation it still finds these ground states (at g = 0.3
        # the two lowest levels cluster), but |V^T V - I| grows to 1e-3..1e-1
        ham = transverse_ising_chain(10, g=g)
        applied = []
        apply = ham.apply

        def recording(psi):
            applied.append(np.array(psi))
            return apply(psi)

        ham.apply = recording
        ground_state_exact(ham)
        basis = np.array(applied[:-1])  # the last apply checks the residual
        assert len(basis) > 20
        gram = basis.conj() @ basis.T
        assert np.abs(gram - np.eye(len(basis))).max() <= 1e-12

    @pytest.mark.parametrize("j, g", [(1e200, 1.0), (1.0, 5.623413251903491e153),
                                      (1.0, 1.7976931348623157e308)],
                             ids=["residual", "step", "nan-step"])
    def test_overflow_is_a_value_error(self, j, g):
        # at g = 5.6e153 the third step's ||H v||^2 overflows while the
        # residual of the Ritz vector stays finite; at the largest double the
        # first step is NaN, and is refused before a tridiagonal eigh sees it
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="Lanczos overflowed"):
                ground_state_exact(transverse_ising_chain(4, j=j, g=g))

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(chains, "LANCZOS_MAX_STEPS", 3)
        with pytest.raises(ArithmeticError, match="residual"):
            ground_state_exact(heisenberg_chain(10))

    @pytest.mark.parametrize("ham", [
        heisenberg_chain(2),
        random_chain(2, 3, seeded_generator(7), field_scale=0.5),
        transverse_ising_chain(9, g=1.0),
    ], ids=["dim-4", "dim-9", "dim-512"])
    def test_never_assembles_and_stops_at_the_dimension(self, ham, monkeypatch):
        def refuse(self):
            raise AssertionError("ground_state_exact assembled the Hamiltonian")

        monkeypatch.setattr(ChainHamiltonian, "dense", refuse)
        calls = []
        apply = ham.apply
        ham.apply = lambda psi: calls.append(1) or apply(psi)
        energy, psi = ground_state_exact(ham)
        x = psi.amplitudes
        assert np.linalg.norm(apply(x) - energy * x) <= 1e-12 * max(1.0, abs(energy))
        # at most one step per dimension, then one apply for the residual
        assert len(calls) <= ham.dimension + 1

    @pytest.mark.parametrize("ham, want", [
        (heisenberg_chain(3), None),
        (ChainHamiltonian(6, 2, [np.zeros((4, 4))] * 5, site_fields=[SIGMA_Z] * 6), None),
        (heisenberg_chain(4), None),
        (transverse_ising_chain(12, g=4.0), 65),
        (transverse_ising_chain(10, g=2.0, boundary="periodic"), 57),
        (heisenberg_chain(8, boundary="periodic"), 33),
    ], ids=["heisenberg-3", "field-only-6", "heisenberg-4", "ising-12",
            "ising-periodic-10", "heisenberg-periodic-8"])
    def test_stops_when_the_krylov_space_is_exhausted(self, ham, want):
        # a generic start vector spans one Krylov direction per distinct
        # level, so a degenerate chain takes one step per level plus one
        # apply for the residual (want None); converging solves keep their
        # step counts
        if want is None:
            levels = np.linalg.eigvalsh(chain_kron_sparse(ham).toarray())
            want = 2 + int(np.count_nonzero(np.diff(levels) > 1e-9))
        calls = []
        apply = ham.apply
        ham.apply = lambda psi: calls.append(1) or apply(psi)
        ground_state_exact(ham)
        assert len(calls) == want


def spin_matrices(d):
    """(Sx, Sy, Sz) of spin (d - 1)/2."""
    s = (d - 1) / 2.0
    m = s - np.arange(d)
    raising = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1)
    return ((raising + raising.T) / 2.0, (raising - raising.T) / 2.0j, np.diag(m))


def model_chain(kind, n, d, boundary, seed):
    bonds = n if boundary == "periodic" else n - 1
    sx, sy, sz = spin_matrices(d)
    if kind == "random":
        return random_chain(n, d, seeded_generator(seed), boundary=boundary, field_scale=0.5)
    if kind == "heisenberg":
        term = sum(np.kron(a, a) for a in (sx, sy, sz))
        return ChainHamiltonian(n, d, [term] * bonds, boundary=boundary)
    if kind == "ising":
        return ChainHamiltonian(n, d, [-np.kron(sx, sx)] * bonds,
                                site_fields=[-1.3 * sz] * n, boundary=boundary)
    fields = random_chain(n, d, seeded_generator(seed), field_scale=1.0).site_fields
    return ChainHamiltonian(n, d, [np.zeros((d * d, d * d))] * bonds,
                            site_fields=fields, boundary=boundary)


class TestAgainstDenseOracle:
    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([2, 3]), n=st.integers(2, 9),
           kind=st.sampled_from(["random", "heisenberg", "ising", "field"]),
           periodic=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_eigh(self, d, n, kind, periodic, seed):
        n = min(n, 5) if d == 3 else n  # dimensions 4..512
        ham = model_chain(kind, n, d, "periodic" if periodic else "open", seed)
        w, v = np.linalg.eigh(ham.dense())
        norm = max(1.0, abs(w[0]), abs(w[-1]))
        energy, psi = ground_state_exact(ham)
        x = psi.amplitudes
        assert abs(energy - w[0]) <= 1e-12 * norm
        # |E| <= ||T||, so this is at least as strict as the solver's own check
        residual = np.linalg.norm(ham.apply(x) - energy * x)
        assert residual <= chains.LANCZOS_RESIDUAL * max(1.0, abs(energy))
        if w[1] - w[0] > 1e-6:
            assert abs(np.vdot(v[:, 0], x)) >= 1.0 - 1e-10


class TestGroundState:
    def test_two_site_heisenberg_singlet(self):
        energy, psi = ground_state_exact(heisenberg_chain(2))
        assert energy == pytest.approx(-0.75, abs=1e-12)
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
        assert abs(np.vdot(singlet, psi.amplitudes)) == pytest.approx(1.0, abs=1e-10)

    def test_decoupled_field_chain(self):
        n = 5
        zero = np.zeros((4, 4))
        ham = ChainHamiltonian(n, 2, [zero] * (n - 1),
                               site_fields=[-SIGMA_Z] * n)
        energy, psi = ground_state_exact(ham)
        assert energy == pytest.approx(-n, abs=1e-12)
        assert abs(psi.amplitudes[0]) == pytest.approx(1.0, abs=1e-10)

    def test_heisenberg_ring_known_energy(self):
        energy, _ = ground_state_exact(heisenberg_chain(4, boundary="periodic"))
        assert energy == pytest.approx(-2.0, abs=1e-10)

    def test_matches_power_iteration_oracle(self):
        rng = seeded_generator(3)
        for trial in range(3):
            ham = random_chain(4, 2, rng, field_scale=0.3)
            energy, _ = ground_state_exact(ham)
            oracle = ground_energy_power_iteration(ham.dense())
            assert energy == pytest.approx(oracle, abs=1e-9)

    def test_lanczos_path_agrees_with_dense(self):
        ham = heisenberg_chain(10)  # dimension 1024
        energy, psi = ground_state_exact(ham)
        w = np.linalg.eigvalsh(ham.dense())
        assert energy == pytest.approx(float(w[0]), abs=1e-9)
        h = ham.dense()
        rayleigh = float(np.vdot(psi.amplitudes, h @ psi.amplitudes).real)
        assert rayleigh == pytest.approx(energy, abs=1e-9)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            ground_state_exact(heisenberg_chain(14))


class TestBlockEntropy:
    def test_product_state_is_flat_zero(self):
        rng = seeded_generator(4)
        amp = np.array([1.0], dtype=complex)
        for _ in range(6):
            v = complex_normal(rng, 2)
            amp = np.kron(amp, v / np.linalg.norm(v))
        curve = block_entropy_curve(StateVector((2,) * 6, amp))
        assert np.allclose(curve, 0.0, atol=1e-10)

    def test_ghz_is_one_bit(self):
        curve = block_entropy_curve(ghz_vector(6))
        assert np.allclose(curve, 1.0, atol=1e-12)

    def test_gapped_chain_plateaus(self):
        _, psi = ground_state_exact(transverse_ising_chain(12, j=1.0, g=4.0))
        curve = block_entropy_curve(psi)
        assert curve.shape == (11,)
        plateau = curve[1:]  # blocks of 2 or more sites
        assert plateau.max() - plateau.min() < 0.1

    def test_matches_partial_trace_oracle(self):
        _, psi = ground_state_exact(heisenberg_chain(6))
        curve = block_entropy_curve(psi, max_block=3)
        rho_full = np.outer(psi.amplitudes, psi.amplitudes.conj())
        for r in (1, 2, 3):
            rho = partial_trace_loops(rho_full, 2**r, 2 ** (6 - r), "A")
            assert curve[r - 1] == pytest.approx(entropy_of_matrix(rho), abs=1e-9)

    def test_validation(self):
        with pytest.raises(TypeError):
            block_entropy_curve(np.ones(4) / 2.0)
        with pytest.raises(ValueError):
            block_entropy_curve(ghz_vector(4), max_block=4)


class TestThermalMutualInfo:
    def test_infinite_temperature(self):
        rng = seeded_generator(5)
        ham = random_chain(5, 2, rng)
        report = thermal_mutual_info_check(ham, 0.0, 2)
        assert report.mutual_info == pytest.approx(0.0, abs=1e-10)
        assert report.bound == 0.0
        assert report.ok

    def test_decoupled_cut(self):
        rng = seeded_generator(6)
        ham = random_chain(6, 2, rng)
        ham.bond_terms[2] = np.zeros((4, 4))
        report = thermal_mutual_info_check(ham, 1.0, 3)
        assert report.mutual_info == pytest.approx(0.0, abs=1e-9)
        assert report.bound == 0.0

    def test_random_chains_respect_bound(self):
        rng = seeded_generator(7)
        for trial in range(6):
            n = int(rng.integers(4, 7))
            ham = random_chain(n, 2, rng, field_scale=0.5)
            cut = int(rng.integers(1, n))
            for beta in (0.1, 1.0, 5.0):
                report = thermal_mutual_info_check(ham, beta, cut)
                assert report.ok
                assert report.mutual_info <= report.bound + 1e-9

    def test_against_direct_computation(self):
        rng = seeded_generator(8)
        ham = random_chain(4, 2, rng)
        beta, cut = 0.7, 2
        report = thermal_mutual_info_check(ham, beta, cut)
        h = ham.dense()
        w, v = np.linalg.eigh(h)
        weights = np.exp(-beta * (w - w[0]))
        rho = (v * (weights / weights.sum())) @ v.conj().T
        da = 2**cut
        db = 2 ** (ham.n_sites - cut)
        rho_a = partial_trace_loops(rho, da, db, "A")
        rho_b = partial_trace_loops(rho, da, db, "B")
        want = (
            entropy_of_matrix(rho_a, base=math.e)
            + entropy_of_matrix(rho_b, base=math.e)
            - entropy_of_matrix(rho, base=math.e)
        )
        assert report.mutual_info == pytest.approx(want, abs=1e-9)

    def test_one_full_size_eigh_per_call(self, monkeypatch):
        # S(AB) comes from the Boltzmann weights of H's spectrum, so the
        # Gibbs state itself is never diagonalised
        ham = random_chain(4, 2, seeded_generator(8))
        eigh, sizes = np.linalg.eigh, []

        def counting(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        thermal_mutual_info_check(ham, 0.7, 2)
        assert sizes.count(ham.dimension) == 1

    def test_periodic_cut_counts_two_terms(self):
        rng = seeded_generator(9)
        ham = random_chain(5, 2, rng, boundary="periodic")
        report = thermal_mutual_info_check(ham, 0.5, 2)
        assert report.crossing_terms == 2
        assert report.bound == pytest.approx(
            2 * 0.5 * report.boundary_norm * 2, abs=1e-12
        )
        assert report.ok

    def test_validation(self):
        rng = seeded_generator(10)
        ham = random_chain(4, 2, rng)
        with pytest.raises(ValueError, match="cut"):
            thermal_mutual_info_check(ham, 1.0, 4)
        with pytest.raises(ValueError, match="beta"):
            thermal_mutual_info_check(ham, -1.0, 2)
        big = heisenberg_chain(11)
        with pytest.raises(ValueError, match="guard"):
            thermal_mutual_info_check(big, 1.0, 5)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_is_refused(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            thermal_mutual_info_check(heisenberg_chain(4), beta, 2)

    @pytest.mark.parametrize("j, g", [(1e308, 1.0), (1.0, 1.7976931348623157e308)],
                             ids=["infinite-spectrum", "infinite-matrix"])
    def test_an_overflowed_spectrum_is_refused(self, j, g):
        # the dense spectrum is +-inf, or NaN from an infinite matrix entry,
        # and would give NaN Gibbs weights
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="dense spectrum overflowed"):
                thermal_mutual_info_check(transverse_ising_chain(4, j=j, g=g), 1.0, 2)


class TestClassicalGibbs:
    def test_infinite_temperature(self):
        rng = seeded_generator(11)
        couplings = [rng.standard_normal((3, 3)) for _ in range(4)]
        report = classical_gibbs_mutual_info(couplings, 0.0, 2)
        assert report.mutual_info == pytest.approx(0.0, abs=1e-12)

    def test_cold_ferromagnet_saturates_one_bit(self):
        agree = np.array([[-1.0, 1.0], [1.0, -1.0]])
        couplings = [agree] * 7
        report = classical_gibbs_mutual_info(couplings, 20.0, 4)
        assert report.mutual_info == pytest.approx(1.0, abs=1e-3)
        assert report.bound == 1.0
        assert report.ok

    def test_random_instances_respect_bound(self):
        rng = seeded_generator(12)
        for trial in range(20):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(3, 7))
            couplings = [rng.standard_normal((d, d)) for _ in range(n - 1)]
            cut = int(rng.integers(1, n))
            beta = float(rng.uniform(0.0, 3.0))
            report = classical_gibbs_mutual_info(couplings, beta, cut)
            assert report.ok
            assert report.bound == pytest.approx(math.log2(d), abs=1e-12)

    def test_against_configuration_enumeration(self):
        rng = seeded_generator(13)
        d, n, beta, cut = 2, 4, 0.9, 2
        couplings = [rng.standard_normal((d, d)) for _ in range(n - 1)]
        report = classical_gibbs_mutual_info(couplings, beta, cut)
        weights = {}
        for cfg in itertools.product(range(d), repeat=n):
            e = sum(couplings[i][cfg[i], cfg[i + 1]] for i in range(n - 1))
            weights[cfg] = math.exp(-beta * e)
        z = sum(weights.values())
        pa, pb, pj = {}, {}, {}
        for cfg, w in weights.items():
            pa[cfg[:cut]] = pa.get(cfg[:cut], 0.0) + w / z
            pb[cfg[cut:]] = pb.get(cfg[cut:], 0.0) + w / z
            pj[cfg] = w / z

        def shannon(dist):
            return -sum(p * math.log2(p) for p in dist.values() if p > 0)

        want = shannon(pa) + shannon(pb) - shannon(pj)
        assert report.mutual_info == pytest.approx(want, abs=1e-10)

    def test_periodic_ring_doubles_bound(self):
        rng = seeded_generator(14)
        couplings = [rng.standard_normal((2, 2)) for _ in range(5)]
        report = classical_gibbs_mutual_info(couplings, 1.5, 2, boundary="periodic")
        assert report.bound == 2.0
        assert report.crossing_terms == 2
        assert report.ok

    def test_periodic_complementary_cuts_agree(self):
        # uniform ring: swapping the blocks relabels sites, so I is unchanged
        rng = seeded_generator(15)
        c = rng.standard_normal((2, 2))
        couplings = [c] * 6

        def mi(cut):
            return classical_gibbs_mutual_info(
                couplings, 1.0, cut, boundary="periodic"
            ).mutual_info

        assert mi(1) == pytest.approx(mi(5), abs=1e-10)
        assert mi(2) == pytest.approx(mi(4), abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError, match="ragged"):
            classical_gibbs_mutual_info([np.zeros((2, 2)), np.zeros((3, 3))], 1.0, 1)
        with pytest.raises(ValueError, match="boundary"):
            classical_gibbs_mutual_info([np.zeros((2, 2))], 1.0, 1, boundary="x")
        with pytest.raises(ValueError, match="guard"):
            classical_gibbs_mutual_info([np.zeros((10, 10))] * 6, 1.0, 3)
        with pytest.raises(ValueError, match="cut"):
            classical_gibbs_mutual_info([np.zeros((2, 2))] * 3, 1.0, 4)

    @pytest.mark.parametrize("coupling", [1.0, np.zeros((2, 3))], ids=["scalar", "2x3"])
    def test_non_square_couplings_are_refused(self, coupling):
        # a scalar has no rows to read d from
        with pytest.raises(ValueError, match=r"must all be \(d, d\) with one d >= 1"):
            classical_gibbs_mutual_info([coupling, coupling], 1.0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_couplings_are_refused(self, bad):
        couplings = [np.zeros((2, 2)), np.array([[0.0, bad], [0.0, 0.0]])]
        with pytest.raises(ValueError, match="couplings must be finite"):
            classical_gibbs_mutual_info(couplings, 1.0, 1)

    def test_one_state_per_site_is_refused_past_the_numpy_axis_limit(self):
        # d = 1 passes the d^n check at any n, but the energy table has one
        # axis per site; 64 sites still give the zero mutual information
        report = classical_gibbs_mutual_info([np.zeros((1, 1))] * 63, 1.0, 1)
        assert report.mutual_info == 0.0
        with pytest.raises(ValueError) as info:
            classical_gibbs_mutual_info([np.zeros((1, 1))] * 64, 1.0, 1)
        assert str(info.value) == (f"classical guard is sites n <= {chains.CLASSICAL_SITES}, "
                                   "got 65")

    @pytest.mark.parametrize("couplings, boundary", [
        ([], "open"), ([], "periodic"), ([np.zeros((2, 2))], "periodic")])
    def test_fewer_than_two_sites_is_refused(self, couplings, boundary):
        with pytest.raises(ValueError, match="at least two sites"):
            classical_gibbs_mutual_info(couplings, 1.0, 1, boundary=boundary)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 1.0, 3.0, 800.0])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_negative_beta_is_the_negated_energy_bitwise(self, beta, boundary):
        # exp(beta E) = exp(-beta (-E)); the weights shift by the largest
        # energy for beta < 0, so beta = -800 neither overflows nor warns
        rng = seeded_generator(16)
        couplings = [rng.standard_normal((3, 3)) for _ in range(5)]
        with np.errstate(over="raise", invalid="raise"):
            hot = classical_gibbs_mutual_info(couplings, -beta, 2, boundary=boundary)
            cold = classical_gibbs_mutual_info([-c for c in couplings], beta, 2,
                                               boundary=boundary)
        assert hot == cold
        assert math.isfinite(hot.mutual_info) and hot.ok

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_is_refused(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            classical_gibbs_mutual_info([np.zeros((2, 2))] * 3, beta, 2)
