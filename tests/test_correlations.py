import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellscope.correlations import (
    Behavior,
    BellFunctional,
    Scenario,
    TIExpression,
    chsh_correlator_functional,
    chsh_probability_functional,
    chsh_quantum_demo,
    expression_from_json,
    expression_to_json,
    is_nonsignalling,
    local_bound_bruteforce,
    qubit_observable,
    ti_classical_bound,
)
from bellscope.quantum import DensityOperator, max_entangled

from helpers import (
    DeterministicStrategy,
    behavior_from_correlators_loops,
    correlators_loops,
    haar_vector,
    local_bound_contraction,
    quantum_table_kron,
    strategy_behavior,
    strategy_table_loops,
    strategy_value,
    strategy_value_loops,
    ti_value_direct,
)

CHSH = Scenario(parties=2, settings=2, outcomes=2)

# every deterministic CHSH strategy, each party answering (x = 0, x = 1)
CHSH_STRATEGIES = [DeterministicStrategy(responses) for responses in
                   itertools.product(itertools.product(range(2), repeat=2), repeat=2)]


def random_strategy(scenario, rng):
    responses = tuple(
        tuple(int(rng.integers(scenario.outcomes)) for _ in range(scenario.settings))
        for _ in range(scenario.parties)
    )
    return DeterministicStrategy(responses)


def pure_density(amp, dims):
    amp = np.asarray(amp, dtype=complex)
    return DensityOperator(dims=dims, matrix=np.outer(amp, amp.conj()))


def projectors(theta):
    """Eigenprojectors of ``qubit_observable(theta)``, outcome 0 on +1."""
    m = qubit_observable(theta)
    return [(np.eye(2) + m) / 2, (np.eye(2) - m) / 2]


def quantum_behavior(rho, measurements):
    """Born-rule behavior of ``rho`` under ``measurements[i][x][a]``."""
    n, m, d = len(measurements), len(measurements[0]), len(measurements[0][0])
    return Behavior(Scenario(n, m, d), quantum_table_kron(rho.matrix, measurements))


class TestBehaviorBasics:
    def test_deterministic_behaviors_are_valid_and_nonsignalling(self):
        for strat in CHSH_STRATEGIES:
            b = strategy_behavior(strat, CHSH)
            ok, worst, witness = is_nonsignalling(b)
            assert ok and worst <= 1e-12

    def test_normalization_enforced(self):
        t = np.zeros(CHSH.table_shape)
        with pytest.raises(ValueError):
            Behavior(CHSH, t)

    def test_signalling_table_is_caught_with_witness(self):
        # Alice's marginal flips with Bob's setting
        t = np.zeros((2, 2, 2, 2))
        for x1 in range(2):
            t[x1, 0, 0, 0] = 1.0  # Bob setting 0: Alice outputs 0
            t[x1, 1, 1, 0] = 1.0  # Bob setting 1: Alice outputs 1
        b = Behavior(CHSH, t)
        ok, worst, witness = is_nonsignalling(b)
        assert not ok
        assert worst > 0.5
        assert witness is not None


class TestQuantumBehavior:
    """Born-rule tables of the ``helpers`` oracle, which ``Behavior`` checks."""

    def test_bell_state_zz_marginals(self):
        rho = pure_density(max_entangled(2).amplitudes, (2, 2))
        z = projectors(0.0)
        b = quantum_behavior(rho, [[z, z], [z, z]])
        assert abs(b.table[0, 0, 0, 0] - 0.5) < 1e-12
        assert abs(b.table[0, 0, 1, 1] - 0.5) < 1e-12
        assert b.table[0, 0, 0, 1] < 1e-12

    def test_product_state_deterministic_marginals(self):
        rho = pure_density([1, 0, 0, 0], (2, 2))
        z = projectors(0.0)
        b = quantum_behavior(rho, [[z, z], [z, z]])
        assert abs(b.table[0, 0, 0, 0] - 1.0) < 1e-12

    def test_incomplete_measurement_rejected(self):
        rho = pure_density([1, 0, 0, 0], (2, 2))
        z = projectors(0.0)
        broken = [z[0] * 0.5, z[1]]  # the state's outcome keeps half its weight
        with pytest.raises(ValueError, match="not normalised"):
            quantum_behavior(rho, [[z, z], [z, broken]])

    def test_random_quantum_behaviors_are_nonsignalling(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n = int(rng.integers(2, 4))
            v = haar_vector(2**n, rng)
            rho = pure_density(v, (2,) * n)
            settings = [
                [projectors(rng.uniform(0, math.pi)) for _ in range(2)]
                for _ in range(n)
            ]
            b = quantum_behavior(rho, settings)
            ok, worst, _ = is_nonsignalling(b, tol=1e-10)
            assert ok, worst


class TestCorrelatorConversion:
    """The correlator oracles of ``helpers`` on known cases; ``Behavior``
    refuses a table that correlators do not make a behavior."""

    def test_uniform_behavior_has_zero_correlators(self):
        t = np.full(CHSH.table_shape, 0.25)
        values = correlators_loops(Behavior(CHSH, t).table, 2)
        assert abs(values.reshape(-1)[1:]).max() < 1e-12

    def test_bell_state_equal_settings_correlator(self):
        rho = pure_density(max_entangled(2).amplitudes, (2, 2))
        z = projectors(0.0)
        x = projectors(math.pi / 2)
        values = correlators_loops(quantum_behavior(rho, [[z, x], [z, x]]).table, 2)
        # both parties measuring sigma_z: perfect correlation
        assert abs(values[1, 1] - 1.0) < 1e-10

    def test_round_trip_on_lhv_behaviors(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            weights = rng.dirichlet(np.ones(4))
            table = sum(
                w * strategy_behavior(random_strategy(CHSH, rng), CHSH).table
                for w in weights
            )
            b = Behavior(CHSH, table)
            values = correlators_loops(b.table, 2)
            back = Behavior(CHSH, behavior_from_correlators_loops(values, 2))
            assert np.abs(back.table - b.table).max() < 1e-10

    def test_inconsistent_correlators_rejected(self):
        values = np.zeros((3, 3))
        values[0, 0] = 1.0
        values[1, 1] = 1.0   # <M0 M0> = 1
        values[1, 0] = 1.0   # <M0 x 1> = 1
        values[0, 1] = -1.0  # <1 x M0> = -1: contradicts the pair term
        with pytest.raises(ValueError, match="negative probability"):
            Behavior(CHSH, behavior_from_correlators_loops(values, 2))


class TestPartyMapsAgainstLoops:
    """Each per-party tensor map against the loops it replaced."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 3), d=st.integers(2, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_conversions(self, n, m, d, seed):
        rng = np.random.default_rng(seed)
        sc = Scenario(n, m, d)

        # integer coefficients keep every sum exact, so these agree bitwise
        strategy = random_strategy(sc, rng)
        want = strategy_table_loops(strategy.responses, m, d)
        assert np.array_equal(strategy_behavior(strategy, sc).table, want)
        f = BellFunctional(sc, rng.integers(-3, 4, size=sc.table_shape),
                           offset=float(rng.integers(-3, 4)))
        assert strategy_value(f, strategy) == strategy_value_loops(
            f.coefficients, f.offset, strategy.responses)
        rep = local_bound_bruteforce(f)
        assert (rep.max_value, rep.min_value) == local_bound_contraction(f)


class TestLocalBounds:
    def test_chsh_probability_form_is_three(self):
        f = chsh_probability_functional()
        rep = local_bound_bruteforce(f)
        assert rep.max_value == 3.0
        assert max(strategy_value(f, s) for s in CHSH_STRATEGIES) == 3.0

    def test_chsh_correlator_form_is_two(self):
        rep = local_bound_bruteforce(chsh_correlator_functional())
        assert rep.max_value == 2.0
        assert rep.min_value == -2.0

    def test_zero_functional(self):
        f = BellFunctional(CHSH, np.zeros(CHSH.table_shape))
        rep = local_bound_bruteforce(f)
        assert rep.max_value == 0.0 and rep.min_value == 0.0

    def test_mixtures_stay_inside_deterministic_range(self):
        rng = np.random.default_rng(10)
        c = rng.integers(-2, 3, size=CHSH.table_shape).astype(float)
        f = BellFunctional(CHSH, c)
        rep = local_bound_bruteforce(f)
        strategies = CHSH_STRATEGIES
        for trial in range(50):
            weights = rng.dirichlet(np.ones(6))
            picks = rng.choice(len(strategies), size=6, replace=False)
            table = sum(
                w * strategy_behavior(strategies[i], CHSH).table
                for w, i in zip(weights, picks)
            )
            v = f.value(Behavior(CHSH, table))
            assert rep.min_value - 1e-9 <= v <= rep.max_value + 1e-9

    def test_guard_refuses_large_scenario(self):
        # table fits comfortably but the strategy space does not
        big = Scenario(parties=4, settings=6, outcomes=2)
        f = BellFunctional(big, np.zeros(big.table_shape))
        with pytest.raises(ValueError, match="strategies"):
            local_bound_bruteforce(f)


class TestChshQuantumDemo:
    def test_reaches_tsirelson(self):
        value, angles = chsh_quantum_demo()
        assert abs(value - 2 * math.sqrt(2)) < 1e-6


class TestTIExpressions:
    def test_zero_expression(self):
        expr = TIExpression(n=4)
        assert ti_classical_bound(expr) == 0

    def test_alpha_only_decouples(self):
        expr = TIExpression(n=5, alpha=1)
        assert ti_classical_bound(expr) == 5

    def test_matches_direct_enumeration_n3(self):
        expr = TIExpression(n=3, alpha=-2, gamma=(Fraction(1, 2),), epsilon=(Fraction(1, 2),), omega=(-1, 0))
        bound = ti_classical_bound(expr)
        best = None
        for signs in itertools.product([(1, 1), (1, -1), (-1, 1), (-1, -1)], repeat=3):
            v = ti_value_direct(3, -2, 0, [0.5], [0.5], [-1, 0], signs)
            best = v if best is None else min(best, v)
        assert bound == -Fraction(best).limit_denominator(16)

    def test_matches_direct_enumeration_random(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            n = int(rng.integers(3, 7))
            half, full = n // 2, n - 1
            gam = tuple(int(x) for x in rng.integers(-2, 3, size=half))
            eps = tuple(int(x) for x in rng.integers(-2, 3, size=half))
            om = tuple(int(x) for x in rng.integers(-2, 3, size=full))
            alpha, beta = (int(x) for x in rng.integers(-2, 3, size=2))
            expr = TIExpression(n=n, alpha=alpha, beta=beta, gamma=gam, epsilon=eps, omega=om)
            bound = ti_classical_bound(expr)
            best = min(
                ti_value_direct(n, alpha, beta, gam, eps, om, signs)
                for signs in itertools.product(
                    [(1, 1), (1, -1), (-1, 1), (-1, -1)], repeat=n
                )
            )
            assert bound == -best

    def test_guard_rejects_large_rings(self):
        with pytest.raises(ValueError):
            ti_classical_bound(TIExpression(n=13, alpha=1))

    def test_coefficient_lengths_validated(self):
        with pytest.raises(ValueError):
            TIExpression(n=4, gamma=(1, 1, 1))


class TestExpressionJson:
    def test_functional_round_trip(self):
        f = chsh_probability_functional()
        doc = json.loads(json.dumps(expression_to_json(f)))
        back = expression_from_json(doc)
        assert isinstance(back, BellFunctional)
        assert back.scenario == f.scenario
        assert np.array_equal(back.coefficients, f.coefficients)
        assert local_bound_bruteforce(back).max_value == 3.0

    def test_ti_round_trip_with_exact_rationals(self):
        expr = TIExpression(
            n=5, alpha=Fraction(1, 3), beta=0, gamma=(1, Fraction(-1, 2)),
            epsilon=(0, 2), omega=(1, 0, 0, Fraction(2, 3)),
        )
        doc = json.loads(json.dumps(expression_to_json(expr)))
        back = expression_from_json(doc)
        assert isinstance(back, TIExpression)
        assert back.alpha == Fraction(1, 3)
        assert back.gamma == (1, Fraction(-1, 2))
        assert back.omega[3] == Fraction(2, 3)
        assert ti_classical_bound(back) == ti_classical_bound(expr)
