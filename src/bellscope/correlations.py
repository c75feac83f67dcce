"""Bell scenarios: behaviors, deterministic strategies, Bell functionals,
correlator conversions, brute-force local bounds, and translation-invariant
ring expressions.

Conventions
-----------
* Settings ``x`` and outcomes ``a`` are 0-based.
* A behavior is the dense table ``P(a1..an | x1..xn)`` stored with shape
  ``(m,)*n + (d,)*n`` (settings axes first).
* For two-outcome boxes the sign convention is outcome 0 -> +1, 1 -> -1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .symmetric import number_from_json, number_to_json, to_common_denominator

__all__ = [
    "Scenario",
    "Behavior",
    "DeterministicStrategy",
    "BellFunctional",
    "CorrelatorSet",
    "TIExpression",
    "BoundReport",
    "deterministic_strategies",
    "is_nonsignalling",
    "behavior_from_quantum",
    "correlators_from_behavior",
    "behavior_from_correlators",
    "local_bound_bruteforce",
    "ti_classical_bound",
    "chsh_probability_functional",
    "chsh_correlator_functional",
    "chsh_quantum_demo",
    "qubit_observable",
    "qubit_projectors",
    "expression_to_json",
    "expression_from_json",
    "number_to_json",
    "number_from_json",
    "to_common_denominator",
]

TABLE_GUARD = 10**7  # max dense-table entries (m*d)^n
POSITIVITY_TOL = 1e-10
NORMALISATION_TOL = 1e-9
SIGNALLING_TOL = 1e-9

OUTCOME_SIGNS = np.array([1.0, -1.0])

#: Alternating sweeps of the CHSH ascent polish.  Two already reached the planar
#: optimum 2 ||T||_F to 1e-15 on 800 random pure states from grids of 2 to 24
#: points per angle; one sweep fell short by up to 1.4 from a 2-point grid.
CHSH_ASCENT_SWEEPS = 4


@dataclass(frozen=True)
class Scenario:
    """An (n, m, d) Bell scenario: n parties, m settings, d outcomes each."""

    parties: int
    settings: int
    outcomes: int

    def __post_init__(self):
        if min(self.parties, self.settings, self.outcomes) < 1:
            raise ValueError(f"scenario fields must be positive, got {self}")
        if self.table_size > TABLE_GUARD:
            raise ValueError(
                f"dense table would need {self.table_size} entries "
                f"(guard is {TABLE_GUARD})"
            )

    @property
    def table_shape(self):
        return (self.settings,) * self.parties + (self.outcomes,) * self.parties

    @property
    def table_size(self):
        return (self.settings * self.outcomes) ** self.parties

    @property
    def strategy_count(self):
        return self.outcomes ** (self.settings * self.parties)


@dataclass
class Behavior:
    """Conditional probability table P(a|x) over a scenario.

    Entries must be >= -1e-10 (tiny negatives are kept, not clipped, so
    round trips stay exact) and each setting context must sum to 1 within
    1e-9.
    """

    scenario: Scenario
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape != self.scenario.table_shape:
            raise ValueError(
                f"table shape {t.shape} does not match scenario {self.scenario}"
            )
        if float(t.min()) < -POSITIVITY_TOL:
            raise ValueError(f"negative probability {t.min()!r} in behavior table")
        n = self.scenario.parties
        sums = t.sum(axis=tuple(range(n, 2 * n)))
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > NORMALISATION_TOL:
            raise ValueError(f"behavior not normalised: worst context off by {worst:.3e}")
        self.table = t


@dataclass(frozen=True)
class DeterministicStrategy:
    """Local deterministic strategy: ``responses[i][x]`` is party i's outcome."""

    responses: tuple

    def to_behavior(self, scenario):
        t = np.zeros(scenario.table_shape)
        n, m = scenario.parties, scenario.settings
        for x in itertools.product(range(m), repeat=n):
            a = tuple(self.responses[i][x[i]] for i in range(n))
            t[x + a] = 1.0
        return Behavior(scenario, t)


def deterministic_strategies(scenario):
    """Iterate over all local deterministic strategies of a scenario."""
    per_party = list(itertools.product(range(scenario.outcomes), repeat=scenario.settings))
    for joint in itertools.product(per_party, repeat=scenario.parties):
        yield DeterministicStrategy(joint)


@dataclass
class BellFunctional:
    """Linear functional sum_{x,a} c(a,x) P(a|x) + offset.

    ``direction`` and ``bound`` are optional metadata recording the facet
    inequality the functional came with (e.g. "<=" 3 for the CHSH
    probability form).
    """

    scenario: Scenario
    coefficients: np.ndarray
    offset: float = 0.0
    direction: str | None = None
    bound: float | None = None
    name: str = ""

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != self.scenario.table_shape:
            raise ValueError(
                f"coefficient shape {c.shape} does not match scenario {self.scenario}"
            )
        self.coefficients = c

    def value(self, behavior):
        if behavior.scenario != self.scenario:
            raise ValueError("behavior and functional live on different scenarios")
        return float(np.sum(self.coefficients * behavior.table) + self.offset)

    def strategy_value(self, strategy):
        """Exact value on a deterministic strategy (no table built)."""
        n, m = self.scenario.parties, self.scenario.settings
        total = self.offset
        for x in itertools.product(range(m), repeat=n):
            a = tuple(strategy.responses[i][x[i]] for i in range(n))
            total += self.coefficients[x + a]
        return float(total)


@dataclass
class BoundReport:
    """Exact deterministic extremes of a functional, with witnesses."""

    max_value: float
    max_strategy: DeterministicStrategy
    min_value: float
    min_strategy: DeterministicStrategy


def local_bound_bruteforce(functional):
    """Exact local (LHV) extremes by full deterministic enumeration.

    Covers all ``d**(m*n)`` response assignments (guarded at 1e7) and
    returns both the maximum and the minimum with witnessing strategies:
    mixtures of deterministic points can never leave ``[min, max]``.

    The enumeration is a party-by-party tensor contraction: party i's
    ``d**m`` response functions enter as a selection matrix that absorbs
    the (x_i, a_i) axes of the coefficient tensor, so the value of every
    strategy is produced in one array of shape ``(d**m,) * n``.  Witness
    tie-breaking matches a lexicographic per-party loop (first extremum
    wins).
    """
    sc = functional.scenario
    if sc.strategy_count > TABLE_GUARD:
        raise ValueError(
            f"{sc.strategy_count} deterministic strategies exceed the "
            f"enumeration guard {TABLE_GUARD}"
        )
    n, m, d = sc.parties, sc.settings, sc.outcomes
    per_party = list(itertools.product(range(d), repeat=m))
    select = np.zeros((len(per_party), m * d))
    for k, responses in enumerate(per_party):
        for x, a in enumerate(responses):
            select[k, x * d + a] = 1.0

    # axes of t: r remaining x's first, their a's next, finished K's last
    t = functional.coefficients
    for r in range(n, 0, -1):
        t = np.moveaxis(t, (0, r), (-2, -1))
        t = t.reshape(t.shape[:-2] + (m * d,)) @ select.T
    values = t.reshape(-1)

    def witness(flat_index):
        ks = np.unravel_index(flat_index, (len(per_party),) * n)
        return DeterministicStrategy(tuple(per_party[k] for k in ks))

    i_max = int(np.argmax(values))
    i_min = int(np.argmin(values))
    off = functional.offset
    return BoundReport(
        float(values[i_max] + off), witness(i_max),
        float(values[i_min] + off), witness(i_min),
    )


# ---------------------------------------------------------------------------
# Nonsignalling check and quantum behaviors


def is_nonsignalling(behavior, tol=SIGNALLING_TOL):
    """Check the no-signalling constraints of a behavior.

    For every party the outcome marginal of the others must not depend on
    that party's setting.

    Returns
    -------
    ok : bool
    worst : float
        Largest marginal discrepancy found.
    witness : tuple or None
        ``(party, setting)`` of the worst offending marginal comparison.
    """
    n, m = behavior.scenario.parties, behavior.scenario.settings
    worst = 0.0
    witness = None
    for k in range(n):
        marg = behavior.table.sum(axis=n + k)  # drop party k's outcome
        ref = np.take(marg, 0, axis=k)
        for x in range(1, m):
            dev = float(np.max(np.abs(np.take(marg, x, axis=k) - ref)))
            if dev > worst:
                worst, witness = dev, (k, x)
    return worst <= tol, worst, witness


def behavior_from_quantum(rho, measurements):
    """Born-rule behavior of a multipartite state under local POVMs.

    Parameters
    ----------
    rho : DensityOperator or StateVector
        State on ``len(measurements)`` factors.
    measurements : sequence
        ``measurements[i][x][a]`` is the POVM effect of party i, setting x,
        outcome a.  Every setting must be complete (effects summing to the
        identity within 1e-9) and every effect positive semidefinite.
    """
    from .quantum import StateVector

    if isinstance(rho, StateVector):
        rho = rho.density()
    n = len(measurements)
    if len(rho.dims) != n:
        raise ValueError(
            f"state has {len(rho.dims)} factors but {n} measurement sets given"
        )
    m = len(measurements[0])
    d = len(measurements[0][0])
    for i, party in enumerate(measurements):
        if len(party) != m or any(len(setting) != d for setting in party):
            raise ValueError("ragged measurement specification")
        for x, setting in enumerate(party):
            eff = [np.asarray(e, dtype=complex) for e in setting]
            total = sum(eff)
            if np.max(np.abs(total - np.eye(rho.dims[i]))) > 1e-9:
                raise ValueError(f"party {i} setting {x}: POVM does not sum to identity")
            for a, e in enumerate(eff):
                wmin = float(np.linalg.eigvalsh((e + e.conj().T) / 2)[0])
                if wmin < -1e-9:
                    raise ValueError(
                        f"party {i} setting {x} outcome {a}: effect not PSD "
                        f"(min eigenvalue {wmin:.3e})"
                    )
    sc = Scenario(n, m, d)
    table = np.empty(sc.table_shape)
    for x in itertools.product(range(m), repeat=n):
        for a in itertools.product(range(d), repeat=n):
            op = np.array([[1.0 + 0.0j]])
            for i in range(n):
                op = np.kron(op, np.asarray(measurements[i][x[i]][a[i]], dtype=complex))
            table[x + a] = float(np.trace(rho.matrix @ op).real)
    return Behavior(sc, table)


# ---------------------------------------------------------------------------
# Full correlators <-> behavior (two outcomes only)


@dataclass
class CorrelatorSet:
    """All correlators of a two-outcome behavior.

    ``values`` has shape ``(m+1,)*n``; index 0 means the party is absent
    from the product, index ``s >= 1`` means it measures setting ``s - 1``.
    The all-absent entry is the empty product and equals 1.
    """

    parties: int
    settings: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        want = (self.settings + 1,) * self.parties
        if v.shape != want:
            raise ValueError(f"values shape {v.shape}, expected {want}")
        if abs(v[(0,) * self.parties] - 1.0) > 1e-12:
            raise ValueError("empty-product correlator must be 1")
        self.values = v


def _sign_profile(present, n, d=2):
    """Outer product of per-party sign vectors (ones where absent)."""
    out = np.array(1.0)
    for i in range(n):
        vec = OUTCOME_SIGNS if present[i] else np.ones(d)
        out = np.multiply.outer(out, vec)
    return out


def correlators_from_behavior(behavior):
    """Extract every correlator of a d=2 behavior.

    Absent parties are marginalised using their setting-0 context; for a
    nonsignalling behavior any completion gives the same number.
    """
    sc = behavior.scenario
    if sc.outcomes != 2:
        raise ValueError("correlator conversion requires two outcomes")
    n, m = sc.parties, sc.settings
    vals = np.empty((m + 1,) * n)
    for c in itertools.product(range(m + 1), repeat=n):
        x = tuple(ci - 1 if ci > 0 else 0 for ci in c)
        present = [ci > 0 for ci in c]
        block = behavior.table[x]
        vals[c] = float((block * _sign_profile(present, n)).sum())
    return CorrelatorSet(n, m, vals)


def behavior_from_correlators(corr):
    """Reconstruct the unique d=2 behavior with the given correlators.

    ``p(a|x) = 2^-n sum_S prod_{i in S} sign(a_i) * <subset S at settings x>``.
    Tables with entries below -1e-10 are rejected: such a correlator set is
    not a valid behavior.
    """
    n, m = corr.parties, corr.settings
    sc = Scenario(n, m, 2)
    table = np.empty(sc.table_shape)
    subsets = list(itertools.product((False, True), repeat=n))
    profiles = {s: _sign_profile(s, n) for s in subsets}
    for x in itertools.product(range(m), repeat=n):
        block = np.zeros((2,) * n)
        for s in subsets:
            c = tuple(x[i] + 1 if s[i] else 0 for i in range(n))
            block += corr.values[c] * profiles[s]
        table[x] = block / 2**n
    if float(table.min()) < -POSITIVITY_TOL:
        raise ValueError(
            f"correlators do not define a behavior: entry {table.min()!r} < 0"
        )
    return Behavior(sc, table)


# ---------------------------------------------------------------------------
# CHSH: the two standard forms and a quantum optimisation demo


def chsh_probability_functional():
    """CHSH as a winning probability sum: local bound 3 of 4 contexts."""
    sc = Scenario(2, 2, 2)
    c = np.zeros(sc.table_shape)
    for x1, x2 in itertools.product(range(2), repeat=2):
        for a1, a2 in itertools.product(range(2), repeat=2):
            if (a1 + a2) % 2 == x1 * x2:
                c[x1, x2, a1, a2] = 1.0
    return BellFunctional(sc, c, direction="<=", bound=3.0, name="chsh-probability")


def chsh_correlator_functional():
    """CHSH in correlator form <00> + <01> + <10> - <11>: local bound 2."""
    sc = Scenario(2, 2, 2)
    c = np.zeros(sc.table_shape)
    for x1, x2 in itertools.product(range(2), repeat=2):
        w = -1.0 if (x1, x2) == (1, 1) else 1.0
        for a1, a2 in itertools.product(range(2), repeat=2):
            c[x1, x2, a1, a2] = w * OUTCOME_SIGNS[a1] * OUTCOME_SIGNS[a2]
    return BellFunctional(sc, c, direction="<=", bound=2.0, name="chsh-correlator")


def qubit_observable(theta):
    """Binary observable cos(theta) sigma_z + sin(theta) sigma_x."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qubit_projectors(theta):
    """Eigenprojectors of :func:`qubit_observable`, outcome 0 -> +1 branch."""
    m = qubit_observable(theta)
    eye = np.eye(2, dtype=complex)
    return [(eye + m) / 2, (eye - m) / 2]


def _pair_correlator(rho_matrix, ta, tb):
    op = np.kron(qubit_observable(ta), qubit_observable(tb))
    return float(np.trace(rho_matrix @ op).real)


def chsh_quantum_demo(state=None, grid_points=24, refine=True):
    """Maximise the CHSH correlator over planar qubit measurement angles.

    A ``grid_points``-per-angle scan over the four angles (two per party)
    is followed by an ascent polish.  In the measurement plane the
    correlator is bilinear, ``C(a, b) = u(a)^T T u(b)`` with
    ``u(t) = (cos t, sin t)`` and ``T`` the (z, x) block of the correlation
    matrix, so with Bob's angles fixed Alice's best angles point along
    ``T (u(b0) +- u(b1))``, and likewise for Bob with ``T^T``.  The polish
    alternates these exact block maxima, so the value never decreases.
    With the default maximally entangled input the optimum is the
    Tsirelson value ``2 sqrt(2)``; product states stay at or below the
    local bound 2.

    Returns
    -------
    value : float
        Best CHSH value found.
    angles : ndarray, shape (4,)
        ``(a0, a1, b0, b1)`` measurement angles at the optimum.
    """
    from .quantum import StateVector, max_entangled

    if state is None:
        state = max_entangled(2)
    if isinstance(state, StateVector):
        state = state.density()
    if state.dims != (2, 2):
        raise ValueError(f"need a two-qubit state, got dims {state.dims}")
    rho = state.matrix

    thetas = np.linspace(0.0, 2.0 * math.pi, int(grid_points), endpoint=False)
    g = len(thetas)
    corr = np.empty((g, g))
    for i, ta in enumerate(thetas):
        for j, tb in enumerate(thetas):
            corr[i, j] = _pair_correlator(rho, ta, tb)
    # chsh[a0,a1,b0,b1] = C[a0,b0] + C[a0,b1] + C[a1,b0] - C[a1,b1]
    chsh = (
        corr[:, None, :, None]
        + corr[:, None, None, :]
        + corr[None, :, :, None]
        - corr[None, :, None, :]
    )
    flat = int(np.argmax(chsh))
    idx = np.unravel_index(flat, chsh.shape)
    best_angles = np.array([thetas[i] for i in idx])
    best_value = float(chsh[idx])

    if refine:

        def chsh_value(a0, a1, b0, b1):
            return (
                _pair_correlator(rho, a0, b0)
                + _pair_correlator(rho, a0, b1)
                + _pair_correlator(rho, a1, b0)
                - _pair_correlator(rho, a1, b1)
            )

        def u(t):
            return np.array([math.cos(t), math.sin(t)])

        def best_pair(t, v0, v1):
            # angles maximising u(x0) . t (v0 + v1) + u(x1) . t (v0 - v1)
            (p0, q0), (p1, q1) = t @ (v0 + v1), t @ (v0 - v1)
            return math.atan2(q0, p0), math.atan2(q1, p1)

        half = 0.5 * math.pi
        t = np.array([[_pair_correlator(rho, x, y) for y in (0.0, half)]
                      for x in (0.0, half)])
        a0, a1, b0, b1 = (float(v) for v in best_angles)
        for _ in range(CHSH_ASCENT_SWEEPS):
            a0, a1 = best_pair(t, u(b0), u(b1))
            b0, b1 = best_pair(t.T, u(a0), u(a1))
        value = chsh_value(a0, a1, b0, b1)
        if value > best_value:
            best_value = float(value)
            best_angles = np.array([a0, a1, b0, b1])
    return best_value, best_angles


# ---------------------------------------------------------------------------
# Translation-invariant two-body ring expressions


@dataclass
class TIExpression:
    """Translation-invariant two-body expression on a ring of n parties.

    value = alpha * sum_m <M0^(m)> + beta * sum_m <M1^(m)>
          + sum_{k=1}^{floor(n/2)} gamma_k T00^(k) + epsilon_k T11^(k)
          + sum_{k=1}^{n-1} omega_k T01^(k)

    with ``Tij^(k) = sum_m <Mi^(m) Mj^(m+k mod n)>``.  Distances k and n-k
    are kept as distinct coefficients for the 01 block (no folding).
    """

    n: int
    alpha: object = 0
    beta: object = 0
    gamma: tuple = ()
    epsilon: tuple = ()
    omega: tuple = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two parties on the ring")
        half = self.n // 2

        def pad(values, size, name):
            values = tuple(values)
            if len(values) > size:
                raise ValueError(
                    f"{name} takes at most {size} entries (k = 1..{size}), "
                    f"got {len(values)}"
                )
            return values + (0,) * (size - len(values))

        self.gamma = pad(self.gamma, half, "gamma")
        self.epsilon = pad(self.epsilon, half, "epsilon")
        self.omega = pad(self.omega, self.n - 1, "omega")


def ti_classical_bound(expr, max_parties=12):
    """Exact classical bound of a translation-invariant ring expression.

    Full enumeration of the 4^n deterministic strategies, organised as an
    outer product over the two per-site observables so the cross term is a
    single integer matrix product.  Returns beta_C = -min as an exact
    Fraction.
    """
    n = expr.n
    if n > max_parties:
        raise ValueError(f"4^{n} strategies exceed the enumeration guard")
    half = n // 2
    coeffs = [expr.alpha, expr.beta, *expr.gamma, *expr.epsilon, *expr.omega]
    ints, den = to_common_denominator(coeffs)
    a_int, b_int = ints[0], ints[1]
    g_int = ints[2 : 2 + half]
    e_int = ints[2 + half : 2 + 2 * half]
    w_int = ints[2 + 2 * half :]

    # worst-case |value| bound decides whether int64 is safe
    mag = (abs(a_int) + abs(b_int) + sum(map(abs, g_int)) + sum(map(abs, e_int))
           + sum(map(abs, w_int))) * n
    if mag >= 2**62:
        raise ValueError("coefficients too large for exact int64 enumeration")

    masks = np.arange(2**n, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n)) & 1
    spins = (1 - 2 * bits).astype(np.int64)  # bit 0 -> +1, bit 1 -> -1

    # T^(k) for a single observable: sum_m s_m s_{m+k}
    def ring_corrs(s, weights):
        total = np.zeros(s.shape[0], dtype=np.int64)
        for k, w in enumerate(weights, start=1):
            if w:
                total += w * (s * np.roll(s, -k, axis=1)).sum(axis=1)
        return total

    base0 = a_int * spins.sum(axis=1) + ring_corrs(spins, g_int)
    base1 = b_int * spins.sum(axis=1) + ring_corrs(spins, e_int)

    # cross term: sum_k w_k sum_m s0_m s1_{m+k} = s0 . W(s1)
    w_mat = np.zeros((2**n, n), dtype=np.int64)
    for k, w in enumerate(w_int, start=1):
        if w:
            w_mat += w * np.roll(spins, -k, axis=1)

    best = None
    chunk = max(1, min(2**n, 2**22 // max(2**n, 1) + 1))
    for lo in range(0, 2**n, chunk):
        hi = min(lo + chunk, 2**n)
        cross = spins[lo:hi] @ w_mat.T
        block = base0[lo:hi, None] + base1[None, :] + cross
        m = int(block.min())
        if best is None or m < best:
            best = m
    return Fraction(-best, den)


# ---------------------------------------------------------------------------
# JSON wire format for expressions


def expression_to_json(obj):
    """Serialise a BellFunctional or TIExpression (sparse coefficients)."""
    if isinstance(obj, BellFunctional):
        sc = obj.scenario
        entries = []
        n = sc.parties
        for idx in np.argwhere(obj.coefficients != 0.0):
            entries.append(
                {
                    "settings": [int(v) for v in idx[:n]],
                    "outcomes": [int(v) for v in idx[n:]],
                    "value": float(obj.coefficients[tuple(idx)]),
                }
            )
        return {
            "kind": "functional",
            "scenario": {
                "parties": sc.parties,
                "settings": sc.settings,
                "outcomes": sc.outcomes,
            },
            "offset": float(obj.offset),
            "direction": obj.direction,
            "bound": obj.bound,
            "name": obj.name,
            "coefficients": entries,
        }
    if isinstance(obj, TIExpression):
        return {
            "kind": "ti",
            "parties": int(obj.n),
            "alpha": number_to_json(obj.alpha),
            "beta": number_to_json(obj.beta),
            "gamma": [number_to_json(v) for v in obj.gamma],
            "epsilon": [number_to_json(v) for v in obj.epsilon],
            "omega": [number_to_json(v) for v in obj.omega],
        }
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def expression_from_json(data):
    """Load a BellFunctional or TIExpression from its JSON dict."""
    kind = data.get("kind")
    if kind == "functional":
        sc = Scenario(
            data["scenario"]["parties"],
            data["scenario"]["settings"],
            data["scenario"]["outcomes"],
        )
        c = np.zeros(sc.table_shape)
        for entry in data["coefficients"]:
            idx = tuple(entry["settings"]) + tuple(entry["outcomes"])
            c[idx] = float(entry["value"])
        return BellFunctional(
            sc,
            c,
            offset=float(data.get("offset", 0.0)),
            direction=data.get("direction"),
            bound=data.get("bound"),
            name=data.get("name", ""),
        )
    if kind == "ti":
        return TIExpression(
            n=int(data["parties"]),
            alpha=number_from_json(data["alpha"]),
            beta=number_from_json(data["beta"]),
            gamma=tuple(number_from_json(v) for v in data["gamma"]),
            epsilon=tuple(number_from_json(v) for v in data["epsilon"]),
            omega=tuple(number_from_json(v) for v in data["omega"]),
        )
    raise ValueError(f"unknown expression kind {kind!r}")
