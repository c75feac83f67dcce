"""Bell scenarios: behaviors, Bell functionals, brute-force local bounds over
deterministic strategies, and translation-invariant ring expressions.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import _require_size
from .symmetric import number_from_json, number_to_json, to_common_denominator

__all__ = [
    "Scenario",
    "Behavior",
    "BellFunctional",
    "TIExpression",
    "BoundReport",
    "is_nonsignalling",
    "local_bound_bruteforce",
    "ti_classical_bound",
    "chsh_probability_functional",
    "chsh_correlator_functional",
    "chsh_quantum_demo",
    "qubit_observable",
    "expression_to_json",
    "expression_from_json",
]

TABLE_GUARD = 10**7  # max dense-table entries (m d)^n, and max strategies d^(m n)
POSITIVITY_TOL = 1e-10
NORMALISATION_TOL = 1e-9
SIGNALLING_TOL = 1e-9
TI_MAX_PARTIES = 12  # ti_classical_bound enumerates 4^n strategies

OUTCOME_SIGNS = np.array([1.0, -1.0])


def _map_parties(t, maps):
    """Apply ``maps[i]``, shape ``(out, in)``, to axis i of ``t`` (one tensordot each)."""
    for mat in maps:
        t = np.tensordot(t, mat, axes=(0, 1))
    return t


def _pair_axes(t):
    """Merge axes i and n + i into one axis per party: (x_i, a_i) for a
    settings-first table, (ket_i, bra_i) for an operator of shape ``dims * 2``."""
    n = t.ndim // 2
    order = [k for i in range(n) for k in (i, n + i)]
    return t.transpose(order).reshape([t.shape[i] * t.shape[n + i] for i in range(n)])


def _one_hot(responses, d):
    """Rows selecting ``(x, responses[..., x])`` on a party's (x, a) axis."""
    r = np.asarray(responses)
    return (r[..., None] == np.arange(d)).reshape(r.shape[:-1] + (-1,)).astype(float)


@dataclass(frozen=True)
class Scenario:
    """An (n, m, d) Bell scenario: n parties, m settings, d outcomes each,
    whose dense table has at most ``TABLE_GUARD`` entries."""

    parties: int
    settings: int
    outcomes: int

    def __post_init__(self):
        if min(self.parties, self.settings, self.outcomes) < 1:
            raise ValueError(f"scenario fields must be positive, got {self}")
        _require_size("table", "entries (m d)^n", TABLE_GUARD,
                      self.settings * self.outcomes, self.parties)

    @property
    def table_shape(self):
        return (self.settings,) * self.parties + (self.outcomes,) * self.parties


@dataclass(eq=False)
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


@dataclass(eq=False)
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


@dataclass
class BoundReport:
    """Exact deterministic extremes of a functional."""

    max_value: float
    min_value: float


def local_bound_bruteforce(functional):
    """Exact local (LHV) extremes by full deterministic enumeration.

    Covers all ``d**(m*n)`` response assignments, at most ``TABLE_GUARD``, and
    returns both the maximum and the minimum: mixtures of deterministic
    points can never leave ``[min, max]``.

    Each party's ``d**m`` response functions are one-hot rows on its (x, a)
    axis, so one :func:`_map_parties` values every strategy.
    """
    sc = functional.scenario
    n, m, d = sc.parties, sc.settings, sc.outcomes
    _require_size("enumeration", "strategies d^(m n)", TABLE_GUARD, d, m * n)
    per_party = np.indices((d,) * m).reshape(m, -1).T
    select = _one_hot(per_party, d)
    values = _map_parties(_pair_axes(functional.coefficients), [select] * n)
    off = functional.offset
    return BoundReport(float(values.max() + off), float(values.min() + off))


# ---------------------------------------------------------------------------
# Nonsignalling check


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
    w = np.array([[1.0, 1.0], [1.0, -1.0]])
    c = w[:, :, None, None] * np.multiply.outer(OUTCOME_SIGNS, OUTCOME_SIGNS)
    return BellFunctional(Scenario(2, 2, 2), c, direction="<=", bound=2.0,
                          name="chsh-correlator")


def qubit_observable(theta):
    """Binary observable cos(theta) sigma_z + sin(theta) sigma_x."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def chsh_quantum_demo():
    """Best CHSH correlator of the maximally entangled two-qubit state over
    planar measurements.

    In the (z, x) plane the correlator is bilinear, ``C(a, b) = u(a)^T T
    u(b)`` with ``u(t) = (cos t, sin t)`` and ``T`` the (z, x) block of the
    correlation matrix, so the optimum is ``2 ||T||_F`` (Horodecki,
    Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)): Bob measures at
    ``+-b`` with ``tan b = |T e_x| / |T e_z|``, and Alice along ``T e_z``
    and ``T e_x``.  This gives the Tsirelson value ``2 sqrt(2)``.  Returns
    the value and the angles ``(a0, a1, b0, b1)``.
    """
    from .quantum import max_entangled

    a = max_entangled(2).amplitudes
    rho = np.outer(a, a.conj()).reshape(2, 2, 2, 2)
    # row k of a party's map, E_k^T flattened, traces its (ket, bra) axis
    observables = np.array([qubit_observable(0.0), qubit_observable(0.5 * math.pi)])
    maps = [observables.transpose(0, 2, 1).reshape(2, -1)] * 2
    t = _map_parties(_pair_axes(rho), maps).real
    # u(b0) + u(b1) = 2 cos(b) e_z and u(b0) - u(b1) = 2 sin(b) e_x
    b = math.atan2(np.linalg.norm(t[:, 1]), np.linalg.norm(t[:, 0]))
    angles = np.array([math.atan2(t[1, 0], t[0, 0]), math.atan2(t[1, 1], t[0, 1]), b, -b])
    return 2.0 * float(np.linalg.norm(t)), angles


# ---------------------------------------------------------------------------
# Translation-invariant two-body ring expressions


@dataclass
class TIExpression:
    """Translation-invariant two-body expression on a ring of n parties.

    value = alpha * sum_m <M0^(m)> + beta * sum_m <M1^(m)>
          + sum_{k=1}^{floor(n/2)} gamma_k T00^(k) + epsilon_k T11^(k)
          + sum_{k=1}^{n-1} omega_k T01^(k)

    with ``Tij^(k) = sum_m <Mi^(m) Mj^(m+k mod n)>``.  Distances k and n-k
    are kept as distinct coefficients for the 01 block (no folding).  A ring
    above ``TI_MAX_PARTIES`` parties is refused before any tuple is padded.
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
        _require_size("ring enumeration", "parties n", TI_MAX_PARTIES, self.n)
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


def ti_classical_bound(expr):
    """Exact classical bound of a translation-invariant ring expression.

    Full enumeration of the 4^n deterministic strategies, organised as an
    outer product over the two per-site observables so the cross term is a
    single integer matrix product.  Returns beta_C = -min as an exact
    Fraction.
    """
    n = expr.n
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
