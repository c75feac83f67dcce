"""The benchmark's workloads: CLI invocations, seeded inputs and output checks.

Each workload is a fixed list of ``bellscope`` CLI invocations.  Inputs that
vary with the workload seed (the ``--seed`` of ``page`` and ``mps`` and the
scale k of the large-coefficient expression) are drawn here, and expression
files are written before anything is timed, so the program only ever sees
the generated files.

Every check takes the parsed CSV rows of one invocation and returns a list of
problems (empty when the output is correct).  The references are computed
by the harness itself: inertia counts on a Bell operator built from the
collective spin matrices, exact ``Fraction`` arithmetic for classical values,
and Page's exact formula for the mean entropy.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse

MURCIA = (-2, 0, 1, -1, 1)  # (alpha, beta, gamma, delta, epsilon), bound 2n

# Criterion 5 of the paper reproduction: murcia has no violation at n <= 4
# and its first violation, at n = 5, has value 0.1515.
FIRST_VIOLATION_N = 5
FIRST_VIOLATION_QV = 0.1515

# Tolerance of the eigenvalue checks (the Krylov path promises 1e-7).
EIGEN_RTOL = 1e-6


@dataclass
class Invocation:
    label: str
    argv: list[str]  # arguments after ``python -m bellscope.cli``, without --out
    check: Callable[[list[dict]], list[str]]


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    # Traced functions that must record calls, and ones that must record none.
    exercised: tuple[str, ...]
    forbidden: tuple[str, ...] = ()
    inputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# collective-violation checks


def bell_operator_bands(coeffs, n, theta):
    """Lower band storage (3, n + 1) of a PI expression's Bell operator.

    Built with sparse matrix algebra straight from the definition, with
    A = 2 Jz and B = 2 (cos Jz + sin Jx) on the Dicke basis k = 0..n:
    I = alpha A + beta B + gamma/2 (A^2 - n) + delta ((AB + BA)/2 - n cos)
        + epsilon/2 (B^2 - n).
    """
    alpha, beta, gamma, delta, epsilon = (float(c) for c in coeffs)
    c, s = math.cos(theta), math.sin(theta)
    k = np.arange(n + 1, dtype=float)
    ladder = np.sqrt(k[1:] * (n - k[1:] + 1.0))
    a = scipy.sparse.diags(n - 2.0 * k)
    b = c * a + s * scipy.sparse.diags([ladder, ladder], [1, -1])
    eye = scipy.sparse.identity(n + 1)
    h = (alpha * a + beta * b + 0.5 * gamma * (a @ a - n * eye)
         + delta * (0.5 * (a @ b + b @ a) - n * c * eye)
         + 0.5 * epsilon * (b @ b - n * eye))
    bands = np.zeros((3, n + 1))
    for offset in range(3):
        bands[offset, : n + 1 - offset] = h.diagonal(-offset)
    return bands


def _positive_definite(bands, shift):
    shifted = bands.copy()
    shifted[0] -= shift
    try:
        scipy.linalg.cholesky_banded(shifted, lower=True)
    except np.linalg.LinAlgError:
        return False
    return True


def lowest_within(n, theta, value, tol):
    """Whether the lowest eigenvalue of murcia(n)'s operator is within tol of value.

    Sylvester's law of inertia: H - (value - tol) I must be positive
    definite and H - (value + tol) I must not be.  A dense eigvalsh at
    n = 2500 cost more than the workload it checks.
    """
    bands = bell_operator_bands(MURCIA, n, theta)
    return _positive_definite(bands, value - tol) and not _positive_definite(bands, value + tol)


def _tol(value):
    return EIGEN_RTOL * max(1.0, abs(value))


def _check_scan(ns, census):
    def check(rows):
        problems = []
        got = [int(r["n"]) for r in rows]
        if got != ns:
            return [f"scan rows for n = {got[:3]}..., expected {ns[:3]}..."]
        for r in rows:
            n, qv, theta = int(r["n"]), float(r["qv"]), float(r["theta_star"])
            beta_c = float(r["beta_c"])
            if beta_c != 2 * n:
                problems.append(f"n={n}: beta_c {beta_c} != {2 * n}")
            if qv > 0:  # the reported lowest eigenvalue is -qv - beta_c
                ok = lowest_within(n, theta, -qv - beta_c, _tol(beta_c + qv))
            else:  # no violation: the lowest eigenvalue is at least -beta_c
                ok = _positive_definite(bell_operator_bands(MURCIA, n, theta),
                                        -beta_c - _tol(beta_c))
            if not ok:
                problems.append(f"n={n}: qv {qv!r} is not the violation at theta {theta!r}")
        if census:
            qv = {int(r["n"]): float(r["qv"]) for r in rows}
            for n in range(ns[0], FIRST_VIOLATION_N):
                if qv[n] > 1e-9 * 2 * n:
                    problems.append(f"census: violation {qv[n]!r} at n={n}")
            first = qv[FIRST_VIOLATION_N]
            if abs(first - FIRST_VIOLATION_QV) > 5e-4:
                problems.append(f"census: first violation {first!r}, expected ~0.1515")
        return problems

    return check


def _check_sweep(n, thetas):
    def check(rows):
        if len(rows) != len(thetas):
            return [f"sweep has {len(rows)} rows, expected {len(thetas)}"]
        problems = []
        for r, want in zip(rows, thetas):
            theta, value = float(r["theta"]), float(r["value"])
            if int(r["n"]) != n or abs(theta - want) > 1e-9:
                problems.append(f"sweep row at n={r['n']}, theta={theta!r}")
            elif not lowest_within(n, theta, value, _tol(value)):
                problems.append(f"theta={theta!r}: {value!r} is not the lowest eigenvalue")
        return problems

    return check


# ---------------------------------------------------------------------------
# exact-bound checks


def _pi_value(coeffs, counts):
    """Exact value of a PI expression on a deterministic strategy's counts."""
    a, b, c, d = counts
    n = a + b + c + d
    sig0, sig1, same = a + b - c - d, a - b + c - d, a - b - c + d
    alpha, beta, gamma, delta, epsilon = coeffs
    return (alpha * sig0 + beta * sig1 + gamma * Fraction(sig0 * sig0 - n, 2)
            + delta * (sig0 * sig1 - same) + epsilon * Fraction(sig1 * sig1 - n, 2))


def _check_bound(n, coeffs, bound):
    def check(rows):
        values = {r["quantity"]: r["value"] for r in rows}
        problems = []
        if values.get("match") != "true":
            problems.append(f"match is {values.get('match')!r}, not true")
        try:
            counts = tuple(int(v) for v in values["witness_counts"].split("|"))
        except (KeyError, ValueError):
            return problems + [f"unreadable witness {values.get('witness_counts')!r}"]
        if len(counts) != 4 or min(counts) < 0 or sum(counts) != n:
            return problems + [f"witness {counts} is not a strategy of {n} parties"]
        value = _pi_value(coeffs, counts)
        if value != -bound:
            problems.append(f"witness {counts} gives {value}, not -{bound}")
        return problems

    return check


def _expression_json(n, coeffs, bound, name):
    def num(v):  # Fractions travel as 'p/q' strings, so they load as Fractions
        return str(v) if isinstance(v, Fraction) else v

    keys = ("alpha", "beta", "gamma", "delta", "epsilon")
    data = {"n": n, **{k: num(v) for k, v in zip(keys, coeffs)},
            "bound": num(bound), "bound_provenance": "closed-form", "name": name}
    return data


def _dicke(n):
    """Dicke-tailored expression and its closed-form bound, as Fractions."""
    half_defect = Fraction(math.ceil(n / 2)) - Fraction(n, 2)
    coeffs = (n * (n - 1) * half_defect, (n - 1) * half_defect,
              Fraction(n * (n - 1), 2), Fraction(n, 2), Fraction(-1))
    return coeffs, Fraction(n * (n - 1) * math.ceil((n + 2) / 2), 2)


# ---------------------------------------------------------------------------
# entanglement checks


def page_exact_mean(m, n):
    """Page's exact mean entropy (nats) of C^m in a Haar state on C^m x C^n."""
    return sum(1.0 / k for k in range(n + 1, m * n + 1)) - (m - 1) / (2.0 * n)


def _check_page(m, n, samples):
    def check(rows):
        (r,) = rows
        mean, se = float(r["mean_entropy_nats"]), float(r["std_error"])
        exact = page_exact_mean(m, n)
        problems = []
        if int(r["samples"]) != samples:
            problems.append(f"page ran {r['samples']} samples, not {samples}")
        if not abs(mean - exact) <= 5 * se:
            problems.append(f"page mean {mean!r} is not within 5 x {se!r} of {exact!r}")
        return problems

    return check


def _check_mps(sites, dmaxes):
    def check(rows):
        if [int(r["dmax"]) for r in rows] != dmaxes:
            return [f"mps rows for dmax {[r['dmax'] for r in rows]}, expected {dmaxes}"]
        problems = []
        for r in rows:
            if int(r["n_sites"]) != sites:
                problems.append(f"mps n_sites {r['n_sites']}")
            if r["within_bound"] != "true":
                problems.append(f"dmax={r['dmax']}: err2 {r['err2']} exceeds bound {r['bound']}")
            if int(r["max_bond"]) > int(r["dmax"]):
                problems.append(f"dmax={r['dmax']}: max_bond {r['max_bond']}")
        return problems

    return check


def _check_area_law(sites):
    def check(rows):
        s = [float(r["entropy_bits"]) for r in rows]
        if [int(r["block"]) for r in rows] != list(range(1, sites)):
            return [f"area-law blocks {[r['block'] for r in rows]}"]
        return [f"S_{r + 1} = {s[r]!r} but S_{sites - r - 1} = {s[-r - 1]!r}"
                for r in range(len(s)) if abs(s[r] - s[-r - 1]) > 1e-8]

    return check


# ---------------------------------------------------------------------------
# the workloads


EIGEN = "numerics.lowest_eigen_banded"
MINIMIZE = "numerics.scalar_minimize"
BANDS = "collective.bell_operator_bands"
MAXV = "collective.max_violation"
SWEEP = "collective.theta_sweep"
COUNT = "symmetric.classical_bound_symmetric"
NAMES = ("violation-small", "violation-large", "exact-bound", "entanglement")


def build(name, seed, input_dir):
    """The workload ``name`` with its inputs drawn from ``seed``.

    Expression files go to ``input_dir`` (a ``pathlib.Path``).
    """
    rng = random.Random(seed)
    if name == "violation-small":
        ns = list(range(2, 101))
        return Workload(name, [Invocation(
            "scan", ["scan", "--family", "murcia", "--n-min", "2", "--n-max", "100"],
            _check_scan(ns, census=True))],
            exercised=(EIGEN, MINIMIZE, BANDS, MAXV, "cli.main"))
    if name == "violation-large":
        thetas = list(np.linspace(0.0, math.pi, 5))
        return Workload(name, [
            Invocation("scan", ["scan", "--family", "murcia", "--n-min", "300",
                                "--n-max", "1500", "--n-step", "600"],
                       _check_scan([300, 900, 1500], census=False)),
            Invocation("sweep", ["theta-sweep", "--family", "murcia", "--n", "2500",
                                 "--points", "5"],
                       _check_sweep(2500, thetas)),
        ], exercised=(EIGEN, MINIMIZE, BANDS, MAXV, SWEEP, "cli.main"))
    if name == "exact-bound":
        k = rng.randrange(10**13, 10**14)
        dicke_coeffs, dicke_bound = _dicke(3000)
        specs = [
            ("murcia-3000", 3000, MURCIA, 6000),
            ("murcia-1000-scaled", 1000, tuple(k * c for c in MURCIA), 2000 * k),
            ("dicke-3000", 3000, dicke_coeffs, dicke_bound),
        ]
        invocations = []
        for label, n, coeffs, bound in specs:
            path = input_dir / f"{label}.json"
            path.write_text(json.dumps(_expression_json(n, coeffs, bound, label)))
            invocations.append(Invocation(label, ["bound", "--expr", str(path)],
                                          _check_bound(n, coeffs, bound)))
        return Workload(name, invocations, exercised=(COUNT, "cli.main"),
                        inputs={"k": k})
    if name == "entanglement":
        page_seed, mps_seed = rng.randrange(2**31), rng.randrange(2**31)
        return Workload(name, [
            Invocation("page", ["page", "--m", "2", "--n", "16", "--samples", "40000",
                                "--seed", str(page_seed)],
                       _check_page(2, 16, 40000)),
            Invocation("area-law", ["area-law", "--sites", "12", "--field", "4.0"],
                       _check_area_law(12)),
            Invocation("mps", ["mps", "--random", "18", "--dmax", "1,4,16",
                               "--seed", str(mps_seed)],
                       _check_mps(18, [1, 4, 16])),
        ], exercised=("quantum.page_experiment", "chains.ground_state_exact",
                      "chains.block_entropy_curve", "mps.cut_spectra",
                      "mps.mps_from_dense", "mps.truncate", "cli.main"),
            forbidden=(EIGEN, COUNT),
            inputs={"page_seed": page_seed, "mps_seed": mps_seed})
    raise ValueError(f"unknown workload {name!r}")
