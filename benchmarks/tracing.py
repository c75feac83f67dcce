"""Outside-in tracing of bellscope's layers, for the benchmark's traced run.

Timing wrappers are installed on the public functions listed in ``TARGETS``,
in every loaded ``bellscope`` module that binds the function's name, since a
module that did ``from .numerics import lowest_eigen_banded`` holds its own
reference.  Each call records a span ``[name, start, end, parent, extra]``;
spans stay in memory and are written once, at the end.

Run as a script, this module executes one CLI invocation through
``bellscope.cli.main`` in a fresh process, with or without the wrappers, and
writes its wall time, exit code and spans as JSON:

    PYTHONPATH=src python3 benchmarks/tracing.py OUT.json 0|1 CLI-ARGS...

Work the harness does for a span (eigen residuals, page sample counts) runs
after the span ends and is recorded as a ``harness`` span under the same
parent, so it is subtracted from every layer's self time and shows only in
the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import threading
import time

import numpy as np
from scipy.linalg import lapack

MIB = 2**20


# ---------------------------------------------------------------------------
# span recording


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, around=None, after=None):
        """Timing wrapper around ``fn``.

        ``around(extra)`` is a context manager entered just outside the timed
        call; ``after(extra, bound_args, result)`` runs after the span ends.
        """
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                with around(span[4]) if around else contextlib.nullcontext():
                    span[1] = time.perf_counter()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        span[2] = time.perf_counter()
            finally:
                self._stack.pop()
            if after is not None:
                start = time.perf_counter()
                after(span[4], signature.bind(*args, **kwargs).arguments, result)
                self.spans.append(["harness", start, time.perf_counter(), parent, {}])
            return result

        return traced


# ---------------------------------------------------------------------------
# per-span extras


def _banded_matvec(bands, x):
    """A @ x for a symmetric matrix in lower band storage."""
    n = bands.shape[1]
    y = bands[0] * x
    for k in range(1, bands.shape[0]):
        b = bands[k, : n - k]
        y[k:] += b * x[: n - k]
        y[: n - k] += b * x[k:]
    return y


def banded_residual(bands, w, vec=None):
    """||H v - w v|| / ||H|| for the banded H, with ||H|| its max row sum.

    Without a vector, one is made by two steps of inverse iteration at a
    shift just below ``w``; its residual then measures the distance from
    ``w`` to the spectrum.
    """
    bands = np.asarray(bands, dtype=float)
    nb, n = bands.shape[0] - 1, bands.shape[1]
    row_sum = np.abs(bands[0])
    for k in range(1, nb + 1):
        b = np.abs(bands[k, : n - k])
        row_sum[k:] += b
        row_sum[: n - k] += b
    h_norm = max(float(row_sum.max()), np.finfo(float).tiny)
    if vec is None:
        vec = np.ones(n) + np.linspace(0.0, 1e-3, n)
        ab = np.zeros((3 * nb + 1, n))  # LAPACK general band storage, nb rows of fill
        ab[2 * nb] = bands[0] - (w - 1e-10 * h_norm)
        for k in range(1, nb + 1):
            ab[2 * nb - k, k:] = bands[k, : n - k]
            ab[2 * nb + k, : n - k] = bands[k, : n - k]
        lu, piv, info = lapack.dgbtrf(ab, nb, nb)
        for _ in range(2 if info == 0 else 0):
            vec, _ = lapack.dgbtrs(lu, nb, nb, vec, piv)
            vec /= np.linalg.norm(vec)
    vec = np.asarray(vec, dtype=float)
    r = _banded_matvec(bands, vec) - w * vec
    return float(np.linalg.norm(r) / (np.linalg.norm(vec) * h_norm))


def _record_residual(extra, arguments, result):
    w, vec = result
    extra["residual"] = banded_residual(arguments["bands"], w, vec)


def _record_samples(extra, arguments, result):
    extra["samples"] = int(arguments["samples"])


def _rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class RssGrowth:
    """Peak growth of this process's resident set while the block runs.

    A thread samples ``/proc/self/statm`` every 2 ms.  tracemalloc would
    count allocations exactly, but it slows the pure-Python bound loop by
    more than 50x.
    """

    PERIOD = 0.002

    def __init__(self, extra):
        self.extra = extra

    def __enter__(self):
        self.base = self.peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._stop.wait(self.PERIOD):
            self.peak = max(self.peak, _rss_bytes())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())
        self.extra["peak_mb"] = (self.peak - self.base) / MIB
        return False


# ---------------------------------------------------------------------------
# installing the wrappers

# (module, function, around, after)
TARGETS = [
    ("numerics", "lowest_eigen_banded", None, _record_residual),
    ("numerics", "scalar_minimize", None, None),
    ("collective", "bell_operator_bands", None, None),
    ("collective", "max_violation", None, None),
    ("collective", "theta_sweep", None, None),
    ("symmetric", "classical_bound_symmetric", RssGrowth, None),
    ("quantum", "page_experiment", None, _record_samples),
    ("chains", "ground_state_exact", None, None),
    ("chains", "block_entropy_curve", None, None),
    ("mps", "cut_spectra", None, None),
    ("mps", "mps_from_dense", None, None),
    ("mps", "truncate", None, None),
    ("cli", "main", None, None),
]


def install(tracer, targets=TARGETS):
    """Wrap every target wherever a bellscope module binds it.

    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "bellscope" or name.startswith("bellscope."))]
    for module, func, around, after in targets:
        original = getattr(sys.modules[f"bellscope.{module}"], func)
        wrapper = tracer.wrap(f"{module}.{func}", original, around, after)
        for mod in modules:
            if getattr(mod, func, None) is original:
                setattr(mod, func, wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics


def _ancestor_named(spans, index, name):
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, and the call count of every span name."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    calls, self_s, max_call, residual, peak_mb, samples = {}, {}, {}, 0.0, 0.0, 0
    for i, (name, start, end, _, extra) in enumerate(spans):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + duration - covered[i]
        max_call[name] = max(max_call.get(name, 0.0), duration)
        residual = max(residual, extra.get("residual", 0.0))
        peak_mb = max(peak_mb, extra.get("peak_mb", 0.0))
        samples += extra.get("samples", 0)
    in_minimize = sum(1 for i, s in enumerate(spans)
                      if s[0] == "numerics.lowest_eigen_banded"
                      and _ancestor_named(spans, i, "collective.max_violation"))
    compute = (sum(e - s for n, s, e, *_ in spans if n == "cli.main")
               - self_s.get("harness", 0.0))

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    def share(name):
        return t(name) / compute if compute > 0 else 0.0

    page_s = t("quantum.page_experiment")
    return {
        "numerics.lowest_eigen_banded.calls": c("numerics.lowest_eigen_banded"),
        "numerics.lowest_eigen_banded.self_s": t("numerics.lowest_eigen_banded"),
        "numerics.lowest_eigen_banded.max_call_s":
            max_call.get("numerics.lowest_eigen_banded", 0.0),
        "numerics.lowest_eigen_banded.residual_max": residual,
        "numerics.lowest_eigen_banded.share": share("numerics.lowest_eigen_banded"),
        "numerics.evals_per_minimize":
            in_minimize / c("collective.max_violation") if c("collective.max_violation") else 0.0,
        "numerics.scalar_minimize.calls": c("numerics.scalar_minimize"),
        "numerics.scalar_minimize.self_s": t("numerics.scalar_minimize"),
        "collective.bell_operator_bands.calls": c("collective.bell_operator_bands"),
        "collective.bell_operator_bands.self_s": t("collective.bell_operator_bands"),
        "collective.bell_operator_bands.share": share("collective.bell_operator_bands"),
        "collective.max_violation.calls": c("collective.max_violation"),
        "collective.max_violation.self_s": t("collective.max_violation"),
        "collective.theta_sweep.self_s": t("collective.theta_sweep"),
        "symmetric.classical_bound_symmetric.calls": c("symmetric.classical_bound_symmetric"),
        "symmetric.classical_bound_symmetric.self_s": t("symmetric.classical_bound_symmetric"),
        "symmetric.classical_bound_symmetric.peak_alloc_mb": peak_mb,
        "symmetric.classical_bound_symmetric.share": share("symmetric.classical_bound_symmetric"),
        "quantum.page_experiment.self_s": page_s,
        "quantum.page_experiment.samples_per_s": samples / page_s if page_s > 0 else 0.0,
        "chains.ground_state_exact.self_s": t("chains.ground_state_exact"),
        "chains.block_entropy_curve.self_s": t("chains.block_entropy_curve"),
        "mps.cut_spectra.self_s": t("mps.cut_spectra"),
        "mps.mps_from_dense.calls": c("mps.mps_from_dense"),
        "mps.mps_from_dense.self_s": t("mps.mps_from_dense"),
        "mps.truncate.self_s": t("mps.truncate"),
        "cli.main.self_s": t("cli.main"),
        "trace.compute_s": compute,
    }, calls


def import_times(stderr_text):
    """(scipy_s, bellscope_s) from ``python -X importtime -c 'import bellscope.cli'``.

    scipy_s sums the self time of every scipy module; bellscope_s sums the
    cumulative time of the top-level bellscope imports, which include
    everything they pull in.
    """
    scipy_us, bellscope_us = 0, 0
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        self_us, cumulative_us, column = int(parts[0]), int(parts[1]), parts[2]
        name = column.strip()
        level = (len(column) - len(column.lstrip()) - 1) // 2
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
        if level == 0 and (name == "bellscope" or name.startswith("bellscope.")):
            bellscope_us += cumulative_us
    if bellscope_us == 0:
        raise ValueError("importtime output has no bellscope import")
    return scipy_us / 1e6, bellscope_us / 1e6


def main(argv):
    out, traced, cli_argv = argv[0], argv[1] == "1", argv[2:]
    import bellscope.cli

    tracer = Tracer()
    if traced:
        install(tracer)
    start = time.perf_counter()
    try:
        code = bellscope.cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code
    wall_s = time.perf_counter() - start
    with open(out, "w") as fh:
        json.dump({"wall_s": wall_s, "code": code, "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
