#!/usr/bin/env python3
"""bellscope benchmark harness.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src/``.

``--trace 0`` measures end to end: each invocation of the workload is a
fresh ``python -m bellscope.cli`` process writing ``--out`` into a scratch
directory, and whole workload repetitions run until ``--seconds`` have
passed.  It reports wall_s, setup_s and peak_rss_mb.

``--trace 1`` runs each invocation through ``cli.main`` in a fresh process
twice, untraced and then with timing wrappers on each layer's public
functions (tracing.py), and reports the per-layer metrics and the tracing
overhead.

Outputs are checked after the measuring (see workloads.py).  The last line
of stdout is the JSON result; the full record, with the environment, goes to
``.bench_work/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, here and in every child, set before numpy loads.  The
# workloads make small, latency-bound LAPACK calls; on a shared 2-core
# machine a second thread made them slower and noisier (see README.md).
BLAS_THREADS = 1
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WARMUP_VERSIONS = 2
MIN_REPS = 2  # workload repetitions per run, however long one takes
IMPORT_REPS = 3
DEADLINE_S = 170.0  # a run ends, with a result, within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Process:
    wall_s: float
    peak_rss_mb: float
    code: int
    stdout: str
    stderr: str


class Harness:
    def __init__(self, workload, work_dir, deadline):
        self.workload = workload
        self.work = work_dir
        self.deadline = deadline
        self.attempted = 0
        self.failures = []  # (invocation label, problem)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work_dir))

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append((label, "; ".join(problems)))

    def spawn(self, argv, tag):
        """Run one child to completion; its peak RSS comes from its own rusage."""
        out, err = self.work / f"{tag}.stdout", self.work / f"{tag}.stderr"
        with open(out, "w") as fo, open(err, "w") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Process(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                       out.read_text(), err.read_text())

    def check_output(self, inv, code, out_path, stderr=""):
        """Problems with one invocation's CSV output, sidecar excluded."""
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        try:
            with open(out_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            return inv.check(rows)
        except (OSError, ValueError, KeyError, IndexError, TypeError, csv.Error) as exc:
            return [f"unreadable output: {exc!r}"]

    @staticmethod
    def check_sidecar(inv, out_path):
        try:
            sidecar = json.loads(Path(str(out_path) + ".run.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"unreadable sidecar: {exc!r}"]
        command = sidecar.get("command") if isinstance(sidecar, dict) else sidecar
        return [] if command == inv.argv[0] else [f"sidecar command {command!r}"]

    # -----------------------------------------------------------------------
    # end to end

    def version(self, cli, tag):
        p = self.spawn(cli + ["--version"], tag)
        ok = p.code == 0 and p.stdout.startswith("bellscope ")
        self.record("--version", [] if ok else [f"--version: exit {p.code}, {p.stdout!r}"])
        return p.wall_s

    def end_to_end(self, seconds):
        """Repeat the workload for ``seconds``, a set-up sample before each invocation.

        The host's speed wanders by tens of percent over seconds, so every
        figure is a median over samples spread across the whole run rather
        than taken in one burst.
        """
        cli = [sys.executable, "-m", "bellscope.cli"]
        for i in range(WARMUP_VERSIONS):  # page cache and bytecode; not timed
            self.version(cli, f"warmup-{i}")
        setup = []
        reps = []  # per repetition: [(invocation, Process, out path)]
        start = time.perf_counter()
        while len(reps) < MIN_REPS or (time.perf_counter() - start < seconds
                                       and time.monotonic() < self.deadline - 60):
            rep_dir = Path(tempfile.mkdtemp(dir=self.work, prefix="rep-"))
            rep = []
            for inv in self.workload.invocations:
                setup.append(self.version(cli, f"version-{len(setup)}"))
                out = rep_dir / f"{inv.label}.csv"
                rep.append((inv, self.spawn(cli + inv.argv + ["--out", str(out)],
                                            f"{inv.label}-{len(reps)}"), out))
            reps.append(rep)
        checked = {}  # (label, output bytes) -> problems; repeats are byte-identical
        for rep in reps:  # checks stay outside the measured region
            for inv, p, out in rep:
                if p.code != 0 or not out.is_file():
                    problems = self.check_output(inv, p.code, out, p.stderr)
                else:
                    key = (inv.label, hashlib.sha256(out.read_bytes()).hexdigest())
                    if key not in checked:
                        checked[key] = self.check_output(inv, p.code, out, p.stderr)
                    problems = checked[key] + self.check_sidecar(inv, out)
                self.record(inv.label, problems)
            shutil.rmtree(rep[0][2].parent)
        by_invocation = {inv.label: [rep[i][1].wall_s for rep in reps]
                         for i, inv in enumerate(self.workload.invocations)}
        metrics = {
            "wall_s": sum(statistics.median(v) for v in by_invocation.values()),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(max(p.peak_rss_mb for _, p, _ in rep)
                                             for rep in reps),
        }
        detail = {"reps": len(reps), "setup_runs_s": setup,
                  "invocation_wall_s": by_invocation,
                  "distinct_outputs_checked": len(checked)}
        return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, detail

    # -----------------------------------------------------------------------
    # traced

    def child_pass(self, traced, spans):
        """Run each invocation through ``cli.main`` in a fresh child process.

        Returns the summed wall time of the ``cli.main`` calls, which leaves
        out interpreter start and imports; traced spans are appended to
        ``spans`` with their invocation index.
        """
        out_dir = Path(tempfile.mkdtemp(dir=self.work, prefix=f"trace{int(traced)}-"))
        total = 0.0
        for index, inv in enumerate(self.workload.invocations):
            out, report = out_dir / f"{inv.label}.csv", out_dir / f"{inv.label}.trace.json"
            p = self.spawn([sys.executable, str(HERE / "tracing.py"), str(report),
                            str(int(traced))] + inv.argv + ["--out", str(out)],
                           f"{inv.label}-trace{int(traced)}")
            try:
                child = json.loads(report.read_text())
            except (OSError, ValueError):
                child = {"code": p.code, "wall_s": p.wall_s, "spans": []}
            total += child["wall_s"]
            offset = len(spans)
            for name, start, end, parent, extra in child["spans"]:
                spans.append([name, start, end, None if parent is None else parent + offset,
                              extra, index])
            problems = self.check_output(inv, child["code"], out, p.stderr)
            self.record(inv.label, problems or self.check_sidecar(inv, out))
        shutil.rmtree(out_dir)
        return total

    def traced(self):
        scipy_s, bellscope_s = [], []
        for i in range(IMPORT_REPS):
            p = self.spawn([sys.executable, "-X", "importtime", "-c", "import bellscope.cli"],
                           f"importtime-{i}")
            try:
                times = tracing.import_times(p.stderr) if p.code == 0 else None
            except ValueError:
                times = None
            self.record("importtime", [] if times else [f"importtime: exit {p.code}"])
            if times:
                scipy_s.append(times[0])
                bellscope_s.append(times[1])
        untraced_s = self.child_pass(False, [])
        spans = []
        traced_s = self.child_pass(True, spans)
        with open(self.work / "spans.jsonl", "w") as fh:
            for name, start, end, parent, extra, invocation in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "invocation": invocation, **extra}) + "\n")
        layers, calls = tracing.layer_metrics([s[:5] for s in spans])
        problems = [f"{name} recorded no calls"
                    for name in self.workload.exercised if not calls.get(name)]
        problems += [f"{name} recorded {calls[name]} calls"
                     for name in self.workload.forbidden if calls.get(name)]
        layers["cli.import.scipy_s"] = statistics.median(scipy_s) if scipy_s else 0.0
        layers["cli.import.bellscope_s"] = statistics.median(bellscope_s) if bellscope_s else 0.0
        layers["trace.overhead_s"] = traced_s - untraced_s
        detail = {"untraced_s": untraced_s, "traced_s": traced_s,
                  "spans": len(spans), "calls": calls}
        return {k: (v, _unit(k)) for k, v in layers.items()}, detail, problems


def _unit(name):
    for suffix, unit in ((".calls", "count"), ("per_s", "1/s"), ("_s", "s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "bellscope" / "cli.py").is_file():
        print(f"error: no bellscope sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    workload = workloads.build(args.workload, args.seed, work / "inputs")
    harness = Harness(workload, work, deadline)
    env = environment()

    problems = []
    if args.trace:
        metrics, detail, problems = harness.traced()
    else:
        metrics, detail = harness.end_to_end(args.seconds)
    failed = len(harness.failures)
    correct = failed == 0 and not problems

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "inputs": workload.inputs, "environment": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "attempted": harness.attempted, "failed": failed,
              "error_rate": failed / harness.attempted,
              "failures": harness.failures + [("trace", p) for p in problems],
              "detail": detail}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs {json.dumps(workload.inputs)}")
    print("environment " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<52} {failed / harness.attempted:>14.6g} ratio"
          f"  ({failed} of {harness.attempted} invocations failed)")
    for label, problem in record["failures"]:
        print(f"  FAILED {label}: {problem}")
    print(json.dumps({"correct": correct, "attempted": harness.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
