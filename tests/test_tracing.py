"""The benchmark's traced mode still runs: ``benchmarks/tracing.py`` wraps
each layer's public functions wherever a loaded module binds them, which
relies on ``cli._lazy`` putting every submodule in ``sys.modules`` and on
the parameter names ``bands`` (eigen residuals) and ``samples`` (Page sample
counts).  Each command runs once, traced, in a fresh interpreter."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellscope.symmetric import expression_to_json, murcia

ROOT = Path(__file__).resolve().parents[1]
EIGEN = "numerics.lowest_eigen_banded"


@pytest.mark.parametrize("argv, layers", [
    (["scan", "--family", "murcia", "--n-max", "12"],
     [EIGEN, "numerics.scalar_minimize", "collective.bell_operator_bands",
      "collective.max_violation"]),
    (["theta-sweep", "--family", "murcia", "--n", "250", "--points", "3"],  # inertia path
     [EIGEN, "collective.bell_operator_bands", "collective.theta_sweep"]),
    (["bound", "--expr", "murcia.json"], ["symmetric.classical_bound_symmetric"]),
    (["page", "--m", "2", "--n", "4", "--samples", "100"], ["quantum.page_experiment"]),
    (["area-law", "--sites", "6"], ["chains.ground_state_exact", "chains.block_entropy_curve"]),
    (["mps", "--random", "6", "--dmax", "1,2"],
     ["mps.cut_spectra", "mps.mps_from_dense", "mps.truncate"]),
], ids=["scan", "theta-sweep", "bound", "page", "area-law", "mps"])
def test_traced_run_records_every_layer(tmp_path, argv, layers):
    (tmp_path / "murcia.json").write_text(json.dumps(expression_to_json(murcia(8))))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "tracing.py"), "out.json", "1", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "out.json").read_text())
    assert record["code"] == 0
    spans = record["spans"]
    names = {span[0] for span in spans}
    for layer in ["cli.main", *layers]:
        assert layer in names, layer
    for name, _, _, _, extra in spans:
        if name == EIGEN:
            assert math.isfinite(extra["residual"])
        if name == "quantum.page_experiment":
            assert extra["samples"] == 100
