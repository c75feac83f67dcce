"""Seeded commands are byte-reproducible across processes, and bad sample
counts are refused with a clear error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellscope.chains import ground_state_exact, transverse_ising_chain
from bellscope.numerics import RandomSource
from bellscope.quantum import page_experiment

SRC = Path(__file__).resolve().parents[1] / "src"

SEEDED_COMMANDS = {
    "page": ["page", "--m", "2", "--n", "16", "--samples", "3000", "--seed", "7"],
    "mps": ["mps", "--random", "10", "--dmax", "1,4,16", "--seed", "3"],
    # dimension 1024: the sparse Lanczos branch of ground_state_exact
    "area-law": ["area-law", "--sites", "10"],
    "scan": ["scan", "--family", "murcia", "--n-max", "12"],
}


def run_twice(argv, tmp_path):
    """stdout of two separate processes; csv via --out also brings the sidecar."""
    outputs = []
    for run in range(2):
        workdir = tmp_path / f"run{run}"
        workdir.mkdir()
        files = []
        for fmt in ("csv", "json"):
            proc = subprocess.run(
                [sys.executable, "-m", "bellscope.cli", *argv, "--format", fmt,
                 "--out", f"out.{fmt}"],
                cwd=workdir, capture_output=True, timeout=300,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(
                    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
            )
            assert proc.returncode == 0, proc.stderr.decode()
            files += [(workdir / f"out.{fmt}").read_bytes(),
                      (workdir / f"out.{fmt}.run.json").read_bytes()]
        outputs.append(files)
    return outputs


@pytest.mark.parametrize("name", sorted(SEEDED_COMMANDS))
def test_seeded_command_is_byte_reproducible(name, tmp_path):
    first, second = run_twice(SEEDED_COMMANDS[name], tmp_path)
    assert first[0].strip()
    for a, b in zip(first, second):
        assert a == b


def test_sparse_ground_state_repeats_in_process():
    ham = transverse_ising_chain(10, j=1.0, g=2.0)
    e1, psi1 = ground_state_exact(ham)
    e2, psi2 = ground_state_exact(ham)
    assert e1 == e2
    assert (psi1.amplitudes == psi2.amplitudes).all()


@pytest.mark.parametrize("samples", [0, -3])
def test_page_refuses_empty_sample(samples):
    with pytest.raises(ValueError, match="at least one sample"):
        page_experiment(2, 4, samples, RandomSource(1))


def test_page_cli_reports_empty_sample():
    from bellscope.cli import main

    assert main(["page", "--m", "2", "--n", "4", "--samples", "0"]) == 2
