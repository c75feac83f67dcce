"""Seeded commands are byte-reproducible across processes and match golden
stdout, and bad sample counts are refused with a clear error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellscope.chains import ground_state_exact, transverse_ising_chain
from bellscope.numerics import seeded_generator
from bellscope.quantum import page_experiment

SRC = Path(__file__).resolve().parents[1] / "src"

SEEDED_COMMANDS = {
    "page": ["page", "--m", "2", "--n", "16", "--samples", "3000", "--seed", "7"],
    "mps": ["mps", "--random", "10", "--dmax", "1,4,16", "--seed", "3"],
    # dimension 1024: the matrix-free Lanczos branch of ground_state_exact
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
        page_experiment(2, 4, samples, seeded_generator(1))


def test_page_cli_reports_empty_sample():
    from bellscope.cli import main

    assert main(["page", "--m", "2", "--n", "4", "--samples", "0"]) == 2


# stdout of seeded CLI runs, captured before the single-sweep MPS truncation,
# the QR-first cut spectra and the Gram-matrix page spectra replaced the
# plain SVD sweeps; those changes must leave every printed digit in place.
GOLDEN_STDOUT = {
    "mps": (["mps", "--random", "10", "--dmax", "1,4,16", "--seed", "3"], (
        'n_sites,dmax,err2,bound,within_bound,max_bond\n'
        '10,1,0.987919911455,13.3279950404,true,1\n'
        '10,4,0.824417413139,5.14735201524,true,4\n'
        '10,16,0.113962915857,0.227925831715,true,16\n'
    )),
    "page": (["page", "--m", "3", "--n", "5", "--samples", "777", "--seed", "2"], (
        'm,n,samples,mean_entropy_nats,std_error,mean_purity,asymptotic_mean,asymptotic_purity\n'
        '3,5,777,0.836868319615,0.00373895831722,0.49884332423,0.798612288668,0.533333333333\n'
    )),
    "area-law": (["area-law", "--sites", "10", "--boundary", "periodic"], (
        'block,entropy_bits\n'
        '1,0.209036108507\n'
        '2,0.248498649552\n'
        '3,0.255180897793\n'
        '4,0.256602023775\n'
        '5,0.25685673114\n'
        '6,0.256602023775\n'
        '7,0.255180897793\n'
        '8,0.248498649552\n'
        '9,0.209036108507\n'
    )),
    # the seeded random-chain draws: complex bond terms and real couplings
    "thermal-mi": (["thermal-mi", "--sites", "4", "--cut", "2", "--model", "random",
                    "--seed", "5"], (
        'beta,mutual_info,bound,ok\n'
        '0.1,0.00902131603221,0.759468032503,true\n'
        '1,0.296819810542,7.59468032503,true\n'
        '5,0.36591555581,37.9734016252,true\n'
    )),
    "gibbs-mi": (["gibbs-mi", "--sites", "5", "--cut", "2", "--local-dim", "3",
                  "--seed", "5"], (
        'beta,mutual_info,bound,ok\n'
        '0.1,0.00472630316085,1.58496250072,true\n'
        '1,0.267430991462,1.58496250072,true\n'
        '5,0.304437361779,1.58496250072,true\n'
    )),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_seeded_stdout_matches_golden(name):
    argv, expected = GOLDEN_STDOUT[name]
    proc = subprocess.run(
        [sys.executable, "-m", "bellscope.cli", *argv], capture_output=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == expected.encode()
