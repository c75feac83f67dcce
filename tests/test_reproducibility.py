"""Seeded commands are byte-reproducible across processes and match golden
stdout, and bad sample counts are refused with a clear error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from golden.regen import GOLDEN, capture, capture_refusal

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
    # S(AB) is the Shannon entropy of the Boltzmann weights, so at beta = 0,
    # where rho_A and rho_B are maximally mixed, the mutual information is 0
    "thermal-mi-heisenberg": (["thermal-mi", "--model", "heisenberg", "--sites", "6",
                               "--cut", "3", "--beta", "0,0.1,1"], (
        'beta,mutual_info,bound,ok\n'
        '0,0,0,true\n'
        '0.1,0.000967578417426,0.15,true\n'
        '1,0.106872229302,1.5,true\n'
    )),
    "gibbs-mi": (["gibbs-mi", "--sites", "5", "--cut", "2", "--local-dim", "3",
                  "--seed", "5"], (
        'beta,mutual_info,bound,ok\n'
        '0.1,0.00472630316085,1.58496250072,true\n'
        '1,0.267430991462,1.58496250072,true\n'
        '5,0.304437361779,1.58496250072,true\n'
    )),
    # captured before the test-only dense builders, behaviour conversions and
    # conveniences left src/; every collective, bound and CHSH command
    "scan": (["scan", "--family", "murcia", "--n-max", "12"], (
        'n,beta_c,qv,ratio,theta_star\n'
        '2,4,0,0,0\n'
        '3,6,0,0,0\n'
        '4,8,0,0,0\n'
        '5,10,0.151463728958,0.0151463728958,2.34687887352\n'
        '6,12,0.258374854715,0.0215312378929,2.26397542376\n'
        '7,14,0.473819969506,0.0338442835362,2.24864851408\n'
        '8,16,0.649337123796,0.0405835702372,2.21231386154\n'
        '9,18,0.887654041311,0.0493141134062,2.21164286149\n'
        '10,20,1.10553389097,0.0552766945483,2.1928616795\n'
        '11,22,1.36203407166,0.0619106396211,2.19277698298\n'
        '12,24,1.60879415166,0.0670330896526,2.18190320541\n'
    )),
    "scan-dicke": (["scan", "--family", "dicke", "--n-max", "8"], (
        'n,beta_c,qv,ratio,theta_star\n'
        '2,2,0.828427124746,0.414213562373,1.57079632679\n'
        '3,9,1.01723420991,0.113026023323,1.2903127846\n'
        '4,18,2.03446841982,0.113026023323,1.29031272931\n'
        '5,40,2.3615038667,0.0590375966676,1.17080620546\n'
        '6,60,3.53039920141,0.0588399866902,1.16811512029\n'
        '7,105,4.05109861277,0.0385818915501,1.10460333195\n'
        '8,140,5.38569319761,0.0384692371258,1.10266486007\n'
    )),
    "theta-sweep": (["theta-sweep", "--family", "dicke", "--n", "6", "--points", "9"], (
        'n,theta,value,beta_c,violated\n'
        '6,0,-60,60,false\n'
        '6,0.392699081699,-60.7804670139,60,true\n'
        '6,0.785398163397,-62.5134337348,60,true\n'
        '6,1.1780972451,-63.5294562894,60,true\n'
        '6,1.57079632679,-61.6148286701,60,true\n'
        '6,1.96349540849,-54.9286367085,60,false\n'
        '6,2.35619449019,-43.3241745312,60,false\n'
        '6,2.74889357189,-30.2642310291,60,false\n'
        '6,3.14159265359,-24,60,false\n'
    )),
    "dicke": (["dicke", "--n", "7"], (
        'n,alpha,beta,gamma,delta,epsilon,beta_c,quantum_value,violated,theta_star\n'
        '7,21,3,21,3.5,-1,105,-59.4,false,0.927295218002\n'
    )),
    "bound": (["bound", "--expr", "pi.json"], (
        'quantity,value\n'
        'enumerated_bound,65/6\n'
        'declared_bound,10\n'
        'match,false\n'
        'witness_counts,0|3|2|0\n'
    )),
    # captured before the test-only members of correlations left src/
    "bound-functional": (["bound", "--expr", "chsh.json"], (
        'quantity,value\n'
        'local_max,2\n'
        'local_min,-2\n'
    )),
    "bound-ti": (["bound", "--expr", "ti.json"], (
        'quantity,value\n'
        'beta_c,101/6\n'
    )),
    "murcia": (["murcia", "--n", "9"], (
        'n,alpha,beta,gamma,delta,epsilon,bound_closed,bound_enum,match\n'
        '9,-2,0,1,-1,1,18,18,true\n'
    )),
    "rioja": (["rioja", "--x", "2", "--y", "1", "--sigma", "1", "--mu", "0", "--n", "5",
               "--verify"], (
        'n,x,y,sigma,mu,branch,bound_closed,bound_enum,match\n'
        '5,2,1,1,0,plus,24,24,true\n'
    )),
    "lmg": (["lmg", "--n", "5", "--coupling", "1.5", "--field", "0.25"], (
        'k,m,energy,is_ground\n'
        '0,2.5,-1.25,false\n'
        '1,1.5,-3.15,false\n'
        '2,0.5,-3.85,true\n'
        '3,-0.5,-3.35,false\n'
        '4,-1.5,-1.65,false\n'
        '5,-2.5,1.25,false\n'
    )),
    "ppt": (["ppt", "--state", "state.json"], (
        'negative_count,min_eigenvalue,entangled,negativity,log_negativity\n'
        '1,-0.48,true,0.48,0.97085365434\n'
    )),
    # an operator file with a -5e-11 eigenvalue, which validation clips to 0
    # before renormalising; captured before that repair stopped recording itself
    "ppt-operator": (["ppt", "--state", "operator.json"], (
        'negative_count,min_eigenvalue,entangled,negativity,log_negativity\n'
        '1,-0.49999999995,true,0.49999999995,0.999999999928\n'
    )),
    "chsh": (["chsh"], (
        'quantity,value\n'
        'probability_form_local_max,3\n'
        'correlator_form_local_max,2\n'
        'correlator_form_local_min,-2\n'
        'quantum_max,2.82842712475\n'
    )),
}

# one refusal of each kind, each with exit code 2 and one stderr line: the
# size guard, an integer flag's range, a non-finite float flag and a file
# that is not JSON
GOLDEN_REFUSALS = {
    "refuse-size": ["scan", "--family", "murcia", "--n-max", "1048577"],
    "refuse-range": ["scan", "--family", "murcia", "--n-max", "4", "--theta-points", "10"],
    "refuse-non-finite": ["lmg", "--n", "4", "--field", "nan"],
    "refuse-json": ["bound", "--expr", "broken.json"],
}

# the files the pinned ``bound`` and ``ppt`` runs and the refused ``bound``
# read from their directory
GOLDEN_INPUTS = {
    "broken.json": "{",
    "pi.json": ('{"n": 5, "alpha": "-7/3", "beta": "1/2", "gamma": 1, "delta": -1, '
                '"epsilon": 1, "bound": 10, "bound_provenance": "closed-form", '
                '"name": "pinned"}'),
    "state.json": '{"dims": [2, 2], "re": [0.6, 0.0, 0.0, 0.8], "im": [0.0, 0.0, 0.0, 0.0]}',
    # the Bell state |00> + |11> plus 5e-11 (|01><01| - |10><10|)
    "operator.json": ('{"dims": [2, 2], "re": [0.5, 0.0, 0.0, 0.5, 0.0, 5e-11, 0.0, 0.0, '
                      '0.0, 0.0, -5e-11, 0.0, 0.5, 0.0, 0.0, 0.5], "im": [0.0, 0.0, 0.0, '
                      '0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}'),
    # the CHSH correlator functional, as correlations.expression_to_json writes it
    "chsh.json": ('{"kind": "functional", "scenario": {"parties": 2, "settings": 2, '
                  '"outcomes": 2}, "offset": 0.0, "direction": "<=", "bound": 2.0, '
                  '"name": "chsh-correlator", "coefficients": ['
                  '{"settings": [0, 0], "outcomes": [0, 0], "value": 1.0}, '
                  '{"settings": [0, 0], "outcomes": [0, 1], "value": -1.0}, '
                  '{"settings": [0, 0], "outcomes": [1, 0], "value": -1.0}, '
                  '{"settings": [0, 0], "outcomes": [1, 1], "value": 1.0}, '
                  '{"settings": [0, 1], "outcomes": [0, 0], "value": 1.0}, '
                  '{"settings": [0, 1], "outcomes": [0, 1], "value": -1.0}, '
                  '{"settings": [0, 1], "outcomes": [1, 0], "value": -1.0}, '
                  '{"settings": [0, 1], "outcomes": [1, 1], "value": 1.0}, '
                  '{"settings": [1, 0], "outcomes": [0, 0], "value": 1.0}, '
                  '{"settings": [1, 0], "outcomes": [0, 1], "value": -1.0}, '
                  '{"settings": [1, 0], "outcomes": [1, 0], "value": -1.0}, '
                  '{"settings": [1, 0], "outcomes": [1, 1], "value": 1.0}, '
                  '{"settings": [1, 1], "outcomes": [0, 0], "value": -1.0}, '
                  '{"settings": [1, 1], "outcomes": [0, 1], "value": 1.0}, '
                  '{"settings": [1, 1], "outcomes": [1, 0], "value": 1.0}, '
                  '{"settings": [1, 1], "outcomes": [1, 1], "value": -1.0}]}'),
    "ti.json": ('{"kind": "ti", "parties": 5, "alpha": 1, "beta": "-1/3", "gamma": [1, -1], '
                '"epsilon": [0, 2], "omega": [1, 0, "3/2", -1]}'),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_seeded_stdout_matches_golden(name, tmp_path):
    argv, expected = GOLDEN_STDOUT[name]
    for file_name, text in GOLDEN_INPUTS.items():
        (tmp_path / file_name).write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "bellscope.cli", *argv], cwd=tmp_path, capture_output=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == expected.encode()


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_outputs_match_the_golden_corpus(name, tmp_path):
    # the JSON stdout, the --out file and its sidecar, byte for byte;
    # tests/golden/regen.py writes the corpus
    files = capture(name, GOLDEN_STDOUT[name][0], GOLDEN_INPUTS, tmp_path)
    assert sorted(path.name for path in (GOLDEN / name).iterdir()) == sorted(files)
    for file_name, text in files.items():
        assert text == (GOLDEN / name / file_name).read_text(), file_name


@pytest.mark.parametrize("name", sorted(GOLDEN_REFUSALS))
def test_refusals_match_the_golden_corpus(name, tmp_path):
    # capture_refusal raises unless the run exits 2 with an empty stdout
    files = capture_refusal(name, GOLDEN_REFUSALS[name], GOLDEN_INPUTS, tmp_path)
    assert sorted(path.name for path in (GOLDEN / name).iterdir()) == sorted(files)
    for file_name, text in files.items():
        assert text == (GOLDEN / name / file_name).read_text(), file_name
