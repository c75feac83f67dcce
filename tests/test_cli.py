import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellscope.cli import _fmt, _jsonable, build_parser, main
from bellscope.correlations import TIExpression, chsh_correlator_functional
from bellscope.correlations import expression_to_json as functional_to_json
from bellscope.quantum import max_entangled, state_to_json
from bellscope.symmetric import expression_to_json as pi_to_json
from bellscope.symmetric import PIBellExpression, dicke_expression, murcia


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def config_lines(err):
    """The ``config:`` lines of stderr, each parsed as strict JSON."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return [json.loads(line[len("config: "):], parse_constant=refuse)
            for line in err.splitlines() if line.startswith("config: ")]


def run_cli_process(argv):
    """``main(argv)`` in a fresh interpreter, so stderr carries its warnings."""
    code = f"import sys; from bellscope.cli import main; sys.exit(main({list(argv)!r}))"
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestBasicCommands:
    def test_chsh(self, capsys):
        code, out, err = run_cli(capsys, "chsh")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["quantity", "value"]
        values = {r["quantity"]: r["value"] for r in rows}
        assert values["probability_form_local_max"] == "3"
        assert values["correlator_form_local_max"] == "2"
        assert float(values["quantum_max"]) >= 2.828
        assert err.startswith("config: ")
        json.loads(err.splitlines()[0][len("config: "):])
        with pytest.raises(SystemExit) as info:
            main(["chsh", "--grid-points", "24"])
        assert info.value.code == 2

    def test_rioja_with_verification(self, capsys):
        code, out, _ = run_cli(
            capsys, "rioja", "--x", "1", "--y", "1", "--sigma", "-1",
            "--mu", "0", "--n", "12", "--verify",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "x", "y", "sigma", "mu", "branch",
                          "bound_closed", "bound_enum", "match"]
        row = rows[0]
        assert (row["bound_closed"], row["bound_enum"], row["match"]) == ("24", "24", "true")

    def test_rioja_prints_exact_bounds(self, capsys):
        argv = ["rioja", "--x", "100000", "--y", "100001", "--sigma", "1",
                "--mu", "2", "--n", "1001", "--verify"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert (row["bound_closed"], row["bound_enum"], row["match"]) == (
            "20025200400502", "20020299999502", "false")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert row["bound_closed"] == 20025200400502
        assert row["bound_enum"] == 20020299999502

    def test_rioja_without_verification_leaves_blanks(self, capsys):
        code, out, _ = run_cli(
            capsys, "rioja", "--x", "2", "--y", "1", "--sigma", "1",
            "--mu", "1", "--n", "8",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["bound_closed"] != ""
        assert rows[0]["bound_enum"] == "" and rows[0]["match"] == ""

    def test_rioja_parity_rejection(self, capsys):
        code, _, err = run_cli(
            capsys, "rioja", "--x", "1", "--y", "2", "--sigma", "1",
            "--mu", "0", "--n", "3",
        )
        assert code == 2
        assert "error:" in err

    def test_murcia(self, capsys):
        code, out, _ = run_cli(capsys, "murcia", "--n", "9")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0] == {
            "n": "9", "alpha": "-2", "beta": "0", "gamma": "1", "delta": "-1",
            "epsilon": "1", "bound_closed": "18", "bound_enum": "18", "match": "true",
        }

    @pytest.mark.parametrize("argv", [
        ["murcia", "--n", "5000"],
        ["rioja", "--x", "1", "--y", "1", "--sigma", "-1", "--mu", "0", "--n", "5000",
         "--branch", "minus", "--verify"],
    ])
    def test_bounds_are_enumerated_past_3000(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        row = parse_csv(out)[1][0]
        assert (row["bound_closed"], row["bound_enum"], row["match"]) == ("10000", "10000", "true")

    def test_dicke(self, capsys):
        code, out, _ = run_cli(capsys, "dicke", "--n", "6")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-4:] == ["beta_c", "quantum_value", "violated", "theta_star"]
        assert rows[0]["violated"] == "true"
        assert float(rows[0]["quantum_value"]) < -float(rows[0]["beta_c"])

    def test_lmg(self, capsys):
        code, out, _ = run_cli(capsys, "lmg", "--n", "4")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 5
        ground = [r for r in rows if r["is_ground"] == "true"]
        assert [g["k"] for g in ground] == ["2"]

    def test_page_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "page", "--m", "2", "--n", "8", "--samples", "200", "--seed", "1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        mean = float(rows[0]["mean_entropy_nats"])
        assert 0.0 < mean <= math.log(2.0) + 1e-12
        assert float(rows[0]["mean_purity"]) > 0.0


class TestJsonInputs:
    def test_bound_on_pi_expression(self, capsys, tmp_path):
        path = tmp_path / "murcia5.json"
        path.write_text(json.dumps(pi_to_json(murcia(5))))
        code, out, _ = run_cli(capsys, "bound", "--expr", str(path))
        assert code == 0
        _, rows = parse_csv(out)
        values = {r["quantity"]: r["value"] for r in rows}
        assert values["enumerated_bound"] == "10"
        assert values["declared_bound"] == "10"
        assert values["match"] == "true"
        assert len(values["witness_counts"].split("|")) == 4

    def test_bound_on_murcia_at_100000(self, capsys, tmp_path):
        path = tmp_path / "murcia.json"
        path.write_text(json.dumps(pi_to_json(murcia(10**5))))
        code, out, _ = run_cli(capsys, "bound", "--expr", str(path))
        assert code == 0
        values = {r["quantity"]: r["value"] for r in parse_csv(out)[1]}
        assert (values["enumerated_bound"], values["match"]) == ("200000", "true")

    def test_bound_prints_large_integer_exactly(self, capsys, tmp_path):
        k = 12345678901234
        scaled = PIBellExpression(n=1000, alpha=-2 * k, beta=0, gamma=k, delta=-k,
                                  epsilon=k, bound=2000 * k)
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(pi_to_json(scaled)))
        code, out, _ = run_cli(capsys, "bound", "--expr", str(path))
        assert code == 0
        values = {r["quantity"]: r["value"] for r in parse_csv(out)[1]}
        assert values["enumerated_bound"] == values["declared_bound"] == str(2000 * k)
        code, out, _ = run_cli(capsys, "bound", "--expr", str(path), "--format", "json")
        assert code == 0
        values = {r["quantity"]: r["value"] for r in json.loads(out)}
        assert values["enumerated_bound"] == values["declared_bound"] == 2000 * k

    def test_bound_prints_rational_exactly(self, capsys, tmp_path):
        # min over Sig0 in {-2, 0, 2} of Sig0/3 is -2/3
        expr = PIBellExpression(n=2, alpha=Fraction(1, 3), beta=0, gamma=0, delta=0,
                                epsilon=0, bound=Fraction(2, 3))
        path = tmp_path / "third.json"
        path.write_text(json.dumps(pi_to_json(expr)))
        code, out, _ = run_cli(capsys, "bound", "--expr", str(path))
        assert code == 0
        values = {r["quantity"]: r["value"] for r in parse_csv(out)[1]}
        assert values["enumerated_bound"] == values["declared_bound"] == "2/3"
        assert values["match"] == "true"
        code, out, _ = run_cli(capsys, "bound", "--expr", str(path), "--format", "json")
        assert code == 0
        values = {r["quantity"]: r["value"] for r in json.loads(out)}
        assert values["enumerated_bound"] == values["declared_bound"] == "2/3"
        assert values["match"] is True

    @pytest.mark.parametrize("n, coeffs, bound, stdout", [
        (3000, (-2, 0, 1, -1, 1), 6000,
         "quantity,value\nenumerated_bound,6000\ndeclared_bound,6000\nmatch,true\n"
         "witness_counts,0|1500|1500|0\n"),
        (1000, tuple(12345678901234 * c for c in (-2, 0, 1, -1, 1)), 24691357802468000,
         "quantity,value\nenumerated_bound,24691357802468000\n"
         "declared_bound,24691357802468000\nmatch,true\nwitness_counts,0|500|500|0\n"),
        (3000, dicke_expression(3000).coefficients(), 6752248500,
         "quantity,value\nenumerated_bound,6752248500\ndeclared_bound,6752248500\n"
         "match,true\nwitness_counts,1499|0|1501|0\n"),
    ], ids=["murcia-3000", "murcia-1000-scaled", "dicke-3000"])
    def test_bound_stdout_is_pinned(self, capsys, tmp_path, n, coeffs, bound, stdout):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(pi_to_json(PIBellExpression(n, *coeffs, bound=bound))))
        code, out, _ = run_cli(capsys, "bound", "--expr", str(path))
        assert code == 0
        assert out == stdout

    def test_bound_on_functional(self, capsys, tmp_path):
        path = tmp_path / "chsh.json"
        path.write_text(json.dumps(functional_to_json(chsh_correlator_functional())))
        code, out, _ = run_cli(capsys, "bound", "--expr", str(path))
        assert code == 0
        _, rows = parse_csv(out)
        values = {r["quantity"]: r["value"] for r in rows}
        assert values["local_max"] == "2" and values["local_min"] == "-2"

    def test_bound_on_ring_expression(self, capsys, tmp_path):
        expr = TIExpression(n=4, alpha=1, gamma=(1,))
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(functional_to_json(expr)))
        code, out, _ = run_cli(capsys, "bound", "--expr", str(path))
        assert code == 0
        _, rows = parse_csv(out)
        values = {r["quantity"]: r["value"] for r in rows}
        assert float(values["beta_c"]) >= 0.0
        path.write_text(json.dumps(functional_to_json(TIExpression(n=4, alpha=Fraction(1, 3)))))
        code, out, _ = run_cli(capsys, "bound", "--expr", str(path))
        assert code == 0
        assert out == "quantity,value\nbeta_c,4/3\n"

    def test_ppt_on_bell_state(self, capsys, tmp_path):
        path = tmp_path / "bell.json"
        path.write_text(json.dumps(state_to_json(max_entangled(2))))
        code, out, _ = run_cli(capsys, "ppt", "--state", str(path))
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["negative_count"] == "1"
        assert row["entangled"] == "true"
        assert float(row["negativity"]) == pytest.approx(0.5, abs=1e-10)
        assert float(row["log_negativity"]) == pytest.approx(1.0, abs=1e-10)

    def test_ppt_on_product_state_prints_zero_negativity(self, capsys, tmp_path):
        from bellscope.quantum import StateVector

        path = tmp_path / "product.json"
        path.write_text(json.dumps(state_to_json(StateVector((2, 2), [1.0, 0.0, 0.0, 0.0]))))
        code, out, _ = run_cli(capsys, "ppt", "--state", str(path))
        assert code == 0
        row = parse_csv(out)[1][0]
        assert (row["entangled"], row["negativity"], row["log_negativity"]) == ("false", "0", "0")

    def test_ppt_on_density_file_takes_one_pt_spectrum(self, capsys, tmp_path, monkeypatch):
        from bellscope import quantum

        calls = []
        eigen = quantum.hermitian_eigen
        amp = max_entangled(2).amplitudes
        bell = quantum.DensityOperator((2, 2), np.outer(amp, amp.conj()))

        def counting(matrix):
            calls.append(matrix.shape)
            return eigen(matrix)

        path = tmp_path / "bell.json"
        path.write_text(json.dumps(state_to_json(bell)))
        monkeypatch.setattr(quantum, "hermitian_eigen", counting)
        code, out, _ = run_cli(capsys, "ppt", "--state", str(path))
        assert code == 0
        # one to validate the density file, one for the partial transpose
        assert calls == [(4, 4), (4, 4)]
        row = parse_csv(out)[1][0]
        assert float(row["negativity"]) == pytest.approx(0.5, abs=1e-10)

    def test_mps_from_state_file(self, capsys, tmp_path):
        amp = np.zeros(16, dtype=complex)
        amp[0] = amp[-1] = 1 / math.sqrt(2)
        from bellscope.quantum import StateVector

        path = tmp_path / "ghz4.json"
        path.write_text(json.dumps(state_to_json(StateVector((2,) * 4, amp))))
        code, out, _ = run_cli(capsys, "mps", "--state", str(path), "--dmax", "1,2")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["dmax"] for r in rows] == ["1", "2"]
        assert all(r["within_bound"] == "true" for r in rows)
        assert float(rows[1]["err2"]) <= 1e-12

    def test_mps_reads_the_local_dimension_from_the_state_file(self, capsys, tmp_path):
        from bellscope.quantum import StateVector

        amp = np.zeros(27, dtype=complex)
        amp[0] = amp[13] = amp[26] = 1 / math.sqrt(3)
        path = tmp_path / "ghz3.json"
        path.write_text(json.dumps(state_to_json(StateVector((3,) * 3, amp))))
        code, out, _ = run_cli(capsys, "mps", "--state", str(path), "--dmax", "1,3")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["n_sites"] for r in rows] == ["3", "3"]
        assert [r["max_bond"] for r in rows] == ["1", "3"]
        assert float(rows[1]["err2"]) <= 1e-12
        code, _, err = run_cli(capsys, "mps", "--state", str(path), "--local-dim", "2")
        assert code == 2
        assert "error: --local-dim 2 disagrees" in err

    def test_mps_refuses_mixed_local_dimensions(self, capsys, tmp_path):
        from bellscope.quantum import StateVector

        amp = np.zeros(12, dtype=complex)
        amp[0] = 1.0
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(state_to_json(StateVector((2, 3, 2), amp))))
        code, _, err = run_cli(capsys, "mps", "--state", str(path))
        assert code == 2
        assert "uniform local dimensions" in err

    def test_mps_needs_an_input(self, capsys):
        code, _, err = run_cli(capsys, "mps")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("argv,option", [
        (["--random", "4", "--local-dim", "1"], "--local-dim"),
        (["--random", "4", "--local-dim", "0"], "--local-dim"),
        (["--random", "0"], "--random"),
        (["--random", "-2"], "--random"),
    ])
    def test_mps_refuses_bad_sizes(self, capsys, argv, option):
        code, _, err = run_cli(capsys, "mps", *argv)
        assert code == 2
        assert f"error: {option} must be at least" in err

    @pytest.mark.parametrize("dmax", ["0", "-3", "1,0"])
    def test_mps_refuses_a_bond_cap_below_1(self, capsys, dmax):
        code, out, err = run_cli(capsys, "mps", "--random", "4", "--dmax", dmax)
        assert code == 2 and out == ""
        assert err.startswith("error: dmax must be at least 1") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["mps", "--random", "40"], "Haar guard"),
        (["page", "--m", "1000000", "--n", "1000000", "--samples", "1"], "Haar guard"),
        (["gibbs-mi", "--sites", "4", "--cut", "2", "--local-dim", "1000000"],
         "classical guard is d^n <= 1000000, got 1000000^4"),
        (["gibbs-mi", "--sites", "4", "--cut", "2", "--local-dim", "0"],
         "--local-dim must be at least 1"),
        (["gibbs-mi", "--sites", "4", "--cut", "2", "--local-dim", "-1"],
         "--local-dim must be at least 1"),
    ], ids=["mps-16TiB", "page-16TB", "gibbs-8TB-couplings", "gibbs-dim-0", "gibbs-dim-neg"])
    def test_oversized_requests_are_refused_before_allocating(self, capsys, argv, message):
        # each size is a TiB or more, which numpy cannot allocate at once
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err


    @pytest.mark.parametrize("argv, flag", [
        (["page", "--m", "2", "--n", "2", "--samples", "10000000000000"], "--samples"),
        (["page", "--m", "2", "--n", "2", "--samples", str(2**24 + 1)], "--samples"),
        (["scan", "--family", "murcia", "--n-max", "5", "--theta-points", "100000000000"],
         "--theta-points"),
        (["scan", "--family", "murcia", "--n-max", "5", "--theta-points", str(2**24 + 1)],
         "--theta-points"),
        (["theta-sweep", "--family", "murcia", "--n", "5", "--points", "100000000000"],
         "--points"),
        (["theta-sweep", "--family", "murcia", "--n", "5", "--points", str(2**24 + 1)],
         "--points"),
    ], ids=["page-73TiB", "page-guard", "scan-745GiB", "scan-guard", "sweep-745GiB",
            "sweep-guard"])
    def test_oversized_counts_are_refused_before_allocating(self, argv, flag):
        # sizes numpy cannot allocate at once, and the first count past the guard
        proc = run_cli_process(argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: {flag} must be at most {2**24}, got {argv[-1]}\n"

    def test_every_ranged_flag_is_an_int_flag_of_its_command(self):
        # cli._INT_RANGES is the one range rule for integer flags; a key it
        # misspelt would end the run with an AttributeError, not exit 2
        from bellscope import cli

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command, ranges in cli._INT_RANGES.items():
            types = {a.dest: a.type for a in sub.choices[command]._actions}
            assert all(types.get(key) is int for key in ranges), command


TERA = "1000000000000"
DICKE_PAST = str(2**20 + 1)  # the first n past collective.DICKE_GUARD
HUGE_FUNCTIONAL = {"kind": "functional", "coefficients": [],
                   "scenario": {"parties": 10**12, "settings": 2, "outcomes": 2}}
HUGE_RING = {"kind": "ti", "parties": 10**12, "alpha": 1, "beta": 0,
             "gamma": [], "epsilon": [], "omega": []}


def run_cli_bounded(argv):
    """``main(argv)`` in a fresh interpreter capped at 10 s and 4 GiB of
    address space, so a request that hangs or grows fails its test instead
    of stalling the suite or taking the host's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    code = f"import sys; from bellscope.cli import main; sys.exit(main({list(argv)!r}))"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, preexec_fn=cap)


class TestSizeRule:
    """Every oversized request exits 2 at once, with one ``error:`` line in
    the one shape "<what> guard is <quantity> <= <limit>, got <value>".
    Each size is one numpy refuses at once, or the first past a limit."""

    @pytest.mark.parametrize("argv, message", [
        (["scan", "--family", "murcia", "--n-min", TERA, "--n-max", TERA],
         f"Dicke-basis guard is n <= 1048576, got {TERA}"),
        (["scan", "--family", "dicke", "--n-max", TERA],
         f"Dicke-basis guard is n <= 1048576, got {TERA}"),
        (["scan", "--family", "murcia", "--n-min", DICKE_PAST, "--n-max", DICKE_PAST],
         f"Dicke-basis guard is n <= 1048576, got {DICKE_PAST}"),
        (["theta-sweep", "--family", "murcia", "--n", TERA, "--points", "1"],
         f"Dicke-basis guard is n <= 1048576, got {TERA}"),
        (["theta-sweep", "--family", "dicke", "--n", DICKE_PAST, "--points", "1"],
         f"Dicke-basis guard is n <= 1048576, got {DICKE_PAST}"),
        (["lmg", "--n", TERA], f"Dicke-basis guard is n <= 1048576, got {TERA}"),
        (["lmg", "--n", DICKE_PAST], f"Dicke-basis guard is n <= 1048576, got {DICKE_PAST}"),
        (["mps", "--random", TERA], f"Haar guard is dimension <= 16777216, got 2^{TERA}"),
        (["mps", "--random", "40"], "Haar guard is dimension <= 16777216, got 2^40"),
        (["page", "--m", "1000000", "--n", "1000000", "--samples", "1"],
         f"Haar guard is dimension <= 16777216, got {TERA}"),
        (["gibbs-mi", "--sites", TERA, "--cut", "1"],
         f"classical guard is d^n <= 1000000, got 2^{TERA}"),
        (["gibbs-mi", "--sites", "4", "--cut", "2", "--local-dim", "1000000"],
         "classical guard is d^n <= 1000000, got 1000000^4"),
        (["gibbs-mi", "--sites", TERA, "--cut", "1", "--local-dim", "1"],
         f"classical guard is sites n <= 64, got {TERA}"),
        (["gibbs-mi", "--sites", "65", "--cut", "1", "--local-dim", "1"],
         "classical guard is sites n <= 64, got 65"),
        (["area-law", "--sites", TERA], f"chain guard is dimension d^n <= 8192, got 2^{TERA}"),
        (["thermal-mi", "--sites", TERA, "--cut", "1"],
         f"chain guard is dimension d^n <= 8192, got 2^{TERA}"),
        (["thermal-mi", "--sites", TERA, "--cut", "1", "--model", "random"],
         f"chain guard is dimension d^n <= 8192, got 2^{TERA}"),
        (["bound", "--expr", "{functional}"],
         f"table guard is entries (m d)^n <= 10000000, got 4^{TERA}"),
        (["bound", "--expr", "{ring}"], f"ring enumeration guard is parties n <= 12, got {TERA}"),
    ], ids=["scan-tera", "scan-range-tera", "scan-past", "sweep-tera", "sweep-past",
            "lmg-tera", "lmg-past", "mps-tera", "mps-40", "page", "gibbs-tera", "gibbs-dim",
            "gibbs-dim1-tera", "gibbs-dim1-65",
            "area-law-tera", "thermal-tera", "thermal-random-tera", "functional-tera",
            "ring-tera"])
    def test_oversized_requests_exit_2_at_once(self, tmp_path, argv, message):
        paths = {}
        for name, data in (("functional", HUGE_FUNCTIONAL), ("ring", HUGE_RING)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(data))
        proc = run_cli_bounded([a.format(**paths) for a in argv])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["dicke", "murcia"])
    def test_exact_commands_take_any_n(self, command):
        # exact in n and allocate nothing, so no size limit reaches them
        proc = run_cli_bounded([command, "--n", TERA])
        assert proc.returncode == 0, proc.stderr
        _, rows = parse_csv(proc.stdout)
        assert [r["n"] for r in rows] == [TERA]


class TestScans:
    def test_scan_rows_sorted_with_violations(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--family", "murcia", "--n-max", "7",
            "--theta-points", "64",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "beta_c", "qv", "ratio", "theta_star"]
        assert [r["n"] for r in rows] == ["2", "3", "4", "5", "6", "7"]
        for r in rows:
            assert float(r["beta_c"]) == 2 * int(r["n"])
        assert float(rows[-1]["qv"]) > 0.0

    def test_scan_empty_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--family", "murcia",
                               "--n-min", "5", "--n-max", "4")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("args, flag", [
        (["scan", "--n-min", "8", "--n-max", "4", "--n-step", "-1"], "--n-step"),
        (["scan", "--n-max", "4", "--n-step", "0"], "--n-step"),
        (["theta-sweep", "--n", "6", "--points", "0"], "--points"),
        (["theta-sweep", "--n", "6", "--points", "-3"], "--points"),
        (["scan", "--n-max", "4", "--theta-points", "63"], "--theta-points"),
        (["scan", "--n-max", "4", "--theta-points", "10"], "--theta-points"),
        (["scan", "--n-max", "4", "--tol", "0"], "--tol"),
        (["scan", "--n-max", "4", "--tol", "-1"], "--tol"),
        (["scan", "--n-max", "4", "--tol", "nan"], "--tol"),
        (["theta-sweep", "--n", "6", "--theta-min", "nan"], "--theta-min"),
        (["theta-sweep", "--n", "6", "--theta-min=-inf"], "--theta-min"),
        (["theta-sweep", "--n", "6", "--theta-max", "nan"], "--theta-max"),
        (["theta-sweep", "--n", "6", "--theta-max", "inf"], "--theta-max"),
    ])
    def test_steps_and_point_counts_below_1_are_usage_errors(self, capsys, args, flag):
        code, out, err = run_cli(capsys, *args, "--family", "murcia")
        assert code == 2
        assert out == ""
        want = {"--theta-points": "at least 64", "--tol": "positive and finite",
                "--theta-min": "finite", "--theta-max": "finite"}
        want = "finite" if "nan" in args else want.get(flag, "at least 1")
        assert f"error: {flag} must be {want}" in err
        # a refused run echoes no configuration, so no NaN or Infinity either
        assert config_lines(err) == []

    @pytest.mark.parametrize("n_min", ["1", "-" + TERA])
    def test_scan_refuses_an_n_min_below_2_before_building_its_range(self, capsys, n_min):
        code, out, err = run_cli(capsys, "scan", "--family", "murcia",
                                 "--n-min", n_min, "--n-max", "4")
        assert code == 2 and out == ""
        assert err == f"error: --n-min must be at least 2, got {n_min}\n"

    def test_scan_sidecar_totals_eigen_work(self, capsys, tmp_path):
        # each n starts from the previous n's angle if that n was violated,
        # so the counts are the sums of the warm-started calls
        from bellscope.collective import max_violation

        evals = screened = 0
        start = None
        for n in range(2, 9):
            mv = max_violation(murcia(n), grid_points=64, start=start)
            start = mv.theta if mv.violation > 0 else None
            evals, screened = evals + mv.evals, screened + mv.screened
        out = str(tmp_path / "scan.csv")
        assert main(["scan", "--family", "murcia", "--n-min", "2", "--n-max", "8",
                     "--theta-points", "64", "--out", out]) == 0
        capsys.readouterr()
        sidecar = json.loads(open(out + ".run.json").read())
        assert (sidecar["evals"], sidecar["screened"]) == (evals, screened)

    def test_scan_sidecar_counts_are_pinned(self, capsys, tmp_path):
        # the violation-small benchmark scan: each n after a violated one
        # warm-starts from its angle, and each angle is evaluated at most
        # once, the returned one included; the README quotes the count
        out = str(tmp_path / "scan.csv")
        assert main(["scan", "--family", "murcia", "--n-min", "2", "--n-max", "100",
                     "--out", out]) == 0
        capsys.readouterr()
        sidecar = json.loads(open(out + ".run.json").read())
        assert (sidecar["evals"], sidecar["screened"]) == (572, 25143)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"{sidecar['evals']} over n = 2..100" in " ".join(readme.split())

    def test_theta_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "theta-sweep", "--family", "dicke", "--n", "6", "--points", "24",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "theta", "value", "beta_c", "violated"]
        assert len(rows) == 24
        flags = {r["violated"] for r in rows}
        assert flags == {"true", "false"}

    def test_area_law(self, capsys):
        code, out, _ = run_cli(capsys, "area-law", "--sites", "8", "--field", "3.0")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["block", "entropy_bits"]
        assert len(rows) == 7
        assert all(float(r["entropy_bits"]) < 1.0 for r in rows)

    def test_thermal_mi(self, capsys):
        code, out, _ = run_cli(capsys, "thermal-mi", "--sites", "5", "--cut", "2")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["beta", "mutual_info", "bound", "ok"]
        assert [r["beta"] for r in rows] == ["0.1", "1", "5"]
        assert all(r["ok"] == "true" for r in rows)

    def test_gibbs_mi(self, capsys):
        code, out, _ = run_cli(
            capsys, "gibbs-mi", "--sites", "6", "--cut", "3", "--seed", "5",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r["ok"] == "true" for r in rows)
        assert all(float(r["bound"]) == 1.0 for r in rows)

    @pytest.mark.parametrize("argv, message", [
        (["gibbs-mi", "--sites", "1", "--cut", "1"], "at least two sites"),
        (["gibbs-mi", "--sites", "0", "--cut", "1"], "at least two sites"),
        (["gibbs-mi", "--sites", "4", "--cut", "2", "--beta", "nan"], "beta must be finite"),
        (["gibbs-mi", "--sites", "4", "--cut", "2", "--beta", "1,inf"], "beta must be finite"),
        (["thermal-mi", "--sites", "4", "--cut", "2", "--beta", "nan"], "beta must be finite"),
        (["thermal-mi", "--sites", "4", "--cut", "2", "--beta=-inf"], "beta must be finite"),
    ])
    def test_mutual_information_refusals(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "error: " in err and message in err
        assert "Traceback" not in err and config_lines(err) == []


# a small run of every command that has a float flag
FINITE_RUNS = {
    "scan": [["scan", "--family", "murcia", "--n-min", "5", "--n-max", "8",
              "--theta-points", "64"]],
    "theta-sweep": [["theta-sweep", "--family", "murcia", "--n", "6", "--points", "16"]],
    "lmg": [["lmg", "--n", "4"]],
    "area-law": [["area-law", "--sites", "4"]],
    "thermal-mi": [["thermal-mi", "--sites", "4", "--cut", "2", "--model", model]
                   for model in ("heisenberg", "ising", "random")],
    "gibbs-mi": [["gibbs-mi", "--sites", "4", "--cut", "2"]],
}


def float_flags():
    """``(command, flag)`` for every option whose type parses '0.5' to a float
    or to a list of floats, read from the parser itself."""
    def parses_floats(action):
        try:
            return action.type("0.5") in (0.5, [0.5])
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return False

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sorted((command, action.option_strings[-1])
                  for command, p in sub.choices.items() for action in p._actions
                  if action.option_strings and parses_floats(action))


FLOAT_CASES = [(argv, flag) for command, flag in float_flags()
               for argv in FINITE_RUNS[command]]


def assert_finite_or_refused(code, out, err):
    """Exit 0 with finite CSV cells and a strict-JSON config, or exit 2 with an
    error line, no output and no config; never a traceback."""
    assert "Traceback" not in err
    if code == 0:
        assert len(config_lines(err)) == 1
        _, rows = parse_csv(out)
        assert rows
        cells = [c for row in rows for c in row.values() if c not in ("true", "false")]
        assert all(math.isfinite(float(c)) for c in cells), out
    else:
        assert code == 2, err
        assert out == "" and config_lines(err) == []
        assert "error: " in err


class TestFiniteNumbers:
    def test_the_float_flags_are_known(self):
        assert float_flags() == sorted([
            ("scan", "--tol"), ("theta-sweep", "--theta-min"), ("theta-sweep", "--theta-max"),
            ("lmg", "--coupling"), ("lmg", "--field"),
            ("area-law", "--coupling"), ("area-law", "--field"),
            ("thermal-mi", "--beta"), ("thermal-mi", "--coupling"), ("thermal-mi", "--field"),
            ("gibbs-mi", "--beta"),
        ])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from(FLOAT_CASES),
           value=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 5e-324, -5e-324,
                                  1e-300, -1e-300, 1e200, -1e200, 1e308, -1e308])
           | st.floats())
    def test_every_float_flag_gives_a_finite_run_or_exit_2(self, case, value):
        argv, flag = case
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, f"{flag}={value!r}"])
        assert_finite_or_refused(code, out.getvalue(), err.getvalue())

    @pytest.mark.parametrize("argv, message", [
        (["lmg", "--n", "4", "--coupling", "nan"], "--coupling must be finite, got nan"),
        (["thermal-mi", "--sites", "4", "--cut", "2", "--field", "nan"],
         "--field must be finite, got nan"),
        (["lmg", "--n", "4", "--field", "1e308"], "energy must be finite"),
        (["area-law", "--sites", "4", "--coupling", "1e200"], "Lanczos overflowed"),
    ])
    def test_non_finite_inputs_and_results_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and message in err
        assert_finite_or_refused(code, out, err)

    @pytest.mark.parametrize("argv, message", [
        (["lmg", "--n", "4", "--field", "1e308"], "energy must be finite, got -inf"),
        (["area-law", "--sites", "4", "--coupling", "1e200"], "Lanczos overflowed"),
        (["area-law", "--sites", "4", "--field", "1.7976931348623157e308"],
         "Lanczos overflowed"),
        (["thermal-mi", "--sites", "4", "--cut", "2", "--model", "ising",
          "--coupling", "1e308"], "dense spectrum overflowed"),
    ])
    def test_an_overflow_refusal_prints_one_error_line(self, argv, message):
        # numpy's RuntimeWarnings of the refused computation are not printed
        proc = run_cli_process(argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert message in proc.stderr

    def test_a_finished_run_still_prints_its_warnings(self):
        # a command patched to warn: main holds the warning back until the
        # rows pass, then prints it before the config line
        code = ("import sys, warnings\n"
                "from bellscope import cli\n"
                "def warns(args):\n"
                "    warnings.warn('deliberate warning', RuntimeWarning)\n"
                "    return ['n'], [(args.n,)], None\n"
                "cli._cmd_murcia = warns\n"
                "sys.exit(cli.main(['murcia', '--n', '4']))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout == "n\n4\n"
        lines = proc.stderr.splitlines()
        assert len(lines) == 2, proc.stderr
        assert lines[0].endswith("RuntimeWarning: deliberate warning")
        assert lines[1].startswith("config: ")

    @pytest.mark.parametrize("beta", ["1e308", "-1e308"])
    def test_underflowed_gibbs_weights_print_no_warning(self, beta):
        # exp(-beta * dE) underflows to an exact weight 0, with no overflow warning
        proc = run_cli_process(["gibbs-mi", "--sites", "4", "--cut", "2", f"--beta={beta}"])
        assert proc.returncode == 0
        assert proc.stderr.startswith("config: ") and proc.stderr.count("\n") == 1, proc.stderr
        _, rows = parse_csv(proc.stdout)
        assert [(r["mutual_info"], r["ok"]) for r in rows] == [("0", "true")]

    def test_the_slope_polish_closes_at_float_resolution(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--family", "murcia", "--n-min", "5",
                                 "--n-max", "6", "--tol", "1e-16")
        assert code == 0
        assert_finite_or_refused(code, out, err)

    def test_gibbs_mi_takes_a_negative_beta(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would exit 1
            code, out, err = run_cli(capsys, "gibbs-mi", "--sites", "4", "--cut", "2",
                                     "--beta=-800")
        assert code == 0
        assert_finite_or_refused(code, out, err)
        _, rows = parse_csv(out)
        assert [r["ok"] for r in rows] == ["true"]


# output of _fmt and _jsonable as they were when both tested numpy types
# directly; the numbers ABCs that replaced those tests must not move a byte
@pytest.mark.parametrize("value, text, json_value", [
    (np.int64(-7), "-7", -7),
    (np.int32(5), "5", 5),
    (np.float64(0.1), "0.1", 0.1),
    (np.float32(0.1), "0.1", 0.10000000149011612),
    (np.bool_(True), "True", np.bool_(True)),
    (True, "true", True),
    (False, "false", False),
    (Fraction(2, 3), "2/3", "2/3"),
    (Fraction(4), "4", 4),
    (12345678901234567890, "12345678901234567890", 12345678901234567890),
    (0.1, "0.1", 0.1),
    (2.0 / 3.0, "0.666666666667", 2.0 / 3.0),
    (None, "None", None),
    ("murcia", "murcia", "murcia"),
])
def test_number_formatting_is_pinned(value, text, json_value):
    assert _fmt(value) == text
    out = _jsonable(value)
    assert type(out) is type(json_value) and out == json_value


class TestOutputsAndReproducibility:
    def test_out_file_with_sidecar(self, capsys, tmp_path):
        out = str(tmp_path / "lmg.csv")
        code, stdout, _ = run_cli(capsys, "lmg", "--n", "5", "--out", out)
        assert code == 0
        assert stdout == ""
        assert os.path.exists(out)
        sidecar = json.loads(open(out + ".run.json").read())
        assert sidecar["command"] == "lmg"
        assert sidecar["config"]["n"] == 5
        assert "version" in sidecar
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".bellscope-")]
        assert leftovers == []

    def test_seeded_rerun_is_byte_identical(self, capsys, tmp_path):
        f1, f2, f3 = (str(tmp_path / name) for name in ("a.csv", "b.csv", "c.csv"))
        args = ["page", "--m", "2", "--n", "8", "--samples", "100"]
        assert main(args + ["--seed", "9", "--out", f1]) == 0
        assert main(args + ["--seed", "9", "--out", f2]) == 0
        assert main(args + ["--seed", "10", "--out", f3]) == 0
        capsys.readouterr()
        assert open(f1, "rb").read() == open(f2, "rb").read()
        assert open(f1, "rb").read() != open(f3, "rb").read()

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "murcia", "--n", "4", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["match"] is True
        assert rows[0]["bound_closed"] == 8.0

    def test_unknown_command_and_flags(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(["murcia", "--n", "4", "--bogus"])
        assert info.value.code == 2
        capsys.readouterr()
        for argv in (["mps", "--random", "3", "--dmax", ","],
                     ["thermal-mi", "--sites", "4", "--cut", "2", "--beta", ","],
                     ["gibbs-mi", "--sites", "4", "--cut", "2", "--beta", ""]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert "not a comma-separated" in capsys.readouterr().err

    def test_readme_commands_parse(self):
        # every `bellscope ...` line in the README's fenced blocks names
        # real flags; parsed only, not run
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
        commands = [shlex.split(line)[1:] for block in blocks
                    for line in block.splitlines() if line.startswith("bellscope ")]
        assert commands
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)

    def test_validation_failures_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "murcia", "--n", "1")
        assert code == 2 and "error:" in err
        code, _, err = run_cli(capsys, "bound", "--expr", "/nonexistent.json")
        assert code == 2 and "error:" in err

    def test_internal_error_exits_1_with_a_traceback(self, capsys, monkeypatch):
        import bellscope.cli as cli

        def broken(args):
            raise RuntimeError("deliberate failure")

        monkeypatch.setattr(cli, "_cmd_murcia", broken)
        code, out, err = run_cli(capsys, "murcia", "--n", "4")
        assert code == 1 and out == ""
        assert "Traceback (most recent call last)" in err
        assert "RuntimeError: deliberate failure" in err

    def test_version_does_not_import_traceback(self):
        code = ("import sys\nfrom bellscope.cli import main\n"
                "try:\n    main(['--version'])\nexcept SystemExit:\n    pass\n"
                "print('traceback' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_console_entry_point_installed(self):
        assert shutil.which("bellscope") is not None

    def test_import_loads_no_scipy(self):
        code = ("import sys, bellscope.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    # the exact commands compute in integers and Fractions: no numpy, and
    # no dataclasses, whose import pulls in inspect, ast, dis and tokenize
    EXACT_UNNEEDED = {"numpy", "dataclasses", "inspect"}

    @pytest.mark.parametrize("argv, needed, unneeded", [
        (["--version"], {"bellscope.cli"}, EXACT_UNNEEDED),
        (["--help"], {"bellscope.cli"}, EXACT_UNNEEDED),
        (["bound", "--expr", "{pi}"], {"bellscope.symmetric"}, EXACT_UNNEEDED),
        (["rioja", "--x", "1", "--y", "2", "--sigma", "1", "--mu", "1", "--n", "5",
          "--verify"], {"bellscope.symmetric"}, EXACT_UNNEEDED),
        (["rioja", "--x", "1", "--y", "2", "--sigma", "1", "--mu", "1", "--n", "5",
          "--branch", "minus", "--verify"], {"bellscope.symmetric"}, EXACT_UNNEEDED),
        (["murcia", "--n", "7"], {"bellscope.symmetric"}, EXACT_UNNEEDED),
        (["scan", "--family", "murcia", "--n-max", "6"],
         {"numpy", "bellscope.collective"},
         {"bellscope.quantum", "bellscope.chains", "bellscope.mps", "bellscope.correlations"}),
        (["page", "--m", "2", "--n", "4", "--samples", "10"],
         {"numpy", "bellscope.quantum"},
         {"bellscope.collective", "bellscope.symmetric", "bellscope.chains"}),
    ], ids=["version", "help", "bound", "rioja", "rioja-minus", "murcia", "scan", "page"])
    def test_commands_load_only_what_they_run(self, tmp_path, argv, needed, unneeded):
        # every module that has run, standard library included; a submodule
        # the CLI has not touched yet is an unexecuted lazy module object,
        # and becomes a plain module once its code has run
        pi = tmp_path / "pi.json"
        pi.write_text(json.dumps(pi_to_json(murcia(7))))
        argv = [a.format(pi=pi) for a in argv]
        if not argv[0].startswith("--"):
            argv += ["--out", str(tmp_path / "out.csv")]
        code = ("import json, sys, types\n"
                "from bellscope.cli import main\n"
                "try:\n    status = main(sys.argv[1:])\nexcept SystemExit as exc:\n"
                "    status = exc.code\n"
                "print(json.dumps([status, [n for n, m in sys.modules.items() "
                "if type(m) is types.ModuleType]]))")
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        status, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert status == 0, proc.stderr
        loaded = set(loaded)
        assert needed <= loaded and not unneeded & loaded, sorted(loaded)

    def test_import_bellscope_runs_no_submodule(self):
        code = ("import sys, bellscope; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'bellscope')))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['bellscope']"

    def test_violation_commands_load_only_the_lapack_extension(self, tmp_path):
        # orders 3..7 take the sbevx path, order 251 the pbtrf/pbtrs one
        scan = ["scan", "--family", "murcia", "--n-min", "2", "--n-max", "6",
                "--out", str(tmp_path / "scan.csv")]
        sweep = ["theta-sweep", "--family", "murcia", "--n", "250", "--points", "3",
                 "--out", str(tmp_path / "sweep.csv")]
        code = ("import sys; from bellscope.cli import main; "
                f"print(main({scan!r}), main({sweep!r})); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-3:] == [
            "0 0", "['scipy.linalg._flapack']", ""]

    def test_chain_commands_load_no_scipy(self, tmp_path):
        area = ["area-law", "--sites", "10", "--out", str(tmp_path / "area.csv")]
        thermal = ["thermal-mi", "--sites", "6", "--cut", "3",
                   "--out", str(tmp_path / "thermal.csv")]
        code = ("import sys; from bellscope.cli import main; "
                f"print(main({area!r}), main({thermal!r})); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-3:] == ["0 0", "[]", ""]

    def test_area_law_sidecar_records_ground_residual(self, capsys, tmp_path):
        out = str(tmp_path / "area.csv")
        assert main(["area-law", "--sites", "11", "--boundary", "periodic",
                     "--out", out]) == 0
        capsys.readouterr()
        sidecar = json.loads(open(out + ".run.json").read())
        assert sidecar["ground_energy"] < 0.0
        assert 0.0 <= sidecar["ground_residual"] <= 1e-9

    def test_thermal_mi_sidecar_records_the_bound_inputs(self, capsys, tmp_path):
        out = str(tmp_path / "thermal.csv")
        assert main(["thermal-mi", "--sites", "6", "--cut", "3", "--boundary", "periodic",
                     "--beta", "0.5,2", "--out", out]) == 0
        capsys.readouterr()
        sidecar = json.loads(open(out + ".run.json").read())
        # a Heisenberg bond (J/4) sigma.sigma has norm 3J/4; a periodic cut crosses two bonds
        assert sidecar["boundary_norm"] == pytest.approx(0.75, rel=1e-12)
        assert sidecar["crossing_terms"] == 2
        rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
        assert [float(bound) for _, _, bound, _ in rows] == pytest.approx(
            [2 * float(beta) * sidecar["boundary_norm"] * 2 for beta, _, _, _ in rows], rel=1e-11)

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bellscope.cli", "murcia", "--n", "7"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "7,-2,0,1,-1,1,14,14,true" in proc.stdout
