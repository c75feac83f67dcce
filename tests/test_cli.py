import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from bellscope.cli import _fmt, _jsonable, main
from bellscope.correlations import TIExpression, chsh_correlator_functional
from bellscope.correlations import expression_to_json as functional_to_json
from bellscope.quantum import max_entangled, state_to_json
from bellscope.symmetric import expression_to_json as pi_to_json
from bellscope.symmetric import PIBellExpression, murcia


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_mps_needs_an_input(self, capsys):
        code, _, err = run_cli(capsys, "mps")
        assert code == 2
        assert "error:" in err


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
    ])
    def test_steps_and_point_counts_below_1_are_usage_errors(self, capsys, args, flag):
        code, out, err = run_cli(capsys, *args, "--family", "murcia")
        assert code == 2
        assert out == ""
        assert f"error: {flag} must be at least 1" in err

    def test_parallel_scan_matches_serial(self, capsys, tmp_path):
        f1, f2 = str(tmp_path / "serial.csv"), str(tmp_path / "par.csv")
        args = ["scan", "--family", "murcia", "--n-max", "6", "--theta-points", "32"]
        assert main(args + ["--out", f1]) == 0
        assert main(args + ["--jobs", "2", "--out", f2]) == 0
        capsys.readouterr()
        assert open(f1, "rb").read() == open(f2, "rb").read()

    def test_scan_sidecar_totals_eigen_work(self, capsys, tmp_path):
        # --jobs k scans k contiguous chunks of n; within a chunk each n
        # starts from the previous n's angle if that n was violated, so the
        # counts are per-chunk sums
        from bellscope.collective import max_violation

        def warm_started_counts(chunks):
            evals = screened = 0
            for chunk in chunks:
                start = None
                for n in chunk:
                    mv = max_violation(murcia(n), grid_points=64, start=start)
                    start = mv.theta if mv.violation > 0 else None
                    evals, screened = evals + mv.evals, screened + mv.screened
            return evals, screened

        chunks = {"1": [[2, 3, 4, 5, 6, 7, 8]],
                  "2": [[2, 3, 4], [5, 6, 7, 8]],
                  "3": [[2, 3], [4, 5], [6, 7, 8]]}
        args = ["scan", "--family", "murcia", "--n-min", "2", "--n-max", "8",
                "--theta-points", "64"]
        for jobs in ("1", "2", "3"):
            out = str(tmp_path / f"scan{jobs}.csv")
            assert main(args + ["--jobs", jobs, "--out", out]) == 0
            sidecar = json.loads(open(out + ".run.json").read())
            assert (sidecar["evals"], sidecar["screened"]) == warm_started_counts(chunks[jobs])
            assert open(out, "rb").read() == open(str(tmp_path / "scan1.csv"), "rb").read()
        capsys.readouterr()

    def test_scan_sidecar_counts_are_pinned(self, capsys, tmp_path):
        # the violation-small benchmark scan: each n after a violated one
        # warm-starts from its angle; evals + screened stays the full-grid 25824
        out = str(tmp_path / "scan.csv")
        assert main(["scan", "--family", "murcia", "--n-min", "2", "--n-max", "100",
                     "--out", out]) == 0
        capsys.readouterr()
        sidecar = json.loads(open(out + ".run.json").read())
        assert (sidecar["evals"], sidecar["screened"]) == (681, 25143)

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

    def test_validation_failures_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "murcia", "--n", "1")
        assert code == 2 and "error:" in err
        code, _, err = run_cli(capsys, "bound", "--expr", "/nonexistent.json")
        assert code == 2 and "error:" in err

    def test_console_entry_point_installed(self):
        assert shutil.which("bellscope") is not None

    def test_import_loads_no_scipy(self):
        code = ("import sys, bellscope.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv, needed, unneeded", [
        (["--version"], {"bellscope.cli"}, {"numpy"}),
        (["--help"], {"bellscope.cli"}, {"numpy"}),
        (["bound", "--expr", "{pi}"], {"bellscope.symmetric"}, {"numpy"}),
        (["rioja", "--x", "1", "--y", "2", "--sigma", "1", "--mu", "0", "--n", "5",
          "--verify"], {"bellscope.symmetric"}, {"numpy"}),
        (["murcia", "--n", "7"], {"bellscope.symmetric"}, {"numpy"}),
        (["scan", "--family", "murcia", "--n-max", "6"],
         {"numpy", "bellscope.collective"},
         {"bellscope.quantum", "bellscope.chains", "bellscope.mps", "bellscope.correlations"}),
        (["page", "--m", "2", "--n", "4", "--samples", "10"],
         {"numpy", "bellscope.quantum"},
         {"bellscope.collective", "bellscope.symmetric", "bellscope.chains"}),
    ], ids=["version", "help", "bound", "rioja", "murcia", "scan", "page"])
    def test_commands_load_only_what_they_run(self, tmp_path, argv, needed, unneeded):
        # a submodule the CLI has not touched yet is an unexecuted lazy
        # module object; it becomes a plain module once its code has run
        pi = tmp_path / "pi.json"
        pi.write_text(json.dumps(pi_to_json(murcia(7))))
        argv = [a.format(pi=pi) for a in argv]
        if not argv[0].startswith("--"):
            argv += ["--out", str(tmp_path / "out.csv")]
        code = ("import json, sys, types\n"
                "from bellscope.cli import main\n"
                "try:\n    main(sys.argv[1:])\nexcept SystemExit:\n    pass\n"
                "print(json.dumps([n for n, m in sys.modules.items() if n.split('.')[0] in "
                "('numpy', 'bellscope') and type(m) is types.ModuleType]))")
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout.splitlines()[-1]))
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
                "--jobs", "1", "--out", str(tmp_path / "scan.csv")]
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
        # 10 sites is dimension 1024: the Lanczos path of ground_state_exact
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

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bellscope.cli", "murcia", "--n", "7"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "7,-2,0,1,-1,1,14,14,true" in proc.stdout
