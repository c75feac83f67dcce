"""Regenerate the golden corpus of CLI outputs.

Each case of ``GOLDEN_STDOUT`` in ``tests/test_reproducibility.py`` runs in
process through ``bellscope.cli.main``, in a directory that holds the
``GOLDEN_INPUTS`` files, twice: once with ``--format json`` to stdout and
once with ``--out out.csv``.  ``tests/golden/<case>/`` keeps

* ``stdout.json``, the JSON stdout;
* ``out.csv``, the ``--out`` file, which must equal the case's pinned CSV
  stdout;
* ``out.csv.run.json``, its sidecar, with ``version`` masked and, for the
  ``scan`` cases, without ``evals`` and ``screened`` (speed work moves those, and
  ``test_scan_sidecar_counts_are_pinned`` pins them).

Each case of ``GOLDEN_REFUSALS`` runs once, in the same way, and must exit
with code 2 and print nothing to stdout; ``tests/golden/<case>/`` keeps its
``stderr.txt``.

A change that alters an output on purpose reruns this script from the
repository root and lists each changed file and field::

    python tests/golden/regen.py
"""

import contextlib
import io
import os
import re
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent


def mask(name, text):
    """The sidecar ``text`` with its version masked and, for a ``scan`` case,
    its eigen-work counts dropped; every other byte is kept."""
    text = re.sub(r'^(  "version": )".*"', r'\1"<masked>"', text, flags=re.M)
    if name.startswith("scan"):
        text = re.sub(r'^  "(evals|screened)": \d+,\n', "", text, flags=re.M)
    return text


def run_main(argvs, inputs, workdir):
    """``(exit codes, stdout, stderr)`` of ``cli.main`` on each of ``argvs``
    in turn, run in the empty directory ``workdir`` after ``inputs`` are
    written there."""
    from bellscope.cli import main

    for file_name, text in inputs.items():
        (Path(workdir) / file_name).write_text(text)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            codes = [main(argv) for argv in argvs]
    finally:
        os.chdir(cwd)
    return codes, stdout.getvalue(), stderr.getvalue()


def capture(name, argv, inputs, workdir):
    """``{file name: text}`` of one case, run in the empty directory ``workdir``."""
    codes, stdout, _ = run_main([[*argv, "--format", "json"], [*argv, "--out", "out.csv"]],
                                inputs, workdir)
    if codes != [0, 0]:
        raise RuntimeError(f"{name} exited {codes}")
    workdir = Path(workdir)
    return {"stdout.json": stdout,
            "out.csv": (workdir / "out.csv").read_text(),
            "out.csv.run.json": mask(name, (workdir / "out.csv.run.json").read_text())}


def capture_refusal(name, argv, inputs, workdir):
    """``{"stderr.txt": text}`` of one refused case, run in the empty
    directory ``workdir``; anything but exit code 2 with no stdout raises."""
    codes, stdout, stderr = run_main([argv], inputs, workdir)
    if codes != [2] or stdout:
        raise RuntimeError(f"{name} exited {codes} with stdout {stdout!r}")
    return {"stderr.txt": stderr}


def main():
    import tempfile

    from test_reproducibility import GOLDEN_INPUTS, GOLDEN_REFUSALS, GOLDEN_STDOUT

    cases = [(name, argv, capture, csv) for name, (argv, csv) in GOLDEN_STDOUT.items()]
    cases += [(name, argv, capture_refusal, None) for name, argv in GOLDEN_REFUSALS.items()]
    for name, argv, run, csv in sorted(cases, key=lambda case: case[0]):
        with tempfile.TemporaryDirectory() as workdir:
            files = run(name, argv, GOLDEN_INPUTS, workdir)
        if csv is not None and files["out.csv"] != csv:
            raise RuntimeError(f"{name}: --out differs from its pinned CSV stdout")
        (GOLDEN / name).mkdir(exist_ok=True)
        for file_name, text in files.items():
            (GOLDEN / name / file_name).write_text(text)
        print(f"{name}: {', '.join(sorted(files))}")


if __name__ == "__main__":
    sys.path[:0] = [str(GOLDEN.parent), str(GOLDEN.parents[1] / "src")]
    main()
