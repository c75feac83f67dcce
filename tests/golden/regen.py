"""Regenerate the golden corpus of CLI outputs.

Each case of ``GOLDEN_STDOUT`` in ``tests/test_reproducibility.py`` runs in
process through ``bellscope.cli.main``, in a directory that holds the
``GOLDEN_INPUTS`` files, twice: once with ``--format json`` to stdout and
once with ``--out out.csv``.  ``tests/golden/<case>/`` keeps

* ``stdout.json``, the JSON stdout;
* ``out.csv``, the ``--out`` file, which must equal the case's pinned CSV
  stdout;
* ``out.csv.run.json``, its sidecar, with ``version`` masked and, for
  ``scan``, without ``evals`` and ``screened`` (speed work moves those, and
  ``test_scan_sidecar_counts_are_pinned`` pins them).

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
    """The sidecar ``text`` with its version masked and, for ``scan``, its
    eigen-work counts dropped; every other byte is kept."""
    text = re.sub(r'^(  "version": )".*"', r'\1"<masked>"', text, flags=re.M)
    if name == "scan":
        text = re.sub(r'^  "(evals|screened)": \d+,\n', "", text, flags=re.M)
    return text


def capture(name, argv, inputs, workdir):
    """``{file name: text}`` of one case, run in the empty directory ``workdir``."""
    from bellscope.cli import main

    workdir = Path(workdir)
    for file_name, text in inputs.items():
        (workdir / file_name).write_text(text)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            codes = [main([*argv, "--format", "json"]), main([*argv, "--out", "out.csv"])]
    finally:
        os.chdir(cwd)
    if codes != [0, 0]:
        raise RuntimeError(f"{name} exited {codes}")
    return {"stdout.json": stdout.getvalue(),
            "out.csv": (workdir / "out.csv").read_text(),
            "out.csv.run.json": mask(name, (workdir / "out.csv.run.json").read_text())}


def main():
    import tempfile

    from test_reproducibility import GOLDEN_INPUTS, GOLDEN_STDOUT

    for name, (argv, csv) in sorted(GOLDEN_STDOUT.items()):
        with tempfile.TemporaryDirectory() as workdir:
            files = capture(name, argv, GOLDEN_INPUTS, workdir)
        if files["out.csv"] != csv:
            raise RuntimeError(f"{name}: --out differs from its pinned CSV stdout")
        (GOLDEN / name).mkdir(exist_ok=True)
        for file_name, text in files.items():
            (GOLDEN / name / file_name).write_text(text)
        print(f"{name}: {', '.join(sorted(files))}")


if __name__ == "__main__":
    sys.path[:0] = [str(GOLDEN.parent), str(GOLDEN.parents[1] / "src")]
    main()
