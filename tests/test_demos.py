"""Every walkthrough in ``demos/`` runs to the end, as the README tells users
to run it, with nothing on stderr."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_readme_lists_every_demo():
    listed = re.findall(r"^python3 demos/(\w+)\.py$", (ROOT / "README.md").read_text(),
                        flags=re.MULTILINE)
    assert DEMOS and sorted(listed) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_cleanly(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
