"""Smoke runs of the example scripts on small meshes."""

import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, expect", [
    ("gap_solve_demo.py", ["--n", "32"], "Morse index: 2 (expected 2)"),
    ("spectrum_convergence.py", ["--meshes", "8", "16", "32"],
     "relative error against the finest mesh"),
])
def test_script_runs(script, args, expect):
    r = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 0, r.stderr
    assert expect in r.stdout
