"""Smoke runs of the example scripts on small meshes."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, expect", [
    ("gap_solve_demo.py", ["--n", "32"], "Morse index: 2 (expected 2)"),
])
def test_script_runs(script, args, expect):
    r = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 0, r.stderr
    assert expect in r.stdout


SYNTHETIC = '''"""Module docstring
over two lines."""

import math  # a comment after code


# a comment line
def f(x):
    """Function docstring."""
    text = """a string
    over two lines"""
    return math.sqrt(x), text


class C:
    "Class docstring."
    value = 1
'''


def test_count_code_lines_skips_comments_blanks_and_docstrings(tmp_path):
    """of the synthetic file's 17 lines 7 are code: the import, the def,
    the two lines of its multi-line string, the return, the class line and
    its one statement"""
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    r = subprocess.run([sys.executable, str(SCRIPTS / "count_code_lines.py"),
                        str(tmp_path)], capture_output=True, text=True,
                       env=child_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [f"     7  {path}", "     7  total"]


def test_output_fingerprint_quick_is_reproducible():
    """two runs of `output_fingerprint.py --quick` (N = 32, seed 1, three
    exponents of 12 cases each) print the same lines, the last of which
    hashes the others"""
    runs = [subprocess.run([sys.executable,
                            str(SCRIPTS / "output_fingerprint.py"), "--quick"],
                           capture_output=True, text=True, env=child_env())
            for _ in range(2)]
    for r in runs:
        assert r.returncode == 0, r.stderr
    assert runs[0].stdout == runs[1].stdout
    *cases, last = runs[0].stdout.splitlines()
    assert len(cases) == 36
    digest = hashlib.sha256("".join(f"{c}\n" for c in cases).encode())
    assert last == f"all: {digest.hexdigest()}"
