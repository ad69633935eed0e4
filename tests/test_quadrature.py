import json
import subprocess
import sys

import numpy as np
import pytest
from conftest import GAP_CONFIG, child_env

from nonlocal_saddle.quadrature import estimate, integrate_graded_zero, panel_sum


def test_package_import_leaves_out_scipy_integrate():
    """Every integral uses the package's own Gauss panels.  A fresh
    interpreter is needed: the test modules themselves import scipy.special,
    which loads scipy.integrate."""
    code = ("import sys, nonlocal_saddle; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_only_a_factored_newton_system_loads_scipy_linalg(tmp_path):
    """scipy.linalg is imported at the first Morse count, the one
    factored system: the package, the five subcommands on the certified
    GAP_CONFIG and `solve` on a config whose slope range reaches past
    lambda_3 (f2 fails), whose iterates straddle lambda_3 and whose steps
    are all solved in the eigen-coordinates, leave it out; a
    `morse_index` call then loads it."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(GAP_CONFIG))
    uncertified = tmp_path / "uncertified.json"
    uncertified.write_text(json.dumps(
        {**GAP_CONFIG, "nonlinearity": {**GAP_CONFIG["nonlinearity"],
                                        "delta": 10.0}}))
    code = ("import sys, nonlocal_saddle\n"
            "from nonlocal_saddle import cli\n"
            "cfg, uncertified, out = sys.argv[1:]\n"
            "for cmd in ('spectrum', 'verify', 'probe-geometry',\n"
            "            'export-matrices', 'solve'):\n"
            "    assert cli.main([cmd, '--config', cfg, '--out', out]) == 0\n"
            "print('#', 'scipy.linalg' in sys.modules)\n"
            "assert cli.main(['verify', '--config', uncertified,\n"
            "                 '--out', out]) == 0\n"
            "code = cli.main(['solve', '--config', uncertified, '--out', out])\n"
            "print('#', code, 'scipy.linalg' in sys.modules)\n"
            "import numpy as np\n"
            "import nonlocal_saddle as ns\n"
            "from nonlocal_saddle import nonlinearity as nl\n"
            "op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, 16),\n"
            "                 ns.make_fractional_kernel(0.5))\n"
            "spec = nl.affine(0.0, nl.constant_profile(1.0))\n"
            "assert ns.morse_index(op, spec, np.zeros(op.size)) == 0\n"
            "print('#', 'scipy.linalg' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code, str(cfg),
                          str(uncertified), str(tmp_path / "art")],
                         env=child_env(), check=True, capture_output=True,
                         text=True, timeout=300)
    marks = [ln for ln in out.stdout.splitlines() if ln.startswith("#")]
    assert marks == ["# False", "# 0 False", "# True"]
    verdict = json.loads((tmp_path / "art" / "verdict.json").read_text())
    assert verdict["classification"]["k"] == 2
    assert verdict["f2"]["pass"] is False


def test_panel_sum_is_signed_and_skips_empty_panels():
    edges = np.array([[0.0, 0.0], [1.0, -2.0], [1.0, -3.0], [2.0, -3.0]])
    got = panel_sum(lambda t: t ** 3, edges, 2)  # exact for cubics
    np.testing.assert_allclose(got, [4.0, 81.0 / 4.0], rtol=1e-15)


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.2, 1.5])
def test_graded_rule_and_its_estimate_on_powers(alpha):
    value, gap = estimate(
        lambda q: integrate_graded_zero(lambda t: t ** alpha, 2.0, q), 8)
    exact = 2.0 ** (alpha + 1.0) / (alpha + 1.0)
    assert abs(value - exact) <= 1e-12 * exact
    assert gap <= 1e-12 * exact
