import subprocess
import sys

import numpy as np
import pytest
from conftest import child_env

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
