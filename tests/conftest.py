import os
from pathlib import Path

import numpy as np
import pytest

import nonlocal_saddle as ns

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    """The environment for a child Python process, with the package's
    `src` directory ahead of any inherited PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="session")
def op_by_s():
    """Assembled operators at N = 128 for the three standard exponents."""
    out = {}
    for s in (0.25, 0.5, 0.75):
        mesh = ns.build_uniform_mesh(-1.0, 1.0, 128)
        out[s] = ns.assemble(mesh, ns.make_fractional_kernel(s),
                             skip_audit=True)
    return out


@pytest.fixture(scope="session")
def fractional_op(op_by_s):
    """fractional_op(s, n): the operator on (-1, 1) with n elements, built
    once per session."""
    cache = {(s, 128): op for s, op in op_by_s.items()}

    def build(s, n):
        if (s, n) not in cache:
            cache[(s, n)] = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, n),
                                        ns.make_fractional_kernel(s),
                                        skip_audit=True)
        return cache[(s, n)]

    return build


@pytest.fixture(scope="session")
def op128(op_by_s):
    return op_by_s[0.5]


@pytest.fixture(scope="session")
def spectrum_by_s(op_by_s):
    return {s: ns.solve_eigenproblem(op) for s, op in op_by_s.items()}


@pytest.fixture(scope="session")
def spectrum128(spectrum_by_s):
    return spectrum_by_s[0.5]


@pytest.fixture(scope="session")
def ops_refinement():
    """s = 0.5 assemblies across the mesh refinement ladder."""
    kern = ns.make_fractional_kernel(0.5)
    return {n: ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, n), kern,
                           skip_audit=True)
            for n in (32, 64, 128, 512)}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)
