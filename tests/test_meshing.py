import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonlocal_saddle as ns
from nonlocal_saddle.errors import InvalidParameterError


def test_uniform_mesh_basic():
    """the mesh holds (a, b, n_elements) and derives its nodes, so a copy
    of an 8-element mesh with 4 elements is the 4-element mesh"""
    assert [f.name for f in dataclasses.fields(ns.Mesh)] == [
        "a", "b", "n_elements"]
    mesh = ns.build_uniform_mesh(-1.0, 1.0, 4)
    assert mesh == dataclasses.replace(ns.build_uniform_mesh(-1.0, 1.0, 8),
                                       n_elements=4)
    assert mesh.h == pytest.approx(0.5)
    assert mesh.interior_count == 3
    np.testing.assert_allclose(mesh.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0])
    np.testing.assert_allclose(mesh.interior_nodes, [-0.5, 0.0, 0.5])
    assert tuple(mesh.nodes[:2]) == (-1.0, -0.5)
    assert tuple(mesh.nodes[3:]) == (0.5, 1.0)


@pytest.mark.parametrize("a,b,n", [(1.0, -1.0, 4), (0.0, 0.0, 4),
                                   (-1.0, 1.0, 1), (-1.0, 1.0, 0),
                                   (-1.0, 1.0, 2.5), (-1.0, 1.0, 3.0),
                                   (-1.0, math.inf, 4)])
def test_uniform_mesh_rejects_bad_input(a, b, n):
    with pytest.raises(InvalidParameterError):
        ns.build_uniform_mesh(a, b, n)


def test_interpolate_is_zero_outside():
    mesh = ns.build_uniform_mesh(-1.0, 1.0, 4)
    coeffs = np.array([1.0, 2.0, 3.0])
    assert ns.interpolate(mesh, coeffs, -5.0) == 0.0
    assert ns.interpolate(mesh, coeffs, 5.0) == 0.0
    assert ns.interpolate(mesh, coeffs, -1.0) == 0.0
    assert ns.interpolate(mesh, coeffs, 1.0) == 0.0


def test_interpolate_reproduces_nodal_values():
    mesh = ns.build_uniform_mesh(-1.0, 1.0, 8)
    coeffs = np.sin(np.arange(7, dtype=float))
    for x, c in zip(mesh.interior_nodes, coeffs):
        assert ns.interpolate(mesh, coeffs, x) == pytest.approx(c, rel=1e-14)
    # midpoint of an interior element is the average of its endpoints
    mid = 0.5 * (mesh.interior_nodes[2] + mesh.interior_nodes[3])
    assert ns.interpolate(mesh, coeffs, mid) == pytest.approx(
        0.5 * (coeffs[2] + coeffs[3]), rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(min_value=-10, max_value=0), width=st.floats(min_value=0.1, max_value=20),
       n=st.integers(min_value=2, max_value=200),
       m=st.integers(min_value=2, max_value=200))
def test_mesh_nodes_consistent(a, width, n, m):
    """the nodes follow (a, b, n_elements), also on a mesh built by
    dataclasses.replace, and equal meshes compare equal"""
    mesh = ns.build_uniform_mesh(a, a + width, n)
    assert mesh.nodes.size == n + 1
    assert mesh.interior_count == n - 1
    assert mesh.h == pytest.approx(width / n, rel=1e-12)
    assert np.all(np.diff(mesh.nodes) > 0)
    assert mesh == ns.build_uniform_mesh(a, a + width, n)
    other = dataclasses.replace(mesh, n_elements=m)
    assert other.nodes.size == m + 1
    assert other.interior_nodes.size == other.interior_count
    np.testing.assert_allclose(np.diff(other.nodes), other.h, rtol=1e-9)

