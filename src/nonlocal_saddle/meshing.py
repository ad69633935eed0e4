"""Uniform 1-D meshes with hat basis functions pinned to zero on the boundary."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, check_count, check_real


@dataclass(frozen=True)
class Mesh:
    """Uniform partition of (a, b) into n_elements intervals.

    Degrees of freedom are the interior nodes; the boundary values are
    pinned to zero, realizing the zero extension outside the domain.
    """

    a: float
    b: float
    n_elements: int

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n_elements + 1)

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n_elements

    @property
    def interior_count(self) -> int:
        return self.n_elements - 1

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.nodes[1:-1]


def build_uniform_mesh(a: float, b: float, n_elements: int) -> Mesh:
    a = check_real("a", a)
    b = check_real("b", b, a)
    check_count("n_elements", n_elements, 2)
    return Mesh(a=a, b=b, n_elements=int(n_elements))


def interpolate(mesh: Mesh, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the piecewise-linear interpolant with zero boundary values."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (mesh.interior_count,):
        raise InvalidParameterError(
            f"expected {mesh.interior_count} interior coefficients, "
            f"got shape {coeffs.shape}")
    full = np.concatenate(([0.0], coeffs, [0.0]))
    return np.interp(x, mesh.nodes, full)
