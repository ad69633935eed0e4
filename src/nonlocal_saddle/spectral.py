"""Generalized eigenproblem A e = lambda M e and the head/tail splitting.

Eigenvectors are normalized in the discrete L2 inner product and are
orthogonal in the stiffness (Z) inner product; the span of the first k of
them is the head space on which the energy eventually turns negative, its
Z-orthogonal complement the tail space on which the energy grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .assembly import AssembledOperator, _check_dim
from .errors import (AssemblyCorruptionError, EigenClusterError,
                     InvalidParameterError)

#: relative gap below which neighbouring eigenvalues count as one cluster
CLUSTER_GAP = 1.0e-8


@dataclass(frozen=True)
class Spectrum:
    """All eigenpairs of the assembled pencil, ascending, L2-normalized."""

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)  # columns e_j
    op: AssembledOperator = field(repr=False)

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def gap(self, k: int) -> tuple[float, float]:
        """The open interval (lambda_k, lambda_{k+1}), 1-based k."""
        if not 1 <= k < self.size:
            raise InvalidParameterError(f"gap index k={k} out of range")
        _check_cluster_split(self, k)
        return float(self.eigenvalues[k - 1]), float(self.eigenvalues[k])


def _fix_signs(vectors: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Canonical representatives: nonnegative M-weighted mean, ties broken
    by the first coefficient above 1e-12 in magnitude (a column with none
    keeps its sign)."""
    means = np.ones(mass.shape[0]) @ mass @ vectors
    largest = np.maximum(vectors.max(axis=0), -vectors.min(axis=0))
    nonzero = np.abs(vectors) > 1.0e-12
    first = vectors[np.argmax(nonzero, axis=0), np.arange(vectors.shape[1])]
    flip = np.where(np.abs(means) > 1.0e-12 * largest, means < 0.0,
                    nonzero.any(axis=0) & (first < 0.0))
    out = vectors.copy()  # C order: the layout decides how products round
    out *= np.where(flip, -1.0, 1.0)
    return out


def solve_eigenproblem(op: AssembledOperator) -> Spectrum:
    """Dense symmetric-definite eigendecomposition of (A, M); eigh's own
    Cholesky of M rejects a mass matrix that is not SPD."""
    try:
        vals, vecs = scipy.linalg.eigh(op.stiffness, op.mass)
    except scipy.linalg.LinAlgError as exc:
        raise AssemblyCorruptionError(str(exc)) from exc
    # eigh returns M-orthonormal columns; enforce the sign convention
    vecs = _fix_signs(vecs, op.mass)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, op=op)


def rayleigh_quotient(op: AssembledOperator, u) -> float:
    u = _check_dim(op, u)
    denom = float(u @ op.mass @ u)
    if denom <= 0.0:
        raise InvalidParameterError("Rayleigh quotient of the zero vector")
    return float(u @ op.stiffness @ u) / denom


def _check_cluster_split(spectrum: Spectrum, k: int):
    vals = spectrum.eigenvalues
    if k < vals.size:
        lo, hi = vals[k - 1], vals[k]
        if (hi - lo) / max(abs(lo), 1.0e-300) < CLUSTER_GAP:
            raise EigenClusterError(
                f"k={k} splits a numerically repeated eigenvalue cluster "
                f"(lambda_k={lo:.12g}, lambda_k+1={hi:.12g})")


def project(spectrum: Spectrum, u, part: str, k: int) -> np.ndarray:
    """Project onto the head span(e_1..e_k) or its complement.

    part is "head" or "tail"; head + tail = u exactly by construction.
    """
    u = np.asarray(u, dtype=float)
    m = spectrum.size
    if not 1 <= k < m:
        raise InvalidParameterError(f"k must lie in [1, {m - 1}], got {k}")
    if part not in ("head", "tail"):
        raise InvalidParameterError(f"part must be 'head' or 'tail', got {part!r}")
    _check_cluster_split(spectrum, k)
    basis = spectrum.eigenvectors[:, :k]
    head = basis @ (basis.T @ (spectrum.op.mass @ u))
    return head if part == "head" else u - head


def poincare_lower_bound(omega: tuple[float, float], s: float, theta: float,
                         R: float) -> float:
    """Guaranteed floor for the first eigenvalue from the enclosing-ball
    estimate theta * |B_R \\ Omega| / (2R)^(1+2s) in one dimension."""
    a, b = omega
    if not a < b:
        raise InvalidParameterError(f"need a < b, got ({a}, {b})")
    if not 0.0 < s < 1.0:
        raise InvalidParameterError(f"s must lie in (0,1), got {s}")
    if theta <= 0.0:
        raise InvalidParameterError(f"theta must be positive, got {theta}")
    if R <= max(abs(a), abs(b)):
        raise InvalidParameterError(
            f"R={R} does not leave positive measure outside ({a}, {b})")
    # R > max(|a|, |b|) gives b - a < 2R: the ball leaves room outside
    return theta * (2.0 * R - (b - a)) / (2.0 * R) ** (1.0 + 2.0 * s)

