"""Galerkin assembly of the nonlocal bilinear form on a uniform 1-D mesh.

The stiffness entry A[i][j] is the double integral of
(phi_i(x) - phi_i(y)) (phi_j(x) - phi_j(y)) K(x - y) over the region that
excludes (complement x complement): an Omega x Omega part plus the tail
term 2 * int phi_i phi_j kappa(x) dx with kappa(x) = int_{outside}
K(x - y) dy.  The hats vanish outside Omega, so this is the same integral
over the whole plane; it depends only on j - i, and A is the symmetric
Toeplitz matrix of its first column a_0 .. a_{N-2}.  With y = x + r,

    a_d = 2 int_0^inf K(r) [2C(dh) - C(r - dh) - C(r + dh)] dr,

where C(t) = int phi(x) phi(x + t) dx = h B(t/h) is the autocorrelation of
a hat and B the centred cubic B-spline.  The r-integral has three pieces:

* (0, h]: the bracket is h times a cubic in r/h without constant or linear
  term (nonzero for d <= 2 only), integrated against the radial moments
  int_0^h t^c K(t) dt, c = 2, 3.  These are closed forms for the
  fractional family and graded Gauss for custom kernels.
* [h, (d + 2)h]: the bracket is a piecewise cubic with breaks at multiples
  of h and K is smooth; two Gauss panels per h, one kernel call for all d.
* beyond (d + 2)h: the bracket is the constant 2C(dh), nonzero for d < 2,
  times int_{(d+2)h}^inf K, which is closed-form for the fractional family
  and, for custom kernels, Gauss panels [r, 2r] up to RADIUS_CAP with a
  power-law far field beyond.

The tail weight kappa(x) = int_{x-a}^inf K + int_{b-x}^inf K takes the
same upper integrals; it is reported as `tail`, and the symbol never reads
it.  quad_error_estimate is the largest gap between Gauss orders q and q + 6
over everything assemble returns: the symbol a_d (the panels, the graded
moments and the far field all change with the order) and kappa at every
node relative to max(1, |kappa|), since kappa grows like h^(-2s) at the
ends (zero for the fractional closed form).  assembly_tol gates it.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import toeplitz

from .errors import (AssemblyAccuracyError, AuditFailedError,
                     InvalidParameterError, SingularEvaluationError)
from .kernels import (Kernel, KernelAudit, audit_kernel, radial_moment,
                      upper_integral)
from .meshing import Mesh
from .quadrature import GAUSS_ORDER, estimate, gauss_rule


@dataclass(frozen=True)
class AssembledOperator:
    """Dense stiffness/mass matrices over the interior hat basis."""

    mesh: Mesh
    kernel: Kernel
    stiffness: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)
    tail: np.ndarray = field(repr=False)  # kappa at interior nodes
    quad_order: int
    quad_error_estimate: float

    @property
    def size(self) -> int:
        return self.mesh.interior_count


# ---------------------------------------------------------------------------
# tail weight kappa(x) = integral of K(x - y) over the complement of (a, b)
# ---------------------------------------------------------------------------

def tail_weight(mesh: Mesh, kernel: Kernel, x: float) -> float:
    """kappa(x) for x strictly inside the domain, at order GAUSS_ORDER."""
    if not mesh.a < x < mesh.b:
        raise SingularEvaluationError(
            f"tail weight is singular on or outside the boundary, x={x}")
    return float(upper_integral(kernel, x - mesh.a, GAUSS_ORDER)
                 + upper_integral(kernel, mesh.b - x, GAUSS_ORDER))


# ---------------------------------------------------------------------------
# the Toeplitz symbol a_d = A[i][i + d]
# ---------------------------------------------------------------------------

#: The bracket 2C(dh) - C(r - dh) - C(r + dh) on r in (0, h] for d = 0, 1, 2,
#: as h times coefficients of (rho^2, rho^3), rho = r/h.  Written out so no
#: difference of nearly equal B values is taken near r = 0.
_NEAR_BRACKET = ((2.0, -1.0), (-1.0, 2.0 / 3.0), (0.0, -1.0 / 6.0))


def _hat_autocorrelation(x: np.ndarray) -> np.ndarray:
    """Centred cubic B-spline B: int phi(y) phi(y + t) dy = h B(t/h)."""
    x = np.abs(x)
    return np.where(x <= 1.0, 2.0 / 3.0 - x * x + 0.5 * x ** 3,
                    np.clip(2.0 - x, 0.0, None) ** 3 / 6.0)


def _symbol(kernel: Kernel, h: float, size: int, order: int) -> np.ndarray:
    """a_d = 2 int_0^inf K(r) [2C(dh) - C(r - dh) - C(r + dh)] dr, d < size.

    The bracket is h * beta_d(r/h) with beta_d(rho) = 2B(d) - B(rho - d)
    - B(rho + d); it is a polynomial in rho on (0, 1], vanishes there for
    d > 2, and equals the constant 2B(d) beyond d + 2 (nonzero for d < 2).
    """
    d = np.arange(size)
    # row k - 1 holds the unit panel rho in [k, k + 1], k = 1 .. size, as
    # two Gauss panels: nodes rho and weights h w K(h rho) (one kernel call)
    x, w = gauss_rule(order)
    x = np.concatenate((x, 1.0 + x)) / 2.0
    w = np.concatenate((w, w)) / 2.0
    rho = np.arange(1, size + 1)[:, None] + x
    kw = h * w * kernel(h * rho)
    # a_d gathers its panels k = d - 2 .. d + 1 that lie in rho >= 1
    row = d[:, None] + np.arange(-3, 1)
    used = (row >= 0).astype(float)
    row = np.maximum(row, 0)
    dd = d[:, None, None]
    beta = (2.0 * _hat_autocorrelation(dd) - _hat_autocorrelation(rho[row] - dd)
            - _hat_autocorrelation(rho[row] + dd))
    a = np.einsum("dj,djg,djg->d", used, kw[row], beta)

    moments = [radial_moment(kernel, h, c, order) / h ** c
               for c in (2, 3)]
    for j, coeffs in enumerate(_NEAR_BRACKET[:size]):
        a[j] += np.dot(coeffs, moments)
    for j in range(min(size, 2)):
        a[j] += (2.0 * _hat_autocorrelation(j)
                 * upper_integral(kernel, (j + 2) * h, order))
    return 2.0 * h * a


# ---------------------------------------------------------------------------
# mass matrix (exact: hat products are piecewise quadratics)
# ---------------------------------------------------------------------------

def mass_matrix(mesh: Mesh) -> np.ndarray:
    m = mesh.interior_count
    h = mesh.h
    mat = np.zeros((m, m))
    idx = np.arange(m)
    mat[idx, idx] = 2.0 * h / 3.0
    mat[idx[:-1], idx[:-1] + 1] = h / 6.0
    mat[idx[:-1] + 1, idx[:-1]] = h / 6.0
    return mat


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def assemble(mesh: Mesh, kernel: Kernel, quad_order: int = GAUSS_ORDER,
             assembly_tol: float = 1.0e-8,
             audit: KernelAudit | None = None,
             skip_audit: bool = False) -> AssembledOperator:
    """Assemble stiffness, mass and tail weights for (mesh, kernel)."""
    if (isinstance(quad_order, bool)
            or not isinstance(quad_order, numbers.Integral) or quad_order < 3):
        raise InvalidParameterError(
            f"quad_order must be an integer >= 3, got {quad_order!r}")
    if not (assembly_tol > 0.0 and math.isfinite(assembly_tol)):
        raise InvalidParameterError(
            f"assembly_tol must be positive and finite, got {assembly_tol!r}")
    if not skip_audit:
        if audit is None:
            audit = audit_kernel(kernel)
        if not audit.passed:
            raise AuditFailedError(
                "kernel failed its structural audit; pass skip_audit=True "
                f"to override (k1_holds={audit.k1_holds}, "
                f"k2_holds={audit.k2_holds})")

    h = mesh.h
    size = mesh.interior_count

    def kappa_at(order):
        # interior node i lies i h from a and (N - i) h from b
        from_a = upper_integral(kernel, h * np.arange(1, size + 1), order)
        return from_a + from_a[::-1]

    symbol, symbol_error = estimate(lambda q: _symbol(kernel, h, size, q),
                                    quad_order)
    kappa, kappa_error = estimate(kappa_at, quad_order)
    error = np.concatenate((symbol_error,
                            kappa_error / np.maximum(1.0, np.abs(kappa))))
    worst = float(error.max())
    if not worst <= assembly_tol:  # a NaN estimate fails the gate too
        i = int(np.argmax(error))
        raise AssemblyAccuracyError((0, i) if i < size else ("kappa", i - size),
                                    worst, assembly_tol)
    return AssembledOperator(mesh=mesh, kernel=kernel,
                             stiffness=toeplitz(symbol), mass=mass_matrix(mesh), tail=kappa,
                             quad_order=quad_order, quad_error_estimate=worst)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _check_dim(op: AssembledOperator, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (op.size,):
        raise InvalidParameterError(
            f"coefficient vector has shape {u.shape}, expected ({op.size},)")
    return u


def norm_Z(op: AssembledOperator, u) -> float:
    u = _check_dim(op, u)
    return math.sqrt(max(float(u @ op.stiffness @ u), 0.0))


def norm_L2(op: AssembledOperator, u) -> float:
    u = _check_dim(op, u)
    return math.sqrt(max(float(u @ op.mass @ u), 0.0))
