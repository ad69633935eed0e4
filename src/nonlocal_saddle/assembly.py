"""Galerkin assembly of the nonlocal bilinear form on a uniform 1-D mesh.

The stiffness entry A[i][j] is the double integral of
(phi_i(x) - phi_i(y)) (phi_j(x) - phi_j(y)) K(x - y) over the region that
excludes (complement x complement); splitting that region gives an
Omega x Omega part plus a tail term 2 * int phi_i phi_j kappa(x) dx with
kappa(x) = int_{outside} K(x - y) dy.

Because K depends on the offset x - y only and the mesh is uniform, the
Omega x Omega pair integrals depend only on the element offset, so each
distinct geometry is integrated once and scattered along the diagonals.
Touching element pairs reduce exactly in relative coordinates: hat
differences are linear in the offset, so the singular factor appears only
through radial moments of K, which are closed-form for the fractional
family and graded-Gauss for custom kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import (AssemblyAccuracyError, AuditFailedError,
                     InvalidParameterError, SingularEvaluationError)
from .kernels import (DEFAULT_RADIUS_CAP, Kernel, KernelAudit, KernelFamily,
                      audit_kernel, far_field_tail)
from .meshing import Mesh
from .quadrature import gauss_points, integrate_graded_zero


@dataclass(frozen=True)
class AssembledOperator:
    """Dense stiffness/mass matrices over the interior hat basis."""

    mesh: Mesh
    kernel: Kernel
    stiffness: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)
    tail: np.ndarray = field(repr=False)  # kappa at interior nodes
    quad_order: int
    assembly_tol: float
    quad_error_estimate: float

    @property
    def size(self) -> int:
        return self.mesh.interior_count


# ---------------------------------------------------------------------------
# tail weight kappa(x) = integral of K(x - y) over the complement of (a, b)
# ---------------------------------------------------------------------------

def _kernel_upper_integral(kernel: Kernel, lower: float,
                           radius_cap: float = DEFAULT_RADIUS_CAP) -> float:
    """Integral of K over (lower, inf) with power-law tail extrapolation."""
    if kernel.family is KernelFamily.FRACTIONAL:
        return lower ** (-2.0 * kernel.s) / (2.0 * kernel.s)
    # decade-by-decade: QUADPACK cannot resolve (lower, 1e8) in one call
    body = 0.0
    lo = lower
    while lo < radius_cap:
        hi = min(lo * 10.0, radius_cap)
        part, _ = quad(lambda t: kernel(t), lo, hi,
                       epsabs=1.0e-12, epsrel=1.0e-12, limit=200)
        body += part
        lo = hi
    return body + far_field_tail(kernel, radius_cap)


def tail_weight(mesh: Mesh, kernel: Kernel, x: float) -> float:
    """kappa(x) for x strictly inside the domain."""
    if not mesh.a < x < mesh.b:
        raise SingularEvaluationError(
            f"tail weight is singular on or outside the boundary, x={x}")
    return (_kernel_upper_integral(kernel, x - mesh.a)
            + _kernel_upper_integral(kernel, mesh.b - x))


# ---------------------------------------------------------------------------
# radial moments of K on (0, h]
# ---------------------------------------------------------------------------

def _moment_same(kernel: Kernel, h: float, order: int) -> float:
    """2 * int_0^h (h - t) t^2 K(t) dt (identical-element pair integral)."""
    if kernel.family is KernelFamily.FRACTIONAL:
        s = kernel.s
        return 2.0 * h ** (3.0 - 2.0 * s) * (1.0 / (2.0 - 2.0 * s)
                                             - 1.0 / (3.0 - 2.0 * s))
    return 2.0 * integrate_graded_zero(
        lambda t: (h - t) * t * t * kernel(t), h, order)


def _moment_cubic(kernel: Kernel, h: float, order: int) -> float:
    """int_0^h t^3 K(t) dt (near piece of the touching-pair integral)."""
    if kernel.family is KernelFamily.FRACTIONAL:
        s = kernel.s
        return h ** (3.0 - 2.0 * s) / (3.0 - 2.0 * s)
    return integrate_graded_zero(lambda t: t ** 3 * kernel(t), h, order)


# ---------------------------------------------------------------------------
# local pair matrices (reference element at the origin)
# ---------------------------------------------------------------------------

def _local_same(kernel: Kernel, h: float, order: int) -> np.ndarray:
    moment = _moment_same(kernel, h, order)
    base = moment / (h * h)
    return np.array([[base, -base], [-base, base]])


def _local_adjacent(kernel: Kernel, h: float, order: int) -> np.ndarray:
    """3x3 pair matrix for elements sharing one node.

    In relative coordinates (x = corner - u, y = corner + v, u = t*w,
    v = t*(1-w)) the hat differences are -t * L_p(w) with L_p linear in w,
    so the pair integral is int t^3 K(t) * Psi_pq(t) dt with Psi_pq the
    exact w-integral of L_p L_q over the admissible window.
    """
    slope_a = np.array([-1.0, 1.0, 0.0]) / h
    slope_b = np.array([0.0, -1.0, 1.0]) / h
    d = slope_a - slope_b
    P = np.outer(d, d)
    Q = np.outer(d, slope_b) + np.outer(slope_b, d)
    R = np.outer(slope_b, slope_b)

    # t <= h: the full window w in [0,1], Psi is constant.
    loc = (P / 3.0 + Q / 2.0 + R) * _moment_cubic(kernel, h, order)

    # t in (h, 2h]: window [1 - h/t, h/t], smooth; two Gauss panels.
    for lo, hi in ((h, 1.5 * h), (1.5 * h, 2.0 * h)):
        t, w = gauss_points(lo, hi, order)
        w1 = h / t
        w0 = 1.0 - w1
        f = w * t ** 3 * kernel(t)
        g3 = float(np.dot(f, (w1 ** 3 - w0 ** 3) / 3.0))
        g2 = float(np.dot(f, (w1 ** 2 - w0 ** 2) / 2.0))
        g1 = float(np.dot(f, w1 - w0))
        loc += P * g3 + Q * g2 + R * g1
    return loc


def _composite_gauss(lo: float, hi: float, order: int, panels: int):
    edges = np.linspace(lo, hi, panels + 1)
    xs, ws = [], []
    for p_lo, p_hi in zip(edges[:-1], edges[1:]):
        x, w = gauss_points(p_lo, p_hi, order)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def _local_separated(kernel: Kernel, h: float, offset: int, order: int,
                     panels: int) -> np.ndarray:
    """4x4 pair matrix for elements [0,h] and [offset*h, (offset+1)*h]."""
    xg, wx = _composite_gauss(0.0, h, order, panels)
    yg, wy = _composite_gauss(offset * h, (offset + 1) * h, order, panels)
    kmat = kernel(yg[None, :] - xg[:, None])
    weight = wx[:, None] * wy[None, :] * kmat

    xi = xg / h
    eta = yg / h - offset
    # hat differences: left nodes see phi(x), right nodes see -phi(y)
    dx = np.stack([1.0 - xi, xi, np.zeros_like(xi), np.zeros_like(xi)])
    dy = np.stack([np.zeros_like(eta), np.zeros_like(eta), 1.0 - eta, eta])
    diff = dx[:, :, None] - dy[:, None, :]
    return np.einsum("pij,qij,ij->pq", diff, diff, weight)


# ---------------------------------------------------------------------------
# tail term 2 * int phi_i phi_j kappa(x) dx
# ---------------------------------------------------------------------------

def _singular_moments(xi0: float, xi1: float, twos: float) -> np.ndarray:
    """int_{xi0}^{xi1} xi^(k - 2s) d xi for k = 0, 1, 2."""
    out = np.empty(3)
    for k in range(3):
        p = k - twos
        if abs(p + 1.0) < 1.0e-13:
            # divergent at xi0 = 0; there the moment only multiplies the
            # boundary-node pattern whose row/col is discarded (the other
            # coefficient rows carry an explicit factor xi0 = 0)
            out[k] = math.log(xi1 / xi0) if xi0 > 0.0 else 0.0
        else:
            out[k] = (xi1 ** (p + 1.0) - (xi0 ** (p + 1.0) if xi0 > 0.0 else 0.0)) / (p + 1.0)
    return out


def _tail_block_fractional(xi0: float, xi1: float, h: float,
                           twos: float) -> np.ndarray:
    """2x2 of int phi_p phi_q xi^(-2s) dxi on [xi0, xi1], xi the distance
    to the boundary.

    Index 0 is the hat (xi1 - xi)/h, equal to 1 at xi0, the end nearer
    the boundary; index 1 is the hat (xi - xi0)/h, equal to 1 at xi1.
    Products expanded in monomials of xi.
    """
    moments = _singular_moments(xi0, xi1, twos)
    # (xi1 - xi)^2, (xi1 - xi)(xi - xi0), (xi - xi0)^2 in powers of xi
    c_00 = np.array([xi1 * xi1, -2.0 * xi1, 1.0])
    c_01 = np.array([-xi0 * xi1, xi0 + xi1, -1.0])
    c_11 = np.array([xi0 * xi0, -2.0 * xi0, 1.0])
    b00 = float(np.dot(c_00, moments)) / (h * h)
    b01 = float(np.dot(c_01, moments)) / (h * h)
    b11 = float(np.dot(c_11, moments)) / (h * h)
    return np.array([[b00, b01], [b01, b11]])


def _assemble_tail_fractional(mesh: Mesh, kernel: Kernel) -> np.ndarray:
    n = mesh.n_elements
    h = mesh.h
    twos = 2.0 * kernel.s
    scale = 1.0 / twos  # kappa_side(x) = dist^(-2s) / (2s)
    t_full = np.zeros((n + 1, n + 1))
    for e in range(n):
        # left boundary, xi = x - a on [xi0, xi1]: phi_e = (xi1 - xi)/h
        # is block index 0 and phi_{e+1} = (xi - xi0)/h index 1
        xi0, xi1 = e * h, (e + 1) * h
        left = _tail_block_fractional(xi0, xi1, h, twos)
        # right boundary, eta = b - x on [eta0, eta1]: phi_e = (eta -
        # eta0)/h is index 1 and phi_{e+1} = (eta1 - eta)/h index 0, so
        # the block is flipped into node order (e, e+1)
        eta0, eta1 = (n - e - 1) * h, (n - e) * h
        right = _tail_block_fractional(eta0, eta1, h, twos)[::-1, ::-1]
        t_full[e:e + 2, e:e + 2] += 2.0 * scale * (left + right)
    return t_full


def _assemble_tail_custom(mesh: Mesh, kernel: Kernel, order: int) -> np.ndarray:
    n = mesh.n_elements
    h = mesh.h
    t_full = np.zeros((n + 1, n + 1))
    for e in range(n):
        x_lo, x_hi = mesh.element(e)
        # grade panels toward the nearer boundary where kappa blows up
        if e == 0:
            edges = mesh.a + h * 0.2 ** np.arange(10, -1, -1.0)
            edges[0] = mesh.a
        elif e == n - 1:
            edges = mesh.b - h * 0.2 ** np.arange(10, -1, -1.0)
            edges = edges[::-1]
            edges[-1] = mesh.b
        else:
            edges = np.linspace(x_lo, x_hi, 3)
        for p_lo, p_hi in zip(edges[:-1], edges[1:]):
            xg, wg = gauss_points(p_lo, p_hi, order)
            kap = np.array([tail_weight(mesh, kernel, x) for x in xg])
            phi_e = (x_hi - xg) / h
            phi_e1 = (xg - x_lo) / h
            basis = np.stack([phi_e, phi_e1])
            loc = 2.0 * np.einsum("pg,qg,g->pq", basis, basis, wg * kap)
            idx = (e, e + 1)
            for p in range(2):
                for q in range(2):
                    t_full[idx[p], idx[q]] += loc[p, q]
    return t_full


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

def _scatter(a_full: np.ndarray, e: np.ndarray, offsets, loc: np.ndarray):
    for p, op_ in enumerate(offsets):
        for q, oq in enumerate(offsets):
            a_full[e + op_, e + oq] += loc[p, q]


def _assemble_omega_part(mesh: Mesh, kernel: Kernel, order: int):
    """Omega x Omega part by offset; returns (A_full, per-entry error bound)."""
    n = mesh.n_elements
    h = mesh.h
    a_full = np.zeros((n + 1, n + 1))
    err_full = np.zeros((n + 1, n + 1))
    hi_order = order + 6

    e_all = np.arange(n)
    _scatter(a_full, e_all, (0, 1), _local_same(kernel, h, order))

    loc = 2.0 * _local_adjacent(kernel, h, order)
    loc_hi = 2.0 * _local_adjacent(kernel, h, hi_order)
    e_adj = np.arange(n - 1)
    _scatter(a_full, e_adj, (0, 1, 2), loc)
    _scatter(err_full, e_adj, (0, 1, 2), np.abs(loc - loc_hi))

    for d in range(2, n):
        panels = 2 if d <= 3 else 1
        loc = 2.0 * _local_separated(kernel, h, d, order, panels)
        loc_hi = 2.0 * _local_separated(kernel, h, d, hi_order, panels)
        e_sep = np.arange(n - d)
        _scatter(a_full, e_sep, (0, 1, d, d + 1), loc)
        _scatter(err_full, e_sep, (0, 1, d, d + 1), np.abs(loc - loc_hi))
    return a_full, err_full


def assemble(mesh: Mesh, kernel: Kernel, quad_order: int = 8,
             assembly_tol: float = 1.0e-8,
             audit: KernelAudit | None = None,
             skip_audit: bool = False) -> AssembledOperator:
    """Assemble stiffness, mass and tail weights for (mesh, kernel)."""
    if quad_order < 3:
        raise InvalidParameterError(f"quad_order must be >= 3, got {quad_order}")
    if assembly_tol <= 0.0:
        raise InvalidParameterError("assembly_tol must be positive")
    if not skip_audit:
        if audit is None:
            audit = audit_kernel(kernel)
        if not audit.passed:
            raise AuditFailedError(
                "kernel failed its structural audit; pass skip_audit=True "
                f"to override (k1_holds={audit.k1_holds}, "
                f"k2_holds={audit.k2_holds})")

    a_full, err_full = _assemble_omega_part(mesh, kernel, quad_order)
    if kernel.family is KernelFamily.FRACTIONAL:
        a_full += _assemble_tail_fractional(mesh, kernel)
    else:
        a_full += _assemble_tail_custom(mesh, kernel, quad_order)

    n = mesh.n_elements
    a_int = a_full[1:n, 1:n]
    err_int = err_full[1:n, 1:n]
    worst = float(err_int.max()) if err_int.size else 0.0
    if worst > assembly_tol:
        i, j = np.unravel_index(int(np.argmax(err_int)), err_int.shape)
        raise AssemblyAccuracyError((int(i), int(j)), worst, assembly_tol)

    # mirror the upper triangle so symmetry holds exactly
    a_sym = np.triu(a_int) + np.triu(a_int, 1).T

    kappa = np.array([tail_weight(mesh, kernel, x) for x in mesh.interior_nodes])
    return AssembledOperator(mesh=mesh, kernel=kernel, stiffness=a_sym,
                             mass=mass_matrix(mesh), tail=kappa,
                             quad_order=quad_order, assembly_tol=assembly_tol,
                             quad_error_estimate=worst)


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


def norm_X(op: AssembledOperator, u) -> float:
    u = _check_dim(op, u)
    return math.sqrt(max(float(u @ op.mass @ u) + float(u @ op.stiffness @ u), 0.0))
