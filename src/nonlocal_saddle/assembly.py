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
ends (zero for the fractional closed form).  ASSEMBLY_TOL gates it.

The mass matrix is exact, since hat products are piecewise quadratics: it
is the symmetric Toeplitz matrix of its first column (2h/3, h/6, 0, ...).
`AssembledOperator` holds the symbol, the mesh and kappa, and derives that
column (`mass_symbol`) from the mesh.  Products never read an N x N array:
A u is a correlation with the symbol (`_stiffness_times`), M u a
tridiagonal product (`_mass_times`).  `stiffness` and `mass` are read-only
Toeplitz views of the two columns, O(N) memory however large N is, for a
caller that needs the dense matrix: a factorization copies its view.
`gauss` holds the Gauss tables of every integral of f, f_t and F, built
once per operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (AssemblyAccuracyError, AuditFailedError,
                     InvalidParameterError)
from .kernels import (Kernel, KernelAudit, audit_kernel, radial_moment,
                      upper_integral)
from .meshing import Mesh
from .quadrature import GAUSS_ORDER, estimate, gauss_rule

#: bound on quad_error_estimate
ASSEMBLY_TOL = 1.0e-8


@dataclass(frozen=True)
class AssembledOperator:
    """The P1 pencil over the interior hats, held as symbol and mesh."""

    mesh: Mesh
    symbol: np.ndarray = field(repr=False)  # a_d = A[i][i + d]
    tail: np.ndarray = field(repr=False)  # kappa at interior nodes
    quad_error_estimate: float

    @property
    def size(self) -> int:
        return self.mesh.interior_count

    @property
    def mass_symbol(self) -> np.ndarray:
        """M's first column (2h/3, h/6, 0, ...), c_d = M[i][i + d]."""
        column = np.zeros(self.size)
        column[0] = 2.0 * self.mesh.h / 3.0
        column[1:2] = self.mesh.h / 6.0
        return column

    @cached_property
    def stiffness(self) -> np.ndarray:
        """A as a read-only Toeplitz view of `symbol` (`_toeplitz`)."""
        return _toeplitz(self.symbol)

    @cached_property
    def mass(self) -> np.ndarray:
        """M as a read-only Toeplitz view of `mass_symbol` (`_toeplitz`)."""
        return _toeplitz(self.mass_symbol)

    @cached_property
    def gauss(self) -> tuple:
        """The Gauss tables of the nonlinear terms, read-only: the points xg
        and weights wg of the GAUSS_ORDER-point rule on each element, shape
        (n_elements, GAUSS_ORDER), and its nodes xi on [0, 1]."""
        mesh = self.mesh
        xi, wref = gauss_rule(GAUSS_ORDER)
        xg = mesh.nodes[:-1, None] + mesh.h * xi[None, :]
        wg = mesh.h * wref[None, :] * np.ones((mesh.n_elements, 1))
        xg.flags.writeable = wg.flags.writeable = False
        return xg, wg, xi


def _palindrome(column: np.ndarray) -> np.ndarray:
    """[c_{n-1} .. c_1, c_0, c_1 .. c_{n-1}] for column c_0 .. c_{n-1}."""
    return np.concatenate((column[::-1], column[1:]))


def _toeplitz(column: np.ndarray) -> np.ndarray:
    """Read-only view T[i][j] = column[|i - j|]: row i of the reversed
    windows of the palindrome (`_palindrome`) starts at c_i."""
    return sliding_window_view(_palindrome(column), column.size)[::-1]


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
# driver
# ---------------------------------------------------------------------------

def assemble(mesh: Mesh, kernel: Kernel,
             audit: KernelAudit | None = None) -> AssembledOperator:
    """Assemble the stiffness symbol and tail weights for (mesh, kernel)
    with Gauss order GAUSS_ORDER, gated by ASSEMBLY_TOL."""
    if audit is None:
        audit = audit_kernel(kernel)
    if not audit.passed:
        raise AuditFailedError(
            f"kernel failed its structural audit (k1_holds={audit.k1_holds}, "
            f"k2_holds={audit.k2_holds})")

    h = mesh.h
    size = mesh.interior_count

    def kappa_at(order):
        # interior node i lies i h from a and (N - i) h from b
        from_a = upper_integral(kernel, h * np.arange(1, size + 1), order)
        return from_a + from_a[::-1]

    symbol, symbol_error = estimate(lambda q: _symbol(kernel, h, size, q),
                                    GAUSS_ORDER)
    kappa, kappa_error = estimate(kappa_at, GAUSS_ORDER)
    error = np.concatenate((symbol_error,
                            kappa_error / np.maximum(1.0, np.abs(kappa))))
    worst = float(error.max())
    if not worst <= ASSEMBLY_TOL:  # a NaN estimate fails the gate too
        i = int(np.argmax(error))
        raise AssemblyAccuracyError((0, i) if i < size else ("kappa", i - size),
                                    worst, ASSEMBLY_TOL)
    return AssembledOperator(mesh=mesh, symbol=symbol, tail=kappa,
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


def _stiffness_times(op: AssembledOperator, u: np.ndarray) -> np.ndarray:
    """A u for a vector u, without reading an N x N array: window k of the
    palindrome (`_palindrome`) is row N - 2 - k of A, so the valid
    correlation of the palindrome with u is A u reversed.  Each entry is
    one dot product of a row with u, as in the dense product, in O(N)
    memory."""
    return np.correlate(_palindrome(op.symbol), u, "valid")[::-1]


def norm_Z(op: AssembledOperator, u) -> float:
    u = _check_dim(op, u)
    return math.sqrt(max(float(u @ _stiffness_times(op, u)), 0.0))


def _tridiagonal(bands, x: np.ndarray) -> np.ndarray:
    """W x for the bands (diagonal, off-diagonal) of a symmetric
    tridiagonal W; either band may be a scalar or a length-1 array."""
    diag, off = bands
    out = diag * x
    out[:-1] += off * x[1:]
    out[1:] += off * x[:-1]
    return out


def _mass_times(op: AssembledOperator, u: np.ndarray) -> np.ndarray:
    """M u as the tridiagonal product of `op.mass_symbol`, in O(N)."""
    column = op.mass_symbol
    return _tridiagonal((column[0], column[1:2]), u)


def norm_L2(op: AssembledOperator, u) -> float:
    u = _check_dim(op, u)
    return math.sqrt(max(float(u @ _mass_times(op, u)), 0.0))
