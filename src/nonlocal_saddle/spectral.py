"""Generalized eigenproblem A e = lambda M e and the head/tail splitting.

Eigenvectors are normalized in the discrete L2 inner product and are
orthogonal in the stiffness (Z) inner product; the span of the first k of
them is the head space on which the energy eventually turns negative, its
Z-orthogonal complement the tail space on which the energy grows.

A (symmetric Toeplitz) and M (tridiagonal Toeplitz) commute with the
reversal J, so the pencil splits exactly into an even and an odd block of
half the order (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  With
n = N - 1, p = n // 2 and X11, X12 the top-left and top-right p x p blocks,
the halves are X11 + X12 J and X11 - X12 J; for odd n the even half also
takes the middle row and column, off the diagonal scaled by sqrt(2).  For a
symmetric Toeplitz X with first column c, X11 is the Toeplitz matrix of
c_0 .. c_{p-1} and X12 J the Hankel matrix of c_{n-1} .. c_1, so each half
is read from the column alone: `op.symbol` for A, `op.mass_symbol` for M,
and the eigensolve never builds the dense A or M.  The reflection changes
only entries on or next to the diagonal, so each half of M is tridiagonal,
its two bands are read in closed form from c_0 and c_1
(`_mass_half_bands`), and it factors as L L^T with L bidiagonal, in O(p);
two bidiagonal sweeps then reduce the half pencil to the standard
symmetric matrix C = L^-1 A L^-T, in O(p^2).  One `numpy.linalg.eigh(C)`
per half gives the eigenvalues and, mapped back by e = L^-T y, the
M-orthonormal half eigenvectors.  Every eigenvector is exactly even or exactly odd; the solve
fixes its sign once, on its half eigenvector, so that its M-weighted mean
1^T M e is nonnegative (the tie-break of `_fix_signs` for an odd mode,
whose mean is zero).  `to_eigen` and `from_eigen` apply that one basis E
from the halves, to a vector or to a block of columns, with coefficients
in the order of `eigenvalues`: the even/odd order of the halves never
leaves `Spectrum`, and no N x N eigenvector matrix is ever built.  Both
columns come from the construction, so A and M are centrosymmetric and M
tridiagonal by design;
`solve_eigenproblem` refuses a non-finite symbol and a mesh whose M is not
SPD (a bidiagonal Cholesky pivot that is not positive and finite: width
<= 0 or NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .assembly import (AssembledOperator, _check_dim, _mass_times,
                       _stiffness_times, _toeplitz)
from .errors import (AssemblyCorruptionError, EigenClusterError,
                     InvalidParameterError, NumericError, check_count,
                     check_real)

#: relative gap below which neighbouring eigenvalues count as one cluster
CLUSTER_GAP = 1.0e-8


@dataclass(frozen=True)
class Spectrum:
    """All eigenpairs of the assembled pencil, ascending, L2-normalized.

    The eigenvectors are held as the half eigenvectors and applied only
    through `to_eigen` (E^T) and `from_eigen` (E), whose coefficients are
    in the order of `eigenvalues`."""

    eigenvalues: np.ndarray = field(repr=False)
    op: AssembledOperator = field(repr=False)
    #: M-orthonormal, canonically signed eigenvectors of the two half pencils
    halves: tuple[np.ndarray, np.ndarray] = field(repr=False)
    #: position in `eigenvalues` of each half eigenpair, even half first
    rank: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def to_eigen(self, g: np.ndarray) -> np.ndarray:
        """E^T g for g or each column of a 2-D g.  E holds the canonical
        eigenvectors as columns in the order of `eigenvalues`; it is
        M-orthonormal, so E^T M E = I and E^T A E = diag `eigenvalues`.
        Read from the half eigenvectors y: e_j^T g = y_i^T h / sqrt2, h the
        fold of g into y's half (`_fold`), scattered to j = rank[i]."""
        even, odd = self.halves
        plus, minus = _fold(g)
        half = np.concatenate((even.T @ plus, odd.T @ minus)) / math.sqrt(2.0)
        coeffs = np.empty_like(half)
        coeffs[self.rank] = half
        return coeffs

    def from_eigen(self, c: np.ndarray) -> np.ndarray:
        """E c for coefficients c in the order of `eigenvalues` (`to_eigen`),
        or for each column of a 2-D c: with y = c[rank] gathered into the
        half order, the nodal vector [(v_top + w) / sqrt2; v_mid;
        J (v_top - w) / sqrt2] of the even-half combination v (v_mid only
        for odd n) and the odd-half combination w.  A column of E,
        [x / sqrt2; x_mid; +-J x / sqrt2] for a half eigenvector x
        (x_mid = 0 in the odd half), is M-orthonormal because x is in its
        half pencil."""
        even, odd = self.halves
        y = c[self.rank]
        v = even @ y[:even.shape[1]]
        w = odd @ y[even.shape[1]:]
        p = len(w)
        return np.concatenate(((v[:p] + w) / math.sqrt(2.0), v[p:],
                               ((v[:p] - w) / math.sqrt(2.0))[::-1]))

    def dual_norms(self, g: np.ndarray) -> np.ndarray:
        """|g|_{Z*} = sqrt(g^T A^-1 g) = sqrt(sum_j (e_j^T g)^2 / lambda_j)
        of g, or of each column of a 2-D g, read from the half eigenvectors
        (`to_eigen`)."""
        return np.sqrt((1.0 / self.eigenvalues) @ self.to_eigen(g) ** 2)

    def gap(self, k: int) -> tuple[float, float]:
        """The open interval (lambda_k, lambda_{k+1}), 1-based k, if it
        does not split a numerically repeated cluster."""
        check_count("k", k, 1, self.size)
        lo, hi = float(self.eigenvalues[k - 1]), float(self.eigenvalues[k])
        if (hi - lo) / max(abs(lo), 1.0e-300) < CLUSTER_GAP:
            raise EigenClusterError(
                f"k={k} splits a numerically repeated eigenvalue cluster "
                f"(lambda_k={lo:.12g}, lambda_k+1={hi:.12g})")
        return lo, hi


def _fold(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g, or each column of a 2-D g, folded into the even and the odd half:
    g_top + J g_bottom (sqrt2 g_mid appended for odd n) and
    g_top - J g_bottom."""
    p = len(g) // 2
    top, bottom = g[:p], g[::-1][:p]
    return (np.concatenate((top + bottom, math.sqrt(2.0) * g[p:len(g) - p])),
            top - bottom)


def _fix_signs(vectors: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Flip columns of `vectors` in place to the canonical representatives
    and return it: nonnegative M-weighted mean (`weight` is 1^T M in their
    coordinates), ties broken by the first coefficient above 1e-12 in
    magnitude (a column with none keeps its sign)."""
    means = weight @ vectors
    largest = np.maximum(vectors.max(axis=0), -vectors.min(axis=0))
    # |v| > 1e-12 without an n x n float temporary
    nonzero = vectors > 1.0e-12
    nonzero |= vectors < -1.0e-12
    first = vectors[np.argmax(nonzero, axis=0), np.arange(vectors.shape[1])]
    flip = np.where(np.abs(means) > 1.0e-12 * largest, means < 0.0,
                    nonzero.any(axis=0) & (first < 0.0))
    vectors *= np.where(flip, -1.0, 1.0)
    return vectors


def _half_pencil(column: np.ndarray, sign: float) -> np.ndarray:
    """X11 + sign X12 J of the symmetric Toeplitz X with first column c:
    the Toeplitz matrix of c_0 .. c_{p-1} plus or minus the Hankel matrix
    X12 J [i][j] = c_{n-1-i-j}; for odd n and sign +1 bordered by the
    middle column (c_p .. c_1) times sqrt(2) and the middle entry c_0."""
    n = column.size
    p = n // 2
    border = int(sign > 0.0 and n % 2 == 1)
    out = np.empty((p + border, p + border))
    combine = np.add if sign > 0.0 else np.subtract
    combine(_toeplitz(column[:p]), sliding_window_view(column[::-1], p)[:p],
            out=out[:p, :p])
    if border:
        out[:p, p] = out[p, :p] = math.sqrt(2.0) * column[p:0:-1]
        out[p, p] = column[0]
    return out


def _mass_half_bands(column: np.ndarray, sign: float):
    """Diagonal and subdiagonal, as lists, of the tridiagonal half
    `_half_pencil(column, sign)` of M with first column c = (c_0, c_1, 0,
    ...): the Toeplitz bands c_0 and c_1 of X11, whose last diagonal entry
    the Hankel X12 J turns into c_0 + sign c_1 for even n; for odd n the
    even half ends with the border entries sqrt(2) c_1 and c_0."""
    n = column.size
    p = n // 2
    c0, c1 = float(column[0]), (float(column[1]) if n > 1 else 0.0)
    diag, sub = [c0] * p, [c1] * max(p - 1, 0)
    if n % 2 == 0:
        diag[-1] = c0 + c1 if sign > 0.0 else c0 - c1
    elif sign > 0.0:
        diag.append(c0)
        if p:
            sub.append(math.sqrt(2.0) * c1)
    return diag, sub


def _bidiagonal_cholesky(bands, name: str):
    """Diagonal and subdiagonal of L, as lists, with L L^T the tridiagonal
    mass half of the given bands (`_mass_half_bands`); a pivot that is not
    positive and finite means M is not SPD."""
    diag, sub = bands
    for i, pivot in enumerate(diag):
        if i:
            sub[i - 1] /= diag[i - 1]
            pivot -= sub[i - 1] * sub[i - 1]
        if not 0.0 < pivot < math.inf:
            raise AssemblyCorruptionError(
                f"mass matrix is not positive definite: pivot {i + 1} of "
                f"the {name} half is {pivot!r}")
        diag[i] = math.sqrt(pivot)
    return diag, sub


def _forward(x: np.ndarray, diag: list, sub: list) -> None:
    """x <- L^-1 x in place, row by row.  On the rows of x reversed, with
    both bands reversed, it is x <- L^-T x."""
    rows = list(x)
    rows[0] /= diag[0]
    for prev, row, s, d in zip(rows, rows[1:], sub, diag[1:]):
        row -= s * prev
        row /= d


def _solve_half(op: AssembledOperator, sign: float, name: str):
    """Eigenvalues and M-orthonormal eigenvectors of one half pencil."""
    diag, sub = _bidiagonal_cholesky(_mass_half_bands(op.mass_symbol, sign),
                                     name)
    reduced = _half_pencil(op.symbol, sign)
    if not diag:
        return np.empty(0), reduced
    _forward(reduced, diag, sub)
    reduced = reduced.T.copy()  # (L^-1 A)^T = A L^-T, A symmetric
    _forward(reduced, diag, sub)
    try:
        vals, vecs = np.linalg.eigh(reduced)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolve of the {name} half: {exc}") from exc
    _forward(vecs[::-1], diag[::-1], sub[::-1])
    return vals, vecs


def solve_eigenproblem(op: AssembledOperator) -> Spectrum:
    """Dense symmetric-definite eigendecomposition of (A, M) by the exact
    reflection split: each half pencil reduced by the bidiagonal Cholesky
    of its mass half to one standard `eigh`, the eigenvalues merged by a
    stable sort, each half eigenvector signed by `_fix_signs` on 1^T M
    folded into its half (exactly zero in the odd half).  The eigenvectors
    stay as the two halves, applied by `Spectrum.to_eigen` and
    `Spectrum.from_eigen`; no N x N eigenvector matrix is built."""
    if not np.all(np.isfinite(op.symbol)):
        raise AssemblyCorruptionError("stiffness matrix is not finite")
    even_vals, even = _solve_half(op, 1.0, "even")
    odd_vals, odd = _solve_half(op, -1.0, "odd")
    for half, weight in zip((even, odd),
                            _fold(_mass_times(op, np.ones(op.size)))):
        if half.size:
            _fix_signs(half, weight / math.sqrt(2.0))
    vals = np.concatenate((even_vals, odd_vals))
    order = np.argsort(vals, kind="stable")
    rank = np.empty(op.size, dtype=np.intp)
    rank[order] = np.arange(op.size)
    return Spectrum(eigenvalues=vals[order], op=op, halves=(even, odd),
                    rank=rank)


def rayleigh_quotient(op: AssembledOperator, u) -> float:
    u = _check_dim(op, u)
    denom = float(u @ _mass_times(op, u))
    if denom <= 0.0:
        raise InvalidParameterError("Rayleigh quotient of the zero vector")
    return float(u @ _stiffness_times(op, u)) / denom


def project(spectrum: Spectrum, u, part: str, k: int) -> np.ndarray:
    """Project onto the head span(e_1..e_k) or its complement.

    part is "head" or "tail"; head + tail = u exactly by construction.
    """
    u = _check_dim(spectrum.op, u)
    spectrum.gap(k)
    if part not in ("head", "tail"):
        raise InvalidParameterError(f"part must be 'head' or 'tail', got {part!r}")
    coeffs = spectrum.to_eigen(_mass_times(spectrum.op, u))
    coeffs[k:] = 0.0
    head = spectrum.from_eigen(coeffs)
    return head if part == "head" else u - head


def poincare_lower_bound(omega: tuple[float, float], s: float, theta: float,
                         R: float) -> float:
    """Guaranteed floor for the first eigenvalue from the enclosing-ball
    estimate theta * |B_R \\ Omega| / (2R)^(1+2s) in one dimension."""
    a, b = omega
    a = check_real("a", a)
    b = check_real("b", b, a)
    s = check_real("s", s, 0.0, 1.0)
    theta = check_real("theta", theta, 0.0)
    R = check_real("R", R, max(abs(a), abs(b)))
    # R > max(|a|, |b|) gives b - a < 2R: the ball leaves room outside
    return theta * (2.0 * R - (b - a)) / (2.0 * R) ** (1.0 + 2.0 * s)

