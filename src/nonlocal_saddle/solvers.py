"""Energy functional, weak-form residuals, and the two existence-case solvers.

The energy is J(u) = 1/2 u'Au - int F(x, u_h) dx; a zero gradient
A u - b(u) = 0 is exactly the discrete weak form.  Both existence cases
find that zero with one Newton driver on the Hessian A - D(u) and differ
only in how a step is made safe: Armijo backtracking on J in the coercive
case, a Z-norm cap after three residual increases in the gap case.  The
geometry probe samples the saddle structure that underpins the gap-case
existence argument, and the uniqueness probe multi-starts the gap driver
to test the slope-gap uniqueness prediction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .assembly import AssembledOperator, _check_dim, norm_Z
from .errors import (InvalidParameterError, NonConvergenceError,
                     NonResonanceContradictionError, ResonanceError,
                     UnsupportedCaseError)
from .nonlinearity import (Case, CaseClassification, NonlinearitySpec,
                           check_f2_gap, classify, eval_F, eval_f, eval_f_t)
from .quadrature import gauss_rule
from .spectral import Spectrum

#: pivot ratio below which a Newton/linear system counts as singular
SINGULAR_PIVOT_RATIO = 1.0e-12

#: factor by which the Armijo line search shortens a rejected step
LINE_SEARCH_CONTRACTION = 0.5


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1.0e-9
    max_iter: int = 200
    seed: int = 42


@dataclass(frozen=True)
class UniquenessVerdict:
    kind: str  # "Unique" | "MultipleFound" | "Inconclusive" | "NotChecked"
    max_pairwise_z: float = math.nan
    representatives: tuple = ()
    n_starts: int = 0
    seed: int = 0
    f2_passed: bool | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "max_pairwise_z": self.max_pairwise_z,
                "n_starts": self.n_starts, "seed": self.seed,
                "f2_passed": self.f2_passed}


@dataclass(frozen=True)
class SolveReport:
    solution: np.ndarray = field(repr=False)
    j_value: float
    residual_inf: float
    iterations: int


# ---------------------------------------------------------------------------
# element-level quadrature of the nonlinear terms
# ---------------------------------------------------------------------------

def _element_data(op: AssembledOperator):
    mesh = op.mesh
    xi, wref = gauss_rule(op.quad_order)
    xg = mesh.nodes[:-1, None] + mesh.h * xi[None, :]
    wg = mesh.h * wref[None, :] * np.ones((mesh.n_elements, 1))
    return xg, wg, xi


def _interp_elements(op: AssembledOperator, u: np.ndarray, xi: np.ndarray):
    """u_h at the Gauss points, shape (n_elem, q) + u.shape[1:]; the columns
    of a 2-D u are interpolated side by side."""
    full = np.zeros((u.shape[0] + 2,) + u.shape[1:])
    full[1:-1] = u
    xi = xi.reshape((1, -1) + (1,) * (u.ndim - 1))
    return full[:-1, None] * (1.0 - xi) + full[1:, None] * xi


def eval_J(op: AssembledOperator, spec: NonlinearitySpec, u) -> float:
    u = _check_dim(op, u)
    xg, wg, xi = _element_data(op)
    uh = _interp_elements(op, u, xi)
    f_int = float(np.sum(wg * eval_F(spec, xg, uh)))
    return 0.5 * float(u @ op.stiffness @ u) - f_int


def load_vector(op: AssembledOperator, spec: NonlinearitySpec,
                u) -> np.ndarray:
    """b(u)_i = int f(x, u_h(x)) phi_i(x) dx over interior hats."""
    u = _check_dim(op, u)
    xg, wg, xi = _element_data(op)
    return _p1_load(op, wg * eval_f(spec, xg, _interp_elements(op, u, xi)),
                    xi)


def _p1_load(op: AssembledOperator, wvals, xi) -> np.ndarray:
    """Interior hat loads of weighted Gauss-point values wvals (n_elem, q)."""
    full = np.zeros(op.mesh.n_elements + 1)
    full[:-1] += np.sum(wvals * (1.0 - xi[None, :]), axis=1)
    full[1:] += np.sum(wvals * xi[None, :], axis=1)
    return full[1:-1]


def _gradient(op: AssembledOperator, spec: NonlinearitySpec, u):
    """The gradient A u - b(u) of J and the residual of the weak form, its
    sup-norm relative to 1 + |A u|_inf."""
    au = op.stiffness @ u
    grad = au - load_vector(op, spec, u)
    return grad, float(np.abs(grad).max() / (1.0 + np.abs(au).max()))


def eval_gradient(op: AssembledOperator, spec: NonlinearitySpec,
                  u) -> np.ndarray:
    return _gradient(op, spec, _check_dim(op, u))[0]


def _slopes(op: AssembledOperator, spec: NonlinearitySpec, u) -> np.ndarray:
    """f_t(x, u_h) at the Gauss points, shape (n_elem, q)."""
    xg, _, xi = _element_data(op)
    return eval_f_t(spec, xg, _interp_elements(op, u, xi))


def _system(op: AssembledOperator, slopes: np.ndarray) -> np.ndarray:
    """A - W, W_ij = int m phi_i phi_j dx for slope values m at the Gauss
    points (n_elem, q).  W is tridiagonal, so its bands are subtracted from
    a copy of A.  With m = _slopes(op, spec, u) this is the Hessian of J."""
    _, wg, xi = _element_data(op)
    phi = np.stack([1.0 - xi, xi])  # (2, q)
    loc = np.einsum("pg,qg,eg->epq", phi, phi, wg * slopes)
    system = op.stiffness.copy()
    i = np.arange(op.size)
    system[i, i] -= loc[1:, 0, 0] + loc[:-1, 1, 1]
    system[i[:-1], i[1:]] -= loc[1:-1, 0, 1]
    system[i[1:], i[:-1]] -= loc[1:-1, 1, 0]
    return system


def residual_weakform(op: AssembledOperator, spec: NonlinearitySpec,
                      u) -> float:
    return _gradient(op, spec, _check_dim(op, u))[1]


# ---------------------------------------------------------------------------
# linear nonresonant solve
# ---------------------------------------------------------------------------

def _lu(system: np.ndarray):
    """LU factors of system and the ratio of its smallest to its largest
    pivot magnitude, singular below SINGULAR_PIVOT_RATIO."""
    lu, piv = scipy.linalg.lu_factor(system)
    diag = np.abs(np.diag(lu))
    return (lu, piv), float(diag.min()) / max(float(diag.max()), 1.0e-300)


@dataclass(frozen=True)
class LinearSolve:
    solution: np.ndarray = field(repr=False)
    pivot_ratio: float
    residual_inf: float


def _profile_values(op: AssembledOperator, profile, xg: np.ndarray) -> np.ndarray:
    if np.isscalar(profile):
        return np.full_like(xg, float(profile))
    if callable(profile):
        return np.asarray(profile(xg), dtype=float)
    arr = np.asarray(profile, dtype=float)
    if arr.shape != (op.size,):
        raise InvalidParameterError(
            f"nodal profile has shape {arr.shape}, expected ({op.size},)")
    return np.interp(xg, op.mesh.interior_nodes, arr)


def linear_nonresonant_solve(op: AssembledOperator, spectrum: Spectrum,
                             m_profile, g) -> LinearSolve:
    """Solve (A - M_w) u = M g with the slope weight certified nonresonant.

    The weight values must avoid every eigenvalue and stay within a single
    interval between consecutive eigenvalues, which guarantees an
    invertible system; a numerically singular factorization then signals
    an assembly or spectrum bug, not a user error.
    """
    xg, wg, xi = _element_data(op)
    m_vals = _profile_values(op, m_profile, xg)
    vals = spectrum.eigenvalues
    lo, hi = float(m_vals.min()), float(m_vals.max())
    # the eigenvalue nearest a weight value is one of the two bracketing it
    flat = m_vals.ravel()
    pos = np.searchsorted(vals, flat)
    nearest = np.minimum(np.abs(vals[np.maximum(pos - 1, 0)] - flat),
                         np.abs(vals[np.minimum(pos, vals.size - 1)] - flat))
    if np.min(nearest) <= 1.0e-9:
        raise ResonanceError(
            "slope profile touches an eigenvalue within 1e-9")
    if np.searchsorted(vals, lo) != np.searchsorted(vals, hi):
        raise ResonanceError(
            f"slope profile range [{lo:.6g}, {hi:.6g}] straddles an eigenvalue")

    rhs = _p1_load(op, wg * _profile_values(op, g, xg), xi)
    system = _system(op, m_vals)
    factors, pivot_ratio = _lu(system)
    if pivot_ratio < SINGULAR_PIVOT_RATIO:
        raise NonResonanceContradictionError(
            f"certified-nonresonant system is numerically singular "
            f"(pivot ratio {pivot_ratio:.3e}); assembly or spectrum bug")
    u = scipy.linalg.lu_solve(factors, rhs)
    res = float(np.abs(system @ u - rhs).max())
    return LinearSolve(solution=u, pivot_ratio=pivot_ratio, residual_inf=res)


# ---------------------------------------------------------------------------
# Newton iterations
# ---------------------------------------------------------------------------

def _newton_step(system: np.ndarray, grad: np.ndarray,
                 f2_certified: bool) -> np.ndarray:
    factors, pivot_ratio = _lu(system)
    if pivot_ratio < SINGULAR_PIVOT_RATIO:
        if f2_certified:
            raise NonResonanceContradictionError(
                "Newton system singular although the slope gap was verified")
        # minimum-norm least-squares step keeps resonant probes meaningful
        step, *_ = np.linalg.lstsq(system, -grad, rcond=None)
        return step
    return scipy.linalg.lu_solve(factors, -grad)


def _newton(op, spec, u0, tol, max_iter, globalize, f2_certified=False):
    """Newton on A u - b(u) from u0; returns u and the residual of every
    iterate.  globalize(u, step, grad, res) turns the Newton step at u into
    the next iterate, or returns None when it finds no acceptable one."""
    u = np.array(u0, dtype=float)
    trace = []
    for it in range(max_iter + 1):
        grad, res = _gradient(op, spec, u)
        trace.append(res)
        if res <= tol:
            return u, trace
        if it == max_iter:
            break
        step = _newton_step(_system(op, _slopes(op, spec, u)), grad,
                            f2_certified)
        u = globalize(u, step, grad, res)
        if u is None:
            raise NonConvergenceError(
                f"line search stalled at iteration {it} "
                f"(residual {res:.3e})", trace=trace)
    raise NonConvergenceError(
        f"Newton did not reach tol={tol} in {max_iter} iterations "
        f"(last residual {trace[-1]:.3e})", trace=trace)


def _armijo(op, spec, u0):
    """Backtrack along the Newton step (steepest descent if it does not
    descend) until J drops by 1e-4 of the predicted decrease, up to a few
    roundings of J, below which no decrease can be seen."""
    j_val = eval_J(op, spec, u0)

    def globalize(u, step, grad, res):
        nonlocal j_val
        slope = float(grad @ step)
        if slope >= 0.0:
            step = -grad
            slope = -float(grad @ grad)
        slack = 4.0 * np.finfo(float).eps * abs(j_val)
        t = 1.0
        for _ in range(60):
            trial = u + t * step
            j_trial = eval_J(op, spec, trial)
            if j_trial <= j_val + 1.0e-4 * t * slope + slack:
                j_val = j_trial
                return trial
            t *= LINE_SEARCH_CONTRACTION
        return None

    return globalize


def _z_capped(op):
    """Full steps until the residual has grown three times in a row; from
    then on the step's Z-norm is capped at |u|_Z + 1, u the iterate at the
    switch."""
    radius = None
    prev_res = math.inf
    bad_streak = 0

    def globalize(u, step, grad, res):
        nonlocal radius, prev_res, bad_streak
        if radius is not None:
            step_norm = norm_Z(op, step)
            if step_norm > radius:
                step = step * (radius / step_norm)
        u = u + step
        if res > prev_res:
            bad_streak += 1
            if bad_streak >= 3 and radius is None:
                radius = norm_Z(op, u) + 1.0
        else:
            bad_streak = 0
        prev_res = res
        return u

    return globalize


def _report(op, spec, u, trace) -> SolveReport:
    return SolveReport(solution=u, j_value=eval_J(op, spec, u),
                       residual_inf=trace[-1], iterations=len(trace) - 1)


def solve_case_a(op: AssembledOperator, spec: NonlinearitySpec,
                 opts: SolverOptions = SolverOptions(),
                 classification: CaseClassification | None = None) -> SolveReport:
    """Direct minimization of J by Newton with an Armijo line search."""
    if classification is not None and classification.case is not Case.COERCIVE:
        raise UnsupportedCaseError(classification)
    u0 = np.zeros(op.size)
    u, trace = _newton(op, spec, u0, opts.tol, opts.max_iter,
                       _armijo(op, spec, u0))
    return _report(op, spec, u, trace)


def solve_case_b(op: AssembledOperator, spectrum: Spectrum,
                 spec: NonlinearitySpec,
                 opts: SolverOptions = SolverOptions(),
                 classification: CaseClassification | None = None,
                 u0: np.ndarray | None = None) -> SolveReport:
    """Newton on the gradient in the spectral-gap case.

    Steps are full until the residual has grown three times in a row, then
    Z-norm capped (`_z_capped`).  When the slope-gap condition holds, every
    Newton system is certified nonresonant, so a singular one raises
    NonResonanceContradictionError instead of taking a least-squares step.
    """
    if classification is None:
        classification = classify(spec, spectrum)
    if classification.case is not Case.GAP:
        raise UnsupportedCaseError(classification)
    k = classification.k
    f2 = check_f2_gap(spec, spectrum, k) if spec.slope_range else None
    f2_ok = bool(f2 and f2.passed)
    start = np.zeros(op.size) if u0 is None else np.asarray(u0, dtype=float)
    u, trace = _newton(op, spec, start, opts.tol, opts.max_iter,
                       _z_capped(op), f2_certified=f2_ok)
    return _report(op, spec, u, trace)


def uniqueness_probe(op: AssembledOperator, spectrum: Spectrum,
                     spec: NonlinearitySpec, k: int, n_starts: int = 8,
                     opts: SolverOptions = SolverOptions()) -> UniquenessVerdict:
    """Multi-start search for distinct weak solutions.

    Initial iterates have eigenbasis components uniform in [-10, 10].  The
    classification gate is deliberately bypassed so resonant
    counterexamples can be probed; singular Newton systems fall back to
    minimum-norm steps.
    """
    f2_passed = (check_f2_gap(spec, spectrum, k).passed
                 if spec.slope_range is not None else None)
    rng = np.random.default_rng(opts.seed)
    solutions = []
    for _ in range(n_starts):
        coeffs = rng.uniform(-10.0, 10.0, size=spectrum.size)
        u0 = spectrum.eigenvectors @ coeffs
        try:
            u, _ = _newton(op, spec, u0, opts.tol, opts.max_iter,
                           _z_capped(op))
        except NonConvergenceError:
            return UniquenessVerdict(kind="Inconclusive", n_starts=n_starts,
                                     seed=opts.seed, f2_passed=f2_passed)
        solutions.append(u)
    max_dist = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            max_dist = max(max_dist, norm_Z(op, solutions[i] - solutions[j]))
    rep = [solutions[0]]
    for u in solutions[1:]:
        if min(norm_Z(op, u - v) for v in rep) > 1.0e-8:
            rep.append(u)
    kind = "Unique" if max_dist <= 1.0e-8 else "MultipleFound"
    return UniquenessVerdict(kind=kind, max_pairwise_z=max_dist,
                             representatives=tuple(rep), n_starts=n_starts,
                             seed=opts.seed, f2_passed=f2_passed)


# ---------------------------------------------------------------------------
# saddle geometry probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusSample:
    radius: float
    extreme_ratio_l2: float  # J / |u|_L2^2 at the extreme sample
    extreme_ratio_z: float   # J / |u|_Z^2 at the extreme sample
    extreme_j: float

    def to_dict(self) -> dict:
        return {"radius": self.radius,
                "extreme_ratio_l2": self.extreme_ratio_l2,
                "extreme_ratio_z": self.extreme_ratio_z,
                "extreme_j": self.extreme_j}


@dataclass(frozen=True)
class GeometryProbe:
    mode: str  # "gap" | "coercive"
    k: int
    head: tuple = ()   # max over the head sphere, per radius
    tail: tuple = ()   # min over the tail cone, per radius
    floor_estimate: float = math.nan  # sampled min of J over the tail space
    separated: bool | None = None
    seed: int = 0

    def to_dict(self) -> dict:
        return {"mode": self.mode, "k": self.k,
                "head": [h.to_dict() for h in self.head],
                "tail": [t.to_dict() for t in self.tail],
                "floor_estimate": self.floor_estimate,
                "separated": self.separated, "seed": self.seed}


#: directions evaluated per batch by the geometry probe; a larger batch
#: is no faster and raises the probe's peak memory
PROBE_CHUNK = 16


def _sphere_samples(rng, dim: int, n_random: int) -> np.ndarray:
    """Random unit directions in R^dim, shape (n_random, dim).

    Every scan also samples the 2*dim deterministic +-axes ahead of these;
    they are known in closed form and never built as a matrix.
    """
    if n_random > 0:
        raw = rng.standard_normal((n_random, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        return raw
    return np.empty((0, dim))


def _sample_energies(op: AssembledOperator, spec: NonlinearitySpec,
                     spectrum: Spectrum, modes: slice, dirs: np.ndarray,
                     z_norms: np.ndarray):
    """Energies of the probe samples spanned by the eigenmodes `modes`.

    The directions are the +axes, the -axes, then the rows of `dirs`, all
    scaled to unit Z-norm.  Returns J at every (z-norm, direction) pair,
    shape (len(z_norms), n_dirs), and the squared L2-norm of every unit
    direction.  Eigenvectors are M-orthonormal and A-orthogonal, so a
    sample of Z-norm z has quadratic energy exactly z^2/2 and squared
    L2-norm z^2 |c|^2 in eigen-coordinates c; only the integral of F needs
    nodal values, taken PROBE_CHUNK directions at a time.
    """
    lam = spectrum.eigenvalues[modes]
    vecs = spectrum.eigenvectors[:, modes]
    inv_sqrt = 1.0 / np.sqrt(lam)
    unit = dirs / np.sqrt(dirs ** 2 @ lam)[:, None]
    dim, n_dirs = lam.size, 2 * lam.size + len(dirs)
    l2_sq = np.concatenate([1.0 / lam, 1.0 / lam, np.sum(unit ** 2, axis=1)])

    xg, wg, xi = _element_data(op)
    x, w = xg[:, :, None], wg.ravel()
    half_z_sq = 0.5 * z_norms ** 2
    energies = np.empty((z_norms.size, n_dirs))
    for g0, g1 in ((0, dim), (dim, 2 * dim), (2 * dim, n_dirs)):
        for i0 in range(g0, g1, PROBE_CHUNK):
            i1 = min(i0 + PROBE_CHUNK, g1)
            cols = slice(i0 - g0, i1 - g0)
            if g0 == 2 * dim:
                nodal = vecs @ unit[cols].T
            else:  # an axis sample is a column of the eigenvector block
                sign = 1.0 if g0 == 0 else -1.0
                nodal = vecs[:, cols] * (sign * inv_sqrt[cols])
            uh = _interp_elements(op, nodal, xi)
            for iz, z in enumerate(z_norms):
                f_int = w @ eval_F(spec, x, z * uh).reshape(w.size, -1)
                energies[iz, i0:i1] = half_z_sq[iz] - f_int
    return energies, l2_sq


def geometry_probe(op: AssembledOperator, spectrum: Spectrum,
                   spec: NonlinearitySpec, k: int,
                   radii=(10.0, 100.0, 1000.0), n_samples: int = 64,
                   seed: int = 42) -> GeometryProbe:
    """Sample the energy landscape split by the head/tail decomposition.

    For k >= 1: on each Z-sphere of radius T in the head space the maximum
    energy ratio is recorded; in the tail space samples are taken at
    Z-norms in [T/10, T] (plus small norms for the floor estimate) and the
    minimum ratio recorded.  Energy ratios are reported both per unit
    squared Z-norm (the sign statements of the saddle geometry) and per
    unit squared L2-norm, whose extremes approach (lambda_j - slope)/2
    exactly.  k = 0 probes the whole space, the coercive geometry, and
    stores its samples in `tail`.

    Every scan evaluates all 2*dim +-axes of its eigenmode subspace, so
    `n_samples` is a floor: it only adds seeded random directions beyond
    2*dim.  The quadratic part of J is taken exactly in eigen-coordinates
    (z^2/2 on the Z-sphere of radius z), and samples are evaluated in
    batches, so a scan costs O(N^2) per Z-norm.  The first extreme sample
    in (Z-norm, direction) order wins.  For a purely quadratic F the ratio
    of an axis sample is the same at every Z-norm, so which norm supplies
    `extreme_j` and `floor_estimate` is decided by rounding.
    """
    radii = tuple(sorted(float(r) for r in radii))
    if not radii or not all(math.isfinite(r) and r > 0.0 for r in radii):
        raise InvalidParameterError(
            f"radii must be finite and positive, got {radii}")
    if not isinstance(n_samples, numbers.Integral) or n_samples < 0:
        raise InvalidParameterError(
            f"n_samples must be an integer >= 0, got {n_samples!r}")
    rng = np.random.default_rng(seed)
    m = spectrum.size

    def scan(modes, z_norms, reduce_max):
        dim = modes.stop - modes.start
        dirs = _sphere_samples(rng, dim, max(n_samples - 2 * dim, 0))
        z_norms = np.asarray(z_norms, dtype=float)
        energies, l2_sq = _sample_energies(op, spec, spectrum, modes, dirs,
                                           z_norms)
        z_sq = z_norms[:, None] ** 2
        ratios = energies / (z_sq * l2_sq)
        best = np.argmax(ratios) if reduce_max else np.argmin(ratios)
        iz, idir = np.unravel_index(best, ratios.shape)
        j = float(energies[iz, idir])
        return float(ratios[iz, idir]), j / float(z_sq[iz, 0]), j

    if k == 0:
        samples = []
        all_modes = slice(0, m)
        for t_rad in radii:
            lo, ratio_z, j = scan(all_modes, [t_rad], reduce_max=False)
            samples.append(RadiusSample(t_rad, lo, ratio_z, j))
        separated = all(s.extreme_ratio_l2 > 0.0 for s in samples)
        return GeometryProbe(mode="coercive", k=0, head=(),
                             tail=tuple(samples),
                             floor_estimate=min(s.extreme_j for s in samples),
                             separated=separated, seed=seed)

    if not 1 <= k < m:
        raise InvalidParameterError(f"k must lie in [0, {m - 1}], got {k}")
    head_idx = slice(0, k)
    tail_idx = slice(k, m)

    head_samples = []
    for t_rad in radii:
        hi, ratio_z, j = scan(head_idx, [t_rad], reduce_max=True)
        head_samples.append(RadiusSample(t_rad, hi, ratio_z, j))

    tail_samples = []
    floor = math.inf
    for t_rad in radii:
        z_norms = np.geomspace(t_rad / 10.0, t_rad, 4)
        lo, ratio_z, j = scan(tail_idx, z_norms, reduce_max=False)
        tail_samples.append(RadiusSample(t_rad, lo, ratio_z, j))
        floor = min(floor, j)
    # floor of J over the tail space at small norms (the lower barrier)
    small = np.geomspace(0.1, radii[0] / 10.0, 4)
    lo_small = scan(tail_idx, small, reduce_max=False)
    floor = min(floor, lo_small[2])

    head_max_j = head_samples[-1].extreme_j
    separated = head_max_j < min(floor, min(t.extreme_j for t in tail_samples))
    return GeometryProbe(mode="gap", k=k, head=tuple(head_samples),
                         tail=tuple(tail_samples), floor_estimate=floor,
                         separated=separated, seed=seed)


def morse_index(op: AssembledOperator, spec: NonlinearitySpec, u) -> int:
    """Number of negative eigenvalues of the Hessian A - D(u)."""
    hessian = _system(op, _slopes(op, spec, _check_dim(op, u)))
    vals = scipy.linalg.eigvalsh(hessian)
    return int(np.sum(vals < 0.0))
