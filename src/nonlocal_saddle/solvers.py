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
                           _gap_index, check_f2_gap, classify, eval_F, eval_f,
                           eval_f_t)
from .quadrature import gauss_rule
from .spectral import Spectrum

#: pivot ratio below which a Newton/linear system counts as singular
SINGULAR_PIVOT_RATIO = 1.0e-12

#: factor by which the Armijo line search shortens a rejected step
LINE_SEARCH_CONTRACTION = 0.5

#: Z-distance above which the uniqueness probe counts two solutions as
#: distinct; a known defect: an absolute cut reports MultipleFound for
#: limits 4.6e-8 apart at N = 512 although the slope gap is certified
DISTINCT_SOLUTION_Z = 1.0e-8


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


def _interp_elements(u: np.ndarray, xi: np.ndarray):
    """u_h at the Gauss points, shape (n_elem, q) + u.shape[1:]; the columns
    of a 2-D u are interpolated side by side."""
    full = np.zeros((u.shape[0] + 2,) + u.shape[1:])
    full[1:-1] = u
    xi = xi.reshape((1, -1) + (1,) * (u.ndim - 1))
    return full[:-1, None] * (1.0 - xi) + full[1:, None] * xi


def eval_J(op: AssembledOperator, spec: NonlinearitySpec, u) -> float:
    u = _check_dim(op, u)
    xg, wg, xi = _element_data(op)
    uh = _interp_elements(u, xi)
    f_int = float(np.sum(wg * eval_F(spec, xg, uh)))
    return 0.5 * float(u @ op.stiffness @ u) - f_int


def load_vector(op: AssembledOperator, spec: NonlinearitySpec,
                u) -> np.ndarray:
    """b(u)_i = int f(x, u_h(x)) phi_i(x) dx over interior hats."""
    u = _check_dim(op, u)
    xg, wg, xi = _element_data(op)
    return _p1_load(op, wg * eval_f(spec, xg, _interp_elements(u, xi)),
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
    return eval_f_t(spec, xg, _interp_elements(u, xi))


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

@dataclass(frozen=True)
class LinearSolve:
    solution: np.ndarray = field(repr=False)


def _profile_values(profile, xg: np.ndarray) -> np.ndarray:
    """A scalar or callable profile at the Gauss points xg."""
    if np.isscalar(profile):
        return np.full_like(xg, float(profile))
    if callable(profile):
        return np.asarray(profile(xg), dtype=float)
    raise InvalidParameterError(
        f"profile must be a scalar or callable, got {type(profile).__name__}")


def linear_nonresonant_solve(op: AssembledOperator, spectrum: Spectrum,
                             m_profile, g) -> LinearSolve:
    """Solve (A - M_w) u = M g with the slope weight certified nonresonant.

    `_gap_index` must place the weight's range between two eigenvalues, as
    `classify_slopes` places a slope range.  The system is then invertible,
    so the solve is one certified Newton step: a singular factorization
    signals an assembly or spectrum bug, not a user error.
    """
    xg, wg, xi = _element_data(op)
    m_vals = _profile_values(m_profile, xg)
    vals = spectrum.eigenvalues
    lo, hi = float(m_vals.min()), float(m_vals.max())
    if _gap_index(lo, hi, vals) is None:
        if np.any((lo < vals) & (vals < hi)):
            raise ResonanceError(f"slope profile range [{lo:.6g}, {hi:.6g}] "
                                 f"straddles an eigenvalue")
        raise ResonanceError("slope profile touches an eigenvalue within 1e-9")
    rhs = _p1_load(op, wg * _profile_values(g, xg), xi)
    return LinearSolve(solution=_newton_step(_system(op, m_vals), -rhs,
                                             f2_certified=True))


# ---------------------------------------------------------------------------
# Newton iterations
# ---------------------------------------------------------------------------

def _newton_step(system: np.ndarray, grad: np.ndarray,
                 f2_certified: bool) -> np.ndarray:
    """The step system^-1 (-grad) by LU; below SINGULAR_PIVOT_RATIO a
    certified system raises, any other takes the least-squares step."""
    factors = scipy.linalg.lu_factor(system)
    pivots = np.abs(np.diag(factors[0]))
    pivot_ratio = float(pivots.min()) / max(float(pivots.max()), 1.0e-300)
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
    if not isinstance(n_starts, numbers.Integral) or n_starts < 1:
        raise InvalidParameterError(
            f"n_starts must be an integer >= 1, got {n_starts!r}")
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
    dist = np.array([[norm_Z(op, u - v) for v in solutions]
                     for u in solutions])
    rep = [0]
    for j in range(1, len(solutions)):
        if dist[j, rep].min() > DISTINCT_SOLUTION_Z:
            rep.append(j)
    max_dist = float(dist.max())
    kind = "Unique" if max_dist <= DISTINCT_SOLUTION_Z else "MultipleFound"
    return UniquenessVerdict(kind=kind, max_pairwise_z=max_dist,
                             representatives=tuple(solutions[i] for i in rep),
                             n_starts=n_starts,
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
    raw = rng.standard_normal((n_random, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw


def _scan(op: AssembledOperator, spec: NonlinearitySpec, spectrum: Spectrum,
          rng, modes: slice, groups, n_samples: int, reduce_max: bool):
    """Extreme energy ratios over the eigenmodes `modes`, one per group of
    Z-norms: (J / |u|_L2^2, J / |u|_Z^2, J) of the first extreme sample in
    (Z-norm, direction) order.

    A group samples the +axes, the -axes, then its own seeded random
    directions, all of unit Z-norm.  Eigenvectors are M-orthonormal and
    A-orthogonal, so a sample of Z-norm z has quadratic energy exactly
    z^2/2 and squared L2-norm z^2 |c|^2 in eigen-coordinates c; only the
    integral of F needs nodal values, PROBE_CHUNK directions at a time.
    """
    lam = spectrum.eigenvalues[modes]
    vecs = spectrum.eigenvectors[:, modes]
    xg, wg, xi = _element_data(op)
    x, w = xg[:, :, None], wg.ravel()

    def energies(nodal, n_dirs, z_norms):
        """J at z_norms along n_dirs directions, shape (z_norms.size,
        n_dirs); nodal(i0, i1) gives directions i0..i1-1 as columns."""
        half_z_sq = 0.5 * z_norms ** 2
        out = np.empty((z_norms.size, n_dirs))
        for i0 in range(0, n_dirs, PROBE_CHUNK):
            i1 = min(i0 + PROBE_CHUNK, n_dirs)
            uh = _interp_elements(nodal(i0, i1), xi)
            for iz, z in enumerate(z_norms):
                f_int = w @ eval_F(spec, x, z * uh).reshape(w.size, -1)
                out[iz, i0:i1] = half_z_sq[iz] - f_int
        return out

    # the axes once for every group; the -e_j sample at z is e_j at -z
    norms = np.unique(np.concatenate(groups))
    axes = vecs * (1.0 / np.sqrt(lam))
    on_axes = energies(lambda i0, i1: axes[:, i0:i1], lam.size,
                       np.concatenate([norms, -norms]))
    out = []
    for z_norms in groups:
        dirs = _sphere_samples(rng, lam.size, max(n_samples - 2 * lam.size, 0))
        unit = dirs / np.sqrt(dirs ** 2 @ lam)[:, None]
        rows = np.searchsorted(norms, z_norms)
        sampled = np.hstack([
            on_axes[rows], on_axes[norms.size + rows],
            energies(lambda i0, i1: vecs @ unit[i0:i1].T, len(unit),
                     z_norms)])
        l2_sq = np.concatenate([1.0 / lam, 1.0 / lam,
                                np.sum(unit ** 2, axis=1)])
        z_sq = z_norms[:, None] ** 2
        ratios = sampled / (z_sq * l2_sq)
        best = np.argmax(ratios) if reduce_max else np.argmin(ratios)
        iz, idir = np.unravel_index(best, ratios.shape)
        j = float(sampled[iz, idir])
        out.append((float(ratios[iz, idir]), j / float(z_sq[iz, 0]), j))
    return out


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

    Each eigenmode subspace is scanned once for all its Z-norms (`_scan`):
    its axes are interpolated once, the -axis sample at z being the +axis
    sample at -z.  Every group of Z-norms samples all 2*dim +-axes, so
    `n_samples` is a floor: it only adds seeded random directions beyond
    2*dim, per group.  A scan costs O(N^2) per Z-norm.  The first extreme
    sample in (Z-norm, direction) order wins.  For a purely quadratic F the
    ratio of an axis sample is the same at every Z-norm, so which norm
    supplies `extreme_j` and `floor_estimate` is decided by rounding.
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
    spheres = [np.array([t_rad]) for t_rad in radii]

    def scan(modes, groups, reduce_max):
        return _scan(op, spec, spectrum, rng, modes, groups, n_samples,
                     reduce_max)

    if k == 0:
        samples = [RadiusSample(t_rad, *found) for t_rad, found
                   in zip(radii, scan(slice(0, m), spheres, False))]
        separated = all(s.extreme_ratio_l2 > 0.0 for s in samples)
        return GeometryProbe(mode="coercive", k=0, head=(),
                             tail=tuple(samples),
                             floor_estimate=min(s.extreme_j for s in samples),
                             separated=separated, seed=seed)

    if not 1 <= k < m:
        raise InvalidParameterError(f"k must lie in [0, {m - 1}], got {k}")
    head = [RadiusSample(t_rad, *found) for t_rad, found
            in zip(radii, scan(slice(0, k), spheres, True))]
    # the tail shells, then small norms for the floor of J over the tail
    # space (the lower barrier)
    shells = [np.geomspace(t_rad / 10.0, t_rad, 4) for t_rad in radii]
    found = scan(slice(k, m), shells + [np.geomspace(0.1, radii[0] / 10.0, 4)],
                 False)
    tail = [RadiusSample(t_rad, *f) for t_rad, f in zip(radii, found)]
    floor = min(j for _, _, j in found)
    return GeometryProbe(mode="gap", k=k, head=tuple(head), tail=tuple(tail),
                         floor_estimate=floor,
                         separated=head[-1].extreme_j < floor, seed=seed)


def morse_index(op: AssembledOperator, spec: NonlinearitySpec, u) -> int:
    """Number of negative eigenvalues of the Hessian A - D(u)."""
    hessian = _system(op, _slopes(op, spec, _check_dim(op, u)))
    vals = scipy.linalg.eigvalsh(hessian)
    return int(np.sum(vals < 0.0))
