"""Energy functional, weak-form residuals, and the two existence-case solvers.

The energy is J(u) = 1/2 u'Au - int F(x, u_h) dx; a zero gradient
A u - b(u) = 0 is exactly the discrete weak form.  Both existence cases
find that zero with one Newton driver on the Hessian A - D(u)
(`_newton`), behind one gate (`_solve`), with one step policy
(`_gap_steps`).  The driver alone picks how a step is made safe, from
the gap k and the slope-gap certificate: the coercive case is gap 0, the
head of the saddle splitting empty, whose slopes lie below lambda_1, and
it backtracks on J (`_armijo`).  Every step is solved in the
eigen-coordinates.  An uncertified iterate whose slopes are one constant
at an eigenvalue takes its step there, where the system is diagonal
(`_resonant_step`); every other step is solved by
preconditioned MINRES (`_minres_step`), within a budget that the
iterate's own Gauss-point slope range, placed in a spectral gap
(Courant-Fischer then makes the Hessian nonsingular), bounds by its
contraction in that gap, whatever the mesh.  In a certified gap run
(`_f2_passed`) that range lies in the certificate's gap, and on a
sub-range of the certificate's range the budget is at most the one the
certificate's range would give.  A range that straddles an eigenvalue
claims no gap, and its step gets the budget of a general symmetric
system.  Each per-iterate fact is stated once: the driver (`_newton`)
refuses an iterate whose slopes or gradient are not finite before any
step is solved, and `_gap_steps` places each iterate's slope range in
the spectrum once (`_place`, the one comparison of a slope with an
eigenvalue, which classification and the slope-gap check share), which
picks the step's solver, its budget and a resonant
step's null set and, under a certificate, refuses a range outside the
certificate's gap.  A certified run backtracks on the merit
|g|_{Z*}^2 / 2, which every Newton step descends because the certificate
makes the Hessian nonsingular; an uncertified gap run caps its steps'
Z-norm after STALL_STEPS steps without a new residual minimum.
Both solvers solve against the spectrum their classification was made in
(`CaseClassification.spectrum`), and differ only in the case they accept.
The geometry probe samples the saddle structure that underpins the
gap-case existence argument, and the uniqueness probe multi-starts the
driver in gap k to test the slope-gap uniqueness prediction; under the
certificate it tells limits apart by the certificate's error bound
C |g|_{Z*}.

A Newton run is a generator (`_newton`), so that many run in lockstep
(`_lockstep`).  A run asks for each evaluation it needs, the gradient and
residual at a point (`_gradient`), the slopes at an iterate (`_slopes`)
and W's bands of a step's slopes (`_weight_bands`), and yields the MINRES
system of each step.  Each round answers the evaluations of all runs as
blocks, one interpolation and one call of f or f_t for all of their rows,
until every run still going waits on its system; then those systems are
solved as one block (`_minres_steps`), whose products with E and E^T are
matrix products over the block's rows.  Each row of a block evaluation
has the bits it has alone, and each run keeps its own iterate,
placement, globalization, budget and error.  The uniqueness probe runs
its starts so; the two solvers and the linear solve run one (`_drive`),
whose evaluations and products are those of a single vector.

A u is always the product of the Toeplitz symbol (`_stiffness_times`),
and A^-1 g the diagonal solve in the eigen-coordinates.  The dense A, the
read-only `op.stiffness` view, is read only where a matrix is factored:
copied into the Hessian of `morse_index` (`_system`).

scipy is the package's last dependency beyond numpy, and only for one
factorization: the Bunch-Kaufman LDL^T whose inertia `morse_index`
counts.  `morse_index` imports `scipy.linalg` at its first call, so
importing the package and every Newton run, coercive, gap, certified or
not (the resonant probe included), never loads it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .assembly import (AssembledOperator, _check_dim, _stiffness_times,
                       _tridiagonal, norm_Z)
from .errors import (InvalidParameterError, NonConvergenceError,
                     NonResonanceContradictionError, NumericError,
                     ResonanceError, UnsupportedCaseError, check_count,
                     check_real)
from .nonlinearity import (Case, CaseClassification, NonlinearitySpec,
                           SlopeGapReport, _contraction, _near_words, _place,
                           check_f2_gap, classify, eval_F, eval_f, eval_f_t)
from .spectral import Spectrum, solve_eigenproblem

#: factor by which a line search shortens a rejected step
LINE_SEARCH_CONTRACTION = 0.5

#: share of the predicted decrease that a line search must achieve
ARMIJO_FRACTION = 1.0e-4

#: shortenings of a certified gap-case step before the full step is taken
MERIT_HALVINGS = 40

#: steps without a new residual minimum after which an uncertified
#: gap-case Newton caps its steps
STALL_STEPS = 10

#: without a slope-gap certificate, the uniqueness probe counts two limits
#: as distinct when their Z-distance exceeds this share of the largest
#: limit's Z-norm (at least 1): a heuristic cut, since no bound on a
#: limit's error is known there.  A certified probe bounds each limit's
#: error by the certificate instead (`uniqueness_probe`).
DISTINCT_SOLUTION_Z = 1.0e-8

#: rounding allowance of the certified distinct-solution cut, relative to
#: the largest limit's Z-norm (at least 1)
DISTINCT_ROUNDING_Z = 1.0e-12

#: relative preconditioned residual at which the MINRES of a Newton step
#: (`_minres_step`) stops.  The steps it gives differ from the dense
#: solves by at most 3e-13 in relative Z-norm on the benchmark sweep
#: (N = 512); the uncertified steps of its f2-failing case over seeds
#: 1-10, in a gap or straddling an eigenvalue, by at most 1.4e-13.
MINRES_TOL = 1.0e-14

#: MINRES iterations allowed beyond the bound 2 ceil(log(MINRES_TOL / 2) /
#: log rho) of a step in a gap, and beyond twice the size of any step's
#: system, for rounding.  A constant weight (rho = 0), preconditioned to
#: +-I, takes two in exact arithmetic; rounding has made it take three,
#: and up to all four where the weight lies near an end of its gap
MINRES_SLACK = 4

#: largest normwise backward error |(A - W) d + g|_inf / (|A d|_inf +
#: |W d|_inf + |g|_inf) of a certified step d.  Real steps measure at most
#: 4.6e-13 (benchmark sweep, N = 512); the spectrum of
#: `test_certified_singular_system_raises`, shifted by 1, gives 3e-2.
STEP_BACKWARD_ERROR = 1.0e-10


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1.0e-9
    max_iter: int = 200
    seed: int = 42

    def __post_init__(self):
        check_real("tol", self.tol, 0.0)
        check_count("max_iter", self.max_iter, 1)
        check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class UniquenessVerdict:
    kind: str  # "Unique" | "MultipleFound" | "Inconclusive"
    max_pairwise_z: float = math.nan
    representatives: tuple = ()
    n_starts: int = 0
    seed: int = 0
    f2_passed: bool = False
    #: the distinct-solution cut that decided the verdict: "certified" (the
    #: certificate's error bound) or "heuristic" (scaled DISTINCT_SOLUTION_Z);
    #: None when Inconclusive
    cut: str | None = None
    #: the largest |u_i - u_j|_Z over that pair's bound, the Z-distance
    #: below which the two limits count as one solution: MultipleFound
    #: exactly when it exceeds 1 (NaN without a pair)
    max_pair_ratio: float = math.nan
    #: each start's Newton count, in start order: None for a start that did
    #: not converge, or that comes after the first start that did not
    iterations: tuple = ()

    def to_dict(self) -> dict:
        return {"kind": self.kind, "max_pairwise_z": self.max_pairwise_z,
                "n_starts": self.n_starts, "seed": self.seed,
                "f2_passed": self.f2_passed, "cut": self.cut,
                "max_pair_ratio": self.max_pair_ratio,
                "iterations": list(self.iterations)}


@dataclass(frozen=True)
class SolveReport:
    solution: np.ndarray = field(repr=False)
    j_value: float
    residual_inf: float
    iterations: int


# ---------------------------------------------------------------------------
# element-level quadrature of the nonlinear terms
# ---------------------------------------------------------------------------

def _interp_elements(u: np.ndarray, xi: np.ndarray):
    """u_h at the Gauss points of u, or of each row of a 2-D u, shape
    u.shape[:-1] + (n_elem, q): the Gauss axis is the contiguous one."""
    full = np.zeros(u.shape[:-1] + (u.shape[-1] + 2,))
    full[..., 1:-1] = u
    return full[..., :-1, None] * (1.0 - xi) + full[..., 1:, None] * xi


def eval_J(op: AssembledOperator, spec: NonlinearitySpec, u) -> float:
    u = _check_dim(op, u)
    xg, wg, xi = op.gauss
    uh = _interp_elements(u, xi)
    f_int = float(np.sum(wg * eval_F(spec, xg, uh)))
    return 0.5 * float(u @ _stiffness_times(op, u)) - f_int


def load_vector(op: AssembledOperator, spec: NonlinearitySpec,
                u) -> np.ndarray:
    """b(u)_i = int f(x, u_h(x)) phi_i(x) dx over interior hats."""
    return _load(op, spec, _check_dim(op, u))


def _load(op: AssembledOperator, spec: NonlinearitySpec, u) -> np.ndarray:
    """b(u) of u, or of each row of a 2-D u (`load_vector`)."""
    xg, wg, xi = op.gauss
    return _p1_load(op, wg * eval_f(spec, xg, _interp_elements(u, xi)), xi)


def _p1_load(op: AssembledOperator, wvals, xi) -> np.ndarray:
    """Interior hat loads of weighted Gauss-point values wvals (n_elem, q),
    or of each leading index of wvals, summed over the Gauss axis."""
    full = np.zeros(wvals.shape[:-2] + (op.mesh.n_elements + 1,))
    full[..., :-1] += np.sum(wvals * (1.0 - xi), axis=-1)
    full[..., 1:] += np.sum(wvals * xi, axis=-1)
    return full[..., 1:-1]


# The three evaluations of a Newton run (`_lockstep`) take an iterate u, or
# a block of iterates as the rows of a 2-D u, and give each row the bits it
# gets alone: the block is interpolated at once, f or f_t is called once,
# and each sum runs over the contiguous Gauss axis or row by row, in the
# order of a single vector.

def _gradient(op: AssembledOperator, spec: NonlinearitySpec, u):
    """The gradient A u - b(u) of J and the residual of the weak form, its
    sup-norm relative to 1 + |A u|_inf (a float, or a list of floats for
    the rows of u).  A u is one correlation per row (`_stiffness_times`)."""
    au = np.array([_stiffness_times(op, row)
                   for row in u.reshape(-1, u.shape[-1])]).reshape(u.shape)
    grad = au - _load(op, spec, u)
    res = np.abs(grad).max(axis=-1) / (1.0 + np.abs(au).max(axis=-1))
    return grad, res.tolist()


def eval_gradient(op: AssembledOperator, spec: NonlinearitySpec,
                  u) -> np.ndarray:
    return _gradient(op, spec, _check_dim(op, u))[0]


def _slopes(op: AssembledOperator, spec: NonlinearitySpec, u) -> np.ndarray:
    """f_t(x, u_h) at the Gauss points, shape u.shape[:-1] + (n_elem, q)."""
    xg, _, xi = op.gauss
    return eval_f_t(spec, xg, _interp_elements(u, xi))


def _weight_bands(op: AssembledOperator, slopes: np.ndarray):
    """The diagonal and the off-diagonal of the tridiagonal W,
    W_ij = int m phi_i phi_j dx for slope values m at the Gauss points
    (n_elem, q), or of each leading index of the slopes."""
    _, wg, xi = op.gauss
    phi = np.stack([1.0 - xi, xi])
    # phi_0^2, phi_1^2 and phi_0 phi_1 at each Gauss point, shape (q, 3)
    products = np.stack([phi[0] * phi[0], phi[1] * phi[1], phi[0] * phi[1]],
                        axis=1)
    weighted = wg * slopes
    # element integrals summed over the Gauss points in order, without BLAS,
    # so that the bands do not depend on a GEMM's blocking or FMA
    loc = np.multiply.outer(products[0], weighted[..., 0])
    for g in range(1, xi.size):
        loc += np.multiply.outer(products[g], weighted[..., g])
    return loc[0, ..., 1:] + loc[1, ..., :-1], loc[2, ..., 1:-1]


def _system(op: AssembledOperator, slopes: np.ndarray) -> np.ndarray:
    """A - W for the slope values `slopes` (`_weight_bands`), exactly
    symmetric: W's bands are subtracted from a C-ordered copy of A (the
    `op.stiffness` view).  With m = _slopes(op, spec, u) this is the
    Hessian of J."""
    diag, off = _weight_bands(op, slopes)
    system = op.stiffness.copy()
    i = np.arange(op.size)
    system[i, i] -= diag
    system[i[:-1], i[1:]] -= off
    system[i[1:], i[:-1]] -= off
    return system


def residual_weakform(op: AssembledOperator, spec: NonlinearitySpec,
                      u) -> float:
    return _gradient(op, spec, _check_dim(op, u))[1]


# ---------------------------------------------------------------------------
# linear nonresonant solve
# ---------------------------------------------------------------------------

def _profile_values(name: str, profile, xg: np.ndarray) -> np.ndarray:
    """A real scalar (never a bool) or callable profile at the Gauss points
    xg, refused unless finite: a NaN slope would read as resonance, an
    infinite one as a gap."""
    if isinstance(profile, numbers.Real) and not isinstance(profile, bool):
        values = np.full_like(xg, float(profile))
    elif callable(profile):
        values = np.asarray(profile(xg), dtype=float)
    else:
        raise InvalidParameterError(
            f"{name} profile must be a real scalar or callable, got "
            f"{type(profile).__name__}")
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise InvalidParameterError(
            f"{name} profile is not finite (NaN or inf) at {bad} of "
            f"{values.size} points")
    return values


def _check_pair(op: AssembledOperator, spectrum: Spectrum | None) -> None:
    """Refuse a spectrum computed for another operator, and a missing one:
    a classification holds its spectrum only when `classify` made it, not
    `classify_slopes`."""
    if spectrum is None:
        raise InvalidParameterError(
            "classification holds no spectrum to solve against: make it "
            "with classify(spec, spectrum), not classify_slopes")
    if spectrum.op is not op:
        raise InvalidParameterError(
            "spectrum, given or held by the classification, was solved for "
            "another operator than the one given")


def linear_nonresonant_solve(op: AssembledOperator, spectrum: Spectrum,
                             m_profile, g) -> np.ndarray:
    """Solve (A - M_w) u = M g with the slope weight certified nonresonant.

    `_place` must place the weight's range in a gap k between two
    eigenvalues, as `classify_slopes` places a slope range.  The system is
    then invertible, so the solve is one Newton step solved by MINRES in
    that gap (`_minres_step`, run alone by `_drive`), like any other: a
    step that fails its checks signals an assembly or spectrum bug, not a
    user error.  A refusal words the placement as classification does
    (`_near_words`): the range "straddles" or "touches" the eigenvalues it
    is near.
    """
    _check_pair(op, spectrum)
    xg, wg, xi = op.gauss
    m_vals = _profile_values("slope", m_profile, xg)
    lo, hi = float(m_vals.min()), float(m_vals.max())
    k, gap, near = _place(lo, hi, spectrum.eigenvalues)
    if k is None:
        words = _near_words(lo, hi, spectrum.eigenvalues, near)
        raise ResonanceError(
            f"slope profile range [{lo:.6g}, {hi:.6g}] {words}")
    rhs = _p1_load(op, wg * _profile_values("source", g, xg), xi)
    return _drive(spectrum, _minres_step(op, spectrum, m_vals, -rhs, gap))


# ---------------------------------------------------------------------------
# Newton iterations
# ---------------------------------------------------------------------------

def _resonant_step(spectrum: Spectrum, m: float, null: np.ndarray,
                   grad: np.ndarray) -> np.ndarray:
    """The step of an iterate whose slopes are the one constant m at an
    eigenvalue: W = m M, so the system A - m M is diagonal in the
    eigen-coordinates, Lambda - m.  y_j = -(E^T grad)_j / (lambda_j - m)
    off the null set `null`, the indices of the eigenvalues near [m, m]
    that `_gap_steps` got from `_place`, and y_j = 0 on it; the step E y
    then loses its Euclidean component along the null eigenvectors.  Of
    the steps that minimize the residual in the M^-1 norm this is the one
    of least Euclidean norm, so for a consistent system (a gradient in the
    range of A - m M) it is the minimum-norm least-squares step."""
    lam = spectrum.eigenvalues
    clear = np.ones(lam.size, dtype=bool)
    clear[null] = False
    y = np.divide(-spectrum.to_eigen(grad), lam - m, out=np.zeros_like(lam),
                  where=clear)
    unit = np.zeros((spectrum.size, null.size))
    unit[null, np.arange(null.size)] = 1.0
    basis = np.linalg.qr(spectrum.from_eigen(unit))[0]
    step = spectrum.from_eigen(y)
    return step - basis @ (basis.T @ step)


def _minres(apply, rhs: np.ndarray, tol: float, budgets):
    """MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12, 1975) for
    apply(rows, x) = rhs on each row of the block rhs (c x n), in the
    recurrences of Choi, Paige & Saunders (SIAM J. Sci. Comput. 33, 2011).
    `apply` is a symmetric operator on each row of x, a block of the rows
    `rows` of rhs; it is applied once per iteration to every row still
    running.  Each row keeps its own scalars, dot products and norms, so
    its iterates are those of MINRES on that row alone, and a row leaves
    the block once it stops.  Returns, per row, x and its iteration count
    once the residual that its recurrence tracks is at most tol times its
    |rhs|, or None after its budget of iterations without, or when a
    rotation vanishes, as it can on a singular operator."""
    beta = [float(np.linalg.norm(r)) for r in rhs]
    found = [None if b else (np.zeros_like(r), 0) for r, b in zip(rhs, beta)]
    rows = [i for i, b in enumerate(beta) if b]
    # each running row's cos, sin, delta, eps and phi, and phi's target
    scalars = [(-1.0, 0.0, 0.0, 0.0, beta[i], tol * beta[i]) for i in rows]
    beta = np.array([beta[i] for i in rows])
    v = rhs[rows] / beta[:, None]
    v_old = d_old = d = np.zeros_like(v)
    x = np.zeros_like(v)
    it = 0
    while rows:
        it += 1
        p = apply(rows, v)
        alpha = [float(vj @ pj) for vj, pj in zip(v, p)]
        p -= np.array(alpha)[:, None] * v
        p -= beta[:, None] * v_old
        beta = np.array([np.linalg.norm(pj) for pj in p])
        coeffs, solved, keep = [], [], []
        for j, (a, b) in enumerate(zip(alpha, beta.tolist())):
            cos, sin, delta, eps, phi, target = scalars[j]
            # rotate the new column of the row's Lanczos tridiagonal
            delta2 = cos * delta + sin * a
            gamma = sin * delta - cos * a
            gamma2 = math.hypot(gamma, b)
            if not gamma2 > 0.0:  # the row stops without a solution
                coeffs.append((0.0, 0.0, 1.0, 0.0))
                continue
            delta, eps_next = -cos * b, sin * b
            cos, sin = gamma / gamma2, b / gamma2
            coeffs.append((delta2, eps, gamma2, cos * phi))
            phi *= sin
            scalars[j] = cos, sin, delta, eps_next, phi, target
            if phi <= target:
                solved.append(j)
            elif it < budgets[rows[j]]:
                keep.append(j)
        delta2, eps, gamma2, move = np.array(coeffs).T[:, :, None]
        d_old, d = d, (v - delta2 * d - eps * d_old) / gamma2
        x += move * d
        for j in solved:
            found[rows[j]] = x[j], it
        if len(keep) < len(rows):
            rows = [rows[j] for j in keep]
            scalars = [scalars[j] for j in keep]
            v, p, d, d_old, x, beta = (a[keep] for a in (v, p, d, d_old, x,
                                                         beta))
        v_old, v = v, p / beta[:, None]
    return found


def _minres_bound(contraction: float) -> int:
    """The MINRES iterations a step in a gap may take by its contraction:
    on a spectrum in +-[1 - rho, 1 + rho] the residual after j iterations
    is at most 2 rho^floor(j/2) times the first (the two-interval bound;
    Elman, Silvester & Wathen, *Finite Elements and Fast Iterative
    Solvers*, 2nd ed., 2014), so 2 ceil(log(MINRES_TOL / 2) / log rho)
    iterations reach MINRES_TOL in exact arithmetic; MINRES_SLACK more
    allow for rounding.  `_minres_step` applies it to the contraction of
    the preconditioner it applies, that of the iterate's own slope range,
    and caps it by the size of the system."""
    if not contraction > 0.0:
        return MINRES_SLACK
    rho = min(contraction, math.nextafter(1.0, 0.0))
    return 2 * math.ceil(math.log(MINRES_TOL / 2.0) / math.log(rho)) \
        + MINRES_SLACK


def _minres_step(op: AssembledOperator, spectrum: Spectrum,
                 slopes: np.ndarray, grad: np.ndarray, gap: tuple | None):
    """The step d = (A - W)^-1 (-grad) for the slope values `slopes` (see
    `_system`), without forming A - W: the one solver of every Newton step
    but a resonant one.  `gap` holds the ends of the gap k in which
    `_place` put the range [lo, hi] of the slopes; by Courant-Fischer
    A - W is then nonsingular with Morse index k.  It is None where the
    range lies in no gap, straddling an eigenvalue or within GAP_MARGIN of
    one, so that A - W is singular only by accident.

    A generator run by `_lockstep`: it asks for W's bands of its slopes
    (`_weight_bands`), then yields the system (grad, its preconditioner,
    W's bands, its MINRES budget), which `_minres_steps` solves in a block
    with the systems of the other runs, is sent the step found, or None,
    and returns the step once it passes its checks.
    In the eigen-coordinates of `Spectrum.to_eigen` the system is
    (Lambda - E^T W E) y = -E^T grad, d = E y.  With c the midpoint of
    [lo, hi], MINRES solves it preconditioned symmetrically by
    |Lambda - c|^-1; each iteration costs one E, one W and one E^T.  In a
    gap the preconditioned spectrum lies in +-[1 - rho, 1 + rho], rho =
    `_contraction`(lo, hi, *gap), so `_minres_bound(rho)` iterations
    suffice whatever the mesh: on a range inside a slope-gap certificate's
    this rho is at most the certificate's, since rho = w / (w +
    2 min(d_lo, d_hi)) for the range's width w and its distances d_lo,
    d_hi to the gap's ends.  On any system of size n MINRES terminates
    within n iterations in exact arithmetic; 2 n + MINRES_SLACK allows for
    rounding (the most a straddling step was seen to take is 2 n + 1),
    and caps every budget.  The step raises when MINRES misses MINRES_TOL
    within its budget, or when d misses the nodal system by a normwise
    backward error above STEP_BACKWARD_ERROR: in a gap this is
    NonResonanceContradictionError, which a spectrum that does not belong
    to A gives, and in no gap NumericError, which a singular A - W
    gives."""
    lo, hi = float(slopes.min()), float(slopes.max())
    bands = yield _weight_bands, (op,), slopes
    scale = 1.0 / np.sqrt(np.abs(spectrum.eigenvalues - 0.5 * (lo + hi)))
    budget = 2 * op.size + MINRES_SLACK
    if gap is None:
        error = NumericError
        claim = f"at slopes [{lo:.6g}, {hi:.6g}] in no gap"
    else:
        rho = _contraction(lo, hi, *gap)
        budget = min(budget, _minres_bound(rho))
        error = NonResonanceContradictionError
        claim = f"although the slopes lie in a gap (rho = {rho:.6g})"
    step = yield None, (), (grad, scale, bands, budget)
    if step is None:
        raise error(f"MINRES missed {MINRES_TOL:g} within {budget} "
                    f"iterations {claim}")
    a_step, w_step = _stiffness_times(op, step), _tridiagonal(bands, step)
    scale_inf = (np.abs(a_step).max() + np.abs(w_step).max()
                 + np.abs(grad).max())
    # a zero gradient has the exact zero step: backward error 0, not 0/0
    miss = float(np.abs(a_step - w_step + grad).max())
    backward = miss / scale_inf if miss else 0.0
    if not backward <= STEP_BACKWARD_ERROR:
        raise error(f"Newton step misses its system by a backward error of "
                    f"{backward:.3e} {claim}")
    return step


def _minres_steps(spectrum: Spectrum, systems) -> list:
    """The steps of the systems that `_minres_step` yields, solved as one
    block, a row each: one E^T takes the gradients to the
    eigen-coordinates, each MINRES iteration applies E, the rows' own W
    and E^T to the rows still running (`_minres`), and one E maps the
    solutions back.  A block of one row makes the products of a single
    vector.  Returns each system's step, None where MINRES missed its
    tolerance within the system's budget."""
    grads, scales, bands, budgets = zip(*systems)
    scale = np.array(scales)
    diag = np.column_stack([b[0] for b in bands])
    off = np.column_stack([b[1] for b in bands])
    lam = spectrum.eigenvalues

    def apply(rows, z):
        y = scale[rows] * z
        nodal = spectrum.from_eigen(y.T)
        return scale[rows] * (lam * y - spectrum.to_eigen(
            _tridiagonal((diag[:, rows], off[:, rows]), nodal)).T)

    found = _minres(apply, -scale * spectrum.to_eigen(np.column_stack(
        grads)).T, MINRES_TOL, budgets)
    x = np.array([f[0] if f else np.zeros_like(lam) for f in found])
    nodal = np.ascontiguousarray(spectrum.from_eigen((scale * x).T).T)
    return [step if f else None for step, f in zip(nodal, found)]


def _lockstep(spectrum: Spectrum, runs) -> list:
    """Run the generators `runs` (`_newton`, `_minres_step`) in lockstep.
    A run yields requests (evaluate, args, x): evaluate(*args, x) is one
    of its evaluations, `_gradient`, `_slopes` or `_weight_bands`, and
    evaluate None marks a MINRES system x.  Each pass answers the pending
    evaluations that share evaluate and args as one block, the rows of a
    2-D x (a lone one on its own x), and the runs go on asking until every
    run still going waits on its system.  Only then are those systems
    solved as one block (`_minres_steps`), in the order of `runs`, and
    each run is sent its own step: the block MINRES is a round's one
    barrier, so a run that takes more evaluations in a round (a line
    search's rejected trials, a resonant step) still joins the round's
    block.  Returns what each run returned, in the order of `runs`, or the
    exception it raised; the caller decides, in that order, which outcome
    counts, so that a run's error does not depend on how far the others
    got."""
    outcomes = [None] * len(runs)
    answers = dict.fromkeys(range(len(runs)))
    systems = {}
    while answers:
        blocks = {}
        for i, answer in answers.items():
            try:
                evaluate, args, x = runs[i].send(answer)
            except StopIteration as done:
                outcomes[i] = done.value
                continue
            except Exception as exc:  # kept, and raised by the caller
                outcomes[i] = exc
                continue
            if evaluate is None:
                systems[i] = x
            else:
                key = (evaluate, *map(id, args))
                blocks.setdefault(key, (evaluate, args, {}))[2][i] = x
        answers = {}
        for evaluate, args, asked in blocks.values():
            if len(asked) == 1:
                [(i, x)] = asked.items()
                answers[i] = evaluate(*args, x)
                continue
            found = evaluate(*args, np.array(list(asked.values())))
            answers.update(zip(asked, zip(*found)
                               if isinstance(found, tuple) else found))
        if not answers and systems:
            order = sorted(systems)
            answers = dict(zip(order, _minres_steps(
                spectrum, [systems[i] for i in order])))
            systems = {}
    return outcomes


def _drive(spectrum: Spectrum, run):
    """What the one generator `run` returns, run alone by `_lockstep`, each
    evaluation on its own vector, or the exception it raised, raised."""
    [outcome] = _lockstep(spectrum, [run])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _gap_steps(op, spectrum, certificate):
    """step(slopes, grad), the Newton step of every run, the coercive one
    (gap 0, no certificate) included: a generator that yields the
    requests of a MINRES step (`_minres_step`) and returns the step.  Each
    iterate's slope range is placed once (`_place`), and the step reads
    its gap k, the gap's ends and the eigenvalues near the range from that
    one placement.  The slope-gap report `certificate` only refuses an
    iterate whose range leaves the certificate's gap k
    (NonResonanceContradictionError).  Slopes that are one constant m
    placed in no gap, so that an eigenvalue lies within GAP_MARGIN of m,
    take `_resonant_step` with those eigenvalues as its null set, which a
    certified iterate never does; every other step is `_minres_step` in
    the gap that holds the range, or in none where it straddles an
    eigenvalue."""

    def step(slopes, grad):
        lo, hi = float(slopes.min()), float(slopes.max())
        k, gap, near = _place(lo, hi, spectrum.eigenvalues)
        if certificate is not None and k != certificate.k:
            raise NonResonanceContradictionError(
                f"slopes [{lo:.6g}, {hi:.6g}] at the iterate leave gap "
                f"k={certificate.k}, in which its step was to be solved")
        if k is None and lo == hi:
            return _resonant_step(spectrum, lo, near, grad)
        return (yield from _minres_step(op, spectrum, slopes, grad, gap))

    return step


def _newton(op, spec, spectrum, k, certificate, u0, opts):
    """Newton on A u - b(u) from u0 for a critical point in gap k of
    `spectrum`; returns u, its gradient and the residual of every iterate.
    This is the one place that decides how a run steps, and a generator
    run by `_lockstep`, one of a block of runs: it asks for the gradient
    at u0 and the slopes at each iterate (`_gradient`, `_slopes`) and
    yields the system of each MINRES step, so that the evaluations and
    the steps of all runs in a round are made together; `_drive` runs it
    alone.  Every step is that of `_gap_steps` under the slope-gap report
    `certificate` (None without one), and the globalization follows from
    k and the certificate: gap 0, the coercive case, backtracks on J
    (`_armijo`); a certified gap k >= 1 backtracks on the merit
    (`_merit_backtracking`); an uncertified one caps its steps' Z-norm
    after a stall (`_z_capped`).  A globalization is a generator as well:
    it asks for the gradient and residual (`_gradient`) of each point it
    tries, and returns the next iterate with them, or None when it finds
    no acceptable one.  The run stops at opts.tol within opts.max_iter
    steps.  An iterate whose slopes or gradient are not finite raises
    NumericError before any step is solved: this is the one finiteness
    test of an iterate, so no step solver repeats it."""
    if k == 0:
        globalize = _armijo(op, spec, spectrum, u0)
    elif certificate is None:
        globalize = _z_capped(op, spec)
    else:
        globalize = _merit_backtracking(op, spec, spectrum)
    step = _gap_steps(op, spectrum, certificate)
    u = np.array(u0, dtype=float)
    grad, res = yield _gradient, (op, spec), u
    trace = []
    for it in range(opts.max_iter + 1):
        trace.append(res)
        if res <= opts.tol:
            return u, grad, trace
        if it == opts.max_iter:
            break
        slopes = yield _slopes, (op, spec), u
        if not (np.isfinite(slopes).all() and np.isfinite(grad).all()):
            raise NumericError(
                f"Newton step failed: the slopes or the gradient at "
                f"iteration {it} are not finite")
        moved = yield from globalize(u, (yield from step(slopes, grad)), grad,
                                     res)
        if moved is None:
            raise NonConvergenceError(
                f"line search stalled at iteration {it} "
                f"(residual {res:.3e})", trace=trace)
        u, grad, res = moved
    raise NonConvergenceError(
        f"Newton did not reach tol={opts.tol} in {opts.max_iter} iterations "
        f"(last residual {trace[-1]:.3e})", trace=trace)


def _armijo(op, spec, spectrum, u0):
    """Backtrack along the Newton step until J drops by 1e-4 of the
    predicted decrease, up to a few roundings of J, below which no decrease
    can be seen.  A Newton step that does not descend is replaced by
    steepest descent in the Z inner product, -A^-1 grad = -E Lambda^-1 E^T
    grad in the eigen-coordinates of `spectrum`, which descends because A
    is SPD; the Euclidean -grad is badly scaled for an H^s energy.  The
    rule evaluates J itself and asks for the gradient of the trial it
    accepts."""
    j_val = eval_J(op, spec, u0)

    def globalize(u, step, grad, res):
        nonlocal j_val
        slope = float(grad @ step)
        if slope >= 0.0:
            step = -spectrum.from_eigen(spectrum.to_eigen(grad)
                                        / spectrum.eigenvalues)
            slope = float(grad @ step)
        slack = 4.0 * np.finfo(float).eps * abs(j_val)
        t = 1.0
        for _ in range(60):
            trial = u + t * step
            j_trial = eval_J(op, spec, trial)
            if j_trial <= j_val + ARMIJO_FRACTION * t * slope + slack:
                j_val = j_trial
                return (trial, *(yield _gradient, (op, spec), trial))
            t *= LINE_SEARCH_CONTRACTION
        return None

    return globalize


def _z_capped(op, spec):
    """The rule of an uncertified gap run: full steps until the residual
    has gone STALL_STEPS steps without a new minimum, whether it diverges
    or cycles (a Newton 2-cycle rises only on every other step); from then
    on the step's Z-norm is capped at |u|_Z + 1, u the iterate at the
    switch.  It asks for the gradient of the new iterate."""
    radius = None
    best_res = math.inf
    stall = 0

    def globalize(u, step, grad, res):
        nonlocal radius, best_res, stall
        if radius is not None:
            step_norm = norm_Z(op, step)
            if step_norm > radius:
                step = step * (radius / step_norm)
        u = u + step
        stall = 0 if res < best_res else stall + 1
        if radius is None and stall >= STALL_STEPS:
            radius = norm_Z(op, u) + 1.0
        best_res = min(best_res, res)
        return (u, *(yield _gradient, (op, spec), u))

    return globalize


def _merit_backtracking(op, spec, spectrum):
    """The rule of a certified gap run: backtrack along the Newton step on
    the merit phi(u) = |g(u)|_{Z*}^2 / 2 until phi drops by ARMIJO_FRACTION
    of its predicted decrease, halving the step up to MERIT_HALVINGS times.

    Under a slope-gap certificate the Hessian H = A - W is nonsingular, so
    along the Newton step d = -H^-1 g, d phi(u + t d)/dt = g^T A^-1 H d =
    -2 phi at t = 0, whatever the inertia of H; the MINRES step
    (`_minres_step`) solves H d = -g to a backward error of at most
    STEP_BACKWARD_ERROR, far inside the ARMIJO_FRACTION test.  The test
    accepts some t unless rounding hides the decrease, as it does with phi
    at rounding level near a solution; then the full step is taken.  A
    trial asks for one gradient and costs one `Spectrum.dual_norms` of it
    alone, and the merit of the iterate it returns is kept for the next
    call."""
    kept = (None, math.nan)  # the gradient last returned and its merit

    def merit(grad):
        return 0.5 * float(spectrum.dual_norms(grad)) ** 2

    def globalize(u, step, grad, res):
        nonlocal kept
        phi = kept[1] if grad is kept[0] else merit(grad)
        t = 1.0
        full = None
        for _ in range(MERIT_HALVINGS + 1):
            trial = u + t * step
            moved = (trial, *(yield _gradient, (op, spec), trial))
            phi_trial = merit(moved[1])
            if full is None:
                full = moved, phi_trial
            if phi_trial <= (1.0 - 2.0 * ARMIJO_FRACTION * t) * phi:
                kept = moved[1], phi_trial
                return moved
            t *= LINE_SEARCH_CONTRACTION
        moved, phi_trial = full
        kept = moved[1], phi_trial
        return moved

    return globalize


def _f2_passed(spec: NonlinearitySpec, spectrum: Spectrum,
               k: int) -> SlopeGapReport | None:
    """The slope-gap certificate for gap k: `check_f2_gap`'s report if it
    passed, None if it failed or f declares no slope range.  It makes every
    gap-case Newton system nonsingular and bounds the error of an iterate
    by its gradient (`SlopeGapReport.inverse_bound`)."""
    if spec.slope_range is None:
        return None
    report = check_f2_gap(spec, spectrum, k)
    return report if report.passed else None


def _solve(op, spec, opts, classification, case) -> SolveReport:
    """The gate and the run of both existence cases: refuse a
    classification that holds no spectrum of op (`_check_pair`) or whose
    case is not `case` (UnsupportedCaseError), then run `_newton` from 0
    in the classified gap k (0 when coercive, whose classification holds
    no k), certified by `_f2_passed` when k >= 1 and the slope-gap check
    passes."""
    spectrum = classification.spectrum
    _check_pair(op, spectrum)
    if classification.case is not case:
        raise UnsupportedCaseError(classification)
    k = classification.k or 0
    certificate = _f2_passed(spec, spectrum, k) if k else None
    u, _, trace = _drive(spectrum, _newton(op, spec, spectrum, k,
                                           certificate, np.zeros(op.size),
                                           opts))
    return SolveReport(solution=u, j_value=eval_J(op, spec, u),
                       residual_inf=trace[-1], iterations=len(trace) - 1)


def solve_case_a(op: AssembledOperator, spec: NonlinearitySpec,
                 opts: SolverOptions = SolverOptions(),
                 classification: CaseClassification | None = None) -> SolveReport:
    """Direct minimization of J in the coercive case, gap 0 (`_solve`):
    Newton from 0 in the spectrum of the classification, backtracking on
    J.  Without a classification the spec is classified on
    `solve_eigenproblem(op)`; a case other than coercive raises
    UnsupportedCaseError."""
    if classification is None:
        classification = classify(spec, solve_eigenproblem(op))
    return _solve(op, spec, opts, classification, Case.COERCIVE)


def solve_case_b(op: AssembledOperator, spectrum: Spectrum,
                 spec: NonlinearitySpec,
                 opts: SolverOptions = SolverOptions(),
                 classification: CaseClassification | None = None
                 ) -> SolveReport:
    """Newton on the gradient in the spectral-gap case (`_solve`) in the
    spectrum of the classification (by default `classify(spec,
    spectrum)`), certified when the slope-gap check of the classified gap
    passes (`_f2_passed`).  A spectrum of another operator than op is
    refused, and a case other than gap raises UnsupportedCaseError."""
    _check_pair(op, spectrum)
    if classification is None:
        classification = classify(spec, spectrum)
    return _solve(op, spec, opts, classification, Case.GAP)


def uniqueness_probe(op: AssembledOperator, spectrum: Spectrum,
                     spec: NonlinearitySpec, k: int, n_starts: int = 8,
                     opts: SolverOptions = SolverOptions()) -> UniquenessVerdict:
    """Multi-start search for distinct weak solutions.

    Initial iterates have eigenbasis components uniform in [-10, 10].  The
    classification gate is deliberately bypassed so resonant
    counterexamples can be probed; every start runs `_newton` in gap k, as
    solve_case_b does, certified when `_f2_passed` passes for gap k.

    Two limits u_i, u_j count as distinct when |u_i - u_j|_Z over their
    pair bound exceeds 1 (`max_pair_ratio` is the largest such ratio).
    Under the certificate the bound is C (|g_i|_{Z*} + |g_j|_{Z*}) plus
    DISTINCT_ROUNDING_Z times max(1, max_i |u_i|_Z), C its inverse
    bound and g_i the gradient at u_i: the solution is unique and each
    limit lies within C |g_i|_{Z*} of it, so only rounding beyond the
    allowance or a false certificate can make that verdict MultipleFound.
    Without a certificate the bound is the heuristic DISTINCT_SOLUTION_Z
    times max(1, max_i |u_i|_Z).  The verdict is Inconclusive when a start
    does not converge, and with a single start, which leaves no pair to
    compare.

    The starts run in lockstep (`_lockstep`), their evaluations and their
    MINRES steps made as blocks each round, but their outcomes count in
    start order, as if each ran after the one before: the first start
    that fails decides, Inconclusive for NonConvergenceError and raised
    for any other error, whatever a later start did.  `iterations` holds
    each start's Newton count up to that start.
    """
    _check_pair(op, spectrum)
    spectrum.gap(k)
    check_count("n_starts", n_starts, 1)
    certificate = _f2_passed(spec, spectrum, k)
    rng = np.random.default_rng(opts.seed)
    # row i holds the coefficients of the i-th of n_starts successive draws
    starts = spectrum.from_eigen(rng.uniform(
        -10.0, 10.0, size=(n_starts, spectrum.size)).T).T
    outcomes = _lockstep(spectrum, [
        _newton(op, spec, spectrum, k, certificate, u0, opts)
        for u0 in starts])
    solutions, grads, iterations = [], [], [None] * n_starts
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, NonConvergenceError):
            break
        if isinstance(outcome, Exception):
            raise outcome
        u, grad, trace = outcome
        solutions.append(u)
        grads.append(grad)
        iterations[i] = len(trace) - 1
    if len(solutions) < max(n_starts, 2):
        return UniquenessVerdict(kind="Inconclusive", n_starts=n_starts,
                                 seed=opts.seed,
                                 f2_passed=certificate is not None,
                                 iterations=tuple(iterations))
    # u_j - u_i = -(u_i - u_j) exactly, so one Z-norm per pair
    dist = np.zeros((n_starts, n_starts))
    for i, j in zip(*np.triu_indices(n_starts, 1)):
        dist[i, j] = dist[j, i] = norm_Z(op, solutions[i] - solutions[j])
    scale = max(1.0, max(norm_Z(op, u) for u in solutions))
    if certificate is None:
        cut = "heuristic"
        bound = np.full_like(dist, DISTINCT_SOLUTION_Z * scale)
    else:
        cut = "certified"
        error = certificate.inverse_bound * spectrum.dual_norms(
            np.column_stack(grads))
        bound = error[:, None] + error[None, :] + DISTINCT_ROUNDING_Z * scale
    ratio = dist / bound
    distinct = ratio > 1.0
    rep = [0]
    for j in range(1, len(solutions)):
        if distinct[j, rep].all():
            rep.append(j)
    pairs = ratio[np.triu_indices(n_starts, 1)]
    return UniquenessVerdict(
        kind="MultipleFound" if distinct.any() else "Unique",
        max_pairwise_z=float(dist.max()),
        representatives=tuple(solutions[i] for i in rep),
        n_starts=n_starts, seed=opts.seed, f2_passed=certificate is not None,
        cut=cut, max_pair_ratio=float(pairs.max()),
        iterations=tuple(iterations))


# ---------------------------------------------------------------------------
# saddle geometry probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusSample:
    radius: float
    extreme_ratio_l2: float  # J / |u|_L2^2 at the extreme sample
    extreme_ratio_z: float   # J / |u|_Z^2 at the extreme sample
    extreme_j: float


@dataclass(frozen=True)
class GeometryProbe:
    mode: str  # "gap" | "coercive"
    k: int
    head: tuple = ()   # max over the head sphere, per radius
    tail: tuple = ()   # min over the tail cone, per radius
    floor_estimate: float = math.nan  # sampled min of J over the tail space
    separated: bool | None = None
    seed: int = 0


#: directions per batch of the geometry probe, and about the most rows
#: that F is evaluated on at once; a larger batch is no faster and raises
#: the probe's peak memory.  A minimum scan's axis batches start at one
#: axis and double up to it, and the scan tests its growth bound before
#: each (`_scan`).  No sample's bits depend on it
PROBE_CHUNK = 16

#: relative slack of the minimum scans' growth bound (`_growth_floor`): it
#: allows e_j^T M e_j up to 1 + GROWTH_BOUND_SLACK and lowers the bound by
#: this share of its terms, and of the compared ratio, for rounding
GROWTH_BOUND_SLACK = 1.0e-8


def _sphere_samples(rng, dim: int, n_random: int) -> np.ndarray:
    """Random unit directions in R^dim, shape (n_random, dim).

    A scan evaluates these first, group by group, and then the 2*dim
    deterministic +-axes, in batches of PROBE_CHUNK axes, or, in a minimum
    scan, of 1, 2, 4, ... axes up to PROBE_CHUNK, which it stops mapping
    once its growth bound rules out the rest (`_scan`).
    """
    raw = rng.standard_normal((n_random, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw


def _growth_floor(op: AssembledOperator, spec: NonlinearitySpec,
                  lam: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Lower bounds, less rounding, of the ratio J / |u|_L2^2 on the axis
    u = z e_j / sqrt(lambda_j), shape (norms.size, lam.size) for |z| in
    `norms`.  (f1), |f| <= a(x) + b|t|, gives F <= a|t| + b t^2 / 2, so by
    Cauchy-Schwarz in the Gauss weights the integral of F is at most
    A S + b S^2 / 2, with A^2 the Gauss sum of a^2 and S^2 = z^2 e_j^T M e_j
    / lambda_j, which the rule takes exactly: the ratio is at least
    lambda_j/2 - b(1+eps)/2 - A sqrt((1+eps) lambda_j) / |z|, eps =
    GROWTH_BOUND_SLACK.  A non-finite A or b gives -inf or NaN, which
    bounds nothing."""
    xg, wg, _ = op.gauss
    eps = GROWTH_BOUND_SLACK
    big_a = math.sqrt(float(np.sum(
        wg * np.asarray(spec.a_profile(xg), dtype=float) ** 2)))
    linear = big_a * np.sqrt(lam) / norms[:, None]
    bound = (0.5 * lam - 0.5 * spec.b * (1.0 + eps)
             - linear * math.sqrt(1.0 + eps))
    return bound - eps * (0.5 * lam + 0.5 * spec.b + linear)


def _scan(op: AssembledOperator, spec: NonlinearitySpec, spectrum: Spectrum,
          rng, modes: slice, groups, n_samples: int, reduce_max: bool):
    """Extreme energy ratios over the eigenmodes `modes`, one per group of
    Z-norms: (J / |u|_L2^2, J / |u|_Z^2, J) of the first extreme sample in
    (Z-norm, direction) order, the directions being the +axes, the -axes
    and then the group's own seeded random directions, all of unit Z-norm.

    Eigenvectors are M-orthonormal and A-orthogonal, so a sample of Z-norm
    z has quadratic energy exactly z^2/2 and squared L2-norm z^2 |c|^2 in
    eigen-coordinates c; only the integral of F needs nodal values.  Each
    sample's integral is the sum of its own contiguous Gauss values, so it
    has the same bits in a batch of any width.  The random directions are
    evaluated first, in group order, PROBE_CHUNK at a time; each group's
    are mapped by one `Spectrum.from_eigen`, a matrix product whose
    rounding of a column depends on the number of columns, while an axis
    maps exactly to its eigenvector in any batch.  Then come the axes,
    once for every group, in ascending lambda_j, the -e_j sample at z
    being e_j at -z.  The head scan, a maximum, has no bound and maps every
    axis, PROBE_CHUNK at a time.  A minimum scan maps its axes in batches
    of 1, 2, 4, ... up to PROBE_CHUNK, and before each batch it stops
    evaluating a group whose growth bound (`_growth_floor`), less
    GROWTH_BOUND_SLACK times the group's best ratio, lies strictly above
    that best ratio for every remaining axis and Z-norm of the group; it
    stops mapping axes when no group is left.  A skipped sample therefore
    cannot be the extreme nor tie it, and every evaluated one keeps its
    bits.  An evaluated axis sample below its own bound proves the growth
    data false, and raises InvalidParameterError.
    """
    lam = spectrum.eigenvalues[modes]
    xg, wg, xi = op.gauss

    def mapped(coeffs):
        """Nodal values, one row per row of `coeffs`, the coefficients on
        `modes` of a block of directions."""
        c = np.zeros((spectrum.size, len(coeffs)))
        c[modes] = coeffs.T
        return spectrum.from_eigen(c).T

    def energies(nodal, z_norms):
        """J at z_norms along the rows of `nodal`, shape (z_norms.size,
        len(nodal)).  F takes about PROBE_CHUNK rows per call: a batch
        narrower than that is evaluated at several Z-norms at once."""
        uh = _interp_elements(nodal, xi)
        step = max(PROBE_CHUNK // len(nodal), 1)
        f_int = np.concatenate([np.sum(wg * eval_F(
            spec, xg, z_norms[i:i + step, None, None, None] * uh),
            axis=(-2, -1)) for i in range(0, z_norms.size, step)])
        return 0.5 * z_norms[:, None] ** 2 - f_int

    # the sorted distinct norms, without np.unique, which imports numpy.ma
    norms = np.sort(np.concatenate(groups))
    norms = norms[np.concatenate([[True], norms[1:] != norms[:-1]])]
    signed = np.concatenate([norms, -norms])
    rows = [np.searchsorted(norms, z_norms) for z_norms in groups]
    drawn, best = [], []
    for z_norms in groups:
        unit = _sphere_samples(rng, lam.size,
                               max(n_samples - 2 * lam.size, 0))
        unit /= np.sqrt(unit ** 2 @ lam)[:, None]
        nodal, sampled = mapped(unit), np.empty((z_norms.size, len(unit)))
        for i0 in range(0, len(unit), PROBE_CHUNK):
            sampled[:, i0:i0 + PROBE_CHUNK] = energies(
                nodal[i0:i0 + PROBE_CHUNK], z_norms)
        drawn.append((unit, sampled))
        best.append((sampled / (z_norms[:, None] ** 2 * np.sum(
            unit ** 2, axis=1))).min(initial=np.inf))
    # J on each signed norm and axis, +inf where not mapped, and the least
    # axis ratio so far at each norm, of either sign
    on_axes = np.full((signed.size, lam.size), np.inf)
    least = np.full(norms.size, np.inf)
    floor = None if reduce_max else _growth_floor(op, spec, lam, norms)
    active = range(len(groups))
    # a minimum scan's axis batches start at one axis and double, so that
    # a bound that rules out the rest after the first axis maps no more
    edges, width = [0], PROBE_CHUNK if reduce_max else 1
    while edges[-1] < lam.size:
        edges.append(min(edges[-1] + width, lam.size))
        width = min(2 * width, PROBE_CHUNK)
    for i0, i1 in zip(edges[:-1], edges[1:]):
        if floor is not None:
            # a group is done once its bound exceeds its best ratio so far
            # on every remaining axis
            best = [np.minimum(b, least[r].min()) for b, r in zip(best, rows)]
            active = [g for g in active if not np.min(floor[rows[g], i0:])
                      > best[g] + GROWTH_BOUND_SLACK * abs(best[g])]
        need = np.zeros(norms.size, dtype=bool)
        for g in active:
            need[rows[g]] = True
        need = np.flatnonzero(need)
        if need.size == 0:
            break
        at = np.concatenate([need, norms.size + need])
        on_axes[at, i0:i1] = energies(
            mapped(np.eye(i1 - i0, lam.size, i0))
            * (1.0 / np.sqrt(lam[i0:i1]))[:, None], signed[at])
        if floor is None:
            continue
        ratio = on_axes[at, i0:i1] / (signed[at, None] ** 2
                                      * (1.0 / lam[i0:i1]))
        low = np.tile(floor[need, i0:i1], (2, 1))
        bad = np.argwhere(ratio + GROWTH_BOUND_SLACK * np.abs(ratio) < low)
        if bad.size:
            r, j = bad[0]
            raise InvalidParameterError(
                f"the growth data a(x), b = {spec.b!r} are false: on "
                f"eigenmode {modes.start + i0 + j + 1} at Z-norm "
                f"{signed[at[r]]!r} the energy ratio {ratio[r, j]!r} lies "
                f"below {low[r, j]!r}, the bound that |f| <= a(x) + b|t| "
                f"implies")
        least[need] = np.minimum(least[need], np.minimum(
            ratio[:need.size], ratio[need.size:]).min(axis=1))
    out = []
    for z_norms, at, (unit, sampled) in zip(groups, rows, drawn):
        sampled = np.hstack([on_axes[at], on_axes[norms.size + at], sampled])
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
                   seed: int = SolverOptions.seed) -> GeometryProbe:
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
    sample at -z.  Every group of Z-norms accounts for all 2*dim +-axes, so
    `n_samples` is a floor: it only adds seeded random directions beyond
    2*dim, per group.  The head scan evaluates every axis.  A minimum scan
    (the tail, or the whole space for k = 0) evaluates the random
    directions first and then the axes in ascending lambda_j, and stops
    once the growth data (f1), |f| <= a(x) + b|t|, bound every remaining
    axis strictly above each group's minimum so far (`_growth_floor`): the
    probe is, bit for bit, the scan of every axis.  An evaluated axis
    sample below its bound proves the growth data false, and raises
    InvalidParameterError.  The minimum scans map their axes in batches of
    1, 2, 4, ... up to PROBE_CHUNK and test the bound before each, so a
    bound that rules out every axis after the first stops them there.
    Each sample's integral of F is the sum of its own Gauss values, so the
    probe does not depend on the batch widths.  Each direction is mapped
    to nodal values once, by `Spectrum.from_eigen` in O(N^2), and then
    costs O(N) per Z-norm; no N x N eigenvector matrix is built.  The
    first extreme sample in (Z-norm, direction) order wins.  For a purely
    quadratic F the ratio of an axis sample is the same at every Z-norm,
    so which norm supplies `extreme_j` and `floor_estimate` is decided by
    rounding.
    """
    _check_pair(op, spectrum)
    radii = tuple(sorted(check_real("radius", r, 0.0) for r in radii))
    check_count("the number of radii", len(radii), 1)
    check_count("n_samples", n_samples, 0)
    m = spectrum.size
    check_count("k", k, 0, m)
    rng = np.random.default_rng(check_count("seed", seed, 0))
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
    """Number of negative eigenvalues of the Hessian A - D(u).

    By Sylvester's law of inertia the count is that of the negative
    eigenvalues of D in a Bunch-Kaufman factorization A - D(u) = L D L^T
    (Bunch & Kaufman, Math. Comp. 31, 1977), LAPACK `sytrf`, at about a
    quarter of the flops of the eigenvalues.  D is block diagonal: each
    1 x 1 pivot counts when it is negative, and each 2 x 2 block counts
    once, since Bunch-Kaufman takes a 2 x 2 pivot only when its
    determinant is negative, so the block holds one eigenvalue of each
    sign.  An exactly zero pivot, which `sytrf` reports with info > 0,
    counts as nonnegative, as a zero eigenvalue does.  The system is
    exactly symmetric (`_system`), so its transposed copy is the same
    matrix F-contiguous, which `sytrf` factors in place.  A u that is not
    finite raises InvalidParameterError and slopes that are not finite
    raise NumericError, before any factorization: `sytrf` reports nothing
    for a NaN matrix."""
    u = _check_dim(op, u)
    if not np.isfinite(u).all():
        raise InvalidParameterError("u is not finite (NaN or inf)")
    slopes = _slopes(op, spec, u)
    if not np.isfinite(slopes).all():
        raise NumericError("Morse index failed: the slopes at u are not "
                           "finite")
    from scipy.linalg import lapack  # here, so only a Morse count pays
    system = _system(op, slopes).T
    lwork = int(lapack.dsytrf_lwork(op.size)[0])
    ldu, ipiv, _ = lapack.dsytrf(system, lwork=lwork, overwrite_a=True)
    pivots = ipiv > 0
    return int(np.count_nonzero(np.diagonal(ldu)[pivots] < 0.0)
               + np.count_nonzero(~pivots) // 2)
