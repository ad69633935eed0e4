"""Right-hand sides f(x, t) with linear growth, their primitives and audits.

A `NonlinearitySpec` holds what the existence theorem uses: f, f_t and the
primitive F (from 0 in t) as callables, the growth data |f| <= a(x) + b|t|,
the slope bounds alpha_lower/alpha_upper and, when known, the range of
difference quotients for the uniqueness condition.  Each constructor states
its family's formulas once: affine m*t + g(x), saturating m*t +
delta*arctan(t) + g(x), bounded_perturbation m*t + c*sin(t) + g(x), and
`custom`, which wraps user code.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (InvalidParameterError, NumericError, UnauditableError,
                     check_count, check_real, clipped_repr)
from .quadrature import ESTIMATE_STEP, estimate, gauss_rule, panel_sum
from .spectral import Spectrum

#: margin of the strict comparison of a slope range with the spectrum
#: (`_place`)
GAP_MARGIN = 1.0e-9

#: slack by which a sampled |f| may exceed the growth bound a(x) + b|t|
#: and still pass the growth audit
GROWTH_SLACK = 1.0e-9

#: points per sign of t in the log grid of the growth audit
GROWTH_T_POINTS = 81

#: largest |t| of that grid
GROWTH_T_MAX = 1.0e6

#: The F fallback: PRIMITIVE_ORDER-point Gauss rules on [0, t 2^-40] and
#: [t 2^-(l+1), t 2^-l], l < 40; it refuses F where orders q and q + 6
#: differ by more than PRIMITIVE_TOL * max(1, |F|).  Order 16 resolves
#: c sin(t) on the panel [t/2, t] up to |t| of about 40.
PRIMITIVE_ORDER = 16
PRIMITIVE_TOL = 1.0e-12
_PRIMITIVE_EDGES = np.concatenate(([0.0], 2.0 ** np.arange(-40.0, 1.0)))


@dataclass(frozen=True)
class SourceProfile:
    """Source-term profile g(x): constant, polynomial, or nodal samples."""

    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __call__(self, x):
        return self.evaluate(np.asarray(x, dtype=float))


def constant_profile(value: float) -> SourceProfile:
    value = check_real("constant profile value", value)
    return SourceProfile(lambda x: np.full_like(x, value))


def polynomial_profile(coeffs) -> SourceProfile:
    coeffs = np.array([check_real("coefficient", c) for c in coeffs])
    check_count("the number of coefficients", coeffs.size, 1)
    return SourceProfile(lambda x: np.polynomial.polynomial.polyval(x, coeffs))


def nodal_profile(x, values) -> SourceProfile:
    x = np.array([check_real("nodal profile x", v) for v in x])
    values = np.array([check_real("nodal profile value", v) for v in values])
    if len(x) != len(values):
        raise InvalidParameterError(
            "nodal profile needs matching x/value lists", "values")
    # np.interp misreads any other x, and fails at first use on no point
    if len(x) < 2 or not np.all(np.diff(x) > 0.0):
        raise InvalidParameterError(
            f"nodal profile x must be 2 or more strictly increasing numbers, "
            f"got {x.tolist()}")
    return SourceProfile(lambda xx: np.interp(xx, x, values))


@dataclass(frozen=True)
class NonlinearitySpec:
    f: Callable = field(repr=False)
    f_t: Callable = field(repr=False)
    F: Callable = field(repr=False)
    # growth data |f| <= a(x) + b|t|
    a_profile: Callable = field(repr=False)
    b: float
    alpha_lower: Callable = field(repr=False)
    alpha_upper: Callable = field(repr=False)
    slope_range: tuple | None = None


def affine(m: float, g: SourceProfile) -> NonlinearitySpec:
    m = check_real("m", m)
    return NonlinearitySpec(
        f=lambda x, t: m * t + g(x),
        f_t=lambda x, t: np.full(np.broadcast(x, t).shape, m),
        F=lambda x, t: m * t * t / 2.0 + g(x) * t,
        a_profile=lambda x: np.abs(g(x)), b=abs(m),
        alpha_lower=constant_profile(m), alpha_upper=constant_profile(m),
        slope_range=(m, m))


def saturating(m: float, delta: float, g: SourceProfile) -> NonlinearitySpec:
    m, delta = check_real("m", m), check_real("delta", delta, 0.0, closed=True)
    return NonlinearitySpec(
        f=lambda x, t: m * t + delta * np.arctan(t) + g(x),
        f_t=lambda x, t: m + delta / (1.0 + t * t),
        F=lambda x, t: (m * t * t / 2.0
                        + delta * (t * np.arctan(t) - np.log1p(t * t) / 2.0)
                        + g(x) * t),
        a_profile=lambda x: np.abs(g(x)) + delta * math.pi / 2.0, b=abs(m),
        alpha_lower=constant_profile(m), alpha_upper=constant_profile(m),
        slope_range=(m, m + delta))


def bounded_perturbation(m: float, c: float, g: SourceProfile) -> NonlinearitySpec:
    m, c = check_real("m", m), check_real("c", c)
    return NonlinearitySpec(
        f=lambda x, t: m * t + c * np.sin(t) + g(x),
        f_t=lambda x, t: m + c * np.cos(t),
        F=lambda x, t: m * t * t / 2.0 + c * (1.0 - np.cos(t)) + g(x) * t,
        a_profile=lambda x: np.abs(g(x)) + abs(c), b=abs(m),
        alpha_lower=constant_profile(m), alpha_upper=constant_profile(m),
        slope_range=(m - abs(c), m + abs(c)))


def custom(f: Callable, a_profile: Callable, b: float,
           alpha_lower: Callable, alpha_upper: Callable,
           slope_range: tuple | None = None, f_t: Callable = None,
           F: Callable = None) -> NonlinearitySpec:
    """Wrap user code for f; a missing f_t is a central difference of f and
    a missing F the Gauss panel rule for f from 0 to t (NumericError where
    it does not resolve f)."""
    b = check_real("b", b, 0.0, closed=True)
    if slope_range is not None:
        pair = ([check_real("slope_range bound", v) for v in slope_range]
                if isinstance(slope_range, (tuple, list)) else [])
        if len(pair) != 2 or not pair[0] <= pair[1]:
            raise InvalidParameterError(
                "slope_range must be None or a pair (lo, hi) with lo <= hi, "
                f"got {clipped_repr(slope_range)}", "slope_range")
        slope_range = tuple(pair)

    def central_difference(x, t):
        eps = 1.0e-6 * np.maximum(1.0, np.abs(t))
        return (eval_f(spec, x, t + eps) - eval_f(spec, x, t - eps)) / (2.0 * eps)

    def primitive(x, t):
        x, t = np.broadcast_arrays(x, t)
        edges = np.multiply.outer(_PRIMITIVE_EDGES, t)
        value, gap = estimate(lambda q: panel_sum(
            lambda tau: eval_f(spec, x[..., None], tau), edges, q),
            PRIMITIVE_ORDER)
        bad = ~(gap <= PRIMITIVE_TOL * np.maximum(1.0, np.abs(value)))
        if bad.any():
            i = np.unravel_index(np.argmax(bad), bad.shape)
            raise NumericError(
                f"primitive quadrature unresolved at (x={x[i]}, t={t[i]}): "
                f"orders {PRIMITIVE_ORDER} and {PRIMITIVE_ORDER + ESTIMATE_STEP} "
                f"differ by {gap[i]:.3e}")
        return value

    spec = NonlinearitySpec(
        f=f, f_t=f_t or central_difference, F=F or primitive,
        a_profile=a_profile, b=b,
        alpha_lower=alpha_lower, alpha_upper=alpha_upper,
        slope_range=slope_range)
    return spec


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _as_float(fn: Callable, x, t) -> np.ndarray:
    return np.asarray(fn(np.asarray(x, dtype=float),
                         np.asarray(t, dtype=float)), dtype=float)


def eval_f(spec: NonlinearitySpec, x, t):
    return _as_float(spec.f, x, t)


def eval_f_t(spec: NonlinearitySpec, x, t):
    """Partial derivative of f in t."""
    return _as_float(spec.f_t, x, t)


def eval_F(spec: NonlinearitySpec, x, t):
    """Primitive of f from 0 in the t variable."""
    return _as_float(spec.F, x, t)


# ---------------------------------------------------------------------------
# audits and classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthReport:
    passed: bool
    worst_slack: float
    worst_x: float
    worst_t: float


def audit_growth(spec: NonlinearitySpec, x_points) -> GrowthReport:
    """Sampled check of |f(x,t)| <= a(x) + b|t| over a log grid in t."""
    x = np.asarray(x_points, dtype=float)
    t_pos = np.concatenate(([0.0], np.logspace(-3.0, math.log10(GROWTH_T_MAX),
                                               GROWTH_T_POINTS)))
    t = np.concatenate((-t_pos[::-1], t_pos))
    xx = x[:, None]
    tt = t[None, :]
    slack = spec.a_profile(xx) + spec.b * np.abs(tt) - np.abs(eval_f(spec, xx, tt))
    idx = np.unravel_index(int(np.argmin(slack)), slack.shape)
    worst = float(slack[idx])
    return GrowthReport(passed=worst >= -GROWTH_SLACK, worst_slack=worst,
                        worst_x=float(x[idx[0]]), worst_t=float(t[idx[1]]))


class Case(enum.Enum):
    COERCIVE = "coercive"
    GAP = "gap"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class CaseClassification:
    """The case of a problem, its gap index k and the slope bounds placed.

    `spectrum` is the spectrum the slopes were placed in, set by `classify`
    only and None from `classify_slopes`; the solvers solve against it.  It
    is left out of `to_dict`, repr and equality, so a classification reads
    and compares by its verdict alone."""

    case: Case
    k: int | None = None
    reason: str | None = None
    alpha_inf: float = math.nan
    alpha_sup: float = math.nan
    spectrum: Spectrum | None = field(default=None, repr=False,
                                      compare=False)

    def to_dict(self) -> dict:
        return {"case": self.case.value, "k": self.k, "reason": self.reason,
                "alpha_inf": self.alpha_inf, "alpha_sup": self.alpha_sup}


def _alpha_bounds(spec: NonlinearitySpec, mesh) -> tuple[float, float]:
    """inf of the lower slope / sup of the upper slope over nodes and
    element Gauss points (the checkable version of an a.e. condition)."""
    xi, _ = gauss_rule(4)
    xg = mesh.nodes[:-1, None] + np.diff(mesh.nodes)[:, None] * xi
    x = np.concatenate((mesh.interior_nodes, xg.ravel()))
    return (float(np.min(spec.alpha_lower(x))),
            float(np.max(spec.alpha_upper(x))))


def _place(lo: float, hi: float, eigenvalues) -> tuple:
    """The one comparison of a slope range [lo, hi] with an ascending
    spectrum: (k, gap, near), `near` the indices of the eigenvalues within
    GAP_MARGIN of the range.  Where none is, k is the gap that holds the
    range, lambda_k + GAP_MARGIN < lo and hi < lambda_{k+1} - GAP_MARGIN,
    and gap its ends (lambda_k, lambda_{k+1}), taking lambda_0 = -inf and
    lambda_{N+1} = +inf (k = 0 is below lambda_1, k = N above the
    spectrum); otherwise k and gap are None."""
    vals = np.asarray(eigenvalues, dtype=float)
    below = vals + GAP_MARGIN < lo
    near = np.flatnonzero(~(below | (hi < vals - GAP_MARGIN)))
    if near.size:
        return None, None, near
    k = int(np.count_nonzero(below))
    return k, (float(vals[k - 1]) if k else -math.inf,
               float(vals[k]) if k < vals.size else math.inf), near


def _near_words(lo: float, hi: float, eigenvalues, near) -> str:
    """How a range [lo, hi] sits at the eigenvalues `near` (indices) that
    `_place` found within GAP_MARGIN of it: "straddles" when one of them
    lies strictly inside the range, else "touches", followed by the names
    of the first three."""
    vals = np.asarray(eigenvalues, dtype=float)[near]
    verb = "straddles" if np.any((lo < vals) & (vals < hi)) else "touches"
    return f"{verb} " + ", ".join(f"lambda_{j}" for j in near[:3] + 1)


def classify_slopes(alpha_inf: float, alpha_sup: float,
                    eigenvalues: np.ndarray) -> CaseClassification:
    """Pure classification from slope bounds against an ascending spectrum,
    read from their one placement (`_place`): gap 0 is coercive, 1 .. N-1
    the gap case; a range above the spectrum is unsupported, and so is one
    near an eigenvalue, whose reason names the first three it is near."""
    bounds = {"alpha_inf": alpha_inf, "alpha_sup": alpha_sup}
    if math.isnan(alpha_inf) or math.isnan(alpha_sup):
        return CaseClassification(Case.UNSUPPORTED,
                                  reason="slope bound is not a number",
                                  **bounds)
    if alpha_sup < alpha_inf:
        return CaseClassification(Case.UNSUPPORTED,
                                  reason="upper slope below lower slope",
                                  **bounds)
    k, _, near = _place(alpha_inf, alpha_sup, eigenvalues)
    if k is None:
        words = _near_words(alpha_inf, alpha_sup, eigenvalues, near)
        return CaseClassification(Case.UNSUPPORTED,
                                  reason=f"slope range {words}", **bounds)
    if k == 0:
        return CaseClassification(Case.COERCIVE, **bounds)
    if k == len(eigenvalues):
        return CaseClassification(Case.UNSUPPORTED,
                                  reason="slopes exceed the computed spectrum",
                                  **bounds)
    return CaseClassification(Case.GAP, k=k, **bounds)


def classify(spec: NonlinearitySpec, spectrum: Spectrum) -> CaseClassification:
    """`classify_slopes` of the spec's slope bounds against `spectrum`, which
    the classification holds."""
    lo, hi = _alpha_bounds(spec, spectrum.op.mesh)
    return dataclasses.replace(classify_slopes(lo, hi, spectrum.eigenvalues),
                               spectrum=spectrum)


@dataclass(frozen=True)
class SlopeGapReport:
    passed: bool
    k: int
    slope_range: tuple
    gap: tuple
    lower_margin: float
    upper_margin: float

    @property
    def inverse_bound(self) -> float | None:
        """C = max(lambda_k / (lo - lambda_k), lambda_{k+1} / (lambda_{k+1}
        - hi)) for a passed check, else None.  Every averaged Hessian
        A - D of f then has lo M <= D <= hi M, so its inverse maps Z* to Z
        with norm at most C, and |u - u*|_Z <= C |g(u)|_{Z*} for the
        solution u* and the gradient g(u) at any u, with
        |g|_{Z*}^2 = g^T A^-1 g = sum_j (e_j^T g)^2 / lambda_j."""
        if not self.passed:
            return None
        (lo, hi), (gap_lo, gap_hi) = self.slope_range, self.gap
        return max(gap_lo / (lo - gap_lo), gap_hi / (gap_hi - hi))

    @property
    def contraction(self) -> float | None:
        """rho = (hi - lo) / (2 min(c - lambda_k, lambda_{k+1} - c)) for a
        passed check, c = (lo + hi) / 2 the midpoint of the slope range,
        else None (`_contraction`).  `verify` reports it; no step reads it,
        since each certified step takes the contraction of its own range,
        which is at most this one on a sub-range of the slope range."""
        if not self.passed:
            return None
        return _contraction(*self.slope_range, *self.gap)


def _contraction(lo: float, hi: float, gap_lo: float, gap_hi: float) -> float:
    """rho = (hi - lo) / (2 min(c - gap_lo, gap_hi - c)), c = (lo + hi) / 2,
    for a slope range [lo, hi] inside the gap (gap_lo, gap_hi), which may
    be -inf or +inf.  A weight W between lo M and hi M has
    |W - c M| <= (hi - lo)/2 M and E^T M E = I, so the symmetrically
    preconditioned |Lambda - c|^-1/2 (Lambda - E^T W E) |Lambda - c|^-1/2
    has its spectrum in +-[1 - rho, 1 + rho]: rho < 1 bounds the MINRES
    iterations of a Newton system in the gap whatever the mesh."""
    shift = 0.5 * (lo + hi)
    return (hi - lo) / (2.0 * min(shift - gap_lo, gap_hi - shift))


def check_f2_gap(spec: NonlinearitySpec, spectrum: Spectrum,
                 k: int) -> SlopeGapReport:
    """Check that all difference quotients of f sit strictly inside the
    k-th spectral gap (the uniqueness condition): it passes when `_place`
    puts the declared slope range in gap k, as `classify` would place it.
    Its two margins are the range's distances to the gap's ends, less
    GAP_MARGIN."""
    if spec.slope_range is None:
        raise UnauditableError(
            "custom nonlinearity with no declared slope range")
    lo, hi = spec.slope_range
    gap_lo, gap_hi = spectrum.gap(k)
    return SlopeGapReport(passed=_place(lo, hi, spectrum.eigenvalues)[0] == k,
                          k=k, slope_range=(lo, hi), gap=(gap_lo, gap_hi),
                          lower_margin=lo - (gap_lo + GAP_MARGIN),
                          upper_margin=(gap_hi - GAP_MARGIN) - hi)
