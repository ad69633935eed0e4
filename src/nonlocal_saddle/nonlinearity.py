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

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, NumericError, UnauditableError
from .quadrature import ESTIMATE_STEP, estimate, gauss_rule, panel_sum
from .spectral import Spectrum

#: margin used for strict spectral-gap comparisons
GAP_MARGIN = 1.0e-9

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
    value = float(value)
    return SourceProfile(lambda x: np.full_like(x, value))


def polynomial_profile(coeffs) -> SourceProfile:
    coeffs = np.array([float(c) for c in coeffs])
    return SourceProfile(lambda x: np.polynomial.polynomial.polyval(x, coeffs))


def nodal_profile(x, values) -> SourceProfile:
    x = np.array([float(v) for v in x])
    values = np.array([float(v) for v in values])
    if len(x) != len(values):
        raise InvalidParameterError("nodal profile needs matching x/value lists")
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
    m = float(m)
    return NonlinearitySpec(
        f=lambda x, t: m * t + g(x),
        f_t=lambda x, t: np.full(np.broadcast(x, t).shape, m),
        F=lambda x, t: m * t * t / 2.0 + g(x) * t,
        a_profile=lambda x: np.abs(g(x)), b=abs(m),
        alpha_lower=constant_profile(m), alpha_upper=constant_profile(m),
        slope_range=(m, m))


def saturating(m: float, delta: float, g: SourceProfile) -> NonlinearitySpec:
    if delta < 0.0:
        raise InvalidParameterError(f"delta must be nonnegative, got {delta}")
    m, delta = float(m), float(delta)
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
    m, c = float(m), float(c)
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
    if b < 0.0:
        raise InvalidParameterError(f"growth slope b must be >= 0, got {b}")

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
        a_profile=a_profile, b=float(b),
        alpha_lower=alpha_lower, alpha_upper=alpha_upper,
        slope_range=tuple(slope_range) if slope_range else None)
    return spec


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_f(spec: NonlinearitySpec, x, t):
    return np.asarray(spec.f(np.asarray(x, dtype=float),
                             np.asarray(t, dtype=float)), dtype=float)


def eval_f_t(spec: NonlinearitySpec, x, t):
    """Partial derivative of f in t."""
    return np.asarray(spec.f_t(np.asarray(x, dtype=float),
                               np.asarray(t, dtype=float)), dtype=float)


def eval_F(spec: NonlinearitySpec, x, t):
    """Primitive of f from 0 in the t variable."""
    return np.asarray(spec.F(np.asarray(x, dtype=float),
                             np.asarray(t, dtype=float)), dtype=float)


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
    return GrowthReport(passed=worst >= -GAP_MARGIN, worst_slack=worst,
                        worst_x=float(x[idx[0]]), worst_t=float(t[idx[1]]))


class Case(enum.Enum):
    COERCIVE = "coercive"
    GAP = "gap"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class CaseClassification:
    case: Case
    k: int | None = None
    reason: str | None = None
    alpha_inf: float = math.nan
    alpha_sup: float = math.nan

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


def _clear_of(lo: float, hi: float, eigenvalues) -> tuple:
    """Masks of the eigenvalues more than GAP_MARGIN below / above [lo, hi]."""
    vals = np.asarray(eigenvalues, dtype=float)
    return vals + GAP_MARGIN < lo, hi < vals - GAP_MARGIN


def _gap_index(lo: float, hi: float, eigenvalues) -> int | None:
    """The one nonresonance rule: the k with lambda_k + GAP_MARGIN < lo and
    hi < lambda_{k+1} - GAP_MARGIN in an ascending spectrum, taking
    lambda_0 = -inf and lambda_{N+1} = +inf (k = 0 is below lambda_1, k = N
    above the spectrum); None when an eigenvalue lies within GAP_MARGIN of
    [lo, hi]."""
    below, above = _clear_of(lo, hi, eigenvalues)
    if np.all(below | above):
        return int(np.count_nonzero(below))
    return None


def classify_slopes(alpha_inf: float, alpha_sup: float,
                    eigenvalues: np.ndarray) -> CaseClassification:
    """Pure classification from slope bounds against an ascending spectrum:
    `_gap_index` 0 is coercive, 1 .. N-1 the gap case; a range near an
    eigenvalue or above the spectrum is unsupported."""
    bounds = {"alpha_inf": alpha_inf, "alpha_sup": alpha_sup}
    if alpha_sup < alpha_inf:
        return CaseClassification(Case.UNSUPPORTED,
                                  reason="upper slope below lower slope",
                                  **bounds)
    k = _gap_index(alpha_inf, alpha_sup, eigenvalues)
    if k is None:
        below, above = _clear_of(alpha_inf, alpha_sup, eigenvalues)
        straddled = np.flatnonzero(~(below | above))[:3] + 1
        names = ", ".join(f"lambda_{j}" for j in straddled)
        return CaseClassification(Case.UNSUPPORTED,
                                  reason=f"slope range straddles {names}",
                                  **bounds)
    if k == 0:
        return CaseClassification(Case.COERCIVE, **bounds)
    if k == len(eigenvalues):
        return CaseClassification(Case.UNSUPPORTED,
                                  reason="slopes exceed the computed spectrum",
                                  **bounds)
    return CaseClassification(Case.GAP, k=k, **bounds)


def classify(spec: NonlinearitySpec, spectrum: Spectrum) -> CaseClassification:
    lo, hi = _alpha_bounds(spec, spectrum.op.mesh)
    return classify_slopes(lo, hi, spectrum.eigenvalues)


@dataclass(frozen=True)
class SlopeGapReport:
    passed: bool
    k: int
    slope_range: tuple
    gap: tuple
    lower_margin: float
    upper_margin: float


def check_f2_gap(spec: NonlinearitySpec, spectrum: Spectrum,
                 k: int) -> SlopeGapReport:
    """Check that all difference quotients of f sit strictly inside the
    k-th spectral gap (the uniqueness condition): `_gap_index` places the
    declared slope range in gap k, as `classify` would place it."""
    if spec.slope_range is None:
        raise UnauditableError(
            "custom nonlinearity with no declared slope range")
    lo, hi = spec.slope_range
    gap_lo, gap_hi = spectrum.gap(k)
    return SlopeGapReport(passed=_gap_index(lo, hi, spectrum.eigenvalues) == k,
                          k=k, slope_range=(lo, hi), gap=(gap_lo, gap_hi),
                          lower_margin=lo - (gap_lo + GAP_MARGIN),
                          upper_margin=(gap_hi - GAP_MARGIN) - hi)
