"""Admissible interaction kernels and their structural audits.

A kernel K maps nonzero offsets to positive weights.  Two structural
assumptions make the variational framework work: integrability of
min{|x|^2, 1} * K(x) over the whole line, and a fractional lower bound
K(x) >= theta * |x|^(-(1+2s)).  Both are checked numerically here.  The
mesh, the assembly and the closed forms are one-dimensional, so kernels
are too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import AuditInconclusiveError, InvalidParameterError

#: Radius beyond which the far-field integral is extrapolated as a power law.
RADIUS_CAP = 1.0e8

#: Absolute and relative tolerance of the K1 quadratures.
AUDIT_QUAD_TOL = 1.0e-10

#: Number of log-spaced radii in [1e-6, 1e6] at which K2 is sampled.
K2_SAMPLE_COUNT = 64

#: Slack allowed below 1 in the worst K2 ratio.
K2_TOL = 1.0e-9

#: Cap above which the K1 integral is reported as divergent.
K1_INTEGRAL_CAP = 1.0e12


class KernelFamily(enum.Enum):
    FRACTIONAL = "fractional"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Kernel:
    """An even, positive interaction kernel with declared (s, theta).

    For the fractional family, evaluate(z) = |z|^(-(1+2s)) exactly and
    theta = 1 is the equality case of the lower-bound assumption.  Custom
    kernels declare s and theta themselves; the audit checks consistency
    rather than inferring them.
    """

    family: KernelFamily
    s: float
    theta: float
    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    @property
    def singularity_power(self) -> float:
        """Exponent 1 + 2s of the reference singularity."""
        return 1.0 + 2.0 * self.s

    def __call__(self, z):
        return self.evaluate(np.asarray(z, dtype=float))


def make_fractional_kernel(s: float) -> Kernel:
    """The kernel |z|^(-(1+2s)) of the fractional Laplacian of order s."""
    if not 0.0 < s < 1.0:
        raise InvalidParameterError(f"fractional order s must lie in (0,1), got {s}")
    power = 1.0 + 2.0 * s

    def evaluate(z):
        return np.abs(z) ** (-power)

    return Kernel(family=KernelFamily.FRACTIONAL, s=s, theta=1.0,
                  evaluate=evaluate)


def make_custom_kernel(evaluate: Callable, s: float, theta: float) -> Kernel:
    """Wrap user-supplied kernel code with its declared (s, theta)."""
    if not 0.0 < s < 1.0:
        raise InvalidParameterError(f"fractional order s must lie in (0,1), got {s}")
    if theta <= 0.0:
        raise InvalidParameterError(f"theta must be positive, got {theta}")

    def vectorized(z):
        return np.asarray(evaluate(np.asarray(z, dtype=float)), dtype=float)

    return Kernel(family=KernelFamily.CUSTOM, s=s, theta=theta,
                  evaluate=vectorized)


@dataclass(frozen=True)
class KernelAudit:
    """Outcome of checking the two structural kernel assumptions."""

    k1_integral: float
    k1_holds: bool
    k2_holds: bool
    k2_worst_ratio: float

    @property
    def passed(self) -> bool:
        return self.k1_holds and self.k2_holds


def far_field_exponent(kernel: Kernel, radius: float) -> float:
    """Local power-law decay exponent p with K ~ C r^-p near `radius`."""
    k1 = float(kernel(np.array([radius]))[0])
    k2 = float(kernel(np.array([2.0 * radius]))[0])
    if k2 <= 0.0 or k1 <= 0.0:
        raise AuditInconclusiveError("kernel non-positive at far-field samples")
    return math.log(k1 / k2) / math.log(2.0)


def far_field_tail(kernel: Kernel, radius: float) -> float:
    """Integral of K over (radius, inf) assuming power-law decay at `radius`.

    Returns +inf when the fitted exponent does not decay fast enough.
    """
    p = far_field_exponent(kernel, radius)
    if p <= 1.0 + 1.0e-6:
        return math.inf
    return float(kernel(np.array([radius]))[0]) * radius / (p - 1.0)


def _quad_checked(f, lo, hi, tol):
    value, err, info, *rest = quad(f, lo, hi, epsabs=tol, epsrel=tol,
                                   limit=200, full_output=True)
    if rest:  # a warning message was produced
        raise AuditInconclusiveError(
            f"quadrature did not converge on [{lo}, {hi}]: {rest[0]}")
    return value


def audit_kernel(kernel: Kernel) -> KernelAudit:
    """Check integrability of m*K (K1) and the fractional lower bound (K2).

    The K1 integral (with weight m(x) = min{|x|^2, 1}) is split at |x| = 1:
    the inner part carries the weight |x|^2 against the singularity, the
    outer part is integrated up to RADIUS_CAP and closed with a power-law
    tail extrapolation.  K2 is sampled at log-spaced radii in [1e-6, 1e6];
    the worst ratio K(x) |x|^(1+2s) / theta is reported so margins are
    visible.
    """

    def inner(x):
        return x * x * kernel(x)

    inner_val = _quad_checked(inner, 0.0, 1.0, AUDIT_QUAD_TOL)

    tail = far_field_tail(kernel, RADIUS_CAP)
    if math.isinf(tail):
        k1_integral = math.inf
    else:
        # decade-by-decade so quad is not asked to resolve eight orders of
        # magnitude in one call
        outer_val = 0.0
        lo = 1.0
        while lo < RADIUS_CAP:
            hi = min(lo * 10.0, RADIUS_CAP)
            outer_val += _quad_checked(lambda x: kernel(x), lo, hi,
                                       AUDIT_QUAD_TOL)
            lo = hi
        k1_integral = 2.0 * (inner_val + outer_val + tail)
    k1_holds = math.isfinite(k1_integral) and k1_integral < K1_INTEGRAL_CAP

    radii = np.logspace(-6.0, 6.0, K2_SAMPLE_COUNT)
    values = kernel(radii)
    if np.any(values <= 0.0):
        raise AuditInconclusiveError("kernel non-positive at a sampled radius")
    ratios = values * radii ** kernel.singularity_power / kernel.theta
    k2_worst = float(np.min(ratios))
    k2_holds = k2_worst >= 1.0 - K2_TOL

    return KernelAudit(k1_integral=k1_integral, k1_holds=k1_holds,
                       k2_holds=k2_holds, k2_worst_ratio=k2_worst)


def fractional_k1_closed_form(s: float) -> float:
    """Closed form of the K1 integral for |z|^(-(1+2s))."""
    return 2.0 / (2.0 - 2.0 * s) + 2.0 / (2.0 * s)
