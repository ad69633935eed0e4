"""Admissible interaction kernels and their structural audits.

A kernel K maps nonzero offsets to positive weights.  Two structural
assumptions make the variational framework work: integrability of
min{|x|^2, 1} * K(x) over the whole line, and a fractional lower bound
K(x) >= theta * |x|^(-(1+2s)).  Both are checked numerically here, with
the radial integrals of K that the assembly uses too.  The mesh, the
assembly and the closed forms are one-dimensional, so kernels are too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AuditInconclusiveError, check_real
from .quadrature import (ESTIMATE_STEP, GAUSS_ORDER, estimate,
                         integrate_graded_zero, panel_sum)

#: Radius beyond which the far-field integral is extrapolated as a power law.
RADIUS_CAP = 1.0e8

#: Largest gap between the K1 integral at Gauss orders q and q + 6, relative
#: to max(1, K1), that the audit accepts.
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
    s = check_real("s", s, 0.0, 1.0)
    power = 1.0 + 2.0 * s

    def evaluate(z):
        return np.abs(z) ** (-power)

    return Kernel(family=KernelFamily.FRACTIONAL, s=s, theta=1.0,
                  evaluate=evaluate)


def make_custom_kernel(evaluate: Callable, s: float, theta: float) -> Kernel:
    """Wrap user-supplied kernel code with its declared (s, theta)."""
    s = check_real("s", s, 0.0, 1.0)
    theta = check_real("theta", theta, 0.0)

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


def far_field_tail(kernel: Kernel, radius: float) -> float:
    """Integral of K over (radius, inf) for the power law K ~ C r^-p fitted
    at radius and 2 radius; +inf when p does not decay fast enough."""
    k1, k2 = (float(v) for v in kernel(np.array([radius, 2.0 * radius])))
    if k2 <= 0.0 or k1 <= 0.0:
        raise AuditInconclusiveError("kernel non-positive at far-field samples")
    p = math.log(k1 / k2) / math.log(2.0)
    return math.inf if p <= 1.0 + 1.0e-6 else k1 * radius / (p - 1.0)


def radial_moment(kernel: Kernel, r: float, power: int, order: int) -> float:
    """int_0^r t^power K(t) dt, from graded Gauss panels toward 0."""
    if kernel.family is KernelFamily.FRACTIONAL:
        p = power - 2.0 * kernel.s
        return r ** p / p
    return integrate_graded_zero(lambda t: t ** power * kernel(t), r, order)


def upper_integral(kernel: Kernel, lower, order: int):
    """int_lower^inf K for lower > 0, a float or an array of them.

    Custom kernels take Gauss panels [r, 2r] from `lower` up to RADIUS_CAP
    (the last one cut there) and the power-law far field beyond it; +inf
    when the far field does not decay.
    """
    if kernel.family is KernelFamily.FRACTIONAL:
        return lower ** (-2.0 * kernel.s) / (2.0 * kernel.s)
    levels = math.ceil(math.log2(RADIUS_CAP / np.min(lower)))
    edges = np.minimum(np.multiply.outer(2.0 ** np.arange(levels + 1), lower),
                       RADIUS_CAP)
    return panel_sum(kernel, edges, order) + far_field_tail(kernel, RADIUS_CAP)


def audit_kernel(kernel: Kernel) -> KernelAudit:
    """Check integrability of m*K (K1) and the fractional lower bound (K2).

    K1, with weight m(x) = min{|x|^2, 1}, is 2 (int_0^1 t^2 K + int_1^inf K):
    closed forms for the fractional family, Gauss panels otherwise, where a
    gap between orders q and q + 6 above AUDIT_QUAD_TOL * max(1, K1) raises
    AuditInconclusiveError.  K2 is sampled at log-spaced radii in
    [1e-6, 1e6]; the worst ratio K(x) |x|^(1+2s) / theta is reported so
    margins are visible.
    """

    def k1(order):
        return 2.0 * float(radial_moment(kernel, 1.0, 2, order)
                           + upper_integral(kernel, 1.0, order))

    k1_integral, gap = estimate(k1, GAUSS_ORDER)
    if math.isfinite(k1_integral) and not (
            gap <= AUDIT_QUAD_TOL * max(1.0, abs(k1_integral))):
        raise AuditInconclusiveError(
            f"K1 integral {k1_integral!r} unresolved: orders {GAUSS_ORDER} "
            f"and {GAUSS_ORDER + ESTIMATE_STEP} differ by {gap:.3e}")
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
