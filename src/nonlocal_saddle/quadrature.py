"""Gauss-Legendre rules on geometric panels, the package's one quadrature;
the error estimate of a rule at order q is its difference from order q + 6."""

import math
from functools import lru_cache

import numpy as np

from .errors import check_count

#: Default Gauss order, and the step to the order that estimates its error.
GAUSS_ORDER = 8
ESTIMATE_STEP = 6

#: Panels of the graded rule toward the origin, and their width ratio.
GRADED_LEVELS = 80
GRADED_RATIO = 0.5


@lru_cache(maxsize=64)
def gauss_rule(order: int):
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [0, 1]."""
    check_count("Gauss order", order, 1)
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


def panel_sum(f, edges, order: int):
    """Sum over l of the `order`-point Gauss rules on [edges[l], edges[l+1]].

    edges has shape (L + 1,) + S and the result shape S; f is called once
    per l on nodes of shape S + (order,), so memory does not grow with L.
    Backward panels give signed integrals, zero-width panels add nothing.
    """
    x, w = gauss_rule(order)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        width = np.asarray(hi - lo)[..., None]
        total = total + np.sum(width * w * f(np.asarray(lo)[..., None]
                                             + width * x), axis=-1)
    return total


def estimate(rule, order: int):
    """rule(order) and its error estimate |rule(order) - rule(order + 6)|."""
    value = rule(order)
    return value, np.abs(value - rule(order + ESTIMATE_STEP))


def integrate_graded_zero(f, upper: float, order: int) -> float:
    """Integrate f over (0, upper] with geometric grading toward the origin.

    Intended for integrands with an integrable algebraic singularity (or a
    fractional-power zero) at 0.  Each panel [upper r^(l+1), upper r^l],
    l < GRADED_LEVELS, r = GRADED_RATIO, sees the origin at the same
    relative distance, so one Gauss rule per panel converges at the same
    rate for any exponent; at r = 1/2 the order-8 rule is good to 1e-12
    relative or better on t^alpha, alpha > -1.  The leftover (0, eps],
    eps = upper r^GRADED_LEVELS, is closed with the power law f ~ t^alpha
    fitted at eps and 2 eps; a divergent fit (alpha <= -1) is left open.
    """
    edges = upper * GRADED_RATIO ** np.arange(GRADED_LEVELS, -1, -1.0)
    total = float(panel_sum(f, edges, order))
    eps = edges[0]
    f_eps, f_2eps = f(np.array([eps, 2.0 * eps]))
    if f_eps > 0.0 and f_2eps > 0.0:
        alpha = math.log2(f_2eps / f_eps)
        if alpha > -1.0:
            total += eps * f_eps / (alpha + 1.0)
    return total
