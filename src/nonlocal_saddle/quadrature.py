"""Gauss-Legendre rules and graded panel quadrature for weakly singular integrands."""

import math
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError

#: Panels of the graded rule toward the origin, and their width ratio.
GRADED_LEVELS = 80
GRADED_RATIO = 0.5


@lru_cache(maxsize=64)
def gauss_rule(order: int):
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [0, 1]."""
    if order < 1:
        raise InvalidParameterError("Gauss order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


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
    edges = upper * GRADED_RATIO ** np.arange(GRADED_LEVELS + 1)
    lo, width = edges[1:, None], (edges[:-1] - edges[1:])[:, None]
    x, w = gauss_rule(order)
    total = float(np.sum(width * w * f(lo + width * x)))
    eps = edges[-1]
    f_eps, f_2eps = f(np.array([eps, 2.0 * eps]))
    if f_eps > 0.0 and f_2eps > 0.0:
        alpha = math.log2(f_2eps / f_eps)
        if alpha > -1.0:
            total += eps * f_eps / (alpha + 1.0)
    return total
