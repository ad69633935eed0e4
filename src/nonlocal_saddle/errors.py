"""Exceptions shared across the package, and its two argument checks.

A refusal by `check_count` or `check_real` names the refused argument
(`InvalidParameterError.name`), so that a caller which passed several
values, such as the config, can tell which one was refused.
"""

import math
import numbers
import reprlib
import sys

_CLIP = reprlib.Repr()
_CLIP.maxlevel = 1
_CLIP.maxlist = _CLIP.maxtuple = 4
_CLIP.maxdict = 3
_CLIP.maxstring = _CLIP.maxlong = 32
_CLIP.maxother = 40


def clipped_repr(value) -> str:
    """repr(value) for an error line, clipped in depth and in the length of
    each string, integer and container, so that a huge value cannot flood
    the line."""
    return _CLIP.repr(value)


def clipped_key(key: str) -> str:
    """An object key for a config path, clipped as `clipped_repr` clips a
    string but without its quotes: a key of at most _CLIP.maxstring
    characters is returned as it is."""
    if len(key) <= _CLIP.maxstring:
        return key
    head = (_CLIP.maxstring - 3) // 2
    return key[:head] + "..." + key[len(key) - (_CLIP.maxstring - 3 - head):]


class NonlocalSaddleError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(NonlocalSaddleError, ValueError):
    """A precondition on an argument was violated; `name` is the refused
    argument's, when the check that refused it knows it."""

    def __init__(self, message: str, name: str | None = None):
        self.name = name
        super().__init__(message)


def check_count(name: str, value, low: int, high: int | None = None) -> int:
    """Return `value` if it is an integer, never a bool, in [low, high)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not low <= value < (math.inf if high is None else high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise InvalidParameterError(
            f"{name} must be an integer {bound}, got {clipped_repr(value)}",
            name)
    return value


def check_real(name: str, value, low: float = -math.inf,
               high: float = math.inf, closed: bool = False) -> float:
    """Return `value` as a float if it is a finite real, never a bool, in
    (low, high), or in [low, high) when `closed` is set."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max  # NaN, inf, a huge int
            or not (low <= value if closed else low < value) or value >= high):
        raise InvalidParameterError(
            f"{name} must be a finite number in {'[' if closed else '('}"
            f"{low}, {high}), got {clipped_repr(value)}", name)
    return float(value)


class ConfigError(NonlocalSaddleError, ValueError):
    """Configuration parsing or validation failure.

    Carries a JSON-pointer-style path to the offending entry.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path or '/'}: {message}")


class AuditInconclusiveError(NonlocalSaddleError):
    """Quadrature in a kernel audit did not converge within budget."""


class AuditFailedError(NonlocalSaddleError):
    """A kernel failed its structural audit, so it cannot be assembled."""


class AssemblyAccuracyError(NonlocalSaddleError):
    """Estimated quadrature error exceeds the assembly tolerance."""

    def __init__(self, worst_entry, estimate, tol):
        self.worst_entry = worst_entry
        self.estimate = estimate
        self.tol = tol
        super().__init__(
            f"assembly quadrature error {estimate:.3e} at entry {worst_entry} "
            f"exceeds tolerance {tol:.3e}"
        )


class AssemblyCorruptionError(NonlocalSaddleError):
    """An assembled matrix lost a structural property (e.g. M not SPD)."""


class NumericError(NonlocalSaddleError):
    """Numerical failure: unresolved quadrature, a failed LAPACK call, a
    non-finite Newton iterate, or a Newton step whose slopes lie in no gap
    and whose MINRES misses its tolerance or its system, as a singular
    Hessian makes it."""


class ResonanceError(NonlocalSaddleError, ValueError):
    """A slope profile touches or straddles an eigenvalue."""


class NonResonanceContradictionError(NonlocalSaddleError):
    """A Newton step solved by MINRES in a spectral gap failed its checks.

    The gap was placed by the iterate's own slopes or by the weight of a
    linear solve.  A certified step whose slopes leave the certificate's
    gap, a step whose MINRES misses its tolerance within its budget, or
    one that misses its system signals a slope range that f_t does not
    keep or an assembly or spectrum bug rather than a user error.
    """


class UnauditableError(NonlocalSaddleError, ValueError):
    """A custom nonlinearity lacks the declarations needed for an audit."""


class EigenClusterError(InvalidParameterError):
    """A head/tail split was requested inside a numerically repeated cluster."""


class UnsupportedCaseError(NonlocalSaddleError):
    """The slope hypotheses place the problem outside both solvable cases."""

    def __init__(self, classification):
        self.classification = classification
        reason = classification.reason or (
            f"problem is classified {classification.case.value}, "
            f"which this solver does not handle")
        super().__init__(f"hypothesis gate refused: {reason}")


class NonConvergenceError(NonlocalSaddleError):
    """An iterative solve exhausted its iteration budget."""

    def __init__(self, message, trace=None):
        self.trace = trace or []
        super().__init__(message)
