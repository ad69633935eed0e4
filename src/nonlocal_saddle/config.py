"""JSON run configuration with strict validation and documented defaults.

Unknown keys, malformed lists and non-numbers are refused here; a range
rule is the library's own check, its refusal reported with a
JSON-pointer-style path.  All of this happens before any computation.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import (ConfigError, InvalidParameterError, check_count,
                     check_real, clipped_key, clipped_repr)
from .nonlinearity import nodal_profile
from .solvers import SolverOptions

DEFAULTS = {
    "domain": {"a": -1.0, "b": 1.0},
    "kernel": {"s": 0.5},
    "mesh": {"n_elements": 128},
    "nonlinearity": {"family": "affine", "m": 0.0, "delta": 0.0, "c": 0.0,
                     "g": {"type": "constant", "value": 1.0}},
    "solver": {"starts": 1, "tol": SolverOptions.tol,
               "max_iter": SolverOptions.max_iter, "seed": SolverOptions.seed},
    "output": {"dir": "."},
}


@dataclass(frozen=True)
class RunConfig:
    domain: dict
    kernel: dict
    mesh: dict
    nonlinearity: dict
    solver: dict
    output: dict


@contextmanager
def _at(path: str):
    """Report the library's refusal of a value as a ConfigError at path."""
    try:
        yield
    except InvalidParameterError as exc:
        raise ConfigError(path, str(exc)) from exc


def _require_number(value, path, check=None, name=None, *bounds, **flags):
    """A finite JSON number at path, an integer for check_count, in the
    range that the library's check(name, value, *bounds, **flags) sets."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path,
                          f"expected a number, got {clipped_repr(value)}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf, a huge integer
        raise ConfigError(
            path, f"expected a finite number, got {clipped_repr(value)}")
    integer = check is check_count
    if integer and not float(value).is_integer():
        raise ConfigError(path,
                          f"expected an integer, got {clipped_repr(value)}")
    value = int(value) if integer else float(value)
    if check is None:
        return value
    with _at(path):
        return check(name, value, *bounds, **flags)


def _require_seed(value) -> int:
    """solver.seed, from the config or the --seed override."""
    return _require_number(value, "/solver/seed", check_count, "seed", 0)


def _require_keys(section: dict, allowed, path):
    if not isinstance(section, dict):
        raise ConfigError(path,
                          f"expected an object, got {clipped_repr(section)}")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}/{clipped_key(key)}", "unknown key")


def _merged(section: dict | None, defaults: dict, path: str) -> dict:
    section = {} if section is None else section
    _require_keys(section, defaults.keys(), path)
    out = dict(defaults)
    out.update(section)
    return out


def _validate_g(g: dict, path: str) -> dict:
    if not isinstance(g, dict):
        raise ConfigError(path, f"expected an object, got {clipped_repr(g)}")
    gtype = g.get("type")
    if gtype == "constant":
        _require_keys(g, {"type", "value"}, path)
        return {"type": "constant",
                "value": _require_number(g.get("value", 0.0), f"{path}/value")}
    if gtype == "polynomial":
        _require_keys(g, {"type", "coeffs"}, path)
        coeffs = g.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError(f"{path}/coeffs", "expected a nonempty list")
        return {"type": "polynomial",
                "coeffs": [_require_number(c, f"{path}/coeffs/{i}")
                           for i, c in enumerate(coeffs)]}
    if gtype == "nodal":
        _require_keys(g, {"type", "x", "values"}, path)
        xs = g.get("x")
        vs = g.get("values")
        if not isinstance(xs, list) or not isinstance(vs, list) \
                or len(xs) != len(vs) or len(xs) < 2:
            raise ConfigError(path, "nodal profile needs matching x/values "
                                    "lists of length >= 2")
        xs = [_require_number(v, f"{path}/x/{i}") for i, v in enumerate(xs)]
        vs = [_require_number(v, f"{path}/values/{i}")
              for i, v in enumerate(vs)]
        with _at(f"{path}/x"):
            nodal_profile(xs, vs)
        return {"type": "nodal", "x": xs, "values": vs}
    raise ConfigError(f"{path}/type",
                      f"expected constant|polynomial|nodal, "
                      f"got {clipped_repr(gtype)}")


def validate_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("", "top level must be a JSON object")
    _require_keys(raw, DEFAULTS.keys(), "")

    domain = _merged(raw.get("domain"), DEFAULTS["domain"], "/domain")
    a = _require_number(domain["a"], "/domain/a")
    b = _require_number(domain["b"], "/domain/b")
    with _at("/domain"):
        check_real("b", b, a)
    domain = {"a": a, "b": b}

    kernel = _merged(raw.get("kernel"), DEFAULTS["kernel"], "/kernel")
    kernel = {"s": _require_number(kernel["s"], "/kernel/s",
                                   check_real, "s", 0.0, 1.0)}

    mesh = _merged(raw.get("mesh"), DEFAULTS["mesh"], "/mesh")
    mesh = {"n_elements": _require_number(mesh["n_elements"],
                                          "/mesh/n_elements", check_count,
                                          "n_elements", 2)}

    nl = _merged(raw.get("nonlinearity"), DEFAULTS["nonlinearity"],
                 "/nonlinearity")
    family = nl["family"]
    if family not in ("affine", "saturating", "bounded_perturbation"):
        raise ConfigError("/nonlinearity/family",
                          f"expected affine|saturating|bounded_perturbation, "
                          f"got {clipped_repr(family)}")
    # a parameter the family does not read would be silently dropped
    for key, owner in (("delta", "saturating"), ("c", "bounded_perturbation")):
        if family != owner and key in (raw.get("nonlinearity") or {}):
            raise ConfigError(f"/nonlinearity/{key}",
                              f"only the {owner} family reads {key}, "
                              f"but the family is {family!r}")
    m = _require_number(nl["m"], "/nonlinearity/m")
    delta = _require_number(nl["delta"], "/nonlinearity/delta",
                            check_real, "delta", 0.0, closed=True)
    c = _require_number(nl["c"], "/nonlinearity/c")
    g = _validate_g(nl["g"], "/nonlinearity/g")
    nl = {"family": family, "m": m, "delta": delta, "c": c, "g": g}

    solver = _merged(raw.get("solver"), DEFAULTS["solver"], "/solver")
    tol = _require_number(solver["tol"], "/solver/tol", check_real, "tol", 0.0)
    max_iter = _require_number(solver["max_iter"], "/solver/max_iter",
                               check_count, "max_iter", 1)
    starts = _require_number(solver["starts"], "/solver/starts",
                             check_count, "n_starts", 1)
    solver = {"tol": tol, "max_iter": max_iter,
              "starts": starts, "seed": _require_seed(solver["seed"])}

    output = _merged(raw.get("output"), DEFAULTS["output"], "/output")
    if not isinstance(output["dir"], str):
        raise ConfigError("/output/dir", "expected a string path")

    return RunConfig(domain=domain, kernel=kernel, mesh=mesh, nonlinearity=nl,
                     solver=solver, output=output)


def parse_config(text: str | bytes) -> RunConfig:
    """Validate a config from JSON text, or from the UTF-8 bytes of a file."""
    try:
        raw = json.loads(text.decode("utf-8") if isinstance(text, bytes)
                         else text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"malformed JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
    # not UTF-8, an integer of more digits than int() converts, nesting
    # deeper than the parser recurses (UnicodeDecodeError is a ValueError)
    except (ValueError, RecursionError) as exc:
        raise ConfigError("", f"malformed JSON: {exc}") from exc
    return validate_config(raw)
