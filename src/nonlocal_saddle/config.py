"""JSON run configuration with strict validation and documented defaults.

Unknown keys are rejected; violations of module preconditions are reported
with a JSON-pointer-style path before any computation starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ConfigError

DEFAULTS = {
    "domain": {"a": -1.0, "b": 1.0},
    "kernel": {"family": "fractional", "s": 0.5, "theta": 1.0},
    "mesh": {"n_elements": 128},
    "quadrature": {"order": 8, "assembly_tol": 1.0e-8},
    "nonlinearity": {"family": "affine", "m": 0.0, "delta": 0.0, "c": 0.0,
                     "g": {"type": "constant", "value": 1.0}},
    "solver": {"mode": "auto", "tol": 1.0e-9, "max_iter": 200, "starts": 1,
               "seed": 42},
    "output": {"dir": "."},
}


@dataclass(frozen=True)
class RunConfig:
    domain: dict
    kernel: dict
    mesh: dict
    quadrature: dict
    nonlinearity: dict
    solver: dict
    output: dict


def _require_number(value, path, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    if integer and not float(value).is_integer():
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return int(value) if integer else float(value)


def _require_seed(value) -> int:
    """solver.seed, from the config or the --seed override."""
    seed = _require_number(value, "/solver/seed", integer=True)
    if seed < 0:
        raise ConfigError("/solver/seed", f"must be >= 0, got {seed}")
    return seed


def _require_keys(section: dict, allowed, path):
    if not isinstance(section, dict):
        raise ConfigError(path, f"expected an object, got {section!r}")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}/{key}", "unknown key")


def _merged(section: dict | None, defaults: dict, path: str) -> dict:
    section = {} if section is None else section
    _require_keys(section, defaults.keys(), path)
    out = dict(defaults)
    out.update(section)
    return out


def _validate_g(g: dict, path: str) -> dict:
    if not isinstance(g, dict):
        raise ConfigError(path, f"expected an object, got {g!r}")
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
        return {"type": "nodal",
                "x": [_require_number(v, f"{path}/x/{i}")
                      for i, v in enumerate(xs)],
                "values": [_require_number(v, f"{path}/values/{i}")
                           for i, v in enumerate(vs)]}
    raise ConfigError(f"{path}/type",
                      f"expected constant|polynomial|nodal, got {gtype!r}")


def validate_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("", "top level must be a JSON object")
    _require_keys(raw, DEFAULTS.keys(), "")

    domain = _merged(raw.get("domain"), DEFAULTS["domain"], "/domain")
    a = _require_number(domain["a"], "/domain/a")
    b = _require_number(domain["b"], "/domain/b")
    if not a < b:
        raise ConfigError("/domain", f"need a < b, got a={a}, b={b}")
    domain = {"a": a, "b": b}

    kernel = _merged(raw.get("kernel"), DEFAULTS["kernel"], "/kernel")
    if kernel["family"] != "fractional":
        raise ConfigError("/kernel/family",
                          f"only 'fractional' is configurable, "
                          f"got {kernel['family']!r} (custom kernels are "
                          f"constructed in code)")
    s = _require_number(kernel["s"], "/kernel/s")
    if not 0.0 < s < 1.0:
        raise ConfigError("/kernel/s", f"must lie in (0, 1), got {s}")
    theta = _require_number(kernel["theta"], "/kernel/theta")
    if theta <= 0.0:
        raise ConfigError("/kernel/theta", f"must be positive, got {theta}")
    if theta > 1.0:
        # the fractional kernel itself cannot dominate theta/|z|^(1+2s)
        # with theta > 1, so the lower-bound audit would always fail
        raise ConfigError("/kernel/theta",
                          f"must be at most 1 for the fractional family, "
                          f"got {theta}")
    kernel = {"family": "fractional", "s": s, "theta": theta}

    mesh = _merged(raw.get("mesh"), DEFAULTS["mesh"], "/mesh")
    n_el = _require_number(mesh["n_elements"], "/mesh/n_elements", integer=True)
    if n_el < 2:
        raise ConfigError("/mesh/n_elements", f"must be >= 2, got {n_el}")
    mesh = {"n_elements": n_el}

    quadrature = _merged(raw.get("quadrature"), DEFAULTS["quadrature"],
                         "/quadrature")
    order = _require_number(quadrature["order"], "/quadrature/order",
                            integer=True)
    if order < 3:
        raise ConfigError("/quadrature/order", f"must be >= 3, got {order}")
    atol = _require_number(quadrature["assembly_tol"],
                           "/quadrature/assembly_tol")
    if atol <= 0.0:
        raise ConfigError("/quadrature/assembly_tol",
                          f"must be positive, got {atol}")
    quadrature = {"order": order, "assembly_tol": atol}

    nl = _merged(raw.get("nonlinearity"), DEFAULTS["nonlinearity"],
                 "/nonlinearity")
    family = nl["family"]
    if family not in ("affine", "saturating", "bounded_perturbation"):
        raise ConfigError("/nonlinearity/family",
                          f"expected affine|saturating|bounded_perturbation, "
                          f"got {family!r}")
    # a parameter the family does not read would be silently dropped
    for key, owner in (("delta", "saturating"), ("c", "bounded_perturbation")):
        if family != owner and key in (raw.get("nonlinearity") or {}):
            raise ConfigError(f"/nonlinearity/{key}",
                              f"only the {owner} family reads {key}, "
                              f"but the family is {family!r}")
    m = _require_number(nl["m"], "/nonlinearity/m")
    delta = _require_number(nl["delta"], "/nonlinearity/delta")
    c = _require_number(nl["c"], "/nonlinearity/c")
    if family == "saturating" and delta < 0.0:
        raise ConfigError("/nonlinearity/delta",
                          f"must be >= 0, got {delta}")
    g = _validate_g(nl["g"], "/nonlinearity/g")
    nl = {"family": family, "m": m, "delta": delta, "c": c, "g": g}

    solver = _merged(raw.get("solver"), DEFAULTS["solver"], "/solver")
    if solver["mode"] not in ("auto", "case_a", "case_b"):
        raise ConfigError("/solver/mode",
                          f"expected auto|case_a|case_b, got {solver['mode']!r}")
    tol = _require_number(solver["tol"], "/solver/tol")
    if tol <= 0.0:
        raise ConfigError("/solver/tol", f"must be positive, got {tol}")
    max_iter = _require_number(solver["max_iter"], "/solver/max_iter",
                               integer=True)
    if max_iter < 1:
        raise ConfigError("/solver/max_iter", f"must be >= 1, got {max_iter}")
    starts = _require_number(solver["starts"], "/solver/starts", integer=True)
    if starts < 1:
        raise ConfigError("/solver/starts", f"must be >= 1, got {starts}")
    solver = {"mode": solver["mode"], "tol": tol, "max_iter": max_iter,
              "starts": starts, "seed": _require_seed(solver["seed"])}

    output = _merged(raw.get("output"), DEFAULTS["output"], "/output")
    if not isinstance(output["dir"], str):
        raise ConfigError("/output/dir", "expected a string path")

    return RunConfig(domain=domain, kernel=kernel, mesh=mesh,
                     quadrature=quadrature, nonlinearity=nl, solver=solver,
                     output=output)


def parse_config(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"malformed JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
    return validate_config(raw)
