"""JSON run configuration, parsed straight into the run's objects.

`validate_config` refuses unknown keys, malformed lists and non-numbers,
then builds the kernel, the mesh, the nonlinearity spec (one `FAMILIES`
table) and the `SolverOptions` with the library's own constructors.  So
every range rule is the constructor's: its refusal is reported at the
JSON-pointer-style path of the refused value.  All of this happens before
any computation.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import nonlinearity as nl
from .errors import (ConfigError, InvalidParameterError, check_count,
                     clipped_key, clipped_repr)
from .kernels import Kernel, make_fractional_kernel
from .meshing import Mesh, build_uniform_mesh
from .solvers import SolverOptions

#: each nonlinearity family: its constructor and the parameters it reads
#: besides m and g
FAMILIES = {
    "affine": (nl.affine, ()),
    "saturating": (nl.saturating, ("delta",)),
    "bounded_perturbation": (nl.bounded_perturbation, ("c",)),
}

DEFAULTS = {
    "domain": {"a": -1.0, "b": 1.0},
    "kernel": {"s": 0.5},
    "mesh": {"n_elements": 128},
    "nonlinearity": {"family": "affine", "m": 0.0,
                     **{key: 0.0 for _, params in FAMILIES.values()
                        for key in params},
                     "g": {"type": "constant", "value": 1.0}},
    "solver": {"starts": 1, "tol": SolverOptions.tol,
               "max_iter": SolverOptions.max_iter, "seed": SolverOptions.seed},
    "output": {"dir": "."},
}


@dataclass(frozen=True)
class RunConfig:
    kernel: Kernel
    mesh: Mesh
    spec: nl.NonlinearitySpec
    opts: SolverOptions
    starts: int
    out_dir: Path


@contextmanager
def _at(path: str, **paths_by_name):
    """Report the library's refusal of a value as a ConfigError at the path
    of the refused argument's name, or at path."""
    try:
        yield
    except InvalidParameterError as exc:
        raise ConfigError(paths_by_name.get(exc.name, path), str(exc)) \
            from exc


def _require_number(value, path, integer=False):
    """A finite JSON number at path: an int if `integer`, else a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path,
                          f"expected a number, got {clipped_repr(value)}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf, a huge integer
        raise ConfigError(
            path, f"expected a finite number, got {clipped_repr(value)}")
    if integer and not float(value).is_integer():
        raise ConfigError(path,
                          f"expected an integer, got {clipped_repr(value)}")
    return int(value) if integer else float(value)


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


def _source_profile(g: dict, path: str) -> nl.SourceProfile:
    if not isinstance(g, dict):
        raise ConfigError(path, f"expected an object, got {clipped_repr(g)}")
    gtype = g.get("type")
    if gtype == "constant":
        _require_keys(g, {"type", "value"}, path)
        with _at(f"{path}/value"):
            return nl.constant_profile(
                _require_number(g.get("value", 0.0), f"{path}/value"))
    if gtype == "polynomial":
        _require_keys(g, {"type", "coeffs"}, path)
        coeffs = g.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError(f"{path}/coeffs", "expected a nonempty list")
        with _at(f"{path}/coeffs"):
            return nl.polynomial_profile(
                [_require_number(c, f"{path}/coeffs/{i}")
                 for i, c in enumerate(coeffs)])
    if gtype == "nodal":
        _require_keys(g, {"type", "x", "values"}, path)
        xs = g.get("x")
        vs = g.get("values")
        if not isinstance(xs, list) or not isinstance(vs, list):
            raise ConfigError(path, "nodal profile needs x and values lists")
        xs = [_require_number(v, f"{path}/x/{i}") for i, v in enumerate(xs)]
        vs = [_require_number(v, f"{path}/values/{i}")
              for i, v in enumerate(vs)]
        with _at(f"{path}/x", values=f"{path}/values"):
            return nl.nodal_profile(xs, vs)
    raise ConfigError(f"{path}/type",
                      f"expected constant|polynomial|nodal, "
                      f"got {clipped_repr(gtype)}")


def _nonlinearity(given: dict | None) -> nl.NonlinearitySpec:
    section = _merged(given, DEFAULTS["nonlinearity"], "/nonlinearity")
    family = section["family"]
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError("/nonlinearity/family",
                          f"expected {'|'.join(FAMILIES)}, "
                          f"got {clipped_repr(family)}")
    build, params = FAMILIES[family]
    # a parameter the family does not read would be silently dropped
    for owner, (_, owned) in FAMILIES.items():
        for key in owned:
            if family != owner and key in (given or {}):
                raise ConfigError(f"/nonlinearity/{key}",
                                  f"only the {owner} family reads {key}, "
                                  f"but the family is {family!r}")
    keys = ("m", *params)
    args = [_require_number(section[key], f"/nonlinearity/{key}")
            for key in keys]
    g = _source_profile(section["g"], "/nonlinearity/g")
    with _at("/nonlinearity", **{key: f"/nonlinearity/{key}" for key in keys}):
        return build(*args, g)


def validate_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("", "top level must be a JSON object")
    _require_keys(raw, DEFAULTS.keys(), "")

    domain = _merged(raw.get("domain"), DEFAULTS["domain"], "/domain")
    a = _require_number(domain["a"], "/domain/a")
    b = _require_number(domain["b"], "/domain/b")

    kernel = _merged(raw.get("kernel"), DEFAULTS["kernel"], "/kernel")
    s = _require_number(kernel["s"], "/kernel/s")
    with _at("/kernel/s"):
        kernel = make_fractional_kernel(s)

    mesh = _merged(raw.get("mesh"), DEFAULTS["mesh"], "/mesh")
    n = _require_number(mesh["n_elements"], "/mesh/n_elements", integer=True)
    with _at("/domain", n_elements="/mesh/n_elements"):
        mesh = build_uniform_mesh(a, b, n)

    spec = _nonlinearity(raw.get("nonlinearity"))

    solver = _merged(raw.get("solver"), DEFAULTS["solver"], "/solver")
    tol = _require_number(solver["tol"], "/solver/tol")
    max_iter = _require_number(solver["max_iter"], "/solver/max_iter",
                               integer=True)
    seed = _require_number(solver["seed"], "/solver/seed", integer=True)
    with _at("/solver", tol="/solver/tol", max_iter="/solver/max_iter",
             seed="/solver/seed"):
        opts = SolverOptions(tol=tol, max_iter=max_iter, seed=seed)
    starts = _require_number(solver["starts"], "/solver/starts", integer=True)
    # uniqueness_probe refuses it too, but only after the solve
    with _at("/solver/starts"):
        check_count("n_starts", starts, 1)

    output = _merged(raw.get("output"), DEFAULTS["output"], "/output")
    if not isinstance(output["dir"], str):
        raise ConfigError("/output/dir", "expected a string path")

    return RunConfig(kernel=kernel, mesh=mesh, spec=spec, opts=opts,
                     starts=starts, out_dir=Path(output["dir"]))


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
