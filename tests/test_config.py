import json

import numpy as np
import pytest

import nonlocal_saddle as ns
from nonlocal_saddle import nonlinearity as nl
from nonlocal_saddle.config import parse_config, validate_config
from nonlocal_saddle.errors import ConfigError, InvalidParameterError


def test_defaults_fill_in():
    cfg = validate_config({})
    assert (cfg.mesh.a, cfg.mesh.b) == (-1.0, 1.0)
    assert cfg.kernel.s == 0.5
    assert cfg.mesh.n_elements == 128
    assert cfg.opts.seed == 42
    # the affine family, m = 0 and g = 1
    assert cfg.spec.slope_range == (0.0, 0.0)
    assert nl.eval_f(cfg.spec, [-0.5, 0.5], [3.0, -2.0]).tolist() == [1.0, 1.0]


def test_partial_override():
    cfg = validate_config({"kernel": {"s": 0.25},
                           "mesh": {"n_elements": 64}})
    assert cfg.kernel.s == 0.25
    assert cfg.mesh.n_elements == 64


@pytest.mark.parametrize("raw,path", [
    ({"kernel": {"s": 1.5}}, "/kernel/s"),
    ({"kernel": {"s": 0.0}}, "/kernel/s"),
    # theta and solver.mode are not config keys: refused at their path
    ({"kernel": {"theta": 0.0}}, "/kernel/theta"),
    ({"kernel": {"theta": 2.0}}, "/kernel/theta"),
    ({"domain": {"a": 1.0, "b": -1.0}}, "/domain"),
    ({"mesh": {"n_elements": 1}}, "/mesh/n_elements"),
    ({"mesh": {"n_elements": 2.5}}, "/mesh/n_elements"),
    # the quadrature is the library's: its section is an unknown key
    ({"quadrature": {"order": 0}}, "/quadrature"),
    ({"solver": {"tol": -1.0}}, "/solver/tol"),
    ({"solver": {"mode": "banana"}}, "/solver/mode"),
    ({"solver": {"starts": 0}}, "/solver/starts"),
    ({"nonlinearity": {"family": "exotic"}}, "/nonlinearity/family"),
    ({"nonlinearity": {"g": {"type": "nope"}}}, "/nonlinearity/g/type"),
    ({"quadrature": {"assembly_tol": float("nan")}}, "/quadrature"),
    ({"quadrature": {"assembly_tol": float("inf")}}, "/quadrature"),
    ({"solver": {"tol": float("nan")}}, "/solver/tol"),
    ({"kernel": {"s": float("nan")}}, "/kernel/s"),
    ({"nonlinearity": {"family": "affine", "m": 1, "delta": 5, "c": 3}},
     "/nonlinearity/delta"),
    ({"nonlinearity": {"family": "affine", "c": 3}}, "/nonlinearity/c"),
    ({"nonlinearity": {"family": "bounded_perturbation", "delta": -5}},
     "/nonlinearity/delta"),
    ({"nonlinearity": {"family": "saturating", "c": 0.0}},
     "/nonlinearity/c"),
    ({"solver": {"seed": -1}}, "/solver/seed"),
    # JSON integers beyond the float range: no OverflowError escapes
    ({"kernel": {"s": 10 ** 400}}, "/kernel/s"),
    ({"mesh": {"n_elements": 10 ** 400}}, "/mesh/n_elements"),
    ({"solver": {"max_iter": 0}}, "/solver/max_iter"),
])
def test_invalid_values_report_pointer_path(raw, path):
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.path == path


FAMILY_CASES = {
    "affine": ({"m": 1.5}, lambda g: nl.affine(1.5, g)),
    "saturating": ({"m": 2.0, "delta": 0.7},
                   lambda g: nl.saturating(2.0, 0.7, g)),
    "bounded_perturbation": ({"m": -1.0, "c": 0.3},
                             lambda g: nl.bounded_perturbation(-1.0, 0.3, g)),
}

PROFILE_CASES = {
    "constant": ({"type": "constant", "value": 0.25},
                 lambda: nl.constant_profile(0.25)),
    "polynomial": ({"type": "polynomial", "coeffs": [1.0, -2.0, 0.5]},
                   lambda: nl.polynomial_profile([1.0, -2.0, 0.5])),
    "nodal": ({"type": "nodal", "x": [-2.0, 0.0, 3.0],
               "values": [0.5, -1.0, 2.0]},
              lambda: nl.nodal_profile([-2.0, 0.0, 3.0], [0.5, -1.0, 2.0])),
}


@pytest.mark.parametrize("gtype", PROFILE_CASES)
@pytest.mark.parametrize("family", FAMILY_CASES)
def test_config_builds_the_library_objects(family, gtype):
    """the config's objects are the library constructors' own: the spec
    evaluates bit for bit as the direct call does"""
    params, build = FAMILY_CASES[family]
    g_raw, profile = PROFILE_CASES[gtype]
    cfg = parse_config(json.dumps({
        "domain": {"a": -2.0, "b": 3.0}, "kernel": {"s": 0.3},
        "mesh": {"n_elements": 24},
        "nonlinearity": {"family": family, **params, "g": g_raw},
        "solver": {"tol": 1e-8, "max_iter": 50, "seed": 7}}))
    want = build(profile())
    x = np.linspace(-2.5, 3.5, 13)[:, None]
    t = np.array([-40.0, -2.5, -0.3, 0.0, 1e-9, 0.7, 3.0, 1e3])[None, :]
    for evaluate in (nl.eval_f, nl.eval_f_t, nl.eval_F):
        assert evaluate(cfg.spec, x, t).tobytes() \
            == evaluate(want, x, t).tobytes()
    assert cfg.spec.a_profile(x).tobytes() == want.a_profile(x).tobytes()
    assert (cfg.spec.b, cfg.spec.slope_range) == (want.b, want.slope_range)
    assert cfg.kernel.s == 0.3
    assert (cfg.mesh.a, cfg.mesh.b, cfg.mesh.n_elements) == (-2.0, 3.0, 24)
    assert cfg.opts == ns.SolverOptions(tol=1e-8, max_iter=50, seed=7)


def _small_pencil():
    op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, 8),
                     ns.make_fractional_kernel(0.5))
    return op, ns.solve_eigenproblem(op)


@pytest.mark.parametrize("raw,library_call", [
    ({"kernel": {"s": 1.5}}, lambda: ns.make_fractional_kernel(1.5)),
    ({"mesh": {"n_elements": 1}}, lambda: ns.build_uniform_mesh(-1, 1, 1)),
    ({"nonlinearity": {"family": "saturating", "delta": -0.5}},
     lambda: nl.saturating(0.0, -0.5, nl.constant_profile(1.0))),
    ({"solver": {"tol": -1e-9}}, lambda: ns.SolverOptions(tol=-1e-9)),
    ({"solver": {"max_iter": 0}}, lambda: ns.SolverOptions(max_iter=0)),
    ({"solver": {"starts": 0}},
     lambda: ns.uniqueness_probe(*_small_pencil(), nl.affine(
         0.0, nl.constant_profile(1.0)), 1, n_starts=0)),
    ({"solver": {"seed": -1}}, lambda: ns.SolverOptions(seed=-1)),
    ({"nonlinearity": {"g": {"type": "nodal", "x": [0.0], "values": [1.0]}}},
     lambda: nl.nodal_profile([0.0], [1.0])),
], ids=["s", "n_elements", "delta", "tol", "max_iter", "starts", "seed",
        "nodal"])
def test_config_reports_the_library_refusal(raw, library_call):
    """each range rule is stated once, by the library: the config refuses
    a value with the message of the library's refusal of the same value"""
    with pytest.raises(InvalidParameterError) as library:
        library_call()
    with pytest.raises(ConfigError) as config:
        validate_config(raw)
    assert str(library.value) in str(config.value)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as exc:
        validate_config({"kernel": {"s": 0.5, "smoothness": 3}})
    assert "smoothness" in str(exc.value)
    with pytest.raises(ConfigError):
        validate_config({"banana": {}})
    # the kernel family and theta are fixed by the fractional kernel, the
    # solver follows the classification, and the quadrature is the
    # library's default, so even its default value is refused
    for raw, path in (({"solver": {"mode": "auto"}}, "/solver/mode"),
                      ({"kernel": {"family": "fractional"}}, "/kernel/family"),
                      ({"kernel": {"theta": 0.5}}, "/kernel/theta"),
                      ({"quadrature": {"order": 8}}, "/quadrature")):
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        assert exc.value.path == path
        assert "unknown key" in str(exc.value)


def test_boolean_is_not_a_number():
    with pytest.raises(ConfigError):
        validate_config({"kernel": {"s": True}})


def test_parse_config_json_error_has_location():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"kernel": {"s": 0.5,}}')
    assert "line" in str(exc.value)


def test_parse_config_roundtrip():
    cfg = parse_config('{"nonlinearity": {"family": "saturating", '
                       '"m": 20.0, "delta": 0.5, '
                       '"g": {"type": "constant", "value": 1.0}}}')
    # saturating: slopes from m to m + delta
    assert cfg.spec.slope_range == (20.0, 20.5)


def test_nodal_profile_validation():
    with pytest.raises(ConfigError):
        validate_config({"nonlinearity": {"g": {"type": "nodal",
                                                "x": [0.0, 1.0],
                                                "values": [1.0]}}})


@pytest.mark.parametrize("xs,vs,path", [
    ([], [], "/nonlinearity/g/x"),
    ([0.0], [1.0], "/nonlinearity/g/x"),
    ([0.0, 1.0], [1.0], "/nonlinearity/g/values"),
    ([0.0, 1.0], "1", "/nonlinearity/g"),
], ids=["no-point", "one-point", "unmatched", "not-a-list"])
def test_nodal_refusals_are_reported_at_their_path(xs, vs, path):
    """the point count and the matching lengths are the library's rules
    (`nodal_profile`), reported at the list they refuse; only a value that
    is not a list is the config's own refusal"""
    with pytest.raises(ConfigError) as info:
        validate_config({"nonlinearity": {"g": {
            "type": "nodal", "x": xs, "values": vs}}})
    assert info.value.path == path


@pytest.mark.parametrize("xs", [[1.0, -1.0], [-1.0, 0.0, 0.0, 1.0]])
def test_nodal_x_must_be_strictly_increasing(xs):
    """np.interp misreads unsorted x: [1, -1] with values [0, 2] would give
    g(-1, 0, 1) = [0, 2, 2] instead of [2, 1, 0]"""
    with pytest.raises(ConfigError) as info:
        validate_config({"nonlinearity": {"g": {
            "type": "nodal", "x": xs, "values": [0.0] * len(xs)}}})
    assert info.value.path == "/nonlinearity/g/x"
