import pytest

import nonlocal_saddle as ns
from nonlocal_saddle import nonlinearity as nl
from nonlocal_saddle.config import parse_config, validate_config
from nonlocal_saddle.errors import ConfigError, InvalidParameterError


def test_defaults_fill_in():
    cfg = validate_config({})
    assert cfg.domain == {"a": -1.0, "b": 1.0}
    assert cfg.kernel["s"] == 0.5
    assert cfg.mesh["n_elements"] == 128
    assert cfg.solver["seed"] == 42
    assert cfg.nonlinearity["family"] == "affine"


def test_partial_override():
    cfg = validate_config({"kernel": {"s": 0.25},
                           "mesh": {"n_elements": 64}})
    assert cfg.kernel == {"s": 0.25}
    assert cfg.mesh["n_elements"] == 64


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
])
def test_invalid_values_report_pointer_path(raw, path):
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.path == path


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
], ids=["s", "n_elements", "delta", "tol", "max_iter", "starts", "seed"])
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
    assert cfg.nonlinearity["m"] == 20.0
    assert cfg.nonlinearity["delta"] == 0.5


def test_nodal_profile_validation():
    with pytest.raises(ConfigError):
        validate_config({"nonlinearity": {"g": {"type": "nodal",
                                                "x": [0.0, 1.0],
                                                "values": [1.0]}}})


@pytest.mark.parametrize("xs", [[1.0, -1.0], [-1.0, 0.0, 0.0, 1.0]])
def test_nodal_x_must_be_strictly_increasing(xs):
    """np.interp misreads unsorted x: [1, -1] with values [0, 2] would give
    g(-1, 0, 1) = [0, 2, 2] instead of [2, 1, 0]"""
    with pytest.raises(ConfigError) as info:
        validate_config({"nonlinearity": {"g": {
            "type": "nodal", "x": xs, "values": [0.0] * len(xs)}}})
    assert info.value.path == "/nonlinearity/g/x"
