import pytest

from nonlocal_saddle.config import parse_config, validate_config
from nonlocal_saddle.errors import ConfigError


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
    assert cfg.kernel["s"] == 0.25
    assert cfg.kernel["theta"] == 1.0
    assert cfg.mesh["n_elements"] == 64


@pytest.mark.parametrize("raw,path", [
    ({"kernel": {"s": 1.5}}, "/kernel/s"),
    ({"kernel": {"s": 0.0}}, "/kernel/s"),
    ({"kernel": {"theta": 0.0}}, "/kernel/theta"),
    ({"kernel": {"theta": 2.0}}, "/kernel/theta"),
    ({"domain": {"a": 1.0, "b": -1.0}}, "/domain"),
    ({"mesh": {"n_elements": 1}}, "/mesh/n_elements"),
    ({"mesh": {"n_elements": 2.5}}, "/mesh/n_elements"),
    ({"quadrature": {"order": 0}}, "/quadrature/order"),
    ({"solver": {"tol": -1.0}}, "/solver/tol"),
    ({"solver": {"mode": "banana"}}, "/solver/mode"),
    ({"solver": {"starts": 0}}, "/solver/starts"),
    ({"nonlinearity": {"family": "exotic"}}, "/nonlinearity/family"),
    ({"nonlinearity": {"g": {"type": "nope"}}}, "/nonlinearity/g/type"),
    ({"quadrature": {"assembly_tol": float("nan")}}, "/quadrature/assembly_tol"),
    ({"quadrature": {"assembly_tol": float("inf")}}, "/quadrature/assembly_tol"),
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
])
def test_invalid_values_report_pointer_path(raw, path):
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.path == path


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as exc:
        validate_config({"kernel": {"s": 0.5, "smoothness": 3}})
    assert "smoothness" in str(exc.value)
    with pytest.raises(ConfigError):
        validate_config({"banana": {}})


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
