import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import child_env

from nonlocal_saddle import cli
from nonlocal_saddle.config import parse_config

GAP_CONFIG = {
    "kernel": {"s": 0.5},
    "mesh": {"n_elements": 32},
    "nonlinearity": {"family": "saturating", "m": 20.0, "delta": 0.5,
                     "g": {"type": "constant", "value": 1.0}},
    "solver": {"starts": 4},
}

RESONANT_CONFIG = {
    "kernel": {"s": 0.5},
    "mesh": {"n_elements": 32},
    "nonlinearity": {"family": "affine", "m": 17.41962821964618,
                     "g": {"type": "constant", "value": 0.0}},
}

COERCIVE_CONFIG = {
    "kernel": {"s": 0.5},
    "mesh": {"n_elements": 32},
    "nonlinearity": {"family": "saturating", "m": 0.0, "delta": 0.5,
                     "g": {"type": "constant", "value": 1.0}},
}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "nonlocal_saddle", *args],
                          capture_output=True, text=True, env=child_env())


@pytest.fixture()
def gap_config(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(GAP_CONFIG))
    return p


def test_spectrum_subcommand(gap_config, tmp_path):
    out = tmp_path / "art"
    r = run_cli("spectrum", "--config", str(gap_config), "--out", str(out),
                "--count", "3")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "j,lambda"
    assert len(lines) == 4
    lam = [float(line.split(",")[1]) for line in lines[1:]]
    assert lam == sorted(lam)
    assert (out / "spectrum.csv").read_text().splitlines()[0] == "j,lambda"


def test_solve_artifacts(gap_config, tmp_path):
    out = tmp_path / "art"
    r = run_cli("solve", "--config", str(gap_config), "--out", str(out))
    assert r.returncode == 0
    sol = (out / "solution.csv").read_text().splitlines()
    assert sol[0] == "x,u"
    assert len(sol) == 34  # 33 nodes incl. boundary
    first = sol[1].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == 0.0
    report = json.loads((out / "report.json").read_text())
    assert report["case"]["case"] == "gap" and report["case"]["k"] == 2
    assert report["tol"] == 1e-9
    assert report["residual_inf"] <= report["tol"]
    assert report["uniqueness"]["kind"] == "Unique"
    assert report["seed"] == 42


def test_verify_verdict(gap_config, tmp_path):
    out = tmp_path / "art"
    r = run_cli("verify", "--config", str(gap_config), "--out", str(out))
    assert r.returncode == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["kernel_k1"]["pass"] and verdict["kernel_k2"]["pass"]
    assert verdict["growth"]["pass"]
    assert verdict["f2"]["pass"]
    assert verdict["all_hypotheses_pass"]


def test_refusal_exit_code_writes_verdict(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(RESONANT_CONFIG))
    out = tmp_path / "art"
    r = run_cli("solve", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 1
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["supported"] is False
    assert "straddles" in verdict["classification"]["reason"]


@pytest.mark.parametrize("config, mode, classified", [
    (GAP_CONFIG, "case_a", "gap"),
    (COERCIVE_CONFIG, "case_b", "coercive"),
])
def test_forced_mode_on_other_case_is_refused(tmp_path, config, mode,
                                              classified):
    raw = dict(config, solver={"mode": mode})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "art"
    r = run_cli("solve", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 1
    assert f"classified {classified}" in r.stderr
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["classification"]["case"] == classified
    assert not (out / "report.json").exists()


def test_pipeline_builds_stages_on_demand():
    pipe = cli.Pipeline(parse_config(json.dumps(GAP_CONFIG)))
    assert pipe.op.size == 31
    assert "spectrum" not in vars(pipe)
    assert "classification" not in vars(pipe)
    assert pipe.classification.k == 2
    assert "spectrum" in vars(pipe)


def test_invalid_config_exit_code(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"kernel": {"s": 2.0}}')
    r = run_cli("verify", "--config", str(cfg))
    assert r.returncode == 2
    assert "/kernel/s" in r.stderr


def test_negative_seed_override_exit_code(gap_config):
    r = run_cli("probe-geometry", "--config", str(gap_config),
                "--seed", "-4")
    assert r.returncode == 2
    assert "/solver/seed" in r.stderr
    assert "Traceback" not in r.stderr


def test_spectrum_count_below_one_is_refused(gap_config, tmp_path):
    out = tmp_path / "art"
    r = run_cli("spectrum", "--config", str(gap_config), "--out", str(out),
                "--count", "-3")
    assert r.returncode == 2
    assert "--count" in r.stderr
    assert not (out / "spectrum.csv").exists()


def test_unwritable_output_exit_code(gap_config):
    r = run_cli("export-matrices", "--config", str(gap_config),
                "--out", "/proc/definitely/not/writable")
    assert r.returncode == 3


def test_missing_config_exit_code(tmp_path):
    r = run_cli("verify", "--config", str(tmp_path / "absent.json"))
    assert r.returncode == 3


def test_export_matrices_roundtrip(gap_config, tmp_path):
    out = tmp_path / "art"
    r = run_cli("export-matrices", "--config", str(gap_config),
                "--out", str(out))
    assert r.returncode == 0
    a = np.loadtxt(out / "A.csv", delimiter=",", skiprows=1)
    m = np.loadtxt(out / "M.csv", delimiter=",", skiprows=1)
    assert a.shape == (31, 31) and m.shape == (31, 31)
    assert np.array_equal(a, a.T)
    kappa = np.loadtxt(out / "kappa.csv", delimiter=",", skiprows=1)
    assert kappa.shape == (31, 2)
    assert np.all(kappa[:, 1] > 0.0)


def test_probe_geometry_json(gap_config, tmp_path):
    out = tmp_path / "art"
    r = run_cli("probe-geometry", "--config", str(gap_config),
                "--out", str(out))
    assert r.returncode == 0
    probe = json.loads((out / "probe.json").read_text())
    assert probe["mode"] == "gap" and probe["k"] == 2
    assert probe["separated"] is True


def test_byte_identical_reruns(gap_config, tmp_path):
    """criterion: repeated runs with the same config produce identical
    artifacts, byte for byte."""
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        for cmd in ("spectrum", "solve", "verify", "probe-geometry",
                    "export-matrices"):
            r = run_cli(cmd, "--config", str(gap_config), "--out", str(out))
            assert r.returncode == 0
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    assert files == sorted(p.name for p in outs[1].iterdir())
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_seed_override_changes_probe(gap_config, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    r1 = run_cli("solve", "--config", str(gap_config), "--out", str(out1),
                 "--seed", "7")
    r2 = run_cli("solve", "--config", str(gap_config), "--out", str(out2),
                 "--seed", "7")
    assert r1.returncode == 0 and r2.returncode == 0
    rep1 = json.loads((out1 / "report.json").read_text())
    rep2 = json.loads((out2 / "report.json").read_text())
    assert rep1["seed"] == 7
    assert rep1 == rep2
