import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import GAP_CONFIG, child_env, eigenvector_matrix

from nonlocal_saddle import cli
from nonlocal_saddle.config import parse_config

RESONANT_CONFIG = {
    "kernel": {"s": 0.5},
    "mesh": {"n_elements": 32},
    "nonlinearity": {"family": "affine", "m": 17.41962821964618,
                     "g": {"type": "constant", "value": 0.0}},
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


def test_spectrum_vectors_are_the_canonical_eigenvectors(gap_config,
                                                         tmp_path, capsys):
    """`spectrum --vectors` on an even N (odd interior count, so every odd
    mode is zero at the middle node): each row is the eigenvector exactly,
    with its canonical sign, and no field is a signed zero"""
    code = cli.main(["spectrum", "--config", str(gap_config),
                     "--out", str(tmp_path / "art"), "--count", "3",
                     "--vectors"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    pipe = cli.Pipeline(parse_config(gap_config.read_bytes()))
    n = pipe.op.size
    assert n % 2 == 1
    assert lines[0].split(",") == (["j", "lambda"]
                                   + [f"node_{i}" for i in range(1, n + 1)])
    assert len(lines) == 4
    ones_mass = pipe.op.mass.sum(axis=0)
    vectors = eigenvector_matrix(pipe.spectrum)
    for j, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert "-0" not in fields
        assert fields[0] == str(j + 1)
        row = np.array([float(v) for v in fields[2:]])
        assert np.array_equal(row, vectors[:, j])
        mean = ones_mass @ row
        if abs(mean) > 1e-12 * np.abs(row).max():
            assert mean > 0.0
        else:  # the tie-break: the first entry above 1e-12 is positive
            assert row[np.flatnonzero(np.abs(row) > 1e-12)[0]] > 0.0


def test_lapack_failure_exits_as_numeric_failure(gap_config, tmp_path,
                                                 monkeypatch, capsys):
    """a LAPACK error in the eigensolve is a NumericError: exit 2 with an
    error line, not a traceback and exit 1, the refusal code"""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code = cli.main(["spectrum", "--config", str(gap_config),
                     "--out", str(tmp_path / "art")])
    assert code == 2
    assert "did not converge" in capsys.readouterr().err


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
    uniqueness = report["uniqueness"]
    assert (uniqueness["kind"], uniqueness["cut"]) == ("Unique", "certified")
    assert 0.0 < uniqueness["max_pair_ratio"] <= 1.0
    assert report["seed"] == 42


def test_verify_verdict(gap_config, tmp_path):
    out = tmp_path / "art"
    r = run_cli("verify", "--config", str(gap_config), "--out", str(out))
    assert r.returncode == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["kernel_k1"]["pass"] and verdict["kernel_k2"]["pass"]
    assert verdict["growth"]["pass"]
    f2 = verdict["f2"]
    assert f2["pass"]
    assert f2["lower_margin"] > 0.0 and f2["upper_margin"] > 0.0
    # C = max(lambda_k / (lo - lambda_k), lambda_k+1 / (lambda_k+1 - hi))
    (lo, hi), (gap_lo, gap_hi) = f2["slope_range"], f2["gap"]
    assert f2["inverse_bound"] == max(gap_lo / (lo - gap_lo),
                                      gap_hi / (gap_hi - hi))
    # rho = (hi - lo) / (2 min(c - lambda_k, lambda_k+1 - c)), c the midpoint
    c = (lo + hi) / 2.0
    assert f2["contraction"] == (hi - lo) / (2.0 * min(c - gap_lo,
                                                       gap_hi - c))
    assert 0.0 < f2["contraction"] < 1.0
    assert verdict["all_hypotheses_pass"]


def test_verify_verdict_of_a_failed_f2_check(tmp_path, capsys):
    """saturating(22, 10, g = 5) at N = 32 is classified gap 2, but its
    slope range [22, 32] reaches past lambda_3: `verify` exits 0 with an f2
    block that fails and carries neither the inverse bound nor the
    contraction, and not all hypotheses pass"""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "mesh": {"n_elements": 32},
        "nonlinearity": {"family": "saturating", "m": 22.0, "delta": 10.0,
                         "g": {"type": "constant", "value": 5.0}}}))
    out = tmp_path / "art"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert capsys.readouterr().out == (out / "verdict.json").read_text()
    assert verdict["classification"]["case"] == "gap"
    f2 = verdict["f2"]
    assert (f2["pass"], f2["k"]) == (False, 2)
    assert f2["slope_range"] == [22.0, 32.0]
    assert f2["upper_margin"] < 0.0
    assert f2["inverse_bound"] is None and f2["contraction"] is None
    assert verdict["supported"] is True
    assert verdict["all_hypotheses_pass"] is False


def test_refusal_exit_code_writes_verdict(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(RESONANT_CONFIG))
    out = tmp_path / "art"
    r = run_cli("solve", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 1
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["supported"] is False
    assert verdict["classification"]["reason"] == \
        "slope range touches lambda_2"


def test_solve_coercive_config(tmp_path):
    """the coercive branch of `solve`, on the N = 32 coercive config of
    CI: exit 0, case coercive with its residual within tol and no
    uniqueness probe (the starts serve a gap case only), and a rerun in a
    fresh process writes the same bytes"""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "mesh": {"n_elements": 32},
        "nonlinearity": {"family": "saturating", "m": 0.0, "delta": 5.0},
        "solver": {"starts": 4}}))
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        r = run_cli("solve", "--config", str(cfg), "--out", str(out))
        assert r.returncode == 0, r.stderr
        runs.append((r.stdout, {p.name: p.read_bytes()
                                for p in sorted(out.iterdir())}))
    report = json.loads(runs[0][1]["report.json"])
    assert report["case"]["case"] == "coercive"
    assert report["residual_inf"] <= report["tol"]
    assert report["uniqueness"] is None
    assert runs[0] == runs[1]


def test_probe_geometry_refuses_an_unsupported_config(tmp_path, capsys):
    """affine m = 1000 lies above the spectrum at N = 32: probe-geometry
    exits 1, writes the verdict and no probe"""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mesh": {"n_elements": 32},
                               "nonlinearity": {"family": "affine",
                                                "m": 1000.0}}))
    out = tmp_path / "art"
    code = cli.main(["probe-geometry", "--config", str(cfg),
                     "--out", str(out)])
    assert code == 1
    assert "refusing to probe" in capsys.readouterr().err
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["supported"] is False
    assert not (out / "probe.json").exists()


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


@pytest.mark.parametrize("content", [
    b'{"kernel": {"s": ' + b"1" * 5000 + b"}}",  # beyond int()'s 4300 digits
    b"[" * 100_000 + b"]" * 100_000,  # deeper than the parser recurses
    '{"output": {"dir": "caf\u00e9"}}'.encode("latin-1"),  # not UTF-8
], ids=["long-integer", "deep-nesting", "not-utf8"])
def test_malformed_config_file_exits_as_config_error(tmp_path, capsys,
                                                     content):
    """a config file that is not valid UTF-8 JSON is a one-line config
    error at / with exit 2, not a traceback and exit 1, the refusal code"""
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    assert cli.main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "art")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at /: malformed JSON")
    assert err.count("\n") == 1
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("raw, prefix", [
    ({"kernel": {"s": json.loads("[" * 950 + "]" * 950)}},
     "config error at /kernel/s: expected a number, got [["),
    ({"kernel": {"s": "x" * 5000}},
     "config error at /kernel/s: expected a number, got 'x"),
    ({"kernel": list(range(3000))},
     "config error at /kernel: expected an object, got [0"),
    ({"solver": {"seed": -1e300}},  # a 301-digit integer for check_count
     "config error at /solver/seed: seed must be an integer >= 0, got -1"),
], ids=["deep-list", "long-string", "long-list", "huge-integer"])
def test_config_error_clips_the_echoed_value(tmp_path, capsys, raw, prefix):
    """a huge value is echoed clipped: one short error line, exit 2"""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "art")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1
    assert len(err) < 200


def test_config_error_clips_an_unknown_key(tmp_path, capsys):
    """a huge unknown key is echoed clipped in the error path; an ordinary
    one is echoed whole"""
    cfg = tmp_path / "config.json"
    for key, path in (("x" * 5000, "/kernel/" + "x" * 14 + "..." + "x" * 15),
                      ("smoothness", "/kernel/smoothness")):
        cfg.write_text(json.dumps({"kernel": {key: 1}}))
        assert cli.main(["verify", "--config", str(cfg),
                         "--out", str(tmp_path / "art")]) == 2
        assert capsys.readouterr().err == \
            f"config error at {path}: unknown key\n"
    assert not (tmp_path / "art").exists()


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
