"""Acceptance gate: the nine numbered criteria, each with its stated
tolerance and runtime limit, printing one pass/fail line apiece."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import child_env, eigenvector_matrix

import nonlocal_saddle as ns
from nonlocal_saddle import nonlinearity as nl
from nonlocal_saddle.solvers import (eval_J, eval_gradient,
                                     linear_nonresonant_solve, load_vector,
                                     residual_weakform)
from nonlocal_saddle.spectral import rayleigh_quotient


class Criterion:
    def __init__(self, capsys, number, title, limit_s):
        self.capsys = capsys
        self.number = number
        self.title = title
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.limit_s \
            else "FAIL"
        with self.capsys.disabled():
            print(f"acceptance criterion {self.number} ({self.title}): "
                  f"{status}  [{elapsed:.2f} s / limit {self.limit_s:.0f} s]")
        if exc_type is None and elapsed >= self.limit_s:
            pytest.fail(f"criterion {self.number} exceeded its "
                        f"{self.limit_s:.0f} s runtime limit ({elapsed:.2f} s)")
        return False


def _setup(s=0.5, n=128):
    mesh = ns.build_uniform_mesh(-1.0, 1.0, n)
    op = ns.assemble(mesh, ns.make_fractional_kernel(s))
    return op, ns.solve_eigenproblem(op)


def test_criterion_1_rayleigh_subspace_bounds(capsys):
    with Criterion(capsys, 1, "spectral subspace inequalities", 10.0):
        rng = np.random.default_rng(42)
        for s in (0.25, 0.5, 0.75):
            op, sp = _setup(s=s)
            lam = sp.eigenvalues
            E = eigenvector_matrix(sp)
            for k in (1, 2, 3, 5):
                head = E[:, :k] @ rng.standard_normal((k, 100))
                tail = E[:, k:] @ rng.standard_normal((op.size - k, 100))
                for j in range(100):
                    q_head = rayleigh_quotient(op, head[:, j])
                    q_tail = rayleigh_quotient(op, tail[:, j])
                    assert lam[k - 1] - q_head >= -1e-9
                    assert q_tail - lam[k] >= -1e-9


def test_criterion_2_poincare_floor(capsys):
    with Criterion(capsys, 2, "Poincare lower bound on lambda_1", 5.0):
        for s in (0.25, 0.5, 0.75):
            floor = ns.poincare_lower_bound((-1.0, 1.0), s, 1.0, 2.0)
            if s == 0.5:
                assert floor == pytest.approx(0.125, rel=1e-14)
            for n in (64, 128):
                _, sp = _setup(s=s, n=n)
                assert sp.eigenvalues[0] >= floor


def test_criterion_3_eigenvalue_convergence(capsys):
    with Criterion(capsys, 3, "eigenvalue mesh convergence", 60.0):
        lams = {}
        for n in (32, 64, 128, 512):
            _, sp = _setup(n=n)
            lams[n] = sp.eigenvalues[:3]
        rel = np.abs(lams[128] - lams[512]) / lams[512]
        assert np.all(rel < 0.01)
        order = [32, 64, 128, 512]
        for coarse, fine in zip(order[:-1], order[1:]):
            assert np.all(lams[fine] <= lams[coarse] + 1e-12)


def test_criterion_3_closed_form_eigenvalues(capsys):
    """The form of K = |z|^(-1-2s) is 2 / C_{1,s} times that of the
    fractional Laplacian, C_{1,s} = s 4^s Gamma(1/2 + s) / (sqrt(pi)
    Gamma(1 - s)), so lambda = 2 mu / C_{1,s} with mu its eigenvalues on
    (-1, 1) (Kwasnicki, J. Funct. Anal. 262, 2012): mu_1 = 1.1577739 at
    s = 1/2, which the conforming lambda_1^h bounds from above, and
    mu_10 ~ (10 pi/2 - (1 - s) pi/4)^(2s)."""
    with Criterion(capsys, 3, "closed-form eigenvalues at N = 2048", 60.0):
        for s in (0.25, 0.5, 0.75):
            c1s = (s * 4.0 ** s * math.gamma(0.5 + s)
                   / (math.sqrt(math.pi) * math.gamma(1.0 - s)))
            _, sp = _setup(s=s, n=2048)
            lam = sp.eigenvalues
            if s == 0.5:
                lam1 = 2.0 * 1.1577739 / c1s
                assert lam1 <= lam[0] <= lam1 * (1.0 + 2e-4)
            mu10 = (10.0 * math.pi / 2.0
                    - (1.0 - s) * math.pi / 4.0) ** (2.0 * s)
            assert lam[9] == pytest.approx(2.0 * mu10 / c1s, rel=2e-4)


def test_criterion_4_affine_oracle_equivalence(capsys):
    with Criterion(capsys, 4, "affine solver vs direct inverse", 10.0):
        op, sp = _setup()
        lam = sp.eigenvalues
        rng = np.random.default_rng(42)
        # safe slope intervals: coercive and each gap k = 1..3, cycled
        intervals = [(-5.0, lam[0] - 1.0), (lam[0] + 1.0, lam[1] - 1.0),
                     (lam[1] + 1.0, lam[2] - 1.0), (lam[2] + 1.0, lam[3] - 1.0)]
        opts = ns.SolverOptions()
        for trial in range(10):
            lo, hi = intervals[trial % 4]
            m = float(rng.uniform(lo, hi))
            g_val = float(rng.uniform(-2.0, 2.0))
            spec = nl.affine(m, nl.constant_profile(g_val))
            cls = nl.classify(spec, sp)
            if cls.case is nl.Case.COERCIVE:
                rep = ns.solve_case_a(op, spec, opts, classification=cls)
            else:
                rep = ns.solve_case_b(op, sp, spec, opts, classification=cls)
            b = load_vector(op, nl.affine(0.0, nl.constant_profile(g_val)),
                            np.zeros(op.size))
            direct = np.linalg.solve(op.stiffness - m * op.mass, b)
            assert np.max(np.abs(rep.solution - direct)) <= 1e-10


def test_criterion_5_nonlinear_gap_solve(capsys):
    with Criterion(capsys, 5, "saturating gap-case Newton solve", 10.0):
        op, sp = _setup()
        spec = nl.saturating(20.0, 0.5, nl.constant_profile(1.0))
        cls = nl.classify(spec, sp)
        assert cls.case is nl.Case.GAP and cls.k == 2
        rep = ns.solve_case_b(op, sp, spec, ns.SolverOptions(),
                              classification=cls)
        assert residual_weakform(op, spec, rep.solution) <= 1e-9
        assert rep.residual_inf <= 1e-9
        assert rep.iterations <= 25
        # gradient vs central differences at the solution
        grad = eval_gradient(op, spec, rep.solution)
        rng = np.random.default_rng(42)
        eps = 1e-6
        for _ in range(5):
            d = rng.standard_normal(op.size)
            d /= np.linalg.norm(d)
            fd = (eval_J(op, spec, rep.solution + eps * d)
                  - eval_J(op, spec, rep.solution - eps * d)) / (2.0 * eps)
            assert abs(fd - float(grad @ d)) <= 1e-6


def test_criterion_6_uniqueness_and_resonant_counterexample(capsys):
    with Criterion(capsys, 6, "multi-start uniqueness / resonance", 30.0):
        op, sp = _setup()
        spec = nl.saturating(20.0, 0.5, nl.constant_profile(1.0))
        assert nl.check_f2_gap(spec, sp, 2).passed
        verdict = ns.uniqueness_probe(op, sp, spec, 2, n_starts=8,
                                      opts=ns.SolverOptions())
        assert verdict.kind == "Unique"
        assert verdict.max_pairwise_z <= 1e-8
        resonant = nl.affine(float(sp.eigenvalues[1]),
                             nl.constant_profile(0.0))
        verdict = ns.uniqueness_probe(op, sp, resonant, 2, n_starts=8,
                                      opts=ns.SolverOptions())
        assert verdict.kind == "MultipleFound"


def test_criterion_7_saddle_geometry(capsys):
    with Criterion(capsys, 7, "saddle geometry probe", 10.0):
        op, sp = _setup()
        m = 20.0
        lam = sp.eigenvalues
        probe = ns.geometry_probe(op, sp, nl.affine(m, nl.constant_profile(0.0)), 2)
        head_at_1e3 = probe.head[-1]
        assert head_at_1e3.radius == pytest.approx(1e3)
        head_target = (lam[1] - m) / 2.0
        tail_target = (lam[2] - m) / 2.0
        assert head_target < 0.0 < tail_target
        assert abs(head_at_1e3.extreme_ratio_l2 - head_target) <= 1e-3
        assert min(abs(s.extreme_ratio_l2 - tail_target)
                   for s in probe.tail) <= 1e-3
        assert probe.separated
        coercive = ns.geometry_probe(op, sp,
                                     nl.affine(0.0, nl.constant_profile(1.0)),
                                     0)
        # coercive samples live in `tail`, one per radius
        assert [s.radius for s in coercive.tail] == [10.0, 100.0, 1000.0]
        assert all(s.extreme_ratio_l2 > 0.0 for s in coercive.tail)


def test_criterion_8_morse_index(capsys):
    with Criterion(capsys, 8, "Morse index at the gap solution", 10.0):
        op, sp = _setup()
        spec = nl.saturating(20.0, 0.5, nl.constant_profile(1.0))
        rep = ns.solve_case_b(op, sp, spec, ns.SolverOptions())
        assert ns.morse_index(op, spec, rep.solution) == 2


def test_criterion_9_cli_determinism(capsys, tmp_path):
    with Criterion(capsys, 9, "byte-identical CLI reruns", 120.0):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "kernel": {"s": 0.5},
            "mesh": {"n_elements": 64},
            "nonlinearity": {"family": "saturating", "m": 20.0,
                             "delta": 0.5,
                             "g": {"type": "constant", "value": 1.0}},
            "solver": {"starts": 8},
        }))
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            for cmd in ("spectrum", "solve", "verify", "probe-geometry",
                        "export-matrices"):
                r = subprocess.run(
                    [sys.executable, "-m", "nonlocal_saddle", cmd,
                     "--config", str(cfg), "--out", str(out)],
                    capture_output=True, env=child_env())
                assert r.returncode == 0, r.stderr.decode()
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), f"{name} differs between runs"
