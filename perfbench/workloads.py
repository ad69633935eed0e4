"""The four workloads.  Each has `build(seed, work_dir)`, which makes its
inputs from the workload seed, and `run(p, inputs, index)`, which takes
them through the package once and checks every output.  Why each workload
exists, and the defects its checks expose, is in NOTES.md."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import nonlocal_saddle as ns
from nonlocal_saddle import cli
from nonlocal_saddle import nonlinearity as nl
from nonlocal_saddle.config import parse_config

from harness import MB, Pass

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text())

#: relative tolerance on eigenvalues and energies against the reference.
#: The reference's assembly is accurate to about 1.7e-7 relative (the tail
#: block at s = 0.25), so a more accurate assembly must stay inside this.
REF_RTOL = 1.0e-6
#: acceptance criterion 7: saddle-geometry ratios against (lambda_j - m)/2
RATIO_ATOL = 1.0e-3
DOMAIN = (-1.0, 1.0)
POINCARE_R = 2.0
#: known defect, NOTES.md: the uniqueness probe's fixed 1e-8 Z-distance cut
UNIQUENESS_CUT = "uniqueness-absolute-cut"


@dataclass(frozen=True)
class Workload:
    build: Callable
    run: Callable
    #: 1 except where a check compares one pass with the previous one
    min_passes: int = 1
    #: run after each span-traced pass, outside its wall time
    traced_extra: Callable | None = None


def rel_close(actual, expected, rtol: float) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return bool(actual.shape == expected.shape and np.all(
        np.abs(actual - expected) <= rtol * np.abs(expected)))


def _derived_seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def _operator(p: Pass, key: str, kernel, n: int):
    """Audit, assemble and solve the pencil; check lambda_1..5 against the
    reference and lambda_1 against the Poincare floor."""
    audit = p.call("kernels.audit_kernel", ns.audit_kernel, kernel)
    p.check("kernel audit passes", audit.passed)
    mesh = p.call("meshing.build_uniform_mesh", ns.build_uniform_mesh,
                  *DOMAIN, n)
    op = p.call("assembly.assemble", ns.assemble, mesh, kernel, audit=audit)
    p.peak("assembly.matrix_mb",
           (op.stiffness.nbytes + op.mass.nbytes + op.tail.nbytes) / MB)
    sp = p.call("spectral.solve_eigenproblem", ns.solve_eigenproblem, op)
    lam = sp.eigenvalues[:5]
    ref = REFERENCE[key]["lambda"]
    p.check("lambda_1..5 match the reference", rel_close(lam, ref, REF_RTOL),
            f"{lam.tolist()} vs {ref}")
    floor = p.call("spectral.poincare_lower_bound", ns.poincare_lower_bound,
                   DOMAIN, kernel.s, kernel.theta, POINCARE_R)
    p.check("lambda_1 >= Poincare floor", lam[0] >= floor,
            f"{lam[0]} < {floor}")
    return op, sp


def _check_residual(p: Pass, op, spec, u, tol):
    res = p.call("solvers.residual_weakform", ns.residual_weakform, op, spec,
                 u)
    p.check("weak-form residual within tol", res <= tol, f"{res:.3e} > {tol}")


def _solve_coercive(p: Pass, op, sp, spec, opts):
    cls = p.call("nonlinearity.classify", nl.classify, spec, sp)
    p.check("classified coercive", cls.case is nl.Case.COERCIVE, str(cls))
    rep = p.call("solvers.solve_case_a", ns.solve_case_a, op, spec, opts,
                 classification=cls)
    p.add("solvers.solve_case_a_iterations", rep.iterations)
    _check_residual(p, op, spec, rep.solution, opts.tol)
    return rep


def _uniqueness(p: Pass, op, sp, spec, k, opts):
    verdict = p.call("solvers.uniqueness_probe", ns.uniqueness_probe, op, sp,
                     spec, k, n_starts=8, opts=opts)
    p.add("solvers.uniqueness_probes", 1)
    p.add("solvers.uniqueness_conclusive", verdict.kind != "Inconclusive")
    return verdict


def _solve_gap(p: Pass, op, sp, spec, k, opts, certified=True):
    """The gap-case chain: classify, f2, Newton, multi-start probe, Morse
    index.  Under a certified f2 the solution is unique with Morse index k."""
    cls = p.call("nonlinearity.classify", nl.classify, spec, sp)
    p.check(f"classified gap k={k}", cls.case is nl.Case.GAP and cls.k == k,
            str(cls))
    f2 = p.call("nonlinearity.check_f2_gap", nl.check_f2_gap, spec, sp, k)
    p.check("f2 verdict as constructed", f2.passed == certified,
            f"passed={f2.passed}, slopes {f2.slope_range}, gap {f2.gap}")
    rep = p.call("solvers.solve_case_b", ns.solve_case_b, op, sp, spec, opts,
                 classification=cls)
    p.add("solvers.solve_case_b_iterations", rep.iterations)
    _check_residual(p, op, spec, rep.solution, opts.tol)
    verdict = _uniqueness(p, op, sp, spec, k, opts)
    if certified:
        p.check("uniqueness probe says Unique under f2",
                verdict.kind == "Unique",
                f"{verdict.kind}, max pairwise Z-distance "
                f"{verdict.max_pairwise_z:.3e}, "
                f"{len(verdict.representatives)} representatives",
                defect=UNIQUENESS_CUT)
        index = p.call("solvers.morse_index", ns.morse_index, op, spec,
                       rep.solution)
        p.check(f"Morse index equals k={k}", index == k, f"got {index}")
    return rep


# ---------------------------------------------------------------------------
# operator_ladder
# ---------------------------------------------------------------------------

LADDER_S = (0.25, 0.75)
LADDER_N = (128, 512, 2048)


def _build_nothing(seed: int, work: Path):
    return None


def _run_operator_ladder(p: Pass, inputs, index: int):
    for s in LADDER_S:
        kernel = p.call("kernels.make_fractional_kernel",
                        ns.make_fractional_kernel, s)
        lams = []
        for n in LADDER_N:
            with p.case(f"s{s}-n{n}"):
                _, sp = _operator(p, f"fractional-s{s}-n{n}", kernel, n)
                lams.append(sp.eigenvalues[:5])
                if len(lams) > 1:
                    # nested P1 spaces: Galerkin eigenvalues cannot increase
                    p.check("lambda_1..5 do not increase under refinement",
                            np.all(lams[-1] <= lams[-2]),
                            f"{lams[-1].tolist()} vs {lams[-2].tolist()}")


# ---------------------------------------------------------------------------
# nonlinearity_sweep
# ---------------------------------------------------------------------------

SWEEP_S = 0.5
SWEEP_N = 512
#: the seed's known-defect case is fixed, probe seed included (NOTES.md)
FIXED_PROBE_SEED = 42


def _build_sweep(seed: int, work: Path):
    """Nonlinearity parameters as shares of lambda_1 or of a spectral gap,
    so every draw lands in its intended case whatever the discretization."""
    rng = np.random.default_rng(seed)
    u = rng.uniform

    def gap_case(family):
        return {"family": family, "a": u(0.15, 0.4) if family == "saturating"
                else u(0.4, 0.6), "b": u(0.2, 0.7), "g": u(-2.0, 2.0)}

    return {
        "solver_seed": _derived_seed(rng),
        "coercive": [{"family": fam, "m": u(-0.5, 0.6), "w": u(0.0, 0.3),
                      "g": u(-2.0, 2.0)}
                     for fam in ("saturating", "bounded_perturbation")],
        "gap": [gap_case("saturating"), gap_case("bounded_perturbation"),
                gap_case(str(rng.choice(["saturating",
                                         "bounded_perturbation"])))],
        "f2_fail": {"a": u(0.2, 0.5), "b": u(0.2, 0.5), "g": u(-2.0, 2.0)},
    }


def _spec(p: Pass, family: str, m: float, w: float, g: float):
    profile = p.call("nonlinearity.constant_profile", nl.constant_profile, g)
    fn = nl.saturating if family == "saturating" else nl.bounded_perturbation
    return p.call(f"nonlinearity.{family}", fn, m, w, profile)


def _run_sweep(p: Pass, inputs, index: int):
    opts = ns.SolverOptions(seed=inputs["solver_seed"])
    with p.case("operator"):
        kernel = p.call("kernels.make_fractional_kernel",
                        ns.make_fractional_kernel, SWEEP_S)
        op, sp = _operator(p, f"fractional-s{SWEEP_S}-n{SWEEP_N}", kernel,
                           SWEEP_N)
        lam = sp.eigenvalues
    for i, c in enumerate(inputs["coercive"]):
        with p.case(f"coercive-{i}-{c['family']}"):
            # the largest slope, m + w, is at most 0.9 lambda_1
            spec = _spec(p, c["family"], c["m"] * lam[0], c["w"] * lam[0],
                         c["g"])
            _solve_coercive(p, op, sp, spec, opts)
    for k, c in enumerate(inputs["gap"], start=1):
        with p.case(f"gap-k{k}-{c['family']}"):
            lo, hi = lam[k - 1], lam[k]
            m = lo + c["a"] * (hi - lo)
            # saturating slopes fill [m, m + w]; bounded ones [m - w, m + w]
            room = hi - m if c["family"] == "saturating" else min(m - lo,
                                                                  hi - m)
            spec = _spec(p, c["family"], m, c["b"] * room, c["g"])
            _solve_gap(p, op, sp, spec, k, opts)
    with p.case("gap-k2-f2-fails"):
        c = inputs["f2_fail"]
        lo, hi = lam[1], lam[2]
        m = lo + c["a"] * (hi - lo)
        # the slope range [m, m + delta] ends beyond lambda_3
        spec = _spec(p, "saturating", m, hi - m + c["b"] * (hi - lo), c["g"])
        _solve_gap(p, op, sp, spec, 2, opts, certified=False)
    with p.case("resonant-affine"):
        g = p.call("nonlinearity.constant_profile", nl.constant_profile, 0.0)
        spec = p.call("nonlinearity.affine", nl.affine, float(lam[1]), g)
        cls = p.call("nonlinearity.classify", nl.classify, spec, sp)
        p.check("classified unsupported", cls.case is nl.Case.UNSUPPORTED,
                str(cls))
        verdict = _uniqueness(p, op, sp, spec, 2, opts)
        p.check("resonant problem gives MultipleFound",
                verdict.kind == "MultipleFound", verdict.kind)
    with p.case("fixed-f2-certified"):
        spec = _spec(p, "saturating", lam[1] + 0.2, 0.6 * (lam[2] - lam[1]),
                     5.0)
        fixed = ns.SolverOptions(seed=FIXED_PROBE_SEED)
        rep = _solve_gap(p, op, sp, spec, 2, fixed)
        ref = REFERENCE["sweep_fixed"]["j_value"]
        p.check("J at the solution matches the reference",
                rel_close(rep.j_value, ref, REF_RTOL),
                f"{rep.j_value} vs {ref}")


# ---------------------------------------------------------------------------
# saddle_geometry
# ---------------------------------------------------------------------------

GEOMETRY_S = 0.5
GEOMETRY_N = 384
GEOMETRY_M = 20.0


def _build_geometry(seed: int, work: Path):
    return {"probe_seed": _derived_seed(np.random.default_rng(seed))}


def _run_geometry(p: Pass, inputs, index: int):
    seed = inputs["probe_seed"]
    with p.case("operator"):
        kernel = p.call("kernels.make_fractional_kernel",
                        ns.make_fractional_kernel, GEOMETRY_S)
        op, sp = _operator(p, f"fractional-s{GEOMETRY_S}-n{GEOMETRY_N}",
                           kernel, GEOMETRY_N)
        lam = sp.eigenvalues
    with p.case("gap-k2"):
        g = p.call("nonlinearity.constant_profile", nl.constant_profile, 0.0)
        spec = p.call("nonlinearity.affine", nl.affine, GEOMETRY_M, g)
        cls = p.call("nonlinearity.classify", nl.classify, spec, sp)
        p.check("classified gap k=2", cls.case is nl.Case.GAP and cls.k == 2,
                str(cls))
        probe = p.call("solvers.geometry_probe", ns.geometry_probe, op, sp,
                       spec, 2, seed=seed)
        head = probe.head[-1]
        target = (lam[1] - GEOMETRY_M) / 2.0
        p.check("head ratio at T=1e3 within 1e-3 of (lambda_2 - m)/2",
                head.radius == 1.0e3
                and abs(head.extreme_ratio_l2 - target) <= RATIO_ATOL,
                f"{head.extreme_ratio_l2} vs {target} at T={head.radius}")
        target = (lam[2] - GEOMETRY_M) / 2.0
        dist = min(abs(t.extreme_ratio_l2 - target) for t in probe.tail)
        p.check("a tail ratio within 1e-3 of (lambda_3 - m)/2",
                dist <= RATIO_ATOL, f"off by {dist}")
        p.check("head and tail separated", probe.separated is True)
    with p.case("coercive"):
        g = p.call("nonlinearity.constant_profile", nl.constant_profile, 1.0)
        spec = p.call("nonlinearity.affine", nl.affine, 0.0, g)
        probe = p.call("solvers.geometry_probe", ns.geometry_probe, op, sp,
                       spec, 0, seed=seed)
        # coercive samples live in `tail`; `head` is empty in this mode
        ratios = [t.extreme_ratio_l2 for t in probe.tail]
        p.check("coercive probe samples every radius",
                probe.mode == "coercive" and len(ratios) == 3, str(ratios))
        p.check("coercive energy ratios positive",
                bool(ratios) and min(ratios) > 0.0, str(ratios))
        p.check("coercive probe separated", probe.separated is True)


# ---------------------------------------------------------------------------
# cli_roundtrip
# ---------------------------------------------------------------------------

CLI_N = 128
CLI_COMMANDS = ("spectrum", "solve", "verify", "probe-geometry",
                "export-matrices")


def _build_cli(seed: int, work: Path):
    rng = np.random.default_rng(seed)
    raw = {
        "kernel": {"s": 0.5},
        "mesh": {"n_elements": CLI_N},
        "nonlinearity": {"family": "saturating", "m": 20.0, "delta": 0.5,
                         "g": {"type": "constant", "value": 1.0}},
        "solver": {"tol": 1.0e-9, "starts": 8, "seed": _derived_seed(rng)},
    }
    root = work / "cli"
    root.mkdir(parents=True, exist_ok=True)
    config = root / "config.json"
    config.write_text(json.dumps(raw, indent=2))
    return {"config": config, "root": root, "raw": raw}


def _run_child(p: Pass, command: str, config: Path, out: Path) -> int:
    """One `python -m nonlocal_saddle` child; waits for it and records its
    peak RSS."""
    with open(out.parent / f"{out.name}-{command}.log", "wb") as log, \
            p.timed(f"cli.{command}"):
        child = subprocess.Popen(
            [sys.executable, "-m", "nonlocal_saddle", command,
             "--config", str(config), "--out", str(out)],
            stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    p.peak("cli.child_peak_rss_mb", usage.ru_maxrss * 1024 / MB)
    return child.returncode


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_cli_outputs(p: Pass, command: str, out: Path, raw: dict):
    ref = REFERENCE["cli"]
    if command == "spectrum":
        rows = _read_csv(out / "spectrum.csv")
        p.check("spectrum.csv matches the reference",
                rel_close(rows[:, 1], ref["lambda"], REF_RTOL),
                f"{rows[:, 1].tolist()}")
    elif command == "solve":
        report = json.loads((out / "report.json").read_text())
        p.check("solve residual within tol",
                report["residual_inf"] <= raw["solver"]["tol"],
                str(report["residual_inf"]))
        p.check("solve classified gap k=2",
                report["case"]["case"] == "gap" and report["case"]["k"] == 2,
                str(report["case"]))
        p.check("solve J matches the reference",
                rel_close(report["j_value"], ref["j_value"], REF_RTOL),
                f"{report['j_value']} vs {ref['j_value']}")
        p.check("uniqueness probe says Unique under f2",
                (report["uniqueness"] or {}).get("kind") == "Unique",
                str(report["uniqueness"]), defect=UNIQUENESS_CUT)
        p.check("report carries the config seed",
                report["seed"] == raw["solver"]["seed"], str(report["seed"]))
        sol = _read_csv(out / "solution.csv")
        p.check("solution.csv has every node, zero at the boundary",
                sol.shape == (CLI_N + 1, 2) and sol[0, 1] == 0.0
                and sol[-1, 1] == 0.0, str(sol.shape))
    elif command == "verify":
        verdict = json.loads((out / "verdict.json").read_text())
        p.check("every hypothesis passes", verdict["all_hypotheses_pass"],
                json.dumps(verdict))
    elif command == "probe-geometry":
        probe = json.loads((out / "probe.json").read_text())
        p.check("geometry probe separated in gap mode k=2",
                probe["mode"] == "gap" and probe["k"] == 2
                and probe["separated"] is True,
                f"{probe['mode']} k={probe['k']} {probe['separated']}")
    else:
        a = _read_csv(out / "A.csv")
        m = _read_csv(out / "M.csv")
        kappa = _read_csv(out / "kappa.csv")
        size = CLI_N - 1
        p.check("A.csv is square and exactly symmetric",
                a.shape == (size, size) and np.array_equal(a, a.T),
                str(a.shape))
        p.check("M.csv and kappa.csv have the interior size",
                m.shape == (size, size) and kappa.shape == (size, 2),
                f"{m.shape} {kappa.shape}")


def _run_cli(p: Pass, inputs, index: int):
    root, config, raw = inputs["root"], inputs["config"], inputs["raw"]
    out = root / f"pass{index % 2}"
    shutil.rmtree(out, ignore_errors=True)
    for command in CLI_COMMANDS:
        with p.case(command):
            code = _run_child(p, command, config, out)
            p.check("exit code 0", code == 0, f"exit code {code}")
            _check_cli_outputs(p, command, out, raw)
    p.add("cli.artifact_bytes",
          sum(f.stat().st_size for f in out.iterdir()))
    if index > 0:
        previous = root / f"pass{(index - 1) % 2}"
        names = sorted(f.name for f in out.iterdir())
        same = names == sorted(f.name for f in previous.iterdir()) and all(
            (out / n).read_bytes() == (previous / n).read_bytes()
            for n in names)
        p.check("rerun artifacts byte-identical", same)


def pipeline_in_process(p: Pass, inputs):
    """`cli.Pipeline` built in this process, for `cli.pipeline_s`."""
    with p.case("pipeline-in-process"):
        cfg = p.call("config.parse_config", parse_config,
                     inputs["config"].read_text())
        p.call("cli.pipeline", cli.Pipeline, cfg)


WORKLOADS = {
    "operator_ladder": Workload(_build_nothing, _run_operator_ladder),
    "nonlinearity_sweep": Workload(_build_sweep, _run_sweep),
    "saddle_geometry": Workload(_build_geometry, _run_geometry),
    "cli_roundtrip": Workload(_build_cli, _run_cli, min_passes=2,
                              traced_extra=pipeline_in_process),
}
