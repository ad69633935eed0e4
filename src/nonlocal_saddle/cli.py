"""Command-line front end: spectrum, solve, verify, probe-geometry, export-matrices."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from . import nonlinearity as nl
from .assembly import assemble
from .config import RunConfig, _require_seed, parse_config
from .errors import ConfigError, NonlocalSaddleError
from .kernels import audit_kernel, make_fractional_kernel
from .meshing import build_uniform_mesh
from .solvers import (SolverOptions, geometry_probe, solve_case_a,
                      solve_case_b, uniqueness_probe)
from .spectral import solve_eigenproblem

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_text(path: Path, text: str):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc


class _IOFailure(Exception):
    pass


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _matrix_csv(mat: np.ndarray) -> str:
    header = [f"col_{j}" for j in range(mat.shape[1])]
    rows = [[float(v) for v in row] for row in mat]
    return _csv(rows, header)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def build_source_profile(g: dict) -> nl.SourceProfile:
    if g["type"] == "constant":
        return nl.constant_profile(g["value"])
    if g["type"] == "polynomial":
        return nl.polynomial_profile(g["coeffs"])
    return nl.nodal_profile(g["x"], g["values"])


def build_nonlinearity(cfg: RunConfig) -> nl.NonlinearitySpec:
    section = cfg.nonlinearity
    g = build_source_profile(section["g"])
    if section["family"] == "affine":
        return nl.affine(section["m"], g)
    if section["family"] == "saturating":
        return nl.saturating(section["m"], section["delta"], g)
    return nl.bounded_perturbation(section["m"], section["c"], g)


class Pipeline:
    """Shared setup for all subcommands, built lazily from the config: the
    assembly, eigensolve and classification run on first use."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        kernel = make_fractional_kernel(cfg.kernel["s"])
        self.kernel = dataclasses.replace(kernel, theta=cfg.kernel["theta"])
        self.audit = audit_kernel(self.kernel)
        self.mesh = build_uniform_mesh(cfg.domain["a"], cfg.domain["b"],
                                       cfg.mesh["n_elements"])
        self.spec = build_nonlinearity(cfg)
        self.opts = SolverOptions(tol=cfg.solver["tol"],
                                  max_iter=cfg.solver["max_iter"],
                                  seed=cfg.solver["seed"])

    @cached_property
    def op(self):
        return assemble(self.mesh, self.kernel,
                        quad_order=self.cfg.quadrature["order"],
                        assembly_tol=self.cfg.quadrature["assembly_tol"],
                        audit=self.audit)

    @cached_property
    def spectrum(self):
        return solve_eigenproblem(self.op)

    @cached_property
    def classification(self):
        return nl.classify(self.spec, self.spectrum)

    @property
    def out_dir(self) -> Path:
        return Path(self.cfg.output["dir"])


def _verdict_dict(pipe: Pipeline) -> dict:
    grid = pipe.mesh.interior_nodes
    growth = nl.audit_growth(pipe.spec, grid)
    cls = pipe.classification
    verdict = {
        "kernel_k1": {"pass": pipe.audit.k1_holds,
                      "integral": pipe.audit.k1_integral},
        "kernel_k2": {"pass": pipe.audit.k2_holds,
                      "worst_ratio": pipe.audit.k2_worst_ratio},
        "growth": {"pass": growth.passed, "worst_slack": growth.worst_slack},
        "classification": cls.to_dict(),
    }
    if cls.case is nl.Case.GAP:
        f2 = nl.check_f2_gap(pipe.spec, pipe.spectrum, cls.k)
        verdict["f2"] = {"pass": f2.passed, "k": f2.k,
                         "slope_range": list(f2.slope_range),
                         "gap": list(f2.gap)}
    else:
        verdict["f2"] = None
    verdict["supported"] = cls.case is not nl.Case.UNSUPPORTED
    verdict["all_hypotheses_pass"] = bool(
        pipe.audit.passed and growth.passed
        and cls.case is not nl.Case.UNSUPPORTED
        and (verdict["f2"] is None or verdict["f2"]["pass"]))
    return verdict


def cmd_spectrum(pipe: Pipeline, count: int, vectors: bool) -> int:
    count = min(count, pipe.spectrum.size)
    header = ["j", "lambda"]
    if vectors:
        header += [f"node_{i}" for i in range(1, pipe.op.size + 1)]
    rows = []
    for j in range(count):
        row = [j + 1, float(pipe.spectrum.eigenvalues[j])]
        if vectors:
            row += [float(v) for v in pipe.spectrum.eigenvectors[:, j]]
        rows.append(row)
    text = _csv(rows, header)
    sys.stdout.write(text)
    _write_text(pipe.out_dir / "spectrum.csv", text)
    return EXIT_OK


def cmd_verify(pipe: Pipeline) -> int:
    verdict = _verdict_dict(pipe)
    text = _json_dumps(verdict)
    sys.stdout.write(text)
    _write_text(pipe.out_dir / "verdict.json", text)
    return EXIT_OK if verdict["supported"] else EXIT_REFUSED


def _refuse(pipe: Pipeline, action: str, reason: str) -> int:
    """Hypothesis-gate refusal; the verdict is still written."""
    _write_text(pipe.out_dir / "verdict.json",
                _json_dumps(_verdict_dict(pipe)))
    sys.stderr.write(f"refusing to {action}: {reason}\n")
    return EXIT_REFUSED


def cmd_solve(pipe: Pipeline) -> int:
    cls = pipe.classification
    mode = pipe.cfg.solver["mode"]
    if cls.case is nl.Case.UNSUPPORTED:
        return _refuse(pipe, "solve", cls.reason)
    wanted = {"case_a": nl.Case.COERCIVE, "case_b": nl.Case.GAP}.get(
        mode, cls.case)
    if cls.case is not wanted:
        return _refuse(pipe, "solve", f"solver.mode {mode} needs a "
                       f"{wanted.value} problem, but this one is classified "
                       f"{cls.case.value}")
    if cls.case is nl.Case.COERCIVE:
        report = solve_case_a(pipe.op, pipe.spec, pipe.opts,
                              classification=cls)
    else:
        report = solve_case_b(pipe.op, pipe.spectrum, pipe.spec, pipe.opts,
                              classification=cls)
    uniqueness = None
    starts = pipe.cfg.solver["starts"]
    if starts > 1 and cls.case is nl.Case.GAP:
        uniqueness = uniqueness_probe(pipe.op, pipe.spectrum, pipe.spec,
                                      cls.k, n_starts=starts, opts=pipe.opts)

    full = np.concatenate(([0.0], report.solution, [0.0]))
    sol_rows = [[float(x), float(u)] for x, u in zip(pipe.mesh.nodes, full)]
    _write_text(pipe.out_dir / "solution.csv", _csv(sol_rows, ["x", "u"]))

    report_obj = {
        "case": cls.to_dict(),
        "j_value": report.j_value,
        "residual_inf": report.residual_inf,
        "iterations": report.iterations,
        "uniqueness": uniqueness.to_dict() if uniqueness else None,
        "seed": pipe.opts.seed,
        "tol": pipe.opts.tol,
        "max_iter": pipe.opts.max_iter,
    }
    _write_text(pipe.out_dir / "report.json", _json_dumps(report_obj))
    sys.stdout.write(_json_dumps(report_obj))
    return EXIT_OK


def cmd_probe_geometry(pipe: Pipeline) -> int:
    cls = pipe.classification
    if cls.case is nl.Case.UNSUPPORTED:
        return _refuse(pipe, "probe", cls.reason)
    k = 0 if cls.case is nl.Case.COERCIVE else cls.k
    probe = geometry_probe(pipe.op, pipe.spectrum, pipe.spec, k,
                           seed=pipe.opts.seed)
    text = _json_dumps(probe.to_dict())
    sys.stdout.write(text)
    _write_text(pipe.out_dir / "probe.json", text)
    return EXIT_OK


def cmd_export_matrices(pipe: Pipeline) -> int:
    _write_text(pipe.out_dir / "A.csv", _matrix_csv(pipe.op.stiffness))
    _write_text(pipe.out_dir / "M.csv", _matrix_csv(pipe.op.mass))
    kappa_rows = [[float(x), float(v)] for x, v
                  in zip(pipe.mesh.interior_nodes, pipe.op.tail)]
    _write_text(pipe.out_dir / "kappa.csv", _csv(kappa_rows, ["x", "kappa"]))
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlocal-saddle",
        description="Solver and hypothesis verifier for the nonlocal "
                    "Dirichlet problem -L_K u = f(x, u).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "solve", "verify", "probe-geometry",
                 "export-matrices"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "spectrum":
            p.add_argument("--count", type=_positive_int, default=10,
                           help="number of eigenvalues to print")
            p.add_argument("--vectors", action="store_true",
                           help="include nodal eigenvector values as columns")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
        if args.seed is not None:
            cfg = dataclasses.replace(
                cfg, solver={**cfg.solver, "seed": _require_seed(args.seed)})
    except OSError as exc:
        sys.stderr.write(f"cannot read config: {exc}\n")
        return EXIT_IO
    except ConfigError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_NUMERIC

    if args.out is not None:
        cfg = dataclasses.replace(cfg, output={"dir": args.out})

    try:
        pipe = Pipeline(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(pipe, args.count, args.vectors)
        if args.command == "solve":
            return cmd_solve(pipe)
        if args.command == "verify":
            return cmd_verify(pipe)
        if args.command == "probe-geometry":
            return cmd_probe_geometry(pipe)
        return cmd_export_matrices(pipe)
    except _IOFailure as exc:
        sys.stderr.write(f"cannot write artifacts: {exc}\n")
        return EXIT_IO
    except NonlocalSaddleError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
