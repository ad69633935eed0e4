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
from .config import RunConfig, _at, parse_config
from .errors import ConfigError, NonlocalSaddleError, check_count
from .kernels import audit_kernel
from .solvers import (geometry_probe, solve_case_a, solve_case_b,
                      uniqueness_probe)
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


class Pipeline:
    """Shared setup for all subcommands: the config's objects and the kernel
    audit; the assembly, eigensolve and classification run on first use."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.kernel, self.mesh = cfg.kernel, cfg.mesh
        self.spec, self.opts = cfg.spec, cfg.opts
        self.out_dir = cfg.out_dir
        self.audit = audit_kernel(cfg.kernel)

    @cached_property
    def op(self):
        return assemble(self.mesh, self.kernel, audit=self.audit)

    @cached_property
    def spectrum(self):
        return solve_eigenproblem(self.op)

    @cached_property
    def classification(self):
        return nl.classify(self.spec, self.spectrum)


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
                         "gap": list(f2.gap),
                         "lower_margin": f2.lower_margin,
                         "upper_margin": f2.upper_margin,
                         "inverse_bound": f2.inverse_bound,
                         "contraction": f2.contraction}
    else:
        verdict["f2"] = None
    verdict["supported"] = cls.case is not nl.Case.UNSUPPORTED
    verdict["all_hypotheses_pass"] = bool(
        pipe.audit.passed and growth.passed
        and cls.case is not nl.Case.UNSUPPORTED
        and (verdict["f2"] is None or verdict["f2"]["pass"]))
    return verdict


def cmd_spectrum(pipe: Pipeline, count: int, vectors: bool) -> int:
    sp = pipe.spectrum
    count = min(count, sp.size)
    header = ["j", "lambda"]
    rows = [[j + 1, float(sp.eigenvalues[j])] for j in range(count)]
    if vectors:
        header += [f"node_{i}" for i in range(1, pipe.op.size + 1)]
        # E of the printed modes' unit coefficients
        vecs = sp.from_eigen(np.eye(sp.size, count))
        for row, vec in zip(rows, vecs.T):
            row += vec.tolist()
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
    if cls.case is nl.Case.UNSUPPORTED:
        return _refuse(pipe, "solve", cls.reason)
    if cls.case is nl.Case.COERCIVE:
        report = solve_case_a(pipe.op, pipe.spec, pipe.opts,
                              classification=cls)
    else:
        report = solve_case_b(pipe.op, pipe.spectrum, pipe.spec, pipe.opts,
                              classification=cls)
    uniqueness = None
    starts = pipe.cfg.starts
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
    text = _json_dumps(dataclasses.asdict(probe))
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
    try:  # InvalidParameterError is a ValueError
        return check_count("count", int(text), 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}") from exc


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
        cfg = parse_config(Path(args.config).read_bytes())
        if args.seed is not None:
            with _at("/solver/seed"):
                cfg = dataclasses.replace(cfg, opts=dataclasses.replace(
                    cfg.opts, seed=args.seed))
    except OSError as exc:
        sys.stderr.write(f"cannot read config: {exc}\n")
        return EXIT_IO
    except ConfigError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_NUMERIC

    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=Path(args.out))

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
