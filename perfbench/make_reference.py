#!/usr/bin/env python3
"""Write perfbench/reference.json: the seed-independent outputs the
workloads check against.  Run it from the repository root on the commit
whose outputs are the reference:

    python3 perfbench/make_reference.py

Only values that do not depend on the workload seed are stored; the
seed-drawn cases are checked against structural truths instead."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nonlocal_saddle as ns  # noqa: E402
from nonlocal_saddle import cli  # noqa: E402
from nonlocal_saddle import nonlinearity as nl  # noqa: E402
from nonlocal_saddle.config import parse_config  # noqa: E402

import workloads as w  # noqa: E402


def spectrum(kernel, n):
    op = ns.assemble(ns.build_uniform_mesh(*w.DOMAIN, n), kernel)
    return op, ns.solve_eigenproblem(op)


def main():
    ref = {}
    for s, n in ([(s, n) for s in w.LADDER_S for n in w.LADDER_N]
                 + [(w.SWEEP_S, w.SWEEP_N), (w.GEOMETRY_S, w.GEOMETRY_N)]):
        _, sp = spectrum(ns.make_fractional_kernel(s), n)
        ref[f"fractional-s{s}-n{n}"] = {"lambda": sp.eigenvalues[:5].tolist()}

    op, sp = spectrum(ns.make_fractional_kernel(w.SWEEP_S), w.SWEEP_N)
    lam = sp.eigenvalues
    spec = nl.saturating(lam[1] + 0.2, 0.6 * (lam[2] - lam[1]),
                         nl.constant_profile(5.0))
    rep = ns.solve_case_b(op, sp, spec, ns.SolverOptions())
    ref["sweep_fixed"] = {"j_value": rep.j_value}

    raw = w._build_cli(0, HERE.parent / ".perfbench_out")["raw"]
    pipe = cli.Pipeline(parse_config(json.dumps(raw)))
    rep = ns.solve_case_b(pipe.op, pipe.spectrum, pipe.spec, pipe.opts,
                          classification=pipe.classification)
    ref["cli"] = {"lambda": pipe.spectrum.eigenvalues[:10].tolist(),
                  "j_value": rep.j_value}

    (HERE / "reference.json").write_text(json.dumps(ref, indent=2) + "\n")


if __name__ == "__main__":
    main()
