#!/usr/bin/env python3
"""Benchmark of the nonlocal_saddle pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up (a cold package import in a fresh
interpreter, plus building the workload's inputs from the seed) is timed
three times.  Then passes of the workload run one after another in this
process for up to S seconds: at least one pass, two for cli_roundtrip.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics.  With --trace 1 the passes cycle through untraced,
span-traced and allocation-traced ones, and the last line holds the
per-layer metrics.  The spans are written to
.perfbench_out/trace-NAME-seedN.json.  The line before the last records the
environment, each pass's wall, CPU and reference time, the calibration
blocks and any failed checks.  Every reported time is CPU time turned into
seconds of the reference host by hostspeed.Timeline.  NOTES.md defines
every metric."""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: one BLAS thread: on a shared 2-core machine two threads made a repeated
#: N = 1024 eigh spread 3-15% (quartile distance over median), one thread
#: 0.6-2%, so two would measure the neighbours rather than the program
BLAS_THREADS = 1
for _var in BLAS_VARS:  # before numpy loads, inherited by every child
    os.environ[_var] = str(BLAS_THREADS)

import hostspeed  # noqa: E402  (imports numpy)
from harness import ALLOC_METRICS, Pass  # noqa: E402

IMPORT_CODE = ("import time; t = time.process_time(); import nonlocal_saddle; "
               "print(time.process_time() - t)")

#: metric names and units; a traced run reports every per-layer metric,
#: and a layer the workload does not call reads 0
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def cold_import_s() -> float:
    """CPU time of `import nonlocal_saddle` inside a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.strip())


def blas_threads(default: str) -> str:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__)
                                      + ".libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return default


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": nproc, "blas_vendor": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads(os.environ[BLAS_VARS[0]]),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit(),
            "source_sha256": digest.hexdigest(), "machine": platform.machine()}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nonlocal_saddle" / "__init__.py").is_file():
        sys.stderr.write(f"no package source under {SRC}\n")
        return 2
    nproc = len(os.sched_getaffinity(0))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    import workloads
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}\n")
        return 2

    # the child times its import itself; it is scaled by the host speed of
    # the stretch the child ran in
    setup = hostspeed.Timeline()
    marks = []
    for _ in range(SETUP_REPEATS):
        before = setup.now()
        imported = cold_import_s()
        start = setup.now()
        inputs = workload.build(args.seed, WORK)
        marks.append((imported, before, start, setup.now()))
        setup.calibrate()
    imports = [cpu * setup.seconds(a, b) / (b - a) for cpu, a, b, _ in marks]
    setups = [i + setup.seconds(b, c)
              for i, (_, _, b, c) in zip(imports, marks)]

    # a traced run cycles through plain, span and allocation passes
    kinds = ("plain", "spans", "alloc") if args.trace else ("plain",)
    # the run's length is wall time; what a pass reports is reference time
    t0 = time.perf_counter()
    passes: list[tuple[Pass, float]] = []
    walls, cpus = [], []
    while len(passes) < max(workload.min_passes, len(kinds)) or (
            time.perf_counter() - t0 + statistics.median(walls)
            <= args.seconds):
        p = Pass(kinds[len(passes) % len(kinds)])
        start, wall = p.timeline.now(), time.perf_counter()
        workload.run(p, inputs, len(passes))
        end = p.timeline.now()
        walls.append(time.perf_counter() - wall)
        cpus.append(end - start)
        if p.kind == "spans" and workload.traced_extra:
            workload.traced_extra(p, inputs)
        p.finish()
        passes.append((p, p.timeline.seconds(start, end)))

    env = environment(nproc)
    checks, failed = distinct_checks(passes)
    plain = [w for p, w in passes if p.kind == "plain"]
    if args.trace:
        values = layer_values(passes, imports)
        values["trace.overhead_s"] = statistics.median(
            w for p, w in passes if p.kind == "spans"
        ) - statistics.median(plain)
        values["checks.failed_ratio"] = len(failed) / len(checks)
        trace = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace.write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "environment": env, "metrics": values,
                        "passes": [{"kind": p.kind, "seconds": w,
                                    "spans": p.spans_with_self_time()}
                                   for p, w in passes]}, indent=1))
    else:
        runs = [p for p, _ in passes]
        # each case's time is its median over the passes
        by_case: dict[str, list[float]] = {}
        for p in runs:
            for case, seconds in p.case_times.items():
                by_case.setdefault(case, []).append(seconds)
        cases = [statistics.median(t) for t in by_case.values()]
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setups),
            "case_s_p50": statistics.median(cases),
            "case_s_max": max(cases),
            # where the pass runs CLI children, the largest child counts
            "peak_rss_mb": max(
                p.counts.get("cli.child_peak_rss_mb", 0.0) for p in runs
            ) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passed_ratio": 1.0 - len(failed) / len(checks),
        }
    print(json.dumps({"environment": env,
                      "passes": len(passes),
                      "pass_wall_s": walls,
                      "pass_cpu_s": cpus,
                      "pass_reference_s": [w for _, w in passes],
                      "calibration_block_s": [
                          tl.blocks for tl in [setup] + [
                              p.timeline for p, _ in passes]],
                      "failed_checks": [
                          {k: c[k] for k in ("case", "name", "detail",
                                             "defect")} for c in failed]}))
    print(json.dumps({
        "correct": all(c["defect"] for c in failed),
        "attempted": len(checks), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in values.items()}}))
    return 0


def distinct_checks(passes) -> tuple[list[dict], list[dict]]:
    """Each check counted once per run, however many passes repeated it, so
    that `attempted` and `failed` do not depend on how many passes fit in
    the run.  A check fails if it failed in any pass; the first failure is
    the one kept."""
    first: dict[tuple, dict] = {}
    for p, _ in passes:
        for c in p.checks:
            key = (c["case"], c["name"])
            if key not in first or (first[key]["ok"] and not c["ok"]):
                first[key] = c
    checks = list(first.values())
    return checks, [c for c in checks if not c["ok"]]


def layer_values(passes, imports) -> dict:
    """Per-layer metrics: the median over span passes of each layer's
    total, and tracemalloc peaks from the allocation passes."""
    def med(kind, name):
        return statistics.median(p.layer_metrics().get(name, 0.0)
                                 for p, _ in passes if p.kind == kind)

    values = {m["name"]: med("spans", m["name"]) for m in SPEC["per_layer"]}
    for name in ALLOC_METRICS.values():
        values[name] = med("alloc", name)
    probes = med("spans", "solvers.uniqueness_probes")
    values["solvers.uniqueness_conclusive_ratio"] = (
        med("spans", "solvers.uniqueness_conclusive") / probes
        if probes else 0.0)
    values["package.import_s"] = statistics.median(imports)
    return values


if __name__ == "__main__":
    sys.exit(main())
