"""Print a fingerprint of the solvers' outputs on fixed draws: one line per
case, then one line that hashes all of them, so that two versions of the
package can be compared line by line.

    PYTHONPATH=src python scripts/output_fingerprint.py [--quick]

The draws are made at s in {1/4, 1/2, 3/4} and N in {32, 128, 512}, with
seeds 1-10 (--quick: N = 32 and seed 1 only).  For each (s, N): the
resonant affine(lambda_2, g = 0) probe and linear solves with weights at,
near and across lambda_2; for each seed: two coercive draws, certified
gap draws for k = 1, 2, 3 and an f2-failing draw whose slope range
straddles lambda_3.  Without --quick a further case is the benchmark
sweep's fixed one: N = 512, s = 1/2, saturating(lambda_2 + 0.2,
0.6 (lambda_3 - lambda_2), g = 5), solved and probed from 8 starts with
seed 42.  A case line holds the iteration count, the repr of J, of the
weak-form residual and of the probe's `max_pair_ratio`, the probe's
verdict and each start's Newton count ("None" where a start did not
converge), the probe's number of block MINRES solves (`rounds`, counted
by wrapping `solvers._minres_steps` for the probe: one per round of its
longest start when MINRES is a round's only barrier), a sha256 prefix of
the solution and of the representatives, and the message of a refusal; "-" marks a field the case does not have.
For each (s, N) there is also one line per geometry probe of the built-in
families, affine, saturating(delta = 0.5) and bounded_perturbation(c =
0.3), with g = 1 + 2x and slope m in gap k = 0-3 (k = 0: m = lambda_1/2),
and, last before the hash, one line for each of the saddle_geometry
benchmark's two probes (N = 384, s = 1/2: affine(20, g = 0) in gap 2 and
affine(0, g = 1) coercive).  A geometry line holds the repr of every
`RadiusSample`, head then tail, `floor_estimate` and `separated`, or the
refusal.  Rounding depends on the BLAS thread count, so compare runs made
with the same.
"""

import argparse
import hashlib
import sys

import numpy as np

import nonlocal_saddle as ns
from nonlocal_saddle import nonlinearity as nl
from nonlocal_saddle import solvers
from nonlocal_saddle.errors import NonlocalSaddleError

S_VALUES = (0.25, 0.5, 0.75)
N_VALUES = (32, 128, 512)
SEEDS = tuple(range(1, 11))
#: starts of every uniqueness probe
N_STARTS = 4


def _probe(*args, **kwargs):
    """uniqueness_probe(*args, **kwargs) and its number of block MINRES
    solves, counted by wrapping `solvers._minres_steps` for the call."""
    minres_steps, rounds = solvers._minres_steps, []

    def counted(*steps_args):
        rounds.append(None)
        return minres_steps(*steps_args)

    solvers._minres_steps = counted
    try:
        verdict = ns.uniqueness_probe(*args, **kwargs)
    finally:
        solvers._minres_steps = minres_steps
    return verdict, len(rounds)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _fields(report=None, verdict=None, rounds=None, solution=None,
            refusal=None) -> str:
    """The case line's fields: of a SolveReport, a UniquenessVerdict and
    its block MINRES solves, a bare solution array and a refusal, each "-"
    when absent."""
    if report is not None:
        solution = report.solution
    out = {
        "it": "-" if report is None else report.iterations,
        "J": "-" if report is None else repr(report.j_value),
        "res": "-" if report is None else repr(report.residual_inf),
        "u": "-" if solution is None else _digest([solution]),
        "verdict": "-" if verdict is None else verdict.kind,
        "ratio": "-" if verdict is None else repr(verdict.max_pair_ratio),
        "iters": "-" if verdict is None else ",".join(
            str(count) for count in verdict.iterations),
        "rounds": "-" if rounds is None else rounds,
        "reps": "-" if verdict is None else _digest(verdict.representatives),
    }
    text = " ".join(f"{key}={value}" for key, value in out.items())
    return f"{text} refusal={refusal or '-'}"


def _run(case):
    """case() as its fields, or the refusal it raised."""
    try:
        return _fields(**case())
    except NonlocalSaddleError as exc:
        return _fields(refusal=f"{type(exc).__name__}: {exc}")


def _solve_and_probe(op, sp, spec, k, opts, n_starts=N_STARTS):
    rep = ns.solve_case_b(op, sp, spec, opts)
    verdict, rounds = _probe(op, sp, spec, k, n_starts=n_starts, opts=opts)
    return {"report": rep, "verdict": verdict, "rounds": rounds}


def _sweep_fixed_case():
    """(line prefix, case) of the benchmark sweep's fixed certified case."""
    op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, 512),
                     ns.make_fractional_kernel(0.5))
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    spec = nl.saturating(lam[1] + 0.2, 0.6 * (lam[2] - lam[1]),
                         nl.constant_profile(5.0))
    return "s=0.5 N=512 seed=42 sweep-fixed-f2-certified", \
        lambda: _solve_and_probe(op, sp, spec, 2, ns.SolverOptions(seed=42),
                                 n_starts=8)


def _operator_cases(op, sp):
    """(name, case) of the draws fixed by the operator alone."""
    lam = sp.eigenvalues
    gap = lam[2] - lam[1]
    opts = ns.SolverOptions()
    one = nl.constant_profile(1.0)

    def resonant():
        spec = nl.affine(float(lam[1]), nl.constant_profile(0.0))
        verdict, rounds = _probe(op, sp, spec, 2, n_starts=N_STARTS,
                                 opts=opts)
        return {"verdict": verdict, "rounds": rounds,
                "refusal": nl.classify(spec, sp).reason}

    yield "resonant-affine-lambda2", resonant
    weights = {"at": float(lam[1]), "within-margin": float(lam[1]) + 5e-10,
               "across": lambda x: lam[1] + 0.1 * gap * x,
               "below": float(lam[1]) - 0.25 * (lam[1] - lam[0]),
               "above": float(lam[1]) + 0.25 * gap}
    for name, weight in weights.items():
        yield f"linear-{name}-lambda2", lambda weight=weight: {
            "solution": ns.linear_nonresonant_solve(op, sp, weight, one)}


def _seed_cases(op, sp, seed):
    """(name, case) of the draws of one seed."""
    lam = sp.eigenvalues
    rng = np.random.default_rng(seed)
    u = rng.uniform
    opts = ns.SolverOptions(seed=seed)
    families = {"saturating": nl.saturating,
                "bounded_perturbation": nl.bounded_perturbation}
    for family, make in families.items():
        # the largest slope, (m + w) lambda_1, is at most 0.9 lambda_1
        spec = make(u(-0.5, 0.6) * lam[0], u(0.0, 0.3) * lam[0],
                    nl.constant_profile(u(-2.0, 2.0)))
        yield f"coercive-{family}", lambda spec=spec: {
            "report": ns.solve_case_a(op, spec, opts)}
    for k in (1, 2, 3):
        family = str(rng.choice(list(families)))
        lo, hi = lam[k - 1], lam[k]
        m = lo + u(0.15, 0.6) * (hi - lo)
        # saturating slopes fill [m, m + w]; bounded ones [m - w, m + w]
        room = hi - m if family == "saturating" else min(m - lo, hi - m)
        spec = families[family](m, u(0.2, 0.7) * room,
                                nl.constant_profile(u(-2.0, 2.0)))
        yield f"gap-k{k}-{family}", lambda spec=spec, k=k: _solve_and_probe(
            op, sp, spec, k, opts)
    lo, hi = lam[1], lam[2]
    m = lo + u(0.2, 0.5) * (hi - lo)
    # the slope range [m, m + delta] ends beyond lambda_3
    spec = nl.saturating(m, hi - m + u(0.2, 0.5) * (hi - lo),
                         nl.constant_profile(u(-2.0, 2.0)))
    yield "f2-fails-k2", lambda spec=spec: _solve_and_probe(op, sp, spec, 2,
                                                            opts)


def _geometry_line(probe) -> str:
    """A geometry probe's line: every RadiusSample, the floor and
    `separated`, or the refusal the probe raised."""
    try:
        p = probe()
    except NonlocalSaddleError as exc:
        return f"refusal={type(exc).__name__}: {exc}"
    samples = " ".join(repr(sample) for sample in p.head + p.tail)
    return f"{samples} floor={p.floor_estimate!r} separated={p.separated}"


def _geometry_cases(op, sp):
    """(name, probe) of the built-in families' geometry probes in gaps
    k = 0-3."""
    lam = sp.eigenvalues
    g = nl.polynomial_profile((1.0, 2.0))
    for k in range(4):
        m = lam[0] / 2.0 if k == 0 else (lam[k - 1] + lam[k]) / 2.0
        specs = {"affine": nl.affine(m, g),
                 "saturating": nl.saturating(m, 0.5, g),
                 "bounded_perturbation": nl.bounded_perturbation(m, 0.3, g)}
        for family, spec in specs.items():
            yield f"geometry-{family}-k{k}", \
                lambda spec=spec, k=k: ns.geometry_probe(op, sp, spec, k)


def _benchmark_geometry_cases():
    """(line prefix, probe) of the saddle_geometry benchmark's probes."""
    op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, 384),
                     ns.make_fractional_kernel(0.5))
    sp = ns.solve_eigenproblem(op)
    for name, m, g, k in (("gap-k2", 20.0, 0.0, 2),
                          ("coercive", 0.0, 1.0, 0)):
        spec = nl.affine(m, nl.constant_profile(g))
        yield f"s=0.5 N=384 seed=- benchmark-geometry-{name}", \
            lambda spec=spec, k=k: ns.geometry_probe(op, sp, spec, k)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="N = 32 and seed 1 only")
    args = parser.parse_args(argv)
    n_values, seeds = ((32,), (1,)) if args.quick else (N_VALUES, SEEDS)
    total = hashlib.sha256()

    def emit(line):
        total.update(line.encode() + b"\n")
        print(line, flush=True)

    for s in S_VALUES:
        kernel = ns.make_fractional_kernel(s)
        for n in n_values:
            op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, n), kernel)
            sp = ns.solve_eigenproblem(op)
            cases = [("-", name, case)
                     for name, case in _operator_cases(op, sp)]
            cases += [(seed, name, case) for seed in seeds
                      for name, case in _seed_cases(op, sp, seed)]
            for seed, name, case in cases:
                emit(f"s={s} N={n} seed={seed} {name}: {_run(case)}")
            for name, probe in _geometry_cases(op, sp):
                emit(f"s={s} N={n} seed=- {name}: {_geometry_line(probe)}")
    if not args.quick:
        prefix, case = _sweep_fixed_case()
        emit(f"{prefix}: {_run(case)}")
    for prefix, probe in _benchmark_geometry_cases():
        emit(f"{prefix}: {_geometry_line(probe)}")
    print(f"all: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
