import dataclasses
import itertools
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import child_env, eigenvector_matrix

import nonlocal_saddle as ns
from nonlocal_saddle import cli
from nonlocal_saddle import nonlinearity as nl
from nonlocal_saddle.assembly import norm_Z
from nonlocal_saddle import solvers
from nonlocal_saddle.errors import (InvalidParameterError,
                                    NonConvergenceError,
                                    NonResonanceContradictionError,
                                    NumericError,
                                    ResonanceError,
                                    UnsupportedCaseError)
from nonlocal_saddle.solvers import (_sphere_samples, eval_J, eval_gradient,
                                     linear_nonresonant_solve, load_vector,
                                     residual_weakform)

OPTS = ns.SolverOptions()


@pytest.mark.parametrize("bad", [
    {"tol": 0.0}, {"tol": -1e-9}, {"tol": math.nan}, {"tol": math.inf},
    {"tol": True}, {"tol": "1e-9"},
    {"max_iter": 0}, {"max_iter": -1}, {"max_iter": 2.5}, {"max_iter": True},
    {"seed": -1}, {"seed": 0.5}, {"seed": None},
])
def test_solver_options_refuse_bad_values(bad):
    """the rules validate_config applies under /solver"""
    with pytest.raises(InvalidParameterError):
        ns.SolverOptions(**bad)


def test_solver_options_accept_the_boundary_values():
    opts = ns.SolverOptions(tol=1, max_iter=np.int64(1), seed=0)
    assert (opts.tol, opts.max_iter, opts.seed) == (1, 1, 0)


@pytest.fixture(scope="module")
def gap_spec():
    return nl.saturating(20.0, 0.5, nl.constant_profile(1.0))


def test_gradient_matches_finite_differences(op128, rng, gap_spec):
    """central difference of J along random directions reproduces J'."""
    u = rng.standard_normal(op128.size)
    grad = eval_gradient(op128, gap_spec, u)
    eps = 1e-6
    for _ in range(5):
        d = rng.standard_normal(op128.size)
        d /= np.linalg.norm(d)
        fd = (eval_J(op128, gap_spec, u + eps * d)
              - eval_J(op128, gap_spec, u - eps * d)) / (2.0 * eps)
        assert fd == pytest.approx(float(grad @ d), rel=1e-6, abs=1e-8)


def test_load_vector_of_constant_source(op128):
    """for f(x,u) = g constant the load is M applied to the interpolant."""
    spec = nl.affine(0.0, nl.constant_profile(3.0))
    b = load_vector(op128, spec, np.zeros(op128.size))
    ref = op128.mass @ np.full(op128.size, 3.0)
    # boundary elements see g against the hat, not its interpolant truncation
    np.testing.assert_allclose(b[1:-1], ref[1:-1], rtol=1e-12)
    assert b[0] == pytest.approx(3.0 * op128.mesh.h, rel=1e-12)


def test_linear_nonresonant_solve_1x1():
    """single dof, hand-checkable: u = h / (a11 - 2mh/3)."""
    mesh = ns.build_uniform_mesh(-1.0, 1.0, 2)
    op = ns.assemble(mesh, ns.make_fractional_kernel(0.5))
    sp = ns.solve_eigenproblem(op)
    a11 = op.stiffness[0, 0]
    h = mesh.h
    m = 1.0
    u = linear_nonresonant_solve(op, sp, m, nl.constant_profile(1.0))
    assert u[0] == pytest.approx(
        h / (a11 - m * 2.0 * h / 3.0), rel=1e-12)
    with pytest.raises(InvalidParameterError):  # a profile is not an array
        linear_nonresonant_solve(op, sp, np.array([m]),
                                 nl.constant_profile(1.0))


@pytest.mark.parametrize("source", ["scalar", "callable"])
@pytest.mark.parametrize("gap", [0, 2])
def test_linear_solve_of_a_zero_source_is_zero(fractional_op, gap, source):
    """a zero source has the unique solution u = 0, in gap 0 (m = 0) as in
    gap 2 (m midway between lambda_2 and lambda_3): MINRES returns the zero
    step at once, and its backward error is 0, not 0/0"""
    op = fractional_op(0.5, 32)
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    m = 0.0 if gap == 0 else 0.5 * (lam[1] + lam[2])
    assert solvers._place(m, m, lam)[0] == gap
    g = 0.0 if source == "scalar" else (lambda x: 0.0 * x)
    u = linear_nonresonant_solve(op, sp, m, g)
    assert u.shape == (op.size,)
    assert not u.any()


def test_linear_solve_matches_direct_inverse(op128, spectrum128, rng):
    for m in (0.0, 10.0, 20.0):
        g_val = float(rng.uniform(-2.0, 2.0))
        u = linear_nonresonant_solve(op128, spectrum128, m,
                                     nl.constant_profile(g_val))
        spec = nl.affine(m, nl.constant_profile(g_val))
        b = load_vector(op128, spec, np.zeros(op128.size))
        b -= m * (op128.mass @ np.zeros(op128.size))
        # direct: (A - mM) u = load of g alone
        g_load = load_vector(op128, nl.affine(0.0, nl.constant_profile(g_val)),
                             np.zeros(op128.size))
        direct = np.linalg.solve(op128.stiffness - m * op128.mass, g_load)
        np.testing.assert_allclose(u, direct, atol=1e-10)


def test_linear_solve_refuses_resonance(op128, spectrum128):
    lam2 = float(spectrum128.eigenvalues[1])
    for profile, message in ((lam2, "touches"), (lam2 + 5e-10, "touches"),
                             (lambda x: lam2 + x, "straddles")):
        with pytest.raises(ResonanceError, match=message):
            linear_nonresonant_solve(op128, spectrum128, profile,
                                     nl.constant_profile(1.0))


@pytest.mark.parametrize("profile,message", [
    pytest.param(math.nan, "NaN or inf", id="nan"),
    pytest.param(lambda x: np.where(np.asarray(x) > 0.5, np.nan, 1.0),
                 "NaN or inf", id="<lambda>"),
    pytest.param(math.inf, "NaN or inf", id="inf"),
    pytest.param("abc", "real scalar or callable, got str", id="str"),
    pytest.param(True, "real scalar or callable, got bool", id="bool")])
def test_linear_solve_refuses_non_finite_weight_as_such(op128, spectrum128,
                                                        profile, message):
    """a NaN weight, everywhere or on part of Omega, is bad input, not
    resonance; an infinite one is not a weight above every eigenvalue.  A
    source g as bad is refused by the same check, not as a numeric
    failure of the solve.  A string is not a number, and True is not the
    weight 1."""
    with pytest.raises(InvalidParameterError, match=message) as info:
        linear_nonresonant_solve(op128, spectrum128, profile,
                                 nl.constant_profile(1.0))
    assert not isinstance(info.value, ResonanceError)
    with pytest.raises(InvalidParameterError, match=message):
        linear_nonresonant_solve(op128, spectrum128, 0.0, profile)


def test_resonance_refusals_agree_at_the_margin(spectrum128, monkeypatch):
    """the linear solve, classify, the slope-gap check and the step of an
    uncertified gap run place a weight next to an eigenvalue the same way,
    also at exactly GAP_MARGIN from it: the constant slopes of affine(w)
    take the resonant step exactly where classify refuses w"""
    lam, margin = spectrum128.eigenvalues, nl.GAP_MARGIN
    op = spectrum128.op
    step = solvers._gap_steps(op, spectrum128, None)
    u = np.cos(3.0 * op.mesh.interior_nodes)
    counts = _count_steps(monkeypatch)
    for k in range(1, 6):
        edges = (lam[k - 1] - margin, lam[k - 1] + margin)
        weights = [*edges, *(np.nextafter(e, d) for e in edges
                             for d in (-np.inf, np.inf)),
                   lam[k - 1] - 2 * margin, lam[k - 1] + 2 * margin,
                   lam[k - 1] + margin + 5e-13]
        for w in weights:
            cls = nl.classify_slopes(w, w, lam)
            try:
                linear_nonresonant_solve(op, spectrum128, w,
                                         nl.constant_profile(1.0))
                refused = False
            except ResonanceError:
                refused = True
            assert refused == (cls.case is nl.Case.UNSUPPORTED), (k, w)
            spec = nl.affine(w, nl.constant_profile(1.0))
            counts.update(minres=0, resonant=0)
            solvers._drive(spectrum128, step(solvers._slopes(op, spec, u),
                                             eval_gradient(op, spec, u)))
            assert counts == {"minres": 1 - refused, "resonant": refused}, \
                (k, w)
            for j in (k - 1, k) if k > 1 else (k,):
                passed = nl.check_f2_gap(spec, spectrum128, j).passed
                assert passed == (cls.case is nl.Case.GAP and cls.k == j), \
                    (k, w, j)


def test_certified_singular_system_raises():
    """eigenvalues shifted by 1 certify the true lambda_2 as nonresonant;
    the singular system A - lambda_2 M is then a contradiction, not a
    resonant step"""
    op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, 32),
                     ns.make_fractional_kernel(0.5))
    sp = ns.solve_eigenproblem(op)
    shifted = dataclasses.replace(sp, eigenvalues=sp.eigenvalues + 1.0)
    with pytest.raises(NonResonanceContradictionError):
        linear_nonresonant_solve(op, shifted, float(sp.eigenvalues[1]),
                                 nl.constant_profile(1.0))


def _count_steps(monkeypatch):
    """Count the Newton steps solved by MINRES and in the
    eigen-coordinates of a resonant iterate from now on:
    {"minres": .., "resonant": ..}"""
    counts = {"minres": 0, "resonant": 0}
    for key, name in (("minres", "_minres_step"),
                      ("resonant", "_resonant_step")):
        def spy(*args, key=key, solve=getattr(solvers, name)):
            counts[key] += 1
            return solve(*args)

        monkeypatch.setattr(solvers, name, spy)
    return counts


def _minres_calls(monkeypatch):
    """Record (iterations, budget) of every row of every block MINRES
    from now on, iterations None where the row missed its tolerance.  The
    rows come in the order in which the runs yield their systems, which is
    the order of the `_minres_step` calls."""
    calls = []
    minres = solvers._minres

    def spy(apply, rhs, tol, budgets):
        found = minres(apply, rhs, tol, budgets)
        calls.extend((f[1] if f else None, int(budget))
                     for f, budget in zip(found, budgets))
        return found

    monkeypatch.setattr(solvers, "_minres", spy)
    return calls


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_certified_step_matches_the_lu_step(fractional_op, monkeypatch, s,
                                            n):
    """the MINRES step in eigen-coordinates equals the dense solve of
    A - W to 1e-10 in relative Z-norm, at an iterate whose Hessian has
    Morse index k, for k = 1, 2, 3; and so does the step that an
    uncertified run gives an iterate of an f2-failing spec whose own
    slopes lie in gap 3"""
    op = fractional_op(s, n)
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    x = op.mesh.interior_nodes
    u = 2.0 * np.cos(3.0 * x) + x
    for k in (1, 2, 3):
        spec = _fixed_gap_spec(lam, k)
        certificate = solvers._f2_passed(spec, sp, k)
        slopes, grad = solvers._slopes(op, spec, u), eval_gradient(op, spec, u)
        step = solvers._drive(sp, solvers._minres_step(op, sp, slopes, grad,
                                                       certificate.gap))
        lu = np.linalg.solve(solvers._system(op, slopes), -grad)
        assert norm_Z(op, step - lu) <= 1e-10 * norm_Z(op, lu), (k,)
    # slopes (m, m + delta] run from gap 2 into gap 3: no certificate
    m = lam[1] + 0.5 * (lam[2] - lam[1])
    spec = nl.saturating(m, lam[2] + 0.5 * (lam[3] - lam[2]) - m,
                         nl.constant_profile(1.0))
    assert solvers._f2_passed(spec, sp, 2) is None
    u = 0.1 * u  # small, so the slopes lie near m + delta
    slopes, grad = solvers._slopes(op, spec, u), eval_gradient(op, spec, u)
    assert solvers._place(slopes.min(), slopes.max(), lam)[0] == 3
    counts = _count_steps(monkeypatch)
    step = solvers._drive(sp, solvers._gap_steps(op, sp, None)(slopes, grad))
    assert counts == {"minres": 1, "resonant": 0}
    lu = np.linalg.solve(solvers._system(op, slopes), -grad)
    assert norm_Z(op, step - lu) <= 1e-10 * norm_Z(op, lu)


@pytest.mark.parametrize("n", [16, 32, 64, 128, 512, 1024])
def test_newton_step_takes_least_squares_at_resonance(fractional_op,
                                                      monkeypatch, n):
    """at the exactly resonant slope lambda_2 (affine f, g = 0) the step
    of an uncertified gap run is taken in the eigen-coordinates, not by
    LU, and it is the minimum-norm least-squares step: the gradient
    (A - lambda_2 M) u is in the range of the system, so u + d is the
    Euclidean projection of u onto span(e_2), to 1e-12 relative to u.
    At N = 512 the LU pivot ratio of A - lambda_2 M is 2.4e-12, and a
    factored step misses that projection by 8.6e-2."""
    op = fractional_op(0.5, n)
    sp = ns.solve_eigenproblem(op)
    spec = nl.affine(float(sp.eigenvalues[1]), nl.constant_profile(0.0))
    u = np.random.default_rng(n).standard_normal(op.size)
    slopes = solvers._slopes(op, spec, u)
    counts = _count_steps(monkeypatch)
    step = solvers._gap_steps(op, sp, None)
    d = solvers._drive(sp, step(slopes, eval_gradient(op, spec, u)))
    assert counts == {"minres": 0, "resonant": 1}
    coeffs = np.zeros(sp.size)
    coeffs[1] = 1.0
    e2 = sp.from_eigen(coeffs)
    projection = e2 * (e2 @ u) / (e2 @ e2)
    np.testing.assert_allclose(u + d, projection, rtol=0,
                               atol=1e-12 * np.abs(u).max())


def test_certified_iterations_do_not_grow_with_n(fractional_op, monkeypatch):
    """the MINRES iterations of a certified solve stay within the budget
    that each iterate's own slope range gives in its gap, which is at most
    the bound of the certificate's wider range, and at N = 2048 within
    twice those at N = 512"""
    calls = _minres_calls(monkeypatch)
    own = []
    minres_step = solvers._minres_step

    def spy(op, spectrum, slopes, grad, gap):
        rho = solvers._contraction(slopes.min(), slopes.max(), *gap)
        own.append(solvers._minres_bound(rho))
        return minres_step(op, spectrum, slopes, grad, gap)

    monkeypatch.setattr(solvers, "_minres_step", spy)
    most = {}
    for n in (512, 2048):
        op = fractional_op(0.5, n)
        sp = ns.solve_eigenproblem(op)
        spec = _fixed_gap_spec(sp.eigenvalues, 2)
        certificate = solvers._f2_passed(spec, sp, 2)
        calls.clear()
        own.clear()
        ns.solve_case_b(op, sp, spec, OPTS)
        assert calls and len(calls) == len(own)
        bound = solvers._minres_bound(certificate.contraction)
        assert all(it is not None and it <= cap == mine <= bound
                   for (it, cap), mine in zip(calls, own)), \
            (n, calls, own, bound)
        most[n] = max(it for it, _ in calls)
    assert most[2048] <= 2 * most[512], most


def test_forged_spectrum_in_a_certified_solve_raises(fractional_op):
    """eigenvalues shifted by 1 certify a slope range in their gap 2, but
    the MINRES steps then solve another system than A - W: the backward
    error check refuses the first"""
    op = fractional_op(0.5, 64)
    sp = ns.solve_eigenproblem(op)
    forged = dataclasses.replace(sp, eigenvalues=sp.eigenvalues + 1.0)
    spec = _fixed_gap_spec(forged.eigenvalues, 2)
    assert solvers._f2_passed(spec, forged, 2) is not None
    with pytest.raises(NonResonanceContradictionError, match="backward"):
        ns.solve_case_b(op, forged, spec, OPTS)


def test_slopes_leaving_the_declared_range_raise(fractional_op):
    """a custom f whose f_t = m + 5 gap t^2 reaches past lambda_3 at the
    iterate, although its declared slope range lies in gap 2: the certified
    run refuses the step instead of solving a system outside the
    certificate"""
    op = fractional_op(0.5, 64)
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    gap = lam[2] - lam[1]
    m = lam[1] + 0.5 * gap
    spec = nl.custom(lambda x, t: m * t + 5.0 * gap * t ** 3 / 3.0 + 1.0,
                     lambda x: np.ones_like(x), m, nl.constant_profile(m),
                     nl.constant_profile(m), slope_range=(m, m + 0.1 * gap),
                     f_t=lambda x, t: m + 5.0 * gap * t * t)
    assert nl.classify(spec, sp).k == 2
    certificate = solvers._f2_passed(spec, sp, 2)
    assert certificate is not None
    with pytest.raises(NonResonanceContradictionError, match="leave"):
        solvers._drive(sp, solvers._newton(op, spec, sp, 2, certificate,
                                           np.full(op.size, 3.0), OPTS))


def test_uncertified_step_in_a_gap_takes_minres_within_its_budget(
        fractional_op, monkeypatch):
    """an uncertified iterate whose slopes lie in gap 2 takes MINRES
    whatever its contraction, within the budget min(`_minres_bound`(rho),
    2 n + MINRES_SLACK) at system size n: a slope profile spanning 90% of
    the gap (rho = 0.9, bound 626) gets the size cap 130 at N = 64, one
    spanning 20% (rho = 0.2) its bound 46; both steps equal the dense
    solve"""
    op = fractional_op(0.5, 64)
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    xg, _, _ = op.gauss
    grad = eval_gradient(op, _fixed_gap_spec(lam, 2), np.ones(op.size))
    step = solvers._gap_steps(op, sp, None)
    counts = _count_steps(monkeypatch)
    calls = _minres_calls(monkeypatch)
    for width, bound, budget in ((0.9, 626, 130), (0.2, 46, 46)):
        # slope profile over [lambda_2, lambda_3] centred in the gap
        slopes = lam[1] + (0.5 + 0.5 * width * xg) * (lam[2] - lam[1])
        lo, hi = slopes.min(), slopes.max()
        rho = solvers._contraction(lo, hi, *solvers._place(lo, hi, lam)[1])
        assert rho == pytest.approx(width, abs=0.01)
        assert solvers._minres_bound(rho) == bound
        counts.update(minres=0, resonant=0)
        calls.clear()
        d = solvers._drive(sp, step(slopes, grad))
        assert counts == {"minres": 1, "resonant": 0}, width
        [(iterations, cap)] = calls
        assert cap == budget and iterations <= budget, (width, calls)
        lu = np.linalg.solve(solvers._system(op, slopes), -grad)
        assert norm_Z(op, d - lu) <= 1e-10 * norm_Z(op, lu)


@pytest.mark.parametrize("n", [8, 12])
def test_straddling_steps_stay_within_twice_the_system_size(fractional_op,
                                                             monkeypatch, n):
    """saturating(lambda_3 + 0.02 gap, 2 gap, g = 1) at s = 1/4, gap =
    lambda_4 - lambda_3, probed from 4 starts: iterates whose slopes
    straddle an eigenvalue take MINRES with the budget 2 n +
    MINRES_SLACK, n the system size, and every such call reaches
    MINRES_TOL within it; at least one needs more than n + MINRES_SLACK,
    so that a budget without the factor 2 raises NumericError here"""
    op = fractional_op(0.25, n)
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    gap = lam[3] - lam[2]
    spec = nl.saturating(lam[2] + 0.02 * gap, 2.0 * gap,
                         nl.constant_profile(1.0))
    calls = _minres_calls(monkeypatch)
    gaps = []
    minres_step = solvers._minres_step

    def spy(op, spectrum, slopes, grad, gap):
        gaps.append(gap)
        return minres_step(op, spectrum, slopes, grad, gap)

    monkeypatch.setattr(solvers, "_minres_step", spy)
    ns.uniqueness_probe(op, sp, spec, 3, n_starts=4)
    assert len(gaps) == len(calls)
    straddling = [call for gap, call in zip(gaps, calls) if gap is None]
    budget = 2 * op.size + solvers.MINRES_SLACK
    assert straddling
    assert all(it is not None and it <= cap == budget
               for it, cap in straddling), straddling
    assert max(it for it, _ in straddling) > op.size + solvers.MINRES_SLACK


def test_singular_straddling_system_raises(fractional_op):
    """slopes that straddle lambda_3, shifted by the eigenvalue of the
    pencil (A - W, M) nearest 0, make A - W singular up to rounding (W is
    linear in the slopes, and a constant slope mu weights M by mu): an
    uncertified step against a random gradient, which no step solves,
    raises NumericError instead of returning a step of rounding size
    times the inverse of a vanishing pivot"""
    import scipy.linalg
    op = fractional_op(0.5, 64)
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    xg, _, _ = op.gauss
    slopes = lam[2] + 0.3 * (lam[3] - lam[2]) * xg
    shifts = scipy.linalg.eigh(solvers._system(op, slopes), op.mass,
                               eigvals_only=True)
    slopes = slopes + shifts[np.argmin(np.abs(shifts))]
    assert solvers._place(slopes.min(), slopes.max(), lam)[0] is None
    grad = np.random.default_rng(64).standard_normal(op.size)
    with pytest.raises(NumericError, match="in no gap"):
        solvers._drive(sp, solvers._gap_steps(op, sp, None)(slopes, grad))


def _block_rows(op, sp, weight=0.5):
    """(slopes, gap) of three MINRES rows at op: the constant `weight` of
    the way through gap 2 (rho = 0), a profile over 80% of gap 2 and one
    straddling lambda_3 (gap None), each placed by `_place`"""
    lam = sp.eigenvalues
    xg, _, _ = op.gauss
    gap = lam[2] - lam[1]
    rows = []
    for slopes in (np.full_like(xg, lam[1] + weight * gap),
                   lam[1] + (0.5 + 0.4 * xg) * gap,
                   lam[2] + 0.3 * (lam[3] - lam[2]) * (xg + 0.5)):
        rows.append((slopes, solvers._place(slopes.min(), slopes.max(),
                                            lam)[1]))
    assert [gap is None for _, gap in rows] == [False, False, True]
    return rows


def _block_spy(monkeypatch):
    """Record, for every block MINRES from now on, the number of rows
    applied by each of its iterations and each row's count (None where
    the row missed): a list of (applied, counts)"""
    blocks = []
    minres = solvers._minres

    def spy(apply, rhs, tol, budgets):
        applied = []

        def counted(rows, z):
            applied.append(len(rows))
            return apply(rows, z)

        found = minres(counted, rhs, tol, budgets)
        blocks.append((applied, [f[1] if f else None for f in found]))
        return found

    monkeypatch.setattr(solvers, "_minres", spy)
    return blocks


def test_a_row_leaves_the_block_once_it_stops(fractional_op, monkeypatch):
    """one block MINRES of three rows that stop after different counts
    applies the operator once per iteration, to the rows still running:
    as many applies as the largest count, not the sum of the counts, and
    as many rows applied as the counts add up to.  Each row's step equals
    its step solved alone to 1e-12 in relative Z-norm."""
    op = fractional_op(0.5, 64)
    sp = ns.solve_eigenproblem(op)
    grad = np.cos(3.0 * op.mesh.interior_nodes) + 0.5
    rows = _block_rows(op, sp)
    blocks = _block_spy(monkeypatch)
    steps = solvers._lockstep(sp, [
        solvers._minres_step(op, sp, slopes, grad, gap)
        for slopes, gap in rows])
    [(applied, counts)] = blocks
    assert None not in counts and len(set(counts)) == 3, counts
    assert len(applied) == max(counts) < sum(counts)
    assert sum(applied) == sum(counts), (applied, counts)
    for (slopes, gap), step in zip(rows, steps):
        alone = solvers._drive(sp, solvers._minres_step(op, sp, slopes,
                                                        grad, gap))
        assert norm_Z(op, step - alone) <= 1e-12 * norm_Z(op, alone)


def test_each_row_of_a_block_raises_its_own_error(fractional_op,
                                                  monkeypatch):
    """in one block MINRES, a row in gap 2 whose budget (cut to 3 here)
    is missed raises NonResonanceContradictionError, and a row whose
    slopes straddle lambda_3 and make A - W singular raises NumericError,
    while a straddling row beside them returns its step: each row keeps
    its own budget, stopping test and error type"""
    import scipy.linalg
    op = fractional_op(0.5, 64)
    sp = ns.solve_eigenproblem(op)
    (_, _), (in_gap, gap), (straddling, _) = _block_rows(op, sp)
    singular = straddling.copy()
    shifts = scipy.linalg.eigh(solvers._system(op, singular), op.mass,
                               eigvals_only=True)
    singular += shifts[np.argmin(np.abs(shifts))]
    assert solvers._place(singular.min(), singular.max(),
                          sp.eigenvalues)[0] is None
    grad = np.random.default_rng(64).standard_normal(op.size)
    monkeypatch.setattr(solvers, "_minres_bound", lambda rho: 3)
    blocks = _block_spy(monkeypatch)
    outcomes = solvers._lockstep(sp, [
        solvers._minres_step(op, sp, slopes, grad, which)
        for slopes, which in ((in_gap, gap), (straddling, None),
                              (singular, None))])
    [(_, counts)] = blocks
    assert counts[0] is None and counts[1] is not None, counts
    assert type(outcomes[0]) is NonResonanceContradictionError
    assert "within 3 iterations" in str(outcomes[0])
    assert isinstance(outcomes[1], np.ndarray)
    assert type(outcomes[2]) is NumericError
    assert "in no gap" in str(outcomes[2])


@pytest.mark.parametrize("n", [32, 128, 512])
def test_constant_weight_takes_the_same_count_alone_and_in_a_block(
        fractional_op, monkeypatch, n):
    """a constant weight in gap 2 has rho = 0 and the budget MINRES_SLACK
    alone: preconditioned, its system is +-I up to rounding, which MINRES
    solves in two iterations in exact arithmetic.  A quarter, half and
    three quarters of the way through the gap it takes the same count
    alone as in the middle of a block beside an in-gap profile and a
    straddling one, within that budget"""
    op = fractional_op(0.5, n)
    sp = ns.solve_eigenproblem(op)
    grad = np.cos(3.0 * op.mesh.interior_nodes) + 0.5
    calls = _minres_calls(monkeypatch)
    for weight in (0.25, 0.5, 0.75):
        (constant, gap), varying, straddling = _block_rows(op, sp, weight)
        calls.clear()
        solvers._drive(sp, solvers._minres_step(op, sp, constant, grad, gap))
        solvers._lockstep(sp, [
            solvers._minres_step(op, sp, slopes, grad, which)
            for slopes, which in (varying, (constant, gap), straddling)])
        alone, in_block = calls[0], calls[2]
        assert alone == in_block, (weight, calls)
        assert alone[0] <= alone[1] == solvers.MINRES_SLACK, (weight, calls)


def test_uncertified_solve_in_a_gap_loads_no_scipy(op128, spectrum128,
                                                   monkeypatch):
    """saturating(lambda_2 + 0.3 gap, 1.5 gap, g = 5) fails the slope-gap
    check, but each of its iterates' slopes lie in a gap: every step is a
    MINRES step, and a process that runs the solve loads no scipy.linalg"""
    lam = spectrum128.eigenvalues
    gap = lam[2] - lam[1]
    spec = nl.saturating(lam[1] + 0.3 * gap, 1.5 * gap,
                         nl.constant_profile(5.0))
    assert solvers._f2_passed(spec, spectrum128, 2) is None
    counts = _count_steps(monkeypatch)
    rep = ns.solve_case_b(op128, spectrum128, spec, OPTS)
    assert rep.residual_inf <= OPTS.tol
    assert counts == {"minres": rep.iterations, "resonant": 0}
    assert rep.iterations > 0
    code = ("lam = sp.eigenvalues\n"
            "gap = lam[2] - lam[1]\n"
            "spec = nl.saturating(lam[1] + 0.3 * gap, 1.5 * gap,\n"
            "                     nl.constant_profile(5.0))\n"
            "rep = ns.solve_case_b(op, sp, spec, ns.SolverOptions())\n"
            "print(rep.iterations, 'scipy.linalg' in sys.modules)\n")
    assert _first_lu_of_a_process(code) == f"{rep.iterations} False"


def test_case_a_matches_direct_solve(op128):
    spec = nl.affine(0.0, nl.constant_profile(1.0))
    rep = ns.solve_case_a(op128, spec, OPTS)
    assert residual_weakform(op128, spec, rep.solution) <= OPTS.tol
    g_load = load_vector(op128, spec, np.zeros(op128.size))
    direct = np.linalg.solve(op128.stiffness, g_load)
    np.testing.assert_allclose(rep.solution, direct, atol=1e-10)
    assert rep.residual_inf <= 1e-9


def test_case_a_falls_back_to_steepest_descent(op128, spectrum128,
                                               monkeypatch):
    """saturating(0, 1.5 lambda_1, g = 1) is coercive by its asymptotic
    slopes, but f_t = 1.5 lambda_1 at t = 0 makes the Hessian indefinite
    near 0, so Newton steps there need not descend; Armijo then searches
    along the Z-gradient -A^-1 grad, taken in the eigen-coordinates, and
    still reaches the minimizer."""
    lam1 = float(spectrum128.eigenvalues[0])
    spec = nl.saturating(0.0, 1.5 * lam1, nl.constant_profile(1.0))
    assert nl.classify(spec, spectrum128).case is nl.Case.COERCIVE
    ascent = []
    armijo = solvers._armijo

    def spy(op, spec, spectrum, u0):
        globalize = armijo(op, spec, spectrum, u0)

        def wrapped(u, step, grad, res):
            ascent.append(float(grad @ step) >= 0.0)
            return globalize(u, step, grad, res)
        return wrapped

    monkeypatch.setattr(solvers, "_armijo", spy)
    rep = ns.solve_case_a(op128, spec, OPTS)
    assert rep.residual_inf <= OPTS.tol
    assert ns.morse_index(op128, spec, rep.solution) == 0
    assert any(ascent)


@pytest.mark.parametrize("lo,hi", [(0.0, 1.5), (0.0, 1.2), (-1.0, 3.0)])
def test_case_a_fallback_converges_at_n512(ops_refinement, lo, hi):
    """saturating(lo lambda_1, hi lambda_1, g = 1) is coercive, but its
    Hessian is indefinite near 0.  Searching along the Euclidean -grad, a
    badly scaled direction for an H^s energy, left the residual at 6e-2 ..
    1.3e-1 after 200 iterations at N = 512; the Z-gradient takes 7 - 9.
    J < 0 = J(0) and Morse index 0: a minimizer, not the saddle that plain
    Newton from 0 reaches."""
    op = ops_refinement[512]
    sp = ns.solve_eigenproblem(op)
    lam1 = float(sp.eigenvalues[0])
    spec = nl.saturating(lo * lam1, hi * lam1, nl.constant_profile(1.0))
    assert nl.classify(spec, sp).case is nl.Case.COERCIVE
    rep = ns.solve_case_a(op, spec, OPTS)
    assert rep.residual_inf <= OPTS.tol
    assert rep.iterations <= 20
    assert rep.j_value < 0.0
    assert ns.morse_index(op, spec, rep.solution) == 0


#: J at the solution of saturating(0, lambda_j, g = 1) from u = 0, by N and
#: j: the minimizer, which every case reaches with one and with two BLAS
#: threads since the singular first step is taken in the eigen-coordinates
#: (`_resonant_step`).  A factored first step reached a saddle of Morse
#: index 2 at N = 512, j = 3 with one thread
SINGULAR_START_J = {
    32: (-1.0281535580183645, -25.930149492387613, -97.61101730143466),
    128: (-1.0358510343627199, -25.991318425473445, -97.82123048177303),
    512: (-1.0377789066829495, -26.000728429374163, -97.8478710697663),
}


@pytest.mark.parametrize("n", [32, 128, 512])
def test_case_a_converges_from_a_singular_start(ops_refinement, n):
    """f_t = lambda_j at u = 0 for saturating(0, lambda_j, g = 1), so the
    Hessian A - lambda_j M of the first Newton step is singular (the
    slopes touch lambda_j); its step, taken in the eigen-coordinates,
    still leads the Armijo search to the minimizer, a critical point of
    Morse index 0 below J(0) = 0, for j = 1, 2, 3, with J as recorded to
    1e-12"""
    op = ops_refinement[n]
    sp = ns.solve_eigenproblem(op)
    for j, expected in enumerate(SINGULAR_START_J[n], start=1):
        lam = float(sp.eigenvalues[j - 1])
        spec = nl.saturating(0.0, lam, nl.constant_profile(1.0))
        slopes = solvers._slopes(op, spec, np.zeros(op.size))
        assert solvers._place(slopes.min(), slopes.max(),
                              sp.eigenvalues)[0] is None, j
        rep = ns.solve_case_a(op, spec, OPTS)
        assert rep.residual_inf <= OPTS.tol, j
        assert rep.j_value < 0.0, j
        assert rep.j_value == pytest.approx(expected, rel=1e-12, abs=0), j
        assert ns.morse_index(op, spec, rep.solution) == 0, j


def test_case_a_refuses_a_zero_stiffness(op128, spectrum128):
    """a zero stiffness has every eigenvalue 0, so the slopes of a spec
    coercive on op128 touch all of them: the classification that
    solve_case_a makes on the operator's own spectrum refuses it before any
    step"""
    lam1 = float(spectrum128.eigenvalues[0])
    spec = nl.saturating(0.0, 1.5 * lam1, nl.constant_profile(1.0))
    bad = dataclasses.replace(op128, symbol=np.zeros_like(op128.symbol))
    with pytest.raises(UnsupportedCaseError, match="touches lambda_1"):
        ns.solve_case_a(bad, spec, OPTS)


def test_coercive_line_search_stall_raises_with_its_trace(op128,
                                                          spectrum128,
                                                          monkeypatch):
    """a J that rises at every evaluation leaves the Armijo search of a
    coercive run no step to accept in its 60 shortenings: the run raises
    NonConvergenceError at its first step, carrying the residual of the
    start"""
    spec = nl.saturating(0.0, 5.0, nl.constant_profile(1.0))
    cls = nl.classify(spec, spectrum128)
    assert cls.case is nl.Case.COERCIVE
    rising = itertools.count()
    monkeypatch.setattr(solvers, "eval_J", lambda *_: float(next(rising)))
    with pytest.raises(NonConvergenceError,
                       match="line search stalled at iteration 0") as info:
        ns.solve_case_a(op128, spec, OPTS, classification=cls)
    assert info.value.trace == [
        residual_weakform(op128, spec, np.zeros(op128.size))]
    assert info.value.trace[0] > OPTS.tol


def test_case_a_refuses_gap_problem(op128, spectrum128, gap_spec):
    cls = nl.classify(gap_spec, spectrum128)
    with pytest.raises(UnsupportedCaseError):
        ns.solve_case_a(op128, gap_spec, OPTS, classification=cls)


def test_case_b_refuses_coercive_problem(op128, spectrum128):
    """solve_case_b refuses a coercive classification, given or made on
    the spectrum, before any step"""
    spec = nl.saturating(0.0, 5.0, nl.constant_profile(1.0))
    cls = nl.classify(spec, spectrum128)
    assert cls.case is nl.Case.COERCIVE
    for given in (cls, None):
        with pytest.raises(UnsupportedCaseError, match="classified coercive"):
            ns.solve_case_b(op128, spectrum128, spec, OPTS,
                            classification=given)


def test_case_a_without_classification_refuses_gap_problem(op128, gap_spec):
    """without a classification solve_case_a classifies on the operator's
    own spectrum and refuses a gap spec, as solve_case_b refuses a
    coercive one, instead of running Newton ungated until it runs out of
    iterations"""
    with pytest.raises(UnsupportedCaseError, match="gap"):
        ns.solve_case_a(op128, gap_spec, OPTS)


def test_solvers_refuse_a_classification_of_another_operator(op128,
                                                             spectrum128):
    """both solvers solve against the spectrum their classification holds:
    one made on the same mesh over (-2, 2), where saturating(lambda_2 +
    0.2, 0.6 gap, g = 5) lies in gap 3 instead of gap 2, and one from
    classify_slopes, which holds no spectrum, are refused"""
    lam = spectrum128.eigenvalues
    gap = lam[2] - lam[1]
    gap_spec = nl.saturating(lam[1] + 0.2, 0.6 * gap,
                             nl.constant_profile(5.0))
    coercive = nl.saturating(0.0, 0.5, nl.constant_profile(1.0))
    wide = ns.solve_eigenproblem(ns.assemble(
        ns.build_uniform_mesh(-2.0, 2.0, 128), ns.make_fractional_kernel(0.5)))
    assert nl.classify(gap_spec, spectrum128).k == 2
    assert nl.classify(gap_spec, wide).k == 3
    for spec, solve in (
            (coercive, lambda cls: ns.solve_case_a(op128, coercive, OPTS,
                                                   classification=cls)),
            (gap_spec, lambda cls: ns.solve_case_b(op128, spectrum128,
                                                   gap_spec, OPTS,
                                                   classification=cls))):
        with pytest.raises(InvalidParameterError, match="another operator"):
            solve(nl.classify(spec, wide))
        bare = nl.classify_slopes(*nl._alpha_bounds(spec, op128.mesh),
                                  lam)
        assert bare == nl.classify(spec, spectrum128)
        with pytest.raises(InvalidParameterError, match="no spectrum"):
            solve(bare)


def test_case_a_minimizes(op128, rng):
    """J at the solution is below J at random perturbations."""
    spec = nl.saturating(0.0, 0.5, nl.constant_profile(1.0))
    rep = ns.solve_case_a(op128, spec, OPTS)
    j0 = eval_J(op128, spec, rep.solution)
    assert rep.j_value == pytest.approx(j0, rel=1e-12)
    for _ in range(10):
        d = rng.standard_normal(op128.size)
        assert eval_J(op128, spec, rep.solution + 0.1 * d) > j0


def test_case_a_converges_past_rounding_level_energy(op128, spectrum128):
    """near the minimizer the Armijo decrease falls below the rounding of
    J (a few hundred here); the line search must not stall there."""
    lam1 = float(spectrum128.eigenvalues[0])
    spec = nl.saturating(0.0, 0.9 * lam1, nl.constant_profile(50.0))
    rep = ns.solve_case_a(op128, spec, OPTS)
    assert abs(rep.j_value) > 100.0
    assert residual_weakform(op128, spec, rep.solution) <= OPTS.tol
    assert rep.iterations <= 10


def test_solvers_raise_with_trace_when_out_of_iterations(op128, spectrum128,
                                                         gap_spec):
    """one Newton step is not enough for either case; the error carries the
    residuals of the start and of the one iterate."""
    opts = ns.SolverOptions(max_iter=1)
    coercive = nl.saturating(0.0, 0.5, nl.constant_profile(1.0))
    for solve in (lambda: ns.solve_case_a(op128, coercive, opts),
                  lambda: ns.solve_case_b(op128, spectrum128, gap_spec,
                                          opts)):
        with pytest.raises(NonConvergenceError) as err:
            solve()
        assert len(err.value.trace) == 2
        assert err.value.trace[-1] > opts.tol


def test_uniqueness_probe_damping_switch(monkeypatch):
    """at N = 32, a certified start set backtracks on the merit and takes
    no `_z_capped` step; an f2-failing one (slopes reaching past lambda_3)
    runs full steps until the residual has stalled, then caps them, and
    still converges from every start."""
    op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, 32),
                     ns.make_fractional_kernel(0.5))
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    gap = lam[2] - lam[1]
    capped = []
    z_capped = solvers._z_capped

    def spy(op, spec):
        globalize = z_capped(op, spec)

        def wrapped(u, step, grad, res):
            new = yield from globalize(u, step, grad, res)
            capped.append(not np.array_equal(new[0], u + step))
            return new
        return wrapped

    monkeypatch.setattr(solvers, "_z_capped", spy)
    certified = nl.saturating(lam[1] + 0.2, 0.6 * gap,
                              nl.constant_profile(5.0))
    verdict = ns.uniqueness_probe(op, sp, certified, 2, n_starts=8,
                                  opts=ns.SolverOptions(seed=42))
    assert (verdict.kind, verdict.cut) == ("Unique", "certified")
    assert capped == []
    uncertified = nl.saturating(lam[1] + 0.02 * gap, 1.2 * gap,
                                nl.constant_profile(5.0))
    verdict = ns.uniqueness_probe(op, sp, uncertified, 2, n_starts=8,
                                  opts=ns.SolverOptions(seed=42))
    assert (verdict.kind, verdict.cut) == ("Unique", "heuristic")
    assert any(capped)


def _capped_steps(op, residuals):
    """which steps of `_z_capped` were shortened for a residual sequence;
    the steps grow so that any cap taken earlier bites.  Each step is run
    by `_drive`, which answers the rule's gradient request"""
    sp = ns.solve_eigenproblem(op)
    globalize = solvers._z_capped(op,
                                  nl.affine(0.0, nl.constant_profile(0.0)))
    u = np.zeros(op.size)
    base = np.ones(op.size)
    capped = []
    for it, res in enumerate(residuals):
        step = (it + 1.0) * base
        moved = solvers._drive(sp, globalize(u, step, None, res))
        capped.append(not np.array_equal(moved[0], u + step))
    return capped


def test_z_capped_switches_after_a_stall(fractional_op):
    """STALL_STEPS steps without a new minimum switch the cap on, for a
    2-cycle, whose residual rises only on every other step, as for a
    diverging run.  A new minimum every STALL_STEPS steps keeps the steps
    full."""
    op = fractional_op(0.5, 16)
    n = solvers.STALL_STEPS
    cycle = [1.0 if it % 2 == 0 else 2.0 for it in range(n + 4)]
    assert _capped_steps(op, cycle) == [False] * (n + 1) + [True] * 3
    descending = [0.5 ** (it // n) * (1.0 if it % n == 0 else 2.0)
                  for it in range(4 * n)]
    assert not any(_capped_steps(op, descending))
    rising = [1.0 + it for it in range(n + 4)]
    assert _capped_steps(op, rising) == [False] * (n + 1) + [True] * 3


def test_merit_rule_falls_back_to_the_full_step(fractional_op,
                                                 monkeypatch):
    """along the reversed Newton step -d of a certified iterate the merit
    |g|_{Z*}^2 / 2 rises at rate +2 phi, so none of the MERIT_HALVINGS + 1
    trials passes the ARMIJO_FRACTION test and the rule takes the full
    step: exactly u - d with its gradient and residual, neither None nor
    the last, shortest trial"""
    op = fractional_op(0.5, 64)
    sp = ns.solve_eigenproblem(op)
    spec = _fixed_gap_spec(sp.eigenvalues, 2)
    certificate = solvers._f2_passed(spec, sp, 2)
    assert certificate is not None
    u = np.cos(3.0 * op.mesh.interior_nodes)
    grad, res = solvers._gradient(op, spec, u)
    d = solvers._drive(sp, solvers._gap_steps(op, sp, certificate)(
        solvers._slopes(op, spec, u), grad))
    globalize = solvers._merit_backtracking(op, spec, sp)
    trials = []
    gradient = solvers._gradient

    def spy(op, spec, trial):
        trials.append(trial)
        return gradient(op, spec, trial)

    monkeypatch.setattr(solvers, "_gradient", spy)
    moved = solvers._drive(sp, globalize(u, -d, grad, res))
    monkeypatch.undo()
    assert len(trials) == solvers.MERIT_HALVINGS + 1
    assert moved is not None
    full = u - d
    assert np.array_equal(moved[0], full)
    grad_full, res_full = solvers._gradient(op, spec, full)
    assert np.array_equal(moved[1], grad_full) and moved[2] == res_full


def _fixed_gap_spec(lam, k):
    """saturating(lambda_k + 0.2, 0.6 gap, g = 5), certified unique by the
    slope gap k"""
    return nl.saturating(lam[k - 1] + 0.2, 0.6 * (lam[k] - lam[k - 1]),
                         nl.constant_profile(5.0))


@pytest.mark.parametrize("n,k", [(32, 1), (32, 2), (32, 3),
                                 (128, 1), (128, 2), (128, 3)])
def test_uniqueness_probe_escapes_two_cycles(fractional_op, n, k):
    """the certified probe of `_fixed_gap_spec` finds one solution.  When
    only three rises in a row switched a Z-norm cap on, a start caught in a
    Newton 2-cycle made it Inconclusive for k = 1 and 3; under the absolute
    1e-8 Z-distance cut it reported MultipleFound for N = 128, k = 2 (limits
    2.3e-8 apart)."""
    op = fractional_op(0.5, n)
    sp = ns.solve_eigenproblem(op)
    spec = _fixed_gap_spec(sp.eigenvalues, k)
    verdict = ns.uniqueness_probe(op, sp, spec, k, n_starts=8,
                                  opts=ns.SolverOptions(seed=42))
    assert verdict.f2_passed
    assert (verdict.kind, verdict.cut) == ("Unique", "certified")


def test_certified_error_bound_holds_and_decides(fractional_op, monkeypatch):
    """every limit u_i of the certified N = 128, k = 1 probe lies within
    C (|g_i|_{Z*} + |g_ref|_{Z*}) of a reference solved to tol 1e-13, as
    both lie within their bounds of the one solution, and the probe says
    Unique although two limits lie more than the old absolute cut of 1e-8
    apart."""
    op = fractional_op(0.5, 128)
    sp = ns.solve_eigenproblem(op)
    spec = _fixed_gap_spec(sp.eigenvalues, 1)
    certificate = solvers._f2_passed(spec, sp, 1)
    limits = []
    lockstep = solvers._lockstep

    def spy(spectrum, runs):
        outcomes = lockstep(spectrum, runs)
        limits.extend(out[:2] for out in outcomes)
        return outcomes

    monkeypatch.setattr(solvers, "_lockstep", spy)
    verdict = ns.uniqueness_probe(op, sp, spec, 1, n_starts=8,
                                  opts=ns.SolverOptions(seed=42))
    monkeypatch.undo()
    assert (verdict.kind, verdict.cut) == ("Unique", "certified")
    assert verdict.max_pairwise_z > 1e-8
    assert len(limits) == 8
    u_ref = ns.solve_case_b(op, sp, spec, ns.SolverOptions(tol=1e-13)).solution
    c = certificate.inverse_bound
    ref_bound = c * float(sp.dual_norms(eval_gradient(op, spec, u_ref)))
    for u, grad in limits:
        bound = c * float(sp.dual_norms(grad))
        assert norm_Z(op, u - u_ref) <= bound + ref_bound


def test_merit_slope_is_minus_twice_the_merit(fractional_op):
    """along the Newton step d at a certified point whose Hessian is
    indefinite, the merit phi = |g|_{Z*}^2 / 2 has d phi(u + t d)/dt = -2 phi
    at t = 0 (a central difference)"""
    op = fractional_op(0.5, 64)
    sp = ns.solve_eigenproblem(op)
    spec = _fixed_gap_spec(sp.eigenvalues, 2)
    certificate = solvers._f2_passed(spec, sp, 2)
    assert certificate is not None
    x = op.mesh.interior_nodes
    u = 2.0 * np.cos(3.0 * x) + x
    assert ns.morse_index(op, spec, u) == 2
    grad = eval_gradient(op, spec, u)
    step = solvers._drive(sp, solvers._minres_step(
        op, sp, solvers._slopes(op, spec, u), grad, certificate.gap))

    def phi(t):
        g = eval_gradient(op, spec, u + t * step)
        return 0.5 * float(sp.dual_norms(g)) ** 2

    eps = 1e-5
    slope = (phi(eps) - phi(-eps)) / (2.0 * eps)
    assert slope == pytest.approx(-2.0 * phi(0.0), rel=1e-6)


@pytest.mark.parametrize("family,certified", [
    pytest.param("saturating", True, id="saturating"),
    pytest.param("bounded_perturbation", True, id="bounded_perturbation"),
    pytest.param("saturating", False, id="saturating-uncertified")])
def test_newton_system_is_the_gradient_jacobian(fractional_op, monkeypatch,
                                                family, certified):
    """the system the Newton driver solves at u equals central differences
    of the gradient at u, column by column: A minus the W whose bands the
    MINRES step applies, certified or not."""
    op = fractional_op(0.5, 64)
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    gap = lam[2] - lam[1]
    g = nl.polynomial_profile([1.0, 2.0])
    spec = (nl.saturating(lam[1] + 0.1 * gap, (0.5 if certified else 1.2)
                          * gap, g)
            if family == "saturating"
            else nl.bounded_perturbation(lam[1] + 0.5 * gap, 0.3 * gap, g))
    certificate = solvers._f2_passed(spec, sp, 2)
    assert (certificate is not None) == certified
    x = op.mesh.interior_nodes
    u = 2.0 * np.cos(3.0 * x) + x
    systems = []
    weight_bands = solvers._weight_bands

    def spy(op, slopes):
        bands = weight_bands(op, slopes)
        diag, off = bands
        systems.append(op.stiffness - np.diag(diag) - np.diag(off, 1)
                       - np.diag(off, -1))
        return bands

    monkeypatch.setattr(solvers, "_weight_bands", spy)
    with pytest.raises(NonConvergenceError):
        solvers._drive(sp, solvers._newton(op, spec, sp, 2, certificate, u,
                                           ns.SolverOptions(max_iter=1)))
    assert len(systems) == 1
    eps = 1e-5
    fd = np.empty((op.size, op.size))
    for j in range(op.size):
        e = np.zeros(op.size)
        e[j] = eps
        fd[:, j] = (eval_gradient(op, spec, u + e)
                    - eval_gradient(op, spec, u - e)) / (2.0 * eps)
    # compare the f_t-weighted mass parts; A itself is linear
    weight, weight_fd = op.stiffness - systems[0], op.stiffness - fd
    np.testing.assert_allclose(weight_fd, weight,
                               atol=1e-8 * np.abs(weight).max())


def test_case_b_converges_and_is_critical(op128, spectrum128, gap_spec):
    rep = ns.solve_case_b(op128, spectrum128, gap_spec, OPTS)
    assert residual_weakform(op128, gap_spec, rep.solution) <= OPTS.tol
    assert rep.residual_inf <= 1e-9
    assert rep.iterations <= 25
    grad = eval_gradient(op128, gap_spec, rep.solution)
    assert np.max(np.abs(grad)) < 1e-8


def test_case_b_converges_without_slope_gap_certificate(op128,
                                                       spectrum128,
                                                       monkeypatch):
    """slope ranges that reach past lambda_3 (no slope-gap certificate)
    still converge with the gap policy: f2-failing points of the grid
    saturating(lambda_2 + a gap, b gap, g = 5).  Every step is a MINRES
    step, at iterates whose slopes lie in a gap and at those, at least
    one, whose slopes straddle an eigenvalue."""
    lam = spectrum128.eigenvalues
    gap = lam[2] - lam[1]
    uncertified = 0
    counts = _count_steps(monkeypatch)
    straddling = 0
    place = solvers._place

    def spy(lo, hi, eigenvalues):
        nonlocal straddling
        found = place(lo, hi, eigenvalues)
        straddling += found[0] is None and lo < hi
        return found

    monkeypatch.setattr(solvers, "_place", spy)
    for a in (0.02, 0.1, 0.3, 0.5):
        for b in (0.8, 1.0, 1.2, 1.5):
            spec = nl.saturating(lam[1] + a * gap, b * gap,
                                 nl.constant_profile(5.0))
            cls = nl.classify(spec, spectrum128)
            assert cls.case is nl.Case.GAP and cls.k == 2
            if nl.check_f2_gap(spec, spectrum128, 2).passed:
                continue
            uncertified += 1
            rep = ns.solve_case_b(op128, spectrum128, spec, OPTS,
                                  classification=cls)
            assert residual_weakform(op128, spec, rep.solution) <= OPTS.tol
    assert uncertified == 14
    assert counts["resonant"] == 0 and counts["minres"] > 0, counts
    assert straddling > 0


def test_case_b_saddle_signature(op128, spectrum128, gap_spec):
    """at the gap solution J decreases along the head, increases along the
    orthogonal tail (the minimax structure)."""
    rep = ns.solve_case_b(op128, spectrum128, gap_spec, OPTS)
    u = rep.solution
    j0 = eval_J(op128, gap_spec, u)
    E = eigenvector_matrix(spectrum128)
    for j in (0, 1):  # head directions, k = 2
        for sgn in (+1.0, -1.0):
            assert eval_J(op128, gap_spec, u + sgn * 0.5 * E[:, j]) < j0
    for j in (2, 5, 20):  # tail directions
        for sgn in (+1.0, -1.0):
            assert eval_J(op128, gap_spec, u + sgn * 0.5 * E[:, j]) > j0


def test_morse_index_equals_gap_index(op128, spectrum128):
    for m, k in ((10.0, 1), (20.0, 2), (30.0, 3)):
        spec = nl.saturating(m, 0.5, nl.constant_profile(1.0))
        rep = ns.solve_case_b(op128, spectrum128, spec, OPTS)
        assert ns.morse_index(op128, spec, rep.solution) == k


@pytest.mark.parametrize("n, exponents", [
    (32, (0.25, 0.5, 0.75)), (128, (0.25, 0.5, 0.75)),
    (512, (0.25, 0.5, 0.75)), (1024, (0.75,))],
    ids=["32", "128", "512", "1024-s0.75"])
def test_morse_index_equals_the_eigvalsh_count(fractional_op, n, exponents):
    """at random iterates of both bounded families, with slope ranges that
    straddle several eigenvalues from gap 1, 2, 3 or the middle of the
    spectrum on, the Bunch-Kaufman count equals the number of negative
    eigenvalues of the Hessian, computed here by eigvalsh; at least one of
    the Hessians factors with a 2 x 2 pivot block, so the count of the
    blocks is exercised too"""
    from scipy.linalg import lapack
    rng = np.random.default_rng(n)
    blocks = 0
    for s in exponents:
        op = fractional_op(s, n)
        lam = ns.solve_eigenproblem(op).eigenvalues
        for family in (nl.saturating, nl.bounded_perturbation):
            for k in (1, 2, 3, op.size // 2):
                spec = family(lam[k - 1] + 0.3 * (lam[k] - lam[k - 1]),
                              2.0 * (lam[k + 1] - lam[k - 1]),
                              nl.constant_profile(1.0))
                u = rng.uniform(-3.0, 3.0, op.size)
                hessian = solvers._system(op, solvers._slopes(op, spec, u))
                want = int(np.sum(np.linalg.eigvalsh(hessian) < 0.0))
                assert ns.morse_index(op, spec, u) == want, (s, k, family)
                # a 2 x 2 block marks both its rows with a negative ipiv
                blocks += np.count_nonzero(lapack.dsytrf(hessian)[1] < 0) // 2
    assert blocks > 0


@pytest.mark.parametrize("u, nan_slopes, error", [
    pytest.param(np.nan, False, InvalidParameterError, id="nan-u"),
    pytest.param(np.inf, False, InvalidParameterError, id="inf-u"),
    pytest.param(0.0, True, NumericError, id="nan-f_t"),
])
def test_morse_index_refuses_a_non_finite_iterate(op128, gap_spec, u,
                                                  nan_slopes, error):
    """a u that is not finite is refused as a parameter, and slopes that are
    not finite as a numeric failure, before the Hessian is factored: an
    infinite u has finite saturating slopes, so nothing else would refuse
    it, and a NaN Hessian factors without a complaint"""
    if nan_slopes:
        gap_spec = dataclasses.replace(gap_spec, f_t=_nan)
    with pytest.raises(error, match="not finite"):
        ns.morse_index(op128, gap_spec, np.full(op128.size, u))


def test_residual_weakform_zero_at_linear_solution(op128, spectrum128):
    spec = nl.affine(10.0, nl.constant_profile(1.0))
    u = linear_nonresonant_solve(op128, spectrum128, 10.0,
                                 nl.constant_profile(1.0))
    assert residual_weakform(op128, spec, u) < 1e-12


def test_uniqueness_probe_unique_under_f2(op128, spectrum128, gap_spec):
    verdict = ns.uniqueness_probe(op128, spectrum128, gap_spec, 2,
                                  n_starts=8, opts=OPTS)
    assert verdict.kind == "Unique"
    assert verdict.max_pairwise_z <= 1e-8
    assert verdict.max_pair_ratio <= 1.0
    assert verdict.n_starts == 8


def test_uniqueness_probe_resonant_multiple(op128, spectrum128):
    lam2 = float(spectrum128.eigenvalues[1])
    spec = nl.affine(lam2, nl.constant_profile(0.0))
    verdict = ns.uniqueness_probe(op128, spectrum128, spec, 2,
                                  n_starts=8, opts=OPTS)
    assert verdict.kind == "MultipleFound"
    assert verdict.max_pairwise_z > 1e-6
    assert verdict.max_pair_ratio > 1.0
    # every representative is a genuine critical point (on ker(A - lam2 M))
    for u in verdict.representatives:
        assert residual_weakform(op128, spec, np.asarray(u)) < 1e-8


def test_resonant_probe_follows_the_fredholm_alternative(fractional_op):
    """at the slope lambda_2, affine(lambda_2, g) has a solution only when
    the load of g is orthogonal to e_2.  For g = x it is not (e_2 is odd),
    and no start converges: Inconclusive at N = 256, 512 and 1024, where
    a factored step once reported a "solution" of Z-norm 1.6e13 as
    Unique at N = 512.  For g = 0 every multiple of e_2 solves it:
    MultipleFound at N = 32, 128, 512 and 1024."""
    opts = ns.SolverOptions(seed=42, max_iter=20)
    for profile, sizes, kind in (
            (nl.polynomial_profile([0.0, 1.0]), (256, 512, 1024),
             "Inconclusive"),
            (nl.constant_profile(0.0), (32, 128, 512, 1024),
             "MultipleFound")):
        for n in sizes:
            op = fractional_op(0.5, n)
            sp = ns.solve_eigenproblem(op)
            spec = nl.affine(float(sp.eigenvalues[1]), profile)
            load = sp.to_eigen(load_vector(op, spec, np.zeros(op.size)))
            # e_2^T b, zero exactly when the problem is solvable
            assert (abs(load[1]) > 1e-2) == (kind == "Inconclusive"), n
            verdict = ns.uniqueness_probe(op, sp, spec, 2, n_starts=4,
                                          opts=opts)
            assert verdict.kind == kind, (n, verdict)


def test_uniqueness_probe_inconclusive_when_a_start_fails(op128,
                                                         spectrum128,
                                                         gap_spec):
    verdict = ns.uniqueness_probe(op128, spectrum128, gap_spec, 2,
                                  n_starts=2,
                                  opts=ns.SolverOptions(max_iter=1))
    assert verdict.kind == "Inconclusive"
    assert verdict.f2_passed
    assert math.isnan(verdict.max_pairwise_z)
    assert verdict.iterations == (None, None)


@pytest.mark.parametrize("late, early, raised", [
    (NonConvergenceError, NumericError, None),
    (NumericError, NonConvergenceError, NumericError)],
    ids=["nonconvergence-first", "numeric-first"])
def test_probe_failures_count_in_start_order(op128, spectrum128, gap_spec,
                                             monkeypatch, late, early,
                                             raised):
    """the starts run in lockstep, but the first start to fail decides, as
    in a loop over the starts one at a time, however far the others got:
    start 2 fails after a round of Newton steps, start 3 before any.  A
    NonConvergenceError at start 2 gives Inconclusive with the counts of
    starts 0 and 1 although start 3 raised NumericError first; a
    NumericError at start 2 is raised although start 3 stopped first"""
    newton = solvers._newton
    starts = itertools.count()

    def spy(op, spec, spectrum, k, certificate, u0, opts):
        i = next(starts)
        if i == 3:
            raise early("start 3 fails before any step")
        if i == 2:
            try:
                yield from newton(op, spec, spectrum, k, certificate, u0,
                                  ns.SolverOptions(max_iter=1))
            except NonConvergenceError:
                raise late("start 2 fails after one step") from None
        return (yield from newton(op, spec, spectrum, k, certificate, u0,
                                  opts))

    monkeypatch.setattr(solvers, "_newton", spy)
    probe = lambda: ns.uniqueness_probe(op128, spectrum128, gap_spec, 2,
                                        n_starts=4, opts=OPTS)
    if raised is not None:
        with pytest.raises(raised, match="start 2"):
            probe()
        return
    verdict = probe()
    assert verdict.kind == "Inconclusive"
    assert all(it > 0 for it in verdict.iterations[:2])
    assert verdict.iterations[2:] == (None, None)


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("case", ["certified", "straddling", "resonant"])
def test_lockstep_probe_matches_each_start_alone(fractional_op, monkeypatch,
                                                 case, n):
    """the 8-start probe in lockstep gives the verdict, the cut and the
    per-start Newton counts of the same starts each run alone by the
    one-column driver, and representatives within 1e-12 of theirs in
    relative Z-norm: certified, f2-failing with steps whose slopes
    straddle lambda_3, and resonant (affine lambda_2, g = 0)"""
    op = fractional_op(0.5, n)
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    gap = lam[2] - lam[1]
    spec = {"certified": _fixed_gap_spec(lam, 2),
            "straddling": nl.saturating(lam[1] + 0.3 * gap, 1.5 * gap,
                                        nl.constant_profile(5.0)),
            "resonant": nl.affine(float(lam[1]),
                                  nl.constant_profile(0.0))}[case]
    straddled = 0
    place = solvers._place

    def spy(lo, hi, eigenvalues):
        nonlocal straddled
        found = place(lo, hi, eigenvalues)
        straddled += found[0] is None and lo < hi
        return found

    monkeypatch.setattr(solvers, "_place", spy)
    opts = ns.SolverOptions(seed=42)
    block = ns.uniqueness_probe(op, sp, spec, 2, n_starts=8, opts=opts)
    assert (straddled > 0) == (case == "straddling")
    lockstep = solvers._lockstep
    monkeypatch.setattr(solvers, "_lockstep", lambda spectrum, runs: [
        lockstep(spectrum, [run])[0] for run in runs])
    alone = ns.uniqueness_probe(op, sp, spec, 2, n_starts=8, opts=opts)
    assert block.kind != "Inconclusive"
    assert (block.kind, block.cut, block.iterations) == \
        (alone.kind, alone.cut, alone.iterations)
    assert len(block.representatives) == len(alone.representatives)
    for u, w in zip(block.representatives, alone.representatives):
        assert norm_Z(op, u - w) <= 1e-12 * norm_Z(op, w)


@pytest.mark.parametrize("n", [32, 33])
@pytest.mark.parametrize("family", ["affine", "saturating",
                                    "bounded_perturbation", "custom"])
def test_block_evaluations_match_each_column_alone(fractional_op, family,
                                                   n):
    """a block of 5 iterates, held as rows, gets row by row the bits of
    that row evaluated alone: its gradient, residual, slopes and W bands,
    at both parities of the interior size, for the three families and a
    custom f whose f_t is the central difference"""
    op = fractional_op(0.5, n)
    g = nl.polynomial_profile([1.0, 2.0])
    spec = {"affine": nl.affine(3.0, g),
            "saturating": nl.saturating(3.0, 7.0, g),
            "bounded_perturbation": nl.bounded_perturbation(3.0, 2.0, g),
            "custom": nl.custom(lambda x, t: 3.0 * t + 2.0 * np.sin(t) + x,
                                lambda x: 2.0 + np.abs(x), 3.0,
                                nl.constant_profile(3.0),
                                nl.constant_profile(3.0))}[family]
    u = np.random.default_rng(n).uniform(-10.0, 10.0, (5, op.size))
    grad, res = solvers._gradient(op, spec, u)
    slopes = solvers._slopes(op, spec, u)
    diag, off = solvers._weight_bands(op, slopes)
    assert grad.shape == u.shape and len(res) == 5
    for j, row in enumerate(u):
        grad_j, res_j = solvers._gradient(op, spec, row)
        slopes_j = solvers._slopes(op, spec, row)
        diag_j, off_j = solvers._weight_bands(op, slopes_j)
        assert np.array_equal(grad[j], grad_j) and res[j] == res_j, j
        assert np.array_equal(slopes[j], slopes_j), j
        assert np.array_equal(diag[j], diag_j), j
        assert np.array_equal(off[j], off_j), j


def test_minres_is_the_only_barrier_of_a_lockstep_round(fractional_op,
                                                        monkeypatch):
    """the benchmark sweep's fixed certified probe (N = 512, s = 1/2,
    `_fixed_gap_spec` in gap 2, seed 42, 8 starts) takes 5, 5, 4, 5, 6,
    5, 6, 4 Newton steps and solves its MINRES systems in 6 blocks, one
    per step of its longest start, each holding every start still
    running: a start whose merit test rejects a trial asks for more
    gradients in that round, and still joins the round's block"""
    op = fractional_op(0.5, 512)
    sp = ns.solve_eigenproblem(op)
    spec = _fixed_gap_spec(sp.eigenvalues, 2)
    blocks = []
    minres_steps = solvers._minres_steps

    def spy(spectrum, systems):
        blocks.append(len(systems))
        return minres_steps(spectrum, systems)

    monkeypatch.setattr(solvers, "_minres_steps", spy)
    verdict = ns.uniqueness_probe(op, sp, spec, 2, n_starts=8,
                                  opts=ns.SolverOptions(seed=42))
    assert verdict.iterations == (5, 5, 4, 5, 6, 5, 6, 4)
    assert blocks == [8, 8, 8, 8, 6, 2]


@pytest.mark.parametrize("resonant", [False, True],
                         ids=["certified", "resonant"])
def test_single_start_probe_is_inconclusive(fractional_op, resonant):
    """one start leaves no pair to compare: Inconclusive, with no cut and
    a NaN ratio, also for affine(lambda_2, g = 0), whose solutions form a
    line, which a single start once reported as Unique"""
    op = fractional_op(0.5, 32)
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    spec = (nl.affine(float(lam[1]), nl.constant_profile(0.0)) if resonant
            else nl.saturating(lam[1] + 0.2, 0.6 * (lam[2] - lam[1]),
                               nl.constant_profile(5.0)))
    verdict = ns.uniqueness_probe(op, sp, spec, 2, n_starts=1, opts=OPTS)
    assert verdict.kind == "Inconclusive"
    assert verdict.f2_passed == (not resonant)
    assert verdict.cut is None and math.isnan(verdict.max_pair_ratio)
    assert verdict.n_starts == 1


@pytest.mark.parametrize("case", ["certified", "uncertified", "resonant"])
def test_each_newton_step_places_its_iterate_once(fractional_op, monkeypatch,
                                                  case):
    """every Newton step of the probe, resonant steps included, compares
    its slope range with the spectrum exactly once (`_place`): the
    resonant step takes its null set from that placement"""
    op = fractional_op(0.5, 32)
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    gap = lam[2] - lam[1]
    spec = {"certified": nl.saturating(lam[1] + 0.2, 0.6 * gap,
                                       nl.constant_profile(5.0)),
            "uncertified": nl.saturating(lam[1] + 0.2 * gap, 0.8 * gap,
                                         nl.constant_profile(1.0)),
            "resonant": nl.affine(float(lam[1]),
                                  nl.constant_profile(0.0))}[case]
    counts = _count_steps(monkeypatch)
    places = 0
    place = solvers._place

    def spy(lo, hi, eigenvalues):
        nonlocal places
        places += 1
        return place(lo, hi, eigenvalues)

    monkeypatch.setattr(solvers, "_place", spy)
    ns.uniqueness_probe(op, sp, spec, 2, n_starts=4, opts=OPTS)
    assert places == counts["minres"] + counts["resonant"] > 0, counts
    assert (counts["resonant"] > 0) == (case == "resonant"), counts


@pytest.mark.parametrize("slope_range", [None, (20.0, 20.0)],
                         ids=["uncertified", "certified"])
def test_case_b_non_finite_system_raises_numeric_error(op128, spectrum128,
                                                       slope_range):
    """a NaN f_t makes the Newton system non-finite: NumericError,
    certified or not, raised by the Newton driver itself rather than
    mapped from an error of a step solver"""
    spec = nl.custom(lambda x, t: 20.0 * t + 1.0, lambda x: np.ones_like(x),
                     20.0, nl.constant_profile(20.0),
                     nl.constant_profile(20.0), slope_range=slope_range,
                     f_t=lambda x, t: np.full(np.broadcast(x, t).shape,
                                              np.nan),
                     F=lambda x, t: 10.0 * t * t + t)
    with pytest.raises(NumericError, match="not finite") as err:
        ns.solve_case_b(op128, spectrum128, spec, OPTS)
    assert err.value.__cause__ is None


def _first_lu_of_a_process(code: str, *args) -> str:
    """Run code in a fresh interpreter after building op and sp as op128
    and spectrum128 are built, with scipy.linalg not yet loaded; return
    its stdout."""
    setup = ("import sys\n"
             "import numpy as np\n"
             "import nonlocal_saddle as ns\n"
             "from nonlocal_saddle import nonlinearity as nl\n"
             "op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, 128),\n"
             "                 ns.make_fractional_kernel(0.5))\n"
             "sp = ns.solve_eigenproblem(op)\n"
             "assert 'scipy.linalg' not in sys.modules\n")
    out = subprocess.run([sys.executable, "-c", setup + code, *args],
                         env=child_env(), check=True, capture_output=True,
                         text=True, timeout=300)
    return out.stdout.strip()


@pytest.mark.parametrize("slope_range", [None, (20.0, 20.0)],
                         ids=["uncertified", "certified"])
def test_first_lu_of_a_process_maps_a_non_finite_system(slope_range):
    """the NaN-slope system above as the first Newton step of a process:
    NumericError either way, with no cause, and scipy.linalg left
    unloaded, since the iterate is refused before any step solver runs"""
    code = ("nan_t = lambda x, t: np.full(np.broadcast(x, t).shape, np.nan)\n"
            "spec = nl.custom(lambda x, t: 20.0 * t + 1.0,\n"
            "                 lambda x: np.ones_like(x), 20.0,\n"
            "                 nl.constant_profile(20.0),\n"
            "                 nl.constant_profile(20.0),\n"
            f"                 slope_range={slope_range!r}, f_t=nan_t,\n"
            "                 F=lambda x, t: 10.0 * t * t + t)\n"
            "try:\n"
            "    ns.solve_case_b(op, sp, spec, ns.SolverOptions())\n"
            "except ns.NumericError as exc:\n"
            "    print(type(exc.__cause__).__name__,\n"
            "          'scipy.linalg' in sys.modules)\n")
    assert _first_lu_of_a_process(code) == "NoneType False"


def _nan(x, t):
    return np.full(np.broadcast(x, t).shape, np.nan)


def _step_owner_run(owner, op, sp):
    """(spec, run, key) of a Newton run on op whose first step the step
    solver `owner` takes; run(spec, opts) drives it (`solve_case_a` in the
    classification on sp, or `_newton` in gap 2 from a fixed start under
    the certificate of spec, if any), and key names that solver in
    `_count_steps`.  The coercive run starts from 0, where the slopes of
    its spec are the constant 0, below lambda_1: its first step is a MINRES
    step in gap 0"""
    lam = sp.eigenvalues
    gap = lam[2] - lam[1]
    x = op.mesh.interior_nodes
    if owner == "coercive-minres":
        spec = nl.affine(0.0, nl.constant_profile(1.0))
        return spec, (lambda spec, opts: ns.solve_case_a(
            op, spec, opts, classification=nl.classify(spec, sp))), "minres"
    spec, start, key = {
        "certified-minres": (
            nl.saturating(20.0, 0.5, nl.constant_profile(1.0)),
            np.zeros(op.size), "minres"),
        "uncertified-minres": (
            nl.saturating(lam[1] + 0.3 * gap, 1.5 * gap,
                          nl.constant_profile(5.0)),
            np.zeros(op.size), "minres"),
        "resonant": (nl.affine(float(lam[1]), nl.constant_profile(0.0)),
                     np.cos(3.0 * x), "resonant"),
        # slopes (lambda_2 + gap/2, lambda_3 + gap/2]: |u| up to 3 puts them
        # on both sides of lambda_3
        "straddling-minres": (nl.saturating(lam[1] + 0.5 * gap, gap,
                                            nl.constant_profile(5.0)),
                              3.0 * np.cos(3.0 * x), "minres"),
    }[owner]
    if owner == "straddling-minres":
        slopes = solvers._slopes(op, spec, start)
        assert solvers._place(slopes.min(), slopes.max(), lam)[0] is None
    certificate = solvers._f2_passed(spec, sp, 2)
    assert (certificate is not None) == (owner == "certified-minres")
    return spec, (lambda spec, opts: solvers._drive(sp, solvers._newton(
        op, spec, sp, 2, certificate, start, opts))), key


@pytest.mark.parametrize("which", ["f", "f_t"])
@pytest.mark.parametrize("owner", ["coercive-minres", "certified-minres",
                                   "uncertified-minres", "resonant",
                                   "straddling-minres"])
def test_non_finite_iterate_raises_before_any_step(op128, spectrum128,
                                                   monkeypatch, owner,
                                                   which):
    """a NaN f (so a NaN gradient) or a NaN f_t (NaN slopes) is refused by
    the Newton driver with NumericError before any step solver is called,
    whichever solver would take the step: the iterate's finite twin takes
    its first step with exactly that solver.  In a fresh interpreter the
    uncertified in-gap run loads no scipy.linalg on the way."""
    spec, run, key = _step_owner_run(owner, op128, spectrum128)
    counts = _count_steps(monkeypatch)
    try:
        run(spec, ns.SolverOptions(max_iter=1))
    except NonConvergenceError:
        pass
    assert counts == {"minres": 0, "resonant": 0, key: 1}
    counts.update(minres=0, resonant=0)
    with pytest.raises(NumericError, match="not finite"):
        run(dataclasses.replace(spec, **{which: _nan}), OPTS)
    assert counts == {"minres": 0, "resonant": 0}
    if owner != "uncertified-minres":
        return
    code = ("import dataclasses\n"
            "lam = sp.eigenvalues\n"
            "gap = lam[2] - lam[1]\n"
            "spec = nl.saturating(lam[1] + 0.3 * gap, 1.5 * gap,\n"
            "                     nl.constant_profile(5.0))\n"
            "nan = lambda x, t: np.full(np.broadcast(x, t).shape, np.nan)\n"
            f"spec = dataclasses.replace(spec, {which}=nan)\n"
            "try:\n"
            "    ns.solve_case_b(op, sp, spec, ns.SolverOptions())\n"
            "except ns.NumericError:\n"
            "    print('NumericError', 'scipy.linalg' in sys.modules)\n")
    assert _first_lu_of_a_process(code) == "NumericError False"


def test_first_lu_of_a_process_solves_as_in_process(op128, spectrum128,
                                                    tmp_path):
    """linear_nonresonant_solve, a certified step, as the first Newton
    step of a process returns the in-process array bit for bit and loads
    no scipy.linalg"""
    path = tmp_path / "u.npy"
    code = ("u = ns.linear_nonresonant_solve(op, sp, 10.0,\n"
            "                                nl.constant_profile(1.5))\n"
            "np.save(sys.argv[1], u)\n"
            "print('scipy.linalg' in sys.modules)\n")
    assert _first_lu_of_a_process(code, str(path)) == "False"
    u = linear_nonresonant_solve(op128, spectrum128, 10.0,
                                 nl.constant_profile(1.5))
    np.testing.assert_array_equal(np.load(path), u)


@pytest.mark.parametrize("bad", [
    pytest.param({"n_starts": 0}, id="0"),
    pytest.param({"n_starts": 2.5}, id="2.5"),
    pytest.param({"n_starts": True}, id="True"),
    pytest.param({"k": True}, id="k=True"),
    pytest.param({"k": 999}, id="k=999"),
    pytest.param({"k": -5}, id="k=-5"),
    pytest.param({"k": 2.5}, id="k=2.5"),
])
def test_uniqueness_probe_rejects_bad_start_count(op128, spectrum128, bad):
    """a bad start count, and a k that Spectrum.gap refuses, also for a
    spec without a slope range, which skips the f2 check"""
    spec = nl.custom(lambda x, t: 20.0 * t + 1.0, lambda x: np.ones_like(x),
                     20.0, nl.constant_profile(20.0),
                     nl.constant_profile(20.0))
    with pytest.raises(InvalidParameterError):
        ns.uniqueness_probe(op128, spectrum128, spec,
                            **{"k": 2, "n_starts": 2, **bad}, opts=OPTS)


def test_solvers_refuse_the_spectrum_of_another_operator(
        op128, spectrum_by_s, fractional_op, gap_spec):
    """a spectrum of another s, or of another N, with op128: solve_case_b
    would classify and certify by the wrong operator"""
    for other in (spectrum_by_s[0.25],
                  ns.solve_eigenproblem(fractional_op(0.5, 64))):
        for call in (
                lambda: ns.solve_case_b(op128, other, gap_spec, OPTS),
                lambda: ns.uniqueness_probe(op128, other, gap_spec, 2,
                                            n_starts=2, opts=OPTS),
                lambda: ns.geometry_probe(op128, other, gap_spec, 2),
                lambda: linear_nonresonant_solve(op128, other, 1.0,
                                                 nl.constant_profile(1.0))):
            with pytest.raises(InvalidParameterError, match="another"):
                call()


@pytest.mark.parametrize("case", ["certified", "uncertified", "resonant"])
def test_uniqueness_probe_pair_distances_match_the_double_loop(
        op128, spectrum128, monkeypatch, case):
    """one Z-norm per pair, mirrored, gives bit for bit the max_pairwise_z,
    max_pair_ratio, verdict and representatives of the full double loop
    over the limits"""
    lam = spectrum128.eigenvalues
    gap = lam[2] - lam[1]
    certified = case == "certified"
    spec = (nl.affine(float(lam[1]), nl.constant_profile(0.0))
            if case == "resonant"
            else nl.saturating(lam[1] + 0.2, (0.6 if certified else 1.2)
                               * gap, nl.constant_profile(5.0)))
    limits = []
    lockstep = solvers._lockstep

    def spy(spectrum, runs):
        outcomes = lockstep(spectrum, runs)
        limits.extend(out[:2] for out in outcomes)
        return outcomes

    monkeypatch.setattr(solvers, "_lockstep", spy)
    verdict = ns.uniqueness_probe(op128, spectrum128, spec, 2, n_starts=8,
                                  opts=OPTS)
    assert verdict.f2_passed == certified
    solutions = [u for u, _ in limits]
    dist = np.array([[norm_Z(op128, u - v) for v in solutions]
                     for u in solutions])
    scale = max(1.0, max(norm_Z(op128, u) for u in solutions))
    if certified:
        c = solvers._f2_passed(spec, spectrum128, 2).inverse_bound
        error = c * spectrum128.dual_norms(np.column_stack([g for _, g
                                                            in limits]))
        bound = (error[:, None] + error[None, :]
                 + solvers.DISTINCT_ROUNDING_Z * scale)
    else:
        bound = np.full_like(dist, solvers.DISTINCT_SOLUTION_Z * scale)
    ratio = dist / bound
    assert verdict.max_pairwise_z == float(dist.max())
    assert verdict.max_pair_ratio == float(
        ratio[np.triu_indices(8, 1)].max())
    distinct = ratio > 1.0
    assert verdict.kind == ("MultipleFound" if distinct.any() else "Unique")
    assert distinct.any() == (case == "resonant")
    rep = [0]
    for j in range(1, 8):
        if distinct[j, rep].all():
            rep.append(j)
    assert len(verdict.representatives) == len(rep)
    for u, i in zip(verdict.representatives, rep):
        assert u is solutions[i]


def test_uniqueness_probe_is_seeded(op128, spectrum128, gap_spec):
    v1 = ns.uniqueness_probe(op128, spectrum128, gap_spec, 2, n_starts=4,
                             opts=ns.SolverOptions(seed=7))
    v2 = ns.uniqueness_probe(op128, spectrum128, gap_spec, 2, n_starts=4,
                             opts=ns.SolverOptions(seed=7))
    assert v1.max_pairwise_z == v2.max_pairwise_z


@pytest.mark.parametrize("case", ["certified", "uncertified", "resonant"])
def test_probe_and_project_build_no_eigenvector_matrix(fractional_op, case):
    """the probe's starts and `project` apply the eigenbasis through the
    half eigenvectors (`Spectrum.from_eigen`, `Spectrum.to_eigen`),
    certified, f2-failing or resonant; the memory bound is
    `test_eigenbasis_users_allocate_less_than_one_n_by_n_array`"""
    op = fractional_op(0.5, 32)
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    gap = lam[2] - lam[1]
    spec = {"certified": nl.saturating(lam[1] + 0.2, 0.6 * gap,
                                       nl.constant_profile(5.0)),
            "uncertified": nl.saturating(lam[1] + 0.2 * gap, 0.8 * gap,
                                         nl.constant_profile(1.0)),
            "resonant": nl.affine(float(lam[1]),
                                  nl.constant_profile(0.0))}[case]
    verdict = ns.uniqueness_probe(op, sp, spec, 2, n_starts=4, opts=OPTS)
    assert verdict.f2_passed == (case == "certified")
    u = np.random.default_rng(0).standard_normal(op.size)
    for part in ("head", "tail"):
        ns.project(sp, u, part, 2)


def test_eigenbasis_users_allocate_less_than_one_n_by_n_array(
        fractional_op, tmp_path, capsys):
    """at N = 1024 the geometry probe (coercive and gap), the resonant
    uniqueness probe, `project`, `dual_norms` and `spectrum --vectors`
    (eigensolve included) each peak below 8 N^2 bytes, one N x N float
    array: the eigenbasis is applied from the half eigenvectors a column
    block at a time.  The probe peaked at 15-24 MB when it read a cached
    eigenvector matrix, and the resonant probe factored a dense A -
    lambda_2 M before its steps were taken in the eigen-coordinates."""
    n = 1024
    op = fractional_op(0.5, n)
    sp = ns.solve_eigenproblem(op)
    spec = nl.saturating(20.0, 0.5, nl.constant_profile(1.0))
    u = np.random.default_rng(0).standard_normal(op.size)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mesh": {"n_elements": n}}))
    calls = {
        "coercive probe": lambda: ns.geometry_probe(
            op, sp, spec, 0, radii=(10.0,), n_samples=0),
        "gap probe": lambda: ns.geometry_probe(
            op, sp, spec, 2, radii=(10.0,), n_samples=0),
        "resonant probe": lambda: ns.uniqueness_probe(
            op, sp, nl.affine(float(sp.eigenvalues[1]),
                              nl.constant_profile(0.0)), 2, n_starts=2),
        "project": lambda: ns.project(sp, u, "head", 2),
        "dual_norms": lambda: sp.dual_norms(u),
        "spectrum --vectors": lambda: cli.main(
            ["spectrum", "--config", str(config), "--out",
             str(tmp_path / "art"), "--count", "2", "--vectors"]),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n, (name, peak)
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_stiffness_products_allocate_less_than_a_quarter_n_by_n_array():
    """at N = 1024 a certified solve_case_b plus a 4-start uniqueness
    probe (eigensolve outside the trace) peaks below 2 N^2 bytes, and so
    does each of eval_J, norm_Z, rayleigh_quotient and residual_weakform
    on an operator that has not built a dense A yet: A u is the product of
    the symbol, and no dense A or M is read.  The solve and probe peaked
    at 9.2 MB when every A u read a cached dense copy of A."""
    n = 1024
    op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, n),
                     ns.make_fractional_kernel(0.5))
    sp = ns.solve_eigenproblem(op)
    spec = nl.saturating(20.0, 0.5, nl.constant_profile(1.0))
    classification = ns.classify(spec, sp)
    u = np.random.default_rng(0).standard_normal(op.size)

    def solve_and_probe():
        ns.solve_case_b(op, sp, spec, classification=classification)
        verdict = ns.uniqueness_probe(op, sp, spec, classification.k,
                                      n_starts=4)
        assert (verdict.kind, verdict.cut) == ("Unique", "certified")

    calls = {
        "solve and probe": solve_and_probe,
        "eval_J": lambda: eval_J(dataclasses.replace(op), spec, u),
        "norm_Z": lambda: norm_Z(dataclasses.replace(op), u),
        "rayleigh_quotient": lambda: ns.rayleigh_quotient(
            dataclasses.replace(op), u),
        "residual_weakform": lambda: residual_weakform(
            dataclasses.replace(op), spec, u),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n, (name, peak)
    assert "stiffness" not in vars(op) and "mass" not in vars(op)


# ---------------------------------------------------------------------------
# geometry probe
# ---------------------------------------------------------------------------

def test_geometry_probe_affine_exact_ratios(op128, spectrum128):
    """for the purely quadratic functional the eigen-axis samples attain
    (lambda_j - m)/2 in the L2-normalized ratio exactly."""
    m = 20.0
    spec = nl.affine(m, nl.constant_profile(0.0))
    probe = ns.geometry_probe(op128, spectrum128, spec, 2)
    lam = spectrum128.eigenvalues
    head_target = (lam[1] - m) / 2.0
    tail_target = (lam[2] - m) / 2.0
    assert head_target < 0.0 < tail_target
    largest = probe.head[-1]
    assert largest.extreme_ratio_l2 == pytest.approx(head_target, abs=1e-10)
    for sample in probe.tail:
        assert sample.extreme_ratio_l2 == pytest.approx(tail_target,
                                                        abs=1e-10)
    assert probe.separated


def test_geometry_probe_z_ratio_normalization(op128, spectrum128):
    """on a Z-sphere the same extremes give (lambda_j - m)/(2 lambda_j)."""
    m = 20.0
    spec = nl.affine(m, nl.constant_profile(0.0))
    probe = ns.geometry_probe(op128, spectrum128, spec, 2)
    lam = spectrum128.eigenvalues
    assert probe.head[-1].extreme_ratio_z == pytest.approx(
        (lam[1] - m) / (2.0 * lam[1]), abs=1e-10)


def test_geometry_probe_coercive_positive(op128, spectrum128):
    spec = nl.affine(0.0, nl.constant_profile(1.0))
    probe = ns.geometry_probe(op128, spectrum128, spec, 0)
    assert probe.mode == "coercive" and probe.head == ()
    # coercive samples live in `tail`, one per radius
    assert [s.radius for s in probe.tail] == [10.0, 100.0, 1000.0]
    for sample in probe.tail:
        assert sample.extreme_ratio_l2 > 0.0


def test_geometry_probe_loads_no_numpy_ma():
    """the probe takes its sorted distinct Z-norms without np.unique, which
    imports numpy.ma: a fresh interpreter that builds an operator and runs
    the gap and the coercive probe leaves it out"""
    code = ("import sys\n"
            "import nonlocal_saddle as ns\n"
            "from nonlocal_saddle import nonlinearity as nl\n"
            "op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, 32),\n"
            "                 ns.make_fractional_kernel(0.5))\n"
            "sp = ns.solve_eigenproblem(op)\n"
            "spec = nl.saturating(20.0, 0.5, nl.constant_profile(1.0))\n"
            "for k in (2, 0):\n"
            "    ns.geometry_probe(op, sp, spec, k)\n"
            "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         check=True, capture_output=True, text=True,
                         timeout=120)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("kwargs", [
    {"radii": (0.0, 10.0)},
    {"radii": (-1.0, 10.0)},
    {"radii": (math.nan,)},
    {"radii": (10.0, math.inf)},
    {"radii": ()},
    {"n_samples": -3},
    {"n_samples": 70.5},
    {"n_samples": True},
    {"k": True},
    {"k": 2.0},
    {"radii": (True, 10.0)},
    {"seed": -1},
])
def test_geometry_probe_rejects_bad_input(op128, spectrum128, kwargs):
    spec = nl.affine(20.0, nl.constant_profile(0.0))
    with pytest.raises(InvalidParameterError):
        ns.geometry_probe(op128, spectrum128, spec, **{"k": 2, **kwargs})


#: g profiles of the growth-bound tests: a(x) = |g| + the family's bound
GROWTH_PROFILES = {"constant": nl.constant_profile(1.0),
                   "polynomial": nl.polynomial_profile((1.0, 2.0, -3.0)),
                   "large-constant": nl.constant_profile(200.0)}


def _family_spec(family, sp, k, g):
    """The family's spec with its slope m in gap k (k = 0: lambda_1 / 2)."""
    lam = sp.eigenvalues
    m = lam[0] / 2.0 if k == 0 else (lam[k - 1] + lam[k]) / 2.0
    return {"affine": lambda: nl.affine(m, g),
            "saturating": lambda: nl.saturating(m, 0.5, g),
            "bounded_perturbation":
                lambda: nl.bounded_perturbation(m, 0.3, g)}[family]()


def _oracle_probe(op, sp, spec, k, n_samples, seed,
                  radii=(10.0, 100.0, 1000.0)):
    """The probe as a per-sample loop: one eval_J on the nodal vector of
    every sample, with the directions of the same seeded sequence."""
    rng = np.random.default_rng(seed)
    lam, vecs = sp.eigenvalues, eigenvector_matrix(sp)

    def scan(idx, z_norms, reduce_max):
        dim = len(idx)
        dirs = np.concatenate([np.eye(dim), -np.eye(dim), _sphere_samples(
            rng, dim, max(n_samples - 2 * dim, 0))])
        best = None
        for z in z_norms:
            for d in dirs:
                coeffs = z / np.sqrt(np.sum(lam[idx] * d ** 2)) * d
                j = eval_J(op, spec, vecs[:, idx] @ coeffs)
                cand = (j / np.sum(coeffs ** 2), j / z ** 2, j)
                if best is None or (cand[0] > best[0] if reduce_max
                                    else cand[0] < best[0]):
                    best = cand
        return best

    m = sp.size
    if k == 0:
        tail = [scan(np.arange(m), [t], False) for t in radii]
        return [], tail, all(t[0] > 0.0 for t in tail)
    head = [scan(np.arange(k), [t], True) for t in radii]
    tail = [scan(np.arange(k, m), np.geomspace(t / 10.0, t, 4), False)
            for t in radii]
    small = scan(np.arange(k, m), np.geomspace(0.1, radii[0] / 10.0, 4),
                 False)
    floor = min([small[2]] + [t[2] for t in tail])
    return head, tail, head[-1][2] < floor


@pytest.fixture(scope="module")
def small_ops():
    kern = ns.make_fractional_kernel(0.5)
    out = {}
    for n in (16, 64):
        op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, n), kern)
        out[n] = (op, ns.solve_eigenproblem(op))
    return out


@pytest.mark.parametrize("n, n_samples, radii", [
    (16, 64, (10.0, 100.0, 1000.0)), (64, 64, (10.0, 100.0, 1000.0)),
    (64, 200, (10.0, 100.0, 1000.0)), (16, 64, (50.0, 5.0))],
    ids=["16-64", "64-64", "64-200", "16-64-radii50-5"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("family", ["affine", "saturating",
                                    "bounded_perturbation"])
def test_geometry_probe_matches_per_sample_oracle(small_ops, n, n_samples,
                                                  radii, k, family):
    """the batched probe reproduces the per-sample loop; N = 16 and
    n_samples = 200 at N = 64 run random directions in every scan, and the
    unsorted pair of radii checks which rows belong to which radius."""
    op, sp = small_ops[n]
    # an odd part in g makes +e_j and -e_j differ for every mode
    g = (nl.constant_profile(0.0) if family == "affine"
         else nl.polynomial_profile((1.0, 2.0)))
    spec = _family_spec(family, sp, k, g)
    probe = ns.geometry_probe(op, sp, spec, k, radii=radii,
                              n_samples=n_samples, seed=7)
    head, tail, separated = _oracle_probe(op, sp, spec, k, n_samples, 7,
                                          sorted(radii))
    for got, want in ((probe.head, head), (probe.tail, tail)):
        assert len(got) == len(want)
        for sample, (ratio_l2, ratio_z, _) in zip(got, want):
            assert sample.extreme_ratio_l2 == pytest.approx(ratio_l2,
                                                            rel=1e-10)
            assert sample.extreme_ratio_z == pytest.approx(ratio_z, rel=1e-10)
    assert [s.radius for s in probe.tail] == sorted(radii)
    assert probe.separated == separated
    again = ns.geometry_probe(op, sp, spec, k, radii=radii,
                              n_samples=n_samples, seed=7)
    assert dataclasses.asdict(again) == dataclasses.asdict(probe)


# The minimum scans rule out axes by the growth bound (`_growth_floor`).

#: the distinct Z-norms of a probe with the default radii: its coercive
#: spheres, its tail shells and its small norms
PROBE_NORMS = np.unique(np.concatenate(
    [np.geomspace(t / 10.0, t, 4) for t in (1.0, 10.0, 100.0, 1000.0)]))


@pytest.mark.parametrize("n", [16, 64, 384])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_growth_floor_bounds_every_axis_sample(s, n):
    """J / |u|_L2^2 of every axis sample u = z e_j / sqrt(lambda_j), at the
    probe's Z-norms +-z, lies at or above `_growth_floor` less
    GROWTH_BOUND_SLACK of its own size: the three families in gaps k = 0-3
    with constant, polynomial and large constant g.  At N = 384, k is 0
    and 2, the benchmark's, and the modes are the first 32, which its
    probes map, and every 16th beyond."""
    op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, n),
                     ns.make_fractional_kernel(s))
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    ks, modes = range(4), np.arange(sp.size)
    if n == 384:
        ks, modes = (0, 2), np.unique(np.r_[np.arange(32),
                                            np.arange(0, sp.size, 16),
                                            sp.size - 1])
    xg, wg, xi = op.gauss
    coeffs = np.eye(sp.size)[:, modes]
    axes = solvers._interp_elements(
        (sp.from_eigen(coeffs) / np.sqrt(lam[modes])).T, xi)
    axes = axes.reshape(modes.size, -1)
    for k, family, g in itertools.product(ks, ("affine", "saturating",
                                               "bounded_perturbation"),
                                          GROWTH_PROFILES.values()):
        spec = _family_spec(family, sp, k, g)
        floor = solvers._growth_floor(op, spec, lam[modes], PROBE_NORMS)
        for sign in (1.0, -1.0):
            for z, low in zip(sign * PROBE_NORMS, floor):
                f_int = solvers.eval_F(spec, xg.ravel(), z * axes) @ wg.ravel()
                ratio = (0.5 * z * z - f_int) * lam[modes] / (z * z)
                slack = ratio + solvers.GROWTH_BOUND_SLACK * np.abs(ratio) - low
                assert slack.min() >= 0.0, (k, family, z, slack.min())


def _scanned_specs(op, sp, k):
    """The three families with constant, polynomial and large constant g,
    and a g along eigenvector 41, whose axis is the tail's minimum three
    chunks in."""
    j = min(40, sp.size - 1)
    along = nl.nodal_profile(
        op.mesh.nodes, np.r_[0.0, 50.0 * sp.from_eigen(np.eye(sp.size)[j]),
                             0.0])
    profiles = {**GROWTH_PROFILES, "along-e41": along}
    return {(family, name): _family_spec(family, sp, k, g)
            for family, (name, g) in itertools.product(
                ("affine", "saturating", "bounded_perturbation"),
                profiles.items())}


SCAN_GRID = pytest.mark.parametrize("radii, n_samples", [
    ((10.0, 100.0, 1000.0), 64), ((0.5, 2.0), 64), ((0.5, 2.0), 200)],
    ids=["default", "small-radii", "small-radii-random"])


@SCAN_GRID
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_geometry_probe_equals_the_full_scan(small_ops, n, k, radii,
                                             n_samples):
    """the probe equals, repr for repr, the full scan of the same spec with
    b = inf, whose growth bound is -inf and rules out no axis
    (`_scanned_specs`).  n_samples = 200 > 2 dim puts random directions in
    every scan."""
    op, sp = small_ops[n]
    for case, spec in _scanned_specs(op, sp, k).items():
        full = dataclasses.replace(spec, b=math.inf)
        got, want = (repr(dataclasses.asdict(ns.geometry_probe(
            op, sp, f, k, radii=radii, n_samples=n_samples, seed=7)))
            for f in (spec, full))
        assert got == want, case


@SCAN_GRID
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_geometry_probe_is_the_same_at_every_batch_width(
        monkeypatch, small_ops, n, k, radii, n_samples):
    """the probe is repr-identical with PROBE_CHUNK = 1, 3 and 16: a
    sample's integral of F sums its own Gauss values and each group's
    random directions are mapped at once, so no bit depends on the batch
    that holds a direction, nor on where a minimum scan's growing axis
    batches end."""
    op, sp = small_ops[n]
    for case, spec in _scanned_specs(op, sp, k).items():
        probes = set()
        for chunk in (1, 3, 16):
            monkeypatch.setattr(solvers, "PROBE_CHUNK", chunk)
            probes.add(repr(dataclasses.asdict(ns.geometry_probe(
                op, sp, spec, k, radii=radii, n_samples=n_samples, seed=7))))
        assert len(probes) == 1, case


def test_benchmark_probes_map_one_tail_axis(monkeypatch):
    """the N = 384 gap (affine m = 20, g = 0, k = 2) and coercive (affine
    m = 0, g = 1) probes of the saddle_geometry benchmark stop after their
    first tail axis, of 381 and 383: a minimum scan's first axis batch is
    one axis wide, and `from_eigen` maps no other tail column."""
    op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, 384),
                     ns.make_fractional_kernel(0.5))
    sp = ns.solve_eigenproblem(op)
    from_eigen, mapped = type(sp).from_eigen, []

    def spy(self, c):
        mapped.append(c)
        return from_eigen(self, c)

    monkeypatch.setattr(type(sp), "from_eigen", spy)
    for spec, k in ((nl.affine(20.0, nl.constant_profile(0.0)), 2),
                    (nl.affine(0.0, nl.constant_profile(1.0)), 0)):
        mapped.clear()
        probe = ns.geometry_probe(op, sp, spec, k)
        assert probe.separated is True
        tail = sum(c.shape[1] for c in mapped if not c[:k].any())
        assert tail == 1, (k, tail)


@pytest.mark.parametrize("k", [0, 2])
def test_geometry_probe_refuses_false_growth_data(op128, spectrum128, k):
    """f = 30 t declared with b = 1: the scanned axes below lambda = 29 lie
    below the bound that b = 1 implies, and the probe names the data
    instead of returning an extreme that the bound might have cut short."""
    spec = nl.custom(f=lambda x, t: 30.0 * t, F=lambda x, t: 15.0 * t * t,
                     a_profile=lambda x: np.zeros_like(x), b=1.0,
                     alpha_lower=nl.constant_profile(30.0),
                     alpha_upper=nl.constant_profile(30.0))
    with pytest.raises(InvalidParameterError, match="growth data .* b = 1.0"):
        ns.geometry_probe(op128, spectrum128, spec, k)


def test_z_norm_of_eigenvector(op128, spectrum128):
    # an M-normalized eigenvector has Z-norm sqrt(lambda)
    for j in (0, 3):
        e = eigenvector_matrix(spectrum128)[:, j]
        assert norm_Z(op128, e) == pytest.approx(
            np.sqrt(spectrum128.eigenvalues[j]), rel=1e-10)
