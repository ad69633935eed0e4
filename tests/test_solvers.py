import dataclasses
import math

import numpy as np
import pytest

import nonlocal_saddle as ns
from nonlocal_saddle import nonlinearity as nl
from nonlocal_saddle.assembly import norm_Z
from nonlocal_saddle import solvers
from nonlocal_saddle.errors import (InvalidParameterError,
                                    NonConvergenceError,
                                    NonResonanceContradictionError,
                                    ResonanceError,
                                    UnsupportedCaseError)
from nonlocal_saddle.solvers import (_sphere_samples, eval_J, eval_gradient,
                                     linear_nonresonant_solve, load_vector,
                                     residual_weakform)

OPTS = ns.SolverOptions()


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
    op = ns.assemble(mesh, ns.make_fractional_kernel(0.5), skip_audit=True)
    sp = ns.solve_eigenproblem(op)
    a11 = op.stiffness[0, 0]
    h = mesh.h
    m = 1.0
    res = linear_nonresonant_solve(op, sp, m, nl.constant_profile(1.0))
    assert res.solution[0] == pytest.approx(
        h / (a11 - m * 2.0 * h / 3.0), rel=1e-12)
    with pytest.raises(InvalidParameterError):  # a profile is not an array
        linear_nonresonant_solve(op, sp, np.array([m]),
                                 nl.constant_profile(1.0))


def test_linear_solve_matches_direct_inverse(op128, spectrum128, rng):
    for m in (0.0, 10.0, 20.0):
        g_val = float(rng.uniform(-2.0, 2.0))
        res = linear_nonresonant_solve(op128, spectrum128, m,
                                       nl.constant_profile(g_val))
        spec = nl.affine(m, nl.constant_profile(g_val))
        b = load_vector(op128, spec, np.zeros(op128.size))
        b -= m * (op128.mass @ np.zeros(op128.size))
        # direct: (A - mM) u = load of g alone
        g_load = load_vector(op128, nl.affine(0.0, nl.constant_profile(g_val)),
                             np.zeros(op128.size))
        direct = np.linalg.solve(op128.stiffness - m * op128.mass, g_load)
        np.testing.assert_allclose(res.solution, direct, atol=1e-10)


def test_linear_solve_refuses_resonance(op128, spectrum128):
    lam2 = float(spectrum128.eigenvalues[1])
    for profile, message in ((lam2, "touches"), (lam2 + 5e-10, "touches"),
                             (lambda x: lam2 + x, "straddles")):
        with pytest.raises(ResonanceError, match=message):
            linear_nonresonant_solve(op128, spectrum128, profile,
                                     nl.constant_profile(1.0))


def test_resonance_refusals_agree_at_the_margin(spectrum128):
    """the linear solve, classify and the slope-gap check place a weight
    next to an eigenvalue the same way, also at exactly GAP_MARGIN from it"""
    lam, margin = spectrum128.eigenvalues, nl.GAP_MARGIN
    op = spectrum128.op
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
            for j in (k - 1, k) if k > 1 else (k,):
                passed = nl.check_f2_gap(spec, spectrum128, j).passed
                assert passed == (cls.case is nl.Case.GAP and cls.k == j), \
                    (k, w, j)


def test_certified_singular_system_raises():
    """eigenvalues shifted by 1 certify the true lambda_2 as nonresonant;
    the singular system A - lambda_2 M is then a contradiction, not a
    least-squares step"""
    op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, 32),
                     ns.make_fractional_kernel(0.5), skip_audit=True)
    sp = ns.solve_eigenproblem(op)
    shifted = dataclasses.replace(sp, eigenvalues=sp.eigenvalues + 1.0)
    with pytest.raises(NonResonanceContradictionError):
        linear_nonresonant_solve(op, shifted, float(sp.eigenvalues[1]),
                                 nl.constant_profile(1.0))


def test_case_a_matches_direct_solve(op128):
    spec = nl.affine(0.0, nl.constant_profile(1.0))
    rep = ns.solve_case_a(op128, spec, OPTS)
    assert residual_weakform(op128, spec, rep.solution) <= OPTS.tol
    g_load = load_vector(op128, spec, np.zeros(op128.size))
    direct = np.linalg.solve(op128.stiffness, g_load)
    np.testing.assert_allclose(rep.solution, direct, atol=1e-10)
    assert rep.residual_inf <= 1e-9


def test_case_a_refuses_gap_problem(op128, spectrum128, gap_spec):
    cls = nl.classify(gap_spec, spectrum128)
    with pytest.raises(UnsupportedCaseError):
        ns.solve_case_a(op128, gap_spec, OPTS, classification=cls)


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
    """gap-case Newton runs full steps until the residual has grown three
    times in a row, then caps them; at N = 32 this start set needs the cap
    and still finds one solution."""
    op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, 32),
                     ns.make_fractional_kernel(0.5), skip_audit=True)
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    spec = nl.saturating(lam[1] + 0.2, 0.6 * (lam[2] - lam[1]),
                         nl.constant_profile(5.0))
    capped = []
    z_capped = solvers._z_capped

    def spy(op):
        globalize = z_capped(op)

        def wrapped(u, step, grad, res):
            new = globalize(u, step, grad, res)
            capped.append(not np.array_equal(new, u + step))
            return new
        return wrapped

    monkeypatch.setattr(solvers, "_z_capped", spy)
    verdict = ns.uniqueness_probe(op, sp, spec, 2, n_starts=8,
                                  opts=ns.SolverOptions(seed=42))
    assert verdict.kind == "Unique"
    assert any(capped)


@pytest.mark.parametrize("family", ["saturating", "bounded_perturbation"])
def test_newton_system_is_the_gradient_jacobian(fractional_op, monkeypatch,
                                                family):
    """the system the Newton driver factors at u equals central differences
    of the gradient at u, column by column."""
    op = fractional_op(0.5, 64)
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues
    gap = lam[2] - lam[1]
    g = nl.polynomial_profile([1.0, 2.0])
    spec = (nl.saturating(lam[1] + 0.1 * gap, 0.5 * gap, g)
            if family == "saturating"
            else nl.bounded_perturbation(lam[1] + 0.5 * gap, 0.3 * gap, g))
    x = op.mesh.interior_nodes
    u = 2.0 * np.cos(3.0 * x) + x
    systems = []
    newton_step = solvers._newton_step

    def spy(system, grad, f2_certified):
        systems.append(system.copy())
        return newton_step(system, grad, f2_certified)

    monkeypatch.setattr(solvers, "_newton_step", spy)
    with pytest.raises(NonConvergenceError):
        ns.solve_case_b(op, sp, spec, ns.SolverOptions(max_iter=1), u0=u)
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
                                                       spectrum128):
    """slope ranges that reach past lambda_3 (no slope-gap certificate)
    still converge with the gap policy: f2-failing points of the grid
    saturating(lambda_2 + a gap, b gap, g = 5)."""
    lam = spectrum128.eigenvalues
    gap = lam[2] - lam[1]
    uncertified = 0
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


def test_case_b_saddle_signature(op128, spectrum128, gap_spec):
    """at the gap solution J decreases along the head, increases along the
    orthogonal tail (the minimax structure)."""
    rep = ns.solve_case_b(op128, spectrum128, gap_spec, OPTS)
    u = rep.solution
    j0 = eval_J(op128, gap_spec, u)
    E = spectrum128.eigenvectors
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


def test_residual_weakform_zero_at_linear_solution(op128, spectrum128):
    spec = nl.affine(10.0, nl.constant_profile(1.0))
    res = linear_nonresonant_solve(op128, spectrum128, 10.0,
                                   nl.constant_profile(1.0))
    assert residual_weakform(op128, spec, res.solution) < 1e-12


def test_uniqueness_probe_unique_under_f2(op128, spectrum128, gap_spec):
    verdict = ns.uniqueness_probe(op128, spectrum128, gap_spec, 2,
                                  n_starts=8, opts=OPTS)
    assert verdict.kind == "Unique"
    assert verdict.max_pairwise_z <= 1e-8
    assert verdict.n_starts == 8


def test_uniqueness_probe_resonant_multiple(op128, spectrum128):
    lam2 = float(spectrum128.eigenvalues[1])
    spec = nl.affine(lam2, nl.constant_profile(0.0))
    verdict = ns.uniqueness_probe(op128, spectrum128, spec, 2,
                                  n_starts=8, opts=OPTS)
    assert verdict.kind == "MultipleFound"
    assert verdict.max_pairwise_z > 1e-6
    # every representative is a genuine critical point (on ker(A - lam2 M))
    for u in verdict.representatives:
        assert residual_weakform(op128, spec, np.asarray(u)) < 1e-8


@pytest.mark.parametrize("n_starts", [0, 2.5])
def test_uniqueness_probe_rejects_bad_start_count(op128, spectrum128,
                                                  gap_spec, n_starts):
    with pytest.raises(InvalidParameterError):
        ns.uniqueness_probe(op128, spectrum128, gap_spec, 2,
                            n_starts=n_starts, opts=OPTS)


def test_uniqueness_probe_is_seeded(op128, spectrum128, gap_spec):
    v1 = ns.uniqueness_probe(op128, spectrum128, gap_spec, 2, n_starts=4,
                             opts=ns.SolverOptions(seed=7))
    v2 = ns.uniqueness_probe(op128, spectrum128, gap_spec, 2, n_starts=4,
                             opts=ns.SolverOptions(seed=7))
    assert v1.max_pairwise_z == v2.max_pairwise_z


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


@pytest.mark.parametrize("kwargs", [
    {"radii": (0.0, 10.0)},
    {"radii": (-1.0, 10.0)},
    {"radii": (math.nan,)},
    {"radii": (10.0, math.inf)},
    {"radii": ()},
    {"n_samples": -3},
    {"n_samples": 70.5},
])
def test_geometry_probe_rejects_bad_input(op128, spectrum128, kwargs):
    spec = nl.affine(20.0, nl.constant_profile(0.0))
    with pytest.raises(InvalidParameterError):
        ns.geometry_probe(op128, spectrum128, spec, 2, **kwargs)


def _oracle_probe(op, sp, spec, k, n_samples, seed,
                  radii=(10.0, 100.0, 1000.0)):
    """The probe as a per-sample loop: one eval_J on the nodal vector of
    every sample, with the directions of the same seeded sequence."""
    rng = np.random.default_rng(seed)
    lam, vecs = sp.eigenvalues, sp.eigenvectors

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
        op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, n), kern,
                         skip_audit=True)
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
    lam = sp.eigenvalues
    m = lam[0] / 2.0 if k == 0 else (lam[k - 1] + lam[k]) / 2.0
    # an odd part in g makes +e_j and -e_j differ for every mode
    g = (nl.constant_profile(0.0) if family == "affine"
         else nl.polynomial_profile((1.0, 2.0)))
    spec = {"affine": lambda: nl.affine(m, g),
            "saturating": lambda: nl.saturating(m, 0.5, g),
            "bounded_perturbation":
                lambda: nl.bounded_perturbation(m, 0.3, g)}[family]()
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
    assert again.to_dict() == probe.to_dict()


def test_z_norm_of_eigenvector(op128, spectrum128):
    # an M-normalized eigenvector has Z-norm sqrt(lambda)
    for j in (0, 3):
        e = spectrum128.eigenvectors[:, j]
        assert norm_Z(op128, e) == pytest.approx(
            np.sqrt(spectrum128.eigenvalues[j]), rel=1e-10)
