import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

import nonlocal_saddle as ns
from nonlocal_saddle import assembly
from nonlocal_saddle.assembly import _stiffness_times, norm_L2, norm_Z
from nonlocal_saddle.errors import AssemblyAccuracyError, InvalidParameterError
from nonlocal_saddle.quadrature import ESTIMATE_STEP, GAUSS_ORDER

# ---------------------------------------------------------------------------
# brute-force oracle: N = 4 on (-1, 1), entries computed independently with
# scipy.integrate.dblquad on the double integral over Omega x Omega (split at
# the diagonal) plus 2 * int phi_i phi_j kappa with kappa from adaptive quad
# over the two infinite complement rays (epsabs = epsrel = 1e-11).  Frozen.
# ---------------------------------------------------------------------------
ORACLE_N4 = {
    0.4: [[4.903387767395677, -0.6908149646693067, -0.6818765927625942],
          [-0.6908149646693067, 4.903387774237803, -0.6908149646693067],
          [-0.6818765927625942, -0.6908149646693067, 4.903387767395677]],
    0.5: [[5.5451774838466195, -1.2028443226113366, -0.7338002807407679],
          [-1.2028443226113366, 5.545177479272999, -1.2028443226113366],
          [-0.7338002807407679, -1.2028443226113366, 5.5451774838466195]],
    0.75: [[11.782069071946198, -4.437205970477885, -0.9350305279494024],
           [-4.437205970477885, 11.78207462792481, -4.437205970477885],
           [-0.9350305279494024, -4.437205970477885, 11.782069071946198]],
}
# the adaptive rule loses accuracy as the singularity strengthens
ORACLE_N4_TOL = {0.4: 1e-7, 0.5: 1e-7, 0.75: 1e-5}

# Fourier-side oracle for the diagonal entry: the form extends to the full
# plane (hats vanish outside Omega), so A[i][i] equals
# (C_s/pi) int |xi|^{2s} |hat^(xi)|^2 dxi with the closed-form constant
# C_s = pi / (Gamma(1+2s) sin(pi s)) for the full-line (1-cos) integral,
# computed with quad on (0, 2e4) plus an averaged sin^4 tail.  Frozen.
FOURIER_DIAG = {0.4: 4.9033877539, 0.5: 5.5451774440, 0.75: 11.7820746894}

# High-precision oracle for the Toeplitz symbol a_d = A[i][i + d] on (-1, 1)
# with N elements (h = 2/N).  For K = |z|^(-1-2s) the symbol has the closed
# form a_d = -(2/h^2) * delta^4 F(d h), with delta^4 the centred fourth
# difference of step h and
#     F(t) = |t|^(3-2s) / ((3-2s)(2-2s)(1-2s)(-2s))   (F = -t^2 log|t| / 2
# at s = 1/2), evaluated with mpmath at mp.dps = 40.  It agrees to 1e-22
# with mpmath.quad of 2 int_0^inf K(r) [2C(dh) - C(r-dh) - C(r+dh)] dr,
# C(t) = h B(t/h) the hat autocorrelation.  Frozen; keys (s, N) -> {d: a_d}.
ORACLE_SYMBOL = {
    (0.25, 128): {0: 0.8836555997292694, 1: -0.01038926129323337,
                  2: -0.11005428680674705, 3: -0.0519930538014412,
                  10: -0.007955697971493597, 126: -0.00017676703976767145},
    (0.25, 1024): {0: 0.31241943340101597, 1: -0.003673158555982118,
                   2: -0.03891006624985001, 3: -0.01838232045879804,
                   10: -0.0028127639923575917, 1022: -2.705321794964165e-06},
    (0.5, 128): {0: 5.545177444479562, 1: -1.2028442909461377,
                 2: -0.7338002806950116, 3: -0.2521826017016919,
                 10: -0.02020305793746886, 126: -0.0001259842522184677},
    (0.5, 1024): {0: 5.545177444479562, 1: -1.2028442909461377,
                  2: -0.7338002806950116, 3: -0.2521826017016919,
                  10: -0.02020305793746886, 1022: -1.914822931537341e-06},
    (0.75, 128): {0: 66.64947912555007, 1: -25.100627163644344,
                  2: -5.289331417617438, 3: -1.2386396374465245,
                  10: -0.05134831182911671, 126: -8.979114631542796e-05},
    (0.75, 1024): {0: 188.51319460891082, 1: -70.99529471779269,
                   2: -14.96048845336138, 3: -3.5034019483395364,
                   10: -0.14523495798739935, 1022: -1.355309064710735e-06},
}

#: (s, N) grid of the structural identities
STRUCTURE_GRID = [(s, n) for s in (0.25, 0.5, 0.75) for n in (128, 1024)]


@pytest.mark.parametrize("s", sorted(ORACLE_N4))
def test_stiffness_matches_bruteforce_oracle(s):
    mesh = ns.build_uniform_mesh(-1.0, 1.0, 4)
    op = ns.assemble(mesh, ns.make_fractional_kernel(s))
    np.testing.assert_allclose(op.stiffness, ORACLE_N4[s],
                               rtol=ORACLE_N4_TOL[s])


@pytest.mark.parametrize("s", sorted(FOURIER_DIAG))
def test_diagonal_matches_fourier_oracle(s):
    mesh = ns.build_uniform_mesh(-1.0, 1.0, 4)
    op = ns.assemble(mesh, ns.make_fractional_kernel(s))
    assert op.stiffness[1, 1] == pytest.approx(FOURIER_DIAG[s], rel=3e-9)


@pytest.mark.parametrize("s,n", sorted(ORACLE_SYMBOL))
def test_symbol_matches_high_precision_oracle(s, n, fractional_op):
    """Every entry of each frozen diagonal is right to 1e-11 max|A|, and
    quad_error_estimate bounds the actual error."""
    op = fractional_op(s, n)
    scale = np.abs(op.stiffness).max()
    error = max(np.abs(np.diag(op.stiffness, d) - a_d).max()
                for d, a_d in ORACLE_SYMBOL[(s, n)].items())
    assert error <= 1e-11 * scale
    assert error <= max(op.quad_error_estimate, 1e-12 * scale)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_constants_have_zero_energy_on_the_line(s, fractional_op):
    """Hats sum to 1, so sum_{d in Z} a_d = a(phi_i, 1) = 0 on the line.  The
    far field a_d ~ -2 h^(1-2s) d^(-1-2s), d >= N - 1, sums to a Hurwitz
    zeta, which the first column must make up."""
    n = 1024
    op = fractional_op(s, n)
    col = op.stiffness[:, 0]
    h = op.mesh.h
    far = 4.0 * h ** (1.0 - 2.0 * s) * zeta(1.0 + 2.0 * s, n - 1)
    assert abs(col[0] + 2.0 * col[1:].sum() - far) <= 1e-8 * col[0]


def test_diagonal_is_translation_invariant(fractional_op):
    # full-plane form of identical translated hats: all diagonal entries equal
    for s, n in STRUCTURE_GRID:
        d = np.diag(fractional_op(s, n).stiffness)
        np.testing.assert_allclose(d, d[0], rtol=1e-11)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_domain_scaling_law(s):
    """Dilating the domain by c rescales every entry by c^(1-2s)."""
    kern = ns.make_fractional_kernel(s)
    for n in (16, 1024):
        a1 = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, n), kern).stiffness
        a2 = ns.assemble(ns.build_uniform_mesh(-2.0, 2.0, n), kern).stiffness
        np.testing.assert_allclose(a2, 2.0 ** (1.0 - 2.0 * s) * a1,
                                   rtol=1e-11)


def test_symmetry_is_exact(fractional_op):
    for s, n in STRUCTURE_GRID + [(s, 4) for s in (0.25, 0.5, 0.75)]:
        op = fractional_op(s, n)
        assert np.array_equal(op.stiffness, op.stiffness.T)
        assert np.array_equal(op.stiffness,
                              scipy.linalg.toeplitz(op.stiffness[:, 0]))
        assert np.array_equal(op.mass, op.mass.T)


def test_operator_holds_symbol_and_mesh(op128):
    """no N x N field: the stiffness and the mass are the cached Toeplitz
    matrices of the symbol and of the mass column, both bitwise"""
    assert [f.name for f in dataclasses.fields(ns.AssembledOperator)] == [
        "mesh", "symbol", "tail", "quad_error_estimate"]
    assert op128.stiffness is op128.stiffness
    assert op128.mass is op128.mass
    assert np.array_equal(op128.stiffness, scipy.linalg.toeplitz(op128.symbol))
    assert np.array_equal(op128.mass, scipy.linalg.toeplitz(op128.mass_symbol))


def test_dense_matrices_are_read_only_views(op128):
    """`stiffness` and `mass` view the Toeplitz columns and refuse a write
    that would corrupt every later read of the cached view"""
    for name in ("stiffness", "mass"):
        matrix = getattr(op128, name)
        assert not matrix.flags.owndata and not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 1] = 1.0
    np.testing.assert_array_equal(op128.stiffness[0], op128.symbol)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [2, 3, 64, 65, 1024])
def test_stiffness_times_matches_the_dense_product(s, n, fractional_op):
    """A u from the symbol equals the dense Toeplitz product to 1e-14 of
    |A|_inf |u|_inf, down to one interior node"""
    op = fractional_op(s, n)
    u = np.random.default_rng(n).standard_normal(op.size)
    dense = scipy.linalg.toeplitz(op.symbol)
    scale = np.abs(dense).sum(axis=1).max() * np.abs(u).max()
    error = np.abs(_stiffness_times(op, u) - dense @ u).max()
    assert error <= 1e-14 * scale


def test_stiffness_is_positive_definite(op_by_s):
    for op in op_by_s.values():
        assert np.linalg.eigvalsh(op.stiffness).min() > 0.0


def test_mass_matrix_exact_entries():
    """M's column is (2h/3, h/6, 0, ...) of the mesh, exactly, and the
    dense M is its tridiagonal Toeplitz matrix, down to one interior node"""
    for n in (2, 3, 8):
        mesh = ns.build_uniform_mesh(-1.0, 1.0, n)
        op = ns.assemble(mesh, ns.make_fractional_kernel(0.5))
        h = mesh.h
        assert np.array_equal(op.mass_symbol,
                              [2.0 * h / 3.0, h / 6.0, 0.0, 0.0, 0.0, 0.0,
                               0.0][:n - 1])
        m = op.mass
        assert np.array_equal(m, scipy.linalg.toeplitz(op.mass_symbol))
    # interior rows integrate phi_i against the interpolant of 1
    row_sums = m.sum(axis=1)
    assert row_sums[3] == pytest.approx(h, rel=1e-14)
    assert row_sums[0] == pytest.approx(h - h / 6.0, rel=1e-14)


def test_quadrature_error_estimate_and_tolerance_gate(monkeypatch):
    mesh = ns.build_uniform_mesh(-1.0, 1.0, 32)
    kern = ns.make_fractional_kernel(0.5)
    op = ns.assemble(mesh, kern)
    assert 0.0 <= op.quad_error_estimate < 1e-10
    monkeypatch.setattr(assembly, "ASSEMBLY_TOL", 1e-30)
    with pytest.raises(AssemblyAccuracyError):
        ns.assemble(mesh, kern)


def test_custom_kernel_path_agrees_with_closed_forms():
    """The generic quadrature path and the fractional closed forms are
    independent implementations of the same matrix."""
    mesh = ns.build_uniform_mesh(-1.0, 1.0, 16)
    s = 0.4
    frac = ns.assemble(mesh, ns.make_fractional_kernel(s))
    cust = ns.assemble(
        mesh,
        ns.make_custom_kernel(lambda z: np.abs(z) ** (-1.0 - 2.0 * s),
                              s=s, theta=1.0))
    np.testing.assert_allclose(cust.stiffness, frac.stiffness, rtol=5e-6,
                               atol=5e-7)


def test_dominating_kernel_dominates_quadratic_form(rng):
    """K >= theta * |z|^(-1-2s) pointwise implies u^T A_K u >= theta u^T A_s u
    (the comparison underlying the compact-embedding argument)."""
    mesh = ns.build_uniform_mesh(-1.0, 1.0, 16)
    s = 0.5
    frac = ns.assemble(mesh, ns.make_fractional_kernel(s))
    dom = ns.assemble(
        ns.build_uniform_mesh(-1.0, 1.0, 16),
        ns.make_custom_kernel(
            lambda z: np.abs(z) ** -2.0 + np.exp(-np.asarray(z) ** 2),
            s=s, theta=1.0))
    for _ in range(20):
        u = rng.standard_normal(15)
        assert u @ dom.stiffness @ u >= u @ frac.stiffness @ u - 1e-10


def _custom_fractional(s):
    """|z|^(-1-2s) as a custom kernel, so every integral takes the Gauss
    panel path instead of the closed forms"""
    return ns.make_custom_kernel(lambda z: np.abs(z) ** (-1.0 - 2.0 * s),
                                 s=s, theta=1.0)


def _kappa_closed_form(x, s):
    """kappa(x) on (-1, 1) for |z|^(-1-2s): the two upper integrals
    ((x + 1)^(-2s) + (1 - x)^(-2s)) / (2s)"""
    return ((x + 1.0) ** (-2.0 * s) + (1.0 - x) ** (-2.0 * s)) / (2.0 * s)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_tail_weight_closed_form(fractional_op, s):
    """kappa of `assemble` (`op.tail`) at every interior node, for the
    fractional closed forms and for the Gauss panels of a custom kernel"""
    for n in (8, 1024):
        mesh = ns.build_uniform_mesh(-1.0, 1.0, n)
        expected = _kappa_closed_form(mesh.interior_nodes, s)
        for op, rel in ((fractional_op(s, n), 1e-12),
                        (ns.assemble(mesh, _custom_fractional(s)), 1e-10)):
            np.testing.assert_allclose(op.tail, expected, rtol=rel, atol=0.0)


@pytest.mark.parametrize("n", [16, 1024])
def test_tail_order_gap_within_estimate(n, monkeypatch):
    """quad_error_estimate covers kappa's gap between orders q and q + 6
    relative to max(1, |kappa|)"""
    mesh = ns.build_uniform_mesh(-1.0, 1.0, n)
    for kern in (ns.make_fractional_kernel(0.4), _custom_fractional(0.4)):
        op = ns.assemble(mesh, kern)
        with monkeypatch.context() as patch:
            patch.setattr(assembly, "GAUSS_ORDER", GAUSS_ORDER + ESTIMATE_STEP)
            higher = ns.assemble(mesh, kern)
        gap = np.abs(op.tail - higher.tail) / np.maximum(1.0, np.abs(op.tail))
        assert gap.max() <= op.quad_error_estimate


def test_kappa_gated_relative_to_its_size(monkeypatch):
    """kappa grows like h^(-2s) at the ends; at N = 1024 its absolute
    order gap (1.6e-9 where kappa is about 184) exceeds a 1e-9 tolerance
    that its relative gap and the symbol meet"""
    mesh = ns.build_uniform_mesh(-1.0, 1.0, 1024)
    monkeypatch.setattr(assembly, "ASSEMBLY_TOL", 1e-9)
    op = ns.assemble(mesh, _custom_fractional(0.4))
    assert op.quad_error_estimate <= 1e-9


def test_norms(op128, rng):
    u = rng.standard_normal(op128.size)
    assert norm_Z(op128, u) == pytest.approx(
        np.sqrt(u @ op128.stiffness @ u), rel=1e-13)
    assert norm_L2(op128, u) == pytest.approx(
        np.sqrt(u @ op128.mass @ u), rel=1e-13)
    with pytest.raises(InvalidParameterError):
        norm_Z(op128, np.ones(3))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=8, max_value=40),
       s=st.sampled_from([0.3, 0.5, 0.7]))
def test_constant_interpolant_action_dominated_by_tail(n, s):
    """Against the interpolant of 1 the Gagliardo part only sees the
    boundary dip (a nonnegative interaction for a mid hat), so the row
    action is bounded below by twice the minimal tail weight times h."""
    mesh = ns.build_uniform_mesh(-1.0, 1.0, n)
    op = ns.assemble(mesh, ns.make_fractional_kernel(s))
    ones = np.ones(op.size)
    out = op.stiffness @ ones
    assert np.all(out > 0.0)
    mid = op.size // 2
    x_mid = mesh.interior_nodes[mid]
    # kappa is convex with its minimum at the centre, so over the hat
    # support it is minimized at the endpoint closer to 0
    x_min = x_mid - mesh.h if x_mid > 0 else x_mid + mesh.h
    if abs(x_min) > abs(x_mid):
        x_min = x_mid
    kap_min = _kappa_closed_form(x_min, s)
    assert out[mid] >= 2.0 * kap_min * mesh.h * (1.0 - 1e-12)
