
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from conftest import eigenvector_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

import nonlocal_saddle as ns
from nonlocal_saddle import nonlinearity as nl
from nonlocal_saddle.assembly import norm_L2
from nonlocal_saddle.errors import (AssemblyCorruptionError,
                                    EigenClusterError, InvalidParameterError)
from nonlocal_saddle.spectral import (_fix_signs, _half_pencil,
                                      _mass_half_bands, project,
                                      rayleigh_quotient)


def test_eigenvalues_ascending_and_positive(spectrum_by_s):
    for sp in spectrum_by_s.values():
        lam = sp.eigenvalues
        assert lam[0] > 0.0
        assert np.all(np.diff(lam) > 0.0)


def test_eigenvectors_m_orthonormal(spectrum128, op128, fractional_op):
    op1024 = fractional_op(0.5, 1024)
    for op, spec in ((op128, spectrum128),
                     (op1024, ns.solve_eigenproblem(op1024))):
        E = eigenvector_matrix(spec)
        gram = E.T @ op.mass @ E
        np.testing.assert_allclose(gram, np.eye(E.shape[1]), atol=1e-10)


#: eigenvalues checked against long-double Rayleigh quotients
LOWEST_EXACT = 20


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [128, 1024])
def test_reflection_split_matches_direct_eigh(fractional_op, s, n):
    """the even/odd split gives the eigenvalues of (A, M) to 1e-11: the
    lowest LOWEST_EXACT against long-double Rayleigh quotients of the
    vectors of one dense eigh, whose own eigenvalues there are off by up to
    eps lambda_max / lambda_1 (4.8e-12 at s = 0.75, N = 1024), the rest
    against that eigh; M-orthonormal vectors, and every vector exactly even
    or exactly odd, the parity alternating from an even first mode."""
    op = fractional_op(s, n)
    sp = ns.solve_eigenproblem(op)
    direct, vecs = scipy.linalg.eigh(op.stiffness, op.mass)
    low = vecs[:, :LOWEST_EXACT].astype(np.longdouble)
    rayleigh = (np.sum(low * (op.stiffness.astype(np.longdouble) @ low), 0)
                / np.sum(low * (op.mass.astype(np.longdouble) @ low), 0))
    np.testing.assert_allclose(sp.eigenvalues[:LOWEST_EXACT],
                               rayleigh.astype(float), rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(sp.eigenvalues[LOWEST_EXACT:],
                               direct[LOWEST_EXACT:], rtol=1e-11, atol=0.0)
    E = eigenvector_matrix(sp)
    gram = E.T @ op.mass @ E
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    assert np.abs(gram).max() <= 1e-13
    _assert_alternating_parity(E)


def _assert_alternating_parity(E):
    for j in range(E.shape[1]):
        sign = 1.0 if j % 2 == 0 else -1.0
        assert np.array_equal(E[::-1, j], sign * E[:, j]), j


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reflection_split_smallest_meshes(n):
    """N = 2 leaves the odd half empty, N = 3 gives two 1 x 1 halves."""
    op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, n),
                     ns.make_fractional_kernel(0.5))
    sp = ns.solve_eigenproblem(op)
    direct = scipy.linalg.eigh(op.stiffness, op.mass, eigvals_only=True)
    assert sp.size == n - 1
    np.testing.assert_allclose(sp.eigenvalues, direct, rtol=1e-14, atol=0.0)
    E = eigenvector_matrix(sp)
    gram = E.T @ op.mass @ E
    np.testing.assert_allclose(gram, np.eye(n - 1), rtol=0.0, atol=1e-15)
    _assert_alternating_parity(E)


# the mass is built from the mesh, so only the stiffness can be made
# non-finite; a NaN mesh end is refused at the mass pivot instead
# (test_non_spd_mass_is_rejected)
@pytest.mark.parametrize("matrix", ["stiffness"])
def test_non_finite_pencil_is_rejected_as_such(op128, matrix):
    """a NaN in the symbol is named as such, not as a failed eigensolve"""
    bad = op128.symbol.copy()
    bad[4] = np.nan
    with pytest.raises(AssemblyCorruptionError,
                       match=f"{matrix} matrix is not finite"):
        ns.solve_eigenproblem(dataclasses.replace(op128, symbol=bad))


def test_eigenpairs_satisfy_generalized_problem(spectrum128, op128):
    E = eigenvector_matrix(spectrum128)
    lam = spectrum128.eigenvalues
    res = op128.stiffness @ E - op128.mass @ E * lam[None, :]
    assert np.max(np.abs(res)) < 1e-9 * lam[-1]


def test_sign_convention_deterministic(op128):
    sp1 = ns.solve_eigenproblem(op128)
    sp2 = ns.solve_eigenproblem(op128)
    E = eigenvector_matrix(sp1)
    assert np.array_equal(E, eigenvector_matrix(sp2))
    # canonical sign: nonnegative mass-weighted mean
    means = op128.mass.sum(axis=0) @ E
    significant = np.abs(means) > 1e-12
    assert np.all(means[significant] >= 0.0)


def _fix_signs_loop(vectors, ones_mass):
    """per-column reference for the sign convention"""
    means = ones_mass @ vectors
    out = vectors.copy()
    for j in range(vectors.shape[1]):
        if abs(means[j]) > 1.0e-12 * np.abs(vectors[:, j]).max():
            if means[j] < 0.0:
                out[:, j] = -out[:, j]
        else:
            nz = np.flatnonzero(np.abs(out[:, j]) > 1.0e-12)
            if nz.size and out[nz[0], j] < 0.0:
                out[:, j] = -out[:, j]
    return out


def test_sign_convention_tie_break(op128):
    """a column with no significant mean has its first entry above 1e-12
    positive; a column with no entry above 1e-12 is left as it is.  On the
    raw eigenvectors (the odd modes have zero mean) the result equals the
    per-column loop bit for bit."""
    _, raw = scipy.linalg.eigh(op128.stiffness, op128.mass)
    ones_mass = np.ones(op128.size) @ op128.mass
    assert np.array_equal(_fix_signs(raw.copy(), ones_mass),
                          _fix_signs_loop(raw, ones_mass))
    # the last column's mean, 8e-13, is a tie against its largest entry -1
    vectors = np.array([[1e-13, -0.5, 0.0, -1e-13, 2.0, -1.0],
                        [-0.25, 0.0, 0.0, 0.0, -1.0, 0.25],
                        [0.75, 0.5, 0.0, 1e-13, -3.0, 0.25],
                        [-0.5, 0.0, 0.0, 0.0, 0.0, 0.5 + 8e-13]])
    fixed = _fix_signs(vectors, np.ones(4))
    np.testing.assert_array_equal(
        fixed, [[-1e-13, 0.5, 0.0, -1e-13, -2.0, 1.0],
                [0.25, 0.0, 0.0, 0.0, 1.0, -0.25],
                [-0.75, -0.5, 0.0, 1e-13, 3.0, -0.25],
                [0.5, 0.0, 0.0, 0.0, 0.0, -0.5 - 8e-13]])


def _dense_half(x, sign):
    """X11 + sign X12 J from the dense matrix, bordered for odd n and sign
    +1 by the middle column times sqrt(2) and the middle entry"""
    n = x.shape[0]
    p = n // 2
    combine = np.add if sign > 0.0 else np.subtract
    half = combine(x[:p, :p], x[:p, ::-1][:, :p])
    if sign < 0.0 or n % 2 == 0:
        return half
    out = np.empty((p + 1, p + 1))
    out[:p, :p] = half
    out[:p, p] = out[p, :p] = math.sqrt(2.0) * x[:p, p]
    out[p, p] = x[p, p]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 63, 128])
def test_half_pencil_from_column_matches_dense(n):
    """the Toeplitz view of c_0 .. c_{p-1} plus or minus the Hankel view of
    c_{n-1} .. c_1 gives each half of A and of M bit for bit as the dense
    blocks of the Toeplitz matrix do"""
    op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, n + 1),
                     ns.make_fractional_kernel(0.3))
    for column in (op.symbol, op.mass_symbol):
        dense = scipy.linalg.toeplitz(column)
        for sign in (1.0, -1.0):
            half = _half_pencil(column, sign)
            oracle = _dense_half(dense, sign)
            assert half.shape == oracle.shape
            assert np.array_equal(half, oracle)


def test_mass_half_bands_match_the_dense_half():
    """the closed-form bands of each mass half are those of the dense
    half bit for bit, and the dense half has no other nonzero entry, for
    N = 2 .. 39, 128, 129 and 512 elements"""
    for n in list(range(1, 39)) + [127, 128, 511]:
        column = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, n + 1),
                             ns.make_fractional_kernel(0.5)).mass_symbol
        dense = scipy.linalg.toeplitz(column)
        for sign in (1.0, -1.0):
            oracle = _dense_half(dense, sign)
            assert _mass_half_bands(column, sign) == (
                oracle.diagonal().tolist(), oracle.diagonal(-1).tolist()), n
            assert not np.tril(oracle, -2).any()


def test_rayleigh_quotient_of_eigenvector(spectrum128, op128):
    E = eigenvector_matrix(spectrum128)
    for j in (0, 1, 4):
        q = rayleigh_quotient(op128, E[:, j])
        assert q == pytest.approx(spectrum128.eigenvalues[j], rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 64])
def test_mass_products_build_no_dense_mass(n):
    """`project`, `rayleigh_quotient` and `norm_L2` form M u as the
    tridiagonal product of `op.mass_symbol`: the dense M is never built,
    and they agree with the dense products to rounding (down to N = 2, a
    single interior node)"""
    op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, n),
                     ns.make_fractional_kernel(0.5))
    sp = ns.solve_eigenproblem(op)
    u = np.random.default_rng(n).standard_normal(op.size)
    k = min(2, op.size - 1)
    parts = ([project(sp, u, part, k) for part in ("head", "tail")]
             if k else [])
    quotient = rayleigh_quotient(op, u)
    l2 = norm_L2(op, u)
    assert "mass" not in vars(op)
    mass = op.mass
    assert l2 == pytest.approx(math.sqrt(u @ mass @ u), rel=1e-14)
    assert quotient == pytest.approx((u @ op.stiffness @ u) / (u @ mass @ u),
                                     rel=1e-14)
    if parts:
        coeffs = sp.to_eigen(mass @ u)
        head = sp.from_eigen(np.where(np.arange(sp.size) < k, coeffs, 0.0))
        np.testing.assert_allclose(parts[0], head, rtol=0.0,
                                   atol=1e-14 * np.abs(u).max())
        np.testing.assert_allclose(parts[1], u - head, rtol=0.0,
                                   atol=1e-14 * np.abs(u).max())


def test_rayleigh_inequalities_random_vectors(spectrum128, op128, rng):
    """head-subspace quotients bounded above by lambda_k, orthogonal
    complement bounded below by lambda_{k+1}."""
    lam = spectrum128.eigenvalues
    E = eigenvector_matrix(spectrum128)
    for k in (1, 2, 3, 5):
        for _ in range(20):
            c = rng.standard_normal(k)
            u = E[:, :k] @ c
            assert rayleigh_quotient(op128, u) <= lam[k - 1] + 1e-9
            c = rng.standard_normal(op128.size - k)
            v = E[:, k:] @ c
            assert rayleigh_quotient(op128, v) >= lam[k] - 1e-9


def test_project_splits_and_reassembles(spectrum128, rng):
    u = rng.standard_normal(spectrum128.size)
    for k in (1, 3, 7):
        head = project(spectrum128, u, "head", k)
        tail = project(spectrum128, u, "tail", k)
        np.testing.assert_allclose(head + tail, u, atol=1e-10)
        # projections are M-orthogonal
        assert abs(head @ spectrum128.op.mass @ tail) < 1e-10


def test_project_is_idempotent(spectrum128, rng):
    u = rng.standard_normal(spectrum128.size)
    h1 = project(spectrum128, u, "head", 4)
    h2 = project(spectrum128, h1, "head", 4)
    np.testing.assert_allclose(h1, h2, atol=1e-12)


def test_project_refuses_wrong_length(spectrum128):
    for u in (np.ones(spectrum128.size + 1), np.ones((spectrum128.size, 1))):
        with pytest.raises(InvalidParameterError):
            project(spectrum128, u, "head", 2)


def test_gap_accessor(spectrum128):
    """gap states the eigen-index rule for project and check_f2_gap too; a
    bool k once read as a numpy mask"""
    lam = spectrum128.eigenvalues
    assert spectrum128.gap(2) == (lam[1], lam[2])
    spec = nl.saturating(20.0, 0.5, nl.constant_profile(1.0))
    u = np.ones(spectrum128.size)
    for k in (0, True, 2.5, spectrum128.size):
        for call in (lambda: spectrum128.gap(k),
                     lambda: project(spectrum128, u, "head", k),
                     lambda: nl.check_f2_gap(spec, spectrum128, k)):
            with pytest.raises(InvalidParameterError):
                call()


def test_cluster_guard():
    # a nearly-degenerate pair within the relative split tolerance
    mesh = ns.build_uniform_mesh(-1.0, 1.0, 8)
    op = ns.assemble(mesh, ns.make_fractional_kernel(0.5))
    sp = ns.solve_eigenproblem(op)
    lam = sp.eigenvalues.copy()
    lam[2] = lam[1] * (1.0 + 1e-12)
    object.__setattr__(sp, "eigenvalues", lam)
    with pytest.raises(EigenClusterError):
        sp.gap(2)


def _bad_meshes(op):
    """Operators whose mesh has b < a or a NaN end: M is not SPD."""
    mesh = op.mesh
    for bad in (dataclasses.replace(mesh, a=mesh.b, b=mesh.a),
                dataclasses.replace(mesh, b=np.nan)):
        yield dataclasses.replace(op, mesh=bad)


def test_non_spd_mass_is_rejected(op128):
    for bad, pivot in zip(_bad_meshes(op128), ("-0.0104", "nan")):
        with pytest.raises(AssemblyCorruptionError,
                           match=f"pivot 1 of the even half is {pivot}"):
            ns.solve_eigenproblem(bad)


@pytest.mark.parametrize("n", [2, 3, 128])
def test_solve_builds_the_eigenvectors_once(monkeypatch, n):
    """solving makes one eigh and one sign pass per non-empty half (N = 2
    leaves the odd half empty); applying the eigenbasis makes no further
    sign pass, and every Spectrum of one operator gets the same bits.  A
    non-SPD mass is refused by the solve, before any vector is read."""
    from nonlocal_saddle import spectral
    op = ns.assemble(ns.build_uniform_mesh(-1.0, 1.0, n),
                     ns.make_fractional_kernel(0.5))
    calls = {"eigh": 0, "_fix_signs": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(spectral, "_fix_signs",
                        counted("_fix_signs", spectral._fix_signs))
    sp = ns.solve_eigenproblem(op)
    halves = 1 if n == 2 else 2
    assert calls == {"eigh": halves, "_fix_signs": halves}
    first = eigenvector_matrix(sp)
    assert calls == {"eigh": halves, "_fix_signs": halves}
    assert np.array_equal(eigenvector_matrix(ns.solve_eigenproblem(op)),
                          first)
    # the eigensolve and the vectors read the two columns, never dense A, M
    assert "stiffness" not in vars(op) and "mass" not in vars(op)
    for bad in _bad_meshes(op):
        with pytest.raises(AssemblyCorruptionError, match="positive definite"):
            ns.solve_eigenproblem(bad)


@pytest.mark.parametrize("n", [2, 3, 64, 65])
def test_dual_norms_match_the_dense_inverse(fractional_op, n):
    """|g|_{Z*} from the half eigenvectors equals sqrt(g^T A^-1 g) by a
    dense solve, for one g and column by column, at both parities of the
    interior size n - 1"""
    op = fractional_op(0.5, n)
    sp = ns.solve_eigenproblem(op)
    g = np.random.default_rng(n).standard_normal((op.size, 3))
    dense = np.sqrt(np.sum(g * np.linalg.solve(op.stiffness, g), axis=0))
    np.testing.assert_allclose(sp.dual_norms(g), dense, rtol=1e-12)
    assert float(sp.dual_norms(g[:, 1])) == pytest.approx(dense[1],
                                                         rel=1e-12)


def _scattered_halves(sp):
    """E written out column by column from the half eigenvectors x:
    [x / sqrt2; x_mid; +-J x / sqrt2], x_mid = 0 in the odd half (x_mid
    only for an odd interior size), the even half's columns first and then
    each moved to its eigenvalue's position `rank`"""
    n, p = sp.size, sp.size // 2
    cols = []
    for half, sign in zip(sp.halves, (1.0, -1.0)):
        for x in half.T:
            top = x[:p] / math.sqrt(2.0)
            mid = x[p:] if sign > 0.0 else np.zeros(n - 2 * p)
            cols.append(np.concatenate((top, mid, sign * top[::-1])))
    e = np.empty((n, n))
    e[:, sp.rank] = np.column_stack(cols)
    return e


@pytest.mark.parametrize("n", [2, 3, 4, 64, 65])
def test_eigen_coordinates_are_the_eigenvectors_up_to_sign(fractional_op, n):
    """from_eigen's columns are the half eigenvectors scattered to the
    nodes exactly, canonical signs included (the signs are decided once,
    on the halves), in the order of `eigenvalues`, and mapping a block of
    unit columns gives the same bits; to_eigen is their transpose,
    E^T M E = I and E^T A E is diag `eigenvalues`, at both parities of the
    interior size n - 1"""
    op = fractional_op(0.5, n)
    sp = ns.solve_eigenproblem(op)
    e = np.column_stack([sp.from_eigen(col) for col in np.eye(op.size)])
    np.testing.assert_array_equal(e, _scattered_halves(sp))
    np.testing.assert_array_equal(eigenvector_matrix(sp), e)
    g = np.random.default_rng(n).standard_normal(op.size)
    np.testing.assert_allclose(sp.to_eigen(g), e.T @ g, rtol=0,
                               atol=1e-13 * np.abs(g).sum())
    np.testing.assert_allclose(e.T @ op.mass @ e, np.eye(op.size), rtol=0,
                               atol=1e-13)
    lam = sp.eigenvalues
    np.testing.assert_allclose(e.T @ op.stiffness @ e, np.diag(lam), rtol=0,
                               atol=1e-12 * lam.max())


@pytest.mark.parametrize("n", [2, 3, 64, 65])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_eigen_coordinates_are_in_the_order_of_eigenvalues(fractional_op, s,
                                                          n):
    """coefficient j of to_eigen and from_eigen belongs to eigenvalues[j]:
    to_eigen(M from_eigen(c)) returns c, and column j of from_eigen(I)
    solves A e = lambda_j M e, at both parities of the interior size
    n - 1"""
    op = fractional_op(s, n)
    sp = ns.solve_eigenproblem(op)
    c = np.random.default_rng(n).standard_normal(sp.size)
    np.testing.assert_allclose(sp.to_eigen(op.mass @ sp.from_eigen(c)), c,
                               rtol=0, atol=1e-13 * np.abs(c).max())
    e = sp.from_eigen(np.eye(sp.size))
    lam = sp.eigenvalues
    residual = op.stiffness @ e - (op.mass @ e) * lam
    assert np.all(np.abs(residual).max(axis=0)
                  <= 1e-13 * lam.max() * np.abs(e).max(axis=0))


@pytest.mark.parametrize("n", [2, 3, 4, 64, 65])
def test_from_eigen_maps_a_block_of_columns(fractional_op, n):
    """from_eigen of a 2-D coefficient block equals it column by column to
    rounding (a matrix product may round otherwise than a matrix-vector
    product), with an empty odd half (N = 2) and at both parities of the
    interior size n - 1"""
    sp = ns.solve_eigenproblem(fractional_op(0.5, n))
    y = np.random.default_rng(n).standard_normal((sp.size, 3))
    block = sp.from_eigen(y)
    assert block.shape == y.shape
    by_column = np.column_stack([sp.from_eigen(col) for col in y.T])
    np.testing.assert_allclose(block, by_column, rtol=0,
                               atol=1e-14 * np.abs(y).sum(axis=0).max())


@pytest.mark.parametrize("s,floor", [(0.25, 2.0 / 4.0 ** 1.5),
                                     (0.5, 0.125),
                                     (0.75, 2.0 / 4.0 ** 2.5)])
def test_poincare_floor_closed_form(s, floor):
    # theta * |B_R \ Omega| / (2R)^(1+2s) with R = 2, Omega = (-1, 1)
    assert ns.poincare_lower_bound((-1.0, 1.0), s, 1.0, 2.0) == pytest.approx(
        floor, rel=1e-14)


@pytest.mark.parametrize("theta,R", [(math.nan, 2.0), (math.inf, 2.0),
                                     (1.0, math.nan)])
def test_poincare_floor_refuses_bad_input(theta, R):
    with pytest.raises(InvalidParameterError):
        ns.poincare_lower_bound((-1.0, 1.0), 0.5, theta, R)


def test_lambda1_above_poincare_floor(spectrum_by_s):
    for s, sp in spectrum_by_s.items():
        floor = ns.poincare_lower_bound((-1.0, 1.0), s, 1.0, 2.0)
        assert sp.eigenvalues[0] >= floor


def test_eigenvalues_decrease_under_refinement(ops_refinement):
    """conforming Galerkin: every discrete eigenvalue approximates from
    above, so refinement is monotone non-increasing."""
    lams = [ns.solve_eigenproblem(ops_refinement[n]).eigenvalues[:3]
            for n in (32, 64, 128, 512)]
    for coarse, fine in zip(lams[:-1], lams[1:]):
        assert np.all(fine <= coarse + 1e-12)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(min_value=1, max_value=20), seed=st.integers(0, 1000))
def test_rayleigh_bounds_property(spectrum128, k, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(k)
    u = eigenvector_matrix(spectrum128)[:, :k] @ c
    lam = spectrum128.eigenvalues
    q = rayleigh_quotient(spectrum128.op, u)
    assert lam[0] - 1e-9 <= q <= lam[k - 1] + 1e-9
