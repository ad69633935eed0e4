import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonlocal_saddle as ns
from nonlocal_saddle import nonlinearity as nl
from nonlocal_saddle.errors import NumericError, UnauditableError


def test_affine_eval():
    spec = nl.affine(2.0, nl.constant_profile(3.0))
    assert nl.eval_f(spec, 0.0, 1.5) == pytest.approx(2.0 * 1.5 + 3.0)
    assert nl.eval_f_t(spec, 0.0, 1.5) == pytest.approx(2.0)
    assert nl.eval_F(spec, 0.0, 2.0) == pytest.approx(0.5 * 2.0 * 4.0 + 6.0)


def test_saturating_primitive_closed_form():
    # F(t) = m t^2/2 + delta (t arctan t - ln(1+t^2)/2) + g t;
    # at m = 0, delta = 1, g = 0, t = 1 this is pi/4 - ln(2)/2
    spec = nl.saturating(0.0, 1.0, nl.constant_profile(0.0))
    assert nl.eval_F(spec, 0.0, 1.0) == pytest.approx(
        math.pi / 4.0 - math.log(2.0) / 2.0, rel=1e-14)
    assert nl.eval_f(spec, 0.0, 1.0) == pytest.approx(math.atan(1.0))
    assert nl.eval_f_t(spec, 0.0, 1.0) == pytest.approx(0.5)


def test_bounded_perturbation_eval():
    spec = nl.bounded_perturbation(4.0, 0.5, nl.constant_profile(1.0))
    t = 0.7
    assert nl.eval_f(spec, 0.0, t) == pytest.approx(
        4.0 * t + 0.5 * math.sin(t) + 1.0)
    assert nl.eval_f_t(spec, 0.0, t) == pytest.approx(
        4.0 + 0.5 * math.cos(t))
    assert nl.eval_F(spec, 0.0, t) == pytest.approx(
        2.0 * t * t + 0.5 * (1.0 - math.cos(t)) + t)


def _custom_saturating(m, delta, g):
    """the saturating f as a custom spec, so f_t and F are the fallbacks"""
    return nl.custom(f=lambda x, t: m * t + delta * np.arctan(t) + g(x),
                     a_profile=lambda x: np.abs(g(x)) + delta * math.pi / 2.0,
                     b=abs(m),
                     alpha_lower=lambda x: np.full_like(x, m),
                     alpha_upper=lambda x: np.full_like(x, m))


def _custom_bounded_perturbation(m, c, g):
    """the bounded_perturbation f as a custom spec"""
    return nl.custom(f=lambda x, t: m * t + c * np.sin(t) + g(x),
                     a_profile=lambda x: np.abs(g(x)) + abs(c), b=abs(m),
                     alpha_lower=lambda x: np.full_like(x, m),
                     alpha_upper=lambda x: np.full_like(x, m))


@pytest.mark.parametrize("builder,args", [
    (nl.affine, (5.0,)),
    (nl.saturating, (5.0, 0.3)),
    (nl.bounded_perturbation, (5.0, 0.4)),
    (_custom_saturating, (5.0, 0.3)),
])
def test_primitive_is_antiderivative(builder, args):
    """central difference of F reproduces f."""
    spec = builder(*args, nl.polynomial_profile([1.0, -0.5]))
    eps = 1e-6
    for x in (-0.5, 0.2):
        for t in (-2.0, 0.0, 1.3, 10.0):
            fd = (nl.eval_F(spec, x, t + eps)
                  - nl.eval_F(spec, x, t - eps)) / (2.0 * eps)
            assert fd == pytest.approx(nl.eval_f(spec, x, t),
                                       rel=1e-8, abs=1e-7)


def test_custom_fallbacks_match_closed_forms():
    """central-difference f_t and quadrature F of a custom spec against the
    saturating and bounded_perturbation families' closed forms."""
    g = nl.polynomial_profile([1.0, -0.5])
    x = np.array([-0.9, -0.2, 0.0, 0.5, 1.0])[:, None]
    t_grid = np.array([-1e3, -7.5, -1.0, 0.0, 0.02, 1.3, 40.0])
    for closed, fallback, t in (
            (nl.saturating(5.0, 0.3, g), _custom_saturating(5.0, 0.3, g),
             t_grid),
            (nl.bounded_perturbation(0.0, 0.4, g),
             _custom_bounded_perturbation(0.0, 0.4, g),
             np.concatenate((t_grid[1:], [-40.0, -23.0, 17.7, 31.0])))):
        t = t[None, :]
        f_t = np.broadcast_to(nl.eval_f_t(closed, x, t), (x.size, t.size))
        np.testing.assert_allclose(nl.eval_f_t(fallback, x, t), f_t,
                                   rtol=1e-6)
        F = nl.eval_F(closed, x, t)
        assert np.all(np.abs(nl.eval_F(fallback, x, t) - F)
                      <= 1e-12 * np.maximum(1.0, np.abs(F)))


def test_custom_primitive_refuses_unresolved_f():
    """c sin(t) oscillates too fast for the panel [t/2, t] at t = 1e3: the
    fallback F raises rather than return a wrong value, alone or in a
    batch, and whatever it does return is within its tolerance."""
    c = 0.4
    spec = nl.custom(f=lambda x, t: c * np.sin(t),
                     a_profile=lambda x: np.full_like(x, c), b=0.0,
                     alpha_lower=lambda x: np.full_like(x, -c),
                     alpha_upper=lambda x: np.full_like(x, c))
    for t in (1e3, [0.5, 1e3, 2.0]):
        with pytest.raises(NumericError, match="unresolved"):
            nl.eval_F(spec, 0.3, t)
    for t in np.linspace(-200.0, 200.0, 801):
        exact = c * (1.0 - math.cos(t))
        try:
            value = float(nl.eval_F(spec, 0.3, t))
        except NumericError:
            assert abs(t) > 40.0
            continue
        assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact))


def test_growth_audit_passes_for_families():
    x = np.linspace(-0.9, 0.9, 11)
    for spec in (nl.affine(3.0, nl.constant_profile(1.0)),
                 nl.saturating(3.0, 0.5, nl.constant_profile(1.0)),
                 nl.bounded_perturbation(3.0, 0.5, nl.constant_profile(1.0))):
        report = nl.audit_growth(spec, x)
        assert report.passed
        assert report.worst_slack >= -1e-9


def test_growth_audit_fails_superlinear_custom():
    spec = nl.custom(f=lambda x, t: t ** 3,
                     a_profile=lambda x: np.full_like(np.asarray(x, float), 1.0),
                     b=10.0,
                     alpha_lower=lambda x: np.full_like(np.asarray(x, float), 0.0),
                     alpha_upper=lambda x: np.full_like(np.asarray(x, float), np.inf))
    report = nl.audit_growth(spec, np.linspace(-0.9, 0.9, 5))
    assert not report.passed
    assert report.worst_slack < 0.0
    assert abs(report.worst_t) == pytest.approx(1e6)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

LAM = np.array([7.29, 17.34, 27.17, 37.14, 47.02])


def test_classify_slopes_cases():
    assert nl.classify_slopes(0.0, 0.0, LAM).case is nl.Case.COERCIVE
    c = nl.classify_slopes(20.0, 20.5, LAM)
    assert c.case is nl.Case.GAP and c.k == 2
    c = nl.classify_slopes(8.0, 9.0, LAM)
    assert c.case is nl.Case.GAP and c.k == 1
    assert nl.classify_slopes(17.0, 18.0, LAM).case is nl.Case.UNSUPPORTED
    assert nl.classify_slopes(17.34, 17.34, LAM).case is nl.Case.UNSUPPORTED
    assert nl.classify_slopes(100.0, 101.0, LAM).case is nl.Case.UNSUPPORTED


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(min_value=-5.0, max_value=60.0),
       width=st.floats(min_value=0.0, max_value=30.0))
def test_classify_slopes_is_sound(lo, width):
    """whatever the verdict, it is consistent with its definition."""
    hi = lo + width
    c = nl.classify_slopes(lo, hi, LAM)
    if c.case is nl.Case.COERCIVE:
        assert hi < LAM[0]
    elif c.case is nl.Case.GAP:
        assert LAM[c.k - 1] < lo and hi < LAM[c.k]
    else:
        # straddles some eigenvalue or exceeds the computed spectrum
        assert (any(lo - 1e-9 <= lam <= hi + 1e-9 for lam in LAM)
                or hi >= LAM[-1] - 1e-9)


def test_classify_against_spectrum(spectrum128):
    spec = nl.saturating(20.0, 0.5, nl.constant_profile(1.0))
    c = nl.classify(spec, spectrum128)
    assert c.case is nl.Case.GAP and c.k == 2
    spec = nl.affine(0.0, nl.constant_profile(1.0))
    assert nl.classify(spec, spectrum128).case is nl.Case.COERCIVE


def test_classify_x_dependent_slopes(spectrum128):
    """a nodal profile that crosses lambda_1 somewhere must straddle."""
    lam1 = spectrum128.eigenvalues[0]
    x = np.linspace(-1.0, 1.0, 21)
    g = nl.nodal_profile(x, np.zeros_like(x))
    spec = nl.custom(
        f=lambda xx, t: (lam1 + np.asarray(xx)) * t,
        a_profile=lambda xx: np.zeros_like(np.asarray(xx, float)),
        b=lam1 + 1.5,
        alpha_lower=lambda xx: lam1 + np.asarray(xx, float),
        alpha_upper=lambda xx: lam1 + np.asarray(xx, float))
    c = nl.classify(spec, spectrum128)
    assert c.case is nl.Case.UNSUPPORTED
    assert "straddles" in c.reason


# ---------------------------------------------------------------------------
# (f2) slope-gap check
# ---------------------------------------------------------------------------

def test_f2_gap_saturating(spectrum128):
    spec = nl.saturating(20.0, 0.5, nl.constant_profile(1.0))
    rep = nl.check_f2_gap(spec, spectrum128, 2)
    assert rep.passed
    lo, hi = spectrum128.gap(2)
    assert rep.gap == (lo, hi)
    assert rep.slope_range == (20.0, 20.5)


def test_f2_gap_affine_degenerate_range(spectrum128):
    spec = nl.affine(20.0, nl.constant_profile(0.0))
    rep = nl.check_f2_gap(spec, spectrum128, 2)
    assert rep.passed
    assert rep.slope_range == (20.0, 20.0)


def test_f2_gap_fails_outside(spectrum128):
    spec = nl.saturating(17.0, 0.5, nl.constant_profile(0.0))
    rep = nl.check_f2_gap(spec, spectrum128, 2)
    assert not rep.passed
    assert rep.lower_margin < 0.0


def test_f2_unauditable_without_slope_range(spectrum128):
    spec = nl.custom(f=lambda x, t: 20.0 * t,
                     a_profile=lambda x: np.zeros_like(np.asarray(x, float)),
                     b=21.0,
                     alpha_lower=lambda x: np.full_like(np.asarray(x, float), 20.0),
                     alpha_upper=lambda x: np.full_like(np.asarray(x, float), 20.0))
    with pytest.raises(UnauditableError):
        nl.check_f2_gap(spec, spectrum128, 2)


def test_source_profiles():
    p = nl.polynomial_profile([1.0, 2.0, 3.0])  # 1 + 2x + 3x^2
    assert p(0.5) == pytest.approx(1.0 + 1.0 + 0.75)
    q = nl.nodal_profile([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0])
    assert q(0.5) == pytest.approx(1.0)
    c = nl.constant_profile(4.0)
    np.testing.assert_allclose(c(np.array([-1.0, 2.0])), [4.0, 4.0])
