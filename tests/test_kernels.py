import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonlocal_saddle as ns
from nonlocal_saddle.errors import (AuditFailedError, AuditInconclusiveError,
                                    InvalidParameterError)


def test_fractional_kernel_values():
    k = ns.make_fractional_kernel(0.5)
    # |z|^(-2) at z = 2
    assert k(np.array([2.0]))[0] == pytest.approx(0.25, rel=1e-15)
    assert k.singularity_power == pytest.approx(2.0)
    assert k.theta == 1.0


@pytest.mark.parametrize("s", [-0.1, 0.0, 1.0, 1.3])
def test_fractional_kernel_rejects_bad_s(s):
    with pytest.raises(InvalidParameterError):
        ns.make_fractional_kernel(s)


@pytest.mark.parametrize("s,theta", [(0.5, math.nan), (0.5, math.inf)])
def test_custom_kernel_rejects_bad_parameters(s, theta):
    with pytest.raises(InvalidParameterError):
        ns.make_custom_kernel(lambda z: np.abs(z) ** -2.0, s, theta)


def test_k1_closed_form():
    # int min{x^2,1} |x|^(-1-2s) dx = 2/(2-2s) + 2/(2s); equals 4 at s=1/2
    assert ns.fractional_k1_closed_form(0.5) == pytest.approx(4.0, rel=1e-15)
    assert ns.fractional_k1_closed_form(0.25) == pytest.approx(
        2.0 / 1.5 + 2.0 / 0.5, rel=1e-15)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_audit_fractional_matches_closed_form(s):
    # the fractional family takes closed forms; the same kernel as a custom
    # one takes the Gauss panels
    custom = ns.make_custom_kernel(
        lambda z: np.abs(z) ** (-1.0 - 2.0 * s), s=s, theta=1.0)
    for kern, rel in ((ns.make_fractional_kernel(s), 1e-8), (custom, 1e-10)):
        audit = ns.audit_kernel(kern)
        assert audit.passed
        assert audit.k1_integral == pytest.approx(
            ns.fractional_k1_closed_form(s), rel=rel)
        assert audit.k2_worst_ratio == pytest.approx(1.0, abs=1e-12)


def test_audit_rejects_integrable_but_unbounded_below_kernel():
    # decays too fast at infinity is fine; violating the lower bound is not.
    # K = 0.5 * |z|^(-2) fails K2 for theta = 1.
    k = ns.make_custom_kernel(lambda z: 0.5 * np.abs(z) ** -2.0, s=0.5,
                              theta=1.0)
    audit = ns.audit_kernel(k)
    assert not audit.k2_holds
    assert audit.k2_worst_ratio == pytest.approx(0.5, rel=1e-12)


def test_audit_flags_fat_tail_as_k1_failure():
    # |z|^(-1) is not integrable at infinity: K1 integral must be infinite
    k = ns.make_custom_kernel(lambda z: np.abs(z) ** -1.0, s=0.5, theta=1.0)
    audit = ns.audit_kernel(k)
    assert math.isinf(audit.k1_integral)
    assert not audit.k1_holds


def test_audit_refuses_unresolved_k1():
    # sin(z^2) oscillates ever faster on the panels [r, 2r]: orders q and
    # q + 6 disagree, so the audit reports no K1 value at all
    k = ns.make_custom_kernel(
        lambda z: np.abs(z) ** -2.0 * (2.0 + np.sin(np.asarray(z) ** 2)),
        s=0.5, theta=1.0)
    with pytest.raises(AuditInconclusiveError, match="unresolved"):
        ns.audit_kernel(k)


def test_assemble_refuses_failed_audit():
    k = ns.make_custom_kernel(lambda z: np.abs(z) ** -1.0, s=0.5, theta=1.0)
    audit = ns.audit_kernel(k)
    mesh = ns.build_uniform_mesh(-1.0, 1.0, 8)
    with pytest.raises(AuditFailedError):
        ns.assemble(mesh, k, audit=audit)


def test_custom_kernel_dominating_fractional_passes():
    # K = |z|^(-2) + exp(-z^2) satisfies both conditions with theta = 1
    k = ns.make_custom_kernel(
        lambda z: np.abs(z) ** -2.0 + np.exp(-np.asarray(z) ** 2), s=0.5,
        theta=1.0)
    audit = ns.audit_kernel(k)
    assert audit.passed
    assert audit.k1_integral > ns.fractional_k1_closed_form(0.5)


@settings(max_examples=25, deadline=None)
@given(s=st.floats(min_value=0.05, max_value=0.95),
       scale=st.floats(min_value=1.0, max_value=10.0))
def test_scaled_fractional_kernel_audit_ratio(s, scale):
    """K2 worst ratio for c*|z|^(-1-2s) against theta=1 is exactly c."""
    k = ns.make_custom_kernel(
        lambda z, s=s, c=scale: c * np.abs(z) ** (-1.0 - 2.0 * s),
        s=s, theta=1.0)
    audit = ns.audit_kernel(k)
    assert audit.k2_worst_ratio == pytest.approx(scale, rel=1e-10)
    assert audit.k2_holds
