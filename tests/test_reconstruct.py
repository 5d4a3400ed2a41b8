import math

import numpy as np
import pytest

from conftest import const_table, linear_table

from haarshift import (
    compare_report,
    get_kernel,
    kernel_profile,
    mc_estimate,
    reconstruct_at,
)


def test_profile_shape():
    p = kernel_profile()
    assert p(0.25) == -1.25
    assert p(0.5) == -2.0
    assert p(0.75) == 1.75
    assert p(0.3) == pytest.approx(-p(-0.3), abs=1e-15)


def test_reconstruct_requires_positive_x():
    with pytest.raises(ValueError):
        reconstruct_at(const_table(1.0), 0.0)
    with pytest.raises(ValueError):
        reconstruct_at(const_table(1.0), -2.0)


@pytest.mark.parametrize("rtol", [0.0, -1.0, math.nan, 1e-30, 1e-300])
def test_reconstruct_requires_positive_rtol(rtol):
    # with rtol <= 0 the panel stop test can never hold, and below the
    # double-precision epsilon rounding keeps it from holding
    with pytest.raises(ValueError, match=r"rtol >= 2\^-52"):
        reconstruct_at(const_table(1.0), 1.0, rtol=rtol)


def test_reconstruct_zero_coefficients():
    assert reconstruct_at(const_table(0.0), 1.7) == 0.0


def test_reconstruct_constant_coefficients_exact():
    # with a flat table the quadrature integrand is const * profile, a
    # polynomial the panel rule integrates exactly: value is -3 c / (8 x)
    for c0 in (2.5, -1.0):
        for x in (0.05, 1.0, 17.0):
            expected = -3.0 * c0 / (8.0 * x)
            got = reconstruct_at(const_table(c0), x)
            assert got == pytest.approx(expected, rel=1e-10)


def test_reconstruct_log_linear_coefficients_hand_integrated():
    """Second deterministic route: for a table that is exactly linear on
    the log axis the s-integral splits into the profile mass and the
    profile against ln s, both computable in closed form per knot piece."""
    p = kernel_profile()
    knots = [float(k) for k in p.knots if k >= 0]
    vals = [p(k) for k in knots]
    j = 0.0
    for a, b, v1, v2 in zip(knots, knots[1:], vals, vals[1:]):
        slope = (v2 - v1) / (b - a)
        off = v1 - slope * a

        def anti(s):
            if s == 0.0:
                return 0.0
            return slope * (s * s / 2 * math.log(s) - s * s / 4) + off * (
                s * math.log(s) - s
            )

        j += anti(b) - anti(a)
    slope, intercept = 0.8, -1.3
    table = linear_table(slope, intercept)
    for x in (0.5, 1.0, 2.0):
        expected = ((slope * math.log(x) + intercept) * (-0.375) - slope * j) / x
        assert reconstruct_at(table, x) == pytest.approx(expected, abs=1e-7)


def test_reconstruct_hilbert(hilbert_table):
    for x in np.logspace(-3, 3, 7):
        assert reconstruct_at(hilbert_table, x) * x == pytest.approx(1.0, abs=1e-6)


def test_reconstruct_conjugate_poisson(cp_table):
    spec = get_kernel("conjugate-poisson")
    for x in (0.05, 0.7, 3.0, 40.0):
        want = float(spec.k(x))
        got = reconstruct_at(cp_table, x)
        assert got == pytest.approx(want, rel=7e-3)


def test_compare_report_basics(hilbert_table):
    spec = get_kernel("hilbert")
    report = compare_report(spec, hilbert_table, [0.5, 1.0, 2.0])
    assert report.kernel_name == "hilbert"
    assert len(report.probes) == 3
    assert report.max_rel_err <= 1e-6
    again = compare_report(spec, hilbert_table, [0.5, 1.0, 2.0])
    assert again.to_dict() == report.to_dict()


def test_compare_report_empty(hilbert_table):
    report = compare_report(get_kernel("hilbert"), hilbert_table, [])
    assert report.probes == []
    assert report.max_rel_err == 0.0


def test_mc_estimate_validation(hilbert_table):
    with pytest.raises(ValueError):
        mc_estimate(hilbert_table, 0.5, 0.5, num_samples=10)
    with pytest.raises(ValueError):
        mc_estimate(hilbert_table, 0.5, 0.0, num_samples=0)


def test_mc_single_draw_flags_stderr(hilbert_table):
    est = mc_estimate(hilbert_table, 0.5, 0.0, num_samples=1, seed=4)
    assert math.isnan(est.stderr)
    assert math.isfinite(est.mean)


def test_mc_deterministic(hilbert_table):
    a = mc_estimate(hilbert_table, 0.9, 0.1, num_samples=5000, seed=12)
    b = mc_estimate(hilbert_table, 0.9, 0.1, num_samples=5000, seed=12)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    c = mc_estimate(hilbert_table, 0.9, 0.1, num_samples=5000, seed=13)
    assert c.mean != a.mean


def test_mc_levels_and_tail(hilbert_table):
    est = mc_estimate(hilbert_table, 0.7, 0.0, num_samples=10, tol_tail=1e-4)
    assert est.levels.n_min == math.floor(math.log2(0.7)) - 1
    assert est.tail_bound <= 1e-4
    sup = hilbert_table.sup_norm()
    assert est.tail_bound == pytest.approx(
        14.0 * sup * 2.0 ** (-est.levels.n_max), rel=1e-12
    )


def test_mc_hits_kernel_value(hilbert_table):
    est = mc_estimate(hilbert_table, 1.3, 0.3, num_samples=60_000, seed=2)
    assert abs(est.mean - 1.0) <= 3 * est.stderr + est.tail_bound


def test_mc_matches_quadrature(hilbert_table):
    est = mc_estimate(hilbert_table, 0.7, 0.0, num_samples=60_000, seed=9)
    direct = reconstruct_at(hilbert_table, 0.7)
    assert abs(est.mean - direct) <= 3 * est.stderr + est.tail_bound


def test_mc_antisymmetric(hilbert_table):
    fwd = mc_estimate(hilbert_table, 0.9, 0.2, num_samples=40_000, seed=21)
    rev = mc_estimate(hilbert_table, 0.2, 0.9, num_samples=40_000, seed=22)
    band = 3 * (fwd.stderr + rev.stderr) + 2 * fwd.tail_bound
    assert abs(fwd.mean + rev.mean) <= band


def test_mc_scaling_equivariance():
    # a flat coefficient table makes the averaged kernel homogeneous of
    # degree -1, so doubling both points halves the estimate
    table = const_table(2.0)
    one = mc_estimate(table, 0.8, 0.3, num_samples=40_000, seed=6)
    two = mc_estimate(table, 1.6, 0.6, num_samples=40_000, seed=7)
    band = 3 * (0.5 * one.stderr + two.stderr) + 1.5 * one.tail_bound
    assert abs(two.mean - 0.5 * one.mean) <= band
