import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import const_table, linear_table
from oracles import depth_first_reconstruct

from haarshift import (
    CoefficientTable,
    KernelSpec,
    compare_report,
    get_kernel,
    kernel_profile,
    mc_estimate,
    reconstruct_at,
)
from haarshift import reconstruct
from haarshift.cli import _probe_spec


def test_profile_shape():
    p = kernel_profile()
    assert p(0.25) == -1.25
    assert p(0.5) == -2.0
    assert p(0.75) == 1.75
    assert p(0.3) == pytest.approx(-p(-0.3), abs=1e-15)


@pytest.mark.parametrize("x", [0.0, -2.0, math.nan, math.inf])
def test_reconstruct_requires_positive_x(x):
    # unchecked, a NaN probe splits panels without bound
    with pytest.raises(ValueError, match="0 < x < inf"):
        reconstruct_at(const_table(1.0), x)
    with pytest.raises(ValueError, match="0 < x < inf"):
        compare_report(get_kernel("hilbert"), const_table(1.0), [1.0, x])


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


def test_cubic_table_verifies_to_1e9_at_step_2_to_minus_11(cp_fine_table):
    """The table's cubic read leaves verify's error at the solve's and the
    quadrature's level: conjugate-poisson at step 2^-11 on the benchmark's
    probes reads max_rel_err 1.4e-10, where the linear read gave 8.9e-8."""
    probes = _probe_spec("log:0.001:1000:200")
    report = compare_report(get_kernel("conjugate-poisson"), cp_fine_table, probes)
    assert report["max_rel_err"] <= 1e-9


@pytest.mark.parametrize("fixture", ["cp_table", "smoothed_table"])
def test_breadth_first_matches_depth_first(fixture, request):
    """The batched bisection accepts the panels the one-at-a-time route
    accepts, so the two differ only in the order of the summation; probes
    are the verify subcommand's default, log:0.001:1000:50."""
    table = request.getfixturevalue(fixture)
    for x in np.logspace(-3.0, 3.0, 50):
        want = depth_first_reconstruct(table, float(x))
        assert reconstruct_at(table, float(x)) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("fixture", ["cp_fine_table", "smoothed_fine_table"])
@pytest.mark.parametrize("probes", ["log:0.001:1000:200", "log:0.001:1000:50"])
def test_batched_reconstruction_matches_single_probes(fixture, probes, request):
    """One quadrature over all of verify's probes gives each probe the bits
    of its own call."""
    table = request.getfixturevalue(fixture)
    xs = _probe_spec(probes)
    got = reconstruct_at(table, xs)
    assert type(got) is np.ndarray and got.shape == xs.shape
    want = np.array([reconstruct_at(table, x) for x in xs.tolist()])
    assert got.tobytes() == want.tobytes()


def missed_spike_table() -> CoefficientTable:
    """Noise below u = -1; above it zero but for a plateau of height 1.

    At x = 1 the quadrature reads u = -ln s >= 0.  The plateau is centred
    on the node of the first halves farthest from every node of the first
    estimates, and ends halfway to them, so those estimates read 0 and the
    probe's scale starts at its floor, while the halves read the plateau:
    its panels then split until more than 4096 are pending.  Probes below
    x = e^-1 also read the noise, whose kinks keep a few thousand of their
    panels pending, but never 4096.
    """
    step = 2.0**-9
    nodes = np.polynomial.legendre.leggauss(8)[0]

    def node_u(width):
        mid = np.arange(width / 2, 1.0, width)
        return -np.log((mid[:, None] + width / 2 * nodes).ravel())

    first, halves = node_u(0.25), node_u(0.125)
    halves = halves[(halves > 0.0) & (halves < 2.0)]
    gaps = np.min(np.abs(halves[:, None] - first), axis=1)
    grid = -4.0 + step * np.arange(round(8.0 / step) + 1)
    samples = np.where(grid < -1.0, np.random.default_rng(1).uniform(-1.0, 1.0, grid.size), 0.0)
    samples[np.abs(grid - halves[np.argmax(gaps)]) <= 0.5 * gaps.max()] = 1.0
    return CoefficientTable(
        u_min=-4.0,
        u_max=4.0,
        step=step,
        samples=samples,
        tail_left=0.0,
        tail_right=0.0,
        residual_sup=0.0,
        iterations=0,
    )


def test_pending_cap_grows_only_its_own_probes_scale(monkeypatch):
    """A probe past the pending-panel cap grows its own scale and no other
    probe's: batched with probes that stay under the cap, every probe gets
    the bits of its own call."""
    table = missed_spike_table()
    xs = np.array([1.0, *np.exp(np.linspace(-3.5, -1.5, 8))])
    sizes = []
    panels = reconstruct._panels

    def spy(table, log_x, a, b):
        sizes.append(a.size)
        return panels(table, log_x, a, b)

    monkeypatch.setattr(reconstruct, "_panels", spy)
    want, peaks = [], []
    for x in xs.tolist():
        sizes.clear()
        want.append(reconstruct_at(table, x))
        # each round evaluates two halves per pending panel
        peaks.append(max(sizes) // 2)
    assert peaks[0] > reconstruct._PENDING_CAP >= max(peaks[1:])
    assert want[0] != 0.0
    assert reconstruct_at(table, xs).tobytes() == np.array(want).tobytes()


def test_reconstruct_empty_array():
    got = reconstruct_at(const_table(1.0), np.array([]))
    assert type(got) is np.ndarray and got.shape == (0,)


@pytest.mark.parametrize("bad", [0.0, math.nan])
def test_batched_reconstruction_checks_every_probe_first(bad, monkeypatch):
    """A bad probe anywhere in the array raises before any panel is
    evaluated, naming the first bad probe."""

    def no_quadrature(*args):
        raise AssertionError("quadrature ran before the probes were checked")

    monkeypatch.setattr(reconstruct, "_panels", no_quadrature)
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r};")):
        reconstruct_at(const_table(1.0), np.array([1.0, bad, -1.0, 2.0]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    samples=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=120),
    step=st.sampled_from((2.0**-9, 2.0**-3, 0.5)),
    start=st.integers(-320, 320),
    shift=st.integers(-300, 300),
    tails=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    where=st.floats(-2.0, 2.0),
    rtol=st.sampled_from((1e-6, 1e-8, 1e-10)),
)
def test_reconstruct_scaling_equivariance(samples, step, start, shift, tails, where, rtol):
    """K(x) = (1/x) int_0^1 c(ln x - ln s) P(s) ds, so the table shifted by
    j grid steps, read at lam x with lam = e^(j step), gives K(x) / lam.
    The two reads of the table differ by rounding only, so the bisection
    parts ways, if at all, at a panel on its stop threshold, where the two
    estimates agree within rtol times the scale; the scale is at most
    sup|c| int_0^1 |P| <= 2 sup|c|, which bounds the gap by
    2 rtol sup|c| / x."""
    n = len(samples)

    def table(u_min):
        return CoefficientTable(
            u_min=u_min,
            u_max=u_min + (n - 1) * step,
            step=step,
            samples=np.array(samples),
            tail_left=tails[0],
            tail_right=tails[1],
            residual_sup=0.0,
            iterations=0,
        )

    # dyadic step and start, so both windows sit on exact grids
    base = table(start / 16.0)
    shifted = table(start / 16.0 + shift * step)
    lam = math.exp(shift * step)
    # x from 2 log units below the window to 2 above, so tails are read too
    x = math.exp(base.u_min + (0.5 + where / 4.0) * (base.u_max - base.u_min) + where)
    want = reconstruct_at(base, x, rtol=rtol)
    got = lam * reconstruct_at(shifted, lam * x, rtol=rtol)
    assert abs(got - want) <= 2.0 * rtol * base.sup_norm() / x


def test_compare_report_basics(hilbert_table):
    spec = get_kernel("hilbert")
    report = compare_report(spec, hilbert_table, [0.5, 1.0, 2.0])
    assert set(report) == {"kernel", "probes", "max_rel_err"}
    assert report["kernel"] == "hilbert"
    keys = {"x", "K", "Khat", "rel_err", "outside_window"}
    assert [set(row) for row in report["probes"]] == [keys] * 3
    assert not any(row["outside_window"] for row in report["probes"])
    assert report["max_rel_err"] <= 1e-6
    assert compare_report(spec, hilbert_table, [0.5, 1.0, 2.0]) == report


def test_compare_report_keeps_a_nan_error(hilbert_table):
    """A probe whose K is NaN makes max_rel_err NaN: the builtin max would
    drop it and report the other probe's error."""
    hilbert = get_kernel("hilbert")
    spec = KernelSpec(
        "nan-at-2", lambda x: np.where(np.asarray(x) == 2.0, np.nan, 1.0 / np.asarray(x)),
        hilbert.k2, hilbert.m_eval,
    )
    report = compare_report(spec, hilbert_table, [1.0, 2.0])
    assert math.isnan(report["probes"][1]["rel_err"])
    assert math.isnan(report["max_rel_err"])


def test_compare_report_empty(hilbert_table):
    report = compare_report(get_kernel("hilbert"), hilbert_table, [])
    assert report["probes"] == []
    assert report["max_rel_err"] == 0.0


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
    # the floor is floor(log2 0.7) = -1: level -2 cells are shorter than 0.7
    assert est.levels.start == -1
    assert est.tail_bound <= 1e-4
    sup = hilbert_table.sup_norm()
    assert est.tail_bound == pytest.approx(
        14.0 * sup * 2.0 ** (-est.levels[-1]), rel=1e-12
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


def test_mc_stderr_survives_large_separations(hilbert_table):
    """At x - y = 1e160 the replicate means are about 1e-160, whose squares
    underflow: the stderr is their spread scaled back, exactly 2^-400 times
    the stderr at 2^-400 times the separation, where only the floor level
    is admitted as well.  x sits at 1 - sigma in its floor cell, of
    length 2^531 / omega, omega in [1/2, 1], and y lies x - y = 1.42 2^531
    to its left, so some dilation puts y in x's cell at the 1176 of 4080
    sigma points below 1 - 1.42 / 2 = 0.289 (none falls in the sigma
    table's cell that straddles 0.289, where the read is nonzero too)."""
    far = mc_estimate(hilbert_table, 1e160, 0.0, num_samples=4096, seed=3)
    near = mc_estimate(hilbert_table, math.ldexp(1e160, -400), 0.0, num_samples=4096, seed=3)
    assert len(far.levels) == len(near.levels) == 1 and far.record[0].hits == 1176
    assert far.mean == math.ldexp(near.mean, -400)
    assert far.stderr == math.ldexp(near.stderr, -400) > 0.0
    assert far.record[0].stderr == math.ldexp(near.record[0].stderr, -400)


def test_mc_scaling_equivariance():
    # a flat coefficient table makes the averaged kernel homogeneous of
    # degree -1, so doubling both points halves the estimate
    table = const_table(2.0)
    one = mc_estimate(table, 0.8, 0.3, num_samples=40_000, seed=6)
    two = mc_estimate(table, 1.6, 0.6, num_samples=40_000, seed=7)
    band = 3 * (0.5 * one.stderr + two.stderr) + 1.5 * one.tail_bound
    assert abs(two.mean - 0.5 * one.mean) <= band


def test_one_draw_estimate_is_strict_json(hilbert_table):
    """A one-draw estimate has no stderr: its JSON form holds None there, at
    the top and in every level, so it serializes with NaN refused."""
    est = mc_estimate(hilbert_table, 0.9, 0.1, num_samples=1, seed=0)
    payload = json.loads(json.dumps(est.to_dict(), allow_nan=False))
    assert payload["stderr"] is None and payload["stderr_defined"] is False
    assert [level["stderr"] for level in payload["levels"]] == [None] * len(est.record)
