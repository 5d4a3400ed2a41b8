import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import const_table, tally_bits
from oracles import (
    Interval,
    apply_shift,
    fixed_grid,
    haar_pairing,
    integrate_pl,
    rescale_to_interval,
    sample_grid,
    sample_level,
)

from haarshift import (
    OperatorError,
    TestFunction,
    apply_averaged,
    direct_pv,
    get_kernel,
    indicator_function,
    make_g,
    triangle_function,
)
from haarshift.dyadic import accumulate_samples, estimate
from haarshift.operators import _operator_terms
from haarshift.piecewise import (
    PiecewiseLinear,
    StepFunction,
    reflect,
    second_derivative_atoms,
)


def test_pairing_mean_zero_function():
    assert haar_pairing(make_g(), indicator_function()) == 0.0


def test_pairing_self():
    assert haar_pairing(make_g(), TestFunction(make_g())) == 1.0


def test_pairing_disjoint():
    far = rescale_to_interval(make_g(), Interval(5, 1))
    assert haar_pairing(far, indicator_function()) == 0.0
    assert haar_pairing(far, triangle_function()) == 0.0


def test_pairing_partial_overlap():
    wide = rescale_to_interval(make_g(), Interval(0, 4))
    # only the first quarter [0, 1) meets the indicator: value -1/2 there
    assert haar_pairing(wide, indicator_function()) == -0.5


def test_antiderivative_triangle_values():
    f = triangle_function()
    assert f.antiderivative(-1.0) == 0.0
    assert f.antiderivative(0.5) == pytest.approx(0.125, abs=1e-15)
    assert f.antiderivative(1.5) == pytest.approx(0.875, abs=1e-15)
    assert f.antiderivative(2.0) == pytest.approx(1.0, abs=1e-15)
    assert f.antiderivative(7.0) == pytest.approx(1.0, abs=1e-15)


def test_antiderivative_matches_direct_integrals():
    rng = np.random.default_rng(3)
    tri = triangle_function()
    box = indicator_function()
    for _ in range(40):
        a, b = sorted(rng.uniform(-1, 3, size=2))
        want_tri = integrate_pl(tri.base, a, b)
        got_tri = tri.antiderivative(b) - tri.antiderivative(a)
        assert got_tri == pytest.approx(want_tri, abs=1e-14)
        want_box = max(0.0, min(b, 1.0) - max(a, 0.0))
        got_box = box.antiderivative(b) - box.antiderivative(a)
        assert got_box == pytest.approx(want_box, abs=1e-14)


def test_antiderivative_vectorized():
    f = triangle_function()
    t = np.array([-1.0, 0.5, 1.5, 3.0])
    out = f.antiderivative(t)
    assert out.shape == (4,)
    assert out == pytest.approx([0.0, 0.125, 0.875, 1.0], abs=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "base",
    [
        lambda v: StepFunction([0, 1, 2], [1.0, v]),
        lambda v: PiecewiseLinear([0, 1, 2], [0.0, v, 0.0]),
    ],
    ids=["step", "linear"],
)
def test_test_function_rejects_non_finite(base, bad):
    # one bad value would reach F everywhere: each segment's value is
    # multiplied by its d_j, which is 0 but not skipped outside the segment
    with pytest.raises(ValueError, match="bounded f"):
        TestFunction(base(bad))


def exact_antiderivative(f: TestFunction, t: float) -> Fraction:
    """Integral of f from its left knot to t, in rationals (rounded once to
    a double for piecewise-linear f, as `integrate_pl` returns)."""
    t = Fraction(t)
    if isinstance(f.base, StepFunction):
        bps = f.base.breakpoints
        return sum(
            Fraction(v) * max(Fraction(0), min(t, b2) - b1)
            for v, b1, b2 in zip(f.base.values, bps, bps[1:])
        )
    return Fraction(integrate_pl(f.base, min(t, f.base.knots[0]), t))


@st.composite
def step_and_linear_functions(draw, step_only=False):
    """A step or piecewise-linear f on 2-6 rational knots n/q.  The knots
    are stored as the doubles nearest to them: those are the knots the
    float antiderivative sees, so the oracle integrates the same f."""
    q = draw(st.integers(1, 12))
    nums = draw(st.lists(st.integers(-40, 40), min_size=2, max_size=6, unique=True))
    knots = [Fraction(float(Fraction(n, q))) for n in sorted(nums)]
    value = st.floats(-1e3, 1e3, allow_subnormal=False).map(
        lambda v: v if abs(v) > 1e-9 else 0.0
    )
    if step_only or draw(st.booleans()):
        n_values = len(knots) - 1
        make = StepFunction
    else:
        n_values = len(knots)
        make = PiecewiseLinear
    values = draw(st.lists(value, min_size=n_values, max_size=n_values))
    return TestFunction(make(knots, values))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(f=step_and_linear_functions(), data=st.data())
def test_antiderivative_matches_exact_integrals(f, data):
    lo, hi = float(f.knots[0]), float(f.knots[-1])
    inside = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=8))
    outside = st.floats(hi, 2.0**20) | st.floats(-(2.0**20), lo)
    far = data.draw(st.lists(outside, min_size=1, max_size=4))
    probes = inside + [float(k) for k in f.knots] + far + [-(2.0**20), 2.0**20]
    tol = 1e-14 * (hi - lo) * max(abs(v) for v in f.base.values)
    got = f.antiderivative(np.array(probes))
    assert got.shape == (len(probes),)
    for t, from_array in zip(probes, got):
        want = exact_antiderivative(f, t)
        from_scalar = f.antiderivative(t)
        assert isinstance(from_scalar, float)
        assert abs(Fraction(from_scalar) - want) <= tol
        assert abs(Fraction(float(from_array)) - want) <= tol


def test_apply_shift_hand_value():
    # level 2 cell [0, 4): x = 2 sits in the third quarter, h there is 1,
    # the pairing with the indicator is -1/2, both Haar factors give 1/2
    s = fixed_grid()
    total = apply_shift(s, const_table(1.0), indicator_function(), 2.0, range(2, 3))
    assert total == pytest.approx(-0.25, abs=1e-15)


def test_apply_shift_zero_function():
    s = fixed_grid()
    zero = TestFunction(StepFunction([0, 1], [0.0]))
    assert apply_shift(s, const_table(1.0), zero, 2.0, range(-3, 7)) == 0.0


def test_apply_shift_linear_in_table():
    s = sample_grid(11, -10, 12)
    f = triangle_function()
    lv = range(-4, 10)
    one = apply_shift(s, const_table(1.5), f, 0.37, lv)
    two = apply_shift(s, const_table(3.0), f, 0.37, lv)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_apply_shift_linear_in_function():
    s = sample_grid(12, -10, 12)
    tall = TestFunction(PiecewiseLinear([0, 1, 2], [0.0, 3.0, 0.0]))
    lv = range(-4, 10)
    base = apply_shift(s, const_table(1.0), triangle_function(), 0.81, lv)
    scaled = apply_shift(s, const_table(1.0), tall, 0.81, lv)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_apply_shift_touches_one_cell_per_level():
    s = sample_grid(7, -12, 12)
    lv = range(-6, 12)
    stats = {}
    apply_shift(s, const_table(1.0), indicator_function(), 0.3, lv, stats=stats)
    assert 1 <= stats["intervals"] <= len(list(lv))


THREE_CELLS = TestFunction(
    StepFunction([-1, Fraction(1, 3), 1, Fraction(5, 2)], [0.5, -2.0, 1.25])
)


@pytest.mark.parametrize(
    "f",
    [indicator_function(), triangle_function(), THREE_CELLS],
    ids=["indicator", "triangle", "three-cells"],
)
def test_engine_matches_scalar_operator(hilbert_table, f):
    """At chunk size 1 the engine's replicate sums must match apply_shift
    summed over the oracle's shifted lattices of each level; 40 floor draws
    give 20 replicates of 2 points at the floor, then 20 of 1, down to 2
    of 1."""
    x = 0.37
    lv = range(-3, 9)
    m = 40
    tallies = accumulate_samples(5, m, lv, _operator_terms(hilbert_table, f, x), chunk_size=1)
    assert (tallies[0].replicates, tallies[0].points) == (20, 2)
    for row, (n, tally) in enumerate(zip(lv, tallies)):
        want = [
            math.fsum(apply_shift(s, hilbert_table, f, x, range(n, n + 1)) for s in replicate)
            for replicate in sample_level(5, n, row, m)
        ]
        assert tally.sums == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "num_samples, chunk_size",
    [(30_000, 1 << 12), (100, 1)],
    ids=["grouped-replicates", "one-point-chunks"],
)
@pytest.mark.parametrize(
    "f", [indicator_function(), triangle_function()], ids=["indicator", "triangle"]
)
def test_operator_accumulate_thread_invariant(
    hilbert_table, f, num_samples, chunk_size
):
    term = _operator_terms(hilbert_table, f, 0.37)
    levels = range(-3, 9)
    a, b, c, d = (
        tally_bits(accumulate_samples(5, num_samples, levels, term, threads=t, chunk_size=chunk_size))
        for t in (1, 1, 2, 4)
    )
    assert a == b == c == d


def test_apply_averaged_hilbert_indicator(hilbert_table):
    (est,) = apply_averaged(hilbert_table, indicator_function(), [2.0], 40_000, seed=3)
    want = math.log(2.0)
    assert abs(est.mean - want) <= 3 * est.stderr + est.tail_bound
    assert est.stderr < 0.05
    d = est.to_dict()
    assert set(d) == {"x", "mean", "stderr", "tail_bound", "M", "seed", "n_min", "n_max", "levels"}
    assert [entry["n"] for entry in d["levels"]] == list(range(d["n_min"], d["n_max"] + 1))
    first = d["levels"][0]
    assert (first["n"], first["draws"], first["replicates"]) == (0, 40_000, 20)
    assert math.fsum(entry["mean"] for entry in d["levels"]) == pytest.approx(d["mean"], rel=1e-12)


def test_apply_averaged_reflected(hilbert_table):
    mirrored = TestFunction(StepFunction([-1, 0], [1.0]))
    (fwd,) = apply_averaged(hilbert_table, indicator_function(), [2.0], 40_000, seed=8)
    (rev,) = apply_averaged(hilbert_table, mirrored, [-2.0], 40_000, seed=9)
    band = 3 * (fwd.stderr + rev.stderr) + fwd.tail_bound + rev.tail_bound
    assert abs(fwd.mean + rev.mean) <= band


def test_apply_averaged_rejects_knot_probe(hilbert_table):
    with pytest.raises(ValueError):
        apply_averaged(hilbert_table, indicator_function(), [1.0], 10)
    with pytest.raises(ValueError):
        apply_averaged(hilbert_table, indicator_function(), [2.0], 0)


def test_apply_averaged_explicit_levels(hilbert_table):
    """The averaged operator's estimator on levels given by the caller:
    the tail bound covers the levels above the range's top."""
    lv = range(-2, 7)
    sup = hilbert_table.sup_norm()
    term = _operator_terms(hilbert_table, indicator_function(), 2.0)
    est = estimate(2.0, term, lv, sup, 50, seed=0)
    assert est.levels == lv
    assert (est.to_dict()["n_min"], est.to_dict()["n_max"]) == (-2, 6)
    assert est.tail_bound == pytest.approx(14.0 * sup * 2.0**-6, rel=1e-12)


def test_direct_pv_zero_function():
    spec = get_kernel("hilbert")
    zero = TestFunction(StepFunction([0, 1], [0.0]))
    assert direct_pv(spec, zero, 2.0) == 0.0


def hilbert_indicator(x):
    """PV integral_0^1 dt / (x - t) = ln|x / (x - 1)|."""
    if abs(x) > 2:
        return -math.log1p(-1.0 / x)
    return math.log(abs(x)) - math.log(abs(x - 1.0))


def hilbert_piecewise_linear(f, x):
    """PV integral f(t) / (x - t) dt = sum_k w_k (x - k) ln|x - k| over the
    atoms w_k of f'' at the knots k: the atoms' total and first moment
    vanish, so the terms linear in x cancel."""
    return math.fsum(
        float(w) * float(x - k) * math.log(abs(float(x - k)))
        for k, w in second_derivative_atoms(f.base)
        if k != x
    )


def hilbert_triangle(x):
    if 0 <= x <= 2:
        return hilbert_piecewise_linear(triangle_function(), x)
    # the atoms 1, -2, 1 at 0, 1, 2 with ln|x - k| = ln|x| + log1p(-k/x):
    # the ln|x| terms cancel exactly, so no large terms cancel in rounding
    return -2.0 * (x - 1.0) * math.log1p(-1.0 / x) + (x - 2.0) * math.log1p(-2.0 / x)


def cp_indicator(x):
    """integral_0^1 (x - t) / (1 + (x - t)^2) dt."""
    return 0.5 * (math.log1p(x * x) - math.log1p((x - 1.0) ** 2))


NEAR_KNOT_PROBES = [
    -1000.0, -1.0, 1e-300, 1e-10, 2.0**-39, 0.25, 0.5, 1 - 1e-9, 1 + 1e-9, 1 + 2.0**-39,
    1.5, 2 - 1e-10, 2.0, 2 + 1e-10, 4.0, 5.0, 1e5,
]


@pytest.mark.parametrize("x", NEAR_KNOT_PROBES)
def test_direct_pv_matches_closed_forms(x):
    """Within 1e-12 of the closed forms, however near x sits to a knot
    (down to 1e-300 away) or however far from the support."""
    hilbert, cp = get_kernel("hilbert"), get_kernel("conjugate-poisson")
    box, tent = indicator_function(), triangle_function()
    assert direct_pv(hilbert, box, x) == pytest.approx(hilbert_indicator(x), abs=1e-12)
    assert direct_pv(hilbert, tent, x) == pytest.approx(hilbert_triangle(x), abs=1e-12)
    assert direct_pv(cp, box, x) == pytest.approx(cp_indicator(x), abs=1e-12)


def cp_ramp(x):
    """int K(x - t) f(t) dt for K(u) = u / (1 + u^2) and f(t) = (t + 40) / 80
    on [-40, 40]: with u = x - t, (1/80) [(x + 40) ln(1 + u^2) / 2 - u + atan u]
    between u = x - 40 and x + 40."""

    def antiderivative(u):
        return (x + 40.0) / 2.0 * math.log1p(u * u) - u + math.atan(u)

    return (antiderivative(x + 40.0) - antiderivative(x - 40.0)) / 80.0


@pytest.mark.parametrize("x", [0.3, 10.0, -20.0, 39.0])
def test_direct_pv_resolves_the_kernel_scale(x):
    """A kernel with a feature at scale 1 and an f linear far on both sides
    of x: panels halving from the nearest knot distance down towards 0
    resolve K there; one panel over [0, d_min] would be 1.3e-3 off."""
    ramp = TestFunction(PiecewiseLinear([-40, 40], [0.0, 1.0]))
    got = direct_pv(get_kernel("conjugate-poisson"), ramp, x)
    assert got == pytest.approx(cp_ramp(x), abs=1e-12)


@pytest.mark.parametrize(
    "f, x",
    [
        (indicator_function(), 0.0),
        (indicator_function(), 1.0),
        (TestFunction(PiecewiseLinear([0, 1], [0.0, 2.0])), 1.0),
        (TestFunction(PiecewiseLinear([-1, 1], [0.5, 0.0])), -1.0),
    ],
    ids=["indicator-0", "indicator-1", "linear-right-end", "linear-left-end"],
)
def test_direct_pv_rejects_jump_at_x(f, x):
    with pytest.raises(OperatorError, match="jumps"):
        direct_pv(get_kernel("hilbert"), f, x)


def test_direct_pv_continuous_knots():
    """At a kink, and at a step breakpoint with equal sides, f is
    continuous and the value finite."""
    hilbert = get_kernel("hilbert")
    tent = triangle_function()
    assert direct_pv(hilbert, tent, 1.0) == pytest.approx(0.0, abs=1e-12)
    lopsided = TestFunction(PiecewiseLinear([0, 1, 3], [0.0, 1.0, 0.0]))
    assert hilbert_piecewise_linear(lopsided, 1.0) == -math.log(2.0)
    assert direct_pv(hilbert, lopsided, 1.0) == pytest.approx(-math.log(2.0), abs=1e-12)
    split = TestFunction(StepFunction([0, Fraction(1, 2), 1], [1.0, 1.0]))
    assert direct_pv(hilbert, split, 0.5) == direct_pv(hilbert, indicator_function(), 0.5)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_direct_pv_rejects_non_finite_x(x):
    with pytest.raises(ValueError, match="finite x"):
        direct_pv(get_kernel("hilbert"), indicator_function(), x)


@pytest.mark.parametrize("x", [1e-310, 5e-324, -(2.0**-1001)])
def test_direct_pv_rejects_x_within_2_to_the_minus_1000_of_a_knot(x):
    # the nodes next to the knot would overflow 1/s into inf * 0 = NaN
    with pytest.raises(ValueError, match=r"within 2\^-1000"):
        direct_pv(get_kernel("hilbert"), indicator_function(), x)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(f=step_and_linear_functions(step_only=True), data=st.data())
def test_direct_pv_reflection_negates(f, data):
    """T f(x) = -T f~(-x) for f~(t) = f(-t), bit for bit: the panels and
    nodes are the same, and f~ reads f's values at the negated points.
    Step functions only: np.interp interpolates a reflected linear piece
    from its other end, which rounds differently."""
    knots = [float(k) for k in f.knots]
    x = data.draw(st.floats(-60, 60) | st.sampled_from(knots))
    mirrored = TestFunction(reflect(f.base))
    spec = get_kernel("hilbert")
    try:
        value = direct_pv(spec, f, x)
    except (OperatorError, ValueError) as exc:
        with pytest.raises(type(exc)):
            direct_pv(spec, mirrored, -x)
        return
    assert direct_pv(spec, mirrored, -x) == -value


def test_direct_pv_reflection_negates_next_to_a_rounding_knot():
    """x at the knot 17/3 (as a float) of a step on [17/3, 25/3): a doubling
    edge falls a few ulps from the distance to 25/3, and the nodes of that
    thin panel rounded onto the knot, where f and its mirror image read
    different sides.  Such edges are dropped, so the values negate."""
    f = TestFunction(
        StepFunction(
            [Fraction(6380099472108203, 2**50), Fraction(6), Fraction(4691249611844267, 2**49)],
            [0.0, 1.0],
        )
    )
    x = 5.666666666666667
    spec = get_kernel("hilbert")
    assert direct_pv(spec, TestFunction(reflect(f.base)), -x) == -direct_pv(spec, f, x)


def test_averaged_agrees_with_direct_pv(hilbert_table):
    spec = get_kernel("hilbert")
    x = 2.0
    (est,) = apply_averaged(hilbert_table, indicator_function(), [x], 60_000, seed=1)
    pv = direct_pv(spec, indicator_function(), x)
    assert abs(est.mean - pv) <= 3 * est.stderr + est.tail_bound + 1e-5
