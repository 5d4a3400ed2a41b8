import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import const_table
from oracles import (
    Interval,
    apply_shift,
    fixed_grid,
    haar_pairing,
    integrate_pl,
    rescale_to_interval,
    sample_grid,
)

from haarshift import (
    LevelRange,
    OperatorError,
    TestFunction,
    apply_averaged,
    direct_pv,
    get_kernel,
    indicator_function,
    make_g,
    triangle_function,
)
from haarshift.dyadic import accumulate_samples
from haarshift.operators import _operator_terms
from haarshift.piecewise import PiecewiseLinear, StepFunction


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
def step_and_linear_functions(draw):
    """A step or piecewise-linear f on 2-6 rational knots n/q.  The knots
    are stored as the doubles nearest to them: those are the knots the
    float antiderivative sees, so the oracle integrates the same f."""
    q = draw(st.integers(1, 12))
    nums = draw(st.lists(st.integers(-40, 40), min_size=2, max_size=6, unique=True))
    knots = [Fraction(float(Fraction(n, q))) for n in sorted(nums)]
    value = st.floats(-1e3, 1e3, allow_subnormal=False).map(
        lambda v: v if abs(v) > 1e-9 else 0.0
    )
    if draw(st.booleans()):
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
    lo, hi = f.support
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
    total = apply_shift(s, const_table(1.0), indicator_function(), 2.0, LevelRange(2, 2))
    assert total == pytest.approx(-0.25, abs=1e-15)


def test_apply_shift_zero_function():
    s = fixed_grid()
    zero = TestFunction(StepFunction([0, 1], [0.0]))
    assert apply_shift(s, const_table(1.0), zero, 2.0, LevelRange(-3, 6)) == 0.0


def test_apply_shift_linear_in_table():
    s = sample_grid(11, -10, 12)
    f = triangle_function()
    lv = LevelRange(-4, 9)
    one = apply_shift(s, const_table(1.5), f, 0.37, lv)
    two = apply_shift(s, const_table(3.0), f, 0.37, lv)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_apply_shift_linear_in_function():
    s = sample_grid(12, -10, 12)
    tall = TestFunction(PiecewiseLinear([0, 1, 2], [0.0, 3.0, 0.0]))
    lv = LevelRange(-4, 9)
    base = apply_shift(s, const_table(1.0), triangle_function(), 0.81, lv)
    scaled = apply_shift(s, const_table(1.0), tall, 0.81, lv)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_apply_shift_touches_one_cell_per_level():
    s = sample_grid(7, -12, 12)
    lv = LevelRange(-6, 11)
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
    """One draw per chunk, so chunk j is the scalar oracle's draw j: the
    engine's per-draw totals must match apply_shift in sum and spread."""
    x = 0.37
    lv = LevelRange(-3, 8)
    m = 16
    total, m2 = accumulate_samples(
        5, m, lv, _operator_terms(hilbert_table, f, x), chunk_size=1
    )
    draws = [sample_grid(5, lv.n_min, lv.n_max, index=j) for j in range(m)]
    scalar = [apply_shift(s, hilbert_table, f, x, lv) for s in draws]
    mean = sum(scalar) / m
    spread = sum((v - mean) ** 2 for v in scalar)
    assert total == pytest.approx(sum(scalar), rel=1e-9, abs=1e-12)
    assert m2 == pytest.approx(spread, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "num_samples, chunk_size",
    [(30_000, 1 << 12), (100, 1)],
    ids=["partial-last-chunk", "one-draw-chunks"],
)
@pytest.mark.parametrize(
    "f", [indicator_function(), triangle_function()], ids=["indicator", "triangle"]
)
def test_operator_accumulate_thread_invariant(
    hilbert_table, f, num_samples, chunk_size
):
    term = _operator_terms(hilbert_table, f, 0.37)
    levels = LevelRange(-3, 8)
    a, b, c, d = (
        accumulate_samples(
            5, num_samples, levels, term, threads=t, chunk_size=chunk_size
        )
        for t in (1, 1, 2, 4)
    )
    assert a == b == c == d


def test_apply_averaged_hilbert_indicator(hilbert_table):
    (est,) = apply_averaged(hilbert_table, indicator_function(), [2.0], 40_000, seed=3)
    want = math.log(2.0)
    assert abs(est.mean - want) <= 3 * est.stderr + est.tail_bound
    assert est.stderr < 0.05
    d = est.to_dict()
    assert set(d) == {"x", "mean", "stderr", "tail_bound", "M", "seed", "n_min", "n_max"}


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
    lv = LevelRange(-2, 6)
    (est,) = apply_averaged(
        hilbert_table, indicator_function(), [2.0], 50, seed=0, levels=lv
    )
    assert est.levels == lv
    sup = hilbert_table.sup_norm()
    assert est.tail_bound == pytest.approx(14.0 * sup * 2.0**-lv.n_max, rel=1e-12)


def test_direct_pv_hilbert_indicator():
    spec = get_kernel("hilbert")
    got = direct_pv(spec, indicator_function(), 2.0)
    assert got == pytest.approx(math.log(2.0), abs=1e-8)


def test_direct_pv_interior_symmetric_point():
    # at the midpoint of the support the two exclusion lobes cancel exactly
    spec = get_kernel("hilbert")
    assert direct_pv(spec, indicator_function(), 0.5) == pytest.approx(0.0, abs=1e-8)


def test_direct_pv_zero_function():
    spec = get_kernel("hilbert")
    zero = TestFunction(StepFunction([0, 1], [0.0]))
    assert direct_pv(spec, zero, 2.0) == 0.0


def test_direct_pv_conjugate_poisson():
    spec = get_kernel("conjugate-poisson")
    want = 0.5 * math.log(2.5)
    assert direct_pv(spec, indicator_function(), 2.0) == pytest.approx(want, abs=1e-8)


def test_direct_pv_triangle():
    spec = get_kernel("hilbert")
    want = 4.0 * math.log(4.0 / 3.0) - 2.0 * math.log(1.5)
    assert direct_pv(spec, triangle_function(), 4.0) == pytest.approx(want, abs=1e-8)


def test_direct_pv_schedule_validation():
    spec = get_kernel("hilbert")
    with pytest.raises(OperatorError):
        direct_pv(spec, indicator_function(), 2.0, eps_schedule=[0.25])


def test_direct_pv_unsettled_schedule():
    spec = get_kernel("hilbert")
    with pytest.raises(OperatorError):
        direct_pv(
            spec,
            indicator_function(),
            0.7,
            eps_schedule=[0.25, 0.125],
            atol=1e-30,
        )


def test_averaged_agrees_with_direct_pv(hilbert_table):
    spec = get_kernel("hilbert")
    x = 2.0
    (est,) = apply_averaged(hilbert_table, indicator_function(), [x], 60_000, seed=1)
    pv = direct_pv(spec, indicator_function(), x)
    assert abs(est.mean - pv) <= 3 * est.stderr + est.tail_bound + 1e-5
