import random
from fractions import Fraction

import pytest

from haarshift import (
    PiecewiseLinear,
    StepFunction,
    convolve_steps,
    make_g,
    make_h,
    reflect,
    second_derivative_atoms,
)

from oracles import (
    Interval,
    convolution_by_partition,
    integral_against,
    integrate_pl,
    rescale_to_interval,
)


def test_generator_values():
    h = make_h()
    g = make_g()
    assert [h(x) for x in (0.1, 0.3, 0.6, 0.9)] == [7, -1, 1, -7]
    assert [g(x) for x in (0.1, 0.3, 0.6, 0.9)] == [-1, 1, 1, -1]
    assert reflect(g)(-0.1) == -1


def test_generator_moments():
    # h integrates to zero; g has zero mean AND zero first moment, which is
    # what makes cells where the test function is affine pair to nothing
    h, g = make_h(), make_g()
    box = StepFunction([0, 1], [1.0])
    assert integral_against(h, box) == 0
    assert integral_against(g, box) == 0
    ramp = PiecewiseLinear([0, 1], [0.0, 1.0])
    moment = sum(
        w * integrate_pl(ramp, a, b)
        for w, a, b in zip(g.values, g.breakpoints, g.breakpoints[1:])
    )
    assert moment == 0


def test_evaluation_outside_support_is_zero():
    h = make_h()
    assert h(-0.001) == 0.0
    assert h(1.0) == 0.0
    assert h(17.3) == 0.0


def test_closed_open_convention():
    # value at a breakpoint comes from the interval to its right
    h = make_h()
    assert h(0.0) == 7
    assert h(0.25) == -1
    assert h(0.5) == 1
    assert h(0.75) == -7


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction([0, 0], [1.0])
    with pytest.raises(ValueError):
        StepFunction([1, 0], [1.0])
    with pytest.raises(ValueError):
        StepFunction([0, 1, 2], [1.0])


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(left=0.0, length=0.0)
    with pytest.raises(ValueError):
        Interval(left=0.0, length=-1.0)
    assert Interval(left=2.0, length=3.0).right == 5.0


def test_rescale_identity_interval():
    h = make_h()
    out = rescale_to_interval(h, Interval(0.0, 1.0))
    assert out.breakpoints == h.breakpoints
    assert out.values == h.values


def test_rescale_hand_value():
    out = rescale_to_interval(make_h(), Interval(0.0, 4.0))
    assert out(0.5) == 7 / 2


def test_rescale_preserves_l2():
    g = make_g()
    out = rescale_to_interval(g, Interval(3.0, 0.125))
    assert integral_against(out, out) == pytest.approx(1.0, abs=1e-15)
    rng = random.Random(41)
    for _ in range(25):
        left = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        length = Fraction(rng.randint(1, 50), rng.randint(1, 7))
        out = rescale_to_interval(make_h(), Interval(float(left), float(length)))
        assert integral_against(out, out) == pytest.approx(25.0, rel=1e-14)


def test_profile_knot_values():
    p = convolve_steps(make_h(), reflect(make_g()))
    for knot, expected in [(0, 0.0), (0.25, -1.25), (0.5, -2.0), (0.75, 1.75), (1, 0.0)]:
        assert p(knot) == expected


def test_profile_is_odd():
    p = convolve_steps(make_h(), reflect(make_g()))
    for s in (0.1, 0.37, 0.9):
        assert p(-s) == pytest.approx(-p(s), abs=1e-15)


def test_box_box_triangle():
    box = StepFunction([0, 1], [1.0])
    tri = convolve_steps(box, box)
    assert tri(1.0) == 1.0
    assert integrate_pl(tri, 0, 1) == 0.5


def _random_step(rng, max_pieces=16):
    n = rng.randint(1, max_pieces)
    bps = sorted(
        {
            Fraction(b, rng.choice([1, 2, 4, 8]))
            for b in rng.sample(range(-60, 60), n + 1)
        }
    )
    if len(bps) < 2:
        bps = [Fraction(0), Fraction(1)]
    vals = [rng.uniform(-5, 5) for _ in range(len(bps) - 1)]
    return StepFunction(bps, vals)


def test_convolution_matches_partition_oracle():
    rng = random.Random(1234)
    for _ in range(30):
        f = _random_step(rng)
        k = _random_step(rng)
        conv = convolve_steps(f, k)
        for _ in range(8):
            t = rng.uniform(float(conv.knots[0]) - 1, float(conv.knots[-1]) + 1)
            assert conv(t) == pytest.approx(
                convolution_by_partition(f, k, t), abs=1e-9
            )


def test_convolution_knots_are_breakpoint_sums():
    f = StepFunction([Fraction(0), Fraction(1, 3)], [2.0])
    k = StepFunction([Fraction(1, 5), Fraction(1)], [-1.0])
    conv = convolve_steps(f, k)
    expected = sorted(
        {a + b for a in f.breakpoints for b in k.breakpoints}
    )
    assert list(conv.knots) == expected


def test_atoms_of_zero_function():
    zero = PiecewiseLinear([0, 1], [0.0, 0.0])
    assert second_derivative_atoms(zero) == ()


def test_atom_weights_telescope_to_zero():
    p = convolve_steps(make_h(), reflect(make_g()))
    comb = second_derivative_atoms(p)
    assert sum(w for _, w in comb) == 0


def test_double_integration_recovers_profile():
    """Summing (x - loc)+ against the atom weights must reproduce the
    profile up to an affine function; on the uniformly spaced knot set that
    means the second differences of the gap vanish identically."""
    p = convolve_steps(make_h(), reflect(make_g()))
    comb = second_derivative_atoms(p)
    gaps = []
    for knot, val in zip(p.knots, p.values):
        acc = Fraction(0)
        for loc, w in comb:
            if knot > loc:
                acc += w * (knot - loc)
        gaps.append(Fraction(val) - acc)
    second_diffs = [
        gaps[i + 1] - 2 * gaps[i] + gaps[i - 1] for i in range(1, len(gaps) - 1)
    ]
    assert all(d == 0 for d in second_diffs)


def test_integrate_profile():
    p = convolve_steps(make_h(), reflect(make_g()))
    assert integrate_pl(p, 0, 1) == -0.375
    assert integrate_pl(p, -1, 1) == 0.0


def test_integrate_partial_and_outside():
    tri = convolve_steps(StepFunction([0, 1], [1.0]), StepFunction([0, 1], [1.0]))
    assert integrate_pl(tri, 0, 2) == 1.0
    assert integrate_pl(tri, 0.5, 1.5) == 0.75
    assert integrate_pl(tri, 5, 9) == 0.0
    assert integrate_pl(tri, -3, 0) == 0.0


def test_integral_against_matches_pointwise():
    rng = random.Random(77)
    for _ in range(20):
        f = _random_step(rng, max_pieces=6)
        k = _random_step(rng, max_pieces=6)
        cuts = sorted(set(f.breakpoints) | set(k.breakpoints))
        expected = 0.0
        for a, b in zip(cuts, cuts[1:]):
            mid = float(a + b) / 2
            expected += f(mid) * k(mid) * float(b - a)
        assert integral_against(f, k) == pytest.approx(expected, abs=1e-9)


def test_piecewise_linear_slopes_exact():
    p = PiecewiseLinear([0, Fraction(1, 4), 1], [0.0, 1.0, 0.0])
    assert p.slopes() == [Fraction(4), Fraction(-4, 3)]
