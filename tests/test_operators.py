import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import const_table, mass_term, tally_bits, wavy_table
from oracles import (
    Interval,
    antiderivative,
    apply_shift,
    dilation_integral,
    lattice_kernel_sum_terms,
    lattice_tallies,
    operator_lattice_terms,
    fixed_grid,
    haar_pairing,
    integrate_pl,
    rescale_to_interval,
    sample_grid,
    level_points,
    replicate_sums,
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
from haarshift import operators
from haarshift.dyadic import (
    accumulate_probes, accumulate_samples, estimate, levels_for_distance,
)
from haarshift.operators import level_terms
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
    assert antiderivative(f, -1.0) == 0.0
    assert antiderivative(f, 0.5) == pytest.approx(0.125, abs=1e-15)
    assert antiderivative(f, 1.5) == pytest.approx(0.875, abs=1e-15)
    assert antiderivative(f, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert antiderivative(f, 7.0) == pytest.approx(1.0, abs=1e-15)


def test_antiderivative_matches_direct_integrals():
    rng = np.random.default_rng(3)
    tri = triangle_function()
    box = indicator_function()
    for _ in range(40):
        a, b = sorted(rng.uniform(-1, 3, size=2))
        want_tri = integrate_pl(tri.base, a, b)
        got_tri = antiderivative(tri, b) - antiderivative(tri, a)
        assert got_tri == pytest.approx(want_tri, abs=1e-14)
        want_box = max(0.0, min(b, 1.0) - max(a, 0.0))
        got_box = antiderivative(box, b) - antiderivative(box, a)
        assert got_box == pytest.approx(want_box, abs=1e-14)


def test_antiderivative_vectorized():
    f = triangle_function()
    t = np.array([-1.0, 0.5, 1.5, 3.0])
    out = antiderivative(f, t)
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
    got = antiderivative(f, np.array(probes))
    assert got.shape == (len(probes),)
    for t, from_array in zip(probes, got):
        want = exact_antiderivative(f, t)
        from_scalar = antiderivative(f, t)
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
    """At chunk size 1 the engine's replicate sums are the oracle's sums of
    the term over the oracle's shifted rules of each level; 40 floor draws
    give 20 replicates of 2 points at the floor, then 20 of 1, down to 2
    of 1."""
    x = 0.37
    lv = range(-3, 9)
    m = 40
    [(_, term)] = level_terms(hilbert_table, f.pieces, [(x, lv)])
    tallies = accumulate_samples(5, m, lv, term, chunk_size=1)
    assert (tallies[0].replicates, tallies[0].points) == (20, 2)
    for row, (n, tally) in enumerate(zip(lv, tallies)):
        sums, hits = replicate_sums(term, n, level_points(5, row, m), 1)
        assert (tally.sums.tolist(), tally.hits) == (sums, hits)


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
    levels = range(-3, 9)
    [(_, term)] = level_terms(hilbert_table, f.pieces, [(0.37, levels)])
    a, b, c, d = (
        tally_bits(accumulate_samples(5, num_samples, levels, term, threads=t, chunk_size=chunk_size))
        for t in (1, 1, 2, 4)
    )
    assert a == b == c == d


def _term_bound(table, pieces, x: float, n: int) -> float:
    """The bound of `operators._probe_term` per point at x and level n on
    f's `pieces`, from its docstring: each knot within |D| < 2 adds its
    reads' bound, the sigma table's where every such knot lies at |D| >=
    SIGMA_READ_D, and its rounding; where all knots lie on one side of x
    and f has no mass, the far bound replaces the reads' and the table's
    if it is smaller.  All times H's factor of at most 7."""
    omega, cells, eps, ln2 = operators.OMEGA_CELLS, operators.SIGMA_CELLS, 2.0**-52, math.log(2.0)
    sup = table.sup_norm()
    c = sup / ln2
    s, a1, a2, a3 = table._cells
    c1 = float(np.max(np.abs(a1) + 2.0 * np.abs(a2) + 3.0 * np.abs(a3))) / (table.step * ln2)
    jumps = abs(table.tail_left - s[0]) + abs(table.tail_right - s[-1])
    # per piece: |D| and |J|, |S|, |P| by kind
    near = [(abs(math.ldexp(k - x, -n)), {kind: abs(scale)}) for k, scale, kind in pieces]
    near = [(d, w.get("step", 0.0), w.get("ramp", 0.0), w.get("mass", 0.0) * 2.0**-n)
            for d, w in near if d < 2.0]
    reads = sum(j * d * c / (4 * omega**2) + r * d * d * 2.0**n * c / (36 * math.sqrt(3) * omega**3)
                + p * (c1 / (4 * omega**2) + jumps / (2 * omega * ln2))
                for d, j, r, p in near)
    if all(d >= operators.SIGMA_READ_D for d, _, _, _ in near):
        reads += sum(j * c / (d * cells**2) + r * 2.0**n * c / cells**2 + p * 2 * c1 / (omega * d * cells)
                     for d, j, r, p in near)
    rounding = sum(16 * eps * (18 * j * sup + 54 * r * 2.0**n * sup + 5 * p * sup)
                   for _, j, r, p in near)
    knots = sorted(k for k, _, _ in pieces)
    if len({k > x for k in knots}) == 1 and all(kind != "mass" for _, _, kind in pieces):
        width = math.ldexp(knots[-1] - knots[0], -n)
        steps = sum(abs(j) for _, j, kind in pieces if kind == "step")
        ramps = sum(abs(r) for _, r, kind in pieces if kind == "ramp")
        steps *= width * ((1 + 8 * omega) / (16 * omega**2) + 2 / cells)
        bends = ramps * width**2 * 2.0**n * (1.001 / omega + 4 / cells)
        reads = min(reads, 6 * c * (steps + bends))
    return 7.0 * (reads + rounding)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("table_name", ["hilbert", "conjugate-poisson"])
@pytest.mark.parametrize(
    "f", [indicator_function(), triangle_function()], ids=["indicator", "triangle"]
)
def test_operator_term_matches_quadrature_over_the_dilation(table_name, f, hilbert_table, cp_table):
    """Per sigma, the exact-dilation term is scipy's quadrature over u of
    the lattice term translated by -x (`operator_lattice_terms`), at the
    floor, a middle and the top level of probes on both sides of f, near a
    knot and far off: within `_term_bound` plus 1e-11 of the level's scale
    min(1, 2^-n) for quad's tolerance.  The bound shrinks with the level,
    so that far off and at the top rows it lies below the term: there a
    term that read 0 would fail, for the indicator at every such case.
    The triangle's ramps are each of order 2^n there and cancel to a
    term of order 2^-n, so its rounding bound is the larger at the top
    rows.  sigma = 1/4 puts x on a quarter's edge of its cell, which the
    term reads as the lattice does; 2 is a knot of the triangle, so it
    takes 2.5 there."""
    table = hilbert_table if table_name == "hilbert" else cp_table
    rng = np.random.default_rng(20261021)
    below = []
    for x in (-1.0, 0.25, 0.999, 2.0 if len(f.knots) == 2 else 2.5, 5.0, 1e7):
        dist = min(abs(x - float(k)) for k in f.knots)
        levels = levels_for_distance(dist, table.sup_norm(), 1e-4)
        [(_, term)] = level_terms(table, f.pieces, [(x, levels)])
        lattice = operator_lattice_terms(table, f, x)
        distances = [float(k) - x for k in f.knots]
        for n in (levels[0], levels[len(levels) // 2], levels[-1]):
            bound = _term_bound(table, f.pieces, x, n) + 1e-11 * min(1.0, 2.0**-n)
            sigma = np.array([rng.random(), 0.25])
            got = term(n, sigma)
            want = [dilation_integral(table, lattice, n, s, distances) for s in sigma.tolist()]
            assert np.max(np.abs(got - want)) <= bound, (x, n, got, want, bound)
            if n > levels[0] or x == 1e7:
                below += [bound < abs(w) for w in want if w]
    if len(f.knots) == 2:
        assert all(below)


@pytest.mark.parametrize("table_name", ["hilbert", "wavy", "conjugate-poisson"])
def test_mass_term_matches_quadrature_over_the_dilation(table_name, hilbert_table, cp_table):
    """Per sigma, the term on a unit mass at y (`mc`'s) is scipy's
    quadrature over u of the lattice kernel sum's term translated by -x
    (x at 0, y at -d), for both signs of d = x - y, at the floor, a middle
    and the top level: within `_term_bound` plus 1e-11 of the level's
    scale 1 / (2^n |d|) for quad's tolerance.  The floor rows are read
    from the sigma table, but for its cells that hold a kink of the sum,
    the others directly; from the second row up the bound lies below
    every term that is not zero, so a term that read 0 would fail.  sigma = 1/4 puts x on a quarter's edge, and the points
    beside sigma = 0 test its reading as the limit from above."""
    tables = {"hilbert": hilbert_table, "wavy": wavy_table(), "conjugate-poisson": cp_table}
    table = tables[table_name]
    rng = np.random.default_rng(20261020)
    below = []
    for d in (0.6, -0.6, 7.3, -0.013):
        levels = levels_for_distance(abs(d), table.sup_norm(), 1e-4)
        # the pair (d + y, y) for a y that is not 0: the term translates x to 0
        term = mass_term(table, d + 0.37, 0.37, levels)
        lattice = lattice_kernel_sum_terms(table, 0.0, -d)
        for n in (levels[0], levels[len(levels) // 2], levels[-1]):
            sigma = np.concatenate([rng.random(3), [0.25, 0.9, 2.0**-40, 1.0 - 2.0**-40]])
            got = term(n, sigma)
            want = [dilation_integral(table, lattice, n, s, [-d]) for s in sigma.tolist()]
            bound = _term_bound(table, [(0.37, 1.0, "mass")], d + 0.37, n)
            bound += 1e-11 / (2.0**n * abs(d))
            assert np.max(np.abs(got - want)) <= bound, (d, n, got, want, bound)
            if n > levels[0]:
                below += [bound < abs(w) for w in want if w]
    assert below and all(below)


@pytest.mark.parametrize("table_name", ["hilbert", "wavy"])
def test_mass_sigma_table_matches_its_direct_read(table_name, hilbert_table, monkeypatch):
    """On the rows `mc` reads from the sigma table, the mass term at 2^16 +
    1 equally spaced sigma, four per cell of the table, is its direct read
    within the table's part of `_term_bound`, 7 2^-n 2 C1 / (W |D| P),
    plus 1e-13 of 2^-n sup |c| for rounding: the direct read is linear in
    sigma between the omega read's nodes, but at its kinks (an omega_p at
    1/2, at 1 or at an end of the read's cells that hold a jump of c),
    whose cells the term reads directly.  A kink read linearly would be
    off by up to its slope jump over 4 P.  x - y = 7.3 and -0.013 put a
    jump of the wavy table's c on a floor row."""
    table = hilbert_table if table_name == "hilbert" else wavy_table()
    s, a1, a2, a3 = table._cells
    c1 = float(np.max(np.abs(a1) + 2.0 * np.abs(a2) + 3.0 * np.abs(a3))) / (table.step * math.log(2.0))
    sigma = np.arange((1 << 16) + 1) / (1 << 16)
    for d in (0.6, -0.6, 7.3, -0.013):
        levels = levels_for_distance(abs(d), table.sup_norm(), 1e-4)
        rows = [n for n in levels if abs(d) / 2.0**n >= operators.SIGMA_READ_D]
        read = mass_term(table, d + 0.37, 0.37, levels)
        got = {n: read(n, sigma).copy() for n in rows}
        with monkeypatch.context() as patch:
            patch.setattr(operators, "SIGMA_READ_D", 2.0)
            read = mass_term(table, d + 0.37, 0.37, levels)
            want = {n: read(n, sigma).copy() for n in rows}
        assert len(rows) == 3
        for n in rows:
            bound = 14.0 * c1 / (operators.OMEGA_CELLS * abs(d) * operators.SIGMA_CELLS)
            bound += 1e-13 * 2.0**-n * table.sup_norm()
            assert np.max(np.abs(got[n] - want[n])) <= bound, (d, n)


@pytest.mark.parametrize(
    "f", [indicator_function(), triangle_function()], ids=["indicator", "triangle"]
)
def test_operator_level_means_agree_with_the_lattice(hilbert_table, f):
    """Level by level, the exact-dilation estimate and the (log2 r, sigma)
    lattice of streams 3 to 9 (`lattice_tallies`) estimate the same mean:
    within 4 combined stderrs, at 2^13 floor draws, on both sides of f."""
    for x in (-1.0, 0.25, 5.0):
        levels = levels_for_distance(min(abs(x - float(k)) for k in f.knots), 8.0 / 3.0, 1e-3)
        [(_, term)] = level_terms(hilbert_table, f.pieces, [(x, levels)])
        exact = accumulate_samples(7, 1 << 13, levels, term)
        lattice = lattice_tallies(7, 1 << 13, levels, operator_lattice_terms(hilbert_table, f, x))
        for a, (mean, stderr) in zip(exact, lattice):
            assert abs(a.mean - mean) <= 4.0 * math.hypot(a.stderr, stderr), (x, a.mean, mean)


# floors 0, -2, 0 and 2 for the indicator, 0, -2, -1 and 1 for the triangle
PROBES = (-1.0, 0.25, 2.5, 5.0)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "f", [indicator_function(), triangle_function()], ids=["indicator", "triangle"]
)
def test_apply_probes_together_match_one_at_a_time(hilbert_table, f, threads):
    """One engine pass serves every probe of a call, and each probe gets
    the mean, stderr and level records it gets alone."""
    together = apply_averaged(hilbert_table, f, PROBES, 3000, seed=11, threads=threads)
    alone = [
        apply_averaged(hilbert_table, f, [x], 3000, seed=11, threads=threads)[0] for x in PROBES
    ]
    assert len({len(est.levels) for est in together}) > 1
    assert together == alone


@pytest.mark.parametrize("threads", [1, 2])
def test_accumulate_probes_match_one_at_a_time(hilbert_table, threads):
    """As above on the engine, with chunks of 7 points cutting the 50-point
    replicates of 1000 floor draws in pieces."""
    f = triangle_function()
    probes = level_terms(
        hilbert_table, f.pieces, [(x, range(n, 6)) for x, n in zip(PROBES, (0, -2, -1, 1))]
    )
    together = accumulate_probes(5, 1000, probes, threads=threads, chunk_size=7)
    alone = [
        accumulate_samples(5, 1000, lv, term, threads=threads, chunk_size=7) for lv, term in probes
    ]
    assert [tally_bits(t) for t in together] == [tally_bits(t) for t in alone]


def test_apply_averaged_hilbert_indicator(hilbert_table):
    (est,) = apply_averaged(hilbert_table, indicator_function(), [2.0], 40_000, seed=3)
    want = math.log(2.0)
    assert abs(est.mean - want) <= 3 * est.stderr + est.tail_bound
    assert est.stderr < 0.05
    d = est.to_dict()
    assert set(d) == {
        "x", "mean", "stderr", "stderr_defined", "tail_bound", "M", "seed", "n_min", "n_max",
        "levels",
    }
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
    [(_, term)] = level_terms(hilbert_table, indicator_function().pieces, [(2.0, lv)])
    est = estimate(2.0, lv, accumulate_samples(0, 50, lv, term), sup, 50, 0)
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
