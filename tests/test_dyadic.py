import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import const_table, linear_table, tally_bits
from oracles import (
    GridSample,
    fixed_grid,
    interval_containing,
    level_offset,
    pooled,
    reference_kernel_pairing,
    reference_operator_pairing,
    reference_shift_terms,
    sample_call,
    sample_chunk,
    sample_grid,
    shift_kernel_sum,
    strata_shape,
)

from haarshift import (
    STREAM_VERSION,
    CoefficientTable,
    accumulate_samples,
    apply_averaged,
    cutoff_for_tolerance,
    indicator_function,
    levels_for_distance,
    mc_estimate,
    tail_bound_value,
    triangle_function,
)
from haarshift.dyadic import DEFAULT_CHUNK, _TERM_BLOCK, kernel_sum_terms
from haarshift.operators import _operator_terms


ONES = const_table(1.0)


def _by_stratum(values, strata):
    """Per-stratum sums of per-draw values, draw i in stratum i % strata."""
    values = np.asarray(values)
    return np.bincount(np.arange(len(values)) % strata, values, strata)


def test_level_range():
    # consecutive levels from floor(log2 dist) up to the last one below the
    # cutoff for the tail tolerance (20 for sup 8/3 and 1e-4)
    assert levels_for_distance(0.7, 8.0 / 3.0, 1e-4) == range(-1, 20)
    # a cutoff at or below the floor leaves the floor level alone
    assert levels_for_distance(2.0**30, 8.0 / 3.0, 1e-4) == range(30, 31)


def test_grid_sample_validation():
    bits = np.zeros(4, dtype=np.uint8)
    with pytest.raises(ValueError):
        GridSample(r=0.9, sigma=0.0, bits=bits, i_min=0, n_max=4, seed=0)
    with pytest.raises(ValueError):
        GridSample(r=2.0, sigma=0.0, bits=bits, i_min=0, n_max=4, seed=0)
    with pytest.raises(ValueError):
        GridSample(r=1.5, sigma=1.0, bits=bits, i_min=0, n_max=4, seed=0)
    with pytest.raises(ValueError):
        GridSample(r=1.5, sigma=-0.25, bits=bits, i_min=0, n_max=4, seed=0)
    with pytest.raises(ValueError):
        GridSample(r=1.5, sigma=0.0, bits=bits, i_min=4, n_max=4, seed=0)
    with pytest.raises(ValueError):
        GridSample(
            r=1.5, sigma=0.0, bits=np.array([0, 2, 0, 0]), i_min=0, n_max=4, seed=0
        )


def test_bit_window_semantics():
    s = fixed_grid(i_min=-3, n_max=5)
    assert s.bit(-4) == 0
    assert s.bit(-3) == 0
    with pytest.raises(ValueError):
        s.bit(5)


def test_offset_zero_bits():
    s = fixed_grid()
    for n in (-5, -1, 0, 7, 15):
        assert level_offset(s, n) == 0.0


def test_offset_single_bit():
    # one set bit at level n-1 shifts the level-n lattice by half a cell
    n = 3
    s = fixed_grid(r=1.0, i_min=0, n_max=8, one_at=n - 1)
    assert level_offset(s, n) == 2.0 ** (n - 1)
    assert level_offset(s, n - 1) == 0.0


def test_offset_telescopes():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, size=20, dtype=np.uint8)
    s = GridSample(r=1.75, sigma=0.375, bits=bits, i_min=-8, n_max=12, seed=0)
    for n in range(-8, 12):
        diff = level_offset(s, n + 1) - level_offset(s, n)
        assert diff == pytest.approx(1.75 * 2.0**n * s.bit(n), abs=1e-12)


def test_interval_containing_standard_grid():
    s = fixed_grid(r=1.0)
    cell = interval_containing(s, 0, 3.7)
    assert (cell.left, cell.right) == (3.0, 4.0)


def test_interval_containing_dilated_grid():
    s = fixed_grid(r=1.5)
    cell = interval_containing(s, 0, 3.7)
    assert (cell.left, cell.right) == (3.0, 4.5)


def test_interval_contains_its_point():
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = sample_grid(int(rng.integers(0, 1 << 30)), i_min=-10, n_max=12)
        n = int(rng.integers(-8, 12))
        x = float(rng.uniform(-50, 50))
        cell = interval_containing(s, n, x)
        assert cell.left <= x < cell.right
        assert cell.length == s.r * 2.0**n


def test_sample_grid_deterministic():
    a = sample_grid(99, i_min=-4, n_max=10)
    b = sample_grid(99, i_min=-4, n_max=10)
    assert a.r == b.r
    assert np.array_equal(a.bits, b.bits)
    c = sample_grid(99, i_min=-4, n_max=10, index=1)
    assert c.r != a.r or not np.array_equal(c.bits, a.bits)


def test_sample_grid_distributions():
    m = 100_000
    rs = np.empty(m)
    sigmas = np.empty(m)
    ones = 0
    n_bits = 12
    for i in range(m):
        s = sample_grid(2024, i_min=0, n_max=n_bits, index=i)
        rs[i] = s.r
        sigmas[i] = s.sigma
        ones += int(s.bits.sum())
    assert abs(ones / (m * n_bits) - 0.5) <= 0.005
    assert abs(np.mean(np.log(rs)) - math.log(2.0) / 2) <= 0.003
    # r has density 1/(r ln 2) on [1, 2), so its CDF is log2
    ks = scipy.stats.kstest(rs, np.log2)
    assert ks.pvalue > 1e-3
    assert scipy.stats.kstest(sigmas, "uniform").pvalue > 1e-3
    chi = scipy.stats.chisquare([ones, m * n_bits - ones])
    assert chi.pvalue > 1e-3


def test_kernel_sum_single_level_hand_value():
    s = fixed_grid(r=1.0)
    total = shift_kernel_sum(s, ONES, 0.1, 0.2, range(0, 1))
    assert total == -7.0


def test_kernel_sum_rejects_diagonal():
    s = fixed_grid()
    with pytest.raises(ValueError):
        shift_kernel_sum(s, ONES, 0.3, 0.3, range(0, 2))
    with pytest.raises(ValueError):
        kernel_sum_terms(ONES, 0.3, 0.3)


def test_kernel_sum_separated_cells():
    s = fixed_grid(r=1.0)
    assert shift_kernel_sum(s, ONES, 0.9, 1.1, range(0, 1)) == 0.0
    # every admitted cell is shorter than the separation
    assert shift_kernel_sum(s, ONES, 0.1, 5.3, range(-6, 3)) == 0.0


def test_kernel_sum_global_bound():
    rng = np.random.default_rng(42)
    for _ in range(40):
        s = sample_grid(int(rng.integers(0, 1 << 30)), i_min=-40, n_max=24)
        x = float(rng.uniform(-4, 4))
        y = x + float(rng.uniform(0.01, 3.0)) * rng.choice([-1.0, 1.0])
        total = shift_kernel_sum(s, ONES, x, y, range(-12, 24))
        assert abs(total) <= 14.0 / abs(x - y) + 1e-9


def test_per_level_at_most_one_cell():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = sample_grid(int(rng.integers(0, 1 << 30)), i_min=-6, n_max=10)
        x = float(rng.uniform(-10, 10))
        y = float(rng.uniform(-10, 10))
        for n in range(-4, 8):
            length = s.r * 2.0**n
            offset = level_offset(s, n)
            hits = 0
            for k in range(-64, 65):
                left = offset + k * length
                if left <= x < left + length and left <= y < left + length:
                    hits += 1
            assert hits <= 1


def test_tail_bound_against_extended_sums():
    # absolute mass of all levels at or above cell length 2^N stays under
    # the 14 * 2^(1-N) envelope, for any grid and any pair of points
    rng = np.random.default_rng(17)
    for _ in range(25):
        big_n = int(rng.integers(1, 6))
        s = sample_grid(int(rng.integers(0, 1 << 30)), i_min=-5, n_max=big_n + 41)
        x = float(rng.uniform(-2, 2))
        y = x + float(rng.uniform(0.05, 1.5))
        mass = 0.0
        for n in range(big_n, big_n + 41):
            mass += abs(shift_kernel_sum(s, ONES, x, y, range(n, n + 1)))
        assert mass <= 14.0 * 2.0 ** (1 - big_n) + 1e-12


def test_cutoff_for_tolerance():
    sup = 8.0 / 3.0
    n = cutoff_for_tolerance(sup, 1e-4)
    assert n == 20
    assert tail_bound_value(sup, n) <= 1e-4
    assert tail_bound_value(sup, n - 1) > 1e-4
    assert cutoff_for_tolerance(0.0, 1e-4) == 1
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"positive and finite, got {tol!r}"):
            cutoff_for_tolerance(1.0, tol)


# powers of two, and their neighbours one ulp below and above
POWERS_AND_NEIGHBOURS = st.tuples(st.integers(-1000, 1000), st.sampled_from((-1, 0, 1))).map(
    lambda p: math.nextafter(2.0 ** p[0], p[1] * math.inf) if p[1] else 2.0 ** p[0]
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(dist=st.one_of(st.floats(2.0**-1000, 2.0**1000), POWERS_AND_NEIGHBOURS))
def test_level_floor_is_exact(dist):
    """Every cell below the floor is shorter than dist, for every dilation
    r < 2, and the floor level's longest cells are not."""
    n_min = levels_for_distance(dist, 1.0, 1e-4).start
    below_two = math.nextafter(2.0, 0.0)
    assert below_two * 2.0 ** (n_min - 1) < dist
    assert 2.0 ** (n_min + 1) > dist


@pytest.mark.parametrize("dist", [0.0, -1.0, math.inf, math.nan])
def test_level_floor_needs_positive_finite_distance(dist):
    with pytest.raises(ValueError, match="positive finite distance"):
        levels_for_distance(dist, 1.0, 1e-4)


def test_accumulate_rejects_empty():
    with pytest.raises(ValueError):
        accumulate_samples(0, 0, range(0, 2), lambda n, r, sigma: r)
    # no level, or levels that skip one, leave the sigma recursion undefined
    for levels in (range(2, 2), range(0, 6, 2)):
        with pytest.raises(ValueError, match="consecutive levels"):
            accumulate_samples(0, 10, levels, lambda n, r, sigma: r)


# a last chunk of 1328 draws; one draw per chunk, so every chunk's M2 is 0;
# a default-sized chunk and a last chunk shorter than the 4096 strata
@pytest.mark.parametrize(
    "num_samples, chunk_size",
    [(30_000, 1 << 12), (500, 1), (DEFAULT_CHUNK + 1000, DEFAULT_CHUNK)],
    ids=["partial-last-chunk", "one-draw-chunks", "last-chunk-below-strata"],
)
def test_accumulate_deterministic_and_thread_invariant(num_samples, chunk_size):
    term = kernel_sum_terms(ONES, 0.7, 0.1)
    levels = range(-2, 7)
    a, b, c, d = (
        tally_bits(accumulate_samples(5, num_samples, levels, term, threads=t, chunk_size=chunk_size))
        for t in (1, 1, 2, 4)
    )
    assert a == b == c == d


def test_engine_matches_scalar_sampler():
    """At chunk size 1, rounded up to the 8 strata, the chunked engine must
    draw the same stream as the scalar sampler, draw by draw, stratum by
    stratum, and its sigma recursion must land in the same cells as the
    explicit offset geometry."""
    x, y = 0.73, 0.21
    levels = range(-3, 9)
    m = 64
    tally = accumulate_samples(31, m, levels, kernel_sum_terms(ONES, x, y), chunk_size=1)
    q, q_w = strata_shape(m, len(levels) - 1)
    assert tally.strata == q * q * q_w == 8
    manual = [
        shift_kernel_sum(s, ONES, x, y, levels)
        for s in sample_call(31, levels.start, levels[-1], m, chunk_size=1)
    ]
    assert tally.sums == pytest.approx(_by_stratum(manual, 8), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize(
    "levels, strata", [(range(0, 3), 1024), (range(0, 2), 512)], ids=["two-bit-rows", "one-bit-row"]
)
def test_engine_matches_scalar_sampler_with_few_bit_rows(levels, strata):
    """With fewer than 4 bit rows, w is stratified on the rows there are;
    a chunk of 2H + 37 draws holds 2 or 3 draws per stratum."""
    x, y = 0.73, 0.21
    m = 2 * strata + 37
    tally = accumulate_samples(7, m, levels, kernel_sum_terms(ONES, x, y))
    assert tally.strata == strata
    assert sorted(set(tally.counts.tolist())) == [2, 3]
    manual = [
        shift_kernel_sum(s, ONES, x, y, levels)
        for s in sample_chunk(7, levels.start, levels[-1], 0, m, m)
    ]
    assert tally.sums == pytest.approx(_by_stratum(manual, strata), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize(
    "num_samples, strata", [(1, 1), (2, 1), (8191, 512), (8192, 4096), (8193, 4096)]
)
def test_strata_follow_the_draw_count(num_samples, strata):
    """H shrinks until every stratum holds 2 draws, and one draw is plain
    with no stderr; counts differ by at most one, and with equal counts
    the stratified mean is the plain sample mean."""
    levels = range(-2, 7)
    tally = accumulate_samples(3, num_samples, levels, kernel_sum_terms(ONES, 0.7, 0.1))
    q, q_w = strata_shape(num_samples, len(levels) - 1)
    assert tally.strata == strata == q * q * q_w
    counts = tally.counts.tolist()
    assert sum(counts) == num_samples
    # draw i sits in stratum i % H, so the low strata hold the extra draws
    assert counts == [num_samples // strata + (h < num_samples % strata) for h in range(strata)]
    if num_samples == 1:
        assert math.isnan(tally.stderr)
        return
    assert min(counts) >= 2
    assert tally.stderr > 0.0
    if num_samples % strata == 0:
        assert tally.mean == math.fsum(tally.sums) / num_samples
    want = math.fsum(tally.sums / tally.counts) / strata
    assert tally.mean == pytest.approx(want, rel=1e-14)


def test_merge_matches_direct_statistics():
    """Chunks of 5000 draws, rounded up to two rounds of the 4096 strata,
    and a short last chunk with a part round merge to the per-stratum
    count, sum and M2 computed directly from the oracle's draws."""
    levels = range(0, 5)
    m = 3 * 4096 + 1000

    def term(n, r, sigma):
        return (n + 2) * r * sigma

    tally = accumulate_samples(12, m, levels, term, chunk_size=5000)
    totals = []
    for s in sample_call(12, levels.start, levels[-1], m, chunk_size=5000):
        sigma, total = s.sigma, 0.0
        for j, n in enumerate(levels):
            total += (n + 2) * s.r * sigma
            if j < len(s.bits):
                sigma = (sigma + s.bits[j]) / 2
        totals.append(total)
    strata = np.arange(m) % 4096
    assert tally.strata == 4096
    assert tally.counts.tolist() == np.bincount(strata, minlength=4096).tolist()
    sums = np.bincount(strata, totals, 4096)
    dev = np.asarray(totals) - (sums / tally.counts)[strata]
    assert tally.sums == pytest.approx(sums, rel=1e-12)
    assert tally.m2 == pytest.approx(np.bincount(strata, dev * dev, 4096), rel=1e-9, abs=1e-15)


def test_floor_shift_is_uniform():
    """At a single level the term sees the floor shift as drawn: its mean
    is 1/2 and its variance 1/12, as for a uniform on [0, 1)."""
    m = 1 << 16
    tally = accumulate_samples(6, m, range(0, 1), lambda n, r, sigma: sigma, chunk_size=1 << 12)
    _, m2 = pooled(tally)
    assert tally.mean == pytest.approx(0.5, rel=0.01)
    assert m2 / (m - 1) == pytest.approx(1.0 / 12.0, rel=0.05)


def test_engine_matches_scalar_sampler_across_term_blocks():
    """A chunk longer than the engine's term block must still hand every
    draw its own r, sigma and bits: each stratum's total equals the scalar
    sum over its grids."""
    x, y = 0.73, 0.21
    levels = range(-2, 2)
    m = _TERM_BLOCK + 300
    tally = accumulate_samples(31, m, levels, kernel_sum_terms(ONES, x, y))
    manual = [
        shift_kernel_sum(s, ONES, x, y, levels)
        for s in sample_chunk(31, levels.start, levels[-1], 0, m, m)
    ]
    assert tally.strata == 2048
    assert tally.sums == pytest.approx(_by_stratum(manual, 2048), rel=1e-9, abs=1e-9)


def test_stderr_shrinks_with_sample_count():
    """At a fixed stratum count (4096 from 8192 draws on), a hundred times
    the draws gives a tenth of the stderr."""
    term = kernel_sum_terms(ONES, 0.9, 0.35)
    levels = range(-2, 9)

    def stderr(m):
        return accumulate_samples(8, m, levels, term).stderr

    ratio = stderr(8_192) / stderr(819_200)
    assert 8.0 <= ratio <= 12.0


def test_variance_stable_far_from_zero():
    """Totals sitting far from zero must keep their spread: for 1e8 + r the
    sample variance is that of r, whose density is 1/(r ln 2) on [1, 2)."""
    m = 1 << 16
    tally = accumulate_samples(4, m, range(0, 1), lambda n, r, sigma: 1e8 + r, chunk_size=1 << 12)
    _, m2 = pooled(tally)
    ln2 = math.log(2.0)
    want = 3.0 / (2.0 * ln2) - 1.0 / ln2**2
    assert m2 / (m - 1) == pytest.approx(want, rel=0.05)


def _wavy_table():
    """Non-constant samples on a non-dyadic step, tails apart from the end
    samples."""
    u_min, step, n = -3.1, 1.0 / 3.0, 16
    grid = u_min + step * np.arange(n)
    return CoefficientTable(
        u_min=u_min,
        u_max=u_min + step * (n - 1),
        step=step,
        samples=np.sin(2.0 * grid) + 0.3 * grid,
        tail_left=0.7,
        tail_right=-0.4,
        residual_sup=0.0,
        iterations=0,
    )


# both windows sit inside the log cell lengths of levels -6 .. 4, about
# -4.2 .. 3.5, so the draws read both tails and the interior
TERM_TABLES = {
    "linear": linear_table(0.8, -1.3, u_min=-2.0, u_max=2.5),
    "wavy": _wavy_table(),
}


@pytest.mark.parametrize(
    "num_samples, chunk_size",
    [(300, 1), (_TERM_BLOCK + 300, 1 << 17)],
    ids=["one-draw-chunks", "beyond-one-term-block"],
)
@pytest.mark.parametrize("table_name", sorted(TERM_TABLES))
@pytest.mark.parametrize("route", ["kernel-sum", "indicator", "triangle"])
def test_level_term_matches_reference_bit_for_bit(route, table_name, num_samples, chunk_size):
    """The in-place level term computes what the plainly written reference
    computes, draw by draw: (sum, M2) agree bit for bit."""
    table = TERM_TABLES[table_name]
    levels = range(-6, 5)
    # x is 0.02 from a knot of either f, so cells short enough to read the
    # left tail still pair to nonzero values
    x = 0.98
    if route == "kernel-sum":
        cases = [
            (kernel_sum_terms(table, x, y), reference_kernel_pairing(y)) for y in (0.96, 0.21, -1.9)
        ]
    else:
        f = indicator_function() if route == "indicator" else triangle_function()
        cases = [(_operator_terms(table, f, x), reference_operator_pairing(f))]
    for term, pairing in cases:
        want = reference_shift_terms(table, x, pairing)
        got = accumulate_samples(17, num_samples, levels, term, chunk_size=chunk_size)
        assert tally_bits(got) == tally_bits(
            accumulate_samples(17, num_samples, levels, want, chunk_size=chunk_size)
        )


@pytest.mark.parametrize("num_samples", [8192, 600], ids=["2-per-stratum", "64-strata"])
@pytest.mark.parametrize("route", ["kernel-sum", "indicator"])
def test_stderr_matches_spread_over_seeds(route, num_samples):
    """The reported stderr is honest: over 128 seeds, the spread of the
    stratified estimates is within a factor 1.25 of their mean stderr
    (the spread's own sampling error is about 6%).  An M2/n_h in place of
    M2/(n_h - 1) reads 1.36-1.42 at 2 draws per stratum and fails."""
    if route == "kernel-sum":
        ests = [mc_estimate(ONES, 0.7, 0.1, num_samples=num_samples, seed=s) for s in range(128)]
    else:
        x = 2.0 if num_samples == 8192 else 0.25
        ests = [
            apply_averaged(ONES, indicator_function(), [x], num_samples, seed=s)[0]
            for s in range(128)
        ]
    spread = float(np.std([e.mean for e in ests], ddof=1))
    reported = float(np.mean([e.stderr for e in ests]))
    assert 1 / 1.25 <= spread / reported <= 1.25


def test_stream_contract_golden():
    """Fixed-seed outputs of stream 4.  The draw order moves these by about
    a stderr (1e-2 relative); rounding differences between platforms stay
    far below the 1e-12 allowed here."""
    est = mc_estimate(ONES, 0.7, 0.1, num_samples=20_000, seed=2026)
    (op,) = apply_averaged(ONES, triangle_function(), [0.4], 20_000, seed=2026)
    message = "the draw order changed: bump `STREAM_VERSION` and update this value"
    assert STREAM_VERSION == 4, message
    assert (est.strata, op.strata) == (4096, 4096), message
    assert est.mean == pytest.approx(-0.6241603323087881, rel=1e-12), message
    assert est.stderr == pytest.approx(0.008325802660488338, rel=1e-12), message
    assert op.mean == pytest.approx(0.6471595068113942, rel=1e-12), message
    assert op.stderr == pytest.approx(0.002536867128310578, rel=1e-12), message
