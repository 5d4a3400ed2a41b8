import math
import time

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
    level_draws,
    level_lattice,
    level_offset,
    reference_kernel_pairing,
    reference_operator_pairing,
    reference_shift_terms,
    replicate_sums,
    sample_grid,
    sample_level,
    shift_kernel_sum,
)

from haarshift import (
    STREAM_VERSION,
    CoefficientTable,
    accumulate_samples,
    apply_averaged,
    estimate,
    cutoff_for_tolerance,
    indicator_function,
    levels_for_distance,
    mc_estimate,
    tail_bound_value,
    triangle_function,
)
from haarshift import dyadic
from haarshift.dyadic import DEFAULT_CHUNK, kernel_sum_terms
from haarshift.operators import _operator_terms


ONES = const_table(1.0)


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


def _recorded_draws(seed, num_samples, levels, chunk_size=DEFAULT_CHUNK, term=None, threads=None):
    """Run the engine with a term that records the (n, r, sigma) it is
    handed, in call order; returns the tallies and, per level, its r and
    sigma in call order (replicate by replicate on one thread)."""
    calls = []

    def recording(n, r, sigma):
        calls.append((n, r.copy(), sigma.copy()))
        return np.zeros_like(r) if term is None else term(n, r, sigma)

    tallies = accumulate_samples(
        seed, num_samples, levels, recording, threads=threads, chunk_size=chunk_size
    )
    draws = {
        n: tuple(np.concatenate([c[i] for c in calls if c[0] == n]) for i in (1, 2)) for n in levels
    }
    return tallies, draws


def test_level_draws_follow_the_grid_law():
    """Each level's shifted lattices spread the dilation and the shift as
    the grid law does, r with density 1/(r ln 2) on [1, 2) and sigma
    uniform on [0, 1), whatever the level's draw count."""
    _, draws = _recorded_draws(2024, 100_000, range(0, 12))
    for n in (0, 5, 11):
        rs, sigmas = draws[n]
        assert np.all((1.0 <= rs) & (rs < 2.0)) and np.all((0.0 <= sigmas) & (sigmas < 1.0))
        assert abs(np.mean(np.log(rs)) - math.log(2.0) / 2) <= 0.003
        # r's CDF is log2
        assert scipy.stats.kstest(rs, np.log2).pvalue > 1e-3
        assert scipy.stats.kstest(sigmas, "uniform").pvalue > 1e-3


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
    with pytest.raises(ValueError, match="num_samples must be a positive integer, got 0"):
        accumulate_samples(0, 0, range(0, 2), lambda n, r, sigma: r)
    # a level's draw count follows its row above the floor, so the levels
    # must be consecutive
    for levels in (range(2, 2), range(0, 6, 2)):
        with pytest.raises(ValueError, match="consecutive levels"):
            accumulate_samples(0, 10, levels, lambda n, r, sigma: r)


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, True, False])
def test_accumulate_rejects_seed_outside_the_key_range(seed):
    """The Philox key takes integers in [0, 2^128): any other seed, a bool
    standing for 1 or 0 included, is refused before a single draw."""
    calls = []
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^128\)"):
        accumulate_samples(seed, 10, range(0, 2), lambda n, r, sigma: calls.append(n) or r)
    assert calls == []


@pytest.mark.parametrize("num_samples", [2.5, True])
def test_accumulate_rejects_samples_that_are_not_integers(num_samples):
    """A fractional draw count, or a bool standing for 1, is refused by
    name before a single draw."""
    calls = []
    message = f"num_samples must be a positive integer, got {num_samples!r}"
    with pytest.raises(ValueError, match=message):
        accumulate_samples(0, num_samples, range(0, 2), lambda n, r, sigma: calls.append(n) or r)
    assert calls == []


# replicates of 1,500 floor points, two to a chunk of 4096; one point per
# chunk; at the floor each replicate of 32,818 points in two pieces
@pytest.mark.parametrize(
    "num_samples, chunk_size",
    [(30_000, 1 << 12), (500, 1), (20 * DEFAULT_CHUNK + 1000, DEFAULT_CHUNK)],
    ids=["grouped-replicates", "one-point-chunks", "replicates-in-pieces"],
)
def test_accumulate_deterministic_and_thread_invariant(num_samples, chunk_size):
    term = kernel_sum_terms(ONES, 0.7, 0.1)
    levels = range(-2, 7)
    a, b, c, d = (
        tally_bits(accumulate_samples(5, num_samples, levels, term, threads=t, chunk_size=chunk_size))
        for t in (1, 1, 2, 4)
    )
    assert a == b == c == d


@pytest.mark.parametrize("route", ["kernel-sum", "indicator"])
def test_estimates_thread_invariant(route):
    """mc_estimate and apply_averaged give the same bits, the per-level
    record included, at 1, 2 and 4 threads; 2^17 + 1000 floor draws make
    replicates of 6603 points, five chunks of four at the floor."""
    m = (1 << 17) + 1000

    def run(threads):
        if route == "kernel-sum":
            return mc_estimate(ONES, 0.7, 0.1, m, seed=4, threads=threads)
        return apply_averaged(ONES, indicator_function(), [2.0], m, seed=4, threads=threads)[0]

    one, two, four = (run(t) for t in (1, 2, 4))
    assert one == two == four
    assert [level.draws for level in one.record[:3]] == [132_060, 93_380, 66_020]


def _sorted_points(draws):
    """Per level, its (r, sigma) pairs in lexicographic order."""
    points = {}
    for n, (r, sigma) in draws.items():
        order = np.lexsort((sigma, r))
        points[n] = (r[order].tolist(), sigma[order].tolist())
    return points


def test_points_do_not_depend_on_chunks_or_threads():
    """Chunks of 1, 7 and 2^15 points, on 1, 2 and 4 threads, hand the term
    the same (r, sigma) at every level (300 floor draws make replicates of
    15 points, so chunks of 7 cut them in pieces), and the Estimates agree
    bit for bit at every thread count."""
    term = kernel_sum_terms(ONES, 0.7, 0.1)
    levels = range(-2, 6)
    seen = [
        _sorted_points(_recorded_draws(5, 300, levels, chunk_size, term, threads)[1])
        for chunk_size in (1, 7, 1 << 15)
        for threads in (1, 2, 4)
    ]
    assert all(points == seen[0] for points in seen[1:])
    one, two, four = (estimate(0.7, term, levels, 1.0, 300, seed=5, threads=t) for t in (1, 2, 4))
    assert one == two == four


# 41 floor draws make 20 replicates of 2 points, then 20 of 1, down to 2
# of 1; chunks of one point, of whole replicates, and of 7 points cutting
# 50-point replicates in pieces
@pytest.mark.parametrize(
    "num_samples, levels, chunk_size",
    [
        (41, range(-3, 9), 1),
        (41, range(-3, 9), DEFAULT_CHUNK),
        (1000, range(-2, 2), 7),
    ],
    ids=["one-point-chunks", "whole-replicates", "replicates-in-pieces"],
)
def test_engine_matches_scalar_sampler(num_samples, levels, chunk_size):
    """Level by level the engine hands its term, bit for bit, the r and
    sigma of the oracle's shifted lattices, and adds each replicate's sum
    as the oracle does; each sum equals the scalar kernel sums over the
    oracle's explicitly built level-n lattices."""
    x, y = 0.73, 0.21
    term = kernel_sum_terms(ONES, x, y)
    tallies, draws = _recorded_draws(31, num_samples, levels, chunk_size=chunk_size, term=term)
    for row, (n, tally) in enumerate(zip(levels, tallies)):
        replicates = sample_level(31, n, row, num_samples)
        grids = [s for replicate in replicates for s in replicate]
        assert draws[n][0].tolist() == [s.r for s in grids]
        assert draws[n][1].tolist() == [s.sigma for s in grids]
        sums, hits = replicate_sums(term, n, replicates, chunk_size)
        assert (tally.sums.tolist(), tally.hits) == (sums, hits)
        manual = [
            math.fsum(shift_kernel_sum(s, ONES, x, y, range(n, n + 1)) for s in replicate)
            for replicate in replicates
        ]
        assert tally.sums == pytest.approx(manual, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("num_samples", [1, 2, 3, 17, 2**18, 10**6])
def test_draws_and_replicates_follow_the_rule(num_samples):
    """Level row l keeps N_l = ceil(M 2^(-l/2)) draws, at least min(M, 2),
    and evaluates R_l = min(20, N_l) shifts of a floor(N_l / R_l)-point
    lattice.  A call of L levels makes at most 3.42 M + 2 L term
    evaluations, and the stderr, the replicate means' spread over
    sqrt(R_l), is NaN only for a single replicate (M = 1)."""
    levels = range(-2, 20)
    tallies = accumulate_samples(3, num_samples, levels, lambda n, r, sigma: r * sigma)
    for row, tally in enumerate(tallies):
        draws = level_draws(num_samples, row)
        replicates, points = level_lattice(draws)
        assert (tally.replicates, tally.points) == (replicates, points)
        assert tally.draws == replicates * points <= draws < (points + 1) * replicates
        assert tally.hits == tally.draws
        means = tally.sums / points
        assert tally.mean == pytest.approx(float(np.mean(means)), rel=1e-14)
        if num_samples == 1:
            assert math.isnan(tally.stderr)
        else:
            spread = float(np.sqrt(np.sum((means - means.mean()) ** 2) / (replicates - 1)))
            assert tally.stderr == pytest.approx(spread / math.sqrt(replicates), rel=1e-12)
            assert tally.stderr > 0.0
    total = sum(t.draws for t in tallies)
    assert total <= 3.42 * num_samples + 2 * len(levels)
    if num_samples == 2**18:
        assert [(t.draws, t.replicates, t.points) for t in tallies[:3]] == [
            (262_140, 20, 13_107), (185_360, 20, 9268), (131_060, 20, 6553)
        ]
        assert total < 3.42 * num_samples


def test_floor_shift_is_uniform():
    """At a single level the term sees the shift spread as drawn: the
    means of sigma and sigma^2 are 1/2 and 1/3, as for a uniform on
    [0, 1)."""
    m = 1 << 16
    first, second = (
        accumulate_samples(6, m, range(0, 1), term, chunk_size=1 << 12)[0].mean
        for term in (lambda n, r, sigma: sigma, lambda n, r, sigma: sigma * sigma)
    )
    assert first == pytest.approx(0.5, rel=1e-3)
    assert second - first**2 == pytest.approx(1.0 / 12.0, rel=1e-3)


def test_stderr_shrinks_with_sample_count():
    """A hundred times the draws on levels 0-1 cuts the stderr by more than
    the tenfold of plain Monte Carlo: the shifted lattice's error falls
    about as N^(-3/4) on this discontinuous integrand (measured 32-43 over
    seeds 8-13), and never as fast as 1/N."""
    term = kernel_sum_terms(ONES, 0.9, 0.35)
    levels = range(0, 2)

    def stderr(m):
        return math.hypot(*(t.stderr for t in accumulate_samples(8, m, levels, term)))

    ratio = stderr(50_000) / stderr(5_000_000)
    assert 20.0 <= ratio <= 100.0


def test_variance_stable_far_from_zero():
    """Terms sitting far from zero must keep their spread: the stderr of
    1e8 + r is that of r, to the rounding of 1e8 + r (measured within
    5e-5 relative over seeds 4-9)."""
    m = 1 << 16

    def stderr(offset):
        term = lambda n, r, sigma: offset + r  # noqa: E731
        (tally,) = accumulate_samples(4, m, range(0, 1), term, chunk_size=1 << 12)
        return tally.stderr

    assert stderr(1e8) == pytest.approx(stderr(0.0), rel=1e-3)


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
    [(300, 1), (DEFAULT_CHUNK + 300, DEFAULT_CHUNK)],
    ids=["one-point-chunks", "grouped-replicates"],
)
@pytest.mark.parametrize("table_name", sorted(TERM_TABLES))
@pytest.mark.parametrize("route", ["kernel-sum", "indicator", "triangle"])
def test_level_term_matches_reference_bit_for_bit(route, table_name, num_samples, chunk_size):
    """The in-place level term computes what the plainly written reference
    computes, point by point: the replicate sums agree bit for bit."""
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


def test_workspaces_are_private_to_their_task():
    """At 4 threads, a term that sleeps (releasing the interpreter lock)
    while it holds the engine's r and sigma finds them unchanged when it
    wakes: no other task writes to its workspace."""

    def sleepy(n, r, sigma):
        before = r.copy(), sigma.copy()
        time.sleep(1e-3)
        assert np.array_equal(r, before[0]) and np.array_equal(sigma, before[1])
        return r * sigma

    levels = range(0, 6)
    got = accumulate_samples(3, 4000, levels, sleepy, threads=4, chunk_size=256)
    want = accumulate_samples(3, 4000, levels, lambda n, r, sigma: r * sigma, chunk_size=256)
    assert tally_bits(got) == tally_bits(want)


def test_engine_reuses_its_workspaces(monkeypatch):
    """A repeat call makes no workspace, at 1 thread and at 2; a call keeps
    no more spares than its thread count; a term called outside the engine
    leaves the spares alone and returns an array of its own."""
    made = []

    class Counting(dyadic._Workspace):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(dyadic, "_Workspace", Counting)
    monkeypatch.setattr(dyadic, "_SPARES", [])
    term = kernel_sum_terms(ONES, 0.7, 0.1)

    def sleepy(n, r, sigma):
        # so that both pool threads hold a task at once
        time.sleep(1e-3)
        return term(n, r, sigma)

    def run(threads):
        accumulate_samples(5, 3000, range(0, 4), sleepy, threads=threads, chunk_size=512)
        return len(made)

    for threads in (1, 2):
        first = run(threads)
        assert run(threads) == first
    assert len(made) == 2
    run(4)
    run(1)
    assert len(dyadic._SPARES) == 1
    spares = [id(ws) for ws in dyadic._SPARES]
    r, sigma = np.full(5, 1.5), np.linspace(0.0, 0.9, 5)
    a, b = term(0, r, sigma), term(0, r, sigma)
    assert not np.shares_memory(a, b) and np.array_equal(a, b)
    assert [id(ws) for ws in dyadic._SPARES] == spares


# 8192 floor draws make 20 replicates of 409 points at the floor, 600 make
# 20 of 30 (the ids keep the stream-5 names of these cases)
@pytest.mark.parametrize("num_samples", [8192, 600], ids=["2-per-stratum", "256-strata"])
@pytest.mark.parametrize("route", ["kernel-sum", "indicator"])
def test_stderr_matches_spread_over_seeds(route, num_samples):
    """The reported stderr is honest: over 128 seeds, the spread of the
    stratified estimates is within a factor 1.25 of their mean stderr
    (the spread's own sampling error is about 6%; measured 0.93-1.08).
    An M2/n_h in place of M2/(n_h - 1) reads 1.25-1.43 and fails three of
    the four cases."""
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
    """Fixed-seed outputs of stream 6.  The draw order moves these by about
    a stderr (1e-2 relative); rounding differences between platforms stay
    far below the 1e-12 allowed here."""
    est = mc_estimate(ONES, 0.7, 0.1, num_samples=20_000, seed=2026)
    (op,) = apply_averaged(ONES, triangle_function(), [0.4], 20_000, seed=2026)
    message = "the draw order changed: bump `STREAM_VERSION` and update this value"
    assert STREAM_VERSION == 6, message
    assert est.record[0][:3] == (-1, 20_000, 20), message
    assert est.record[0].mean == pytest.approx(0.5260713161442868, rel=1e-12), message
    assert (len(est.record), len(op.record)) == (20, 21), message
    assert est.mean == pytest.approx(-0.6206235415569886, rel=1e-12), message
    assert est.stderr == pytest.approx(0.0035487999464347488, rel=1e-12), message
    assert op.mean == pytest.approx(0.6511932003510991, rel=1e-12), message
    assert op.stderr == pytest.approx(0.001843412758305952, rel=1e-12), message
