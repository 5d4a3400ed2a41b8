import math

import numpy as np
import pytest
import scipy.stats

from conftest import const_table
from oracles import (
    GridSample,
    fixed_grid,
    interval_containing,
    level_offset,
    sample_chunk,
    sample_grid,
    shift_kernel_sum,
)

from haarshift import (
    LevelRange,
    accumulate_samples,
    cutoff_for_tolerance,
    tail_bound_value,
)
from haarshift.dyadic import _TERM_BLOCK, kernel_sum_terms


ONES = const_table(1.0)


def test_level_range():
    assert list(LevelRange(-2, 1)) == [-2, -1, 0, 1]
    assert list(LevelRange(3, 3)) == [3]
    with pytest.raises(ValueError):
        LevelRange(2, 1)


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
    total = shift_kernel_sum(s, ONES, 0.1, 0.2, LevelRange(0, 0))
    assert total == -7.0


def test_kernel_sum_rejects_diagonal():
    s = fixed_grid()
    with pytest.raises(ValueError):
        shift_kernel_sum(s, ONES, 0.3, 0.3, LevelRange(0, 1))
    with pytest.raises(ValueError):
        kernel_sum_terms(ONES, 0.3, 0.3)


def test_kernel_sum_separated_cells():
    s = fixed_grid(r=1.0)
    assert shift_kernel_sum(s, ONES, 0.9, 1.1, LevelRange(0, 0)) == 0.0
    # every admitted cell is shorter than the separation
    assert shift_kernel_sum(s, ONES, 0.1, 5.3, LevelRange(-6, 2)) == 0.0


def test_kernel_sum_global_bound():
    rng = np.random.default_rng(42)
    for _ in range(40):
        s = sample_grid(int(rng.integers(0, 1 << 30)), i_min=-40, n_max=24)
        x = float(rng.uniform(-4, 4))
        y = x + float(rng.uniform(0.01, 3.0)) * rng.choice([-1.0, 1.0])
        total = shift_kernel_sum(s, ONES, x, y, LevelRange(-12, 23))
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
            mass += abs(shift_kernel_sum(s, ONES, x, y, LevelRange(n, n)))
        assert mass <= 14.0 * 2.0 ** (1 - big_n) + 1e-12


def test_cutoff_for_tolerance():
    sup = 8.0 / 3.0
    n = cutoff_for_tolerance(sup, 1e-4)
    assert n == 20
    assert tail_bound_value(sup, n) <= 1e-4
    assert tail_bound_value(sup, n - 1) > 1e-4
    assert cutoff_for_tolerance(0.0, 1e-4) == 1
    with pytest.raises(ValueError):
        cutoff_for_tolerance(1.0, 0.0)


def test_accumulate_rejects_empty():
    with pytest.raises(ValueError):
        accumulate_samples(0, 0, LevelRange(0, 1), lambda n, r, sigma: r)


# a last chunk of 1328 draws; one draw per chunk, so every chunk's M2 is 0
@pytest.mark.parametrize(
    "num_samples, chunk_size",
    [(30_000, 1 << 12), (500, 1)],
    ids=["partial-last-chunk", "one-draw-chunks"],
)
def test_accumulate_deterministic_and_thread_invariant(num_samples, chunk_size):
    term = kernel_sum_terms(ONES, 0.7, 0.1)
    levels = LevelRange(-2, 6)
    a, b, c, d = (
        accumulate_samples(5, num_samples, levels, term, threads=t, chunk_size=chunk_size)
        for t in (1, 1, 2, 4)
    )
    assert a == b == c == d


def test_engine_matches_scalar_sampler():
    """The chunked engine at chunk size 1 must draw the same stream as
    sample_grid draw by draw, and its sigma recursion must land in the
    same cells as the explicit offset geometry."""
    x, y = 0.73, 0.21
    levels = LevelRange(-3, 8)
    m = 64
    total, _ = accumulate_samples(
        31, m, levels, kernel_sum_terms(ONES, x, y), chunk_size=1
    )
    manual = 0.0
    for index in range(m):
        s = sample_grid(31, levels.n_min, levels.n_max, index=index)
        manual += shift_kernel_sum(s, ONES, x, y, levels)
    assert total == pytest.approx(manual, rel=1e-9, abs=1e-9)


def test_floor_shift_is_uniform():
    """At a single level the term sees the floor shift as drawn: its mean
    is 1/2 and its variance 1/12, as for a uniform on [0, 1)."""
    m = 1 << 16
    total, m2 = accumulate_samples(
        6, m, LevelRange(0, 0), lambda n, r, sigma: sigma, chunk_size=1 << 12
    )
    assert total / m == pytest.approx(0.5, rel=0.01)
    assert m2 / (m - 1) == pytest.approx(1.0 / 12.0, rel=0.05)


def test_engine_matches_scalar_sampler_across_term_blocks():
    """A chunk longer than the engine's term block must still hand every
    draw its own r, sigma and bits: the chunk total equals the scalar sum
    over the chunk's grids."""
    x, y = 0.73, 0.21
    levels = LevelRange(-2, 1)
    m = _TERM_BLOCK + 300
    total, _ = accumulate_samples(31, m, levels, kernel_sum_terms(ONES, x, y))
    manual = math.fsum(
        shift_kernel_sum(s, ONES, x, y, levels)
        for s in sample_chunk(31, levels.n_min, levels.n_max, 0, m)
    )
    assert total == pytest.approx(manual, rel=1e-9, abs=1e-9)


def test_stderr_shrinks_with_sample_count():
    term = kernel_sum_terms(ONES, 0.9, 0.35)
    levels = LevelRange(-2, 8)

    def stderr(m):
        _, m2 = accumulate_samples(8, m, levels, term)
        return math.sqrt(m2 / (m - 1) / m)

    ratio = stderr(2_000) / stderr(200_000)
    assert 8.0 <= ratio <= 12.0


def test_variance_stable_far_from_zero():
    """Totals sitting far from zero must keep their spread: for 1e8 + r the
    sample variance is that of r, whose density is 1/(r ln 2) on [1, 2)."""
    m = 1 << 16
    _, m2 = accumulate_samples(
        4, m, LevelRange(0, 0), lambda n, r, sigma: 1e8 + r, chunk_size=1 << 12
    )
    ln2 = math.log(2.0)
    want = 3.0 / (2.0 * ln2) - 1.0 / ln2**2
    assert m2 / (m - 1) == pytest.approx(want, rel=0.05)
