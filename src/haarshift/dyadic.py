"""Random dyadic grids and the Monte-Carlo estimator that averages over them.

A grid draw is a dilation r in [1, 2), the fractional shift sigma of the
lowest admitted level's lattice, and a bit per level above it; the level-n
lattice is { r 2^n (sigma_n + k) : k integer } with the halving recursion
sigma_{n+1} = (sigma_n + bit_n) / 2.  A fair bit maps a uniform sigma_n to
a uniform sigma_{n+1}, so drawing sigma uniform on [0, 1) at the floor
gives every admitted level the shift law of a grid with infinitely many
bits below it; bits at or above the top level are never consulted.

The engine (`accumulate_samples`) never builds a lattice.  Per draw it
tracks sigma_n and hands it to a vectorized per-level term function.
Draws come in chunks keyed by (seed, chunk index), with per-chunk counter
offsets so any chunk can be generated independently.  Reduction happens
in chunk order (pairwise within chunks, exact summation across), so
results are bit-identical for any thread count.

`estimate` is the one Monte-Carlo estimator: ln 2 times the sample mean,
its stderr, and the bound on the discarded coarse levels.  `shift_terms`
is the one level term of the Haar shift, given its pairing with f: the
averaged shift operator (`operators`) pairs with a test function, and the
two-point kernel sum (`kernel_sum_terms`) is the shift applied to a unit
mass at y.

Draw order is part of the reproducibility contract, and `STREAM_VERSION`
names it; the CLI records it as `versions.stream` in its JSON outputs.
Stream 2 draws, per chunk, the dilation first, then the floor shift sigma,
then the bit rows from low level to high, as unsigned bytes.  Stream 1
(outputs without `versions.stream`) built sigma from 52 further bit rows
below the floor instead of drawing it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .piecewise import make_g, make_h

__all__ = [
    "LevelRange",
    "Estimate",
    "cutoff_for_tolerance",
    "tail_bound_value",
    "levels_for_distance",
    "accumulate_samples",
    "estimate",
    "STREAM_VERSION",
]

# quarter values of the two generating step functions, as lookup arrays
_H_VALUES = np.array(make_h().values)
_G_VALUES = np.array(make_g().values)

# version of the draw order; bump it whenever the same seed draws differently
STREAM_VERSION = 2

DEFAULT_CHUNK = 1 << 17

# draws per term_fn call: small enough that the allocator reuses the level
# temporaries instead of refaulting them, large enough to amortise each call
_TERM_BLOCK = 1 << 15


@dataclass(frozen=True)
class LevelRange:
    """Inclusive range of admitted levels; cell length at level n is r 2^n."""

    n_min: int
    n_max: int

    def __post_init__(self):
        if self.n_min > self.n_max:
            raise ValueError("need n_min <= n_max")

    def __iter__(self):
        return iter(range(self.n_min, self.n_max + 1))


@dataclass
class Estimate:
    """Monte-Carlo estimate at one probe x, with its stderr and tail bound."""

    x: float
    mean: float
    stderr: float
    tail_bound: float
    num_samples: int
    seed: int
    levels: LevelRange

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "mean": self.mean,
            "stderr": self.stderr,
            "tail_bound": self.tail_bound,
            "M": self.num_samples,
            "seed": self.seed,
            "n_min": self.levels.n_min,
            "n_max": self.levels.n_max,
        }


def _rng(seed: int, index: int) -> np.random.Generator:
    # counter-based: every index owns a disjoint 2^70-wide counter block
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 70))


def _quarter_index(t: np.ndarray) -> np.ndarray:
    return np.minimum((t * 4.0).astype(np.int64), 3)


def cutoff_for_tolerance(gamma_sup: float, tol: float) -> int:
    """Smallest N with 14 * gamma_sup * 2^(1-N) <= tol.

    Levels with cell length below 2^N are kept (n <= N - 1); the discarded
    remainder is bounded by the returned tolerance because at most one cell
    per level contains a given point and sum of 1/length over those cells
    telescopes to at most 2^(1-N).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if gamma_sup == 0:
        return 1
    return 1 + max(0, math.ceil(math.log2(14.0 * gamma_sup / tol)))


def tail_bound_value(gamma_sup: float, n_cutoff: int) -> float:
    """The discarded-levels bound 14 * gamma_sup * 2^(1 - N)."""
    return 14.0 * gamma_sup * 2.0 ** (1 - n_cutoff)


def levels_for_distance(dist: float, gamma_sup: float, tol_tail: float) -> LevelRange:
    """Admitted levels for a probe `dist` away from the nearest feature.

    Cells below level floor(log2 dist) - 1 are shorter than dist, so they
    contribute nothing; the ceiling is the cutoff for `tol_tail`.
    """
    n_cut = cutoff_for_tolerance(gamma_sup, tol_tail)
    n_min = math.floor(math.log2(dist)) - 1
    return LevelRange(n_min, max(n_cut - 1, n_min))


def accumulate_samples(
    seed: int,
    num_samples: int,
    levels: LevelRange,
    term_fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    threads: int | None = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> tuple[float, float]:
    """Chunked Monte-Carlo accumulation of per-draw level sums.

    For each draw, takes the fractional lattice shift sigma uniform at
    ``levels.n_min``, calls ``term_fn(n, r, sigma)`` at every admitted level
    and moves sigma up a level by the halving recursion
    sigma_{n+1} = (sigma_n + bit_n)/2.  A chunk draws r, then sigma, then
    the ``n_max - n_min`` bit rows (stream `STREAM_VERSION`), and hands
    term_fn its draws in blocks of at most 32768.  Returns (sum, M2) of the
    per-draw totals, M2 being the sum of their squared deviations from the
    mean.

    Each chunk reduces to (count, sum, M2); the chunks are merged in chunk
    order by M2 = sum M2_i + sum n_i (mean_i - mean)^2 with exact summation,
    which keeps the variance stable when the totals sit far from zero and
    leaves the result independent of the thread count.

    term_fn must be pure and vectorized over the draw axis.
    """
    if num_samples < 1:
        raise ValueError("need at least one draw")

    def run_chunk(chunk_index: int, count: int) -> tuple[int, float, float]:
        rng = _rng(seed, chunk_index)
        r = np.exp2(rng.random(count))
        sigma = rng.random(count)
        bits = rng.integers(
            0, 2, size=(levels.n_max - levels.n_min, count), dtype=np.uint8
        )
        acc = np.zeros(count)
        for start in range(0, count, _TERM_BLOCK):
            block = slice(start, start + _TERM_BLOCK)
            r_block, sigma_block, acc_block = r[block], sigma[block], acc[block]
            for row, n in enumerate(levels):
                acc_block += term_fn(n, r_block, sigma_block)
                if n < levels.n_max:
                    sigma_block = 0.5 * (sigma_block + bits[row, block])
        chunk_sum = float(np.sum(acc))
        dev = acc - chunk_sum / count
        return count, chunk_sum, float(np.sum(dev * dev))

    jobs = [
        (index, min(chunk_size, num_samples - start))
        for index, start in enumerate(range(0, num_samples, chunk_size))
    ]

    if threads is not None and threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(lambda j: run_chunk(*j), jobs))
    else:
        partials = [run_chunk(*j) for j in jobs]

    total = math.fsum(p[1] for p in partials)
    mean = total / num_samples
    m2 = math.fsum(
        part for n, s, q in partials for part in (q, n * (s / n - mean) ** 2)
    )
    return total, m2


def estimate(
    x: float,
    term_fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    levels: LevelRange,
    gamma_sup: float,
    num_samples: int,
    seed: int = 0,
    threads: int | None = None,
) -> Estimate:
    """Average the per-draw level sums of `term_fn` over grid draws.

    The estimate is ln 2 times the sample mean (the dilation is drawn with
    density 1/(r ln 2), compensating the unnormalized dr/r weight), with
    the sample-standard-deviation stderr and the bound on the levels above
    `levels`.  stderr is NaN for a single draw.
    """
    total, m2 = accumulate_samples(seed, num_samples, levels, term_fn, threads=threads)
    ln2 = math.log(2.0)
    if num_samples > 1:
        stderr = ln2 * math.sqrt(m2 / (num_samples - 1) / num_samples)
    else:
        stderr = float("nan")
    return Estimate(
        x=x,
        mean=ln2 * total / num_samples,
        stderr=stderr,
        tail_bound=tail_bound_value(gamma_sup, levels.n_max + 1),
        num_samples=num_samples,
        seed=seed,
        levels=levels,
    )


def shift_terms(table, x: float, pairing: Callable) -> Callable:
    """Vectorized level-term function of the Haar shift at x.

    Returned callable matches the `accumulate_samples` contract and computes
    gamma(|I|) h_I(x) <g_I, f> for the cell I = [(k + sigma) L, (k + sigma
    + 1) L) containing x, gamma(L) = c(ln L) read from the table.
    ``pairing(k, sigma, L)`` returns sqrt(L) <g_I, f>.
    """

    def term(n: int, r: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        length = r * 2.0**n
        px = x / length - sigma
        k = np.floor(px)
        vals = table.c_at(np.log(length)) * _H_VALUES[_quarter_index(px - k)]
        return vals * pairing(k, sigma, length) / length

    return term


def kernel_sum_terms(table, x: float, y: float) -> Callable:
    """Level-term function for the two-point kernel sum.

    The shift at x applied to a unit mass at y: the pairing is g_I(y),
    zero when y falls in a different cell than x.
    """
    if x == y:
        raise ValueError("the kernel sum is undefined on the diagonal x = y")

    def pairing(k: np.ndarray, sigma: np.ndarray, length: np.ndarray) -> np.ndarray:
        py = y / length - sigma
        ty = np.clip(py - k, 0.0, 1.0)
        return np.where(np.floor(py) == k, _G_VALUES[_quarter_index(ty)], 0.0)

    return shift_terms(table, x, pairing)
