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
Stream 3 draws, per chunk, the dilation first, then the floor shift sigma,
then the bit rows from low level to high out of the generator's raw 64-bit
words: bit i of the (level, draw) array, in row-major order, is bit
i mod 64 of word i div 64, the same on every platform, and
`levels_for_distance` puts the floor at floor(log2 dist) exactly.  Stream 2
drew the bit rows as unsigned bytes with `Generator.integers` and started
one level lower, at a level that never contributes.  Stream 1 (outputs
without `versions.stream`) built sigma from 52 further bit rows below the
floor instead of drawing it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .piecewise import make_g, make_h

__all__ = [
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
# g's quarter values with a 0 at each end, for points outside the cell
_G_PADDED = np.concatenate([[0.0], make_g().values, [0.0]])

# version of the draw order; bump it whenever the same seed draws differently
STREAM_VERSION = 3

DEFAULT_CHUNK = 1 << 17

# draws per term_fn call: small enough that the allocator reuses the level
# temporaries instead of refaulting them, large enough to amortise each call
_TERM_BLOCK = 1 << 15


@dataclass
class Estimate:
    """Monte-Carlo estimate at one probe x, with its stderr and tail bound."""

    x: float
    mean: float
    stderr: float
    tail_bound: float
    num_samples: int
    seed: int
    levels: range  # admitted levels; cell length at level n is r 2^n

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "mean": self.mean,
            "stderr": self.stderr,
            "tail_bound": self.tail_bound,
            "M": self.num_samples,
            "seed": self.seed,
            "n_min": self.levels.start,
            "n_max": self.levels[-1],
        }


def _rng(seed: int, index: int) -> np.random.Generator:
    # counter-based: every index owns a disjoint 2^70-wide counter block
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 70))


def cutoff_for_tolerance(gamma_sup: float, tol: float) -> int:
    """Smallest N with 14 * gamma_sup * 2^(1-N) <= tol.

    Levels with cell length below 2^N are kept (n <= N - 1); the discarded
    remainder is bounded by the returned tolerance because at most one cell
    per level contains a given point and sum of 1/length over those cells
    telescopes to at most 2^(1-N).
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    if gamma_sup == 0:
        return 1
    return 1 + max(0, math.ceil(math.log2(14.0 * gamma_sup / tol)))


def tail_bound_value(gamma_sup: float, n_cutoff: int) -> float:
    """The discarded-levels bound 14 * gamma_sup * 2^(1 - N)."""
    return 14.0 * gamma_sup * 2.0 ** (1 - n_cutoff)


def levels_for_distance(dist: float, gamma_sup: float, tol_tail: float) -> range:
    """Admitted levels for a probe `dist` away from the nearest feature.

    The floor is n_min = floor(log2 dist), exact through `math.frexp`: a
    level-n cell is r 2^n < 2^(n+1) long, so every cell below n_min is
    shorter than 2^n_min <= dist and contributes nothing.  The levels stop
    below the cutoff for `tol_tail`, and hold at least the floor.
    """
    if not 0.0 < dist < math.inf:
        raise ValueError(f"need a positive finite distance, got {dist!r}")
    n_cut = cutoff_for_tolerance(gamma_sup, tol_tail)
    # dist = m 2^e with m in [1/2, 1)
    n_min = math.frexp(dist)[1] - 1
    return range(n_min, max(n_cut, n_min + 1))


def accumulate_samples(
    seed: int,
    num_samples: int,
    levels: range,
    term_fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    threads: int | None = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> tuple[float, float]:
    """Chunked Monte-Carlo accumulation of per-draw level sums.

    For each draw, takes the fractional lattice shift sigma uniform at the
    lowest level of ``levels``, a nonempty range of consecutive levels,
    calls ``term_fn(n, r, sigma)`` at every level in it and moves sigma up
    a level by the halving recursion sigma_{n+1} = (sigma_n + bit_n)/2.  A
    chunk draws r, then sigma, then one bit row per level below the top
    one from raw 64-bit words, read
    little-endian (stream `STREAM_VERSION`), and hands term_fn its draws
    in blocks of at most 32768.  Returns (sum, M2) of the per-draw
    totals, M2 being the sum of their squared deviations from the mean.

    Each chunk reduces to (count, sum, M2); the chunks are merged in chunk
    order by M2 = sum M2_i + sum n_i (mean_i - mean)^2 with exact summation,
    which keeps the variance stable when the totals sit far from zero and
    leaves the result independent of the thread count.

    term_fn must be pure and vectorized over the draw axis, and must not
    keep the arrays it is handed: sigma is moved up a level in place.
    """
    if num_samples < 1:
        raise ValueError("need at least one draw")
    if not levels or levels.step != 1:
        raise ValueError(f"need a nonempty range of consecutive levels, got {levels!r}")
    n_rows = len(levels) - 1

    def run_chunk(chunk_index: int, count: int) -> tuple[int, float, float]:
        rng = _rng(seed, chunk_index)
        r = np.exp2(rng.random(count))
        sigma = rng.random(count)
        n_bits = n_rows * count
        words = rng.bit_generator.random_raw(-(-n_bits // 64))
        bits = np.unpackbits(
            words.astype("<u8", copy=False).view(np.uint8), count=n_bits, bitorder="little"
        ).reshape(-1, count)
        acc = np.zeros(count)
        for start in range(0, count, _TERM_BLOCK):
            block = slice(start, start + _TERM_BLOCK)
            r_block, sigma_block, acc_block = r[block], sigma[block], acc[block]
            for row, n in enumerate(levels):
                acc_block += term_fn(n, r_block, sigma_block)
                if row < n_rows:
                    sigma_block += bits[row, block]
                    sigma_block *= 0.5
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
    levels: range,
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
        tail_bound=tail_bound_value(gamma_sup, levels.stop),
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
        px = x / length
        px -= sigma
        k = np.floor(px)
        # 4 (px - k) is exact and lies in [0, 4): truncation is h's quarter
        px -= k
        px *= 4.0
        vals = table.c_at(np.log(length))
        vals *= _H_VALUES[px.astype(np.intp)]
        vals *= pairing(k, sigma, length)
        vals /= length
        return vals

    return term


def kernel_sum_terms(table, x: float, y: float) -> Callable:
    """Level-term function for the two-point kernel sum.

    The shift at x applied to a unit mass at y: the pairing is g_I(y),
    zero when y falls in a different cell than x.
    """
    if x == y:
        raise ValueError("the kernel sum is undefined on the diagonal x = y")

    def pairing(k: np.ndarray, sigma: np.ndarray, length: np.ndarray) -> np.ndarray:
        # floor(4 py) - 4k, exact, is g's quarter when y shares x's cell,
        # negative or >= 4 when not; clipped, it reads the padding's 0
        quarter = y / length
        quarter -= sigma
        quarter *= 4.0
        np.floor(quarter, out=quarter)
        quarter -= 4.0 * k
        np.clip(quarter, -1.0, 4.0, out=quarter)
        quarter += 1.0
        return _G_PADDED[quarter.astype(np.intp)]

    return shift_terms(table, x, pairing)
