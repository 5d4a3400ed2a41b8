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
offsets so any chunk can be generated independently.

The draws are stratified.  Three uniforms fix a draw: log2 r, the floor
shift sigma, and the bits read as a binary fraction w = sum_i bit_i
2^-(i+1), bit_0 at the floor level.  Their cube is cut into
H = 16 x 16 x 16 = 4096 strata, w on its first min(4, number of bit rows)
bits, and draw i of a call sits in stratum i mod H: proportional
allocation, N/H draws per stratum give or take one.  The axes are halved
together while a stratum would get fewer than 2 draws, and below 16 draws
the draws are plain.  Each chunk reduces to per-stratum (count, sum, M2),
merged in chunk order, so results are bit-identical for any thread count.

`estimate` is the one Monte-Carlo estimator: ln 2 times the stratified
mean (1/H) sum_h ybar_h, its stderr ln 2 sqrt(sum_h s_h^2 / n_h) / H
from the per-stratum sample variances s_h^2 (NaN for a single draw), and
the bound on the discarded coarse levels.  With equal counts the mean is
the plain sample mean.  `shift_terms` is the one level term of the Haar
shift, given its pairing with f: the averaged shift operator
(`operators`) pairs with a test function, and the two-point kernel sum
(`kernel_sum_terms`) is the shift applied to a unit mass at y.

Draw order is part of the reproducibility contract, and `STREAM_VERSION`
names it; the CLI records it as `versions.stream` in its JSON outputs.
Stream 4 draws, per chunk, the uniforms of log2 r first, then those of
sigma, then the bit rows from low level to high out of the generator's
raw 64-bit words (bit i of the (level, draw) array, in row-major order,
is bit i mod 64 of word i div 64, the same on every platform); each
draw's stratum then moves r and sigma into its cells and overwrites its
first bit rows.  Stream 3 drew the same uniforms and bits unstratified.
Since stream 3, `levels_for_distance` puts the floor at floor(log2 dist)
exactly.  Stream 2 drew the bit rows as unsigned bytes with
`Generator.integers` and started one level lower, at a level that never
contributes.  Stream 1 (outputs without `versions.stream`) built sigma
from 52 further bit rows below the floor instead of drawing it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .piecewise import make_g, make_h

__all__ = [
    "Estimate",
    "Tally",
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
STREAM_VERSION = 4

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
    strata: int  # H, the number of strata the draws were spread over

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
            "strata": self.strata,
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


def _strata_shape(num_samples: int, n_rows: int) -> tuple[int, int]:
    """(q, q_w): strata per axis of log2 r and sigma, and of w.

    q = 2^b for the largest b <= 4 that leaves every one of the q^2 q_w
    strata at least 2 draws, q_w = 2^min(b, n_rows); (1, 1) below 16 draws.
    """
    for b in range(4, 0, -1):
        q, q_w = 1 << b, 1 << min(b, n_rows)
        if 2 * q * q * q_w <= num_samples:
            return q, q_w
    return 1, 1


class Tally(NamedTuple):
    """Per-stratum draw counts, sums and M2 of the per-draw level sums.

    Stratum h holds the draws whose global index is h modulo the stratum
    count, so the counts differ by at most one.
    """

    counts: np.ndarray
    sums: np.ndarray
    m2: np.ndarray

    @property
    def strata(self) -> int:
        return len(self.counts)

    @property
    def mean(self) -> float:
        """(1/H) sum_h sums_h / counts_h, each count's strata summed exactly:
        with equal counts, the plain sample mean of the draws."""
        h = self.strata
        return sum(
            math.fsum(self.sums[self.counts == c]) / (int(c) * h)
            for c in np.unique(self.counts)
        )

    @property
    def stderr(self) -> float:
        """sqrt(sum_h s_h^2 / n_h) / H, s_h^2 = M2_h / (n_h - 1); NaN when a
        stratum holds a single draw."""
        n = self.counts
        if n.min() < 2:
            return math.nan
        return math.sqrt(float(np.sum(self.m2 / ((n - 1) * n)))) / self.strata


def accumulate_samples(
    seed: int,
    num_samples: int,
    levels: range,
    term_fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    threads: int | None = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> Tally:
    """Chunked, stratified Monte-Carlo accumulation of per-draw level sums.

    For each draw, takes the fractional lattice shift sigma at the lowest
    level of ``levels``, a nonempty range of consecutive levels, calls
    ``term_fn(n, r, sigma)`` at every level in it and moves sigma up a
    level by the halving recursion sigma_{n+1} = (sigma_n + bit_n)/2.

    Draws are stratified on the cube (log2 r, sigma, w), w = sum_i bit_i
    2^-(i+1) (stream `STREAM_VERSION`).  Draw i of the call sits in stratum
    h = i mod H, H = q^2 q_w; with h = (i_w q + i_sigma) q + i_r it takes
    r = 2^((i_r + U)/q), sigma = (i_sigma + U')/q, and in bit rows
    0 .. log2 q_w - 1 the binary digits of i_w, most significant in row 0.
    A chunk draws every U, then every U', then one bit row per level below
    the top one from raw 64-bit words read little-endian; the stratified
    rows overwrite theirs.  The rules follow from the input:

    - q = 16, halved while a stratum would hold fewer than 2 draws; below
      16 draws q = q_w = 1, plain draws;
    - q_w = 2^min(log2 q, number of bit rows): w is stratified on at most
      4 bits, and only on bits that are drawn;
    - chunk_size is rounded up to a multiple of H (the default, 2^17, is
      one), so a chunk holds whole rounds of the strata and the last one
      maybe a part round; the strata's counts differ by at most one.

    term_fn gets the draws in blocks of at most 32768.  Each chunk reduces
    its whole rounds, then its part round, to per-stratum (count, sum, M2),
    merged in chunk order by M2_a + (M2_b + delta^2 n_a n_b / (n_a + n_b)):
    the result is the same for every thread count, and the variance stays
    stable when the totals sit far from zero.

    term_fn must be pure and vectorized over the draw axis, and must not
    keep the arrays it is handed: sigma is moved up a level in place.
    Rounding takes r to 2 or sigma to 1 with probability below 2^-49 per
    draw; sigma = 1 names the lattice of sigma = 0.
    """
    if num_samples < 1:
        raise ValueError("need at least one draw")
    if not levels or levels.step != 1:
        raise ValueError(f"need a nonempty range of consecutive levels, got {levels!r}")
    n_rows = len(levels) - 1
    q, q_w = _strata_shape(num_samples, n_rows)
    strata = q * q * q_w
    # per stratum h = (i_w q + i_sigma) q + i_r: i_r / q, i_sigma / q, and
    # the binary digits of i_w, most significant first
    rest, i_r = np.divmod(np.arange(strata), q)
    i_w, i_sigma = np.divmod(rest, q)
    w_rows = q_w.bit_length() - 1
    r_offset, sigma_offset, *w_digits = np.array(
        [i_r / q, i_sigma / q] + [(i_w >> (w_rows - 1 - row)) & 1 for row in range(w_rows)]
    )

    # whole rounds per chunk, so a chunk's draw j sits in stratum j mod H
    chunk_size = -(-chunk_size // strata) * strata

    def run_chunk(chunk_index: int) -> list:
        count = min(chunk_size, num_samples - chunk_index * chunk_size)
        full = count - count % strata
        rng = _rng(seed, chunk_index)

        def rounds(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # views: the whole rounds of H draws, one per row, and the rest
            return values[:full].reshape(-1, strata), values[full:]

        def stratified(offset: np.ndarray) -> np.ndarray:
            # (stratum digit + U) / q, through the exact scaling U / q
            values = rng.random(count)
            values *= 1.0 / q
            whole, rest = rounds(values)
            whole += offset
            rest += offset[: len(rest)]
            return values

        r = np.exp2(stratified(r_offset))
        sigma = stratified(sigma_offset)
        n_bits = n_rows * count
        words = rng.bit_generator.random_raw(-(-n_bits // 64))
        bits = np.unpackbits(
            words.astype("<u8", copy=False).view(np.uint8), count=n_bits, bitorder="little"
        ).reshape(-1, count)
        for row, digits in enumerate(w_digits):
            whole, rest = rounds(bits[row])
            whole[...] = digits
            rest[...] = digits[: len(rest)]
        acc = np.zeros(count)
        for block_start in range(0, count, _TERM_BLOCK):
            block = slice(block_start, block_start + _TERM_BLOCK)
            r_block, sigma_block, acc_block = r[block], sigma[block], acc[block]
            for row, n in enumerate(levels):
                acc_block += term_fn(n, r_block, sigma_block)
                if row < n_rows:
                    sigma_block += bits[row, block]
                    sigma_block *= 0.5
        # per stratum (draws, sums, M2): the whole rounds, counted by an int
        # (an array here refaulted the level temporaries), then the part round
        whole, rest = rounds(acc)
        pieces = []
        if full:
            sums = whole.sum(axis=0)
            dev = whole - sums / len(whole)
            dev *= dev
            pieces.append((len(whole), sums, dev.sum(axis=0)))
        if len(rest):
            ones = (np.arange(strata) < len(rest)).astype(np.int64)
            pieces.append((ones, np.pad(rest, (0, strata - len(rest))), np.zeros(strata)))
        return pieces

    chunks = range(-(-num_samples // chunk_size))
    if threads is not None and threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run_chunk, chunks))
    else:
        partials = [run_chunk(index) for index in chunks]

    counts, sums, m2 = np.zeros(strata, dtype=np.int64), np.zeros(strata), np.zeros(strata)
    for n_b, s_b, m2_b in (piece for pieces in partials for piece in pieces):
        # a stratum with no draw in the piece (n_b = 0) keeps its bits
        delta = s_b / np.maximum(n_b, 1) - sums / np.maximum(counts, 1)
        m2 = m2 + (m2_b + delta * delta * (counts * n_b / (counts + n_b)))
        sums = sums + s_b
        counts = counts + n_b
    return Tally(counts, sums, m2)


def estimate(
    x: float,
    term_fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    levels: range,
    gamma_sup: float,
    num_samples: int,
    seed: int = 0,
    threads: int | None = None,
) -> Estimate:
    """Average the per-draw level sums of `term_fn` over stratified draws.

    The estimate is ln 2 times the stratified mean (the dilation is drawn
    with density 1/(r ln 2), compensating the unnormalized dr/r weight),
    with ln 2 times its stderr and the bound on the levels above `levels`.
    stderr is NaN for a single draw.
    """
    tally = accumulate_samples(seed, num_samples, levels, term_fn, threads=threads)
    ln2 = math.log(2.0)
    return Estimate(
        x=x,
        mean=ln2 * tally.mean,
        stderr=ln2 * tally.stderr,
        tail_bound=tail_bound_value(gamma_sup, levels.stop),
        num_samples=num_samples,
        seed=seed,
        levels=levels,
        strata=tally.strata,
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
