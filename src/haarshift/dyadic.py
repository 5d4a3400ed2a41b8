"""Random dyadic grids and the Monte-Carlo estimator that averages over them.

A grid is a dilation r in [1, 2) and, at every level n, the fractional
shift sigma_n of the level-n lattice { r 2^n (sigma_n + k) : k integer }.
Under the grid law r is log-uniform and every sigma_n is uniform on [0, 1).
What is estimated here is a sum over levels of a level term, so by
linearity its average is the sum over levels of the term's averages, and
each of those needs only its own level's pair (r, sigma_n).  The engine
(`accumulate_samples`) therefore draws every level on its own and never
builds a lattice.

Level row l = n - n_min takes N_l = ceil(M 2^(-l/2)) draws, and never
fewer than min(M, 2), where M is the `num_samples` of the call (the CLI's
`--samples`): M counts the draws at the floor level, and a call of L
levels makes at most 3.42 M + 2 L term evaluations.  A level-n term is
bounded by a multiple of sup |gamma| / 2^n and its variance falls about
fourfold per level, so the higher levels carry little of the variance and
get fewer draws.

Each level's draws are stratified on (log2 r, sigma_n): H_l = 2^b strata,
b the largest value up to 14 with 2 H_l <= N_l, form a q_r x q_sigma grid
with q_r = 2^ceil(b/2) and q_sigma = 2^floor(b/2).  Draw i of a level sits
in stratum i mod H_l: proportional allocation, with counts that differ by
at most one and at least 2 draws per stratum once M >= 2.

`estimate` is the one Monte-Carlo estimator: ln 2 times the sum over
levels of the stratified level means (1/H_l) sum_h ybar_{l,h}, its stderr
ln 2 sqrt(sum_l sum_h s_{l,h}^2 / n_{l,h} / H_l^2) from the per-stratum
sample variances (NaN when M = 1), the bound on the discarded coarse
levels, and a record of each level's share (`LevelRecord`).  `shift_terms`
is the one level term of the Haar shift, given its pairing with f: the
averaged shift operator (`operators`) pairs with a test function, and the
two-point kernel sum (`kernel_sum_terms`) is the shift applied to a unit
mass at y.

Draw order is part of the reproducibility contract, and `STREAM_VERSION`
names it; the CLI records it as `versions.stream` in its JSON outputs.
Stream 5 draws chunk c of level row l from its own Philox counter block,
keyed by (seed, l, c): all the uniforms U of log2 r, then all the uniforms
U' of sigma; the draw in stratum h = i_sigma q_r + i_r takes
r = 2^((i_r + U)/q_r) and sigma = (i_sigma + U')/q_sigma.  Stream 4 drew
one grid for all levels, a floor shift moved up by one bit per level, in
4096 strata of (log2 r, sigma, bits), and stream 3 unstratified.  Stream 2
started one level lower, and stream 1 (outputs without the key) built the
floor shift from 52 further bits.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .piecewise import make_g, make_h

__all__ = [
    "Estimate",
    "LevelRecord",
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
STREAM_VERSION = 5

DEFAULT_CHUNK = 1 << 17

# draws per term_fn call: small enough that the allocator reuses the level
# temporaries instead of refaulting them, large enough to amortise each call
_TERM_BLOCK = 1 << 15

# a level is cut into at most 2^14 strata: finer strata lowered the stderr
# further but raised the peak memory of a 2^18-draw call
_STRATA_BITS = 14


class LevelRecord(NamedTuple):
    """One level's share of an estimate, on its scale: the means add up to
    its mean and the squared stderrs to its squared stderr.  `hits` counts
    the draws whose level term is nonzero."""

    n: int
    draws: int
    strata: int
    mean: float
    stderr: float
    hits: int


@dataclass
class Estimate:
    """Monte-Carlo estimate at one probe x, with its stderr and tail bound."""

    x: float
    mean: float
    stderr: float
    tail_bound: float
    num_samples: int  # draws at the floor level
    seed: int
    levels: range  # admitted levels; cell length at level n is r 2^n
    record: list[LevelRecord]  # one entry per admitted level, from the floor up

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
            "levels": [level._asdict() for level in self.record],
        }


def _rng(seed: int, row: int, chunk: int) -> np.random.Generator:
    # counter-based: chunk `chunk` of level row `row` owns the 2^70-wide
    # counter block at (row << 128) + (chunk << 70)
    return np.random.Generator(np.random.Philox(key=seed, counter=(row << 128) + (chunk << 70)))


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


def _level_draws(num_samples: int, row: int) -> int:
    """N_l = ceil(num_samples 2^(-row/2)), at least min(num_samples, 2).

    In integers, so it is the same on every platform: the least N with
    N^2 >= ceil(num_samples^2 / 2^row).
    """
    least = -(-num_samples * num_samples >> row)
    return max(math.isqrt(least - 1) + 1, min(num_samples, 2))


def _strata_shape(draws: int) -> tuple[int, int]:
    """(q_r, q_sigma) = (2^ceil(b/2), 2^floor(b/2)) for the largest b up to
    14 with 2^(b+1) <= draws; (1, 1), plain draws, below 4 draws."""
    b = min(_STRATA_BITS, max(0, (draws // 2).bit_length() - 1))
    return 1 << ((b + 1) // 2), 1 << (b // 2)


class Tally(NamedTuple):
    """One level's per-stratum draw counts, sums and M2 of its term (draw i
    in stratum i mod H), and the number of draws whose term is nonzero."""

    counts: np.ndarray
    sums: np.ndarray
    m2: np.ndarray
    hits: int

    @property
    def strata(self) -> int:
        return len(self.counts)

    @property
    def mean(self) -> float:
        """(1/H) sum_h sums_h / counts_h, the stratified mean."""
        return float(np.sum(self.sums / self.counts)) / self.strata

    @property
    def stderr(self) -> float:
        """sqrt(sum_h s_h^2 / n_h) / H, s_h^2 = M2_h / (n_h - 1); NaN when a
        stratum holds a single draw."""
        n = self.counts
        if n.min() < 2:
            return math.nan
        return math.sqrt(float(np.sum(self.m2 / ((n - 1) * n)))) / self.strata


def _merge(partials: list, strata: int) -> Tally:
    """One level's chunk results, merged in chunk order by
    M2_a + (M2_b + delta^2 n_a n_b / (n_a + n_b)) per stratum."""
    counts, sums, m2 = np.zeros(strata, dtype=np.int64), np.zeros(strata), np.zeros(strata)
    hits = 0
    for pieces, chunk_hits in partials:
        hits += chunk_hits
        for n_b, s_b, m2_b in pieces:
            # a stratum with no draw in the piece (n_b = 0) keeps its bits
            delta = s_b / np.maximum(n_b, 1) - sums / np.maximum(counts, 1)
            m2 = m2 + (m2_b + delta * delta * (counts * n_b / (counts + n_b)))
            sums = sums + s_b
            counts = counts + n_b
    return Tally(counts, sums, m2, hits)


def accumulate_samples(
    seed: int,
    num_samples: int,
    levels: range,
    term_fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    threads: int | None = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[Tally]:
    """One `Tally` per level of ``levels`` (a nonempty range of consecutive
    levels), from the floor up, each level on its own stratified draws
    (stream `STREAM_VERSION`, described in the module docstring).

    A level's chunks are chunk_size draws rounded up to whole rounds of its
    strata (the default, 2^17, is one); the last may end in a part round.
    term_fn(n, r, sigma), pure and vectorized over the draws, gets them in
    blocks of at most 32768.  The chunks of every level run through one
    thread pool and each level's merge in chunk order (`_merge`), so the
    result is the same for every thread count.  Rounding takes r to 2 or
    sigma to 1 with probability below 2^-46 per draw; sigma = 1 names the
    lattice of sigma = 0.
    """
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 1 << 128):
        raise ValueError(f"seed must be an integer in [0, 2^128), got {seed!r}")
    if num_samples < 1:
        raise ValueError("need at least one draw")
    if not levels or levels.step != 1:
        raise ValueError(f"need a nonempty range of consecutive levels, got {levels!r}")
    # per level row: draws, (q_r, q_sigma), and the chunk size in whole rounds
    plan = []
    for row in range(len(levels)):
        draws = _level_draws(num_samples, row)
        q_r, q_sigma = _strata_shape(draws)
        plan.append((draws, q_r, q_sigma, -(-chunk_size // (q_r * q_sigma)) * q_r * q_sigma))

    def run_chunk(task: tuple[int, int]) -> tuple[list, int]:
        row, index = task
        draws, q_r, q_sigma, size = plan[row]
        strata = q_r * q_sigma
        count = min(size, draws - index * size)
        full = count - count % strata
        rng = _rng(seed, row, index)

        def rounds(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # views: the whole rounds of H draws, one per row, and the rest
            return values[:full].reshape(-1, strata), values[full:]

        def stratified(digits: np.ndarray, q: int) -> np.ndarray:
            # (stratum digit + U) / q, through the exact scaling U / q
            values = rng.random(count)
            values *= 1.0 / q
            offset = digits / q
            whole, rest = rounds(values)
            whole += offset
            rest += offset[: len(rest)]
            return values

        i_sigma, i_r = np.divmod(np.arange(strata), q_r)
        r = np.exp2(stratified(i_r, q_r))
        sigma = stratified(i_sigma, q_sigma)
        terms = np.empty(count)
        for start in range(0, count, _TERM_BLOCK):
            block = slice(start, start + _TERM_BLOCK)
            terms[block] = term_fn(levels[row], r[block], sigma[block])
        # per stratum (draws, sums, M2): the whole rounds, counted by an int
        # (an array here refaulted the level temporaries), then the part round
        whole, rest = rounds(terms)
        pieces = []
        if full:
            sums = whole.sum(axis=0)
            dev = whole - sums / len(whole)
            dev *= dev
            pieces.append((len(whole), sums, dev.sum(axis=0)))
        if len(rest):
            ones = (np.arange(strata) < len(rest)).astype(np.int64)
            pieces.append((ones, np.pad(rest, (0, strata - len(rest))), np.zeros(strata)))
        return pieces, int(np.count_nonzero(terms))

    tasks = [
        (row, index)
        for row, (draws, _, _, size) in enumerate(plan)
        for index in range(-(-draws // size))
    ]
    if threads is not None and threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run_chunk, tasks))
    else:
        partials = [run_chunk(task) for task in tasks]
    by_row = [[] for _ in plan]
    for (row, _), partial in zip(tasks, partials):
        by_row[row].append(partial)
    return [_merge(chunks, q_r * q_sigma) for chunks, (_, q_r, q_sigma, _) in zip(by_row, plan)]


def estimate(
    x: float,
    term_fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    levels: range,
    gamma_sup: float,
    num_samples: int,
    seed: int = 0,
    threads: int | None = None,
) -> Estimate:
    """Average the level terms of `term_fn` over per-level stratified draws.

    The estimate is ln 2 times the sum of the level means (the dilation is
    drawn with density 1/(r ln 2), compensating the unnormalized dr/r
    weight), with ln 2 times its stderr, the root of the summed squared
    level stderrs, and the bound on the levels above `levels`.  stderr is
    NaN for a single draw.
    """
    tallies = accumulate_samples(seed, num_samples, levels, term_fn, threads=threads)
    ln2 = math.log(2.0)
    return Estimate(
        x=x,
        mean=ln2 * math.fsum(t.mean for t in tallies),
        stderr=ln2 * math.sqrt(math.fsum(t.stderr**2 for t in tallies)),
        tail_bound=tail_bound_value(gamma_sup, levels.stop),
        num_samples=num_samples,
        seed=seed,
        levels=levels,
        record=[
            LevelRecord(n, int(t.counts.sum()), t.strata, ln2 * t.mean, ln2 * t.stderr, t.hits)
            for n, t in zip(levels, tallies)
        ],
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
