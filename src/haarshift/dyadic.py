"""Random dyadic grids and the Monte-Carlo estimator that averages over them.

A grid is a dilation r in [1, 2) and, at every level n, the fractional
shift sigma_n of the level-n lattice { r 2^n (sigma_n + k) : k integer }.
Under the grid law r is log-uniform and every sigma_n is uniform on [0, 1).
What is estimated here is a sum over levels of a level term, so by
linearity its average is the sum over levels of the term's averages, and
each of those is an integral over the unit square of (log2 r, sigma_n).
The engine (`accumulate_probes`) therefore treats every level on its own
and never builds a lattice of cells.

Level row l = n - n_min keeps N_l = ceil(M 2^(-l/2)) draws, and never
fewer than min(M, 2), where M is the `num_samples` of the call (the CLI's
`--samples`): M counts the draws at the floor level, and a call of L
levels makes at most 3.42 M + 2 L term evaluations.  A level-n term is
bounded by a multiple of sup |gamma| / 2^n and its variance falls about
fourfold per level, so the higher levels carry little of the variance and
get fewer draws.

Each level is integrated over a randomly shifted rank-1 lattice (Cranley
and Patterson, 1976): R_l = min(20, N_l) replicates of the
n_l = floor(N_l / R_l)-point Kronecker lattice ((i + 1/2) / n_l, {i phi})
in (log2 r, sigma), phi the golden-ratio conjugate, each moved modulo 1 by
its own uniform shift (U, U').  Every replicate mean is unbiased; the level
mean is the mean of the R_l replicate means and its stderr their sample
standard deviation over sqrt(R_l), NaN when R_l = 1 (M = 1).

`estimate` is the one Monte-Carlo estimator: ln 2 times the sum of the
level means, ln 2 times the root of the summed squared level stderrs, the
bound on the discarded coarse levels, and a record of each level's share
(`LevelRecord`).  `shift_terms` is the one level term of the Haar shift,
given its pairing with f: the averaged shift operator (`operators`) pairs
with a test function, and the two-point kernel sum (`kernel_sum_terms`) is
the shift applied to a unit mass at y.

Draw order is part of the reproducibility contract, and `STREAM_VERSION`
names it; the CLI records it as `versions.stream` in its JSON outputs.
Stream 6 takes the shift (U, U') of replicate j of level row l from its own
Philox counter block, keyed by (seed, l, j); point i of that replicate has
log2 r = ((i + 1/2) / n_l + U) mod 1 and sigma = ((i phi mod 1) + U') mod 1.
Neither key holds the probe, so the probes of one call share each row's
shifts and lattice, and `accumulate_probes` draws them once for all of
them; that leaves the draws as they were, and `STREAM_VERSION` stays 6.
README lists the earlier streams.
"""

from __future__ import annotations

import math
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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
STREAM_VERSION = 6

# shifted replicates per level, whose spread gives the stderr R - 1 degrees of freedom:
# at 2^18 draws the stderr's quartiles over seeds lay 10% apart with 20, 20% with 16
REPLICATES = 20

# the golden-ratio conjugate, the Kronecker lattice's step in sigma
_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# lattice points per term_fn call, large enough to amortise a call; a task's
# temporaries are chunk-sized arrays that its workspace keeps (see `scratch`)
DEFAULT_CHUNK = 1 << 15

# least probe-to-feature distance: nearer, the floor level's r 2^n heads for subnormals
MIN_DISTANCE = 2.0**-40


# workspaces between tasks, no more than the last call's thread count; a
# workspace holds one task's named scratch arrays, kept because glibc would
# unmap them freed and they would fault in again on the next task
_SPARES: list[dict] = []
# the workspace of the engine task running on each thread
_TASK = threading.local()


def scratch(name: str, shape: tuple, dtype=float) -> np.ndarray:
    """Array `name` of the engine task on this thread, which the next request
    for `name` reuses, or a new array outside a task; contents undefined."""
    ws = getattr(_TASK, "ws", None)
    if ws is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    if len(ws.get(name, ())) < size:
        # a default chunk at once: arrays outgrown in steps leave resident holes
        ws[name] = np.empty(max(size, DEFAULT_CHUNK), dtype)
    return ws[name][:size].reshape(shape)


class LevelRecord(NamedTuple):
    """One level's share of an estimate, on its scale: the means add up to
    its mean and the squared stderrs to its squared stderr.  `hits` counts
    the draws whose level term is nonzero."""

    n: int
    draws: int
    replicates: int
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
        """The estimate as JSON: a NaN stderr (one draw) is None, at the top
        and per level, and `stderr_defined` says whether there is one."""

        def defined(stderr):
            return None if math.isnan(stderr) else stderr

        return {
            "x": self.x,
            "mean": self.mean,
            "stderr": defined(self.stderr),
            "stderr_defined": not math.isnan(self.stderr),
            "tail_bound": self.tail_bound,
            "M": self.num_samples,
            "seed": self.seed,
            "n_min": self.levels.start,
            "n_max": self.levels[-1],
            "levels": [
                {**level._asdict(), "stderr": defined(level.stderr)} for level in self.record
            ],
        }


def _shifts(seed: int, row: int, replicates: int) -> np.ndarray:
    """Each replicate j's shift (U, U'): the first two uniforms of its Philox
    counter block, (row << 128) + (j << 70) under the seed key."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=row << 128))
    shifts = np.empty((replicates, 2))
    for j in range(replicates):
        shifts[j] = rng.random(2)
        # two uniforms take one step of the counter: move on to block j + 1
        rng.bit_generator.advance((1 << 70) - 1)
    return shifts


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


class Tally(NamedTuple):
    """One level's replicate sums, sums[j] the level term added over the
    `points` lattice points of shift j, and the number of points whose term
    is nonzero."""

    points: int
    sums: np.ndarray
    hits: int

    @property
    def replicates(self) -> int:
        return len(self.sums)

    @property
    def draws(self) -> int:
        return self.points * self.replicates

    @property
    def mean(self) -> float:
        """The mean of the replicate means."""
        return math.fsum(self.sums.tolist()) / self.draws

    @property
    def stderr(self) -> float:
        """The replicate means' sample standard deviation over sqrt(R); NaN
        for a single replicate."""
        if self.replicates < 2:
            return math.nan
        return float(np.std(self.sums / self.points, ddof=1)) / math.sqrt(self.replicates)


def accumulate_samples(
    seed: int,
    num_samples: int,
    levels: range,
    term_fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    threads: int | None = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[Tally]:
    """One `Tally` per level of ``levels`` (a nonempty range of consecutive
    levels), from the floor up, each level on its own randomly shifted
    lattices (stream `STREAM_VERSION`, described in the module docstring):
    the one-probe case of `accumulate_probes`.

    term_fn(n, r, sigma), pure and vectorized over the points, gets at most
    chunk_size points a call: whole replicates of a level, or one
    replicate's points in consecutive pieces, whose sums add in order.  The
    calls run through one thread pool; no point depends on chunk_size or
    the thread count, and no sum on the thread count.  Rounding takes r to
    2 only with probability below 2^-46 per point.  r and sigma are views of
    the task's workspace, read-only and valid only during the call, and the
    term may return one too (see `scratch`); a call keeps at most `threads`
    workspaces.
    """
    return accumulate_probes(seed, num_samples, [(levels, term_fn)], threads, chunk_size)[0]


def accumulate_probes(
    seed: int,
    num_samples: int,
    probes: Sequence[tuple[range, Callable[[int, np.ndarray, np.ndarray], np.ndarray]]],
    threads: int | None = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[list[Tally]]:
    """`accumulate_samples` for each (levels, term_fn) of ``probes``, with the
    bits it gives alone, in one pass: each task draws row l's points once,
    for the term of every probe with a row l."""
    if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and 0 <= seed < 1 << 128):
        raise ValueError(f"seed must be an integer in [0, 2^128), got {seed!r}")
    if isinstance(num_samples, bool) or not (
        isinstance(num_samples, numbers.Integral) and num_samples >= 1
    ):
        raise ValueError(f"num_samples must be a positive integer, got {num_samples!r}")
    for levels, _ in probes:
        if not levels or levels.step != 1:
            raise ValueError(f"need a nonempty range of consecutive levels, got {levels!r}")
    rows = max((len(levels) for levels, _ in probes), default=0)
    # per level row: (replicates, lattice points), and the probes that reach it
    draws = [_level_draws(int(num_samples), row) for row in range(rows)]
    plan = [(min(REPLICATES, d), d // min(REPLICATES, d)) for d in draws]
    live = [[p for p, (levels, _) in enumerate(probes) if row < len(levels)] for row in range(rows)]
    # drawn before the pool starts, since a generator holds the interpreter lock
    shifts = [_shifts(seed, row, replicates) for row, (replicates, _) in enumerate(plan)]
    # (row, first replicate, replicates, first point, end point)
    tasks = []
    for row, (replicates, points) in enumerate(plan):
        group = max(1, chunk_size // points)
        for first in range(0, replicates, group):
            for start in range(0, points, chunk_size):
                stop = min(start + chunk_size, points)
                tasks.append((row, first, min(group, replicates - first), start, stop))

    def run_chunk(task: tuple[int, int, int, int, int]) -> list[tuple[np.ndarray, int]]:
        row, first, count, start, stop = task
        try:
            ws = _TASK.ws = _SPARES.pop()
        except IndexError:
            ws = _TASK.ws = {}
        try:
            points, n = plan[row][1], stop - start
            shift = shifts[row][first : first + count]
            if len(ws.get("ramp", ())) < n:
                ws["ramp"] = np.arange(max(n, DEFAULT_CHUNK), dtype=float)
            i = np.add(ws["ramp"][:n], start, out=scratch("lattice", (n,)))
            offset = np.add(i, 0.5, out=scratch("offset", (n,)))
            offset /= points
            # a row per replicate; sums lie in [0, 2), so taking off the floor is exact
            r = np.add(offset, shift[:, :1], out=scratch("r", (count, n)))
            r -= np.floor(r, out=scratch("floor", r.shape))
            np.exp2(r, out=r)
            lattice = np.multiply(i, _PHI, out=i)
            lattice -= np.floor(lattice, out=offset)
            sigma = np.add(lattice, shift[:, 1:], out=scratch("sigma", (count, n)))
            sigma -= np.floor(sigma, out=scratch("floor", r.shape))
            r, sigma = r.ravel(), sigma.ravel()
            # each live probe's term at its own level, lazily: reduced before the next runs
            terms = (probes[p][1](probes[p][0][row], r, sigma) for p in live[row])
            return [(t.reshape(count, -1).sum(axis=1), int(np.count_nonzero(t))) for t in terms]
        finally:
            _TASK.ws = None
            _SPARES.append(ws)

    if threads is not None and threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run_chunk, tasks))
    else:
        partials = [run_chunk(task) for task in tasks]
    del _SPARES[max(1, threads or 1) :]
    sums = [[np.zeros(replicates) for replicates, _ in plan[: len(levels)]] for levels, _ in probes]
    hits = [[0] * len(levels) for levels, _ in probes]
    for (row, first, count, _, _), partial in zip(tasks, partials):
        for p, (chunk_sums, chunk_hits) in zip(live[row], partial):
            sums[p][row][first : first + count] += chunk_sums
            hits[p][row] += chunk_hits
    return [list(map(Tally, (points for _, points in plan), s, h)) for s, h in zip(sums, hits)]


def estimate(
    x: float, levels: range, tallies: list[Tally], gamma_sup: float, num_samples: int, seed: int
) -> Estimate:
    """The estimate at x from the `tallies` of ``levels`` that the engine
    drew with `num_samples` and `seed`.

    The estimate is ln 2 times the sum of the level means (the dilation is
    drawn with density 1/(r ln 2), compensating the unnormalized dr/r
    weight), with ln 2 times its stderr, the root of the summed squared
    level stderrs, and the bound on the levels above `levels`.  stderr is
    NaN for a single draw.
    """
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
            LevelRecord(n, t.draws, t.replicates, ln2 * t.mean, ln2 * t.stderr, t.hits)
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
        length = np.multiply(r, 2.0**n, out=scratch("length", r.shape))
        # log(length), then the cell coordinate of x
        px = np.log(length, out=scratch("px", r.shape))
        vals = table.c_at(px, out=scratch("vals", r.shape))
        np.divide(x, length, out=px)
        px -= sigma
        k = np.floor(px, out=scratch("k", r.shape))
        # 4 (px - k) is exact and lies in [0, 4): truncation is h's quarter
        px -= k
        px *= 4.0
        index = scratch("index", r.shape, np.intp)
        np.copyto(index, px, casting="unsafe")
        vals *= np.take(_H_VALUES, index, out=px, mode="clip")
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
        quarter = np.divide(y, length, out=scratch("quarter", k.shape))
        quarter -= sigma
        quarter *= 4.0
        np.floor(quarter, out=quarter)
        quarter -= np.multiply(k, 4.0, out=scratch("pairing", k.shape))
        np.clip(quarter, -1.0, 4.0, out=quarter)
        quarter += 1.0
        index = scratch("index", k.shape, np.intp)
        np.copyto(index, quarter, casting="unsafe")
        return np.take(_G_PADDED, index, out=scratch("pairing", k.shape), mode="clip")

    return shift_terms(table, x, pairing)
