"""Random dyadic grids and the Monte-Carlo estimator that averages over them.

A grid is a dilation r in [1, 2) and, at every level n, the fractional
shift sigma_n of the level-n lattice { r 2^n (sigma_n + k) : k integer }.
Under the grid law r is log-uniform and every sigma_n is uniform on [0, 1).
What is estimated here is a sum over levels of a level term, so by
linearity its average is the sum over levels of the term's averages, and
each of those is an integral over the unit square of (log2 r, sigma_n).
The engine (`accumulate_probes`) therefore treats every level on its own
and never builds a lattice of cells.  Its tasks are independent: with
`threads` N > 1 they run in N worker processes, this one and N - 1 forked
children, worker s taking tasks s, s + N, s + 2N, ..., and their sums
merge in task order, so every output is byte-identical at any N.

Level row l = n - n_min keeps N_l = ceil(M 2^(-l/2)) draws, and never
fewer than min(M, 2), where M is the `num_samples` of the call (the CLI's
`--samples`): M counts the draws at the floor level, and a call of L
levels makes at most 3.42 M + 2 L term evaluations.  A level-n term is
bounded by a multiple of sup |gamma| / 2^n and its variance falls about
fourfold per level, so the higher levels carry little of the variance and
get fewer draws.

Every level term integrates over the dilation itself, in closed form, so
the engine draws sigma alone (preintegration, or conditional Monte Carlo:
Griebel, Kuo and Sloan, 2013): level row l takes R_l = min(20, N_l)
replicates of the n_l = floor(N_l / R_l)-point equally spaced rule
((i + 1/2) / n_l + U) mod 1, each moved by its own uniform shift U
(Cranley and Patterson, 1976).  Every replicate mean is unbiased; the
level mean is the mean of the R_l replicate means and its stderr their
sample standard deviation over sqrt(R_l), NaN when R_l = 1 (M = 1).

`estimate` is the one Monte-Carlo estimator: ln 2 times the sum of the
level means, ln 2 times the root of the summed squared level stderrs, the
bound on the discarded coarse levels, and a record of each level's share
(`LevelRecord`).  Every level term is called as term(n, sigma, None) (see
`accumulate_probes`); the terms themselves live with their callers.

Draw order is part of the reproducibility contract, and `STREAM_VERSION`
names it; the CLI records it as `versions.stream` in its JSON outputs.
Since stream 6 the shift of replicate j of level row l comes from its own
Philox counter block, keyed by (seed, l, j) (`_shifts`); neither key holds
the probe, so the probes of one call share each row's points, and
`accumulate_probes` draws them once for all of them.  Stream 9 gave `mc`
the one-dimensional rule and the exact-dilation term, with sigma at the
points where stream 8 had log2 r; stream 10 gives `apply` the same rule and
its own exact-dilation term, so every draw of both is that of stream 9's
`mc`.  Stream 11 gives `mc` `apply`'s term, on a unit mass at y, so its
lattice is translated by -x where it was translated by -y.  README lists
the earlier streams.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import signal
import threading
# unused here; bench/spans.py patches this name (ROADMAP item 1)
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

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

# version of the draw order; bump it whenever the same seed draws differently
STREAM_VERSION = 11

# shifted replicates per level, whose spread gives the stderr R - 1 degrees of freedom:
# at 2^18 draws the stderr's quartiles over seeds lay 10% apart with 20, 20% with 16
REPLICATES = 20

_LN2 = math.log(2.0)

# sigma points per term_fn call, large enough to amortise a call; a task's
# temporaries are chunk-sized arrays that its workspace keeps (see `scratch`)
DEFAULT_CHUNK = 1 << 15

# least probe-to-feature distance: nearer, the floor level's r 2^n heads for subnormals
MIN_DISTANCE = 2.0**-40
# bound on distances and cell lengths, so that the ends of the cell at x stay finite
MAX_DISTANCE = 2.0**1022


# the engine's named scratch arrays by (name, dtype) (see `scratch`), kept
# between passes because glibc would unmap them freed and they would fault
# in again; a worker process has its own copy-on-write copy
_WORKSPACE: dict[tuple[str, np.dtype], np.ndarray] = {}
# one pass at a time uses the workspace, on the thread named by _owner
_PASS = threading.Lock()
_owner: int | None = None


def scratch(name: str, shape: tuple, dtype=float) -> np.ndarray:
    """Array `name` of `dtype` in the running engine pass, which the next
    request for `name` and `dtype` reuses, or a new array outside a pass;
    contents undefined."""
    if _owner != threading.get_ident():
        return np.empty(shape, dtype)
    size, key = math.prod(shape), (name, np.dtype(dtype))
    if len(_WORKSPACE.get(key, ())) < size:
        # a default chunk at once: arrays outgrown in steps leave resident holes
        _WORKSPACE[key] = np.empty(max(size, DEFAULT_CHUNK), dtype)
    return _WORKSPACE[key][:size].reshape(shape)


class LevelRecord(NamedTuple):
    """One level's share of an estimate, on its scale: the means add up to
    its mean and the squared stderrs to its squared stderr.  `hits` counts
    the draws, sigma points, whose level term, integrated over the
    dilation, is nonzero: those where some dilation puts x and a knot of f
    (for `mc`, y) in one cell, or, on a level read from a table in sigma,
    whose read of the table is not zero."""

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


# Philox4x64-10's round multipliers and key increments (Salmon et al., 2011)
_ROUND_MULTIPLIERS = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)
_KEY_STEPS = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], np.uint64)


def _mulhilo(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of a * b, on 32-bit halves."""
    a0, a1, b0, b1 = a & 0xFFFFFFFF, a >> 32, b & 0xFFFFFFFF, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), a * b


def _shifts(seed: int, replicates: list[int]) -> list[np.ndarray]:
    """Per level row l, each of its replicates j's uniforms (U, U'): the
    first two that numpy's Philox draws from counter block (l << 128) +
    (j << 70) under the seed key, for all rows in one vectorized pass.  The
    rule shifts its points by U."""
    pairs = [(row, j) for row, count in enumerate(replicates) for j in range(count)]
    # counter words, low first; the generator steps the counter before a block
    ctr = np.zeros((4, len(pairs)), np.uint64)
    ctr[2], ctr[1] = np.array(pairs, np.uint64).reshape(-1, 2).T
    ctr[0], ctr[1] = 1, ctr[1] << 6
    key = np.array([[seed & ((1 << 64) - 1)], [seed >> 64]], np.uint64)
    for _ in range(10):
        hi, lo = _mulhilo(_ROUND_MULTIPLIERS, ctr[::2])
        ctr = np.stack([hi[1] ^ ctr[1] ^ key[0], lo[1], hi[0] ^ ctr[3] ^ key[1], lo[0]])
        key += _KEY_STEPS
    # a uniform is the top 53 bits of a word
    uniforms = (ctr[:2].T >> 11) * 2.0**-53
    return np.split(uniforms, np.cumsum(replicates)[:-1])


def cutoff_for_tolerance(gamma_sup: float, tol: float) -> int:
    """Smallest N with 14 * gamma_sup * 2^(1-N) <= tol.

    Levels with cell length below 2^N are kept (n <= N - 1); the discarded
    remainder is bounded by the returned tolerance because at most one cell
    per level contains a given point and sum of 1/length over those cells
    telescopes to at most 2^(1-N).  N past 1022, cells reach MAX_DISTANCE:
    ValueError.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    if gamma_sup == 0:
        return 1
    ratio = 14.0 * gamma_sup / tol
    if not ratio <= MAX_DISTANCE / 2.0:
        raise ValueError(f"tolerance {tol!r} for sup |gamma| = {gamma_sup:g} admits 2^1022 cells")
    return 1 + max(0, math.ceil(math.log2(ratio)))


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
    if not 0.0 < dist < MAX_DISTANCE:
        raise ValueError(f"need a positive finite distance below 2^1022, got {dist!r}")
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
    `points` sigma points of replicate j, and the number of points whose
    term is nonzero."""

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
        for a single replicate.  The means are scaled to order 1 by a power
        of two, which is exact, so the squares of means of order 1e-160 do
        not underflow."""
        if self.replicates < 2:
            return math.nan
        means = self.sums / self.points
        e = _exponent(means.tolist())
        spread = math.ldexp(float(np.std(np.ldexp(means, -e), ddof=1)), e)
        return spread / math.sqrt(self.replicates)


def _exponent(values: list[float]) -> int:
    """A binary exponent of order the largest |value|: 0 for none or zeros,
    and any exponent where a NaN or an infinity leaves the spread NaN."""
    return math.frexp(max(map(abs, values), default=0.0))[1]


def _root_sum_squares(values: list[float]) -> float:
    """sqrt(sum of squares), scaled as `Tally.stderr` scales, for the same reason."""
    e = _exponent(values)
    return math.ldexp(math.sqrt(math.fsum(math.ldexp(v, -e) ** 2 for v in values)), e)


def accumulate_samples(
    seed: int,
    num_samples: int,
    levels: range,
    term_fn: Callable[[int, np.ndarray, None], np.ndarray],
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[Tally]:
    """One `Tally` per level of ``levels`` (a nonempty range of consecutive
    levels), from the floor up: the one-probe case of `accumulate_probes`."""
    probes = [(levels, term_fn)]
    return accumulate_probes(seed, num_samples, probes, threads, chunk_size)[0]


def accumulate_probes(
    seed: int,
    num_samples: int,
    probes: Sequence[tuple[range, Callable[[int, np.ndarray, None], np.ndarray]]],
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[list[Tally]]:
    """Per (levels, term_fn) of ``probes``, one `Tally` per level of
    ``levels`` (a nonempty range of consecutive levels), from the floor up,
    on the randomly shifted rules of stream `STREAM_VERSION` (module
    docstring), in one pass: each task draws row l's points once, for every
    probe with a row l, and every term gets the bits it would get alone.

    Every term is called one way, term_fn(n, sigma, None), pure and
    vectorized over the sigma points, and returns the mean over the
    dilation of the level-n term at each.  A call gets whole replicates of
    a level, or one replicate's points in pieces whose sums add in order,
    at most chunk_size points.  With `threads`
    N > 1 the calls run in N worker processes (no more than the tasks or
    the cores, and none beside other threads), where a term's side effects
    are lost.  No point depends on chunk_size or N, and no sum on N.  sigma
    is a read-only view of the engine's workspace, valid only during the
    call, and the term may return one too (see `scratch`).
    """
    if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and 0 <= seed < 1 << 128):
        raise ValueError(f"seed must be an integer in [0, 2^128), got {seed!r}")
    for name, value in (("num_samples", num_samples), ("threads", threads)):
        if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 1):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    for levels, _ in probes:
        if not levels or levels.step != 1:
            raise ValueError(f"need a nonempty range of consecutive levels, got {levels!r}")
    rows = max((len(levels) for levels, _ in probes), default=0)
    # per level row: (replicates, points per replicate), and the probes that reach it
    draws = [_level_draws(int(num_samples), row) for row in range(rows)]
    plan = [(min(REPLICATES, d), d // min(REPLICATES, d)) for d in draws]
    live = [[p for p, (levels, _) in enumerate(probes) if row < len(levels)] for row in range(rows)]
    # drawn before any fork, so that no worker draws them again
    shifts = _shifts(seed, [replicates for replicates, _ in plan])
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
        points, n = plan[row][1], stop - start
        shift = shifts[row][first : first + count]
        key = ("ramp", float)
        if len(_WORKSPACE.get(key, ())) < n:
            _WORKSPACE[key] = np.arange(max(n, DEFAULT_CHUNK), dtype=float)
        offset = np.add(_WORKSPACE[key][:n], start + 0.5, out=scratch("offset", (n,)))
        offset /= points
        # a row per replicate; sums lie in [0, 2), so taking off the floor is exact
        sigma = np.add(offset, shift[:, :1], out=scratch("sigma", (count, n)))
        sigma -= np.floor(sigma, out=scratch("floor", sigma.shape))
        sigma = sigma.ravel()
        # each live probe's term at its own level, lazily: reduced before the next runs
        terms = (probes[p][1](probes[p][0][row], sigma, None) for p in live[row])
        return [
            (t.reshape(count, -1).sum(axis=1),
             int(np.count_nonzero(np.not_equal(t, 0.0, out=scratch("hits", t.shape, bool)))))
            for t in terms
        ]

    # no fork without os.fork, nor beside other threads, whose locks a child inherits held
    safe = hasattr(os, "fork") and threading.active_count() == 1
    workers = max(1, min(threads, len(tasks), os.cpu_count() or 1)) if safe else 1
    global _owner
    with _PASS:
        _owner = threading.get_ident()
        try:
            done = _in_workers(lambda s: list(map(run_chunk, tasks[s::workers])), workers)
        finally:
            _owner = None
    partials = [None] * len(tasks)
    for s, got in enumerate(done):
        partials[s::workers] = got
    sums = [[np.zeros(replicates) for replicates, _ in plan[: len(levels)]] for levels, _ in probes]
    hits = [[0] * len(levels) for levels, _ in probes]
    for (row, first, count, _, _), partial in zip(tasks, partials):
        for p, (chunk_sums, chunk_hits) in zip(live[row], partial):
            sums[p][row][first : first + count] += chunk_sums
            hits[p][row] += chunk_hits
    return [list(map(Tally, (points for _, points in plan), s, h)) for s, h in zip(sums, hits)]


def _in_workers(work: Callable[[int], list], workers: int) -> list[list]:
    """[work(s) for s in range(workers)], worker 0 here and each other in a
    forked child that pickles back its result or exception (raised here), or
    here if the fork fails.  Every child is reaped before this returns."""
    results, children = [None] * workers, []
    try:
        for s in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                results[s] = work(s)
                continue
            if pid == 0:  # the child ends here, whatever happens
                try:
                    try:
                        reply = work(s)
                    except BaseException as exc:
                        reply = exc
                    with os.fdopen(write, "wb") as pipe:
                        pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children.append((s, pid, os.fdopen(read, "rb")))
        results[0] = work(0)
        payloads = [pipe.read() for _, _, pipe in children]
    except BaseException:
        for _, pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = []
        for _, pid, pipe in children:
            pipe.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (s, pid, _), code, payload in zip(children, codes, payloads):
        if code:
            how = f"died on signal {-code}" if code < 0 else f"exited with status {code}"
            raise RuntimeError(f"engine worker {pid} {how} before sending its tallies")
        results[s] = pickle.loads(payload)
        if isinstance(results[s], BaseException):
            raise results[s]
    return results


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
    return Estimate(
        x=x,
        mean=_LN2 * math.fsum(t.mean for t in tallies),
        stderr=_LN2 * _root_sum_squares([t.stderr for t in tallies]),
        tail_bound=tail_bound_value(gamma_sup, levels.stop),
        num_samples=num_samples,
        seed=seed,
        levels=levels,
        record=[
            LevelRecord(n, t.draws, t.replicates, _LN2 * t.mean, _LN2 * t.stderr, t.hits)
            for n, t in zip(levels, tallies)
        ],
    )
