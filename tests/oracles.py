"""Independent reference computations used by the tests.

These deliberately take different routes than the library: pointwise
evaluation instead of interval arithmetic, the contraction sweep in real
space and explicit composition-word expansion instead of the solver's
division by the symbol, and explicit lattice geometry instead of the
Monte-Carlo engine's vectorized level term.  Agreement between the two
routes is the point of the tests that import this module.  The scalar
lattice route takes one draw at a time, builds each level's lattice
explicitly from its dilation and shift, and sums the kernel or the
operator cell by cell, pairing f with each rescaled g exactly in rational
arithmetic.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from haarshift import RECURSION, CoefficientTable, m_of, residual
from haarshift.piecewise import PiecewiseLinear, StepFunction, kernel_profile, make_g, make_h
from haarshift.solver import _detect_tail

LN3 = math.log(3.0)
LN32 = math.log(1.5)
LN43 = math.log(4.0 / 3.0)

# absolute weights of the three reading positions in the fixed-point map,
# after dividing the recursion by its dominant coefficient
W_UP3 = 1.0 / 99.0
W_UP32 = 4.0 / 11.0
W_DOWN43 = 56.0 / 99.0
RATIO = W_UP3 + W_UP32 + W_DOWN43  # = 31/33


def convolution_by_partition(f, g, t: float) -> float:
    """(f * g)(t) for piecewise-constant f, g by midpoint evaluation.

    The integrand s -> f(s) g(t - s) is constant between cuts drawn from
    the breakpoints of f and the reflected breakpoints of g, so one
    midpoint sample per piece integrates it exactly (up to float
    rounding).  Uses only the public __call__ of both functions.
    """
    cuts = sorted(
        {float(b) for b in f.breakpoints} | {t - float(b) for b in g.breakpoints}
    )
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        total += f(mid) * g(t - mid) * (b - a)
    return total


def plain_symbol(omega):
    """a(omega) = sum w exp(i omega shift) over the recursion's terms, each
    exponential taken as the formula reads, the zero shift's included."""
    omega = np.asarray(omega, dtype=float)
    return sum(w * np.exp(1j * omega * shift) for shift, w in RECURSION)


def neumann_word_sum(m_func, y, depth: int) -> np.ndarray:
    """Partial fixed-point series by explicit word expansion.

    Applies the shift map to the source term word by word: a word of
    length d with i upward ln3-shifts, j upward ln(3/2)-shifts and k
    downward ln(4/3)-shifts contributes its multinomial count times the
    product of the per-shift weights, evaluated at the accumulated offset.
    Cost grows like depth^3, fine for the depths the tests use.
    """
    y = np.asarray(y, dtype=float)
    total = np.zeros_like(y)
    for d in range(depth + 1):
        for i in range(d + 1):
            for j in range(d - i + 1):
                k = d - i - j
                count = math.comb(d, i) * math.comb(d - i, j)
                weight = count * W_UP3**i * W_UP32**j * W_DOWN43**k
                # signs: the two upward weights are +, the downward is +,
                # and the source enters with a minus at every depth
                shift = i * LN3 + j * LN32 - k * LN43
                total += weight * (-(8.0 / 99.0)) * m_func(y + shift - LN43)
    return total


def neumann_tail_bound(m_sup: float, depth: int) -> float:
    """Geometric bound on the truncated remainder of the word expansion.

    Each extra depth multiplies the reachable mass by the weight sum
    31/33; summing the discarded geometric tail from depth + 1 gives
    (8/99) m_sup * (31/33)^(depth+1) / (1 - 31/33).
    """
    return (8.0 / 99.0) * m_sup * RATIO ** (depth + 1) / (1.0 - RATIO)


def sweep_solve(spec, window=(-14.0, 14.0), step=2.0**-9, tol=1e-8, max_iter=600):
    """Coefficient table by the contraction sweep, started from the tails.

    Iterates the fixed-point map

        c(u) = W_UP3 c(u + ln 3) + W_UP32 c(u + ln(3/2)) + W_DOWN43 c(u - ln(4/3))
               - (8/99) m(u - ln(4/3))

    on a uniform grid padded by max_iter * (ln(4/3), ln 3), so that nothing
    from beyond the padding reaches the window within the sweep budget.
    Shifted reads interpolate linearly between grid points; beyond the grid
    the iterate is extended by the constant tails (the library's tail
    detection, so both routes share their tails) or clamped where m has no
    flat limit.  The sweeps start from those tails and stop once the
    sup-change drops below tol (1 - 31/33), which bounds the remaining
    geometric tail by tol.  The table records the sweep count and the
    largest ratio of successive sup-changes, the observed contraction
    factor; an exhausted budget fails the calling test.
    """
    u_min, u_max = float(window[0]), float(window[1])

    def mfun(u):
        return m_of(spec, u)

    n_left = int(np.ceil(max_iter * LN43 / step))
    n_right = int(np.ceil((u_max - u_min + max_iter * LN3) / step))
    grid = (u_min - n_left * step) + step * np.arange(n_left + n_right + 1)
    n = len(grid)
    source = (8.0 / 99.0) * np.asarray(mfun(grid - LN43), dtype=float)

    # fixed point of the map with m frozen at its limit: c = -(4/3) m
    flat_l, m_left = _detect_tail(mfun, grid[0], direction=-1)
    flat_r, m_right = _detect_tail(mfun, grid[-1], direction=+1)
    tail_left = -(4.0 / 3.0) * m_left if flat_l else None
    tail_right = -(4.0 / 3.0) * m_right if flat_r else None
    c = np.where(
        grid < 0.5 * (grid[0] + grid[-1]),
        tail_left if tail_left is not None else 0.0,
        tail_right if tail_right is not None else 0.0,
    ).astype(float)

    # one pad block per side for the slice reads; ln3 is the widest shift
    pad = int(np.ceil(LN3 / step)) + 2

    # the iterate lives inside a padded copy, and each sweep writes the next
    # one inside a second copy: the two swap, and the sweep runs in place
    c_ext, new_ext = np.empty(n + 2 * pad), np.empty(n + 2 * pad)
    c_ext[pad : pad + n] = c
    c = c_ext[pad : pad + n]
    lerp, part = np.empty(n), np.empty(n)

    def shifted(c_ext, offset, out):
        # same fractional part at every grid point: one lerp of two slices
        f = int(np.floor(offset / step))
        w = offset / step - f
        i0 = pad + f
        np.multiply(c_ext[i0 : i0 + n], 1.0 - w, out=out)
        np.multiply(c_ext[i0 + 1 : i0 + 1 + n], w, out=part)
        out += part

    stop = tol * (1.0 - RATIO)
    prev_change = None
    max_ratio = 0.0
    for sweeps in range(1, max_iter + 1):
        c_ext[:pad] = tail_left if tail_left is not None else c[0]
        c_ext[pad + n :] = tail_right if tail_right is not None else c[-1]
        c_new = new_ext[pad : pad + n]
        shifted(c_ext, LN3, c_new)
        c_new *= W_UP3
        shifted(c_ext, LN32, lerp)
        lerp *= W_UP32
        c_new += lerp
        shifted(c_ext, -LN43, lerp)
        lerp *= W_DOWN43
        c_new += lerp
        c_new -= source
        np.subtract(c_new, c, out=lerp)
        change = float(np.abs(lerp, out=lerp).max())
        if prev_change is not None and prev_change > 0:
            max_ratio = max(max_ratio, change / prev_change)
        prev_change = change
        c_ext, new_ext, c = new_ext, c_ext, c_new
        if change < stop:
            break
    else:
        raise AssertionError(
            f"sweep: no convergence in {max_iter} sweeps (last sup-change {prev_change:.3e})"
        )

    samples = c[n_left : n_left + round((u_max - u_min) / step) + 1].copy()
    table = CoefficientTable(
        u_min=u_min,
        u_max=u_max,
        step=step,
        samples=samples,
        tail_left=tail_left if tail_left is not None else float(samples[0]),
        tail_right=tail_right if tail_right is not None else float(samples[-1]),
        residual_sup=0.0,
        iterations=sweeps,
        kernel_name=spec.name,
        max_change_ratio=max_ratio,
    )
    table.residual_sup = residual(table, spec)
    return table


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_PROFILE = kernel_profile()
_P_KNOTS = [float(k) for k in _PROFILE.knots if k >= 0]


def depth_first_reconstruct(table, x: float, rtol: float = 1e-8) -> float:
    """K(x) for x > 0 by the quadrature of the library's reconstruct_at,
    bisected depth-first one panel at a time.

    Each panel is its own 8-node Gauss-Legendre estimate and its own table
    lookup; a stack holds the pending panels and the accepted halves are
    added up in the order they are popped.  The acceptance test is the
    library's, so the two routes accept the same panels and differ only in
    the order of the summation.
    """

    def panel(a: float, b: float) -> float:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        s = mid + half * _GL_NODES
        vals = table.c_at(np.log(x) - np.log(s)) * _PROFILE(s)
        return half * float(np.dot(_GL_WEIGHTS, vals))

    stack = [(a, b, panel(a, b)) for a, b in zip(_P_KNOTS, _P_KNOTS[1:])]
    scale = max(sum(abs(est) for *_, est in stack), 1e-300)
    total = 0.0
    while stack:
        a, b, est = stack.pop()
        mid = 0.5 * (a + b)
        e1 = panel(a, mid)
        e2 = panel(mid, b)
        if abs(e1 + e2 - est) < rtol * scale or (b - a) < 1e-13:
            total += e1 + e2
        else:
            stack.append((a, mid, e1))
            stack.append((mid, b, e2))
    return total / x


# ---------------------------------------------------------------------------
# exact pairing algebra: cells, rescaled generators, rational integrals


@dataclass(frozen=True)
class Interval:
    """A half-open interval [left, left + length), length > 0."""

    left: float
    length: float

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError(f"interval length must be positive, got {self.length}")

    @property
    def right(self) -> float:
        return self.left + self.length


def rescale_to_interval(f: StepFunction, interval: Interval) -> StepFunction:
    """Rescale a step function on [0, 1] to an interval, preserving the L2 norm.

    Returns x -> f((x - left) / length) / sqrt(length).  Exactness of the
    breakpoints is kept when the interval endpoints are exact (floats are
    converted exactly).
    """
    left = Fraction(interval.left)
    length = Fraction(interval.length)
    scale = 1.0 / float(length) ** 0.5
    bps = tuple(left + b * length for b in f.breakpoints)
    vals = tuple(v * scale for v in f.values)
    return StepFunction(bps, vals)


def integral_against(f: StepFunction, k: StepFunction) -> float:
    """Exact integral of f * k (both piecewise constant)."""
    total = Fraction(0)
    for v, a1, a2 in zip(f.values, f.breakpoints, f.breakpoints[1:]):
        if v == 0:
            continue
        for w, b1, b2 in zip(k.values, k.breakpoints, k.breakpoints[1:]):
            if w == 0:
                continue
            lo, hi = max(a1, b1), min(a2, b2)
            if hi > lo:
                total += Fraction(v) * Fraction(w) * (hi - lo)
    return float(total)


def integrate_pl(p: PiecewiseLinear, a, b) -> float:
    """Exact integral of a piecewise-linear function over [a, b].

    Trapezoid sums per knot interval in rational arithmetic, clipping the
    first and last partial intervals; zero contribution outside the support.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a > b:
        raise ValueError("need a <= b")
    lo = max(a, p.knots[0])
    hi = min(b, p.knots[-1])
    if hi <= lo:
        return 0.0

    def value_at(t: Fraction) -> Fraction:
        # exact linear interpolation at an interior point
        for k1, k2, v1, v2 in zip(p.knots, p.knots[1:], p.values, p.values[1:]):
            if k1 <= t <= k2:
                w = (t - k1) / (k2 - k1)
                return Fraction(v1) * (1 - w) + Fraction(v2) * w
        return Fraction(0)

    cuts = [lo] + [k for k in p.knots if lo < k < hi] + [hi]
    total = Fraction(0)
    for t1, t2 in zip(cuts, cuts[1:]):
        total += (value_at(t1) + value_at(t2)) * (t2 - t1) / 2
    return float(total)


# ---------------------------------------------------------------------------
# scalar lattice geometry, one grid draw at a time

_H_QUARTERS = make_h().values
_G_QUARTERS = make_g().values


@dataclass(frozen=True)
class GridSample:
    """One grid draw: dilation r, floor shift sigma and a window of bits.

    ``sigma`` in [0, 1) is the fractional shift of the level-``i_min``
    lattice, and ``bits[j]`` is the bit of level ``i_min + j``; the stored
    window covers levels ``i_min`` (inclusive) to ``n_max`` (exclusive),
    which supports lattice geometry at any level up to and including
    ``n_max``.
    """

    r: float
    sigma: float
    bits: np.ndarray
    i_min: int
    n_max: int
    seed: int

    def __post_init__(self):
        if not (1.0 <= self.r < 2.0):
            raise ValueError(f"dilation must lie in [1, 2), got {self.r}")
        if not (0.0 <= self.sigma < 1.0):
            raise ValueError(f"floor shift must lie in [0, 1), got {self.sigma}")
        if self.i_min >= self.n_max:
            raise ValueError("need i_min < n_max")
        b = np.asarray(self.bits, dtype=np.uint8)
        if b.shape != (self.n_max - self.i_min,):
            raise ValueError("bit window length must be n_max - i_min")
        if np.any(b > 1):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", b)

    def bit(self, i: int) -> int:
        """Bit of level i; levels below the stored window read as 0."""
        if i < self.i_min:
            return 0
        if i >= self.n_max:
            raise ValueError(f"level {i} above the stored bit window")
        return int(self.bits[i - self.i_min])


def fixed_grid(r=1.0, i_min=-5, n_max=15, one_at=None) -> GridSample:
    """A grid with no floor shift and all bits zero, except the one of
    level `one_at`."""
    bits = np.zeros(n_max - i_min, dtype=np.uint8)
    if one_at is not None:
        bits[one_at - i_min] = 1
    return GridSample(r=r, sigma=0.0, bits=bits, i_min=i_min, n_max=n_max, seed=0)


def level_draws(num_samples: int, row: int) -> int:
    """Draws of level row `row` since stream 5: ceil(num_samples 2^(-row/2)),
    never fewer than min(num_samples, 2)."""
    return max(math.ceil(num_samples * 2.0 ** (-row / 2)), min(num_samples, 2))


def level_lattice(draws: int) -> tuple[int, int]:
    """(replicates, points) of stream 6: a level of N draws evaluates
    R = min(20, N) shifts of one lattice of floor(N / R) points."""
    replicates = min(20, draws)
    return replicates, draws // replicates


def sample_level(seed: int, n: int, row: int, num_samples: int) -> list[list[GridSample]]:
    """Every point of level row `row` (level n) of a `num_samples`-draw call
    in stream 6, replicate by replicate, each as a grid whose level-n
    lattice is {r 2^n (sigma + k)}.

    Replicate j takes its shift (U, U') from the first two uniforms of the
    Philox counter block at (row << 128) + (j << 70) under the seed key.
    Its point i has log2 r = ((i + 1/2) / p + U) mod 1 and
    sigma = ((i phi mod 1) + U') mod 1, for p points and phi = (sqrt 5 - 1) / 2.
    """
    replicates, points = level_lattice(level_draws(num_samples, row))
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    out = []
    for j in range(replicates):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=(row << 128) + (j << 70)))
        u, v = rng.random(2).tolist()
        rs = np.exp2([((i + 0.5) / points + u) % 1.0 for i in range(points)]).tolist()
        sigmas = [((i * phi) % 1.0 + v) % 1.0 for i in range(points)]
        out.append(
            [
                GridSample(r=r, sigma=sigma, bits=np.zeros(1), i_min=n, n_max=n + 1, seed=seed)
                for r, sigma in zip(rs, sigmas)
            ]
        )
    return out


def replicate_sums(term, n: int, replicates: list[list[GridSample]], chunk_size: int):
    """(sums, hits) of `term` over each replicate's points as stream 6 adds
    them: np.sum over consecutive pieces of at most chunk_size points, the
    pieces added in order."""
    sums, hits = [], 0
    for grids in replicates:
        values = term(n, np.array([s.r for s in grids]), np.array([s.sigma for s in grids]))
        hits += int(np.count_nonzero(values))
        pieces = range(0, len(values), chunk_size)
        sums.append(sum(float(np.sum(values[k : k + chunk_size])) for k in pieces))
    return sums, hits


def sample_grid(seed: int, i_min: int, n_max: int, index: int = 0) -> GridSample:
    """One plain draw of the grid law for the geometry tests: r
    log-uniform on [1, 2), the floor shift uniform on [0, 1), fair bits.
    The engine draws each level on its own and never builds such a grid."""
    rng = np.random.default_rng([seed, index])
    return GridSample(
        r=float(2.0 ** rng.random()),
        sigma=float(rng.random()),
        bits=rng.integers(0, 2, n_max - i_min, dtype=np.uint8),
        i_min=i_min,
        n_max=n_max,
        seed=seed,
    )


def level_offset(s: GridSample, n: int) -> float:
    """Absolute shift of the level-n lattice:
    r * (sigma 2^i_min + sum_{i_min <= i < n} 2^i * bit(i)).

    Levels below the stored window have zero bits, so their lattices share
    the level-i_min offset.
    """
    if n > s.n_max:
        raise ValueError(f"level {n} above the stored bit window")
    total = s.sigma * 2.0**s.i_min
    for j in range(n - s.i_min):
        if s.bits[j]:
            total += 2.0 ** (s.i_min + j)
    return s.r * total


def interval_containing(s: GridSample, n: int, x: float) -> Interval:
    """The unique level-n cell [left, left + r 2^n) containing x."""
    length = s.r * 2.0**n
    offset = level_offset(s, n)
    k = math.floor((x - offset) / length)
    left = offset + k * length
    # float guard: rounding of the division can land one cell off
    if x < left:
        left -= length
    elif x >= left + length:
        left += length
    return Interval(left=left, length=length)


def _quarter(t: float) -> int:
    return min(int(t * 4), 3)


def shift_kernel_sum(s: GridSample, table, x: float, y: float, levels) -> float:
    """Sum over admitted cells containing both points of
    gamma(|I|) h_I(x) g_I(y), with gamma(L) = c(ln L) from the table.

    At most one cell per level can contain both x and y; cells shorter than
    |x - y| never do, so those levels contribute zero automatically.
    """
    if x == y:
        raise ValueError("the kernel sum is undefined on the diagonal x = y")
    total = 0.0
    for n in levels:
        cell = interval_containing(s, n, x)
        if not (cell.left <= y < cell.right):
            continue
        length = cell.length
        h_v = _H_QUARTERS[_quarter((x - cell.left) / length)]
        g_v = _G_QUARTERS[_quarter((y - cell.left) / length)]
        total += float(table.c_at(np.log(length))) * h_v * g_v / length
    return total


def haar_pairing(g_step: StepFunction, f) -> float:
    """Exact integral of g_step * f for a step or piecewise-linear f."""
    if isinstance(f.base, StepFunction):
        return integral_against(g_step, f.base)
    total = 0.0
    for w, a, b in zip(g_step.values, g_step.breakpoints, g_step.breakpoints[1:]):
        if w != 0:
            total += w * integrate_pl(f.base, a, b)
    return total


def apply_shift(s: GridSample, table, f, x: float, levels, stats=None) -> float:
    """Operator value at x for one grid draw.

    Per level only the cell containing x is consulted, and it is skipped
    outright when it misses the support of f; `stats["intervals"]` counts
    the cells actually paired.
    """
    lo, hi = float(f.knots[0]), float(f.knots[-1])
    g = make_g()
    total = 0.0
    for n in levels:
        cell = interval_containing(s, n, x)
        if cell.right <= lo or cell.left >= hi:
            continue
        if stats is not None:
            stats["intervals"] = stats.get("intervals", 0) + 1
        pairing = haar_pairing(rescale_to_interval(g, cell), f)
        if pairing == 0.0:
            continue
        h_val = _H_QUARTERS[_quarter((x - cell.left) / cell.length)]
        gamma = float(table.c_at(np.log(cell.length)))
        total += gamma * pairing * h_val / math.sqrt(cell.length)
    return total


# ---------------------------------------------------------------------------
# the vectorized level term written out plainly, a fresh array per step:
# the reference the library's in-place term must match bit for bit

_H_ARRAY = np.array(_H_QUARTERS)
_G_ARRAY = np.array(_G_QUARTERS)


def _quarter_index(t: np.ndarray) -> np.ndarray:
    return np.minimum((t * 4.0).astype(np.int64), 3)


def reference_c_at(table, u: np.ndarray) -> np.ndarray:
    """c(u): t = (u - u_min) / step clipped to [0, n - 1], j = floor(t),
    s[j] + (t - j) (s[j+1] - s[j]), then the tails by comparing u with the
    first and last grid nodes."""
    s = table.samples
    u = np.asarray(u, dtype=float)
    t = np.minimum(np.maximum((u - table.u_min) / table.step, 0.0), len(s) - 1)
    left = np.floor(t)
    j = np.fmax(left, 0.0).astype(np.intp)
    rises = np.diff(s, append=s[-1])
    c = s[j] + (t - left) * rises[j]
    first, last = table.u_min, table.u_min + table.step * (len(s) - 1)
    return np.where(u < first, table.tail_left, np.where(u > last, table.tail_right, c))


def reference_shift_terms(table, x: float, pairing):
    """Level term gamma(|I|) h_I(x) <g_I, f> for the `accumulate_samples`
    contract, given pairing(k, sigma, L) = sqrt(L) <g_I, f>."""

    def term(n, r, sigma):
        length = r * 2.0**n
        px = x / length - sigma
        k = np.floor(px)
        vals = reference_c_at(table, np.log(length)) * _H_ARRAY[_quarter_index(px - k)]
        return vals * pairing(k, sigma, length) / length

    return term


def reference_kernel_pairing(y: float):
    """g_I(y), zero when y falls in another cell than the one indexed k."""

    def pairing(k, sigma, length):
        py = y / length - sigma
        ty = np.clip(py - k, 0.0, 1.0)
        return np.where(np.floor(py) == k, _G_ARRAY[_quarter_index(ty)], 0.0)

    return pairing


def reference_operator_pairing(f):
    """sqrt(L) <g_I, f> as the four-point antiderivative combination."""
    F = f.antiderivative

    def pairing(k, sigma, length):
        a = (k + sigma) * length
        return F(a) - 2.0 * F(a + 0.25 * length) + 2.0 * F(a + 0.75 * length) - F(a + length)

    return pairing
