"""Independent reference computations used by the tests.

These deliberately take different routes than the library: pointwise
evaluation instead of interval arithmetic, explicit composition-word
expansion instead of sweeping, and explicit lattice geometry instead of
the Monte-Carlo engine's fractional-shift recursion.  Agreement between
the two routes is the point of the tests that import this module.  The
scalar lattice route draws one grid at a time, builds each level's offset
from its bits and sums the kernel or the operator cell by cell.
"""

import math
from dataclasses import dataclass

import numpy as np

from haarshift.piecewise import (
    Interval,
    StepFunction,
    integrate_pl,
    make_g,
    make_h,
    rescale_to_interval,
)

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


# ---------------------------------------------------------------------------
# scalar lattice geometry, one grid draw at a time

_H_QUARTERS = make_h().values
_G_QUARTERS = make_g().values


@dataclass(frozen=True)
class GridSample:
    """One grid draw: dilation r and a finite window of translation bits.

    ``bits[j]`` is the bit of level ``i_min + j``; the stored window covers
    levels ``i_min`` (inclusive) to ``n_max`` (exclusive), which supports
    lattice geometry at any level up to and including ``n_max``.
    """

    r: float
    bits: np.ndarray
    i_min: int
    n_max: int
    seed: int

    def __post_init__(self):
        if not (1.0 <= self.r < 2.0):
            raise ValueError(f"dilation must lie in [1, 2), got {self.r}")
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
    """A grid whose bits are all zero, except the one of level `one_at`."""
    bits = np.zeros(n_max - i_min, dtype=np.uint8)
    if one_at is not None:
        bits[one_at - i_min] = 1
    return GridSample(r=r, bits=bits, i_min=i_min, n_max=n_max, seed=0)


def sample_grid(seed: int, i_min: int, n_max: int, index: int = 0) -> GridSample:
    """Draw one grid: r with density 1/(r ln 2) on [1, 2), bits fair coins.

    Draw `index` owns the 2^70-wide Philox counter block starting at
    index << 70, and takes r first, then the bits from low level to high.
    """
    if i_min >= n_max:
        raise ValueError("need i_min < n_max")
    rng = np.random.Generator(np.random.Philox(key=seed, counter=index << 70))
    r = float(np.exp2(rng.random(1)[0]))
    bits = rng.integers(0, 2, size=(n_max - i_min, 1), dtype=np.uint8)[:, 0]
    return GridSample(r=r, bits=bits, i_min=i_min, n_max=n_max, seed=seed)


def level_offset(s: GridSample, n: int) -> float:
    """Absolute shift of the level-n lattice: r * sum_{i < n} 2^i * bit(i).

    Bits below the stored window are treated as zero; the induced position
    error is below r * 2^(i_min + 1).
    """
    if n < s.i_min:
        return 0.0
    if n > s.n_max:
        raise ValueError(f"level {n} above the stored bit window")
    total = 0.0
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
        return g_step.integral_against(f.base)
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
    lo, hi = f.support
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
