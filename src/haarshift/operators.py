"""Apply the lattice shift operator to test functions and cross-check.

For a fixed grid draw the operator takes f to

    sum_I gamma(|I|) <g_I, f> h_I(x)

over admitted cells I; only the cell containing x matters at each level,
and the pairing <g_I, f> vanishes whenever f is affine on I because the
generator g has zero mean and zero first moment.  Averaging over draws is
compared against the direct principal value, for odd K the integral

    PV int K(x - t) f(t) dt = int_0^inf K(s) [f(x - s) - f(x + s)] ds,

bounded where f is Lipschitz at x.  Where f jumps at x it diverges, and
`direct_pv` raises OperatorError naming the jump.

Pairings are exact: test functions are piecewise-constant or
piecewise-linear with rational knots, so Monte-Carlo noise is the only
stochastic error in the comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import dyadic
from .kernels import KernelSpec, kernel_value
from .piecewise import PiecewiseLinear, StepFunction
from .solver import CoefficientTable

__all__ = [
    "TestFunction",
    "indicator_function",
    "triangle_function",
    "apply_averaged",
    "direct_pv",
    "OperatorError",
]


class OperatorError(RuntimeError):
    """Raised for an operator input outside the hypotheses, such as a jump."""


@dataclass(frozen=True)
class TestFunction:
    """Bounded, compactly supported step or piecewise-linear function.

    The operator is applied to bounded f, so every value must be finite;
    a NaN or infinite value is rejected at construction.  The pairings
    against quarter-split cells reduce to four reads of the antiderivative
    F per cell (see `antiderivative`).
    """

    # not a test case, despite the name pytest keys on
    __test__ = False

    base: StepFunction | PiecewiseLinear

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.base.values):
            raise ValueError(
                "test function values must be finite: the operator is applied "
                "to bounded f"
            )

    @property
    def knots(self) -> tuple:
        if isinstance(self.base, StepFunction):
            return self.base.breakpoints
        return self.base.knots

    def __call__(self, t):
        return self.base(t)

    @cached_property
    def _segments(self) -> tuple[tuple[float, float, float, float], ...]:
        """(k_j, h_j, v_j, s_j/2) per segment: left knot, width, value at
        the left knot and half the slope (0 for a step function)."""
        ks = np.array([float(k) for k in self.knots])
        widths = np.diff(ks)
        vals = np.asarray(self.base.values, dtype=float)
        if isinstance(self.base, StepFunction):
            half_slopes = np.zeros_like(widths)
        else:
            half_slopes = 0.5 * (np.diff(vals) / widths)
        return tuple(
            zip(ks[:-1].tolist(), widths.tolist(), vals.tolist(), half_slopes.tolist())
        )

    def antiderivative(self, t, out=None):
        """F(t) = integral of f from the left support edge to t, vectorized.

        F(t) = sum_j d_j (v_j + (s_j/2) d_j) with d_j = clip(t - k_j, 0, h_j):
        segment j contributes nothing left of k_j and its whole integral
        right of k_j + h_j.  No search: the cost is one pass over t per
        segment, and the built-in f (the CLI offers only these) have one
        (indicator) and two (triangle) segments.  Given `out`, an array of
        t's shape other than t, F is written there and `out` is returned.
        """
        t = np.asarray(t, dtype=float)
        total = np.empty(t.shape) if out is None else out
        for j, (k, h, v, half_slope) in enumerate(self._segments):
            d = np.subtract(t, k, out=dyadic.scratch("F.d", t.shape))
            np.clip(d, 0.0, h, out=d)
            term = np.multiply(d, half_slope, out=dyadic.scratch("F.term", t.shape) if j else total)
            term += v
            term *= d
            if j:
                total += term
        return float(total) if out is None and not t.ndim else total


def indicator_function() -> TestFunction:
    """The indicator of [0, 1]."""
    return TestFunction(StepFunction([0, 1], [1.0]))


def triangle_function() -> TestFunction:
    """The unit tent on [0, 2], peak 1 at 1."""
    return TestFunction(PiecewiseLinear([0, 1, 2], [0.0, 1.0, 0.0]))


def _operator_terms(table: CoefficientTable, f: TestFunction, x: float) -> Callable:
    """Level-term function of the averaged operator at x.

    The pairing against the quarter-split cell I = [a, a + L) collapses to
    a four-point combination of the antiderivative:
    sqrt(L) <g_I, f> = F(a) - 2 F(a + L/4) + 2 F(a + 3L/4) - F(a + L).
    """
    F = f.antiderivative

    def pairing(k: np.ndarray, sigma: np.ndarray, length: np.ndarray) -> np.ndarray:
        a = np.add(k, sigma, out=dyadic.scratch("cell", k.shape))
        a *= length
        total = F(a, out=dyadic.scratch("pairing", k.shape))
        # a + 1.0 L is a + L, and adding -w F is subtracting w F, bit for bit
        for frac, weight in ((0.25, -2.0), (0.75, 2.0), (1.0, -1.0)):
            point = np.multiply(length, frac, out=dyadic.scratch("point", k.shape))
            point += a
            value = F(point, out=dyadic.scratch("F", k.shape))
            total += np.multiply(value, weight, out=value)
        return total

    return dyadic.shift_terms(table, x, pairing)


def apply_averaged(
    table: CoefficientTable,
    f: TestFunction,
    xs: Sequence[float],
    num_samples: int,
    seed: int = 0,
    tol_tail: float = 1e-4,
    threads: int | None = None,
) -> list[dyadic.Estimate]:
    """Average the operator over grid draws at each probe.

    The level floor adapts per probe: cells shorter than the distance from
    the probe to the nearest knot of f pair to zero (f is affine on them),
    so they are excluded a priori.  The ceiling comes from the requested
    tail tolerance.
    """
    gamma_sup = table.sup_norm()
    out = []
    for x in xs:
        x = float(x)
        dist = min(abs(x - float(k)) for k in f.knots)
        if dist < 2.0**-40:
            raise ValueError(
                "probe coincides with a knot of f; the level range is unbounded there"
            )
        lv = dyadic.levels_for_distance(dist, gamma_sup, tol_tail)
        term = _operator_terms(table, f, x)
        out.append(
            dyadic.estimate(x, term, lv, gamma_sup, num_samples, seed=seed, threads=threads)
        )
    return out


_PV_GL_NODES, _PV_GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def direct_pv(spec: KernelSpec, f: TestFunction, x: float) -> float:
    """The principal value at x, as the integral over s > 0 above.

    Panels end at 0, at each distance from x to a knot of f (the integrand
    is 0 past the largest, d_max) and at d_min 2^j from j = -52 to d_max,
    not below 2^-1000 nor within a relative 2^-40 of a knot's distance: f
    is polynomial on both sides of a panel, and [a, 2a] resolves K, which
    x^3 K'' bounded lets vary only on the scale of s.  10-node Gauss-Legendre on every panel, one call of K and of f per
    side for all nodes, math.fsum over the panel sums.  OperatorError where
    f jumps at x; ValueError for x non-finite or within 2^-1000 of a knot.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"need a finite x, got {x!r}")
    # f's limits at its knots, from the left [0] + lo and from the right hi + [0]
    v = list(f.base.values)
    lo, hi = (v, v) if isinstance(f.base, StepFunction) else (v[1:], v[:-1])
    for k, left, right in zip(f.knots, [0.0] + lo, hi + [0.0]):
        if float(k) == x and left != right:
            raise OperatorError(f"f jumps from {left:g} to {right:g} at x = {x!r}: the PV diverges")
    dists = sorted({abs(x - float(k)) for k in f.knots} - {0.0})
    if dists[0] < 2.0**-1000:
        raise ValueError(f"x = {x!r} is within 2^-1000 of a knot of f, where 1/s overflows")
    edges = {0.0, *dists}
    d = max(dists[0] * 2.0**-52, 2.0**-1000)
    while d < dists[-1]:
        # so close an edge leaves a panel whose nodes round onto the knot,
        # where f and its mirror image read different sides
        if all(abs(d - k) > d * 2.0**-40 for k in dists):
            edges.add(d)
        d *= 2.0
    cuts = np.array(sorted(edges))
    half = 0.5 * np.diff(cuts)
    s = (cuts[:-1] + half)[:, None] + half[:, None] * _PV_GL_NODES
    vals = kernel_value(spec, s) * (f(x - s) - f(x + s))
    return math.fsum((half * (vals @ _PV_GL_WEIGHTS)).tolist())
