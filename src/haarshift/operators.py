"""Apply the lattice shift operator to test functions and cross-check.

For a fixed grid draw the operator takes f to

    sum_I gamma(|I|) <g_I, f> h_I(x)

over admitted cells I; only the cell containing x matters at each level,
and the pairing <g_I, f> vanishes whenever f is affine on I because the
generator g has zero mean and zero first moment.  Averaging over draws is
compared against the direct principal-value convolution.

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
    """Raised when an operator computation cannot certify its result."""


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

    @property
    def support(self) -> tuple[float, float]:
        ks = self.knots
        return float(ks[0]), float(ks[-1])

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

    def antiderivative(self, t):
        """F(t) = integral of f from the left support edge to t, vectorized.

        F(t) = sum_j d_j (v_j + (s_j/2) d_j) with d_j = clip(t - k_j, 0, h_j):
        segment j contributes nothing left of k_j and its whole integral
        right of k_j + h_j.  No search: the cost is one pass over t per
        segment, and the built-in f (the CLI offers only these) have one
        (indicator) and two (triangle) segments.
        """
        t = np.asarray(t, dtype=float)
        out = None
        for k, h, v, half_slope in self._segments:
            d = np.clip(t - k, 0.0, h)
            term = d * (v + half_slope * d)
            if out is None:
                out = term
            else:
                out += term
        return out if out.ndim else float(out)


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
        a = (k + sigma) * length
        return (
            F(a)
            - 2.0 * F(a + 0.25 * length)
            + 2.0 * F(a + 0.75 * length)
            - F(a + length)
        )

    return dyadic.shift_terms(table, x, pairing)


def apply_averaged(
    table: CoefficientTable,
    f: TestFunction,
    xs: Sequence[float],
    num_samples: int,
    seed: int = 0,
    tol_tail: float = 1e-4,
    threads: int | None = None,
    levels: dyadic.LevelRange | None = None,
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
        lv = levels
        if lv is None:
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


def direct_pv(
    spec: KernelSpec,
    f: TestFunction,
    x: float,
    eps_schedule: Sequence[float] | None = None,
    atol: float = 1e-10,
) -> float:
    """Principal-value convolution at x by symmetric exclusion.

    Integrates K(x - t) f(t) outside |t - x| > eps on panels that double
    away from the singularity (splitting at the knots of f), then removes
    the O(eps) exclusion error by eliminating the linear term between
    consecutive schedule entries, stopping once successive extrapolants
    agree within atol.
    """
    if eps_schedule is None:
        eps_schedule = [2.0**-k for k in range(10, 31)]
    eps_schedule = sorted(set(float(e) for e in eps_schedule), reverse=True)
    if len(eps_schedule) < 2:
        raise OperatorError("need at least two exclusion radii to extrapolate")

    lo, hi = f.support
    knots = [float(k) for k in f.knots]

    def integral_outside(eps: float) -> float:
        total = 0.0
        for sign in (-1, 1):
            if sign < 0:
                a, b = lo, min(hi, x - eps)
            else:
                a, b = max(lo, x + eps), hi
            if b <= a:
                continue
            # doubling panel edges anchored at the singularity
            edges = {a, b}
            edges.update(k for k in knots if a < k < b)
            d = eps
            while True:
                t = x + sign * d
                if sign < 0 and t <= a or sign > 0 and t >= b:
                    break
                if a < t < b:
                    edges.add(t)
                d *= 2.0
            cuts = sorted(edges)
            for p, q in zip(cuts, cuts[1:]):
                mid = 0.5 * (p + q)
                half = 0.5 * (q - p)
                t = mid + half * _PV_GL_NODES
                vals = kernel_value(spec, x - t) * np.asarray(f(t), dtype=float)
                total += half * float(np.dot(_PV_GL_WEIGHTS, vals))
        return total

    prev_eps = eps_schedule[0]
    prev_i = integral_outside(prev_eps)
    extrapolated = None
    last_diff = math.inf
    for eps in eps_schedule[1:]:
        cur_i = integral_outside(eps)
        # eliminate the O(eps) exclusion term from the pair (eps, prev_eps);
        # for a halving schedule this is exactly 2 I(eps) - I(2 eps)
        new_ex = (prev_eps * cur_i - eps * prev_i) / (prev_eps - eps)
        if extrapolated is not None:
            last_diff = abs(new_ex - extrapolated)
            if last_diff < atol:
                return new_ex
        extrapolated = new_ex
        prev_eps, prev_i = eps, cur_i
    raise OperatorError(
        f"principal value did not settle within atol={atol:g} "
        f"(last extrapolant change {last_diff:.3e})"
    )
