"""Exact algebra of compactly supported step and piecewise-linear functions.

Everything here is built around one requirement: the second derivative of
the convolution of the two generating step functions is a finite sum of
Dirac atoms whose locations and weights must come out exact, because they
are the coefficients of the recursion the solver inverts.  Breakpoints and
knots are therefore kept as `fractions.Fraction`, and the convolution and
differentiation routines do their arithmetic in rationals.  Stored values
are plain floats (the generating functions have small dyadic values, so
nothing is lost for them).

Point evaluation uses the closed-open convention: the value at a breakpoint
is taken from the interval to its right.  This is a measure-zero choice
that no integral depends on; it is fixed so evaluation is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "StepFunction",
    "PiecewiseLinear",
    "DiracComb",
    "make_h",
    "make_g",
    "reflect",
    "convolve_steps",
    "kernel_profile",
    "second_derivative_atoms",
]

Rational = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    # Fraction(float) is exact, which is what we want: a caller passing
    # 0.25 means the dyadic rational 1/4, not "roughly a quarter".
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function, zero outside its breakpoint span.

    Parameters
    ----------
    breakpoints : sequence of rationals, strictly increasing
        Cell edges.  There are ``len(values) + 1`` of them.
    values : sequence of floats
        One value per cell ``[b[i], b[i+1])``.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[float, ...]

    def __init__(self, breakpoints: Sequence[Rational], values: Sequence[float]):
        bps = tuple(_as_fraction(b) for b in breakpoints)
        vals = tuple(float(v) for v in values)
        if len(bps) != len(vals) + 1:
            raise ValueError("need exactly one more breakpoint than values")
        if any(b1 >= b2 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    @cached_property
    def _bp_array(self) -> np.ndarray:
        return np.array([float(b) for b in self.breakpoints])

    @cached_property
    def _val_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __call__(self, x):
        """Evaluate at scalar or array x (value 0 outside the support)."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._bp_array, x, side="right") - 1
        inside = (idx >= 0) & (idx < len(self.values))
        out = np.where(inside, self._val_array[np.clip(idx, 0, len(self.values) - 1)], 0.0)
        return out if out.ndim else float(out)

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function with compact support.

    ``values[i]`` is the value at ``knots[i]``; the function interpolates
    linearly between consecutive knots and is identically zero outside
    ``[knots[0], knots[-1]]``.  Construction does not force the endpoint
    values to zero, so a function holding nonzero endpoint values is
    discontinuous there in the distributional sense; the generating
    convolutions all end at zero.
    """

    knots: tuple[Fraction, ...]
    values: tuple[float, ...]

    def __init__(self, knots: Sequence[Rational], values: Sequence[float]):
        ks = tuple(_as_fraction(k) for k in knots)
        vals = tuple(float(v) for v in values)
        if len(ks) != len(vals):
            raise ValueError("need one value per knot")
        if len(ks) < 2:
            raise ValueError("need at least two knots")
        if any(k1 >= k2 for k1, k2 in zip(ks, ks[1:])):
            raise ValueError("knots must be strictly increasing")
        object.__setattr__(self, "knots", ks)
        object.__setattr__(self, "values", vals)

    @cached_property
    def _knot_array(self) -> np.ndarray:
        return np.array([float(k) for k in self.knots])

    @cached_property
    def _val_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self._knot_array, self._val_array, left=0.0, right=0.0)
        # np.interp clamps instead of zeroing outside the knot span
        out = np.where(
            (x < self._knot_array[0]) | (x > self._knot_array[-1]), 0.0, out
        )
        return out if out.ndim else float(out)

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        return self.knots[0], self.knots[-1]

    def slopes(self) -> list[Fraction]:
        """Exact slope on each knot interval."""
        return [
            (_as_fraction(v2) - _as_fraction(v1)) / (k2 - k1)
            for v1, v2, k1, k2 in zip(
                self.values, self.values[1:], self.knots, self.knots[1:]
            )
        ]


@dataclass(frozen=True)
class DiracComb:
    """Finite list of point masses (location, weight), locations increasing."""

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, atoms: Iterable[tuple[Rational, Rational]]):
        ats = tuple((_as_fraction(a), _as_fraction(w)) for a, w in atoms)
        if any(a1 >= a2 for (a1, _), (a2, _) in zip(ats, ats[1:])):
            raise ValueError("atom locations must be strictly increasing")
        if any(w == 0 for _, w in ats):
            raise ValueError("atom weights must be nonzero")
        object.__setattr__(self, "atoms", ats)


# the two generating step functions on [0, 1], in quarters
_H_VALUES = (7.0, -1.0, 1.0, -7.0)
_G_VALUES = (-1.0, 1.0, 1.0, -1.0)
_QUARTERS = (Fraction(0), Fraction(1, 4), Fraction(2, 4), Fraction(3, 4), Fraction(1))


def make_h() -> StepFunction:
    """The mean-zero step function (7, -1, 1, -7) on quarters of [0, 1]."""
    return StepFunction(_QUARTERS, _H_VALUES)


def make_g() -> StepFunction:
    """The mean-zero step function (-1, 1, 1, -1) on quarters of [0, 1]."""
    return StepFunction(_QUARTERS, _G_VALUES)


def reflect(f: StepFunction) -> StepFunction:
    """x -> f(-x)."""
    bps = tuple(-b for b in reversed(f.breakpoints))
    vals = tuple(reversed(f.values))
    return StepFunction(bps, vals)


def convolve_steps(f: StepFunction, k: StepFunction) -> PiecewiseLinear:
    """Exact convolution of two compactly supported step functions.

    The result is continuous piecewise-linear with knots at all pairwise
    sums of input breakpoints.  Knot values are computed as exact overlap
    integrals in rational arithmetic:

        (f * k)(t) = sum_{i,j} f_i k_j |[b_i, b_{i+1}] ∩ [t - c_{j+1}, t - c_j]|
    """
    knots = sorted({bf + bk for bf in f.breakpoints for bk in k.breakpoints})
    fvals = [_as_fraction(v) for v in f.values]
    kvals = [_as_fraction(v) for v in k.values]

    values = []
    for t in knots:
        acc = Fraction(0)
        for i, fv in enumerate(fvals):
            if fv == 0:
                continue
            b1, b2 = f.breakpoints[i], f.breakpoints[i + 1]
            for j, kv in enumerate(kvals):
                if kv == 0:
                    continue
                lo = max(b1, t - k.breakpoints[j + 1])
                hi = min(b2, t - k.breakpoints[j])
                if hi > lo:
                    acc += fv * kv * (hi - lo)
        values.append(float(acc))
    return PiecewiseLinear(knots, values)


def kernel_profile() -> PiecewiseLinear:
    """The odd piecewise-linear profile: convolution of the two generators
    (the second reflected)."""
    return convolve_steps(make_h(), reflect(make_g()))


def second_derivative_atoms(
    p: PiecewiseLinear, positive_axis_only: bool = False
) -> DiracComb:
    """Distributional second derivative of a piecewise-linear function.

    Each knot where the slope jumps contributes an atom of weight
    (right slope - left slope); the slope outside the support is zero, so
    the two endpoint knots get boundary atoms.  Zero jumps are dropped.
    With the flag set, only atoms at strictly positive locations are kept.
    """
    slopes = [Fraction(0)] + p.slopes() + [Fraction(0)]
    atoms = []
    for knot, s_left, s_right in zip(p.knots, slopes, slopes[1:]):
        jump = s_right - s_left
        if jump != 0 and (not positive_axis_only or knot > 0):
            atoms.append((knot, jump))
    return DiracComb(atoms)
