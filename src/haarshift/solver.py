"""Spectral solver for the four-term shifted coefficient recursion.

The averaged-grid representation reduces to a linear functional equation on
the log axis: with m(u) = e^(3u) K''(e^u) and c(u) the coefficient function
in log scale,

    m(u) = (1/8) c(u + ln 4) + (9/2) c(u + ln 2) - (99/8) c(u + ln(4/3)) + 7 c(u).

Its terms (`RECURSION`) are derived at import from the exact curvature
atoms of the generator profile (`piecewise.kernel_profile`): an atom of
weight w at t gives weight w t^2 at shift ln(1/t).

On e^(i omega u) the left side is multiplication by the symbol
a(omega) = sum w e^(i omega shift) (`a_of_omega`), and the 99/8 term
dominates the other three (12 3/8 against 11 5/8), so |a(omega)| >= 3/4:
the recursion is solved by one division in Fourier space.  Isolating the
dominant term writes the same solution as the fixed point of

    c(u) = (8/99) [ (1/8) c(u + ln 3) + (9/2) c(u + ln(3/2))
                    + 7 c(u - ln(4/3)) - m(u - ln(4/3)) ],

whose linear part has norm 31/33 (`CONTRACTION_RATIO`).  Its Neumann
series bounds c by (8/99)/(1 - 31/33) = 4/3 (`NORM_CONSTANT`) times the
sup of the source, and certifies the spectral solve:

- reach: for 0 < beta < 1 the map also contracts in the norm
  sup |c(u)| e^(-beta u), by q(beta) = 1 + (8/99) (3/4)^beta a(-i beta)
  (Combes-Thomas), so source changed only past D right of the window
  moves c there by at most C(beta) e^(-beta D) times its sup, with
  C(beta) = -1 / a(-i beta); on the left beta changes sign.
  `weighted_reach` takes per side the least such D within (2/3) tol over
  a fixed set of beta, about 22 at tol 1e-8.  `solve_c` samples the
  source over it, tapers it to 0 past it over a fixed margin, and makes
  the transform long enough that its periodic images lie past it too.
- trim: it solves c = b + d, with b a logistic step between the constant
  solutions m/a(0) at the two ends and d = irfft(rfft(f) / a(omega)) for
  the rest of the source, f = m - sum w b(u + shift).  Where |f| <= (3/4)
  tol at either end, f is dropped, which moves c by at most tol.  The
  recursion annihilates e^u and e^-u (a(-i) = a(i) = 0), the logistic's
  leading tails, so for a source with limits little beyond the window is
  kept, and for a constant one nothing: no transform runs.

`residual` substitutes the interpolated table back into the four-term
equation, a check in real space that is independent of the transform.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from .dyadic import scratch
from .kernels import GENERIC_GUARD, KernelSpec, m_of
from .piecewise import kernel_profile, second_derivative_atoms

__all__ = [
    "CoefficientTable",
    "SolverError",
    "solve_c",
    "residual",
    "a_of_omega",
    "write_csv",
    "json_text",
    "write_table",
    "read_table",
    "weighted_reach",
    "RECURSION",
    "CONTRACTION_RATIO",
    "NORM_CONSTANT",
]

# (e^shift, weight) of each term, exact: an atom of weight w at t reads c
# at u + ln(1/t) with weight w t^2
_TERMS = [
    (1 / t, w * t * t)
    for t, w in second_derivative_atoms(kernel_profile(), positive_axis_only=True)
]
# (shift, weight) pairs of the recursion m(u) = sum w c(u + shift)
RECURSION = tuple((math.log(q), float(w)) for q, w in _TERMS)

# operator norm of the fixed-point map's linear part, the dominant term
# isolated: (8/99)(1/8 + 9/2 + 7) = 31/33
CONTRACTION_RATIO = float(sum(abs(w) for _, w in _TERMS) / max(abs(w) for _, w in _TERMS) - 1)
# (8/99) / (1 - 31/33) = -1 / a(0) = 4/3, the explicit sup-norm constant
NORM_CONSTANT = float(-1 / sum(w for _, w in _TERMS))
# value of the symbol at frequency zero: 1/8 + 9/2 - 99/8 + 7
_A_ZERO = float(sum(w for _, w in _TERMS))
# the reach's fixed betas, and ln C(beta) = -ln(-a(+-i beta)) left, then right
_BETA = np.arange(1, 128) / 128
_LOG_C = np.array([
    -np.log(-sum(w * np.exp(side * _BETA * shift) for shift, w in RECURSION)) for side in (-1, 1)
])
# log-axis width over which the kept source is tapered to 0
_TAPER = 4.0
# most padded grid points `solve_c` takes (0.3 GB), 25 times its tests' and benchmark's largest
MAX_GRID_POINTS = 1 << 22
_LN2 = math.log(2.0)


def _weighted_sum(terms, read):
    """Sum of weight * read(shift) over (shift, weight) terms, in place."""
    (shift, weight), *rest = terms
    out = weight * read(shift)
    for shift, weight in rest:
        out += weight * read(shift)
    return out


def _logistic(u):
    """1 / (1 + e^-u), through tanh so no exponential overflows."""
    return 0.5 + 0.5 * np.tanh(0.5 * u)


def _fft_length(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n: a length the transform handles fast."""
    odd = (3**j * 5**k for j in range(n.bit_length()) for k in range(n.bit_length()))
    # each odd part times the smallest power of two that reaches n
    return min(p << (-(-n // p) - 1).bit_length() for p in odd)


def weighted_reach(tol: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """(beta, D) left, then right: source past D moves c by at most (2/3) tol times its sup."""
    reach = (_LOG_C - math.log(0.5 * NORM_CONSTANT * tol)) / _BETA
    best = reach.argmin(axis=1)
    return tuple((float(_BETA[i]), max(0.0, float(row[i]))) for row, i in zip(reach, best))


def _exp_moments(z: float) -> list[float]:
    """phi_k(z) = integral_0^1 s^k e^(-z s) ds for k = 0 .. 3 and z > 0: by
    the power series sum_m (-z)^m / (m! (k + m + 1)) where z <= 1, summed
    until its terms fall below 2^-64, and above 1 by phi_0 = (1 - e^-z) / z
    and phi_k = (k phi_(k-1) - e^-z) / z, which loses at most a factor k!
    there."""
    if z > 1.0:
        phi = [-math.expm1(-z) / z]
        for k in range(1, 4):
            phi.append((k * phi[-1] - math.exp(-z)) / z)
        return phi
    phi = []
    for k in range(4):
        terms, m, power = [], 0, 1.0
        while abs(power) >= 2.0**-64:
            terms.append(power / (k + m + 1))
            m += 1
            power *= -z / m
        phi.append(math.fsum(terms))
    return phi


class SolverError(RuntimeError):
    """Raised when the source term cannot be solved for: `u`, where m
    fails to be finite or to settle, and m's `values` there."""

    def __init__(self, message: str, u: float = None, values: list[float] = None):
        super().__init__(message)
        self.u, self.values = u, values


_HYPOTHESIS = "the representation needs x^3 K''(x) bounded"


@dataclass
class CoefficientTable:
    """Sampled coefficient function c on a uniform log-axis grid.

    gamma(r) = c(ln r), read between the samples through one piecewise
    cubic (`c_at`); outside [u_min, u_max] the table extends by the
    constant tails, u_max being the last sample's grid point.  `iterations`
    and `max_change_ratio` record the sweeps of a contraction solve and the
    largest observed ratio of successive sup-changes, a direct measurement
    of the contraction factor; `solve_c` runs no sweep and records 0 and
    0.0.  These fields are the table's file format: `write_table` puts
    `samples` in the CSV and every other field in the JSON sidecar.
    """

    u_min: float
    u_max: float
    step: float
    samples: np.ndarray
    tail_left: float
    tail_right: float
    residual_sup: float
    iterations: int
    kernel_name: str = ""
    max_change_ratio: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        # u_min = u_max is a one-sample table, which reads correctly
        if not -math.inf < self.u_min <= self.u_max < math.inf:
            raise ValueError(f"need finite u_min <= u_max, got {self.u_min!r}, {self.u_max!r}")
        if not 0 < self.step < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step!r}")
        for name in ("tail_left", "tail_right", "samples"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        # u_max is the last grid point, up to rounding in u_min, step and u_max
        last = self.u_min + (len(self.samples) - 1) * self.step
        if not abs(self.u_max - last) <= 2.0**-48 * (abs(self.u_min) + abs(self.u_max)):
            raise ValueError(
                f"u_max {self.u_max!r} is not the last grid point u_min + (n - 1) step = "
                f"{last!r} of the {len(self.samples)} samples"
            )

    @cached_property
    def grid(self) -> np.ndarray:
        # built once per table: the CSV column, the residual's probes and
        # c_at's two window edges
        return self.u_min + self.step * np.arange(len(self.samples))

    @cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Horner coefficients (s[j], a1, a2, a3) of each cell's cubic
        s[j] + x (a1 + x (a2 + x a3)), x = t - j in [0, 1].

        Cell j's cubic is the Lagrange cubic through samples j - 1 .. j + 2;
        the first and last cells take the one-sided stencils 0 .. 3 and
        n - 4 .. n - 1, and a table of fewer than 4 samples the polynomial
        through all of them.  From the first differences d, the second e
        and the third f: a3 = f / 6 of the cell's stencil, a2 half the
        second difference centred on node j (at node 0 the stencil's,
        e[0] - f[0]) and a1 = d[j] - a2 - a3, so the cubic meets s[j + 1] at
        x = 1 and a run of equal samples has exact zeros.  A last cell of
        zeros after sample n - 1 reads it there.  The differences are
        written in place, into rows of one array.
        """
        s = self.samples
        n = len(s)
        linear, square, cubic = np.zeros((3, n))
        d = np.subtract(s[1:], s[:-1], out=linear[:-1])
        # e[j - 1] is centred on node j, so it lands in cell j
        e = np.subtract(d[1:], d[:-1], out=square[1:-1])
        if n > 3:
            np.subtract(e[1:], e[:-1], out=cubic[1:-2])
            cubic[0], cubic[-2] = cubic[1], cubic[-3]
        if n > 2:
            square[0] = square[1] - cubic[0]
        cubic /= 6
        square /= 2
        linear[:-1] -= square[:-1]
        linear[:-1] -= cubic[:-1]
        return s, linear, square, cubic

    def sup_norm(self) -> float:
        """sup |c| over the whole axis: the samples, the tails and each
        cell's cubic at its interior critical points, the roots of
        a1 + 2 a2 x + 3 a3 x^2 in (0, 1).  Only a cell whose |coefficients|
        add up past the rest can rise above it, so a constant table gives
        its constant."""
        s, a1, a2, a3 = self._cells
        top = max(float(np.max(np.abs(s))), abs(self.tail_left), abs(self.tail_right))
        j = np.flatnonzero(np.abs(s) + np.abs(a1) + np.abs(a2) + np.abs(a3) > top)
        s, a1, a2, a3 = s[j], a1[j], a2[j], a3[j]
        disc = a2 * a2 - 3.0 * a3 * a1
        with np.errstate(divide="ignore", invalid="ignore"):
            # the stable pair of roots; a3 = 0 leaves the linear one, -a1 / (2 a2)
            q = -(a2 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), a2))
            roots = (q / (3.0 * a3), a1 / q)
        for x in roots:
            k = np.flatnonzero((disc >= 0.0) & (x > 0.0) & (x < 1.0))
            x = x[k]
            critical = s[k] + x * (a1[k] + x * (a2[k] + x * a3[k]))
            top = max(top, float(np.max(np.abs(critical), initial=0.0)))
        return top

    @cached_property
    def _q_cells(self) -> tuple[np.ndarray, ...]:
        """Per cell j, Q on it as P_j(x) + C_j e^(h x), x = (u - u_j) / h in
        [0, 1] (see `q_at`): the Horner coefficients of P_j = c + c' + c''
        + c''' (derivatives in u), the particular solution of Q' = Q - c
        for the cell's cubic, then C_j = Q(u_j) - P_j(0) and Q(u_j).

        Q(u_j) comes from the exact integral of c(t) e^-(t - u_j) over
        each cell, m_j = h sum_k a_k phi_k(h) on the cubic's Horner
        coefficients a_k, by the recurrence Q(u_j) = m_j + e^-h Q(u_(j+1))
        from Q = tail_right at u_max.  It runs as a reversed cumulative sum
        over blocks of at most 32 log units, so the weights e^(h i) within
        a block stay below e^32.
        """
        s, a1, a2, a3 = self._cells
        h, n = self.step, len(s)
        phi = _exp_moments(h)
        m = h * (s[:-1] * phi[0] + a1[:-1] * phi[1] + a2[:-1] * phi[2] + a3[:-1] * phi[3])
        q = np.empty(n)
        q[-1] = self.tail_right
        block = max(1, int(32.0 / h))
        for stop in range(n - 1, 0, -block):
            start = max(0, stop - block)
            decay = np.exp(-h * np.arange(stop - start + 1))
            weighted = np.append(m[start:stop] * decay[:-1], decay[-1] * q[stop])
            q[start:stop] = np.cumsum(weighted[::-1])[:0:-1] / decay[:-1]
        # d/du of x^k is k x^(k - 1) / h
        b3 = a3
        b2 = a2 + 3.0 * a3 / h
        b1 = a1 + (2.0 * a2 + 6.0 * a3 / h) / h
        b0 = s + (a1 + (2.0 * a2 + 6.0 * a3 / h) / h) / h
        return b0, b1, b2, b3, q - b0, q

    def q_at(self, v):
        """Q(v) = e^v integral_v^inf c(t) e^-t dt, the weighted mean of c
        above v, exactly for the table's piecewise cubic and its tails.

        Q is bounded by sup |c| and solves Q' = Q - c.  From u_max up it
        is tail_right; below u_min it is tail_left + e^(v - u_min)
        (Q(u_min) - tail_left); on cell j it is P_j(x) + C_j e^(h x)
        (`_q_cells`).  Its rounding error is a few hundred ulps of sup |c|
        at the default step, from the node recurrence, whose error grows
        like 1 / (1 - e^-h) ulps, plus a few ulps of |c'''| from P_j.
        """
        v = np.asarray(v, dtype=float)
        b0, b1, b2, b3, weight, nodes = self._q_cells
        h, n = self.step, len(nodes)
        past = v - self.u_min
        t = np.clip(past / h, -1.0, n)
        j = np.clip(np.floor(t), 0, max(n - 2, 0)).astype(np.intp)
        x = np.clip(t - j, 0.0, 1.0)
        inside = b0[j] + x * (b1[j] + x * (b2[j] + x * b3[j])) + weight[j] * np.exp(h * x)
        below = self.tail_left + np.exp(np.minimum(past, 0.0)) * (nodes[0] - self.tail_left)
        out = np.where(t >= n - 1, self.tail_right, np.where(t < 0.0, below, inside))
        return out if out.ndim else float(out)

    @cached_property
    def _c_integral_cells(self) -> tuple[np.ndarray, ...]:
        """Horner coefficients of each cell's integral of its cubic,
        h x (s + x (a1/2 + x (a2/3 + x a3/4))), then its value at the cell's
        start: the sum of the cells before."""
        s, a1, a2, a3 = self._cells
        h = self.step
        b1, b2, b3, b4 = h * s, h * a1 / 2, h * a2 / 3, h * a3 / 4
        return b1, b2, b3, b4, np.concatenate(([0.0], np.cumsum((b1 + b2 + b3 + b4)[:-1])))

    def c_integral(self, v):
        """integral_u_min^v c(t) dt, exactly for the piecewise cubic
        (`_c_integral_cells`) and, outside the window, the constant tails."""
        b1, b2, b3, b4, nodes = self._c_integral_cells
        v = np.asarray(v, dtype=float)
        past = v - self.u_min
        t = np.clip(past / self.step, 0.0, len(nodes) - 1)
        j = np.minimum(t, max(len(nodes) - 2, 0)).astype(np.intp)
        x = t - j
        out = nodes[j] + x * (b1[j] + x * (b2[j] + x * (b3[j] + x * b4[j])))
        out += self.tail_left * np.minimum(past, 0.0)
        return out + self.tail_right * np.maximum(v - self.u_max, 0.0)

    @cached_property
    def _mirror(self) -> CoefficientTable:
        """The table reflected about u = 0."""
        return CoefficientTable(-self.u_max, -self.u_min, self.step, self.samples[::-1],
                                self.tail_right, self.tail_left, 0.0, 0)

    def p_at(self, v):
        """P(v) = e^-v integral_-inf^v c(t) e^t dt, the mirror image of
        `q_at`: Q of the reflected table (`_mirror`) at -v."""
        return self._mirror.q_at(-np.asarray(v, dtype=float))

    def _cubic(self, t: np.ndarray, finite: bool = True) -> np.ndarray:
        """The cell cubic at grid coordinates t = (u - u_min) / step in
        [0, n - 1], cell j = t truncated, written over t and returned;
        unless `finite`, a NaN reads cell 0 and stays NaN."""
        j = scratch("c_at.j", t.shape, np.intp)
        acc, gathered = scratch("c_at.acc", t.shape), scratch("c_at.gathered", t.shape)
        np.copyto(j, t if finite else np.fmax(t, 0.0, out=gathered), casting="unsafe")
        t -= j
        s, a1, a2, a3 = self._cells
        np.take(a3, j, out=acc, mode="clip")
        acc *= t
        acc += np.take(a2, j, out=gathered, mode="clip")
        acc *= t
        acc += np.take(a1, j, out=gathered, mode="clip")
        t *= acc
        t += np.take(s, j, out=gathered, mode="clip")
        return t

    def c_at(self, u):
        """c(u) by piecewise cubic interpolation, constant tails outside the
        window.

        The cell is found by index arithmetic on the uniform grid, not by
        a search: with t = (u - u_min) / step clipped to [0, n - 1] and
        j = t truncated, c is cell j's Lagrange cubic through samples
        j - 1 .. j + 2 (one-sided in the first and last cells; see
        `_cells`) at x = t - j, in Horner form.  The interpolant is
        continuous, and its error is of order step^4 times the fourth
        derivative of c.  Every grid node reads its sample exactly when
        u_min and step are dyadic, and a constant table reads its constant
        everywhere.  Below grid[0] and above grid[-1] the tails apply, as
        np.interp's left/right do; NaN gives NaN, and a scalar gives a
        float.  The clip comes before any product, so +-inf reads a tail
        with no inf * 0, and the tail selection runs only when some u lies
        outside the window or is NaN.

        Away from underflow, the result is within

            2^-52 * (16 (n + 4) max|s[j+1] - s[j]| + 4 max|s|)

        of the exact piecewise cubic through (u_min + j step, s[j]), n
        being the sample count: the rounding of t moves it by at most
        2^-52 n cells, along which the cubic's slope is below 13 times the
        largest first difference, and the coefficients and the Horner
        steps add a few roundings of the differences and of |s|.
        """
        u = np.asarray(u, dtype=float)
        grid = self.grid
        # False when some u is NaN, as min and max propagate it
        inside = not u.size or (u.min() >= grid[0] and u.max() <= grid[-1])
        t = np.subtract(u, self.u_min, out=np.empty(u.shape))
        t /= self.step
        np.clip(t, 0.0, len(self.samples) - 1, out=t)
        self._cubic(t, finite=inside)
        if not inside:
            np.putmask(t, u < grid[0], self.tail_left)
            np.putmask(t, u > grid[-1], self.tail_right)
        return t if u.ndim else float(t)


def _detect_tail(mfun, u_edge: float, direction: int) -> tuple[bool, list[float]]:
    """Probe m for a flat limit just inside u_edge: whether it is flat, and
    m at u_edge and 0.5, 1 and 2 inside."""
    probes = u_edge - direction * np.array([0.0, 0.5, 1.0, 2.0])
    vals = np.asarray(mfun(probes), dtype=float)
    flat = np.all(np.abs(vals - vals[0]) <= 1e-9 * (1.0 + np.abs(vals[0])))
    return bool(flat), vals.tolist()


def solve_c(
    spec: KernelSpec,
    window: tuple[float, float] = (-14.0, 14.0),
    step: float = 2.0**-9,
    tol: float = 1e-8,
) -> CoefficientTable:
    """Solve the coefficient recursion on a window of the log axis, by one
    division by the symbol (see the module docstring).

    Parameters
    ----------
    spec : KernelSpec
        Kernel whose source term m drives the recursion.
    window : (u_min, u_max)
        Log-axis range on which the returned table is sampled, from u_min
        in whole steps to the grid point nearest u_max; the table records
        that point as its u_max.
    step : float
        Uniform grid step.  The transform solves exactly for the
        trigonometric interpolant of the sampled source; the returned
        residual carries the table's cubic-interpolation term, of order
        step^4 times the fourth derivative of c.
    tol : float
        Accuracy target, at least 2^-52.  Dropping the source where
        |f| <= (3/4) tol moves c by at most tol, and padding each side by
        its `weighted_reach(tol)` keeps the effect of the source beyond
        (and the taper and periodic images put there) to (2/3) tol times
        its sup per side.

    Raises
    ------
    ValueError
        If the window, step or tol is out of range, or the padded grid
        would pass MAX_GRID_POINTS, before any array is made.
    SolverError
        If the source term breaks the paper's hypothesis that x^3 K''(x)
        is bounded: m is not finite on the padded window, or the kernel
        has no m_eval and m has not settled at +-GENERIC_GUARD, beyond
        which the generic route holds it, whatever the window.
    """
    u_min, u_max = float(window[0]), float(window[1])
    if not -math.inf < u_min < u_max < math.inf:
        raise ValueError("window must be finite with u_min < u_max")
    if not 0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    if not 2.0**-52 <= tol < math.inf:
        raise ValueError(
            f"tol must be finite and tol >= 2^-52, got {tol!r}: "
            "the padding grows like log(1/tol)"
        )

    reach = [d for _, d in weighted_reach(tol)]
    # in floats, which overflow to inf where the count has no int
    points = (u_max - u_min + sum(reach) + 2.0 * _TAPER) / step
    if not points <= MAX_GRID_POINTS:
        raise ValueError(f"window ({u_min:g}, {u_max:g}) at step {step:g} pads to about "
                         f"{points:.3g} grid points, above the bound 2^22 = {MAX_GRID_POINTS}")
    mfun = partial(m_of, spec)
    margin = max(1, math.ceil(_TAPER / step))
    n_left, n_right = (math.ceil(d / step) + margin for d in reach)
    n_window = round((u_max - u_min) / step)
    grid = u_min + step * np.arange(-n_left, n_window + n_right + 1)

    m = np.asarray(mfun(grid), dtype=float)
    bad = np.flatnonzero(~np.isfinite(m))
    if bad.size:
        u, value = float(grid[bad[0]]), float(m[bad[0]])
        raise SolverError(f"source term m is not finite on the padded window, first at "
                          f"u = {u!r}: {_HYPOTHESIS}", u, [value])
    # the generic route holds m at its value at the guard, wherever the grid ends
    for side in (-1, 1) if spec.m_eval is None else ():
        flat, values = _detect_tail(mfun, side * GENERIC_GUARD, side)
        if not flat:
            raise SolverError(
                f"m(u) = x^3 K''(x) at x = e^u has not settled by u = {side * GENERIC_GUARD:g}, "
                f"beyond which the generic route holds it: {_HYPOTHESIS}, with a limit there; "
                "supply m_eval", side * GENERIC_GUARD, values)
    (flat_l, (m_left, *_)), (flat_r, (m_right, *_)) = (
        _detect_tail(mfun, grid[0], direction=-1), _detect_tail(mfun, grid[-1], direction=+1))
    # b steps between the solutions for constant m, m / a(0) = -(4/3) m
    b_left, b_right = m_left / _A_ZERO, m_right / _A_ZERO
    centre = 0.5 * (u_min + u_max)
    f = m - _A_ZERO * b_left
    if b_right != b_left:
        f -= (b_right - b_left) * _weighted_sum(
            RECURSION, lambda shift: _logistic(grid + shift - centre)
        )
    samples = b_left + (b_right - b_left) * _logistic(grid[n_left : n_left + n_window + 1] - centre)

    # trim: the source kept runs from the first to the last |f| above
    # tol / NORM_CONSTANT, and at least over the window
    kept = np.flatnonzero(np.abs(f) > tol / NORM_CONSTANT)
    if kept.size:
        # Python ints: _fft_length takes bit lengths
        lo = max(min(int(kept[0]), n_left), margin)
        hi = min(max(int(kept[-1]), n_left + n_window), len(grid) - 1 - margin)
        # taper over the margin outside [lo, hi]: there |f| is below the
        # trim threshold or the grid point is past the reach
        piece = f[lo - margin : hi + margin + 1]
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(margin) / margin)
        piece[:margin] *= ramp
        piece[-margin:] *= ramp[::-1]
        # periodic images of the piece start past both ends of the grid
        start = lo - margin
        n_fft = _fft_length(max(len(grid) - start, hi + margin + 1))
        spectrum = np.fft.rfft(piece, n_fft)
        spectrum /= a_of_omega(2 * np.pi / (n_fft * step) * np.arange(spectrum.size))
        d = np.fft.irfft(spectrum, n_fft)
        samples += d[n_left - start : n_left - start + n_window + 1]

    table = CoefficientTable(
        u_min=u_min,
        u_max=u_min + n_window * step,
        step=step,
        samples=samples,
        tail_left=b_left if flat_l else float(samples[0]),
        tail_right=b_right if flat_r else float(samples[-1]),
        residual_sup=0.0,
        iterations=0,
        kernel_name=spec.name,
    )
    table.residual_sup = residual(table, spec)
    return table


def residual(table: CoefficientTable, spec: KernelSpec) -> float:
    """Sup-norm defect of the recursion over the table's grid.

    Substitutes the interpolated table into the four-term equation at the
    window grid points whose largest shifted read, u + ln 4, stays inside
    the window, so tails never mask the defect; a window narrower than
    ln 4 has no such point, and the defect reads 0.0.  The shifted reads
    fall between grid points, where `c_at`'s cubic adds an error of order
    step^4, so the defect is that term plus the solve's own error.
    """
    grid = table.grid
    reach = max(shift for shift, _ in RECURSION)
    probes = grid[grid + reach <= table.u_max + 1e-12]
    if probes.size == 0:
        return 0.0
    lhs = _weighted_sum(RECURSION, lambda shift: table.c_at(probes + shift))
    m_vals = np.asarray(m_of(spec, probes), dtype=float)
    return float(np.max(np.abs(m_vals - lhs)))


def _unit_wave(x) -> np.ndarray:
    """e^(i x) as cos x and sin x written into its parts: np.exp's bits, faster."""
    out = np.empty(np.shape(x), complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def a_of_omega(omega):
    """The trigonometric symbol of the recursion at frequency omega."""
    w = np.asarray(omega, dtype=float)
    # e^(i omega 0) = 1: the zero shift adds its weight, with no exp
    out = _weighted_sum(RECURSION, lambda shift: _unit_wave(w * shift) if shift else 1.0)
    return out if out.ndim else complex(out)


def modulus_chunks(size: int, omega_at: Callable[[np.ndarray], np.ndarray]):
    """Yield (omega, |a(omega)|) for omega = omega_at(k), k = 0 .. size - 1.

    Works through 2^19 indices at a time, so a scan of any length runs in
    bounded memory.
    """
    for start in range(0, size, 1 << 19):
        omega = omega_at(np.arange(start, min(start + (1 << 19), size)))
        yield omega, np.abs(a_of_omega(omega))


# ---------------------------------------------------------------------------
# serialization: the one CSV and the one JSON format of every output

# rows `write_csv` formats at once, so a file of any length takes bounded
# memory: adiag's default scan of 2,000,001 rows peaks at 72 MB
_CSV_ROWS = 1 << 12


def write_csv(fh, header, *columns, newline: str = "\r\n") -> None:
    """Write float `columns` under `header` (no header line if empty) to `fh`,
    each float .17g so it reads back exactly: the bytes csv.writer writes,
    rows ending in `newline`, CRLF as csv.writer's default or "\n" for a
    terminal."""
    if header:
        fh.write(",".join(header) + newline)
    row = ",".join(["%.17g"] * len(columns)) + newline
    for start in range(0, len(columns[0]), _CSV_ROWS):
        piece = np.column_stack([column[start : start + _CSV_ROWS] for column in columns])
        fh.write(row * len(piece) % tuple(piece.ravel().tolist()))


def json_text(payload) -> str:
    """`payload` as JSON: two-space indent, sorted keys, one trailing
    newline, numpy arrays as lists."""
    return json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"


def _sidecar_fields():
    """The fields the JSON sidecar carries: all but the CSV's samples."""
    return [f for f in fields(CoefficientTable) if f.name != "samples"]


def _table_paths(base_path: str | Path) -> tuple[Path, Path]:
    """`<base>.csv` and `<base>.json`, appended: a dotted base keeps its last part."""
    return Path(f"{base_path}.csv"), Path(f"{base_path}.json")


def write_table(table: CoefficientTable, base_path: str | Path, extra: dict | None = None) -> tuple[Path, Path]:
    """Write `<base>.csv` (columns u, c) and `<base>.json` (metadata).

    `extra` entries are merged into the sidecar (the CLI's provenance); a
    key that names a table field raises `ValueError`, since it would change
    the table read back.
    """
    clash = sorted({f.name for f in _sidecar_fields()} & set(extra or ()))
    if clash:
        raise ValueError(f"extra sidecar keys {clash} would overwrite table fields")
    csv_path, json_path = _table_paths(base_path)
    with open(csv_path, "w", newline="") as fh:
        write_csv(fh, ("u", "c"), table.grid, table.samples)
    meta = {f.name: getattr(table, f.name) for f in _sidecar_fields()}
    meta.update(extra or {})
    json_path.write_text(json_text(meta))
    return csv_path, json_path


def read_table(base_path: str | Path) -> CoefficientTable:
    """Read a table written by `write_table`.

    Each sidecar field must hold its declared type as JSON: a float field
    a number (an int or a float, not a bool), an int field an int, a str
    field a str.  A field with a default may be missing.  A missing or
    wrongly typed field raises `ValueError` naming it.
    """
    csv_path, json_path = _table_paths(base_path)
    with open(json_path) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"table sidecar {json_path} is not a JSON object")
    types = get_type_hints(CoefficientTable)
    values = {}
    for f in _sidecar_fields():
        if f.name not in meta:
            if f.default is MISSING:
                raise ValueError(f"table sidecar {json_path} has no field {f.name!r}")
            continue
        kind, value = types[f.name], meta[f.name]
        allowed = (int, float) if kind is float else kind
        try:
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise TypeError
            # an int too large for a float field overflows
            values[f.name] = kind(value)
        except (TypeError, OverflowError):
            raise ValueError(
                f"table sidecar {json_path} field {f.name!r} must be of type {kind.__name__}, "
                f"got {value!r}"
            ) from None
    with open(csv_path, "rb") as fh:
        header = fh.readline().decode(errors="replace").rstrip("\r\n").split(",")
        if header[:2] != ["u", "c"]:
            raise ValueError(f"unexpected table header {header!r}")
        # every row ends with a newline, so a table cut short mid-number is not read as whole
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) != b"\n":
            raise ValueError(
                f"table {csv_path} does not end with a newline "
                "(a table cut short, or a last row without one)"
            )
    try:
        # from the path, which loadtxt reads faster than an open handle
        samples = np.loadtxt(csv_path, delimiter=",", usecols=1, ndmin=1, skiprows=1)
    except ValueError as exc:
        raise ValueError(f"table {csv_path}: {exc}") from None
    return CoefficientTable(samples=samples, **values)
