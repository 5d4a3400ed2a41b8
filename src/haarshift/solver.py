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
series is a sum over words of steps, each ln 3 up or ln(4/3) down at most,
and bounds c by (8/99)/(1 - 31/33) = 4/3 (`NORM_CONSTANT`) times the sup
of the source.  That expansion certifies the spectral solve:

- reach: the words of k or more steps carry at most (31/33)^k, and the
  shorter ones read the source within k ln(4/3) below and k ln 3 above the
  window.  `solve_c` samples it over that reach, with the smallest k for
  which (31/33)^k <= tol, tapers it to 0 past the reach over a fixed
  margin, and makes the transform long enough that its periodic images
  lie past the reach too.
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

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .kernels import KernelSpec, m_of
from .piecewise import kernel_profile, second_derivative_atoms

__all__ = [
    "CoefficientTable",
    "SolverError",
    "solve_c",
    "residual",
    "gamma_at",
    "a_of_omega",
    "min_modulus_scan",
    "write_table",
    "read_table",
    "RECURSION",
    "CONTRACTION_RATIO",
    "NORM_CONSTANT",
]

# (e^shift, weight) of each term, exact: an atom of weight w at t reads c
# at u + ln(1/t) with weight w t^2
_TERMS = [
    (1 / t, w * t * t)
    for t, w in second_derivative_atoms(kernel_profile(), positive_axis_only=True).atoms
]
# (shift, weight) pairs of the recursion m(u) = sum w c(u + shift)
RECURSION = tuple((math.log(q), float(w)) for q, w in _TERMS)

# isolating the dominant term leaves the others at exact ratios q of its
# shift: one word step reads ln(max q) up or ln(1 / min q) down
_DOM_Q, _DOM_W = max(_TERMS, key=lambda term: abs(term[1]))
_OTHERS = [(q / _DOM_Q, w) for q, w in _TERMS if q != _DOM_Q]
_RATIO = sum(abs(w) for _, w in _OTHERS) / abs(_DOM_W)
_REACH_UP = math.log(max(q for q, _ in _OTHERS))
_REACH_DOWN = math.log(1 / min(q for q, _ in _OTHERS))

# operator norm of the fixed-point map's linear part: (8/99)(1/8 + 9/2 + 7) = 31/33
CONTRACTION_RATIO = float(_RATIO)
# (8/99) / (1 - 31/33) = 4/3, the explicit sup-norm constant
NORM_CONSTANT = float(1 / abs(_DOM_W) / (1 - _RATIO))
# value of the symbol at frequency zero: 1/8 + 9/2 - 99/8 + 7
_A_ZERO = float(sum(w for _, w in _TERMS))
# log-axis width over which the kept source is tapered to 0
_TAPER = 4.0


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


class SolverError(RuntimeError):
    """Raised when the source term cannot be solved for."""


@dataclass
class CoefficientTable:
    """Sampled coefficient function c on a uniform log-axis grid.

    gamma(r) = c(ln r); outside [u_min, u_max] the table extends by the
    constant tails.  `iterations` and `max_change_ratio` record the sweeps
    of a contraction solve and the largest observed ratio of successive
    sup-changes, a direct measurement of the contraction factor; `solve_c`
    runs no sweep and records 0 and 0.0.
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
        expected = round((self.u_max - self.u_min) / self.step) + 1
        if len(self.samples) != expected:
            raise ValueError(
                f"sample count {len(self.samples)} does not match window/step "
                f"(expected {expected})"
            )

    @cached_property
    def grid(self) -> np.ndarray:
        # built once per table: c_at interpolates on it at every call
        return self.u_min + self.step * np.arange(len(self.samples))

    def sup_norm(self) -> float:
        return max(
            float(np.max(np.abs(self.samples))), abs(self.tail_left), abs(self.tail_right)
        )

    def c_at(self, u):
        """c(u) by linear interpolation, constant tails outside the window."""
        u = np.asarray(u, dtype=float)
        out = np.interp(u, self.grid, self.samples, left=self.tail_left, right=self.tail_right)
        return out if out.ndim else float(out)


def gamma_at(table: CoefficientTable, r):
    """gamma(r) = c(ln r) for r > 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("gamma is defined for positive interval lengths only")
    out = table.c_at(np.log(r))
    return out if np.ndim(out) else float(out)


def _detect_tail(mfun, u_edge: float, direction: int) -> tuple[bool, float]:
    """Probe m for a flat limit just inside the padded edge."""
    probes = u_edge - direction * np.array([0.0, 0.5, 1.0, 2.0])
    vals = np.asarray(mfun(probes), dtype=float)
    flat = np.all(np.abs(vals - vals[0]) <= 1e-9 * (1.0 + np.abs(vals[0])))
    return bool(flat), float(vals[0])


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
        Log-axis range on which the returned table is sampled.
    step : float
        Uniform grid step.  The transform solves exactly for the
        trigonometric interpolant of the sampled source; the returned
        residual carries the table's linear-interpolation term, of order
        step^2 times the curvature of c.
    tol : float
        Accuracy target, at least 2^-52.  Dropping the source where
        |f| <= (3/4) tol moves c by at most tol, and the grid is padded so
        far that the source beyond it (and the taper and periodic images
        put there) moves c by at most (4/3) tol times its sup.

    Raises
    ------
    SolverError
        If m is not finite on the padded window.
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

    mfun = partial(m_of, spec)
    # reach: words of k or more steps carry at most ratio^k <= tol of the
    # source; the shorter ones read it within k steps down and up
    k = max(0, math.ceil(math.log(tol) / math.log(CONTRACTION_RATIO)))
    margin = max(1, math.ceil(_TAPER / step))
    n_left = math.ceil(k * _REACH_DOWN / step) + margin
    n_window = round((u_max - u_min) / step)
    n_right = math.ceil(k * _REACH_UP / step) + margin
    grid = u_min + step * np.arange(-n_left, n_window + n_right + 1)
    window_grid = grid[n_left : n_left + n_window + 1]

    m = np.asarray(mfun(grid), dtype=float)
    if not np.all(np.isfinite(m)):
        raise SolverError("source term m is not finite on the padded window")

    flat_l, m_left = _detect_tail(mfun, grid[0], direction=-1)
    flat_r, m_right = _detect_tail(mfun, grid[-1], direction=+1)
    # b steps between the solutions for constant m, m / a(0) = -(4/3) m
    b_left, b_right = m_left / _A_ZERO, m_right / _A_ZERO
    centre = 0.5 * (u_min + u_max)
    f = m - _A_ZERO * b_left
    if b_right != b_left:
        f -= (b_right - b_left) * _weighted_sum(
            RECURSION, lambda shift: _logistic(grid + shift - centre)
        )
    samples = b_left + (b_right - b_left) * _logistic(window_grid - centre)

    # trim: the source kept runs from the first to the last |f| above
    # tol / NORM_CONSTANT, and at least over the window
    kept = np.flatnonzero(np.abs(f) > tol / NORM_CONSTANT)
    if kept.size:
        lo = max(min(kept[0], n_left), margin)
        hi = min(max(kept[-1], n_left + n_window), len(grid) - 1 - margin)
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
        u_max=u_max,
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


def residual(
    table: CoefficientTable,
    spec: KernelSpec,
    probe_points: Sequence[float] | np.ndarray | None = None,
) -> float:
    """Sup-norm defect of the recursion over probe points.

    Substitutes the interpolated table into the four-term equation.  The
    default probes are the window grid points whose largest shifted read,
    u + ln 4, stays inside the window, so tails never mask the defect.
    """
    if probe_points is None:
        grid = table.grid
        reach = max(shift for shift, _ in RECURSION)
        probe_points = grid[grid + reach <= table.u_max + 1e-12]
    probes = np.asarray(probe_points, dtype=float)
    if probes.size == 0:
        return 0.0
    lhs = _weighted_sum(RECURSION, lambda shift: table.c_at(probes + shift))
    m_vals = np.asarray(m_of(spec, probes), dtype=float)
    return float(np.max(np.abs(m_vals - lhs)))


def a_of_omega(omega):
    """The trigonometric symbol of the recursion at frequency omega."""
    w = np.asarray(omega, dtype=float)
    out = _weighted_sum(RECURSION, lambda shift: np.exp(1j * w * shift))
    return out if out.ndim else complex(out)


def modulus_chunks(size: int, omega_at: Callable[[np.ndarray], np.ndarray]):
    """Yield (omega, |a(omega)|) for omega = omega_at(k), k = 0 .. size - 1.

    Works through 2^19 indices at a time, so a scan of any length runs in
    bounded memory.
    """
    for start in range(0, size, 1 << 19):
        omega = omega_at(np.arange(start, min(start + (1 << 19), size)))
        yield omega, np.abs(a_of_omega(omega))


def min_modulus_scan(omega_grid) -> float:
    """Minimum of |a(omega)| over a grid, evaluated in chunks."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    chunks = modulus_chunks(omega_grid.size, omega_grid.__getitem__)
    return min((float(np.min(mod)) for _, mod in chunks), default=np.inf)


# ---------------------------------------------------------------------------
# serialization: CSV table plus JSON sidecar


def write_table(table: CoefficientTable, base_path: str | Path, extra: dict | None = None) -> tuple[Path, Path]:
    """Write `<base>.csv` (columns u, c) and `<base>.json` (metadata).

    Floats are written with repr-level precision so a read-back compares
    exactly equal.  `extra` entries are merged into the sidecar (used by the
    CLI for provenance).
    """
    base = Path(base_path)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    grid = table.grid
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "c"])
        for u, v in zip(grid, table.samples):
            writer.writerow([format(u, ".17g"), format(v, ".17g")])
    meta = {
        "u_min": table.u_min,
        "u_max": table.u_max,
        "step": table.step,
        "tail_left": table.tail_left,
        "tail_right": table.tail_right,
        "residual_sup": table.residual_sup,
        "iterations": table.iterations,
        "kernel_name": table.kernel_name,
        "max_change_ratio": table.max_change_ratio,
    }
    if extra:
        meta.update(extra)
    with open(json_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def read_table(base_path: str | Path) -> CoefficientTable:
    """Read a table written by `write_table`."""
    base = Path(base_path)
    with open(base.with_suffix(".json")) as fh:
        meta = json.load(fh)
    samples = []
    with open(base.with_suffix(".csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["u", "c"]:
            raise ValueError(f"unexpected table header {header!r}")
        for row in reader:
            samples.append(float(row[1]))
    return CoefficientTable(
        u_min=float(meta["u_min"]),
        u_max=float(meta["u_max"]),
        step=float(meta["step"]),
        samples=np.asarray(samples),
        tail_left=float(meta["tail_left"]),
        tail_right=float(meta["tail_right"]),
        residual_sup=float(meta["residual_sup"]),
        iterations=int(meta["iterations"]),
        kernel_name=str(meta.get("kernel_name", "")),
        max_change_ratio=float(meta.get("max_change_ratio", 0.0)),
    )
