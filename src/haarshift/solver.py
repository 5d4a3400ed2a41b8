"""Contraction solver for the four-term shifted coefficient recursion.

The averaged-grid representation reduces to a linear functional equation on
the log axis: with m(u) = e^(3u) K''(e^u) and c(u) the coefficient function
in log scale,

    m(u) = (1/8) c(u + ln 4) + (9/2) c(u + ln 2) - (99/8) c(u + ln(4/3)) + 7 c(u).

The 99/8 term dominates the other three (12 3/8 against 11 5/8), so
isolating it gives an affine map

    c(u) = (8/99) [ (1/8) c(u + ln 3) + (9/2) c(u + ln(3/2))
                    + 7 c(u - ln(4/3)) - m(u - ln(4/3)) ]

whose linear part has operator norm (8/99)(1/8 + 9/2 + 7) = 31/33 < 1.
Iterating it from any bounded start converges geometrically; the limit is
bounded by (8/99)/(1 - 31/33) = 4/3 times ||m||_inf.  This module iterates
on a uniform grid wide enough that, over max_iter sweeps, information from
beyond the padding can never reach the requested window.

Shifted reads at the irrational offsets use linear interpolation; since the
offsets are the same for every grid point, each read is one weighted pair
of slices.  Beyond the padded grid the iterate is extended by constants:
the fixed point of the recursion with m frozen at its detected limit
(c_tail = -(4/3) m_limit), or a plain clamp when m has no flat limit.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .kernels import KernelSpec, m_of

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
    "CONTRACTION_RATIO",
    "NORM_CONSTANT",
]

SHIFT_A = math.log(3.0)        # ln 3
SHIFT_B = math.log(1.5)        # ln(3/2)
SHIFT_C = math.log(4.0 / 3.0)  # ln(4/3), the downward shift
_LN4 = math.log(4.0)
_LN2 = math.log(2.0)

# (8/99)(1/8 + 9/2 + 7) = 31/33; the dominant coefficient is 99/8
CONTRACTION_RATIO = 31.0 / 33.0
# (8/99) / (1 - 31/33) = 4/3, the explicit sup-norm constant
NORM_CONSTANT = 4.0 / 3.0
# value of the symbol at frequency zero: 1/8 + 9/2 - 99/8 + 7
_A_ZERO = -0.75


class SolverError(RuntimeError):
    """Raised when the iteration cannot certify a solution."""

    def __init__(self, message: str, last_residual: float | None = None):
        super().__init__(message)
        self.last_residual = last_residual


@dataclass
class CoefficientTable:
    """Sampled coefficient function c on a uniform log-axis grid.

    gamma(r) = c(ln r); outside [u_min, u_max] the table extends by the
    constant tails.  `max_change_ratio` is the largest observed ratio of
    successive sup-changes of the iteration, a direct measurement of the
    contraction factor.
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

    @property
    def grid(self) -> np.ndarray:
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
    max_iter: int = 600,
) -> CoefficientTable:
    """Solve the coefficient recursion on a window of the log axis.

    Parameters
    ----------
    spec : KernelSpec
        Kernel whose source term m drives the recursion.
    window : (u_min, u_max)
        Log-axis range on which the returned table is sampled.
    step : float
        Uniform grid step.  The returned residual carries an interpolation
        term of order step^2 times the curvature of c.
    tol : float
        Target for the iteration tail: sweeps stop once the sup-change
        drops below tol * (1 - 31/33), which bounds the remaining
        geometric tail by tol.
    max_iter : int
        Sweep budget; also sets the padding, so raising it both allows and
        pays for longer transients.

    Raises
    ------
    SolverError
        If m is not finite on the padded window or the sweep budget is
        exhausted before the sup-change target.
    """
    u_min, u_max = float(window[0]), float(window[1])
    if not (u_min < u_max):
        raise ValueError("window must satisfy u_min < u_max")
    if step <= 0 or tol <= 0:
        raise ValueError("step and tol must be positive")

    def mfun(u):
        return m_of(spec, u)

    # padding: upward shifts reach at most max_iter * ln3 to the right of the
    # window over the whole run, the downward shift max_iter * ln(4/3) left
    pad_left = max_iter * SHIFT_C
    pad_right = max_iter * SHIFT_A
    n_left = int(np.ceil(pad_left / step))
    n_right = int(np.ceil((u_max - u_min + pad_right) / step))
    grid = (u_min - n_left * step) + step * np.arange(n_left + n_right + 1)
    n = len(grid)

    m_arr = np.asarray(mfun(grid - SHIFT_C), dtype=float)
    if not np.all(np.isfinite(m_arr)):
        raise SolverError("source term m is not finite on the padded window")

    flat_l, m_left = _detect_tail(mfun, grid[0], direction=-1)
    flat_r, m_right = _detect_tail(mfun, grid[-1], direction=+1)
    # fixed point of the recursion with constant m: c = m / a(0) = -(4/3) m
    tail_left = m_left / _A_ZERO if flat_l else None
    tail_right = m_right / _A_ZERO if flat_r else None

    c = np.where(
        grid < 0.5 * (grid[0] + grid[-1]),
        tail_left if tail_left is not None else 0.0,
        tail_right if tail_right is not None else 0.0,
    ).astype(float)

    # one pad block per side for the slice reads; ln3 is the widest shift
    pad = int(np.ceil(SHIFT_A / step)) + 2

    def shifted(c_ext: np.ndarray, offset: float) -> np.ndarray:
        # same fractional part at every grid point: one lerp of two slices
        f = int(np.floor(offset / step))
        w = offset / step - f
        i0 = pad + f
        return (1.0 - w) * c_ext[i0 : i0 + n] + w * c_ext[i0 + 1 : i0 + 1 + n]

    stop = tol * (1.0 - CONTRACTION_RATIO)
    prev_change = None
    max_ratio = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        ext_l = tail_left if tail_left is not None else c[0]
        ext_r = tail_right if tail_right is not None else c[-1]
        c_ext = np.concatenate([np.full(pad, ext_l), c, np.full(pad, ext_r)])
        c_new = (8.0 / 99.0) * (
            0.125 * shifted(c_ext, SHIFT_A)
            + 4.5 * shifted(c_ext, SHIFT_B)
            + 7.0 * shifted(c_ext, -SHIFT_C)
            - m_arr
        )
        change = float(np.max(np.abs(c_new - c)))
        if prev_change is not None and prev_change > 0:
            max_ratio = max(max_ratio, change / prev_change)
        prev_change = change
        c = c_new
        if change < stop:
            converged = True
            break

    window_mask = (grid >= u_min - 1e-12) & (grid <= u_max + 1e-12)
    samples = c[window_mask].copy()
    table = CoefficientTable(
        u_min=u_min,
        u_max=u_max,
        step=step,
        samples=samples,
        tail_left=tail_left if tail_left is not None else float(samples[0]),
        tail_right=tail_right if tail_right is not None else float(samples[-1]),
        residual_sup=0.0,
        iterations=iterations,
        kernel_name=spec.name,
        max_change_ratio=max_ratio,
    )
    table.residual_sup = residual(table, spec)
    if not converged:
        raise SolverError(
            f"no convergence in {max_iter} sweeps (last sup-change "
            f"{prev_change:.3e}, residual {table.residual_sup:.3e})",
            last_residual=table.residual_sup,
        )
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
        probe_points = grid[grid + _LN4 <= table.u_max + 1e-12]
    probes = np.asarray(probe_points, dtype=float)
    if probes.size == 0:
        return 0.0
    lhs = (
        0.125 * table.c_at(probes + _LN4)
        + 4.5 * table.c_at(probes + _LN2)
        - 12.375 * table.c_at(probes + SHIFT_C)
        + 7.0 * table.c_at(probes)
    )
    m_vals = np.asarray(m_of(spec, probes), dtype=float)
    return float(np.max(np.abs(m_vals - lhs)))


def a_of_omega(omega):
    """The trigonometric symbol of the recursion at frequency omega."""
    w = np.asarray(omega, dtype=float)
    out = (
        0.125 * np.exp(1j * w * _LN4)
        + 4.5 * np.exp(1j * w * _LN2)
        - 12.375 * np.exp(1j * w * SHIFT_C)
        + 7.0
    )
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
