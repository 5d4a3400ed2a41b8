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


class SolverError(RuntimeError):
    """Raised when the source term cannot be solved for."""


_HYPOTHESIS = "the representation needs x^3 K''(x) bounded"


@dataclass
class CoefficientTable:
    """Sampled coefficient function c on a uniform log-axis grid.

    gamma(r) = c(ln r); outside [u_min, u_max] the table extends by the
    constant tails.  `iterations` and `max_change_ratio` record the sweeps
    of a contraction solve and the largest observed ratio of successive
    sup-changes, a direct measurement of the contraction factor; `solve_c`
    runs no sweep and records 0 and 0.0.  These fields are the table's
    file format: `write_table` puts `samples` in the CSV and every other
    field in the JSON sidecar.
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
        expected = round((self.u_max - self.u_min) / self.step) + 1
        if len(self.samples) != expected:
            raise ValueError(
                f"sample count {len(self.samples)} does not match window/step "
                f"(expected {expected})"
            )

    @cached_property
    def grid(self) -> np.ndarray:
        # built once per table: the CSV column, the residual's probes and
        # c_at's two window edges
        return self.u_min + self.step * np.arange(len(self.samples))

    @cached_property
    def _rises(self) -> np.ndarray:
        # s[j+1] - s[j], and 0 after the last sample, which c_at reads there
        return np.diff(self.samples, append=self.samples[-1])

    def sup_norm(self) -> float:
        return max(
            float(np.max(np.abs(self.samples))), abs(self.tail_left), abs(self.tail_right)
        )

    def c_at(self, u, out=None):
        """c(u) by linear interpolation, constant tails outside the window.

        The cell is found by index arithmetic on the uniform grid, not by
        a search: with t = (u - u_min) / step clipped to [0, n - 1] and
        j = t truncated,

            c = s[j] + (t - j) (s[j+1] - s[j]),

        the rise after the last sample taken as 0, so every grid node
        reads its sample exactly when u_min and step are dyadic.  Below
        grid[0] and above grid[-1] the tails apply, as np.interp's
        left/right do; NaN gives NaN, and a scalar gives a float.  The
        clip comes before any product, so +-inf reads a tail with no
        inf * 0, and the tail selection runs only when some u lies
        outside the window or is NaN.  Given `out`, an array of u's shape
        other than u, c is written there and `out` is returned.

        Away from underflow, the result is within

            2 * 2^-52 * (n max|s[j+1] - s[j]| + max|s|)

        of the exact linear interpolant through (u_min + j step, s[j]), n
        being the sample count: the rounding of t moves it by at most
        2^-52 n cells, and the lerp itself adds a few roundings.
        """
        u = np.asarray(u, dtype=float)
        grid = self.grid
        # False when some u is NaN, as min and max propagate it
        inside = not u.size or (u.min() >= grid[0] and u.max() <= grid[-1])
        t = np.subtract(u, self.u_min, out=np.empty(u.shape) if out is None else out)
        t /= self.step
        np.clip(t, 0.0, len(self.samples) - 1, out=t)
        j, gathered = scratch("c_at.j", u.shape, np.intp), scratch("c_at.gathered", u.shape)
        # fmax sends a NaN to index 0; t - j keeps the NaN
        np.copyto(j, t if inside else np.fmax(t, 0.0, out=gathered), casting="unsafe")
        t -= j
        t *= np.take(self._rises, j, out=gathered, mode="clip")
        t += np.take(self.samples, j, out=gathered, mode="clip")
        if not inside:
            np.putmask(t, u < grid[0], self.tail_left)
            np.putmask(t, u > grid[-1], self.tail_right)
        return float(t) if out is None and not u.ndim else t


def _detect_tail(mfun, u_edge: float, direction: int) -> tuple[bool, float]:
    """Probe m for a flat limit just inside u_edge."""
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
        |f| <= (3/4) tol moves c by at most tol, and padding each side by
        its `weighted_reach(tol)` keeps the effect of the source beyond
        (and the taper and periodic images put there) to (2/3) tol times
        its sup per side.

    Raises
    ------
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

    mfun = partial(m_of, spec)
    margin = max(1, math.ceil(_TAPER / step))
    n_left, n_right = (math.ceil(reach / step) + margin for _, reach in weighted_reach(tol))
    n_window = round((u_max - u_min) / step)
    grid = u_min + step * np.arange(-n_left, n_window + n_right + 1)

    m = np.asarray(mfun(grid), dtype=float)
    if not np.all(np.isfinite(m)):
        raise SolverError(f"source term m is not finite on the padded window: {_HYPOTHESIS}")
    # the generic route holds m at its value at the guard, wherever the grid ends
    if spec.m_eval is None and not all(
        _detect_tail(mfun, side * GENERIC_GUARD, side)[0] for side in (-1, 1)
    ):
        raise SolverError(
            f"m(u) = x^3 K''(x) at x = e^u has not settled by |u| = {GENERIC_GUARD:g}, beyond "
            f"which the generic route holds it: {_HYPOTHESIS}, with a limit there; supply m_eval"
        )
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


def residual(table: CoefficientTable, spec: KernelSpec) -> float:
    """Sup-norm defect of the recursion over the table's grid.

    Substitutes the interpolated table into the four-term equation at the
    window grid points whose largest shifted read, u + ln 4, stays inside
    the window, so tails never mask the defect; a window narrower than
    ln 4 has no such point, and the defect reads 0.0.
    """
    grid = table.grid
    reach = max(shift for shift, _ in RECURSION)
    probes = grid[grid + reach <= table.u_max + 1e-12]
    if probes.size == 0:
        return 0.0
    lhs = _weighted_sum(RECURSION, lambda shift: table.c_at(probes + shift))
    m_vals = np.asarray(m_of(spec, probes), dtype=float)
    return float(np.max(np.abs(m_vals - lhs)))


def a_of_omega(omega):
    """The trigonometric symbol of the recursion at frequency omega."""
    w = np.asarray(omega, dtype=float)
    # e^(i omega 0) = 1: the zero shift adds its weight, with no exp
    out = _weighted_sum(RECURSION, lambda shift: np.exp(1j * (w * shift)) if shift else 1.0)
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
# serialization: CSV table plus JSON sidecar


def _sidecar_fields():
    """The fields the JSON sidecar carries: all but the CSV's samples."""
    return [f for f in fields(CoefficientTable) if f.name != "samples"]


def write_table(table: CoefficientTable, base_path: str | Path, extra: dict | None = None) -> tuple[Path, Path]:
    """Write `<base>.csv` (columns u, c) and `<base>.json` (metadata).

    Floats are written with .17g, byte-identical to csv.writer, so a
    read-back compares exactly equal.  `extra` entries are merged into the
    sidecar (used by the CLI for provenance); a key that names a table
    field raises `ValueError`, since it would change the table read back.
    """
    clash = sorted({f.name for f in _sidecar_fields()} & set(extra or ()))
    if clash:
        raise ValueError(f"extra sidecar keys {clash} would overwrite table fields")
    base = Path(base_path)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    # the bytes csv.writer would write: no field needs quoting, rows end in CRLF
    values = np.column_stack((table.grid, table.samples)).ravel().tolist()
    with open(csv_path, "w", newline="") as fh:
        fh.write("u,c\r\n" + "%.17g,%.17g\r\n" * len(table.samples) % tuple(values))
    meta = {f.name: getattr(table, f.name) for f in _sidecar_fields()}
    meta.update(extra or {})
    with open(json_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def read_table(base_path: str | Path) -> CoefficientTable:
    """Read a table written by `write_table`.

    Each sidecar field must hold its declared type as JSON: a float field
    a number (an int or a float, not a bool), an int field an int, a str
    field a str.  A field with a default may be missing.  A missing or
    wrongly typed field raises `ValueError` naming it.
    """
    base = Path(base_path)
    json_path = base.with_suffix(".json")
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
    with open(base.with_suffix(".csv")) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header[:2] != ["u", "c"]:
            raise ValueError(f"unexpected table header {header!r}")
        samples = np.loadtxt(fh, delimiter=",", usecols=1, ndmin=1)
    return CoefficientTable(samples=samples, **values)
