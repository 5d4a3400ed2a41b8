"""Admissible convolution kernels and the log-substituted source term.

A kernel is described by three evaluators for K, K' and K'' on the positive
axis; the odd extension K(-x) = -K(x) is applied structurally, never
numerically differentiated.  The quantity the solver actually consumes is

    m(u) = e^(3u) * K''(e^u),

which equals x^3 K''(x) at x = e^u and is bounded exactly when x^3 K'' is.
Built-in kernels carry a closed-form evaluator for m so that huge |u| never
exponentiates; a user kernel without one falls back to the direct formula
with an overflow guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "KernelSpec",
    "ValidationReport",
    "m_of",
    "validate_kernel",
    "kernel_value",
    "get_kernel",
    "builtin_names",
]


def _vectorized(fn):
    """Wrap an array-only implementation so scalars work too."""

    def wrapped(x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = fn(arr)
        return out if np.ndim(x) else float(out[0])

    return wrapped


@dataclass(frozen=True)
class KernelSpec:
    """An odd kernel given by evaluators on x > 0.

    Parameters
    ----------
    name : str
    k, k1, k2 : callables
        K, K', K'' on the positive axis.  Must accept numpy arrays.
    m_eval : callable, optional
        Closed-form m(u) = e^(3u) K''(e^u) valid for all real u.  Supply it
        whenever an analytic form exists; the generic fallback exponentiates.
    sup_x3k2 : float, optional
        Known supremum of |x^3 K''(x)|, used as ||m||_inf when present.
    """

    name: str
    k: Callable
    k1: Callable
    k2: Callable
    m_eval: Optional[Callable] = None
    sup_x3k2: Optional[float] = None


def kernel_value(spec: KernelSpec, x):
    """K(x) for any nonzero x, via the odd extension."""
    x = np.asarray(x, dtype=float)
    if np.any(x == 0):
        raise ValueError("kernel is singular at 0")
    out = np.sign(x) * spec.k(np.abs(x))
    return out if out.ndim else float(out)


def m_of(spec: KernelSpec, u):
    """The bounded source term m(u) = e^(3u) K''(e^u)."""
    u = np.asarray(u, dtype=float)
    if spec.m_eval is not None:
        out = np.asarray(spec.m_eval(u), dtype=float)
    else:
        # generic route: guard the exponential; beyond the guard m is frozen
        # at its boundary value, which is only correct for kernels whose
        # x^3 K'' settles by then (all bounded-m kernels of interest do)
        uc = np.clip(u, -230.0, 230.0)
        x = np.exp(uc)
        out = x**3 * np.asarray(spec.k2(x), dtype=float)
    return out if out.ndim else float(out)


@dataclass
class ValidationReport:
    """Advisory admissibility report; flags, never exceptions."""

    kernel_name: str
    max_abs_x3k2: float
    k_at_far: float
    k1_at_far: float
    fd_rel_k1: float
    fd_rel_k2: float
    flags: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(self.flags.values())


def _fd_relative(fn, deriv, xs: np.ndarray) -> float:
    """Worst relative error of `deriv` against a central difference of `fn`."""
    h = xs * 1e-5
    approx = (np.asarray(fn(xs + h)) - np.asarray(fn(xs - h))) / (2 * h)
    exact = np.asarray(deriv(xs), dtype=float)
    denom = np.maximum(np.abs(exact), 1e-12)
    return float(np.max(np.abs(approx - exact) / denom))


def validate_kernel(spec: KernelSpec, probe_grid=None) -> ValidationReport:
    """Check the representation hypotheses on a probe grid.

    Verifies that |x^3 K''| stays bounded on the probes, that K and K'
    decay at the far end, and that (k, k1, k2) are mutually consistent
    under central finite differences away from the singularity.  All
    violations are reported as flags; the caller decides what to do.
    """
    if probe_grid is None:
        probe_grid = np.logspace(-6, 6, 200)
    xs = np.sort(np.asarray(probe_grid, dtype=float))
    if np.any(xs <= 0):
        raise ValueError("probe grid must be positive")

    x3k2 = xs**3 * np.asarray(spec.k2(xs), dtype=float)
    max_x3k2 = float(np.max(np.abs(x3k2)))

    k_far = abs(float(spec.k(xs[-1])))
    k1_far = abs(float(spec.k1(xs[-1])))

    # finite differences are checked where neither the singularity nor the
    # decay tail degrades the relative scale
    mid = xs[(xs >= 1e-2) & (xs <= 1e2)]
    if mid.size == 0:
        mid = xs
    fd1 = _fd_relative(spec.k, spec.k1, mid)
    fd2 = _fd_relative(spec.k1, spec.k2, mid)

    if spec.sup_x3k2 is not None:
        growing = max_x3k2 > spec.sup_x3k2 * (1 + 1e-9) + 1e-9
    else:
        near = np.abs(x3k2[xs <= 1e3])
        far = np.abs(x3k2[xs > 1e3])
        growing = far.size > 0 and near.size > 0 and far.max() > 5 * max(
            near.max(), 1e-12
        )
    flags = {
        "x3k2_unbounded": not math.isfinite(max_x3k2) or growing,
        "no_decay_k": not (k_far <= 1e-2),
        "no_decay_k1": not (k1_far <= 1e-2),
        "fd_inconsistent_k1": not (fd1 <= 1e-5),
        "fd_inconsistent_k2": not (fd2 <= 1e-5),
    }
    return ValidationReport(
        kernel_name=spec.name,
        max_abs_x3k2=max_x3k2,
        k_at_far=k_far,
        k1_at_far=k1_far,
        fd_rel_k1=fd1,
        fd_rel_k2=fd2,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# built-in kernels


def _hilbert() -> KernelSpec:
    return KernelSpec(
        name="hilbert",
        k=lambda x: 1.0 / np.asarray(x, dtype=float),
        k1=lambda x: -1.0 / np.asarray(x, dtype=float) ** 2,
        k2=lambda x: 2.0 / np.asarray(x, dtype=float) ** 3,
        m_eval=lambda u: np.full(np.shape(u), 2.0),
        sup_x3k2=2.0,
    )


@_vectorized
def _cp_k2(x):
    # K = x/(1+x^2); for x > 1 evaluate through t = 1/x so no power of x
    # in the numerator outruns the denominator
    out = np.empty_like(x)
    small = x <= 1.0
    xs = x[small]
    out[small] = 2 * xs * (xs**2 - 3) / (1 + xs**2) ** 3
    t = 1.0 / x[~small]
    out[~small] = 2 * t**3 * (1 - 3 * t**2) / (1 + t**2) ** 3
    return out


@_vectorized
def _cp_m(u):
    # m(u) = 2 e^{4u}(e^{2u} - 3)/(1 + e^{2u})^3, rewritten per sign of u so
    # every exponential has a nonpositive argument
    out = np.empty_like(u)
    neg = u <= 0
    e2 = np.exp(2 * u[neg])
    out[neg] = 2 * np.exp(4 * u[neg]) * (e2 - 3) / (1 + e2) ** 3
    e2m = np.exp(-2 * u[~neg])
    out[~neg] = 2 * (1 - 3 * e2m) / (1 + e2m) ** 3
    return out


def _conjugate_poisson() -> KernelSpec:
    def k(x):
        x = np.asarray(x, dtype=float)
        return x / (1 + x**2)

    def k1(x):
        x = np.asarray(x, dtype=float)
        return (1 - x**2) / (1 + x**2) ** 2

    return KernelSpec(
        name="conjugate-poisson",
        k=k,
        k1=k1,
        k2=_cp_k2,
        m_eval=_cp_m,
        sup_x3k2=2.0,
    )


@_vectorized
def _st_x3k2(x):
    # K = (1 - e^{-x^2})/x; x^3 K'' = 2(1 - e^{-x^2}(1 + x^2 + 2x^4)).
    # The closed form cancels to O(x^4) near 0, so switch to its series.
    out = np.empty_like(x)
    tiny = x < 0.05
    xt = x[tiny]
    out[tiny] = -3 * xt**4 + (10.0 / 3.0) * xt**6 - 1.75 * xt**8
    xl = x[~tiny]
    out[~tiny] = 2 * (1 - np.exp(-(xl**2)) * (1 + xl**2 + 2 * xl**4))
    return out


def _smoothed_truncated() -> KernelSpec:
    def k(x):
        x = np.asarray(x, dtype=float)
        return -np.expm1(-(x**2)) / x

    def k1(x):
        x = np.asarray(x, dtype=float)
        return 2 * np.exp(-(x**2)) + np.expm1(-(x**2)) / x**2

    def k2(x):
        x = np.asarray(x, dtype=float)
        return _st_x3k2(x) / x**3

    def m_eval(u):
        # e^u above u = 4 gives x^2 > 2900, where the exponential factor is
        # flushed to zero and m is exactly 2 in double precision
        u = np.asarray(u, dtype=float)
        return _st_x3k2(np.exp(np.minimum(u, 4.0)))

    return KernelSpec(
        name="smoothed-truncated",
        k=k,
        k1=k1,
        k2=k2,
        m_eval=m_eval,
        sup_x3k2=2.0,
    )


_BUILTINS: dict[str, Callable[[], KernelSpec]] = {
    "hilbert": _hilbert,
    "conjugate-poisson": _conjugate_poisson,
    "smoothed-truncated": _smoothed_truncated,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def get_kernel(name: str) -> KernelSpec:
    """Look up a built-in kernel by name.  Raises KeyError if unknown."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; built-ins: {', '.join(builtin_names())}"
        ) from None
