"""Admissible convolution kernels and the log-substituted source term.

A kernel is described by evaluators for K and K'' on the positive axis;
the odd extension K(-x) = -K(x) is applied structurally, never
numerically differentiated.  The quantity the solver actually consumes is

    m(u) = e^(3u) * K''(e^u),

which equals x^3 K''(x) at x = e^u and is bounded exactly when x^3 K'' is,
the paper's hypothesis on the kernel.  Built-in kernels carry a
closed-form evaluator for m so that huge |u| never exponentiates; a user
kernel without one falls back to the direct formula, read only within
|u| <= GENERIC_GUARD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "KernelSpec",
    "GENERIC_GUARD",
    "m_of",
    "kernel_value",
    "get_kernel",
    "builtin_names",
]

# the generic route evaluates x^3 K''(x) at x = e^u for |u| <= GENERIC_GUARD
# only, where x^3 stays finite, and holds m at its value there beyond
GENERIC_GUARD = 230.0


def _vectorized(fn):
    """Wrap an array-only implementation so scalars work too."""

    def wrapped(x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = fn(arr)
        return out if np.ndim(x) else float(out[0])

    return wrapped


@dataclass(frozen=True)
class KernelSpec:
    """An odd kernel given by evaluators on x > 0; the representation needs
    x^3 K''(x) bounded, which `solve_c` enforces.

    Parameters
    ----------
    name : str
    k, k2 : callables
        K and K'' on the positive axis.  Must accept numpy arrays.  The
        solve reads only k2, through m; `compare_report` reads k.
    m_eval : callable, optional
        Closed-form m(u) = e^(3u) K''(e^u) valid for all real u.  Supply it
        whenever an analytic form exists, and always when x^3 K'' has no
        limit reached within |u| <= GENERIC_GUARD: the generic fallback
        holds m constant beyond the guard.
    """

    name: str
    k: Callable
    k2: Callable
    m_eval: Optional[Callable] = None


def kernel_value(spec: KernelSpec, x):
    """K(x) for any nonzero x, via the odd extension."""
    x = np.asarray(x, dtype=float)
    if np.any(x == 0):
        raise ValueError("kernel is singular at 0")
    out = np.sign(x) * spec.k(np.abs(x))
    return out if out.ndim else float(out)


def m_of(spec: KernelSpec, u):
    """The source term m(u) = e^(3u) K''(e^u), bounded for an admissible K.

    Through `spec.m_eval` when given, else through k2 with u clipped to
    +-GENERIC_GUARD: right only for a kernel whose x^3 K'' has settled by
    the guard, which `solve_c` checks.
    """
    u = np.asarray(u, dtype=float)
    if spec.m_eval is not None:
        out = np.asarray(spec.m_eval(u), dtype=float)
    else:
        uc = np.clip(u, -GENERIC_GUARD, GENERIC_GUARD)
        x = np.exp(uc)
        out = x**3 * np.asarray(spec.k2(x), dtype=float)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# built-in kernels


def _hilbert() -> KernelSpec:
    return KernelSpec(
        name="hilbert",
        k=lambda x: 1.0 / np.asarray(x, dtype=float),
        k2=lambda x: 2.0 / np.asarray(x, dtype=float) ** 3,
        m_eval=lambda u: np.full(np.shape(u), 2.0),
    )


@_vectorized
def _cp_k(x):
    # K = x/(1+x^2) = t/(1+t^2) with t = 1/x; past x = 1e150, where x^2
    # nears overflow, 1 + t^2 rounds to 1 and K is t.  The switch sits
    # past every x the direct form gets right, so those keep their bits
    out = np.empty_like(x)
    near = x <= 1e150
    out[near] = x[near] / (1 + x[near] ** 2)
    out[~near] = 1.0 / x[~near]
    return out


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
    return KernelSpec(name="conjugate-poisson", k=_cp_k, k2=_cp_k2, m_eval=_cp_m)


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
    # x above e^4 gives x^2 > 2900, where the exponential factor is flushed
    # to zero: x K and x^3 K'' are exactly 1 and 2 in double precision.
    # Clamping there keeps x^2 and x^4 from overflowing.
    def k(x):
        x = np.asarray(x, dtype=float)
        return -np.expm1(-(np.minimum(x, np.exp(4.0)) ** 2)) / x

    def k2(x):
        x = np.asarray(x, dtype=float)
        return _st_x3k2(np.minimum(x, np.exp(4.0))) / x**3

    def m_eval(u):
        u = np.asarray(u, dtype=float)
        return _st_x3k2(np.exp(np.minimum(u, 4.0)))

    return KernelSpec(name="smoothed-truncated", k=k, k2=k2, m_eval=m_eval)


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
