"""Recover the kernel from the solved coefficient table and compare.

Two independent routes verify the representation:

* deterministic: the averaging identity collapses, for x > 0, to a finite
  integral against the convolution profile,

      K(x) = (1/x) * integral_0^1 gamma(x/s) P(s) ds,

  with P the continuous odd piecewise-linear profile built from the two
  generating step functions.  Its support makes the domain exact, and
  P(0) = 0 kills the apparent 1/x trouble at s -> 0.

* stochastic: averaging the truncated two-point lattice sums over grid
  draws, with an explicit bound for the discarded coarse levels.

Both are compared against the kernel evaluators in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dyadic
from .kernels import KernelSpec
from .piecewise import kernel_profile
from .solver import CoefficientTable

__all__ = [
    "reconstruct_at",
    "mc_estimate",
    "compare_report",
    "CompareReport",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


_PROFILE = kernel_profile()
# positive-axis knots of the profile, as floats, for quadrature panels
_P_KNOTS = [float(k) for k in _PROFILE.knots if k >= 0]


def reconstruct_at(table: CoefficientTable, x: float, rtol: float = 1e-8) -> float:
    """Deterministic reconstruction of K(x) for x > 0.

    Composite 8-node Gauss-Legendre over each knot interval of the profile
    on [0, 1], with recursive bisection of any panel whose two halves
    disagree with the parent estimate by more than rtol times the overall
    scale.  The integrand's only roughness is the kink chain the table's
    linear interpolation imprints on gamma(x/s), which bisection resolves.
    rtol must be at least the double-precision epsilon 2^-52.
    """
    if x <= 0:
        raise ValueError("reconstruction is defined for x > 0; use oddness")
    if not rtol >= 2.0**-52:
        # below double-precision epsilon rounding alone can fail the stop test
        raise ValueError(f"need rtol >= 2^-52, the double-precision epsilon, got {rtol}")

    def panel(a: float, b: float) -> float:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        s = mid + half * _GL_NODES
        vals = table.c_at(np.log(x) - np.log(s)) * _PROFILE(s)
        return half * float(np.dot(_GL_WEIGHTS, vals))

    stack = [
        (a, b, panel(a, b)) for a, b in zip(_P_KNOTS, _P_KNOTS[1:])
    ]
    scale = max(sum(abs(est) for *_, est in stack), 1e-300)
    total = 0.0
    while stack:
        a, b, est = stack.pop()
        mid = 0.5 * (a + b)
        e1 = panel(a, mid)
        e2 = panel(mid, b)
        if abs(e1 + e2 - est) < rtol * scale or (b - a) < 1e-13:
            total += e1 + e2
        else:
            stack.append((a, mid, e1))
            stack.append((mid, b, e2))
    return total / x


def mc_estimate(
    table: CoefficientTable,
    x: float,
    y: float,
    num_samples: int,
    tol_tail: float = 1e-4,
    seed: int = 0,
    threads: int | None = None,
) -> dyadic.Estimate:
    """Estimate K(x - y) by averaging truncated lattice sums over draws.

    Levels start where cells become long enough to hold both points and
    stop at the cutoff for `tol_tail`; `dyadic.estimate` gives the mean,
    stderr and tail bound.
    """
    term = dyadic.kernel_sum_terms(table, x, y)
    gamma_sup = table.sup_norm()
    levels = dyadic.levels_for_distance(abs(x - y), gamma_sup, tol_tail)
    return dyadic.estimate(
        x, term, levels, gamma_sup, num_samples, seed=seed, threads=threads
    )


@dataclass
class CompareReport:
    """Reconstruction versus the kernel evaluator over probe points."""

    kernel_name: str
    probes: list = field(default_factory=list)  # rows: {x, K, Khat, rel_err}
    max_rel_err: float = 0.0

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel_name,
            "probes": self.probes,
            "max_rel_err": self.max_rel_err,
        }


def compare_report(
    spec: KernelSpec, table: CoefficientTable, probe_xs, rtol: float = 1e-8
) -> CompareReport:
    """Reconstruct at each positive probe and tabulate relative errors."""
    rows = []
    worst = 0.0
    for x in np.asarray(probe_xs, dtype=float):
        if x <= 0:
            raise ValueError("probes must be positive")
        k_true = float(spec.k(x))
        k_hat = reconstruct_at(table, float(x), rtol=rtol)
        rel = abs(k_hat - k_true) / abs(k_true) if k_true != 0 else abs(k_hat)
        rows.append({"x": float(x), "K": k_true, "Khat": k_hat, "rel_err": rel})
        worst = max(worst, rel)
    return CompareReport(kernel_name=spec.name, probes=rows, max_rel_err=worst)
