"""Recover the kernel from the solved coefficient table and compare.

Two independent routes verify the representation:

* deterministic: the averaging identity collapses, for x > 0, to a finite
  integral against the convolution profile,

      K(x) = (1/x) * integral_0^1 gamma(x/s) P(s) ds,

  with P the continuous odd piecewise-linear profile built from the two
  generating step functions.  Its support makes the domain exact, and
  P(0) = 0 kills the apparent 1/x trouble at s -> 0.  Gauss-Legendre
  panels over the profile's knot intervals are bisected breadth-first,
  all the pending panels of all the probes in one table lookup per round.

* stochastic: averaging the truncated two-point lattice sums over grid
  draws, with an explicit bound for the discarded coarse levels.

Both are compared against the kernel evaluators in reports.
"""

from __future__ import annotations

import math

import numpy as np

from . import dyadic, operators
from .kernels import KernelSpec
from .piecewise import gauss_legendre, kernel_profile
from .solver import CoefficientTable

__all__ = [
    "reconstruct_at",
    "mc_estimate",
    "compare_report",
]

# pending panels past which reconstruct_at revises its scale; solved tables
# of the built-in kernels keep a few hundred at most
_PENDING_CAP = 1 << 12

_PROFILE = kernel_profile()
# positive-axis knots of the profile, as floats, for quadrature panels
_P_KNOTS = [float(k) for k in _PROFILE.knots if k >= 0]


def _panels(table: CoefficientTable, log_x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """8-node Gauss-Legendre estimates of the integrand over each [a, b],
    at log probes log_x, with one table lookup for all the panels."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes, weights = gauss_legendre(8)
    s = mid[:, None] + half[:, None] * nodes
    vals = table.c_at(log_x[:, None] - np.log(s)) * _PROFILE(s)
    return half * (vals @ weights)


def reconstruct_at(table: CoefficientTable, x, rtol: float = 1e-8):
    """Deterministic reconstruction of K(x) for 0 < x < inf: a float for a
    scalar x, an array of x's shape for an array.

    Composite 8-node Gauss-Legendre over each knot interval of the profile
    on [0, 1], bisected breadth-first: each round splits every pending
    panel of every probe and evaluates all the halves at once.  A panel is
    accepted when its two halves agree with its own estimate within rtol
    times its probe's scale (or it is narrower than 1e-13), and a probe's
    accepted halves are summed with math.fsum.  A probe's scale is the
    magnitude of its first estimates, grown to that of its halves once it
    has more than 4096 panels pending: a first estimate that misses a
    narrow feature of the table would otherwise split without end.  Each
    probe keeps its own scale and panel order, so it gets the same bits
    alone or in any batch.  The integrand's only roughness is the chain of
    cell joins the table's piecewise cubic imprints on gamma(x/s): it is
    continuous there and its slope jumps by O(step^3), which bisection
    resolves.  rtol must be at least the double-precision epsilon 2^-52.
    """
    xs = np.asarray(x, dtype=float)
    probes = xs.ravel()
    bad = probes[~((probes > 0) & (probes < math.inf))]
    if bad.size:
        raise ValueError(
            f"reconstruction needs 0 < x < inf, got {bad[0].item()!r}; use oddness for x < 0"
        )
    if not rtol >= 2.0**-52:
        # below double-precision epsilon rounding alone can fail the stop test
        raise ValueError(f"need rtol >= 2^-52, the double-precision epsilon, got {rtol}")

    n, per = probes.size, len(_P_KNOTS) - 1
    log_x = np.log(probes)
    # the pending panels, each with the index of its probe
    probe = np.repeat(np.arange(n), per)
    a, b = np.tile(_P_KNOTS[:-1], n), np.tile(_P_KNOTS[1:], n)
    est = _panels(table, log_x[probe], a, b)
    first = est.reshape(n, per).tolist()
    scale = np.array([max(sum(abs(e) for e in row), 1e-300) for row in first])
    # accepted halves and their probes, from typed empties for an empty x
    owner, parts = [probe[:0]], [est[:0]]
    while a.size:
        mid = 0.5 * (a + b)
        halves = _panels(
            table, np.tile(log_x[probe], 2), np.concatenate([a, mid]), np.concatenate([mid, b])
        )
        e1, e2 = halves[: a.size], halves[a.size :]
        both = e1 + e2
        for p in np.flatnonzero(np.bincount(probe, minlength=n) > _PENDING_CAP):
            scale[p] = max(scale[p], float(np.sum(np.abs(both[probe == p]))))
        done = (np.abs(both - est) < rtol * scale[probe]) | ((b - a) < 1e-13)
        owner.append(probe[done])
        parts.append(both[done])
        split = ~done
        probe = np.concatenate([probe[split], probe[split]])
        a, b = np.concatenate([a[split], mid[split]]), np.concatenate([mid[split], b[split]])
        est = np.concatenate([e1[split], e2[split]])

    owner = np.concatenate(owner)
    parts = np.concatenate(parts)[np.argsort(owner)].tolist()
    ends = np.cumsum(np.bincount(owner, minlength=n)).tolist()
    # fsum rounds once, so the order of a probe's parts does not matter
    out = np.array([math.fsum(parts[lo:hi]) for lo, hi in zip([0, *ends], ends)]) / probes
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def mc_estimate(
    table: CoefficientTable,
    x: float,
    y: float,
    num_samples: int,
    tol_tail: float = 1e-4,
    seed: int = 0,
    threads: int = 1,
) -> dyadic.Estimate:
    """Estimate K(x - y) by averaging truncated lattice sums over draws:
    the averaged shift operator at x on a unit mass at y
    (`operators.level_terms`).

    Levels start where cells become long enough to hold both points and
    stop at the cutoff for `tol_tail`; `dyadic.estimate` gives the mean,
    stderr and tail bound.
    """
    if x == y:
        raise ValueError(f"the kernel sum is undefined on the diagonal x = y = {x!r}")
    if abs(x - y) < dyadic.MIN_DISTANCE:
        raise ValueError(f"separation |x - y| = {abs(x - y)!r} is below {dyadic.MIN_DISTANCE!r}")
    gamma_sup = table.sup_norm()
    levels = dyadic.levels_for_distance(abs(x - y), gamma_sup, tol_tail)
    [(_, term)] = operators.level_terms(table, [(y, 1.0, "mass")], [(x, levels)])
    tallies = dyadic.accumulate_samples(seed, num_samples, levels, term, threads=threads)
    return dyadic.estimate(x, levels, tallies, gamma_sup, num_samples, seed)


def compare_report(
    spec: KernelSpec, table: CoefficientTable, probe_xs, rtol: float = 1e-8
) -> dict:
    """Reconstruct at each probe in (0, inf) and tabulate relative errors.

    Returns {"kernel", "probes", "max_rel_err"}, the rows of "probes" being
    {"x", "K", "Khat", "rel_err", "outside_window"}: the report `verify`
    prints.  A probe outside [e^u_min, e^u_max] reads c through a constant
    tail, so its rel_err measures the table's window, not the table.
    """
    xs = np.asarray(probe_xs, dtype=float)
    rows = []
    # reconstruct_at rejects any x outside (0, inf) before K is evaluated
    for x, k_hat in zip(xs.tolist(), reconstruct_at(table, xs, rtol=rtol).tolist()):
        k_true = float(spec.k(x))
        rel = abs(k_hat - k_true) / abs(k_true) if k_true != 0 else abs(k_hat)
        outside = not table.u_min <= math.log(x) <= table.u_max
        rows.append({"x": x, "K": k_true, "Khat": k_hat, "rel_err": rel, "outside_window": outside})
    # np.max, unlike max, keeps a NaN relative error
    worst = float(np.max([row["rel_err"] for row in rows], initial=0.0))
    return {"kernel": spec.name, "probes": rows, "max_rel_err": worst}
