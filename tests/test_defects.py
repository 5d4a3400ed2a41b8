"""The defect matrix: which verification route sees which planted defect.

Four defects are planted on the conjugate-poisson table at step 2^-7:
every sample scaled by 1 + eps, the samples moved one step to the right,
the right tail scaled by 1 + eps, and a bump eps cos^2(pi u) over the one
log unit |u| < 1/2.  Four routes look at each defected table:

- residual: the recursion's residual over the window above criterion 3's
  1e-7;
- verify: the quadrature reconstruction's largest relative error over 23
  probes from 1e-3 to 1e8 above criterion 4's 1e-4;
- mc: the exact-dilation two-point estimate off K(x - y) by more than 5
  stderrs at x - y = 0.3, 1, 7 and 1e7;
- apply: the averaged operator on the indicator of [0, 1] off the direct
  principal value by more than 5 stderrs at x = -1, 0.25, 2, 5 and 1e7.

The probes reach past e^14, the window's end, because the right tail is
read only there: at probes below 1e3 no route sees it.  The residual's
reads stay inside the window by construction, so it never sees a tail.
The Monte-Carlo routes draw 2^14 floor points with their tail tolerance
scaled to the probe (1e-5 / |x - y| for mc, 1e-12 for apply), so the
discarded levels stay below a stderr.
"""

import dataclasses

import numpy as np
import pytest

from haarshift import (
    apply_averaged,
    compare_report,
    direct_pv,
    get_kernel,
    indicator_function,
    mc_estimate,
    residual,
    solve_c,
)

SPEC = get_kernel("conjugate-poisson")
SEPARATIONS = (0.3, 1.0, 7.0, 1e7)
PROBES = (-1.0, 0.25, 2.0, 5.0, 1e7)
DRAWS = 1 << 14
LADDER = (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8)


def _scale(table, eps):
    return dataclasses.replace(table, samples=table.samples * (1.0 + eps))


def _shift(table, eps):
    return dataclasses.replace(table, samples=np.concatenate([table.samples[:1], table.samples[:-1]]))


def _tail(table, eps):
    return dataclasses.replace(table, tail_right=table.tail_right * (1.0 + eps))


def _bump(table, eps):
    u = table.grid
    return dataclasses.replace(
        table, samples=table.samples + eps * np.where(np.abs(u) < 0.5, np.cos(np.pi * u) ** 2, 0.0)
    )


DEFECTS = {"scale": _scale, "shift": _shift, "tail": _tail, "bump": _bump}


@pytest.fixture(scope="module")
def clean():
    table = solve_c(SPEC, step=2.0**-7)
    f = indicator_function()
    return table, f, {x: direct_pv(SPEC, f, x) for x in PROBES}


def _flags(table, f, direct) -> set:
    """The routes that flag `table`."""
    flags = set()
    if residual(table, SPEC) > 1e-7:
        flags.add("residual")
    if compare_report(SPEC, table, np.logspace(-3.0, 8.0, 23))["max_rel_err"] > 1e-4:
        flags.add("verify")
    for d in SEPARATIONS:
        est = mc_estimate(table, d, 0.0, DRAWS, tol_tail=1e-5 / d, seed=3)
        if abs(est.mean - float(SPEC.k(d))) > 5.0 * est.stderr:
            flags.add("mc")
    for row in apply_averaged(table, f, PROBES, DRAWS, seed=3, tol_tail=1e-12):
        if abs(row.mean - direct[row.x]) > 5.0 * row.stderr:
            flags.add("apply")
    return flags


def test_every_defect_is_seen_by_two_routes(clean):
    """The clean table raises no flag; each defect at eps = 0.1 (the shift
    at its one step) is flagged by at least two routes.  The line printed
    gives, per defect and route, the smallest eps of the ladder 1e-1 ..
    1e-8 from which the route flags it down the ladder, or '-'."""
    table, f, direct = clean
    assert _flags(table, f, direct) == set()
    summary = []
    for name, plant in DEFECTS.items():
        rungs = LADDER[:1] if name == "shift" else LADDER
        seen = {eps: _flags(plant(table, eps), f, direct) for eps in rungs}
        assert len(seen[LADDER[0]]) >= 2, (name, seen[LADDER[0]])
        smallest = dict.fromkeys(("residual", "verify", "mc", "apply"), "-")
        for route in smallest:
            for eps, flags in seen.items():
                if route not in flags:
                    break
                smallest[route] = "step" if name == "shift" else f"{eps:g}"
        summary.append(f"{name}: " + " ".join(f"{k}={v}" for k, v in smallest.items()))
    print("defect matrix: " + "; ".join(summary))
