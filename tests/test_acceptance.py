"""End-to-end gates, one test per criterion, in a fixed order.

Each gate prints a single line with its measured numbers when it passes;
`pytest -v` turns each into one PASSED/FAILED row.  Gates that need a
solved coefficient table solve it through the shared cache below so that
repeated use costs one solve.  The contraction gate measures the reference
sweep of `oracles.sweep_solve`, since the library solve runs no sweep.
"""

import math
import time
from fractions import Fraction

import numpy as np

from conftest import sweep_table, tent_m, tent_spec
from oracles import neumann_tail_bound, neumann_word_sum

from haarshift import (
    CONTRACTION_RATIO,
    NORM_CONSTANT,
    RECURSION,
    apply_averaged,
    builtin_names,
    compare_report,
    convolve_steps,
    get_kernel,
    indicator_function,
    m_of,
    make_g,
    make_h,
    mc_estimate,
    reconstruct_at,
    reflect,
    second_derivative_atoms,
    solve_c,
)
from haarshift.solver import modulus_chunks

_TABLES: dict = {}


def _table(name: str, step: float):
    key = (name, step)
    if key not in _TABLES:
        spec = tent_spec() if name == "synthetic-tent" else get_kernel(name)
        _TABLES[key] = solve_c(spec, step=step)
    return _TABLES[key]


def test_criterion_1_profile_curvature_atoms():
    t0 = time.monotonic()
    profile = convolve_steps(make_h(), reflect(make_g()))
    atoms = second_derivative_atoms(profile, positive_axis_only=True)
    expected = (
        (Fraction(1, 4), Fraction(2)),
        (Fraction(1, 2), Fraction(18)),
        (Fraction(3, 4), Fraction(-22)),
        (Fraction(1), Fraction(7)),
    )
    assert atoms == expected
    # the solver derives its recursion from these atoms: weight w t^2 at
    # shift ln(1/t), bit for bit, and its constants in exact arithmetic
    assert RECURSION == (
        (math.log(4.0), 0.125),
        (math.log(2.0), 4.5),
        (math.log(4.0 / 3.0), -12.375),
        (0.0, 7.0),
    )
    assert CONTRACTION_RATIO == 31.0 / 33.0 and NORM_CONSTANT == 4.0 / 3.0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 1: PASS curvature atoms exact ({elapsed:.3f}s)")


def test_criterion_2_dominance_and_symbol_modulus():
    t0 = time.monotonic()
    dominant = Fraction(99, 8)
    rest = Fraction(1, 8) + Fraction(9, 2) + Fraction(7)
    assert dominant > rest
    chunks = modulus_chunks(2_000_001, lambda k: (k - 1_000_000) * 1e-2)
    low = min(float(mod.min()) for _, mod in chunks)
    assert low >= 0.75 - 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(
        f"criterion 2: PASS 99/8 > {rest} exactly, "
        f"min |a| = {low:.9f} ({elapsed:.2f}s)"
    )


def test_criterion_3_hilbert_closed_loop():
    t0 = time.monotonic()
    table = _table("hilbert", 2.0**-9)
    dev = max(
        float(np.max(np.abs(table.samples + 8.0 / 3.0))),
        abs(table.tail_left + 8.0 / 3.0),
        abs(table.tail_right + 8.0 / 3.0),
    )
    assert dev <= 1e-6
    assert table.residual_sup <= 1e-7
    worst = 0.0
    for x in np.logspace(-3.0, 3.0, 50):
        prod = reconstruct_at(table, float(x)) * float(x)
        worst = max(worst, abs(prod - 1.0))
    assert worst <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(
        f"criterion 3: PASS sup dev {dev:.2e}, residual "
        f"{table.residual_sup:.2e}, worst x*K(x) off by {worst:.2e} "
        f"({elapsed:.1f}s)"
    )


def test_criterion_4_conjugate_poisson_loop():
    t0 = time.monotonic()
    # the error budget has a term linear in the grid step, so the gate uses
    # a step fine enough to put interpolation below the 1e-4 target
    table = _table("conjugate-poisson", 2.0**-11)
    spec = get_kernel("conjugate-poisson")
    worst = compare_report(spec, table, np.logspace(-2.0, 2.0, 50))["max_rel_err"]
    assert worst <= 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        f"criterion 4: PASS max rel reconstruction error "
        f"{worst:.3e} over 50 probes ({elapsed:.1f}s)"
    )


def test_criterion_5_monte_carlo_representation():
    t0 = time.monotonic()
    table = _table("hilbert", 2.0**-9)
    summary = []
    for sep in (0.3, 1.0, 7.0):
        hits = 0
        for seed in range(20):
            est = mc_estimate(table, sep, 0.0, num_samples=1_000_000, seed=seed)
            if abs(est.mean - 1.0 / sep) <= 3.0 * est.stderr + est.tail_bound:
                hits += 1
        assert hits >= 19, f"separation {sep}: only {hits}/20 inside the band"
        summary.append(f"{sep:g}:{hits}/20")
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"criterion 5: PASS band hits {' '.join(summary)} ({elapsed:.1f}s)")


def test_criterion_6_operator_on_indicator():
    t0 = time.monotonic()
    table = _table("hilbert", 2.0**-9)
    rows = apply_averaged(
        table, indicator_function(), [-1.0, 0.25, 2.0, 5.0], 1_000_000, seed=0
    )
    worst = 0.0
    for row in rows:
        want = math.log(abs(row.x / (row.x - 1.0)))
        gap = abs(row.mean - want)
        assert gap <= 3.0 * row.stderr + row.tail_bound
        worst = max(worst, gap / row.stderr)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(
        f"criterion 6: PASS 4/4 probes, worst deviation "
        f"{worst:.2f} stderr ({elapsed:.1f}s)"
    )


def test_criterion_7_coefficient_norm_bound():
    t0 = time.monotonic()
    steps = {
        "conjugate-poisson": 2.0**-11,
        "hilbert": 2.0**-9,
        "smoothed-truncated": 2.0**-9,
    }
    assert sorted(steps) == builtin_names()
    u = np.linspace(-30.0, 30.0, 120_001)
    parts = []
    for name, step in steps.items():
        msup = float(np.max(np.abs(m_of(get_kernel(name), u))))
        sup_c = _table(name, step).sup_norm()
        assert sup_c <= (4.0 / 3.0) * msup + 1e-6
        parts.append(f"{name}: {sup_c:.6f} <= {(4.0 / 3.0) * msup:.6f}+1e-6")
    elapsed = time.monotonic() - t0
    print(f"criterion 7: PASS {'; '.join(parts)} ({elapsed:.1f}s)")


def test_criterion_8_contraction_ratio_all_runs():
    t0 = time.monotonic()
    runs = [
        sweep_table(name, step)
        for name, step in (
            ("hilbert", 2.0**-9),
            ("conjugate-poisson", 2.0**-11),
            ("smoothed-truncated", 2.0**-9),
            ("synthetic-tent", 2.0**-8),
        )
    ]
    ratios = [t.max_change_ratio for t in runs]
    assert all(r <= 31.0 / 33.0 + 1e-12 for r in ratios)
    # the hilbert sweep starts at its fixed point and stops after one sweep,
    # but the others must have measured a contraction
    worst = max(ratios)
    assert worst > 0
    elapsed = time.monotonic() - t0
    print(
        f"criterion 8: PASS worst sweep ratio {worst:.9f} <= 31/33 "
        f"over {len(runs)} reference sweep runs "
        f"({sum(t.iterations for t in runs)} sweeps, {elapsed:.1f}s)"
    )


def test_criterion_9_solver_vs_word_expansion():
    """Dual-route agreement on a synthetic compactly supported source.

    The explicit route expands the fixed point as the geometric series of
    the three-shift map applied to the forcing term, truncated at word
    length D.  The discarded words carry weight at most

        bound(D) = (8/99) * ||m|| * (31/33)^(D+1) / (1 - 31/33),

    which is 0.59 ||m|| at D = 12; the routes agree within it with a wide
    margin there (the measured gap sits near 7e-2).  The bound itself
    first drops under 1e-2 ||m|| at D = 78, so the agreement is asserted
    against that tighter figure at depth 78 as well.  The solver side
    contributes its residual amplified by the same geometric factor;
    interpolation contributes nothing because every probe is a grid node.
    """
    t0 = time.monotonic()
    table = _table("synthetic-tent", 2.0**-8)
    msup = 1.0
    probes = np.arange(-48, 49) * 2.0**-4
    solved = table.c_at(probes)
    solver_slack = table.residual_sup * 33.0 / 2.0
    gaps = {}
    for depth in (12, 78):
        oracle = neumann_word_sum(tent_m, probes, depth)
        gaps[depth] = float(np.max(np.abs(solved - oracle)))
        assert gaps[depth] <= neumann_tail_bound(msup, depth) + solver_slack
    tight = neumann_tail_bound(msup, 78)
    assert tight <= 1e-2 * msup
    assert gaps[78] <= 1e-2 * msup + solver_slack
    elapsed = time.monotonic() - t0
    print(
        f"criterion 9: PASS gap {gaps[12]:.2e} <= "
        f"{neumann_tail_bound(msup, 12):.2e} at depth 12, "
        f"gap {gaps[78]:.2e} <= {tight:.2e} <= 1e-2 at depth 78 "
        f"({elapsed:.1f}s)"
    )
