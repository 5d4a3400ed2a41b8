import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarshift import (
    NORM_CONSTANT,
    CoefficientTable,
    KernelSpec,
    SolverError,
    a_of_omega,
    gamma_at,
    get_kernel,
    min_modulus_scan,
    read_table,
    residual,
    solve_c,
    write_table,
)

from conftest import sweep_table, tent_m
from oracles import neumann_tail_bound, neumann_word_sum


def test_hilbert_solution_is_constant(hilbert_table):
    assert np.max(np.abs(hilbert_table.samples + 8.0 / 3.0)) <= 1e-6
    assert hilbert_table.tail_left == pytest.approx(-8.0 / 3.0, abs=1e-12)
    assert hilbert_table.tail_right == pytest.approx(-8.0 / 3.0, abs=1e-12)
    assert hilbert_table.residual_sup <= 1e-7


def test_zero_source_gives_zero_solution():
    spec = KernelSpec(
        name="null-source", k=None, k1=None, k2=None, m_eval=np.zeros_like
    )
    table = solve_c(spec, step=2.0**-6)
    assert np.all(table.samples == 0.0)
    assert table.tail_left == 0.0 and table.tail_right == 0.0


def test_conjugate_poisson_limits(cp_table):
    # m tends to 0 on the left and 2 on the right, so the solution must
    # flatten to 0 and to 2 / a(0) = -8/3
    assert cp_table.tail_left == pytest.approx(0.0, abs=1e-9)
    assert cp_table.tail_right == pytest.approx(-8.0 / 3.0, abs=1e-9)
    assert cp_table.c_at(cp_table.u_max - 0.05) == pytest.approx(-8.0 / 3.0, abs=1e-4)
    assert cp_table.c_at(cp_table.u_min + 0.05) == pytest.approx(0.0, abs=1e-4)


def test_residual_of_zero_against_constant_source():
    spec = get_kernel("hilbert")
    n = 257
    table = CoefficientTable(
        u_min=-2.0,
        u_max=2.0,
        step=4.0 / (n - 1),
        samples=np.zeros(n),
        tail_left=0.0,
        tail_right=0.0,
        residual_sup=0.0,
        iterations=0,
    )
    assert residual(table, spec) == 2.0


def test_residual_within_interpolation_budget(cp_table):
    lip = float(np.max(np.abs(np.diff(cp_table.samples)))) / cp_table.step
    assert cp_table.residual_sup <= 1e-8 + lip * cp_table.step


def test_residual_custom_probes_match_default(cp_table):
    spec = get_kernel("conjugate-poisson")
    grid = cp_table.grid
    probes = grid[grid + math.log(4.0) <= cp_table.u_max + 1e-12]
    assert residual(cp_table, spec, probes) == cp_table.residual_sup
    assert residual(cp_table, spec, []) == 0.0


def test_gamma_at_constant(hilbert_table):
    for r in (1e-5, 0.37, 1.0, 42.0, 1e5):
        assert gamma_at(hilbert_table, r) == pytest.approx(-8.0 / 3.0, abs=1e-6)


def test_gamma_at_grid_node_is_exact(hilbert_table):
    # u = 0 is a grid node of the (-14, 14) window, and ln 1.0 is exactly 0,
    # so interpolation must return the stored sample untouched
    k = round(-hilbert_table.u_min / hilbert_table.step)
    assert gamma_at(hilbert_table, 1.0) == hilbert_table.samples[k]


def test_gamma_at_below_window_returns_tail(cp_table):
    r = 0.5 * math.exp(cp_table.u_min)
    assert gamma_at(cp_table, r) == cp_table.tail_left
    with pytest.raises(ValueError):
        gamma_at(cp_table, -1.0)


def test_symbol_at_zero():
    assert a_of_omega(0.0) == -0.75


def test_symbol_triangle_bound_and_symmetry():
    rng = np.random.default_rng(5)
    omega = rng.uniform(-1e4, 1e4, size=4096)
    mod = np.abs(a_of_omega(omega))
    assert np.all(mod <= 24.0)
    assert np.max(np.abs(mod - np.abs(a_of_omega(-omega)))) <= 1e-12


def test_min_modulus_quick_scan():
    grid = np.arange(-10000, 10001) * 0.01
    assert min_modulus_scan(grid) >= 0.75 - 1e-9


def test_solver_input_validation():
    spec = get_kernel("hilbert")
    for window in ((3.0, -3.0), (-math.inf, 14.0), (-14.0, math.nan)):
        with pytest.raises(ValueError, match="window"):
            solve_c(spec, window=window)
    for step in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="step"):
            solve_c(spec, step=step)
    # the padding grows like log(1/tol), so tol has a floor
    for tol in (-1.0, 0.0, 1e-300, 2.0**-53, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"2\^-52"):
            solve_c(spec, tol=tol)


def test_solver_rejects_non_finite_source():
    bad = KernelSpec(
        name="poisoned",
        k=None,
        k1=None,
        k2=None,
        m_eval=lambda u: np.where(np.asarray(u) > 1.0, np.nan, 1.0),
    )
    with pytest.raises(SolverError):
        solve_c(bad, step=2.0**-5)


def test_contraction_ratio_observed():
    # the library solve runs no sweep; the reference sweep measures the ratio
    for name in ("conjugate-poisson", "synthetic-tent"):
        table = sweep_table(name, 2.0**-8)
        assert table.iterations > 1
        assert 0 < table.max_change_ratio <= 31.0 / 33.0 + 1e-12


@pytest.mark.parametrize(
    "name, fixture",
    [
        ("conjugate-poisson", "cp_table"),
        ("smoothed-truncated", "smoothed_table"),
        ("synthetic-tent", "tent_table"),
    ],
)
def test_spectral_solve_agrees_with_sweep(name, fixture, request):
    """The transform and the reference sweep solve the same recursion, each
    up to its residual; with |a(omega)| >= 3/4 the two tables differ by at
    most NORM_CONSTANT times the sum of the residuals."""
    table = request.getfixturevalue(fixture)
    sweep = sweep_table(name, 2.0**-8)
    gap = float(np.max(np.abs(table.samples - sweep.samples)))
    assert gap <= NORM_CONSTANT * (table.residual_sup + sweep.residual_sup)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    amplitude=st.floats(-2.0, 2.0),
    omega=st.floats(0.01, 100.0),
    phase=st.floats(-math.pi, math.pi),
    offset=st.floats(-2.0, 2.0),
)
def test_cosine_source_matches_closed_form(amplitude, omega, phase, offset):
    """m = A cos(omega u + phi) + C has no limit at either end; the recursion
    maps e^(i omega u) to a(omega) e^(i omega u), so the solution is
    Re(A e^(i(omega u + phi)) / a(omega)) + C / a(0)."""
    spec = KernelSpec(
        name="cosine",
        k=None,
        k1=None,
        k2=None,
        m_eval=lambda u: amplitude * np.cos(omega * np.asarray(u) + phase) + offset,
    )
    table = solve_c(spec, step=2.0**-7)
    u = table.grid
    want = (amplitude * np.exp(1j * (omega * u + phase)) / a_of_omega(omega)).real
    want += offset / a_of_omega(0.0).real
    assert float(np.max(np.abs(table.samples - want))) <= 1e-10


def test_tent_solution_matches_word_expansion(tent_table):
    """Two routes to the same fixed point: sweeping until the geometric
    tail is below tol, versus summing shift words explicitly to depth 30.
    The word route truncates with a certified remainder, the sweep with
    tol plus an interpolation term, so the observed gap must stay under
    the combined budget."""
    y = np.arange(-6.0, 6.0, 1.0 / 16)
    depth = 30
    oracle = neumann_word_sum(tent_m, y, depth)
    solved = tent_table.c_at(y)
    lip = float(np.max(np.abs(np.diff(tent_table.samples)))) / tent_table.step
    budget = neumann_tail_bound(1.0, depth) + 1e-8 + lip * tent_table.step
    assert float(np.max(np.abs(solved - oracle))) <= budget


def test_table_postinit_validates_length():
    with pytest.raises(ValueError):
        CoefficientTable(
            u_min=0.0,
            u_max=1.0,
            step=0.5,
            samples=np.zeros(5),
            tail_left=0.0,
            tail_right=0.0,
            residual_sup=0.0,
            iterations=0,
        )


def test_table_round_trip_exact(tmp_path, cp_table):
    base = tmp_path / "cp"
    write_table(cp_table, base, extra={"note": "round-trip"})
    back = read_table(base)
    assert np.array_equal(back.samples, cp_table.samples)
    assert back.u_min == cp_table.u_min
    assert back.u_max == cp_table.u_max
    assert back.step == cp_table.step
    assert back.tail_left == cp_table.tail_left
    assert back.tail_right == cp_table.tail_right
    assert back.residual_sup == cp_table.residual_sup
    assert back.iterations == cp_table.iterations
    assert back.kernel_name == cp_table.kernel_name
    assert back.max_change_ratio == cp_table.max_change_ratio


def test_read_table_rejects_foreign_header(tmp_path):
    base = tmp_path / "bad"
    write_table(
        CoefficientTable(
            u_min=0.0,
            u_max=1.0,
            step=0.5,
            samples=np.zeros(3),
            tail_left=0.0,
            tail_right=0.0,
            residual_sup=0.0,
            iterations=1,
        ),
        base,
    )
    csv_file = base.with_suffix(".csv")
    csv_file.write_text("a,b\n0,0\n")
    with pytest.raises(ValueError):
        read_table(base)


def test_tent_detects_zero_tails(tent_table):
    assert tent_table.tail_left == 0.0
    assert tent_table.tail_right == 0.0
