import csv
import io
import json
import math
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarshift import (
    NORM_CONSTANT,
    RECURSION,
    CoefficientTable,
    KernelSpec,
    SolverError,
    a_of_omega,
    get_kernel,
    read_table,
    residual,
    solve_c,
    write_table,
)
from haarshift import solver
from haarshift.solver import modulus_chunks

from conftest import sweep_table, tent_m
from oracles import neumann_tail_bound, neumann_word_sum, plain_symbol


def test_hilbert_solution_is_constant(hilbert_table):
    assert np.max(np.abs(hilbert_table.samples + 8.0 / 3.0)) <= 1e-6
    assert hilbert_table.tail_left == pytest.approx(-8.0 / 3.0, abs=1e-12)
    assert hilbert_table.tail_right == pytest.approx(-8.0 / 3.0, abs=1e-12)
    assert hilbert_table.residual_sup <= 1e-7


def test_zero_source_gives_zero_solution():
    spec = KernelSpec(
        name="null-source", k=None, k2=None, m_eval=np.zeros_like
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


def test_residual_of_window_narrower_than_ln4_is_zero():
    # every grid point's u + ln 4 read leaves the window: no probe is left
    table = CoefficientTable(
        u_min=0.0,
        u_max=1.25,
        step=0.25,
        samples=np.ones(6),
        tail_left=0.0,
        tail_right=0.0,
        residual_sup=0.0,
        iterations=0,
    )
    assert residual(table, get_kernel("conjugate-poisson")) == 0.0


def test_gamma_at_constant(hilbert_table):
    for r in (1e-5, 0.37, 1.0, 42.0, 1e5):
        assert hilbert_table.c_at(np.log(r)) == pytest.approx(-8.0 / 3.0, abs=1e-6)


def test_gamma_at_grid_node_is_exact(hilbert_table):
    # u = 0 is a grid node of the (-14, 14) window, and ln 1.0 is exactly 0,
    # so interpolation must return the stored sample untouched
    k = round(-hilbert_table.u_min / hilbert_table.step)
    assert hilbert_table.c_at(np.log(1.0)) == hilbert_table.samples[k]


def test_gamma_at_below_window_returns_tail(cp_table):
    r = 0.5 * math.exp(cp_table.u_min)
    assert cp_table.c_at(np.log(r)) == cp_table.tail_left


EPS = 2.0**-52
DYADIC_STEPS = (2.0**-9, 2.0**-3, 0.5)


@st.composite
def lerp_tables(draw):
    """Random tables: a dyadic or a non-dyadic step and window start, rough
    or smooth samples, tails apart from the end samples."""
    n = draw(st.integers(1, 200))
    step = draw(st.sampled_from(DYADIC_STEPS + (0.003, 1.0 / 3.0)))
    if draw(st.booleans()):
        u_min = draw(st.integers(-320, 320)) / 16.0
    else:
        u_min = draw(st.floats(-20.0, 20.0))
    if draw(st.booleans()):
        values = st.floats(-1e3, 1e3, allow_subnormal=False)
        samples = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    else:
        amplitude = draw(st.floats(0.1, 1e3))
        omega = draw(st.floats(0.0, 3.0))
        samples = amplitude * np.sin(omega * (u_min + step * np.arange(n)) + 0.3)
    tails = st.floats(-1e3, 1e3)
    return CoefficientTable(
        u_min=u_min,
        u_max=u_min + (n - 1) * step,
        step=step,
        samples=samples,
        tail_left=draw(tails),
        tail_right=draw(tails),
        residual_sup=0.0,
        iterations=0,
    )


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(table=lerp_tables(), data=st.data())
def test_c_at_into_out_matches_c_at(table, data):
    """c_at(u, out=buf) writes into buf what c_at(u) returns, bit for bit,
    and returns buf: inside the window, in both tails, at NaN and +-inf,
    for an empty u and for a scalar."""
    grid = table.grid
    probe = st.floats(grid[0] - 2.0, grid[-1] + 2.0) | st.sampled_from(
        [math.nan, math.inf, -math.inf, grid[0], grid[-1]]
    )
    u = np.array(data.draw(st.lists(probe, max_size=40)), dtype=float)
    cases = [
        u,
        u[(u >= grid[0]) & (u <= grid[-1])],
        np.array([grid[0] - 1.0, grid[-1] + 1.0, math.nan, math.inf, -math.inf, grid[0]]),
        np.empty(0),
        np.array(data.draw(probe)),
    ]
    for case in cases:
        buf = np.full(case.shape, 12345.0)
        got = table.c_at(case, out=buf)
        assert got is buf
        assert np.array_equal(bits(got), bits(table.c_at(case)))


def exact_lerp(table, u: float) -> Fraction:
    """The linear interpolant through (u_min + j step, s[j]) at u, in exact
    rational arithmetic."""
    s = table.samples
    t = (Fraction(u) - Fraction(table.u_min)) / Fraction(table.step)
    t = min(max(t, Fraction(0)), Fraction(len(s) - 1))
    j = min(math.floor(t), len(s) - 2)
    if j < 0:
        return Fraction(s[0])
    return Fraction(s[j]) + (t - j) * (Fraction(s[j + 1]) - Fraction(s[j]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(table=lerp_tables(), data=st.data())
def test_c_at_matches_np_interp(table, data):
    """The index-arithmetic lerp against np.interp and the exact lerp: the
    tails and NaN exactly, the grid nodes bit for bit on a dyadic grid,
    and everything else within the bound the c_at docstring states."""
    grid, s = table.grid, table.samples
    n = len(s)
    inside = st.floats(grid[0], grid[-1])
    around = st.floats(grid[0] - 2.0, grid[-1] + 2.0)
    probes = np.array(
        [grid[0], grid[-1], table.u_max, math.inf, -math.inf, math.nan,
         np.nextafter(grid[0], -math.inf), np.nextafter(grid[-1], math.inf)]
        + data.draw(st.lists(inside, max_size=30))
        + data.draw(st.lists(around, max_size=30))
    )
    probes = np.concatenate([probes, grid])
    with warnings.catch_warnings():
        # NaN and the infinities pass the index cast without a RuntimeWarning
        warnings.simplefilter("error")
        got = table.c_at(probes)
    want = np.interp(probes, grid, s, left=table.tail_left, right=table.tail_right)

    nan = np.isnan(probes)
    assert np.all(np.isnan(got[nan]))
    below, above = probes < grid[0], probes > grid[-1]
    assert np.all(got[below] == table.tail_left)
    assert np.all(got[above] == table.tail_right)
    assert np.array_equal(got[below | above], want[below | above])
    # probes all inside the window skip the tail selection, same values
    inner = ~(nan | below | above)
    assert np.array_equal(table.c_at(probes[inner]), got[inner])

    if table.step in DYADIC_STEPS and table.u_min == round(table.u_min * 16) / 16:
        assert np.array_equal(table.c_at(grid), s)
        assert np.array_equal(table.c_at(grid), np.interp(grid, grid, s))

    rise = float(np.max(np.abs(np.diff(s)))) if n > 1 else 0.0
    bound = 2 * EPS * (n * rise + float(np.max(np.abs(s))))
    # np.interp measures from its own rounded grid node, off by up to
    # 2^-52 |u| / step cells
    interp_bound = 4 * EPS * ((n + float(np.max(np.abs(grid))) / table.step) * rise
                              + float(np.max(np.abs(s))))
    for u, c, c_ref in zip(probes, got, want):
        if not grid[0] <= u <= grid[-1]:
            continue
        assert abs(Fraction(float(c)) - exact_lerp(table, float(u))) <= bound
        assert abs(c - c_ref) <= bound + interp_bound

    for u in (grid[0], float(probes[-1]), table.u_max, math.nan):
        one = table.c_at(u)
        assert type(one) is float
        assert type(table.c_at(np.float64(u))) is float
        assert type(table.c_at(np.array(u))) is float
        assert one == table.c_at(np.array([u]))[0] or (math.isnan(one) and math.isnan(u))


def test_symbol_at_zero():
    assert a_of_omega(0.0) == -0.75


def symbol_bits(a) -> bytes:
    return np.asarray(a, dtype=complex).tobytes()


def test_symbol_is_the_plain_formula_bit_for_bit(monkeypatch):
    """a_of_omega skips the exponential of the zero shift, which is 1, and
    still gives the plain sum's bits: over the conjugate-poisson solve's
    own rfft frequencies, at their negatives and at 0."""
    grids = []

    def spy(omega):
        grids.append(omega)
        return a_of_omega(omega)

    monkeypatch.setattr(solver, "a_of_omega", spy)
    solve_c(get_kernel("conjugate-poisson"), step=2.0**-11)
    (omega,) = grids
    assert symbol_bits(a_of_omega(omega)) == symbol_bits(plain_symbol(omega))
    assert symbol_bits(a_of_omega(-omega)) == symbol_bits(plain_symbol(-omega))
    zero = a_of_omega(0.0)
    assert type(zero) is complex and zero == -0.75
    assert symbol_bits(zero) == symbol_bits(plain_symbol(0.0))


def test_symbol_triangle_bound_and_symmetry():
    rng = np.random.default_rng(5)
    omega = rng.uniform(-1e4, 1e4, size=4096)
    mod = np.abs(a_of_omega(omega))
    assert np.all(mod <= 24.0)
    assert np.max(np.abs(mod - np.abs(a_of_omega(-omega)))) <= 1e-12


def test_min_modulus_quick_scan():
    chunks = modulus_chunks(20001, lambda k: (k - 10000) * 0.01)
    assert min(float(mod.min()) for _, mod in chunks) >= 0.75 - 1e-9


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


@pytest.mark.parametrize("window", [(-6.0, 6.0), (-3.0, 5.0)])
@pytest.mark.parametrize("fixture", ["cp_table", "smoothed_table"])
def test_narrow_window_matches_default_window(fixture, window, request):
    """A window narrower than the default trims the kept source on both
    sides; on the overlap the table agrees with the default window's
    within tol."""
    full = request.getfixturevalue(fixture)
    tol = 1e-8
    table = solve_c(get_kernel(full.kernel_name), window=window, step=full.step, tol=tol)
    j = round((window[0] - full.u_min) / full.step)
    overlap = slice(j, j + len(table.samples))
    assert np.array_equal(table.grid, full.grid[overlap])
    assert np.max(np.abs(table.samples - full.samples[overlap])) <= tol


def test_solver_rejects_non_finite_source():
    bad = KernelSpec(
        name="poisoned",
        k=None,
        k2=None,
        m_eval=lambda u: np.where(np.asarray(u) > 1.0, np.nan, 1.0),
    )
    with pytest.raises(SolverError, match=HYPOTHESIS):
        solve_c(bad, step=2.0**-5)


HYPOTHESIS = r"x\^3 K''\(x\) bounded"


def cos_log_kernel(m_eval=None) -> KernelSpec:
    """K = cos(ln x) / x: x^3 K'' = cos(ln x) + 3 sin(ln x) is bounded but
    has no limit."""
    return KernelSpec(
        name="cos-log",
        k=lambda x: np.cos(np.log(x)) / x,
        k2=lambda x: (np.cos(np.log(x)) + 3 * np.sin(np.log(x))) / np.asarray(x) ** 3,
        m_eval=m_eval,
    )


@pytest.mark.parametrize(
    "spec",
    [
        KernelSpec(name="cubic", k=None, k2=lambda x: np.ones_like(np.asarray(x, dtype=float))),
        cos_log_kernel(),
    ],
    ids=["x3k2-is-x3", "cos-log-by-k2"],
)
def test_solver_rejects_source_outside_hypothesis(spec):
    """Given by k2 alone, x^3 K'' = x^3 grows and cos(ln x) + 3 sin(ln x)
    has no limit: the generic route holds m at its value at the guard,
    which the padded window passes, so the solve refuses either."""
    with pytest.raises(SolverError, match=HYPOTHESIS):
        solve_c(spec, step=2.0**-7)


@pytest.mark.parametrize("window", [(-14.0, 14.0), (-1.0, 1.0)], ids=["default", "narrow"])
@pytest.mark.parametrize("tol", [1e-2, 1e-8, 2.0**-52])
@pytest.mark.parametrize(
    "spec",
    [
        KernelSpec(name="cubic", k=None, k2=lambda x: np.ones_like(np.asarray(x, dtype=float))),
        cos_log_kernel(),
        KernelSpec(
            name="cos-log-left",
            k=None,
            k2=lambda x: np.where(x < 1.0, np.cos(np.log(x)), 1.0) / np.asarray(x) ** 3,
        ),
    ],
    ids=["x3k2-is-x3", "cos-log-by-k2", "cos-log-left-only"],
)
def test_solver_checks_the_guard_wherever_the_grid_ends(spec, tol, window):
    """The generic route holds m at its value at -GENERIC_GUARD and
    +GENERIC_GUARD whatever the grid, so a source that has not settled at
    either is refused at every tol and window, also when the padded grid
    stops far inside the guard."""
    with pytest.raises(SolverError, match=HYPOTHESIS):
        solve_c(spec, window=window, step=2.0**-7, tol=tol)


def test_cos_log_kernel_with_exact_m_solves():
    """The same source through its exact m_eval has no guard: it solves,
    and with no limit at the right end the tail is the last sample."""
    table = solve_c(cos_log_kernel(lambda u: np.cos(u) + 3 * np.sin(u)), step=2.0**-7)
    assert table.tail_right == table.samples[-1]
    assert table.tail_left == table.samples[0]
    assert table.sup_norm() <= NORM_CONSTANT * math.sqrt(10.0) + 1e-6


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
        k2=None,
        m_eval=lambda u: amplitude * np.cos(omega * np.asarray(u) + phase) + offset,
    )
    table = solve_c(spec, step=2.0**-7)
    u = table.grid
    want = (amplitude * np.exp(1j * (omega * u + phase)) / a_of_omega(omega)).real
    want += offset / a_of_omega(0.0).real
    assert float(np.max(np.abs(table.samples - want))) <= 1e-10


@pytest.mark.parametrize("tol", [1e-2, 1e-8, 2.0**-52])
def test_weighted_reach_certifies_each_side(tol):
    """Recomputed from RECURSION: isolating the dominant term leaves steps s
    with weights |w_s| / |w_dom|, and the source enters at -shift_dom.  On
    each side, at the solver's (beta, D), the map's ratio in the weighted
    norm is below 1 and C(beta) e^(-beta D) is within (2/3) tol (up to
    rounding), D is within 1% of the best over a fine scan of beta, and the
    solve samples the source past D on that side of the window."""
    dom_shift, dom_w = max(RECURSION, key=lambda term: abs(term[1]))
    steps = [(shift - dom_shift, abs(w / dom_w)) for shift, w in RECURSION if shift != dom_shift]

    def certificate(side, beta):
        q = sum(w * np.exp(side * beta * s) for s, w in steps)
        return q, np.exp(-side * beta * dom_shift) / abs(dom_w) / (1 - q)

    seen = []
    spec = KernelSpec("zero", None, None, m_eval=lambda u: seen.append(u) or np.zeros(np.shape(u)))
    table = solve_c(spec, step=2.0**-4, tol=tol)
    fine = np.linspace(0.0, 1.0, 10001)[1:-1]
    bound = 2.0 / 3.0 * tol
    for side, (beta, reach) in zip((-1, 1), solver.weighted_reach(tol)):
        assert 0 < beta < 1 and reach > 0
        q, c = certificate(side, beta)
        assert q < 1
        assert c * math.exp(-beta * reach) <= bound * (1 + 1e-12)
        q_fine, c_fine = certificate(side, fine)
        assert np.all(q_fine < 1)
        assert reach <= 1.01 * float(np.min(np.log(c_fine / bound) / fine))
    (_, left), (_, right) = solver.weighted_reach(tol)
    assert min(float(np.min(u)) for u in seen) < table.u_min - left
    assert max(float(np.max(u)) for u in seen) > table.u_max + right


@pytest.mark.parametrize("omega, phase", [(0.05, 3.0), (1.0, 2.0), (10.0, 0.5)])
def test_cosine_source_within_the_certified_bound(omega, phase):
    """m = cos(omega u + phi) has no limit, so the source dropped past the
    reach is of order 1 at tol 1e-4.  The solve promises at most tol from
    the trim and (4/3) tol sup|f| from the reach, and sup|f| <= 2 sup|m|:
    f = m - sum w b(u + shift), with b a step between m / a(0) at the grid
    ends, and the sum stays between those ends' values of m."""
    tol = 1e-4
    spec = KernelSpec("cosine", None, None, m_eval=lambda u: np.cos(omega * np.asarray(u) + phase))
    table = solve_c(spec, step=2.0**-5, tol=tol)
    want = (np.exp(1j * (omega * table.grid + phase)) / a_of_omega(omega)).real
    assert float(np.max(np.abs(table.samples - want))) <= tol + NORM_CONSTANT * tol * 2.0


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("u_min", -math.inf),
        ("u_min", 2.0),
        ("u_max", math.nan),
        ("step", 0.0),
        ("step", -0.5),
        ("step", math.inf),
        ("tail_left", math.nan),
        ("tail_right", math.inf),
    ],
)
def test_table_postinit_names_bad_field(field, value):
    fields = dict(u_min=0.0, u_max=1.0, step=0.5, samples=np.zeros(3), tail_left=0.0,
                  tail_right=0.0, residual_sup=0.0, iterations=0)
    fields[field] = value
    name = "u_min <= u_max" if field.startswith("u_") else field
    with pytest.raises(ValueError, match=name):
        CoefficientTable(**fields)


def test_table_postinit_rejects_non_finite_samples():
    with pytest.raises(ValueError, match="samples must be finite"):
        CoefficientTable(u_min=0.0, u_max=1.0, step=0.5, samples=[0.0, math.nan, 0.0],
                         tail_left=0.0, tail_right=0.0, residual_sup=0.0, iterations=0)


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


def csv_writer_bytes(table) -> bytes:
    """The table CSV as csv.writer renders it, each float with format(v, ".17g")."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["u", "c"])
    for u, v in zip(table.grid, table.samples):
        writer.writerow([format(u, ".17g"), format(v, ".17g")])
    return buf.getvalue().encode()


def test_write_table_refuses_extra_keys_that_name_fields(tmp_path, hilbert_table):
    """An `extra` key that is also a sidecar field would change the table
    read back (tail_left 5.0 in place of -8/3): write_table raises, naming
    the key, and writes nothing."""
    with pytest.raises(ValueError, match="tail_left"):
        write_table(hilbert_table, tmp_path / "h", extra={"tail_left": 5.0, "note": "ok"})
    assert not list(tmp_path.iterdir())


def test_write_table_full_size_is_csv_writer_bytes(tmp_path, cp_fine_table):
    """The one format string grows with the rows; at the 57,345 rows of
    conjugate-poisson at 2^-11 it still writes what csv.writer writes."""
    assert len(cp_fine_table.samples) == 57_345
    csv_path, _ = write_table(cp_fine_table, tmp_path / "cp")
    assert csv_path.read_bytes() == csv_writer_bytes(cp_fine_table)


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308]
)
ANY_FLOAT = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    samples=st.lists(ANY_FLOAT, min_size=1, max_size=40),
    u_min=st.one_of(EDGE_FLOATS.filter(lambda v: abs(v) < 1.0), st.floats(-1e6, 1e6)),
    step=st.floats(1e-6, 10.0),
    tails=st.tuples(ANY_FLOAT, ANY_FLOAT),
    residual_sup=ANY_FLOAT,
    max_change_ratio=ANY_FLOAT,
    iterations=st.integers(0, 10**6),
    kernel_name=st.text(max_size=12),
)
def test_table_round_trip_property(
    samples, u_min, step, tails, residual_sup, max_change_ratio, iterations, kernel_name
):
    """write_table then read_table gives the table back bit for bit, and
    the CSV is byte for byte what csv.writer writes."""
    table = CoefficientTable(
        u_min=u_min,
        u_max=u_min + (len(samples) - 1) * step,
        step=step,
        samples=np.array(samples),
        tail_left=tails[0],
        tail_right=tails[1],
        residual_sup=residual_sup,
        iterations=iterations,
        kernel_name=kernel_name,
        max_change_ratio=max_change_ratio,
    )
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, _ = write_table(table, Path(tmp) / "t")
        assert csv_path.read_bytes() == csv_writer_bytes(table)
        back = read_table(Path(tmp) / "t")
    assert back.samples.tobytes() == table.samples.tobytes()
    for name in ("u_min", "u_max", "step", "tail_left", "tail_right", "residual_sup",
                 "max_change_ratio"):
        assert same_bits(getattr(back, name), getattr(table, name)), name
    assert back.iterations == iterations
    assert back.kernel_name == kernel_name


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


def test_read_table_names_missing_sidecar_field(tmp_path, cp_table):
    base = tmp_path / "cp"
    _, json_path = write_table(cp_table, base)
    meta = json.loads(json_path.read_text())
    # the fields with a default may be missing
    del meta["kernel_name"], meta["max_change_ratio"]
    json_path.write_text(json.dumps(meta))
    back = read_table(base)
    assert (back.kernel_name, back.max_change_ratio) == ("", 0.0)
    assert np.array_equal(back.samples, cp_table.samples)
    del meta["u_min"]
    json_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=r"cp\.json has no field 'u_min'"):
        read_table(base)


def test_tent_detects_zero_tails(tent_table):
    assert tent_table.tail_left == 0.0
    assert tent_table.tail_right == 0.0
