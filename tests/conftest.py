import numpy as np
import pytest

from haarshift import CoefficientTable, KernelSpec, get_kernel, solve_c
from haarshift.operators import level_terms

from oracles import sweep_solve

# reference sweep tables by (kernel name, step), shared by every test that
# compares against the sweep or measures its contraction ratio
_SWEEPS: dict = {}


def sweep_table(name: str, step: float):
    """The reference sweep's table for a built-in kernel or the tent, solved
    once per session."""
    key = (name, step)
    if key not in _SWEEPS:
        spec = tent_spec() if name == "synthetic-tent" else get_kernel(name)
        _SWEEPS[key] = sweep_solve(spec, step=step)
    return _SWEEPS[key]


def linear_table(slope, intercept, u_min=-14.0, u_max=14.0, step=2.0**-6):
    """Coefficient table with c(u) = slope u + intercept on the window and
    its end values as the tails."""
    n = round((u_max - u_min) / step) + 1
    grid = u_min + step * np.arange(n)
    return CoefficientTable(
        u_min=u_min,
        u_max=u_max,
        step=step,
        samples=slope * grid + intercept,
        tail_left=slope * u_min + intercept,
        tail_right=slope * u_max + intercept,
        residual_sup=0.0,
        iterations=0,
    )


def const_table(value):
    """Coefficient table with c = value everywhere, tails included."""
    return linear_table(0.0, value)


def wavy_table():
    """Non-constant samples on a non-dyadic step, tails apart from the end
    samples."""
    u_min, step, n = -3.1, 1.0 / 3.0, 16
    grid = u_min + step * np.arange(n)
    return CoefficientTable(
        u_min=u_min,
        u_max=u_min + step * (n - 1),
        step=step,
        samples=np.sin(2.0 * grid) + 0.3 * grid,
        tail_left=0.7,
        tail_right=-0.4,
        residual_sup=0.0,
        iterations=0,
    )


def tally_bits(tallies):
    """Everything the engine's per-level tallies hold, for bit-for-bit
    comparison."""
    return [(t.points, t.sums.tolist(), t.hits, t.mean, t.stderr) for t in tallies]


def tent_m(u):
    """Synthetic compactly supported source term: unit tent on [-1/2, 1/2]."""
    u = np.asarray(u, dtype=float)
    return np.maximum(0.0, 1.0 - 2.0 * np.abs(u))


def tent_spec() -> KernelSpec:
    # driven purely through m_eval; the kernel evaluators are never touched
    # by the solver, so there is no kernel to supply
    return KernelSpec(name="synthetic-tent", k=None, k2=None, m_eval=tent_m)


@pytest.fixture(scope="session")
def hilbert_table():
    return solve_c(get_kernel("hilbert"), step=2.0**-7)


@pytest.fixture(scope="session")
def cp_table():
    return solve_c(get_kernel("conjugate-poisson"), step=2.0**-8)


@pytest.fixture(scope="session")
def smoothed_table():
    return solve_c(get_kernel("smoothed-truncated"), step=2.0**-8)


@pytest.fixture(scope="session")
def tent_table():
    return solve_c(tent_spec(), step=2.0**-8)


@pytest.fixture(scope="session")
def cp_fine_table():
    """conjugate-poisson at step 2^-11: 57,345 samples."""
    return solve_c(get_kernel("conjugate-poisson"), step=2.0**-11)


@pytest.fixture(scope="session")
def smoothed_fine_table():
    return solve_c(get_kernel("smoothed-truncated"), step=2.0**-9)


def mass_term(table, x: float, y: float, levels: range):
    """`mc`'s level term for K(x - y): the averaged operator at x on a unit
    mass at y."""
    [(_, term)] = level_terms(table, [(y, 1.0, "mass")], [(x, levels)])
    return term
