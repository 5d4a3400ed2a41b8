import dataclasses
import math
import warnings

import numpy as np
import pytest

from haarshift import (
    KernelSpec,
    builtin_names,
    compare_report,
    get_kernel,
    kernel_value,
    m_of,
    solve_c,
)


def test_builtin_names():
    assert builtin_names() == ["conjugate-poisson", "hilbert", "smoothed-truncated"]


def test_unknown_kernel():
    with pytest.raises(KeyError):
        get_kernel("nosuch")


def test_hilbert_m_is_two_everywhere():
    spec = get_kernel("hilbert")
    u = np.linspace(-40, 40, 101)
    assert np.all(m_of(spec, u) == 2.0)
    assert m_of(spec, 123.4) == 2.0


def test_odd_extension_exact():
    for name in builtin_names():
        spec = get_kernel(name)
        for x in (0.01, 0.7, 3.0, 250.0):
            assert kernel_value(spec, -x) == -kernel_value(spec, x)


def test_kernel_singular_at_zero():
    with pytest.raises(ValueError):
        kernel_value(get_kernel("hilbert"), 0.0)


def test_conjugate_poisson_m_closed_form():
    spec = get_kernel("conjugate-poisson")
    u = np.linspace(-8, 8, 33)
    e2 = np.exp(2 * u)
    expected = 2 * np.exp(4 * u) * (e2 - 3) / (1 + e2) ** 3
    assert np.allclose(m_of(spec, u), expected, rtol=1e-13, atol=1e-300)


def test_m_against_second_difference():
    # independent route: m(u) = x^3 K''(x) at x = e^u, with K'' from a
    # central second difference of K itself, so k and m must agree
    for name in builtin_names():
        spec = get_kernel(name)
        for u in np.linspace(-2.2, 2.2, 10):
            x = math.exp(u)
            h = x * 1e-4
            fd2 = (spec.k(x + h) - 2 * spec.k(x) + spec.k(x - h)) / h**2
            assert m_of(spec, u) == pytest.approx(x**3 * fd2, abs=1e-6), name


def test_conjugate_poisson_m_root():
    spec = get_kernel("conjugate-poisson")
    assert m_of(spec, math.log(math.sqrt(3.0))) == pytest.approx(0.0, abs=1e-14)


def test_conjugate_poisson_m_limits():
    spec = get_kernel("conjugate-poisson")
    assert m_of(spec, 25.0) == pytest.approx(2.0, abs=1e-12)
    assert m_of(spec, -25.0) == pytest.approx(0.0, abs=1e-12)


def test_m_matches_x3k2_identity():
    # the log substitution is an identity, not an approximation: on any
    # probe grid the sup of |m| equals the sup of |x^3 K''|
    for name in builtin_names():
        spec = get_kernel(name)
        x = np.logspace(-3, 3, 101)
        lhs = np.abs(m_of(spec, np.log(x)))
        rhs = np.abs(x**3 * spec.k2(x))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_growing_kernel_fails_reconstruction():
    # K = x breaks decay, and k2 = 0 disagrees with it: the solve sees
    # m = 0 and the independent verify route reconstructs K = 0
    spec = KernelSpec(
        name="linear-growth",
        k=lambda x: np.asarray(x, dtype=float),
        k2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    table = solve_c(spec, step=2.0**-6)
    assert compare_report(spec, table, [0.5, 2.0, 30.0])["max_rel_err"] >= 1.0


@pytest.mark.parametrize("name", ["hilbert", "conjugate-poisson", "smoothed-truncated"])
def test_builtins_solve_without_m_eval(name):
    """The generic route through k2 admits every built-in kernel, with no
    warning, and solves to the m_eval table within tol."""
    spec = get_kernel(name)
    tol = 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generic = solve_c(dataclasses.replace(spec, m_eval=None), step=2.0**-7, tol=tol)
    exact = solve_c(spec, step=2.0**-7, tol=tol)
    assert np.max(np.abs(generic.samples - exact.samples)) <= tol
    assert abs(generic.tail_left - exact.tail_left) <= tol
    assert abs(generic.tail_right - exact.tail_right) <= tol


def test_builtin_evaluators_at_large_x():
    # x^2 and x^4 overflow past about 1.3e154 and 1.3e77; for all three
    # kernels K is 1/x and x^3 K'' is 2 there to double precision (K'' is
    # read below 1e100, where x^3 is finite)
    x = np.array([1e70, 1e80, 1e150, 1e160, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in builtin_names():
            spec = get_kernel(name)
            assert np.allclose(spec.k(x) * x, 1.0, rtol=1e-15, atol=0.0), name
            below = x[x < 1e100]
            assert np.allclose(spec.k2(below) * below**3, 2.0, rtol=1e-15, atol=0.0), name


def test_smoothed_truncated_series_window():
    # the closed form of x^3 K'' cancels near 0; the series branch has to
    # join the direct branch without a jump at the switch point, where the
    # leading term -3x^4 puts the value near -1.9e-5
    spec = get_kernel("smoothed-truncated")
    x = np.array([0.05 - 1e-9, 0.05 + 1e-9])
    vals = x**3 * spec.k2(x)
    assert np.all(np.abs(vals + 3.0 * 0.05**4) < 1e-6)
    assert abs(vals[0] - vals[1]) < 1e-10


def test_scalar_and_array_evaluation_agree():
    for name in builtin_names():
        spec = get_kernel(name)
        xs = np.array([0.3, 1.7])
        for fn in (spec.k, spec.k2):
            arr = fn(xs)
            assert fn(0.3) == pytest.approx(float(arr[0]), rel=1e-15)
            assert np.ndim(fn(0.3)) == 0
