"""Averaged Haar-shift representations of odd convolution kernels.

The package splits into small layers: exact piecewise primitives
(`piecewise`), kernel descriptions (`kernels`), the coefficient recursion
solver (`solver`), random lattice sampling (`dyadic`), kernel
reconstruction and Monte-Carlo estimates (`reconstruct`), and the shift
operator applied to concrete test functions (`operators`).
"""

from .dyadic import (
    Estimate,
    LevelRange,
    accumulate_samples,
    cutoff_for_tolerance,
    tail_bound_value,
)
from .kernels import (
    KernelSpec,
    ValidationReport,
    builtin_names,
    get_kernel,
    kernel_value,
    m_of,
    validate_kernel,
)
from .operators import (
    OperatorError,
    TestFunction,
    apply_averaged,
    direct_pv,
    indicator_function,
    triangle_function,
)
from .piecewise import (
    DiracComb,
    Interval,
    PiecewiseLinear,
    StepFunction,
    convolve_steps,
    integrate_pl,
    make_g,
    make_h,
    reflect,
    rescale_to_interval,
    second_derivative_atoms,
)
from .reconstruct import (
    CompareReport,
    compare_report,
    kernel_profile,
    mc_estimate,
    reconstruct_at,
)
from .solver import (
    CoefficientTable,
    SolverError,
    a_of_omega,
    gamma_at,
    min_modulus_scan,
    read_table,
    residual,
    solve_c,
    write_table,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientTable",
    "CompareReport",
    "DiracComb",
    "Estimate",
    "Interval",
    "KernelSpec",
    "LevelRange",
    "OperatorError",
    "PiecewiseLinear",
    "SolverError",
    "StepFunction",
    "TestFunction",
    "ValidationReport",
    "a_of_omega",
    "accumulate_samples",
    "apply_averaged",
    "builtin_names",
    "compare_report",
    "convolve_steps",
    "cutoff_for_tolerance",
    "direct_pv",
    "gamma_at",
    "get_kernel",
    "indicator_function",
    "integrate_pl",
    "kernel_profile",
    "kernel_value",
    "m_of",
    "make_g",
    "make_h",
    "mc_estimate",
    "min_modulus_scan",
    "read_table",
    "reconstruct_at",
    "reflect",
    "rescale_to_interval",
    "residual",
    "second_derivative_atoms",
    "solve_c",
    "tail_bound_value",
    "triangle_function",
    "validate_kernel",
    "write_table",
]
