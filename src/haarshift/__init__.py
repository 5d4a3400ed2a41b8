"""Averaged Haar-shift representations of odd convolution kernels.

The package splits into small layers: exact piecewise primitives
(`piecewise`), kernel descriptions (`kernels`), the coefficient recursion
solver (`solver`), random lattice sampling (`dyadic`), kernel
reconstruction and Monte-Carlo estimates (`reconstruct`), and the shift
operator applied to concrete test functions (`operators`).
"""

from . import dyadic, kernels, operators, piecewise, reconstruct, solver
from .dyadic import *
from .kernels import *
from .operators import *
from .piecewise import *
from .reconstruct import *
from .solver import *

__version__ = "0.1.0"

# each module's __all__ is its public API; the package re-exports them all
__all__ = [
    name
    for module in (piecewise, kernels, solver, dyadic, reconstruct, operators)
    for name in module.__all__
]
