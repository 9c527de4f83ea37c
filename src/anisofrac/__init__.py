"""Numerical laboratory for anisotropic fractional energies.

Spatially varying two-point weights; singular quadrature of the
associated nonlocal energies, with a far ladder and a closed-form
remainder folded into per-node weights, and an error bound on the
radial and angular quadrature of the node-sampled integrand;
variational solvers for the nonlocal and local Dirichlet problems; the
s -> 1 and s -> 0 limit sweeps; and the one-dimensional homogenization
experiments showing that averaging and localization do not commute.
"""

from .gridfn import FractionalParams, Grid, GridFunction, gradient_lp, lp_norm
from .kernel import Kernel, builtin, matrix_kernel, symmetrize, verify_hypotheses
from .energy import (
    EnergyReport,
    QuadratureSettings,
    anisotropic_energy,
    bbm_upper_bound_check,
    gagliardo,
    interpolation_check,
)

__version__ = "0.1.0"

__all__ = [
    "FractionalParams",
    "Grid",
    "GridFunction",
    "gradient_lp",
    "lp_norm",
    "Kernel",
    "builtin",
    "matrix_kernel",
    "symmetrize",
    "verify_hypotheses",
    "EnergyReport",
    "QuadratureSettings",
    "anisotropic_energy",
    "bbm_upper_bound_check",
    "gagliardo",
    "interpolation_check",
    "__version__",
]
