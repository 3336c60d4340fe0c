"""Numerical laboratory for self-similar asymptotics of heat flows with
inverse-square (Hardy-type) potentials.

The package builds the explicit eigenbasis of the weighted
Ornstein-Uhlenbeck operator, integrates the self-similar flow spectrally,
tracks the parabolic frequency function to its limit, extracts the blow-up
profile coefficients by Cauchy-type integral formulas, and verifies the
underlying weighted functional inequalities on randomized families.
"""

__version__ = "0.2.1"

from .angular import AngularPotential, AngularSpectrum, check_positivity, solve_angular
from .errors import HardyHeatError
from .evolve import PerturbationSpec, Trajectory, integrate_backward
from .ou_basis import OUBasis, OUMode, enumerate_modes, multiplicity

__all__ = [
    "AngularPotential",
    "AngularSpectrum",
    "HardyHeatError",
    "OUBasis",
    "OUMode",
    "PerturbationSpec",
    "Trajectory",
    "__version__",
    "check_positivity",
    "enumerate_modes",
    "integrate_backward",
    "multiplicity",
    "solve_angular",
]
