"""Numerical laboratory for self-similar asymptotics of heat flows with
inverse-square (Hardy-type) potentials.

The package builds the explicit eigenbasis of the weighted
Ornstein-Uhlenbeck operator, integrates the self-similar flow spectrally,
tracks the parabolic frequency function to its limit, extracts the blow-up
profile coefficients by Cauchy-type integral formulas, and verifies the
underlying weighted functional inequalities on randomized families.
"""

__version__ = "0.2.1"

from .errors import HardyHeatError

__all__ = ["HardyHeatError", "__version__"]
