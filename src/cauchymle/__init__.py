"""Robust location and scatter estimation with heavy-tailed families.

Maximum-likelihood fitting of Cauchy-type distributions (univariate,
multivariate elliptical, matrix-variate, and conformal) by geodesic
descent on their natural parameter manifolds: unit-determinant
symmetric positive-definite matrices with the affine-invariant metric, and
the hyperbolic upper half-space.  Includes piecewise-geodesic spline
regression into the hyperbolic plane and a Monte Carlo harness.
"""

from . import cauchy, conformal, datasets, gradcheck, halfspace, matrix_cauchy, \
    montecarlo, spd
from .descent import DescentConfig, FitReport, FitStatus
from .halfspace import INFINITY, HPoint, HTangent

__version__ = "0.1.0"

__all__ = [
    "cauchy", "conformal", "datasets", "gradcheck", "halfspace",
    "matrix_cauchy", "montecarlo", "spd", "spline",
    "DescentConfig", "FitReport", "FitStatus",
    "INFINITY", "HPoint", "HTangent",
    "__version__",
]
