"""Numerical verification of sharp Hardy and Rellich inequalities on
nonreversible Finsler model spaces."""

__version__ = "0.1.0"

from .minkowski import MinkowskiNorm
from .models import (HyperbolicBall, RadialProfile, RandersFlat,
                     comparison_D, comparison_s, cutoff_profile,
                     euclidean_flat, truncated_profile)
from .quadrature import QuadratureSpec

__all__ = [
    "MinkowskiNorm", "QuadratureSpec", "RandersFlat", "HyperbolicBall",
    "euclidean_flat", "RadialProfile", "cutoff_profile", "truncated_profile",
    "comparison_s", "comparison_D", "__version__",
]
