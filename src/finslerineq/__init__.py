"""Numerical verification of sharp Hardy and Rellich inequalities on
nonreversible Finsler model spaces.

The public names load their submodule on first access (PEP 562), so
``import finslerineq`` loads no numpy and ``finslerineq.cli`` can size
numpy's BLAS thread pool before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_SOURCES = {
    "MinkowskiNorm": "minkowski",
    "QuadratureSpec": "quadrature",
    **dict.fromkeys(("RandersFlat", "HyperbolicBall", "euclidean_flat",
                     "RadialProfile", "cutoff_profile", "truncated_profile",
                     "comparison_s", "comparison_D"), "models"),
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__),
                    name)
    globals()[name] = value
    return value
