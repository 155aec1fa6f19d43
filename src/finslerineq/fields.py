"""Differential calculus on model spaces, on point stacks.

Every function takes a stack of points (..., n) and acts on the last axis
only, so a whole quadrature node set is one call; a point (n,) is a stack
with no leading axes.
Differentials are analytic when the field carries one, otherwise central
finite differences.  Gradients go through the inverse Legendre transform of
the model's norm (``model.sharp``), and the Laplacian is assembled in
divergence form: the flux ``sigma(x) * grad u`` is differenced componentwise;
lengths come from the kernel of ``minkowski``.
The nonlinear Finsler Laplacian is only defined where ``du != 0``; a point
whose stencil has a nearly vanishing differential reads NaN, so callers can
exclude it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .minkowski import _dot, _enorm

CRITICAL_DIFFERENTIAL = 1e-8
# points per Laplacian stencil evaluation: bounds the (block, 2, n, n) stack
_LAPLACIAN_BLOCK = 1024


@dataclass
class ScalarField:
    """A scalar field with optional analytic differential.

    ``fn`` maps points (..., n) to values (...); ``grad``, when given, maps
    them to the differential components (..., n).  Both must act on the last
    axis only, so that a single point (n,) and a stack of points are the
    same call.  Calling the field returns an array shaped ``x.shape[:-1]``,
    broadcasting a constant ``fn`` to it.
    ``support_radius`` bounds the support in the relevant radial variable
    when known.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    support_radius: float | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.fn(x), dtype=float)
        if out.shape != x.shape[:-1]:
            out = np.broadcast_to(out, x.shape[:-1]).copy()
        return out


def _unit_steps(x: np.ndarray, h) -> np.ndarray:
    """The 2n points x +/- h e_i as a (..., 2, n, n) stack (sign, i, coord)."""
    n = x.shape[-1]
    e = np.asarray(h)[..., None, None] * np.eye(n)
    z = np.empty(x.shape[:-1] + (2, n, n))
    np.add(x[..., None, :], e, out=z[..., 0, :, :])
    np.subtract(x[..., None, :], e, out=z[..., 1, :, :])
    return z


def differential(field: ScalarField, x: np.ndarray) -> np.ndarray:
    """du at x (..., n): analytic when available, else central differences
    of step 1e-6 max(1, |x|) over all 2n shifted points of every point in
    one stack."""
    x = np.asarray(x, dtype=float)
    if field.grad is not None:
        return np.asarray(field.grad(x), dtype=float)
    h = 1e-6 * np.maximum(1.0, _enorm(x))
    vals = field(_unit_steps(x, h))
    return (vals[..., 0, :] - vals[..., 1, :]) / \
        (2.0 * np.asarray(h)[..., None])


def numeric_laplacian(model, measure: str, field: ScalarField,
                      x: np.ndarray) -> np.ndarray:
    """Divergence-form Laplacian: (1/sigma) d_i (sigma (grad u)^i) by central
    differences of the flux, step 1e-4 max(1, |x|).

    Returns (...) for points (..., n), NaN at critical points, where some
    stencil point has |du| below the reliability threshold; the stencils
    are evaluated in blocks of a fixed number of points.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, x.shape[-1])
    out = np.empty(flat.shape[0])
    for start in range(0, flat.shape[0], _LAPLACIAN_BLOCK):
        stop = start + _LAPLACIAN_BLOCK
        lap, du_min = _laplacian_block(model, measure, field,
                                       flat[start:stop])
        out[start:stop] = np.where(du_min < CRITICAL_DIFFERENTIAL, np.nan, lap)
    return out.reshape(x.shape[:-1])


def _laplacian_block(model, measure: str, field: ScalarField, x: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Laplacian of the points (B, n) and the smallest |du| on each stencil."""
    h = 1e-4 * np.maximum(1.0, _enorm(x))
    z = _unit_steps(x, h)                               # (B, 2, n, n)
    du = differential(field, z)
    flux = model.density(z, measure)[..., None] * model.sharp(z, du)
    diag = np.diagonal(flux, axis1=2, axis2=3)          # (B, 2, n)
    terms = (diag[:, 0] - diag[:, 1]) / (2.0 * h)[:, None]
    div = 0.0
    for i in range(x.shape[-1]):
        div = div + terms[:, i]
    du_min = np.sqrt(_dot(du, du).min(axis=(1, 2)))
    return div / model.density(x, measure), du_min


# ------------------------------------------------------- field constructors
def radial_field(model, profile, orientation: str = "minus") -> ScalarField:
    """The scalar field u = f(rho_minus) (orientation "minus") or
    u = -f(rho_plus) (orientation "plus") with analytic differential."""
    if orientation == "minus":
        rho, drho, sgn = model.rho_minus, model.d_rho_minus, 1.0
    elif orientation == "plus":
        rho, drho, sgn = model.rho_plus, model.d_rho_plus, -1.0
    else:
        raise ValueError(f"unknown orientation {orientation!r} "
                         "(use 'minus' or 'plus')")

    def fn(x: np.ndarray) -> np.ndarray:
        return sgn * profile.f(rho(x))

    def grad(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (sgn * np.asarray(profile.d1(rho(x))))[..., None] * drho(x)

    return ScalarField(fn, grad, support_radius=profile.support)
