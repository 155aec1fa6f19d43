"""Slow independent oracles, used only by the tests.

Most cross-check a closed form of :class:`finslerineq.minkowski.MinkowskiNorm`
by a different route: finite differences of F^2/2 and F*^2/2, a variational
maximisation for the dual norm, random triples for Lambda_F, and the
classical Cauchy inequality that the sharpened one refines.  A stratified
Monte Carlo rule on Cartesian boxes cross-checks the backward-polar
quadrature :func:`finslerineq.quadrature.annulus_integrate`, a plain
sphere rule checks the product sphere nodes, and a tiled annulus rule,
which evaluates every (radial node, direction) pair as a flat point,
pins the bits of the blocked, broadcasting one.  The field helpers build -u
and div(u grad u) for the reverse-metric and divergence identities.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from finslerineq.fields import ScalarField, gradient_norm, numeric_laplacian
from finslerineq.minkowski import MinkowskiNorm
from finslerineq.quadrature import QuadratureError, QuadratureSpec, \
    pairwise_sum, radial_integrate, sphere_nodes


def _enorm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(a * a, axis=-1))


def fundamental_form_fd(norm: MinkowskiNorm, y: np.ndarray, u: np.ndarray,
                        v: np.ndarray, step: float | None = None) -> float:
    """Finite-difference cross-check of g_y(u, v) on F^2/2."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    h = step if step is not None else 1e-4 * max(1.0, float(_enorm(y)))

    def q(z: np.ndarray) -> float:
        return 0.5 * float(norm.norm(z)) ** 2

    return (q(y + h * u + h * v) - q(y + h * u - h * v)
            - q(y - h * u + h * v) + q(y - h * u - h * v)) / (4.0 * h * h)


def dual_fundamental_form_fd(norm: MinkowskiNorm, xi: np.ndarray,
                             eta: np.ndarray, zeta: np.ndarray,
                             step: float | None = None) -> float:
    """Finite-difference cross-check of g*_xi(eta, zeta) on F*^2/2."""
    xi = np.asarray(xi, dtype=float)
    h = step if step is not None else 1e-4 * max(1.0, float(_enorm(xi)))

    def q(z: np.ndarray) -> float:
        return 0.5 * float(norm.dual_norm(z)) ** 2

    return (q(xi + h * eta + h * zeta) - q(xi + h * eta - h * zeta)
            - q(xi - h * eta + h * zeta) + q(xi - h * eta - h * zeta)) \
        / (4.0 * h * h)


def sampled_uniformity_random(norm: MinkowskiNorm, samples: int,
                              seed: int) -> float:
    """Random-triple estimate of Lambda_F (a lower bound that densifies
    toward the closed form)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, norm.dim))
    z = rng.standard_normal((samples, norm.dim))
    yy = rng.standard_normal((samples, norm.dim))
    best = 1.0
    for i in range(samples):
        num = norm.fundamental_form(x[i], yy[i], yy[i])
        den = norm.fundamental_form(z[i], yy[i], yy[i])
        best = max(best, num / den)
    return best


def cauchy_slack(norm: MinkowskiNorm, xi: np.ndarray,
                 eta: np.ndarray) -> float | np.ndarray:
    """Residual of the classical Cauchy inequality
    F*^2(eta) - F*^2(xi) - 2 g*_xi(xi, eta - xi) >= 0 (xi != 0)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    b = norm.drift
    fs_xi = np.asarray(norm.dual_norm(xi))
    fs_eta = np.asarray(norm.dual_norm(eta))
    nxi = _enorm(xi)
    diff = eta - xi
    cross = fs_xi * (np.sum(xi * diff, axis=-1) / nxi + b * diff[..., -1])
    out = fs_eta**2 - fs_xi**2 - 2.0 * cross
    return out if out.ndim else float(out)


def conorm_variational(norm: MinkowskiNorm, xi: np.ndarray,
                       samples: int = 400, rounds: int = 12) -> float:
    """Variational oracle for the natural dual norm: maximize <xi, y>/F(y)
    over direction grids with local zoom."""
    xi = np.asarray(xi, dtype=float)
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((samples * 8, norm.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    best = -np.inf
    center = dirs[0]
    for level in range(rounds):
        vals = (dirs @ xi) / np.asarray(norm.norm(dirs))
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            center = dirs[i]
        dirs = center[None, :] + 0.3 ** (level + 1) * \
            rng.standard_normal((samples, norm.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return best


def box_montecarlo(model, measure: str,
                   integrand: Callable[[np.ndarray], np.ndarray],
                   lower: np.ndarray, upper: np.ndarray, samples: int,
                   seed: int, exclude_radius: float = 0.0
                   ) -> tuple[float, float]:
    """Stratified (Latin hypercube) Monte Carlo of ``integrand * density`` on a box.

    Points inside the Euclidean ball of ``exclude_radius`` about the base
    point are excluded; declaring the radius is mandatory when the integrand
    is unbounded there.  Returns (value, standard error).
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    # one random permutation of the strata per axis, jittered within each
    rng = np.random.default_rng(seed)
    strata = np.stack([rng.permutation(samples) for _ in range(n)], axis=1)
    u = (strata + rng.random((samples, n))) / samples
    x = lower + u * (upper - lower)
    keep = np.linalg.norm(x, axis=1) > exclude_radius
    vals = np.zeros(samples)
    vals[keep] = np.asarray(integrand(x[keep]), dtype=float) * \
        model.density(x[keep], measure)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("non-finite Monte Carlo samples outside the "
                              "excluded ball; declare a larger exclude_radius")
    vol = float(np.prod(upper - lower))
    mean = pairwise_sum(vals) / samples
    var = pairwise_sum((vals - mean) ** 2) / (samples - 1)
    return vol * mean, vol * math.sqrt(var / samples)


def annulus_integrate_tiled(model, measure: str,
                            integrand: Callable[[np.ndarray, np.ndarray],
                                                np.ndarray],
                            eps: float, radius: float, spec: QuadratureSpec
                            ) -> tuple[float, float]:
    """``annulus_integrate`` on flat tiles: the integrand and the density
    receive every node-direction pair as rho (M,) and omega (M, n) and
    return (M,) or (M, T), all M = m K points in one evaluation."""
    if not (0.0 < eps < radius):
        raise QuadratureError(f"need 0 < eps < radius, got {eps}, {radius}")
    dirs, swts = sphere_nodes(model.n, spec)

    def shell(rho: np.ndarray) -> np.ndarray:
        m, k = rho.size, dirs.shape[0]
        rr = np.repeat(rho, k)
        ww = np.tile(dirs, (m, 1))
        vals = np.asarray(integrand(rr, ww), dtype=float)
        dens = model.polar_density(measure, rr, ww)
        if vals.ndim == 1:
            return (vals * dens).reshape(m, k) @ swts
        return swts @ (vals * dens[:, None]).reshape(m, k, -1)

    return radial_integrate(shell, eps, radius, spec)


def sphere_integrate(g: Callable[[np.ndarray], np.ndarray],
                     n: int, spec: QuadratureSpec) -> float:
    """Integral of g over S^{n-1}; g receives a (K, n) matrix of directions."""
    dirs, wts = sphere_nodes(n, spec)
    vals = np.asarray(g(dirs), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("non-finite sphere integrand")
    return pairwise_sum(vals * wts)


def negated(field: ScalarField) -> ScalarField:
    """-u, with the negated differential when u carries one."""
    g = None if field.grad is None else (lambda x: -field.grad(x))
    return ScalarField(lambda x: -field.fn(x), g, field.support_radius)


def div_u_grad_u(model, measure: str, field: ScalarField, x: np.ndarray,
                 flux_step: float | None = None) -> float | np.ndarray:
    """div(u grad u) = F^2(grad u) + u * Laplacian(u) at x."""
    x = np.asarray(x, dtype=float)
    fsq = gradient_norm(model, field, x) ** 2
    return fsq + field(x) * numeric_laplacian(model, measure, field, x,
                                              flux_step=flux_step)
