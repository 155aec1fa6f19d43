"""Deterministic quadrature for singular radial integrals and sphere integrals.

The inequality functionals reduce, in (backward) polar coordinates, to
products of a 1-d radial integral against a sphere integral.  The radial
rule is composite Gauss-Legendre on panels graded geometrically from the
inner radius, because every sharpness integrand behaves like ``1/rho`` near
the truncation radius.  Error estimates come from a doubled-resolution
comparison.  All reductions use a fixed-shape pairwise summation tree, so a
given :class:`QuadratureSpec` and integrand always reproduce the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

# radial nodes x sphere directions per annulus shell block: bounds the
# integrand's (block, K, ...) arrays whatever the node count
_SHELL_BLOCK = 1 << 16


class QuadratureError(RuntimeError):
    """An integrand produced non-finite samples or a rule was misused."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution and tolerance knobs shared by all quadrature calls.

    radial_nodes   Gauss-Legendre nodes per radial panel.
    radial_panels  minimum number of (log-graded) radial panels; more are
                   used automatically when the span exceeds ratio 2 per panel.
    sphere_order   Gauss order per polar angle (azimuth gets 2x this many
                   uniform nodes, spectrally exact for trigonometric factors).
    abs_tol/rel_tol  tolerance targets quoted in reports.
    """

    radial_nodes: int = 24
    radial_panels: int = 8
    sphere_order: int = 16
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.radial_nodes < 2 or self.sphere_order < 2:
            raise ValueError("node counts must be >= 2")
        if self.radial_panels < 1:
            raise ValueError("need at least one radial panel")
        if not (0.0 < self.abs_tol < math.inf and
                0.0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


def pairwise_sum(values: np.ndarray) -> float | np.ndarray:
    """Sum with a fixed-shape pairwise tree (order independent of callers).

    An (L, T) array gives its T column sums, each reduced by the same tree
    as a flat array of length L; any other shape is summed flat.
    """
    a = np.asarray(values, dtype=float)
    columns = a.ndim == 2
    if not columns:
        a = a.ravel()
    n = a.shape[0]
    if n == 0:
        return np.zeros(a.shape[1:]) if columns else 0.0
    # pad to a power of two so the reduction tree depends only on the size
    m = 1 << (n - 1).bit_length()
    if m != n:
        a = np.concatenate([a, np.zeros((m - n,) + a.shape[1:])])
    while a.shape[0] > 1:
        a = a[0::2] + a[1::2]
    return a[0] if columns else float(a[0])


@lru_cache(maxsize=64)
def _gauss_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


def _graded_edges(a: float, b: float, min_panels: int) -> np.ndarray:
    """Panel edges equally spaced in log(rho), ratio at most 2 per panel."""
    span = math.log(b / a)
    panels = max(min_panels, int(math.ceil(span / math.log(2.0))))
    return a * np.exp(np.linspace(0.0, span, panels + 1))


def _composite_gauss(f: Callable[[np.ndarray], np.ndarray],
                     edges: np.ndarray, nodes: int) -> float | np.ndarray:
    x, w = _gauss_rule(nodes)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    pts = lo + half * (x[None, :] + 1.0)
    vals = np.asarray(f(pts.ravel()), dtype=float)
    finite = np.isfinite(vals).reshape(pts.size, -1).all(axis=1)
    if not np.all(finite):
        bad = pts.ravel()[~finite][:3]
        raise QuadratureError(f"non-finite integrand samples near rho={bad}")
    wts = (w[None, :] * half).ravel()
    return pairwise_sum(vals * (wts if vals.ndim == 1 else wts[:, None]))


def radial_integrate(f: Callable[[np.ndarray], np.ndarray],
                     a: float, b: float,
                     spec: QuadratureSpec) -> tuple[float, float]:
    """Integrate ``f`` on [a, b], 0 < a < b, with log-graded panels.

    Returns (value, error estimate); the estimate is the difference against
    a half-resolution pass.  ``f`` must accept a 1-d numpy array of M nodes
    and return (M,), or (M, T) for T integrands at once; then value and
    error are (T,) arrays, each column summed as a scalar integrand would be.
    """
    if not (0.0 < a < b):
        raise QuadratureError(f"need 0 < a < b, got a={a}, b={b}")
    coarse_edges = _graded_edges(a, b, spec.radial_panels)
    fine_edges = _graded_edges(a, b, 2 * (coarse_edges.size - 1))
    coarse = _composite_gauss(f, coarse_edges, spec.radial_nodes)
    fine = _composite_gauss(f, fine_edges, spec.radial_nodes)
    return fine, abs(fine - coarse)


def power_integral(exponent: float, a: float, b: float) -> float:
    """Exact value of the monomial integral of rho**exponent on [a, b], a >= 0."""
    if exponent == -1.0:
        if a <= 0.0:
            raise QuadratureError("log endpoint at zero")
        return math.log(b / a)
    p = exponent + 1.0
    if a == 0.0 and p <= 0.0:
        raise QuadratureError("divergent power integral from zero")
    lo = 0.0 if a == 0.0 else a**p
    return (b**p - lo) / p


def unit_sphere_area(n: int) -> float:
    """Area of the unit sphere S^{n-1}, i.e. n * omega_n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@lru_cache(maxsize=32)
def _sphere_rule_cached(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    if n < 2:
        raise QuadratureError("sphere rule needs n >= 2")
    if n == 2:
        m = 4 * order
        phi = 2.0 * math.pi * np.arange(m) / m
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        wts = np.full(m, 2.0 * math.pi / m)
        return _frozen(dirs), _frozen(wts)
    sub_dirs, sub_wts = _sphere_rule_cached(n - 1, order)
    x, w = _gauss_rule(order)
    theta = 0.5 * math.pi * (x + 1.0)      # map [-1,1] -> [0,pi]
    w_theta = w * (0.5 * math.pi) * np.sin(theta) ** (n - 2)
    # direction = (sin(theta) * v, cos(theta)); the distinguished axis (the
    # Randers drift axis) is the last coordinate, carried by a polar angle
    dirs = np.empty((theta.size * sub_dirs.shape[0], n))
    dirs[:, :-1] = np.repeat(np.sin(theta), sub_dirs.shape[0])[:, None] * \
        np.tile(sub_dirs, (theta.size, 1))
    dirs[:, -1] = np.repeat(np.cos(theta), sub_dirs.shape[0])
    wts = (w_theta[:, None] * sub_wts[None, :]).ravel()
    return _frozen(dirs), _frozen(wts)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def sphere_nodes(n: int, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Direction matrix (K, n) and weights (K,) for the S^{n-1} product rule.

    The arrays are the cached rule itself, shared by every caller and
    read-only.
    """
    return _sphere_rule_cached(n, spec.sphere_order)


def annulus_integrate(model, measure: str,
                      integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      eps: float, radius: float,
                      spec: QuadratureSpec) -> tuple[float, float]:
    """Backward-polar product integral of ``integrand`` against the model density.

    Computes  int_eps^radius int_{S^{n-1}} integrand(rho, omega)
    sigma_hat(rho, omega) dnu drho,  where sigma_hat is the model's polar
    density for ``measure``.  ``integrand`` and the density receive rho as
    an (m, 1) column of radial nodes and omega as the (K, n) sphere nodes;
    the integrand returns an array broadcasting to (m, K), or (m, K, T) for
    T integrands in one pass (value and error are then (T,) arrays), so a
    radial integrand may return (m, 1).  The radial nodes are walked in
    blocks of about ``_SHELL_BLOCK`` points.
    """
    if not (0.0 < eps < radius):
        raise QuadratureError(f"need 0 < eps < radius, got {eps}, {radius}")
    dirs, swts = sphere_nodes(model.n, spec)
    # a multiple of 4 nodes per block keeps the BLAS row grouping of the
    # per-node sphere sums, so the blocking moves no bit; a rule of more
    # than _SHELL_BLOCK / 4 directions (n >= 5 at the default order) takes
    # one node per block, and a scalar integrand's sums may then differ
    # from one unblocked product in the last place
    rows = max(1, (_SHELL_BLOCK // swts.size) & ~3)

    def block(rr: np.ndarray) -> np.ndarray:
        vals = np.asarray(integrand(rr, dirs), dtype=float)
        dens = model.polar_density(measure, rr, dirs)
        if vals.ndim < 3:
            return (vals * dens) @ swts
        return swts @ (vals * dens[..., None])

    def shell(rho: np.ndarray) -> np.ndarray:
        # a lone last node joins the block before it: BLAS sums a single
        # row in another order
        starts = range(0, max(rho.size - 1, 1), rows)
        stops = [*starts[1:], rho.size]
        return np.concatenate([block(rho[a:b, None])
                               for a, b in zip(starts, stops)])

    return radial_integrate(shell, eps, radius, spec)
