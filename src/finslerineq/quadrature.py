"""Deterministic quadrature for singular radial integrals and sphere integrals.

The inequality functionals reduce, in (backward) polar coordinates, to
products of a 1-d radial integral against a sphere integral.  The radial
rule is composite Gauss-Legendre on panels graded geometrically from the
inner radius of each segment between the caller's cuts, because every
sharpness integrand behaves like ``1/rho`` near the truncation radius;
error estimates come from a doubled-resolution comparison.  A first cut of
0 is the one near-origin rule: the segment (0, b) keeps its panels from
lo = 1e-12 b and adds the mass below lo of the power law c rho^alpha fitted
through the integrand g at lo, 2 lo and 4 lo (0 where g(lo) = 0, +-inf
where alpha <= -1; exact for pure powers, O(lo) off for a smooth profile).
A radial pass calls its integrand once, on the coarse and fine nodes of
every segment together, so a table of columns is built once per pass; it
gives every segment's integral (:func:`radial_segments`) or their sum in
order (:func:`radial_integrate`).  A pass's panels come from a plan cached
per (cuts, panels, nodes): each panel's start and half-width and each
sum's node count, never its node or weight arrays, which each pass
rebuilds with two broadcasts.  Every sum, over radial nodes and over
sphere directions alike, goes through the one fixed-shape tree of
:func:`pairwise_sum`; a radial pass sums all its coarse and fine segments
in one such tree, zero-padded to the power of two of the longest (which
keeps every bit but the sign of a -0.0 sum), and no BLAS product is
involved.  So a given :class:`QuadratureSpec` and integrand reproduce
the same bits whatever the BLAS thread count or block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

# radial nodes x sphere directions per annulus shell block: bounds the
# integrand's (block, K, ...) arrays whatever the node count
_SHELL_BLOCK = 1 << 16
# a segment from 0 keeps its panels from _ORIGIN_GAP times its end, fits its
# tail at these multiples of that start, and allows g(2 lo) / g(lo) 16 ulps
_ORIGIN_GAP = 1e-12
_ORIGIN_PROBES = np.array([1.0, 2.0, 4.0])
_FIT_ROUNDING = 16.0 * np.finfo(float).eps / math.log(2.0)


class QuadratureError(RuntimeError):
    """An integrand produced non-finite samples or a rule was misused."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution and tolerance knobs shared by all quadrature calls.

    radial_nodes   Gauss-Legendre nodes per radial panel.
    radial_panels  minimum number of (log-graded) radial panels; more are
                   used automatically when the span exceeds ratio 2 per panel.
    sphere_order   Gauss order q per polar angle; the azimuth gets 4q uniform
                   nodes, spectrally exact for trigonometric factors, so
                   S^{n-1} has 4 q^(n-1) directions (1024 at n = 3, q = 16).
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


def pairwise_sum(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum along ``axis`` with a fixed-shape pairwise tree.

    Each level adds the neighbours (0, 1), (2, 3), ...; an odd last element
    moves up with 0.0 added, so the tree is that of the values zero-padded
    to a power of two.  Every slice along ``axis`` is reduced exactly as the
    1-d array of its values would be, so the bits depend only on the values
    and their count.  The result spans the remaining axes: a 1-d input gives
    a 0-d value.  This is the one-run case of :func:`_tree_sums`, which sums
    every coarse and fine segment of a radial pass in one padded tree.
    """
    a = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    return _tree_sums(a, (a.shape[0],))[0]


def _tree_sums(a: np.ndarray, runs: tuple[int, ...]) -> np.ndarray:
    """The :func:`pairwise_sum` of every run of consecutive rows of ``a``
    (``runs`` rows each), stacked in run order, all in one tree.

    While every run is even, each level halves the whole stack: no
    neighbour pair straddles two runs.  Then every run is zero-padded to
    the power of two of the longest, one column per run of one block, and
    each level halves that block.  Adding an exact 0.0 changes no sum, so
    each run keeps the bits of its own tree, with one exception: a
    power-of-two run whose values are all -0.0, padded past its own width,
    sums to +0.0.
    """
    while all(r > 0 and r % 2 == 0 for r in runs):
        a = a[0::2] + a[1::2]
        runs = tuple(r // 2 for r in runs)
    if all(r == 1 for r in runs):
        # no run needs padding; copied, so that no sum is a view of the input
        return a.copy()
    width = 1 << (max(*runs, 1) - 1).bit_length()
    padded = np.zeros((width, len(runs)) + a.shape[1:])
    for col, (start, r) in enumerate(zip(accumulate(runs, initial=0), runs)):
        padded[:r, col] = a[start:start + r]
    while len(padded) > 1:
        padded = padded[0::2] + padded[1::2]
    return padded[0]


@lru_cache(maxsize=64)
def _gauss_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return _frozen(x), _frozen(w)


def _graded_edges(a: float, b: float, min_panels: int) -> np.ndarray:
    """Panel edges equally spaced in log(rho), ratio at most 2 per panel."""
    span = math.log(b / a)
    panels = max(min_panels, int(math.ceil(span / math.log(2.0))))
    return a * np.exp(np.linspace(0.0, span, panels + 1))


class _RadialPlan(NamedTuple):
    """A pass's panels, coarse then fine for every segment in node order:
    their starts ``lo`` and half-widths ``half`` as (P, 1) columns, the
    origin tail's ``probes`` (none unless the first cut is 0) and the
    node counts ``runs`` of the coarse and fine parts."""

    lo: np.ndarray
    half: np.ndarray
    probes: np.ndarray
    runs: tuple[int, ...]


@lru_cache(maxsize=64)
def _radial_plan(cuts: tuple[float, ...], panels: int,
                 nodes: int) -> _RadialPlan:
    lo = _ORIGIN_GAP * cuts[1] if cuts[0] == 0.0 else cuts[0]
    probes = lo * _ORIGIN_PROBES if cuts[0] == 0.0 else np.empty(0)
    edges = []
    for a, b in zip([lo, *cuts[1:-1]], cuts[1:]):
        coarse = _graded_edges(a, b, panels)
        edges += [coarse, _graded_edges(a, b, 2 * (coarse.size - 1))]
    starts = np.concatenate([e[:-1] for e in edges])[:, None]
    half = 0.5 * (np.concatenate([e[1:] for e in edges])[:, None] - starts)
    runs = tuple((e.size - 1) * nodes for e in edges)
    return _RadialPlan(_frozen(starts), _frozen(half), _frozen(probes), runs)


def _origin_tail(g: np.ndarray, lo: float) -> tuple[np.ndarray, np.ndarray]:
    """g(lo) lo / (alpha + 1), alpha fitted on (lo, 2 lo) of ``g`` at lo *
    _ORIGIN_PROBES, and its error: the change with alpha fitted on
    (2 lo, 4 lo), plus alpha's rounding amplified by 1 / (alpha + 1)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(g[0] != 0.0, np.log2(g[1:] / g[:-1]), 0.0)
        tails = np.where(alpha <= -1.0, np.copysign(np.inf, g[0]),
                         g[0] * lo / (alpha + 1.0))
        error = np.abs(tails[0] - tails[1]) \
            + _FIT_ROUNDING * np.abs(tails[0] / (alpha[0] + 1.0))
    return tails[0], np.where(np.isinf(tails).any(axis=0), np.inf, error)


def radial_segments(f: Callable[[np.ndarray], np.ndarray],
                    cuts: Sequence[float],
                    spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``f`` on every segment of ``cuts`` = (a, ..., b), 0 <= a.

    Each segment between consecutive cuts gets its own log-graded panels.
    Returns the (values, error estimates) of the S segments in order; a
    segment's estimate is the difference against a half-resolution pass.
    A segment (0, b) adds the power-law tail below its panels, and its error.
    ``f`` is called once, on the coarse and fine nodes of every segment and
    the tail's probes: it must accept a 1-d numpy array of M nodes and
    return (M,), or (M, T) for T integrands at once; values and errors are
    then (S,) or (S, T), each column summed as a scalar integrand would be.
    """
    cuts = [float(c) for c in cuts]
    if (len(cuts) < 2 or not all(map(math.isfinite, cuts)) or cuts[0] < 0.0
            or any(a >= b for a, b in zip(cuts, cuts[1:]))):
        raise QuadratureError(f"need finite cuts 0 <= a < ... < b, got {cuts}")
    plan = _radial_plan(tuple(cuts), spec.radial_panels, spec.radial_nodes)
    x, w = _gauss_rule(spec.radial_nodes)
    pts = np.concatenate([(plan.lo + plan.half * (x + 1.0)).ravel(),
                          plan.probes])
    m = pts.size - plan.probes.size
    # a sample that overflows is caught below as non-finite, not warned of
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(f(pts), dtype=float)
        if not np.isfinite(vals).all():
            finite = np.isfinite(vals).reshape(pts.size, -1).all(axis=1)
            bad = pts[~finite][:3]
            raise QuadratureError(
                f"non-finite integrand samples near rho={bad}")
        # the weights take a trailing axis for each integrand axis (T columns)
        wts = (w * plan.half).ravel()[(...,) + (None,) * (vals.ndim - 1)]
        sums = _tree_sums(vals[:m] * wts, plan.runs)
        values, errors = sums[1::2], np.abs(sums[1::2] - sums[::2])
        if plan.probes.size:
            tail, tail_error = _origin_tail(vals[m:], plan.probes[0])
            values[0] += tail
            errors[0] += tail_error
    return values, errors


def radial_integrate(f: Callable[[np.ndarray], np.ndarray],
                     cuts: Sequence[float],
                     spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``f`` on [a, b] split at ``cuts`` = (a, ..., b): the
    :func:`radial_segments` values and error estimates added in segment
    order; 0-d for (M,) integrands, (T,) arrays for (M, T) ones."""
    values, errors = radial_segments(f, cuts, spec)
    return sum(values, 0.0), sum(errors, 0.0)


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
                      spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Backward-polar product integral of ``integrand`` against the model density.

    Computes  int_eps^radius int_{S^{n-1}} integrand(rho, omega)
    sigma_hat(rho, omega) dnu drho, eps >= 0, where sigma_hat is the
    model's polar density for ``measure``.  ``integrand`` and the density
    receive rho as an (m, 1) column of radial nodes and omega as the (K, n)
    sphere nodes; the integrand returns an array broadcasting to (m, K), or
    (m, K, T) for T integrands in one pass (value and error are then (T,)
    arrays), so a radial integrand may return (m, 1).  Each node's sphere
    sum is the :func:`pairwise_sum` of its K weighted values, so it does not
    depend on how the radial nodes are walked: the radial pass hands over
    its coarse and fine nodes at once, and they are taken in blocks of about
    ``_SHELL_BLOCK`` points, which only bounds memory.
    """
    if not (0.0 <= eps < radius):
        raise QuadratureError(f"need 0 <= eps < radius, got {eps}, {radius}")
    dirs, swts = sphere_nodes(model.n, spec)
    rows = max(1, _SHELL_BLOCK // swts.size)

    def block(rr: np.ndarray) -> np.ndarray:
        vals = np.asarray(integrand(rr, dirs), dtype=float)
        wd = model.polar_density(measure, rr, dirs) * swts
        # (m, K) weights; a column integrand (m, K, T) takes them on a new
        # trailing axis
        return pairwise_sum(vals * wd[(...,) + (None,) * (vals.ndim - 2)],
                            axis=1)

    def shell(rho: np.ndarray) -> np.ndarray:
        return np.concatenate([block(rho[a:a + rows, None])
                               for a in range(0, rho.size, rows)])

    return radial_integrate(shell, (eps, radius), spec)
