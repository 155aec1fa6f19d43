"""Slow independent oracles, used only by the tests.

Most cross-check a closed form of :class:`finslerineq.minkowski.MinkowskiNorm`
by a different route: finite differences of F^2/2 and F*^2/2, a variational
maximisation for the dual norm, random triples for Lambda_F, and the
classical Cauchy inequality that the sharpened one refines.  A stratified
Monte Carlo rule on Cartesian boxes cross-checks the backward-polar
quadrature :func:`finslerineq.quadrature.annulus_integrate`, a plain
sphere rule checks the product sphere nodes, and a tiled annulus rule,
which evaluates every (radial node, direction) pair as a flat point,
pins the bits of the blocked, broadcasting one.  A radial pass's inner
ball has its own references: the monomial integral on flat models, the
singular power in closed form plus 30-digit ``mpmath`` on curved ones, and
30-digit Hardy terms of the battery's Gaussian kind; the mean curvature
(n-1) s_k'/s_k of a distance sphere, from s_k and its derivative, checks
the one the program reads from D, while the G^beta density
-Delta(rho^(-N)) is written in the program's own floating-point form, so
that same-panel references keep its bits.  A flat sweep's
two-point structured fit checks the limit and gap of the Moebius one.  The
field helpers build -u, the reverse space, the Finsler gradient and
div(u grad u) for the reverse-metric and divergence identities.  The
Legendre pair (natural vectors to adapted covectors, through ``flat`` and
the covector adapter) and the inverse of the backward-polar chart are
checked against the library's ``sharp``, ``dual_norm`` and
``point_from_backward_polar``.  The
per-point Randers formulas (distances, their differentials, the scalar
dual tensor and the segment-convexity loop of the refined Cauchy-Schwarz
certificate) pin the shared, stacked forms of the library, and the full
Lambda_F grid pins the bits of the row-blocked one.  The
separate f, f' and f'' formulas of the cutoff, the battery factors, their
products and the truncated family pin the bits of the profiles' one-call
jets.  Two profiles built on jets serve the reports' tests: a multiple of a
profile, and one that rises near the origin.
"""

from __future__ import annotations

import math
from typing import Callable

import mpmath
import numpy as np

from finslerineq.fields import ScalarField, differential, numeric_laplacian
from finslerineq.minkowski import MinkowskiNorm
from finslerineq.models import (HyperbolicBall, RadialProfile, RandersFlat,
                                cutoff_profile, profile_product)
from finslerineq.quadrature import QuadratureError, QuadratureSpec, \
    pairwise_sum, radial_integrate, sphere_nodes


def _enorm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(a * a, axis=-1))


def adapt_covector(norm: MinkowskiNorm, xi: np.ndarray) -> np.ndarray:
    """Natural covector -> adapted dual coordinates (drift axis rescales
    by -1/(1-b^2), the rest by 1/sqrt(1-b^2)).  The axis flip is forced
    by the drift term of the dual norm whenever b != 0; the Euclidean
    member keeps the identity so its Legendre map is the identity."""
    xi = np.asarray(xi, dtype=float)
    if norm.drift == 0.0:
        return xi.copy()
    s = 1.0 - norm.drift**2
    out = xi / math.sqrt(s)
    out[..., -1] = -xi[..., -1] / s
    return out


def unadapt_covector(norm: MinkowskiNorm, xi_hat: np.ndarray) -> np.ndarray:
    """Inverse of :func:`adapt_covector`."""
    xi_hat = np.asarray(xi_hat, dtype=float)
    if norm.drift == 0.0:
        return xi_hat.copy()
    s = 1.0 - norm.drift**2
    out = xi_hat * math.sqrt(s)
    out[..., -1] = -xi_hat[..., -1] * s
    return out


def flat(norm: MinkowskiNorm, y: np.ndarray) -> np.ndarray:
    """Natural Legendre image g_y(y, .) = F(y) (yhat + b e_n); flat(0)=0."""
    y = np.asarray(y, dtype=float)
    ny = _enorm(y)
    if np.any(ny == 0.0):
        if y.ndim == 1:
            return np.zeros_like(y)
        raise ValueError("flat of a zero vector in a batch")
    f = np.asarray(norm.norm(y))
    out = (y / ny[..., None]) * f[..., None]
    out[..., -1] += norm.drift * f
    return out


def legendre(norm: MinkowskiNorm, y: np.ndarray) -> np.ndarray:
    """Legendre transform: natural vector -> adapted covector."""
    y = np.asarray(y, dtype=float)
    if not np.any(y):
        return np.zeros_like(y)
    return adapt_covector(norm, flat(norm, y))


def legendre_inv(norm: MinkowskiNorm, xi: np.ndarray) -> np.ndarray:
    """Inverse Legendre transform: adapted covector -> natural vector."""
    xi = np.asarray(xi, dtype=float)
    if not np.any(xi):
        return np.zeros_like(xi)
    nxi = _enorm(xi)
    grad = xi / nxi[..., None]
    grad[..., -1] += norm.drift
    half_grad_sq = grad * np.asarray(norm.dual_norm(xi))[..., None]
    # the same axis adaptation carries the dual gradient back to vectors
    return adapt_covector(norm, half_grad_sq)


def reverse(space):
    """The same space under the reverse norm F(-y): a Randers norm or flat
    Randers model with its drift negated; the hyperbolic ball is reversible."""
    if isinstance(space, HyperbolicBall):
        return space
    if isinstance(space, RandersFlat):
        return RandersFlat(space.n, -space.drift)
    return MinkowskiNorm(space.dim, -space.drift)


def backward_polar_from_point(model: RandersFlat, x: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
    """(rho_minus, omega) of x on the flat Randers model: the inverse of
    ``model.point_from_backward_polar``."""
    x = np.asarray(x, dtype=float)
    t = model.drift
    s2 = 1.0 - t * t
    rho = np.asarray(model.rho_minus(x))
    big_x = x.copy()
    big_x[..., -1] = math.sqrt(s2) * (x[..., -1] - t * rho / s2)
    return rho, big_x / (rho / math.sqrt(s2))[..., None]


def gradient(model, field: ScalarField, x: np.ndarray) -> np.ndarray:
    """Finsler gradient: inverse Legendre transform of du (zero covector maps
    to the zero vector by convention, which ``model.sharp`` keeps)."""
    x = np.asarray(x, dtype=float)
    return model.sharp(x, differential(field, x))


def gradient_norm(model, field: ScalarField,
                  x: np.ndarray) -> float | np.ndarray:
    """F(grad u) = F*(du) at x."""
    x = np.asarray(x, dtype=float)
    return model.conorm(x, differential(field, x))


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


def randers_rho(x: np.ndarray, drift: float,
                sign: float) -> float | np.ndarray:
    """Inline rho_plus (sign +1) or rho_minus (sign -1): |x| +- t x_n."""
    x = np.asarray(x, dtype=float)
    length = np.sqrt(np.einsum("...i,...i->...", x, x))
    if sign > 0:
        out = length + drift * x[..., -1]
    else:
        out = length - drift * x[..., -1]
    return out if out.ndim else float(out)


def randers_d_rho(x: np.ndarray, drift: float, sign: float) -> np.ndarray:
    """Inline differential of rho_plus/rho_minus: x/|x| +- t e_n."""
    x = np.asarray(x, dtype=float)
    out = x / np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]
    if sign > 0:
        out[..., -1] += drift
    else:
        out[..., -1] -= drift
    return out


def dual_fundamental_form_point(norm: MinkowskiNorm, xi: np.ndarray,
                                eta: np.ndarray, zeta: np.ndarray) -> float:
    """g*_xi(eta, zeta) at one covector xi != 0, with scalar dot products."""
    nxi = float(_enorm(xi))
    xh = xi / nxi
    ell = xh.copy()
    ell[-1] += norm.drift
    fs = float(norm.dual_norm(xi))
    return float(np.dot(ell, eta) * np.dot(ell, zeta)
                 + (fs / nxi) * (np.dot(eta, zeta)
                                 - np.dot(xh, eta) * np.dot(xh, zeta)))


def segment_convexity_margin(norm: MinkowskiNorm, xi: np.ndarray,
                             eta: np.ndarray) -> float:
    """min over the segments xi + t eta of the pairs of two (k, n) stacks,
    t on 9 nodes in [0, 1], of 2 g*(eta, eta) - 2 F*^2(eta)/Lambda_F, one
    point at a time."""
    lam = norm.uniformity()
    margin = math.inf
    for a, e in zip(xi, eta):
        bound = 2.0 * float(norm.dual_norm(e)) ** 2 / lam
        for t in np.linspace(0.0, 1.0, 9):
            f2 = 2.0 * dual_fundamental_form_point(norm, a + t * e, e, e)
            margin = min(margin, f2 - bound)
    return margin


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
    if not (0.0 <= eps < radius):
        raise QuadratureError(f"need 0 <= eps < radius, got {eps}, {radius}")
    dirs, swts = sphere_nodes(model.n, spec)

    def shell(rho: np.ndarray) -> np.ndarray:
        m, k = rho.size, dirs.shape[0]
        rr = np.repeat(rho, k)
        ww = np.tile(dirs, (m, 1))
        vals = np.asarray(integrand(rr, ww), dtype=float)
        wd = model.polar_density(measure, rr, ww) * np.tile(swts, m)
        terms = vals * wd[(...,) + (None,) * (vals.ndim - 1)]
        return pairwise_sum(terms.reshape((m, k) + vals.shape[1:]), axis=1)

    return radial_integrate(shell, (eps, radius), spec)


def structured_sweep_fit(ls: np.ndarray, quotients: np.ndarray,
                         j1s: np.ndarray, i2s: np.ndarray
                         ) -> tuple[float, float]:
    """(A, d) of a flat sweep from its two smallest eps and its measured
    structure: with K = J1/L and the eps-independent part c2 = I2 - J1, the
    quotient is A + d/(L + c2/K) exactly on the flat models."""
    k_unit = j1s[-1] / ls[-1]
    b_off = (i2s[-1] - j1s[-1]) / k_unit
    l1, l2 = ls[-2] + b_off, ls[-1] + b_off
    a = (quotients[-1] * l2 - quotients[-2] * l1) / (l2 - l1)
    return a, (quotients[-2] - a) * l1


def power_integral(exponent: float, a: float, b: float) -> float:
    """Exact value of the monomial integral of rho**exponent on [a, b],
    a >= 0: the flat reference for the inner ball of a radial pass."""
    if exponent == -1.0:
        if a <= 0.0:
            raise QuadratureError("log endpoint at zero")
        return math.log(b / a)
    p = exponent + 1.0
    if a == 0.0 and p <= 0.0:
        raise QuadratureError("divergent power integral from zero")
    lo = 0.0 if a == 0.0 else a**p
    return (b**p - lo) / p


def mean_curvature_s_prime(k: float, n: int, rho: np.ndarray) -> np.ndarray:
    """(n-1) s_k'(rho)/s_k(rho), k <= 0: the mean curvature of the distance
    sphere of radius rho, written with s_k and s_k' in place of D."""
    rho = np.asarray(rho, dtype=float)
    if k == 0.0:
        s, sp = rho, np.ones_like(rho)
    else:
        r = math.sqrt(-k)
        s, sp = np.sinh(r * rho) / r, np.cosh(r * rho)
    return (n - 1) * sp / s


def neg_laplacian_power(model, nn: float, rho) -> np.ndarray:
    """-Delta(rho^(-nn)) at radius rho, -nn rho^(-nn-2) ((nn + 2 - n) -
    (n-1) D(rho)), in the operation order of ``harness._Jet.varrho``: the
    G^beta density at nn = beta + 2, and -Delta(rho_minus^(-nn)) at
    rho = rho_minus."""
    rho = np.asarray(rho, dtype=float)
    n = model.n
    return -(nn * rho ** (-nn - 2.0)
             * ((nn + 2.0 - n) - (n - 1.0) * model.comparison_remainder(rho)))


def inner_ball_power(model, p: float, lo: float,
                     remainder: bool = False) -> float:
    """The integral of rho^p [D(rho)] s_k(rho)^(n-1) on (0, lo), D the
    comparison remainder: the inner piece of a radial pass whose integrand
    is a constant times rho^p near 0.  ``power_integral`` on flat models,
    where D = 0; on curved ones rho^q h(rho), q = p + n - 1 and
    h = (s_k/rho)^(n-1) [D], is h(0) lo^(q+1)/(q+1) in closed form plus
    the 30-digit ``mpmath.quad`` of rho^q (h - h(0)), which vanishes at 0."""
    n = model.n
    q = p + n - 1.0
    if model.curvature == 0.0:
        return 0.0 if remainder else power_integral(q, 0.0, lo)
    with mpmath.workdps(30):
        root = mpmath.sqrt(-model.curvature)

        def h(t):
            x = root * t
            out = (mpmath.sinh(x) / x) ** (n - 1)
            return out * (x * mpmath.coth(x) - 1) if remainder else out

        h0 = 0 if remainder else 1
        lo_mp = mpmath.mpf(lo)
        closed = h0 * lo_mp ** (q + 1) / (q + 1)
        return float(closed + mpmath.quad(lambda t: t ** q * (h(t) - h0),
                                          [0, lo_mp]))


def hardy_terms_30_digits(model, r: float, R: float, a: float,
                          beta: float) -> dict[str, float]:
    """The Hardy report's terms (lhs, main, remainder) at 30 digits for the
    profile cutoff(r, R) * exp(-a rho^2), the battery's Gaussian kind, on
    the BH measure.  The main term's integrand is rho^(n-3-beta) times a
    function h that is smooth at 0, so on (0, r), where the cutoff is 1, it
    is h(0) r^(q+1)/(q+1) in closed form plus ``mpmath.quad`` of
    rho^q (h - h(0)); every other piece is regular at 0."""
    n, k = model.n, model.curvature
    with mpmath.workdps(30):
        r_mp, big_r, a, beta = (mpmath.mpf(v) for v in (r, R, a, beta))
        root = mpmath.sqrt(-k) if k < 0.0 else None

        def psi(t):
            if t <= r_mp:
                return mpmath.mpf(1), mpmath.mpf(0)
            s = (t - r_mp) / (big_r - r_mp)
            w = 1 / (1 - s) - 1 / s
            p = 1 / (1 + mpmath.exp(w))
            w1 = 1 / (1 - s) ** 2 + 1 / s ** 2
            return p, -w1 * p * (1 - p) / (big_r - r_mp)

        def f_d1(t):
            c, c1 = psi(t)
            g = mpmath.exp(-a * t * t)
            return c * g, c1 * g - 2 * a * t * c * g

        def shape(t):       # s_k(t)^(n-1) / t^(n-1) and D(t)
            if root is None:
                return mpmath.mpf(1), mpmath.mpf(0)
            x = root * t
            return (mpmath.sinh(x) / x) ** (n - 1), x * mpmath.coth(x) - 1

        q = n - 3 - beta
        lhs = mpmath.quad(lambda t: f_d1(t)[1] ** 2 * t ** (n - 1 - beta)
                          * shape(t)[0], [0, r_mp, big_r])
        inner = r_mp ** (q + 1) / (q + 1) + mpmath.quad(
            lambda t: t ** q * (f_d1(t)[0] ** 2 * shape(t)[0] - 1),
            [0, r_mp])
        main = inner + mpmath.quad(
            lambda t: f_d1(t)[0] ** 2 * t ** q * shape(t)[0], [r_mp, big_r])
        rem = 0 if root is None else mpmath.quad(
            lambda t: f_d1(t)[0] ** 2 * t ** q * shape(t)[1] * shape(t)[0],
            [0, r_mp, big_r])
        gam = (n - 2 - beta) / 2
        cp = model.cp_constant("bh")
        return {"lhs": float(cp * lhs), "main": float(cp * gam ** 2 * main),
                "remainder": float(cp * (n - 1) * gam * rem)}


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


def div_u_grad_u(model, measure: str, field: ScalarField,
                 x: np.ndarray) -> float | np.ndarray:
    """div(u grad u) = F^2(grad u) + u * Laplacian(u) at x."""
    x = np.asarray(x, dtype=float)
    fsq = gradient_norm(model, field, x) ** 2
    return fsq + field(x) * numeric_laplacian(model, measure, field, x)


# ------------------------------------------------------- jet-built profiles
def scaled_profile(prof: RadialProfile, c: float) -> RadialProfile:
    """c times ``prof``, on the same support and breakpoints."""
    return RadialProfile.from_jet(
        lambda rho, order=2: tuple(c * v for v in prof.jet(rho, order)),
        prof.support, breakpoints=prof.breakpoints)


def rising_profile() -> RadialProfile:
    """cutoff(0.4, 0.9) * (0.2 + rho): f' = 1 > 0 near the origin, so only
    a reversible model's radial road takes it."""
    def line(rho, order=2):
        rho = np.asarray(rho)
        return (0.2 + rho, np.ones_like(rho), np.zeros_like(rho))[:order + 1]

    return profile_product(cutoff_profile(0.4, 0.9),
                           RadialProfile.from_jet(line, math.inf),
                           label="cutoff*(0.2+rho)")


# ------------------------------------------------- separate profile formulas
# (f, f', f'') of each profile as three independent callables, each
# recomputing what it needs: the form the jets of finslerineq.models and
# finslerineq.harness replace, kept here to pin their bits.
def cutoff_formulas(r: float, R: float) -> tuple:
    def pieces(rho):
        s = (np.asarray(rho, dtype=float) - r) / (R - r)
        mid = (s > 1e-12) & (s < 1.0 - 1e-12)
        sm = np.where(mid, s, 0.5)
        w = np.clip(1.0 / (1.0 - sm) - 1.0 / sm, -500.0, 500.0)
        return s, mid, sm, w

    def value(rho):
        s, mid, sm, w = pieces(rho)
        out = np.where(mid, 1.0 / (1.0 + np.exp(w)),
                       np.where(s <= 0.5, 1.0, 0.0))
        return out if out.ndim else float(out)

    def d1(rho):
        s, mid, sm, w = pieces(rho)
        w1 = 1.0 / (1.0 - sm) ** 2 + 1.0 / sm**2
        p = 1.0 / (1.0 + np.exp(w))
        out = np.where(mid, -w1 * p * (1.0 - p), 0.0) / (R - r)
        return out if out.ndim else float(out)

    def d2(rho):
        s, mid, sm, w = pieces(rho)
        w1 = 1.0 / (1.0 - sm) ** 2 + 1.0 / sm**2
        w2 = 2.0 / (1.0 - sm) ** 3 - 2.0 / sm**3
        p = 1.0 / (1.0 + np.exp(w))
        core = p * (1.0 - p) * (w1 * w1 * (1.0 - 2.0 * p) - w2)
        out = np.where(mid, core, 0.0) / (R - r) ** 2
        return out if out.ndim else float(out)

    return value, d1, d2


def product_formulas(p: tuple, q: tuple) -> tuple:
    (pf, p1, p2), (qf, q1, q2) = p, q
    return (lambda rho: pf(rho) * qf(rho),
            lambda rho: p1(rho) * qf(rho) + pf(rho) * q1(rho),
            lambda rho: (p2(rho) * qf(rho) + 2.0 * p1(rho) * q1(rho)
                         + pf(rho) * q2(rho)))


def truncated_formulas(g: float, e: float, r: float, R: float) -> tuple:
    value, d1, d2 = cutoff_formulas(r, R)

    def f(rho):
        rho = np.asarray(rho, dtype=float)
        return value(rho) * np.maximum(e, rho) ** (-g)

    def f1(rho):
        rho = np.asarray(rho, dtype=float)
        r_eff = np.maximum(e, rho)
        core = -g * r_eff ** (-g - 1.0)
        return np.where(rho <= e, 0.0,
                        d1(rho) * r_eff**(-g) + value(rho) * core)

    def f2(rho):
        rho = np.asarray(rho, dtype=float)
        r_eff = np.maximum(e, rho)
        c1 = -g * r_eff ** (-g - 1.0)
        c2 = g * (g + 1.0) * r_eff ** (-g - 2.0)
        return np.where(rho <= e, 0.0,
                        d2(rho) * r_eff**(-g) + 2.0 * d1(rho) * c1
                        + value(rho) * c2)

    return f, f1, f2


def battery_formulas(count: int, radius: float = 1.0) -> list[tuple]:
    """The formulas of ``harness.radial_battery(count, radius)``."""
    def gauss(a):
        return (lambda rho: np.exp(-a * np.asarray(rho) ** 2),
                lambda rho: -2.0 * a * np.asarray(rho)
                * np.exp(-a * np.asarray(rho) ** 2),
                lambda rho: (4.0 * a * a * np.asarray(rho) ** 2 - 2.0 * a)
                * np.exp(-a * np.asarray(rho) ** 2))

    def expdec(a):
        return (lambda rho: np.exp(-a * np.asarray(rho)),
                lambda rho: -a * np.exp(-a * np.asarray(rho)),
                lambda rho: a * a * np.exp(-a * np.asarray(rho)))

    def lorentz(q):
        def d2(rho):
            rho = np.asarray(rho)
            return (-2.0 * q * (1.0 + rho**2) ** (-q - 1.0)
                    + 4.0 * q * (q + 1.0) * rho**2
                    * (1.0 + rho**2) ** (-q - 2.0))
        return (lambda rho: (1.0 + np.asarray(rho) ** 2) ** (-q),
                lambda rho: -2.0 * q * np.asarray(rho)
                * (1.0 + np.asarray(rho) ** 2) ** (-q - 1.0), d2)

    out = []
    for i in range(count):
        frac = i / max(count - 1, 1)
        base = cutoff_formulas(radius * (0.25 + 0.35 * frac),
                               radius * (0.65 + 0.35 * frac))
        modifier = (None, gauss(0.5 + frac), expdec(0.4 + frac),
                    lorentz(1.0 + frac))[i % 4]
        out.append(base if modifier is None
                   else product_formulas(base, modifier))
    return out


def refined_cs_slack_fsum(norm: MinkowskiNorm, xi: np.ndarray,
                          eta: np.ndarray) -> np.ndarray:
    """The refined Cauchy-Schwarz slack of
    :meth:`finslerineq.minkowski.MinkowskiNorm.refined_cs_slack`, pair by
    pair: F* = |.| + b (.)_n, g*_xi(xi, eta) = F*(xi) (<xi, eta>/|xi| +
    b eta_n) (0 at xi = 0) and the four-term slack, every sum a
    ``math.fsum`` of Python floats."""
    b, lam = norm.drift, norm.uniformity()

    def length(v) -> float:
        return math.sqrt(math.fsum(c * c for c in v))

    out = []
    for x, e in zip(np.asarray(xi, dtype=float).tolist(),
                    np.asarray(eta, dtype=float).tolist()):
        s = [p + q for p, q in zip(x, e)]
        nx = length(x)
        fs_x = nx + b * x[-1]
        fs_s, fs_e = length(s) + b * s[-1], length(e) + b * e[-1]
        cross = 0.0 if nx == 0.0 else fs_x * (
            math.fsum(p * q for p, q in zip(x, e)) / nx + b * e[-1])
        out.append(math.fsum((fs_s * fs_s, -fs_x * fs_x, -2.0 * cross,
                              -fs_e * fs_e / lam)))
    return np.array(out)
