"""Concrete model spaces with closed-form distances, densities and Laplacians.

Two families are implemented:

* ``RandersFlat(n, t)`` -- R^n with the translation-invariant Randers norm
  ``|y| + t y_n``.  Geodesics are straight lines, the flag curvature vanishes
  and both canonical measures have vanishing S-curvature, so the forward and
  backward distances from the origin have the closed forms
  ``rho_plus = |x| + t x_n`` and ``rho_minus = |x| - t x_n``.  ``t = 0``
  recovers flat Euclidean space.

* ``HyperbolicBall(n, k)`` -- the Poincare ball of constant curvature k < 0
  (conformal factor ``2 / (1 - |k| |x|^2)``), a reversible model where both
  distances coincide and the polar density is ``s_k(rho)^{n-1}``.

Every inequality functional evaluated on these models reduces, for radial
data, to one-dimensional integrals against ``cp_constant * radial density``.
A model's radial reduction is three things: cp (``cp_constant``), the
weight (``radial_volume_density``) and D (``comparison_remainder``); the
mean curvature of a distance sphere is read from D alone, as
(n-1)(1 + D)/rho, and so is the G^beta density -Delta(rho^(-N)), which
``harness`` reads from a pass's D and powers of rho.  The pointwise
machinery (``sharp``, ``conorm``, ``density``) additionally supports full
Cartesian finite-difference checks.  The sign-cased distance ``rho_u``
(rho_minus where u > 0, rho_plus where u < 0) is the only map from the
sign of u to a distance.

Every Euclidean length, Randers distance and differential here comes from
the kernel of ``minkowski``, and every radial density is
``s_k(rho)^{n-1}``.  Also here: the comparison functions ``s_k`` and
``D_{k,h}`` for k <= 0 (no model has k > 0, and they raise ``DomainError``
there) and ``RadialProfile``, the one type of radial input.  Its
constructors build the smooth cutoff (``cutoff_profile``) and the
truncated radial test-function family of the sharpness sweeps
(``truncated_profile``).  A radial profile is its jet, which returns f,
f' and f'' from one call; products compose their factors' jets, the
truncated family is the product of the cutoff and a truncated power, and
the cutoff evaluates its transition only on its band r < rho < R.  On a
nonreversible model the radial road needs f' <= 0, and ``harness`` checks
that on every pass.

Model descriptors are immutable after construction and every evaluator is
pure, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .minkowski import MinkowskiNorm, _d_randers, _dot, _enorm
from .quadrature import unit_sphere_area


class DomainError(ValueError):
    """A point or parameter lies outside a model's admissible domain."""


# --------------------------------------------------------------- comparisons
def _root(k: float) -> float:
    """sqrt(-k) for the curvatures the models have, k <= 0."""
    if k > 0.0:
        raise DomainError(f"comparison functions need k <= 0, got k={k}")
    return math.sqrt(-k)


def comparison_s(k: float, t: np.ndarray | float) -> np.ndarray:
    """s_k(t): solution of f'' + k f = 0 with f(0) = 0, f'(0) = 1."""
    r = _root(k)
    t = np.asarray(t, dtype=float)
    return t.copy() if k == 0.0 else np.sinh(r * t) / r


def comparison_D(k: float, h: float, t: np.ndarray | float) -> np.ndarray:
    """D_{k,h}(t) = t (s_k'(t)/s_k(t) - h) - 1 for t > 0 and k <= 0.

    Nonnegative for all t exactly when h <= 0.
    """
    r = _root(k)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("comparison function needs t > 0")
    if k == 0.0:
        return -h * t
    # x coth x - 1, with a series near 0 to dodge cancellation
    x = r * t
    small = x < 1e-4
    return np.where(small, x * x / 3.0 - x**4 / 45.0,
                    x / np.tanh(np.where(small, 1.0, x)) - 1.0) - h * t


# ------------------------------------------------------------ radial profiles
# jet(rho, order): the tuple (f, f', f'')[:order + 1] at rho
Jet = Callable[..., tuple]


@dataclass(frozen=True)
class RadialProfile:
    """A smooth radial profile f(rho), given by its jet.

    ``jet(rho, order)`` evaluates (f, f', f'')[:order + 1] together from
    shared intermediate values; ``f``, ``d1`` and ``d2`` are its views
    (:meth:`from_jet` fills them).  ``breakpoints`` flag radii where the
    profile is only piecewise smooth (quadrature panels are split there).
    On a nonreversible model the radial road needs f' <= 0, which it
    checks on every pass (``harness._RadialJet``).
    """

    f: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    support: float
    breakpoints: tuple[float, ...] = ()
    label: str = ""
    jet: Jet = dc_field(kw_only=True)

    @classmethod
    def from_jet(cls, jet: Jet, support: float, **kw) -> "RadialProfile":
        """The profile of ``jet``, with f, d1 and d2 as its views."""
        return cls(lambda rho: jet(rho, 0)[0], lambda rho: jet(rho, 1)[1],
                   lambda rho: jet(rho, 2)[2], support, jet=jet, **kw)


def profile_product(p: RadialProfile, q: RadialProfile,
                    label: str = "") -> RadialProfile:
    """Pointwise product of two radial profiles; its jet reads each factor's
    jet once and combines them by the product rule."""
    def jet(rho: np.ndarray, order: int = 2) -> tuple:
        pj, qj = p.jet(rho, order), q.jet(rho, order)
        out = [pj[0] * qj[0]]
        if order >= 1:
            out.append(pj[1] * qj[0] + pj[0] * qj[1])
        if order >= 2:
            out.append(pj[2] * qj[0] + 2.0 * pj[1] * qj[1] + pj[0] * qj[2])
        return tuple(out)

    return RadialProfile.from_jet(
        jet, support=min(p.support, q.support),
        breakpoints=tuple(sorted(set(p.breakpoints) | set(q.breakpoints))),
        label=label or f"{p.label}*{q.label}")


def cutoff_profile(r: float, R: float) -> RadialProfile:
    """C-infinity profile psi: 1 on [0, r], 0 on [R, inf), nonincreasing.

    Transition is the symmetric two-sided exponential bump
    ``psi(rho) = 1 / (1 + exp(w(s)))`` with ``w(s) = 1/(1-s) - 1/s`` and
    ``s = (rho - r)/(R - r)``; all derivatives vanish at both ends and the
    profile is exactly 1/2 at the midpoint.
    """
    if not (0.0 < r < R):
        raise ValueError("cutoff needs 0 < r < R")
    width = R - r

    def jet(rho: np.ndarray | float, order: int = 2) -> tuple:
        """(psi, psi', psi'')[:order + 1] at rho, each shaped like rho.

        The transition is evaluated once, and only on its band
        1e-12 < s < 1 - 1e-12; elsewhere psi is exactly 1.0 for s <= 1/2
        and 0.0 beyond, and both derivatives are 0.0.
        """
        rho = np.asarray(rho, dtype=float)
        s = (rho - r) / width
        band_at = np.flatnonzero((s > 1e-12) & (s < 1.0 - 1e-12))
        sm = s.take(band_at)
        w = np.clip(1.0 / (1.0 - sm) - 1.0 / sm, -500.0, 500.0)
        p = 1.0 / (1.0 + np.exp(w))
        band = [p]
        if order >= 1:
            w1 = 1.0 / (1.0 - sm) ** 2 + 1.0 / sm**2
            band.append(-w1 * p * (1.0 - p) / width)
        if order >= 2:
            w2 = 2.0 / (1.0 - sm) ** 3 - 2.0 / sm**3
            band.append(p * (1.0 - p) * (w1 * w1 * (1.0 - 2.0 * p) - w2)
                        / width**2)
        out = []
        for k, on_band in enumerate(band):
            full = np.where(s <= 0.5, 1.0, 0.0) if k == 0 else \
                np.zeros_like(s)
            np.put(full, band_at, on_band)
            out.append(full)
        return tuple(out)

    return RadialProfile.from_jet(jet, support=R, breakpoints=(r,),
                                  label=f"cutoff[{r},{R}]")


def _truncated_power(g: float, eps: float, support: float) -> RadialProfile:
    """max(eps, rho)^(-g), with f' = f'' = 0 on rho <= eps."""
    def jet(rho: np.ndarray, order: int = 2) -> tuple:
        rho = np.asarray(rho, dtype=float)
        trunc = rho <= eps
        r_eff = np.maximum(eps, rho)
        out = [r_eff ** (-g)]
        if order >= 1:
            out.append(np.where(trunc, 0.0, -g * r_eff ** (-g - 1.0)))
        if order >= 2:
            out.append(np.where(trunc, 0.0,
                                g * (g + 1.0) * r_eff ** (-g - 2.0)))
        return tuple(out)

    return RadialProfile.from_jet(jet, support, breakpoints=(eps,))


def truncated_profile(gamma: float, eps: float, r: float, R: float
                      ) -> RadialProfile:
    """The truncated sharpness family u = psi(rho) * max(eps, rho)^(-gamma),
    psi the cutoff on [r, R].

    The profile is the nonnegative radial factor.  A report integrates it
    at rho = rho_minus, the distance ``rho_u`` reads where u > 0; the
    nonpositive member ``-psi(rho_plus) max(eps, rho_plus)^(-gamma)`` has
    the same terms, and as a field it is ``fields.radial_field(model,
    profile, "plus")``.  It is the product of the cutoff and the truncated
    power; the cutoff's derivatives vanish on rho <= eps < r, so f' and f''
    are 0 there.
    """
    cutoff = cutoff_profile(r, R)
    if not (0.0 < eps < r):
        raise ValueError("need 0 < eps < r")
    return profile_product(cutoff, _truncated_power(gamma, eps, R),
                           label=f"trunc[g={gamma},eps={eps}]")


# ------------------------------------------------------------------- models
class _ModelBase:
    """Shared radial machinery; subclasses provide distances and densities."""

    n: int
    curvature: float

    # ---- radial reduction: cp, the weight and D
    def comparison_remainder(self, rho: np.ndarray | float) -> np.ndarray:
        """D(rho) = D_{k,0}(rho): rho times the mean curvature of the
        distance sphere is (n-1)(1 + D)."""
        return comparison_D(self.curvature, 0.0, rho)

    def cp_constant(self, measure: str) -> float:
        raise NotImplementedError

    def radial_volume_density(self, rho: np.ndarray) -> np.ndarray:
        """s_k(rho)^(n-1), the radial density of the polar reduction."""
        return comparison_s(self.curvature, rho) ** (self.n - 1)

    # ---- distances
    def rho_u(self, sign, x: np.ndarray) -> np.ndarray:
        """The sign-cased distance: rho_minus where u > 0, rho_plus where
        u < 0, and their average on the zero set.  ``sign`` is an int or an
        array broadcasting against ``x.shape[:-1]``."""
        rp, rm = self.rho_plus(x), self.rho_minus(x)
        return np.where(sign > 0, rm, np.where(sign < 0, rp, 0.5 * (rp + rm)))

    def _check_measure(self, measure: str) -> None:
        if measure not in ("bh", "ht"):
            raise ValueError(f"unknown measure {measure!r} (use 'bh' or 'ht')")


class RandersFlat(_ModelBase):
    """Flat Randers space (R^n, |y| + t y_n) with the BH or HT measure.

    Negative drift is admitted so that the reverse model (the same space with
    the reversed norm) is again a member of the family; user-facing
    construction keeps t in [0, 1).
    """

    def __init__(self, n: int, drift: float):
        if n < 2:
            raise ValueError("dimension must be >= 2")
        if not abs(drift) < 1.0:
            raise ValueError("drift must satisfy |t| < 1")
        self.n = n
        self.drift = float(drift)
        self.curvature = 0.0
        self.norm = MinkowskiNorm(n, self.drift)
        self.reversibility = self.norm.reversibility()
        self.uniformity = self.norm.uniformity()

    def __repr__(self) -> str:
        return f"RandersFlat(n={self.n}, t={self.drift})"

    # ---- distances and balls
    def rho_plus(self, x: np.ndarray) -> np.ndarray:
        return self.norm.norm(x)

    def rho_minus(self, x: np.ndarray) -> np.ndarray:
        return self.norm.reverse_norm(x)

    def d_rho_plus(self, x: np.ndarray) -> np.ndarray:
        """Differential of rho_plus: x/|x| + t e_n (x != 0)."""
        return _d_randers(x, self.drift)

    def d_rho_minus(self, x: np.ndarray) -> np.ndarray:
        """Differential of rho_minus: x/|x| - t e_n (x != 0)."""
        return _d_randers(x, -self.drift)

    # ---- measures
    def _bh_factor(self, sign: float) -> float:
        """(1-t^2)^(sign (n+1)/2): the BH density against dx (sign 1) and
        the HT polar prefactor (sign -1), each a power, not a reciprocal."""
        return (1.0 - self.drift**2) ** (sign * (self.n + 1) / 2.0)

    def density(self, x: np.ndarray, measure: str) -> np.ndarray:
        """Cartesian density of the measure: BH is (1-t^2)^((n+1)/2) dx,
        HT is dx."""
        self._check_measure(measure)
        x = np.asarray(x, dtype=float)
        c = self._bh_factor(1.0) if measure == "bh" else 1.0
        return np.full(x.shape[:-1], c)

    def cp_constant(self, measure: str) -> float:
        """Effective sphere constant of the backward polar reduction:
        n omega_n for BH, n omega_n (1-t^2)^(-(n+1)/2) for HT."""
        self._check_measure(measure)
        area = unit_sphere_area(self.n)
        if measure == "bh":
            return area
        return area * self._bh_factor(-1.0)

    def polar_density(self, measure: str, rho: np.ndarray,
                      omega: np.ndarray) -> np.ndarray:
        """Backward-polar density: rho^{n-1} (1 + t h(omega)) times the
        measure prefactor, where h is the drift-axis component of the polar
        direction (its sphere average vanishes)."""
        self._check_measure(measure)
        rho = np.asarray(rho, dtype=float)
        omega = np.asarray(omega, dtype=float)
        pref = 1.0 if measure == "bh" else self._bh_factor(-1.0)
        return pref * self.radial_volume_density(rho) * \
            (1.0 + self.drift * omega[..., -1])

    # ---- polar chart (the straightening coordinates)
    def point_from_backward_polar(self, rho: np.ndarray,
                                  omega: np.ndarray) -> np.ndarray:
        """Cartesian point with rho_minus = rho in polar direction omega.

        Inverts the straightening chart X_alpha = x_alpha,
        X_n = sqrt(1-t^2) (x_n - t rho_minus/(1-t^2)), |X| = rho/sqrt(1-t^2).
        """
        rho = np.asarray(rho, dtype=float)
        omega = np.asarray(omega, dtype=float)
        t = self.drift
        s2 = 1.0 - t * t
        big_x = (rho / math.sqrt(s2))[..., None] * omega
        x = big_x.copy()
        x[..., -1] = big_x[..., -1] / math.sqrt(s2) + t * rho / s2
        return x

    # ---- pointwise metric operations (natural coordinates)
    def sharp(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return self.norm.sharp(xi)

    def conorm(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return self.norm.conorm(xi)


def euclidean_flat(n: int) -> RandersFlat:
    """Euclidean R^n as the drift-free member of the flat Randers family."""
    return RandersFlat(n, 0.0)


class HyperbolicBall(_ModelBase):
    """Poincare ball of curvature k < 0: reversible, both measures coincide
    with the Riemannian volume, polar density s_k^{n-1}."""

    def __init__(self, n: int, curvature: float):
        if n < 2:
            raise ValueError("dimension must be >= 2")
        if not curvature < 0.0:
            raise ValueError("hyperbolic model needs k < 0")
        self.n = n
        self.curvature = float(curvature)
        self.ball_radius = 1.0 / math.sqrt(-curvature)
        self.reversibility = 1.0
        self.uniformity = 1.0

    def __repr__(self) -> str:
        return f"HyperbolicBall(n={self.n}, k={self.curvature})"

    def _conformal(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r2 = _dot(x, x)
        if np.any(r2 >= self.ball_radius**2):
            raise DomainError("point outside the hyperbolic ball")
        return 2.0 / (1.0 + self.curvature * r2)

    def rho(self, x: np.ndarray) -> np.ndarray:
        r = _enorm(np.asarray(x, dtype=float))
        if np.any(r >= self.ball_radius):
            raise DomainError("point outside the hyperbolic ball")
        rk = math.sqrt(-self.curvature)
        return (2.0 / rk) * np.arctanh(rk * r)

    rho_plus = rho
    rho_minus = rho

    def d_rho(self, x: np.ndarray) -> np.ndarray:
        """Differential of rho: lambda(x) x/|x| (x != 0)."""
        x = np.asarray(x, dtype=float)
        lam = self._conformal(x)
        return lam[..., None] * x / _enorm(x)[..., None]

    d_rho_plus = d_rho
    d_rho_minus = d_rho

    def density(self, x: np.ndarray, measure: str) -> np.ndarray:
        self._check_measure(measure)
        # the power of a 0-d array takes the bits of the stacked loop
        return np.asarray(self._conformal(x)) ** self.n

    def cp_constant(self, measure: str) -> float:
        self._check_measure(measure)
        return unit_sphere_area(self.n)

    def polar_density(self, measure: str, rho: np.ndarray,
                      omega: np.ndarray) -> np.ndarray:
        self._check_measure(measure)
        return self.radial_volume_density(np.asarray(rho, dtype=float)) * \
            np.ones(np.asarray(omega).shape[:-1])

    def point_from_backward_polar(self, rho: np.ndarray,
                                  omega: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        rk = math.sqrt(-self.curvature)
        r = np.tanh(0.5 * rk * rho) / rk
        return r[..., None] * np.asarray(omega, dtype=float)

    def sharp(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        lam = self._conformal(x)
        return np.asarray(xi, dtype=float) / lam[..., None] ** 2

    def conorm(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        lam = self._conformal(x)
        return _enorm(np.asarray(xi, dtype=float)) / lam
