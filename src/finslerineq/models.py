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
data, to one-dimensional integrals against ``cp_constant * radial density``;
the pointwise machinery (``sharp``, ``conorm``, ``density``) additionally
supports full Cartesian finite-difference checks.

Also here: the comparison functions ``s_k`` and ``D_{k,h}``, the smooth
cutoff profile, and the truncated radial test-function family used by the
sharpness sweeps.

Model descriptors are immutable after construction and every evaluator is
pure, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .minkowski import MinkowskiNorm
from .quadrature import unit_sphere_area


def _enorm(x: np.ndarray) -> np.ndarray:
    """|x| over the last axis, kept as a length-1 axis for broadcasting."""
    return np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]


class DomainError(ValueError):
    """A point or parameter lies outside a model's admissible domain."""


# --------------------------------------------------------------- comparisons
def comparison_s(k: float, t: np.ndarray | float) -> np.ndarray | float:
    """s_k(t): solution of f'' + k f = 0 with f(0) = 0, f'(0) = 1."""
    t = np.asarray(t, dtype=float)
    if k == 0.0:
        out = t.copy()
    elif k < 0.0:
        r = math.sqrt(-k)
        out = np.sinh(r * t) / r
    else:
        r = math.sqrt(k)
        out = np.sin(r * t) / r
    return out if out.ndim else float(out)


def comparison_s_prime(k: float, t: np.ndarray | float) -> np.ndarray | float:
    t = np.asarray(t, dtype=float)
    if k == 0.0:
        out = np.ones_like(t)
    elif k < 0.0:
        out = np.cosh(math.sqrt(-k) * t)
    else:
        out = np.cos(math.sqrt(k) * t)
    return out if out.ndim else float(out)


def comparison_D(k: float, h: float, t: np.ndarray | float
                 ) -> np.ndarray | float:
    """D_{k,h}(t) = t (s_k'(t)/s_k(t) - h) - 1, for t in the domain of s_k.

    Nonnegative for all t exactly when k <= 0 and h <= 0.  For k > 0 the
    admissible range is 0 < t < pi/(2 sqrt(k)).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("comparison function needs t > 0")
    if k > 0.0 and np.any(t >= 0.5 * math.pi / math.sqrt(k)):
        raise DomainError("t beyond pi/(2 sqrt(k)) for positive curvature")
    if k == 0.0:
        out = -h * t
    else:
        r = math.sqrt(abs(k))
        x = r * t
        if k < 0.0:
            # x coth x - 1, with a series near 0 to dodge cancellation
            small = x < 1e-4
            out = np.where(small, x * x / 3.0 - x**4 / 45.0,
                           x / np.tanh(np.where(small, 1.0, x)) - 1.0)
        else:
            out = x / np.tan(x) - 1.0
        out = out - h * t
    return out if out.ndim else float(out)


# -------------------------------------------------------------------- cutoff
@dataclass(frozen=True)
class SmoothCutoff:
    """C-infinity profile psi: 1 on [0, r], 0 on [R, inf), nonincreasing.

    Transition is the symmetric two-sided exponential bump
    ``psi(rho) = 1 / (1 + exp(w(s)))`` with ``w(s) = 1/(1-s) - 1/s`` and
    ``s = (rho - r)/(R - r)``; all derivatives vanish at both ends and the
    profile is exactly 1/2 at the midpoint.
    """

    r: float
    R: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r < self.R):
            raise ValueError("cutoff needs 0 < r < R")

    def _pieces(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = (np.asarray(rho, dtype=float) - self.r) / (self.R - self.r)
        mid = (s > 1e-12) & (s < 1.0 - 1e-12)
        return s, mid

    def value(self, rho: np.ndarray | float) -> np.ndarray | float:
        s, mid = self._pieces(np.asarray(rho, dtype=float))
        out = np.where(s <= 0.5, 1.0, 0.0)
        sm = np.where(mid, s, 0.5)
        w = np.clip(1.0 / (1.0 - sm) - 1.0 / sm, -500.0, 500.0)
        out = np.where(mid, 1.0 / (1.0 + np.exp(w)), out)
        return out if out.ndim else float(out)

    def d1(self, rho: np.ndarray | float) -> np.ndarray | float:
        s, mid = self._pieces(np.asarray(rho, dtype=float))
        sm = np.where(mid, s, 0.5)
        w = np.clip(1.0 / (1.0 - sm) - 1.0 / sm, -500.0, 500.0)
        w1 = 1.0 / (1.0 - sm) ** 2 + 1.0 / sm**2
        p = 1.0 / (1.0 + np.exp(w))
        out = np.where(mid, -w1 * p * (1.0 - p), 0.0) / (self.R - self.r)
        return out if out.ndim else float(out)

    def d2(self, rho: np.ndarray | float) -> np.ndarray | float:
        s, mid = self._pieces(np.asarray(rho, dtype=float))
        sm = np.where(mid, s, 0.5)
        w = np.clip(1.0 / (1.0 - sm) - 1.0 / sm, -500.0, 500.0)
        w1 = 1.0 / (1.0 - sm) ** 2 + 1.0 / sm**2
        w2 = 2.0 / (1.0 - sm) ** 3 - 2.0 / sm**3
        p = 1.0 / (1.0 + np.exp(w))
        core = p * (1.0 - p) * (w1 * w1 * (1.0 - 2.0 * p) - w2)
        out = np.where(mid, core, 0.0) / (self.R - self.r) ** 2
        return out if out.ndim else float(out)


# ------------------------------------------------------------ radial profiles
@dataclass(frozen=True)
class RadialProfile:
    """A smooth radial profile f(rho) with its first two derivatives.

    ``breakpoints`` flag radii where the profile is only piecewise smooth
    (quadrature panels are split there); ``nonincreasing`` records that
    f' <= 0 almost everywhere, the admissibility condition for the
    G^beta-kernel family.
    """

    f: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    support: float
    breakpoints: tuple[float, ...] = ()
    nonincreasing: bool = True
    label: str = ""


def profile_product(p: RadialProfile, q: RadialProfile,
                    label: str = "") -> RadialProfile:
    """Pointwise product of two radial profiles (chain rule for d1, d2)."""
    return RadialProfile(
        f=lambda rho: p.f(rho) * q.f(rho),
        d1=lambda rho: p.d1(rho) * q.f(rho) + p.f(rho) * q.d1(rho),
        d2=lambda rho: (p.d2(rho) * q.f(rho) + 2.0 * p.d1(rho) * q.d1(rho)
                        + p.f(rho) * q.d2(rho)),
        support=min(p.support, q.support),
        breakpoints=tuple(sorted(set(p.breakpoints) | set(q.breakpoints))),
        nonincreasing=p.nonincreasing and q.nonincreasing,
        label=label or f"{p.label}*{q.label}",
    )


def cutoff_profile(r: float, R: float) -> RadialProfile:
    psi = SmoothCutoff(r, R)
    return RadialProfile(psi.value, psi.d1, psi.d2, support=R,
                         breakpoints=(r,), label=f"cutoff[{r},{R}]")


@dataclass(frozen=True)
class RadialTestFunction:
    """The truncated sharpness family u = psi(rho) * max(eps, rho)^(-gamma).

    ``orientation`` selects the branch: "minus" is the nonnegative family
    built on the backward distance rho_minus, "plus" is the nonpositive
    family ``v = -psi(rho_plus) max(eps, rho_plus)^(-gamma)``.  The profile
    below is the nonnegative radial factor in either case.
    """

    gamma: float
    eps: float
    cutoff: SmoothCutoff
    orientation: str = "minus"

    def __post_init__(self) -> None:
        if not (0.0 < self.eps < self.cutoff.r):
            raise ValueError("need 0 < eps < r")
        if self.orientation not in ("minus", "plus"):
            raise ValueError("orientation must be 'minus' or 'plus'")

    @property
    def sign(self) -> int:
        return 1 if self.orientation == "minus" else -1

    def profile(self) -> RadialProfile:
        g, e = self.gamma, self.eps
        psi = self.cutoff

        def f(rho: np.ndarray) -> np.ndarray:
            rho = np.asarray(rho, dtype=float)
            return psi.value(rho) * np.maximum(e, rho) ** (-g)

        def d1(rho: np.ndarray) -> np.ndarray:
            rho = np.asarray(rho, dtype=float)
            trunc = rho <= e
            r_eff = np.maximum(e, rho)
            core = -g * r_eff ** (-g - 1.0)
            return np.where(trunc, 0.0,
                            psi.d1(rho) * r_eff**(-g) + psi.value(rho) * core)

        def d2(rho: np.ndarray) -> np.ndarray:
            rho = np.asarray(rho, dtype=float)
            trunc = rho <= e
            r_eff = np.maximum(e, rho)
            c1 = -g * r_eff ** (-g - 1.0)
            c2 = g * (g + 1.0) * r_eff ** (-g - 2.0)
            return np.where(trunc, 0.0,
                            psi.d2(rho) * r_eff**(-g)
                            + 2.0 * psi.d1(rho) * c1 + psi.value(rho) * c2)

        return RadialProfile(f, d1, d2, support=psi.R,
                             breakpoints=(e, psi.r),
                             label=f"trunc[g={g},eps={self.eps}]")


# ------------------------------------------------------------------- models
class _ModelBase:
    """Shared radial machinery; subclasses provide distances and densities."""

    n: int
    curvature: float

    # ---- comparison data
    def radial_mean_curvature(self, rho: np.ndarray | float
                              ) -> np.ndarray | float:
        """(n-1) s_k'/s_k at radius rho: the exact radial Laplacian of the
        distance function on the model (forward or reverse alike)."""
        s = comparison_s(self.curvature, rho)
        sp = comparison_s_prime(self.curvature, rho)
        return (self.n - 1) * sp / s

    def comparison_remainder(self, rho: np.ndarray | float
                             ) -> np.ndarray | float:
        return comparison_D(self.curvature, 0.0, rho)

    # ---- radial reduction
    def cp_constant(self, measure: str) -> float:
        raise NotImplementedError

    def radial_volume_density(self, rho: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # ---- radial Laplacians
    def radial_laplacian(self, measure: str, exponent: float,
                         orientation: str, rho: np.ndarray | float
                         ) -> np.ndarray | float:
        """Closed-form Laplacian of the power test profiles.

        orientation "minus": Delta(rho_minus^(-N)); orientation "plus":
        Delta(-rho_plus^(-N)).  Both canonical measures give the same value
        on these models (their densities differ by constants), so ``measure``
        only participates in validation.
        """
        self._check_measure(measure)
        rho = np.asarray(rho, dtype=float)
        if np.any(rho <= 0.0):
            raise DomainError("radial Laplacian undefined at the base point")
        nn = exponent
        mc = self.radial_mean_curvature(rho)
        val = nn * rho ** (-nn - 2.0) * ((nn + 1.0) - rho * mc)
        if orientation == "minus":
            out = val
        elif orientation == "plus":
            out = -val
        else:
            raise ValueError("orientation must be 'minus' or 'plus'")
        out = np.asarray(out)
        return out if out.ndim else float(out)

    # ---- distances
    def rho_u(self, sign, x: np.ndarray) -> float | np.ndarray:
        """The sign-cased distance: rho_minus where u > 0, rho_plus where
        u < 0, and their average on the zero set.  ``sign`` is an int or an
        array broadcasting against ``x.shape[:-1]``."""
        sign = np.asarray(sign)
        rp = np.asarray(self.rho_plus(x))
        rm = np.asarray(self.rho_minus(x))
        out = np.where(sign > 0, rm, np.where(sign < 0, rp, 0.5 * (rp + rm)))
        return out if out.ndim else float(out)

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

    def reverse(self) -> "RandersFlat":
        return RandersFlat(self.n, -self.drift)

    # ---- distances and balls
    def rho_plus(self, x: np.ndarray) -> float | np.ndarray:
        return self.norm.norm(x)

    def rho_minus(self, x: np.ndarray) -> float | np.ndarray:
        return self.norm.reverse_norm(x)

    @staticmethod
    def _d_randers(x: np.ndarray, drift: float) -> np.ndarray:
        """Differential of |x| + drift x_n: x/|x| + drift e_n (x != 0)."""
        x = np.asarray(x, dtype=float)
        out = x / _enorm(x)
        out[..., -1] += drift
        return out

    def d_rho_plus(self, x: np.ndarray) -> np.ndarray:
        """Differential of rho_plus: x/|x| + t e_n (x != 0)."""
        return self._d_randers(x, self.drift)

    def d_rho_minus(self, x: np.ndarray) -> np.ndarray:
        """Differential of rho_minus: x/|x| - t e_n (x != 0)."""
        return self._d_randers(x, -self.drift)

    # ---- measures
    def density(self, x: np.ndarray, measure: str) -> float | np.ndarray:
        """Cartesian density of the measure: BH is (1-t^2)^((n+1)/2) dx,
        HT is dx."""
        self._check_measure(measure)
        x = np.asarray(x, dtype=float)
        c = (1.0 - self.drift**2) ** ((self.n + 1) / 2.0) \
            if measure == "bh" else 1.0
        if x.ndim <= 1:
            return c
        return np.full(x.shape[:-1], c)

    def cp_constant(self, measure: str) -> float:
        """Effective sphere constant of the backward polar reduction:
        n omega_n for BH, n omega_n (1-t^2)^(-(n+1)/2) for HT."""
        self._check_measure(measure)
        area = unit_sphere_area(self.n)
        if measure == "bh":
            return area
        return area * (1.0 - self.drift**2) ** (-(self.n + 1) / 2.0)

    def radial_volume_density(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        return rho ** (self.n - 1)

    def polar_density(self, measure: str, rho: np.ndarray,
                      omega: np.ndarray) -> np.ndarray:
        """Backward-polar density: rho^{n-1} (1 + t h(omega)) times the
        measure prefactor, where h is the drift-axis component of the polar
        direction (its sphere average vanishes)."""
        self._check_measure(measure)
        rho = np.asarray(rho, dtype=float)
        omega = np.asarray(omega, dtype=float)
        pref = 1.0 if measure == "bh" \
            else (1.0 - self.drift**2) ** (-(self.n + 1) / 2.0)
        return pref * rho ** (self.n - 1) * (1.0 + self.drift * omega[..., -1])

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

    def backward_polar_from_point(self, x: np.ndarray
                                  ) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float)
        t = self.drift
        s2 = 1.0 - t * t
        rho = np.asarray(self.rho_minus(x))
        big_x = x.copy()
        big_x[..., -1] = math.sqrt(s2) * (x[..., -1] - t * rho / s2)
        return rho, big_x / (rho / math.sqrt(s2))[..., None]

    # ---- pointwise metric operations (natural coordinates)
    def sharp(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return self.norm.sharp(xi)

    def conorm(self, x: np.ndarray, xi: np.ndarray) -> float | np.ndarray:
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

    def reverse(self) -> "HyperbolicBall":
        return self

    def _conformal(self, x: np.ndarray) -> np.ndarray:
        r2 = np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
        if np.any(r2 >= self.ball_radius**2):
            raise DomainError("point outside the hyperbolic ball")
        return 2.0 / (1.0 + self.curvature * r2)

    def rho(self, x: np.ndarray) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.sqrt(np.sum(x * x, axis=-1))
        if np.any(r >= self.ball_radius):
            raise DomainError("point outside the hyperbolic ball")
        rk = math.sqrt(-self.curvature)
        out = (2.0 / rk) * np.arctanh(rk * r)
        return out if out.ndim else float(out)

    rho_plus = rho
    rho_minus = rho

    def d_rho(self, x: np.ndarray) -> np.ndarray:
        """Differential of rho: lambda(x) x/|x| (x != 0)."""
        x = np.asarray(x, dtype=float)
        lam = self._conformal(x)
        return lam[..., None] * x / _enorm(x)

    d_rho_plus = d_rho
    d_rho_minus = d_rho

    def density(self, x: np.ndarray, measure: str) -> float | np.ndarray:
        self._check_measure(measure)
        lam = self._conformal(x)
        out = np.asarray(lam**self.n)
        return out if out.ndim else float(out)

    def cp_constant(self, measure: str) -> float:
        self._check_measure(measure)
        return unit_sphere_area(self.n)

    def radial_volume_density(self, rho: np.ndarray) -> np.ndarray:
        return np.asarray(comparison_s(self.curvature, rho)) ** (self.n - 1)

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

    def conorm(self, x: np.ndarray, xi: np.ndarray) -> float | np.ndarray:
        lam = self._conformal(x)
        out = np.sqrt(np.sum(np.asarray(xi, dtype=float) ** 2, axis=-1)) / lam
        return out if out.ndim else float(out)
