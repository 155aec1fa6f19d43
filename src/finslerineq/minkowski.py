"""Position-independent Minkowski norms of Randers type and their duals.

The family is ``F(y) = |y| + b * y_n`` with drift ``|b| < 1`` (``b = 0`` is
the Euclidean case).  Two linear presentations of the same norm are used:

* vectors live in the *natural* coordinates, where ``F(y) = |y| + b y_n``;
* covectors handed to the ``dual_*`` operations live in *adapted* dual
  coordinates, where the dual norm is again of Randers form,
  ``F*(xi) = |xi| + b xi_n``.

So the dual norm and the dual fundamental tensor are the same Randers
formulas as the primal ones, read in adapted coordinates: ``dual_norm`` and
``dual_fundamental_form`` are aliases of ``norm`` and ``fundamental_form``.
The two presentations are linked by the diagonal map ``adapt_covector``
(entries ``1/sqrt(1-b^2)`` and ``-1/(1-b^2)`` on the drift axis): a raw
differential ``xi`` in natural coordinates satisfies
``F*(xi) = dual_norm(adapt(xi))``.  The Legendre transform here maps natural
vectors to adapted covectors, so ``dual_norm(legendre(y)) == norm(y)`` holds
exactly; the musical maps ``flat``/``sharp``/``conorm`` act purely in natural
coordinates and are what field calculus on the flat Randers model consumes.

The norms and the fundamental tensor take a point ``(n,)`` or a stack
``(..., n)`` and return a float or an array over the leading axes.  All
operations are pure functions of immutable data and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _last(a: np.ndarray) -> np.ndarray:
    return a[..., -1]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * b, axis=-1)


def _enorm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


@dataclass(frozen=True)
class MinkowskiNorm:
    """Randers norm ``|y| + drift * y_n`` on R^dim; drift 0 gives Euclidean."""

    dim: int
    drift: float = 0.0

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("dimension must be >= 2")
        if not abs(self.drift) < 1.0:
            raise ValueError("Randers drift must satisfy |b| < 1")

    # ---------------------------------------------------------------- basic
    @staticmethod
    def _randers(y: np.ndarray, drift: float) -> float | np.ndarray:
        """|y| + drift * y_n, the one Randers expression of this module."""
        y = np.asarray(y, dtype=float)
        out = _enorm(y) + drift * _last(y)
        return out if out.ndim else float(out)

    def norm(self, y: np.ndarray) -> float | np.ndarray:
        """F(y); positive for y != 0 and positively 1-homogeneous."""
        return self._randers(y, self.drift)

    def reverse_norm(self, y: np.ndarray) -> float | np.ndarray:
        """The reverse norm evaluated at y, i.e. F(-y)."""
        return self._randers(y, -self.drift)

    def reverse(self) -> "MinkowskiNorm":
        """The reverse norm as its own Randers object (drift flips sign)."""
        return MinkowskiNorm(self.dim, -self.drift)

    # F*(xi) = |xi| + b xi_n in the adapted dual coordinates
    dual_norm = norm

    # --------------------------------------------------- coordinate adapters
    def adapt_covector(self, xi: np.ndarray) -> np.ndarray:
        """Natural covector -> adapted dual coordinates (drift axis rescales
        by -1/(1-b^2), the rest by 1/sqrt(1-b^2)).  The axis flip is forced
        by the drift term of the dual norm whenever b != 0; the Euclidean
        member keeps the identity so its Legendre map is the identity."""
        xi = np.asarray(xi, dtype=float)
        if self.drift == 0.0:
            return xi.copy()
        s = 1.0 - self.drift**2
        out = xi / math.sqrt(s)
        out[..., -1] = -xi[..., -1] / s
        return out

    def unadapt_covector(self, xi_hat: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`adapt_covector`."""
        xi_hat = np.asarray(xi_hat, dtype=float)
        if self.drift == 0.0:
            return xi_hat.copy()
        s = 1.0 - self.drift**2
        out = xi_hat * math.sqrt(s)
        out[..., -1] = -xi_hat[..., -1] * s
        return out

    # ------------------------------------------------ natural musical maps
    def conorm(self, xi: np.ndarray) -> float | np.ndarray:
        """Dual norm of a raw differential in natural coordinates."""
        xi = np.asarray(xi, dtype=float)
        b = self.drift
        s = 1.0 - b * b
        head = np.sum(xi[..., :-1] ** 2, axis=-1)
        q = np.sqrt(s * head + xi[..., -1] ** 2)
        out = (q - b * xi[..., -1]) / s
        return out if out.ndim else float(out)

    def flat(self, y: np.ndarray) -> np.ndarray:
        """Natural Legendre image g_y(y, .) = F(y) (yhat + b e_n); flat(0)=0."""
        y = np.asarray(y, dtype=float)
        ny = _enorm(y)
        if np.any(ny == 0.0):
            if y.ndim == 1:
                return np.zeros_like(y)
            raise ValueError("flat of a zero vector in a batch")
        f = np.asarray(self.norm(y))
        out = (y / ny[..., None]) * f[..., None]
        out[..., -1] += self.drift * f
        return out

    def sharp(self, xi: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`flat`: half the conorm-squared gradient; sharp(0)=0."""
        xi = np.asarray(xi, dtype=float)
        b = self.drift
        s = 1.0 - b * b
        head, last = xi[..., :-1], xi[..., -1]
        q = np.sqrt(s * np.einsum("...i,...i->...", head, head) + last * last)
        fstar = (q - b * last) / s
        # zero covectors (also rows of a batch) have fstar = 0, and any
        # finite q then maps them to the zero vector
        out = xi * (fstar / np.where(q > 0.0, q, 1.0))[..., None]
        out[..., -1] = (out[..., -1] - b * fstar) / s
        return out

    # ------------------------------------------------------ legendre pair
    def legendre(self, y: np.ndarray) -> np.ndarray:
        """Legendre transform: natural vector -> adapted covector."""
        y = np.asarray(y, dtype=float)
        if not np.any(y):
            return np.zeros_like(y)
        return self.adapt_covector(self.flat(y))

    def legendre_inv(self, xi: np.ndarray) -> np.ndarray:
        """Inverse Legendre transform: adapted covector -> natural vector."""
        xi = np.asarray(xi, dtype=float)
        if not np.any(xi):
            return np.zeros_like(xi)
        nxi = _enorm(xi)
        grad = xi / nxi[..., None]
        grad[..., -1] += self.drift
        half_grad_sq = grad * np.asarray(self.dual_norm(xi))[..., None]
        # the same axis adaptation carries the dual gradient back to vectors
        return self.adapt_covector(half_grad_sq)

    # -------------------------------------------------------------- tensors
    def fundamental_form(self, y: np.ndarray, u: np.ndarray,
                         v: np.ndarray) -> float | np.ndarray:
        """g_y(u, v), the Hessian of F^2/2 at y != 0 (natural coordinates).

        Broadcasts over leading axes ``(..., n)``; raises ``ValueError`` if
        any row of ``y`` is zero.
        """
        y = np.asarray(y, dtype=float)
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        ny = _enorm(y)
        if np.any(ny == 0.0):
            raise ValueError("fundamental form undefined at y = 0")
        yh = y / ny[..., None]
        ell = yh.copy()
        ell[..., -1] += self.drift
        f = self.norm(y)
        out = _dot(ell, u) * _dot(ell, v) \
            + (f / ny) * (_dot(u, v) - _dot(yh, u) * _dot(yh, v))
        return out if out.ndim else float(out)

    # g*_xi(eta, zeta) for xi != 0, in adapted dual coordinates
    dual_fundamental_form = fundamental_form

    # ---------------------------------------------------- asymmetry constants
    def reversibility(self) -> float:
        """lambda_F = sup F(-y)/F(y) = (1+|b|)/(1-|b|), closed form."""
        b = abs(self.drift)
        return (1.0 + b) / (1.0 - b)

    def uniformity(self) -> float:
        """Lambda_F = sup g_X(Y,Y)/g_Z(Y,Y) = ((1+|b|)/(1-|b|))^2, closed form."""
        return self.reversibility() ** 2

    def sampled_reversibility(self, resolution: int = 2000) -> float:
        """Grid estimate of lambda_F; the ratio only depends on the angle to
        the drift axis, so a 1-d grid over that angle with two zoom rounds
        recovers the supremum."""
        b = self.drift
        lo, hi = 0.0, math.pi
        best_theta = 0.0
        for _ in range(3):
            theta = np.linspace(lo, hi, resolution)
            c = np.cos(theta)
            ratio = (1.0 - b * c) / (1.0 + b * c)
            i = int(np.argmax(ratio))
            best_theta = float(theta[i])
            width = (hi - lo) / resolution
            lo, hi = max(0.0, best_theta - 2 * width), min(math.pi,
                                                           best_theta + 2 * width)
        c = math.cos(best_theta)
        return (1.0 - b * c) / (1.0 + b * c)

    def _plane_tensor(self, theta: np.ndarray) -> np.ndarray:
        """g at the unit Euclidean direction at angle theta to the drift axis,
        restricted to the plane spanned by that direction and the axis.
        Basis: (direction, its in-plane orthogonal complement)."""
        c, s = np.cos(theta), np.sin(theta)
        b = self.drift
        f = 1.0 + b * c                       # F at the unit direction
        g11 = (1.0 + b * c) ** 2
        g12 = -b * s * (1.0 + b * c)
        g22 = b * b * s * s + f
        out = np.empty(theta.shape + (2, 2))
        out[..., 0, 0] = g11
        out[..., 0, 1] = out[..., 1, 0] = g12
        out[..., 1, 1] = g22
        return out

    def sampled_uniformity(self, resolution: int = 400) -> float:
        """Grid estimate of Lambda_F over direction pairs.

        The ratio g_X(Y,Y)/g_Z(Y,Y) is invariant under rotations about the
        drift axis and is never improved by moving Y out of the plane spanned
        by X, Z and the axis, so the search reduces to two polar angles; the
        best Y per pair is the top generalized eigenvalue of the 2x2 pencil.
        Three zoom rounds refine the coarse grid.
        """
        lo1 = lo2 = 0.0
        hi1 = hi2 = math.pi
        best = 1.0
        for _ in range(3):
            t1 = np.linspace(lo1, hi1, resolution)
            t2 = np.linspace(lo2, hi2, resolution)
            a = self._plane_tensor(t1)[:, None, :, :]
            bmat = self._plane_tensor(t2)[None, :, :, :]
            # top root of det(A - lam B) = 0 for 2x2 symmetric pencils
            a11, a12, a22 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 1]
            b11, b12, b22 = bmat[..., 0, 0], bmat[..., 0, 1], bmat[..., 1, 1]
            p2 = b11 * b22 - b12 * b12
            p1 = -(a11 * b22 + a22 * b11 - 2.0 * a12 * b12)
            p0 = a11 * a22 - a12 * a12
            lam = (-p1 + np.sqrt(np.maximum(p1 * p1 - 4.0 * p2 * p0, 0.0))) \
                / (2.0 * p2)
            i, j = np.unravel_index(int(np.argmax(lam)), lam.shape)
            best = float(lam[i, j])
            w1 = (hi1 - lo1) / resolution
            w2 = (hi2 - lo2) / resolution
            lo1, hi1 = max(0.0, t1[i] - 2 * w1), min(math.pi, t1[i] + 2 * w1)
            lo2, hi2 = max(0.0, t2[j] - 2 * w2), min(math.pi, t2[j] + 2 * w2)
        return best

    # ------------------------------------------------- inequality residuals
    def refined_cs_slack(self, xi: np.ndarray, eta: np.ndarray
                         ) -> float | np.ndarray:
        """Residual of the sharpened Cauchy-Schwarz inequality

            F*^2(xi+eta) - F*^2(xi) - 2 g*_xi(xi, eta) - F*^2(eta)/Lambda_F,

        nonnegative for every pair; g*_xi(xi, .) is taken to be 0 at xi = 0.
        Broadcasts over leading axes (adapted dual coordinates).
        """
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        xi, eta = np.broadcast_arrays(xi, eta)
        b = self.drift
        fs_sum = np.asarray(self.dual_norm(xi + eta))
        fs_xi = np.asarray(self.dual_norm(xi))
        fs_eta = np.asarray(self.dual_norm(eta))
        nxi = _enorm(xi)
        safe = np.where(nxi == 0.0, 1.0, nxi)
        # g*_xi(xi, eta) = F*(xi) (<xi, eta>/|xi| + b eta_n)
        cross = fs_xi * (_dot(xi, eta) / safe + b * _last(eta))
        cross = np.where(nxi == 0.0, 0.0, cross)
        out = fs_sum**2 - fs_xi**2 - 2.0 * cross - fs_eta**2 / self.uniformity()
        return out if out.ndim else float(out)
