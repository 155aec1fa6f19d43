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
The two presentations are linked by a diagonal map (entries
``1/sqrt(1-b^2)`` and ``-1/(1-b^2)`` on the drift axis), so a raw
differential ``xi`` in natural coordinates has the same dual norm as its
adapted image.  Raw differentials never need that map here: ``conorm`` and
``sharp`` act on them in natural coordinates, and are what field calculus
on the flat Randers model consumes.

This module is the package's geometry layer: ``_dot`` is its one
Euclidean inner-product kernel (``models``, ``fields`` and the harness form
every length through it), and the Randers value ``_randers``, its
differential ``_d_randers`` and the co-norm pair ``MinkowskiNorm._conorm_q``
are each written once.

The norms and the fundamental tensor take a stack ``(..., n)`` and return
an array over its leading axes; a point ``(n,)`` is a stack with no leading
axes and gets what that expression gives, a 0-d value.  All operations are
pure functions of immutable data and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# direction pairs per block of the sampled Lambda_F grid: bounds the grid's
# temporaries whatever the resolution
_GRID_BLOCK = 1 << 13
# grid points per zoom round of the sampled lambda_F and Lambda_F
_REVERSIBILITY_RESOLUTION = 2000
_UNIFORMITY_RESOLUTION = 400


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> over the last axis, broadcasting the leading ones: the one
    Euclidean kernel of the package (einsum forms no a * b temporary)."""
    return np.einsum("...i,...i->...", a, b)


def _enorm(a: np.ndarray) -> np.ndarray:
    """|a| over the last axis."""
    return np.sqrt(_dot(a, a))


def _randers(y: np.ndarray, drift: float,
             length: np.ndarray | None = None) -> np.ndarray:
    """|y| + drift * y_n, the one Randers expression of the package;
    ``length`` is |y| when the caller has it already."""
    y = np.asarray(y, dtype=float)
    return (_enorm(y) if length is None else length) + drift * y[..., -1]


def _d_randers(y: np.ndarray, drift: float,
               length: np.ndarray | None = None) -> np.ndarray:
    """d(|y| + drift * y_n) = y/|y| + drift e_n at y != 0; ``length`` is
    |y| when the caller has it already."""
    y = np.asarray(y, dtype=float)
    out = y / (_enorm(y) if length is None else length)[..., None]
    out[..., -1] += drift
    return out


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
    def norm(self, y: np.ndarray) -> np.ndarray:
        """F(y); positive for y != 0 and positively 1-homogeneous."""
        return _randers(y, self.drift)

    def reverse_norm(self, y: np.ndarray) -> np.ndarray:
        """The reverse norm evaluated at y, i.e. F(-y)."""
        return _randers(y, -self.drift)

    # F*(xi) = |xi| + b xi_n in the adapted dual coordinates
    dual_norm = norm

    # ------------------------------------------------ natural musical maps
    def _conorm_q(self, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(q, F*(xi)) of a raw differential in natural coordinates, with
        q = sqrt((1-b^2) |xi'|^2 + xi_n^2) and F* = (q - b xi_n)/(1-b^2)."""
        b = self.drift
        s = 1.0 - b * b
        head, last = xi[..., :-1], xi[..., -1]
        q = np.sqrt(s * _dot(head, head) + last * last)
        return q, (q - b * last) / s

    def conorm(self, xi: np.ndarray) -> np.ndarray:
        """Dual norm of a raw differential in natural coordinates."""
        return self._conorm_q(np.asarray(xi, dtype=float))[1]

    def sharp(self, xi: np.ndarray) -> np.ndarray:
        """Inverse Legendre map on raw differentials: the vector y with
        g_y(y, .) = xi, half the conorm-squared gradient; sharp(0)=0."""
        xi = np.asarray(xi, dtype=float)
        b = self.drift
        q, fstar = self._conorm_q(xi)
        # zero covectors (also rows of a batch) have fstar = 0, and any
        # finite q then maps them to the zero vector
        out = xi * (fstar / np.where(q > 0.0, q, 1.0))[..., None]
        out[..., -1] = (out[..., -1] - b * fstar) / (1.0 - b * b)
        return out

    # -------------------------------------------------------------- tensors
    def fundamental_form(self, y: np.ndarray, u: np.ndarray,
                         v: np.ndarray) -> np.ndarray:
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
        ell = _d_randers(y, self.drift, ny)
        f = _randers(y, self.drift, ny)
        return _dot(ell, u) * _dot(ell, v) \
            + (f / ny) * (_dot(u, v) - _dot(yh, u) * _dot(yh, v))

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

    def sampled_reversibility(self) -> float:
        """Grid estimate of lambda_F; the ratio only depends on the angle to
        the drift axis, so a 1-d grid over that angle with two zoom rounds
        recovers the supremum."""
        b = self.drift
        resolution = _REVERSIBILITY_RESOLUTION
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

    def sampled_uniformity(self) -> float:
        """Grid estimate of Lambda_F over direction pairs.

        The ratio g_X(Y,Y)/g_Z(Y,Y) is invariant under rotations about the
        drift axis and is never improved by moving Y out of the plane spanned
        by X, Z and the axis, so the search reduces to two polar angles; the
        best Y per pair is the top generalized eigenvalue of the 2x2 pencil.
        Three zoom rounds refine the coarse grid.  Each round builds the
        t2 side once and scans t1 in blocks of about ``_GRID_BLOCK`` grid
        points, keeping the first maximum in row-major order, so memory is
        O(block) whatever the resolution.
        """
        resolution = _UNIFORMITY_RESOLUTION
        lo1 = lo2 = 0.0
        hi1 = hi2 = math.pi
        rows = max(1, _GRID_BLOCK // resolution)
        for _ in range(3):
            t1 = np.linspace(lo1, hi1, resolution)
            t2 = np.linspace(lo2, hi2, resolution)
            a = self._plane_tensor(t1)[:, None, :, :]
            bmat = self._plane_tensor(t2)
            b11, b12, b22 = bmat[:, 0, 0], bmat[:, 0, 1], bmat[:, 1, 1]
            p2 = b11 * b22 - b12 * b12
            for r0 in range(0, resolution, rows):
                blk = a[r0:r0 + rows]
                # top root of det(A - lam B) = 0 for 2x2 symmetric pencils
                a11, a12, a22 = blk[..., 0, 0], blk[..., 0, 1], blk[..., 1, 1]
                p1 = -(a11 * b22 + a22 * b11 - 2.0 * a12 * b12)
                p0 = a11 * a22 - a12 * a12
                lam = (-p1 + np.sqrt(np.maximum(p1 * p1 - 4.0 * p2 * p0,
                                                0.0))) / (2.0 * p2)
                k = int(np.argmax(lam))
                # strict, so the first maximum over all blocks is kept
                if r0 == 0 or lam.flat[k] > best:
                    best = float(lam.flat[k])
                    i, j = r0 + k // resolution, k % resolution
            w1 = (hi1 - lo1) / resolution
            w2 = (hi2 - lo2) / resolution
            lo1, hi1 = max(0.0, t1[i] - 2 * w1), min(math.pi, t1[i] + 2 * w1)
            lo2, hi2 = max(0.0, t2[j] - 2 * w2), min(math.pi, t2[j] + 2 * w2)
        return best

    # ------------------------------------------------- inequality residuals
    def refined_cs_slack(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """Residual of the sharpened Cauchy-Schwarz inequality

            F*^2(xi+eta) - F*^2(xi) - 2 g*_xi(xi, eta) - F*^2(eta)/Lambda_F,

        nonnegative for every pair; g*_xi(xi, .) is taken to be 0 at xi = 0.
        Broadcasts over leading axes (adapted dual coordinates).
        """
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        b = self.drift
        fs_sum = np.asarray(self.dual_norm(xi + eta))
        nxi = _enorm(xi)
        fs_xi = np.asarray(_randers(xi, b, nxi))
        fs_eta = np.asarray(self.dual_norm(eta))
        safe = np.where(nxi == 0.0, 1.0, nxi)
        # g*_xi(xi, eta) = F*(xi) (<xi, eta>/|xi| + b eta_n)
        cross = fs_xi * (_dot(xi, eta) / safe + b * eta[..., -1])
        cross = np.where(nxi == 0.0, 0.0, cross)
        return fs_sum**2 - fs_xi**2 - 2.0 * cross \
            - fs_eta**2 / self.uniformity()
