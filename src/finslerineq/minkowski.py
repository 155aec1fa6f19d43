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

# polar angles, 5 degrees apart around the plane of the drift axis, of the
# sampled lambda_F and Lambda_F; they hold the poles and the right angles
_SAMPLED_ANGLES = np.linspace(-math.pi, math.pi, 73)


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

    def _sampled_plane(self) -> tuple[MinkowskiNorm, np.ndarray]:
        """The norm on a plane through the drift axis and its unit
        directions at ``_SAMPLED_ANGLES``.  Both ratios are invariant under
        rotations about the axis and both suprema sit on its poles, so this
        plane stands for every n, with the same bits."""
        y = np.stack([np.sin(_SAMPLED_ANGLES), np.cos(_SAMPLED_ANGLES)], -1)
        return MinkowskiNorm(2, self.drift), y

    def sampled_reversibility(self) -> float:
        """Grid estimate of lambda_F: the largest F(-y)/F(y) over the
        sampled directions."""
        plane, y = self._sampled_plane()
        return float(np.max(plane.norm(-y) / plane.norm(y)))

    def sampled_uniformity(self) -> float:
        """Grid estimate of Lambda_F: the largest, over sampled Y, of
        max_X g_X(Y,Y) / min_Z g_Z(Y,Y), X and Z sampled too."""
        plane, y = self._sampled_plane()
        g = plane.fundamental_form(y[:, None], y, y)     # g[x, y] = g_x(y, y)
        return float(np.max(g.max(axis=0) / g.min(axis=0)))

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
