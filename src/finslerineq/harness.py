"""Term-by-term evaluation of the Hardy/Rellich-type inequality functionals.

Each report gives every integral of one inequality instance as its own
term with its own error, records the constants in play, and exposes
``slack = LHS - sum(RHS terms)``; it passes when the slack is above minus
the error budget.  The sharpness sweeps drive the truncated family
``psi * max(eps, rho)^(-gamma)`` toward the origin and fit the Rayleigh
quotients by R = A + d/(L + b) in L = log(r/eps) through the three
smallest eps: exact on flat models, and close on curved ones.  A sweep
passes when its quotients decrease and the limit A lies within
``SWEEP_TOLERANCE`` of the sharp constant, approached from above (d > 0).

A report writes its integrands once, as named columns of a jet (u, F*(du),
rho, Delta u, the G^beta density), which ``_terms`` integrates on one of
two roads.  A ``models.RadialProfile`` reduces through the model's polar
reduction (``cp_constant`` x radial density) to one ``radial_integrate``
pass per report from rho = 0, split at the profile's breakpoints; the pass
calls the jet once on all its nodes and computes each power rho^p and
D(rho) once.  On a nonreversible model that reduction holds only where
f' <= 0, and every pass checks it on its own nodes.  Near the origin
every pass keeps the one rule of ``quadrature``: the power-law tail below
1e-12 times the first cut joins the value and the error, and a term that
diverges raises.  A sweep's one pass is cut at 0 and every eps; each row
sums the shells above its eps and the inner column's shells below it.
Scalar fields take one backward-polar annulus pass of a field jet (u,
F*(du), the sign-cased ``rho_u`` and the numeric Laplacian) on (m, K, n)
stacks of points, and need no sign rule: F*(du) is evaluated as it is.
Both roads read the G^beta density -Delta(rho^(-beta-2)) at the jet's
rho, and its point terms from one ``_point_read`` of u: on both roads u(0),
which gives the Green point mass at beta + 2 = n - 2 and is rejected when
nonzero above it; on the radial road also the flux jumps at a profile's
breakpoints (fields declare none).  The Rellich pair still needs a radial
profile.

Reports are independent and deterministic, so batteries and certificates
may be evaluated concurrently, but threads gain nothing: the GIL serializes
them, and two threads took ~15 ms for the ``hardy`` battery on
``RandersFlat(3, 0.45)`` against ~10 ms for one (medians of 40 rounds, 2
cores).  So batteries run serially.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import fields as fc
from .minkowski import MinkowskiNorm
from .models import (RadialProfile, cutoff_profile, profile_product,
                     truncated_profile)
from .quadrature import QuadratureSpec, annulus_integrate, radial_integrate, \
    radial_segments

# relative inner cutoff of the G^beta field road, whose numeric Laplacian
# takes an absolute flux step
GBETA_FIELD_FLOOR = 1e-6
GBETA_BAND = 1e-6        # kernel membership: |G^beta(u)| <= band * scale
SWEEP_TOLERANCE = 0.01   # a sweep's limit: within this share of the sharp one
# the refined Cauchy-Schwarz certificate's grid: angles a, b, c on [0, pi],
# ends included, and s = |eta|/|xi| on half decades from 1e-2 to 10
_CS_ANGLES = np.linspace(0.0, math.pi, 37)
_CS_AZIMUTHS = np.linspace(0.0, math.pi, 9)
_CS_RATIOS = np.logspace(-2.0, 1.0, 7)
# pairs per block of the certificate's scan: bounds its temporaries
_CS_BLOCK = 1 << 13


class PreconditionError(ValueError):
    """A report was requested outside its parameter domain."""


# ------------------------------------------------------------------ records
@dataclass(frozen=True)
class TermValue:
    value: float
    error: float

    def scaled(self, c: float) -> "TermValue":
        return TermValue(c * self.value, c * self.error)


_ZERO = TermValue(0.0, 0.0)


@dataclass
class InequalityReport:
    theorem: str
    model: str
    measure: str
    beta: float
    constants: dict
    terms: dict
    slack: float
    slack_tolerance: float
    passed: bool
    checks: dict = dc_field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweepRow:
    eps: float
    i1: float
    i2: float
    quotient: float
    j1_quadrature: float
    error: float


@dataclass
class SweepTable:
    theorem: str
    model: str
    measure: str
    beta: float
    constants: dict
    rows: list
    sharp_constant: float
    extrapolated: float
    gap_coefficient: float
    monotone: bool
    passed: bool = dc_field(init=False)

    def __post_init__(self) -> None:
        self.passed = self.monotone and self.limit_reached

    @property
    def limit_reached(self) -> bool:
        """The Moebius limit A lies within SWEEP_TOLERANCE of the sharp
        constant, approached from above (a positive gap coefficient d)."""
        return bool(abs(self.extrapolated - self.sharp_constant)
                    <= SWEEP_TOLERANCE * self.sharp_constant
                    and self.gap_coefficient > 0.0)


@dataclass
class CampaignSummary:
    drift: float
    dim: int
    pairs: int
    min_ratio: float
    argmin_params: list        # a, b, c, s of the pair that gives min_ratio
    argmin_xi: list
    argmin_eta: list
    min_slack: float
    min_scale: float
    drift_axis_max_dev: float
    colinear_max_dev: float
    case2_max_dev: float
    case3_margin: float
    passed: bool


# ---------------------------------------------------------- domains, constants
def hardy_domain(n: int, beta: float, what: str) -> None:
    """The Hardy family's domain n - 2 > beta; ``what`` names the theorem."""
    if not n - 2.0 > beta:
        raise PreconditionError(f"{what} needs n - 2 > beta, got n={n}, "
                                f"beta={beta}")


def rellich_domain(n: int, beta: float, what: str) -> None:
    """The Rellich family's domain -2 < beta < n - 4."""
    if not -2.0 < beta < n - 4.0:
        raise PreconditionError(f"{what} needs -2 < beta < n - 4, got n={n}, "
                                f"beta={beta}")


def gbeta_member(value: float, scale: float) -> bool:
    """Whether G^beta(u) = ``value`` lies in the kernel band of ``scale``."""
    return abs(value) <= GBETA_BAND * max(scale, 1e-300)


def hardy_gamma(n: int, beta: float) -> float:
    return 0.5 * (n - 2.0 - beta)


def rellich_gamma(n: int, beta: float) -> float:
    return 0.5 * (n - 4.0 - beta)


def rellich_sharp_constant(n: int, beta: float) -> float:
    return (n + beta) ** 2 * (n - 4.0 - beta) ** 2 / 16.0


def bv_constant(model) -> float:
    """The explicit Brezis-Vazquez constant |k| min(1, n-1)^2 / (4 lambda_F^2)
    (the reciprocal of the Poincare-type constant below); it checks the
    refined and Poincare-type forms' domain k < 0."""
    if not model.curvature < 0.0:
        raise PreconditionError(f"the refined and Poincare-type inequalities "
                                f"need k < 0, got k={model.curvature}")
    m = min(1.0, model.n - 1.0)
    return abs(model.curvature) * m * m / (4.0 * model.reversibility**2)


def poincare_constant(model) -> float:
    """(2 lambda_F / (sqrt(|k|) min(1, n-1)))^2."""
    return 1.0 / bv_constant(model)


# ----------------------------------------------------------- radial plumbing
def _require_radial(u) -> RadialProfile:
    if not isinstance(u, RadialProfile):
        raise PreconditionError("this report needs a radial test function")
    return u


class _Jet:
    """The readers both roads' jets share, each evaluated at most once per
    node set: every power rho^p and the comparison remainder D(rho).  The
    G^beta density ``varrho`` has one reader, the G^beta column."""

    model: object
    rho: np.ndarray

    @cached_property
    def _powers(self) -> dict[float, np.ndarray]:
        return {}

    def power(self, p: float) -> np.ndarray:
        """rho^p."""
        if p not in self._powers:
            self._powers[p] = self.rho ** p
        return self._powers[p]

    @cached_property
    def remainder(self) -> np.ndarray:
        """D(rho), the model's comparison remainder."""
        return self.model.comparison_remainder(self.rho)

    def varrho(self, beta: float) -> np.ndarray:
        """-Delta(rho^(-beta-2)) read at the jet's rho, the density of u^2
        in G^beta.  At field nodes rho is rho_u, so this is the sign-cased
        density: -Delta(rho_minus^(-beta-2)) where u > 0 and
        Delta(-rho_plus^(-beta-2)) where u < 0; where u = 0 the column's
        u^2 factor vanishes."""
        return -self.model.radial_laplacian(beta + 2.0, self.rho)


class _RadialJet(_Jet):
    """The profile jet at the radial nodes: rho, f, f' and f'' from one
    call of the profile's jet, and the radial Laplacian
    f'' + f' (n-1)(1 + D)/rho, D the cached remainder.  Every radial pass
    reads its profile here, so here is its one rule: F*(f' d rho_minus) =
    |f'| needs f' <= 0 when F*(d rho_minus) != F*(-d rho_minus) = 1, so on
    a nonreversible model a node with f' > 0 raises."""

    def __init__(self, model, prof: RadialProfile, rho: np.ndarray):
        self.model, self.rho = model, rho
        self.f, self.d1, self.d2 = prof.jet(rho, 2)
        if model.reversibility > 1.0 and np.any(self.d1 > 0.0):
            first = float(rho[self.d1 > 0.0].min())
            raise PreconditionError(
                f"the radial road on the nonreversible {model!r} needs "
                f"f' <= 0, but f' > 0 at rho = {first}")

    @cached_property
    def lap(self) -> np.ndarray:
        return self.d2 + self.d1 * ((self.model.n - 1) * (1.0 + self.remainder)
                                    / self.rho)


class _FieldJet(_Jet):
    """The same names at backward-polar nodes x of a scalar field: f = u,
    d1 = F*(du), rho = rho_u and the numeric Laplacian."""

    def __init__(self, model, measure: str, u: fc.ScalarField, x):
        self.model, self.measure, self.u, self.x = model, measure, u, x

    @cached_property
    def f(self) -> np.ndarray:
        return self.u(self.x)

    @cached_property
    def d1(self) -> np.ndarray:
        return self.model.conorm(self.x, fc.differential(self.u, self.x))

    @cached_property
    def rho(self) -> np.ndarray:
        return self.model.rho_u(np.sign(self.f), self.x)

    @cached_property
    def lap(self) -> np.ndarray:
        """Evaluated where u != 0 or F*(du) >= 1e-10; 0 elsewhere, where
        u Delta u vanishes, and at the critical points, which are excluded."""
        live = (self.f != 0.0) | (self.d1 >= 1e-10)
        lap = np.zeros_like(self.f)
        lap[live] = fc.numeric_laplacian(self.model, self.measure, self.u,
                                         self.x[live])
        return np.where(np.isnan(lap), 0.0, lap)


_Column = Callable[[_Jet], np.ndarray]


def _u2(p: float, remainder: bool = False) -> _Column:
    """f^2 rho^p, times the comparison remainder D(rho) with ``remainder``."""
    if not remainder:
        return lambda j: j.f ** 2 * j.power(p)
    return lambda j: j.f ** 2 * j.power(p) * j.remainder


def _du2(p: float) -> _Column:
    return lambda j: j.d1 ** 2 * j.power(p)


def _lap2(p: float) -> _Column:
    return lambda j: j.lap ** 2 * j.power(p)


def _radial_integrand(model, prof: RadialProfile,
                      columns: dict[str, _Column]
                      ) -> Callable[[np.ndarray], np.ndarray]:
    """The (M, T) table of every column(jet) times the radial density."""
    def integrand(rho: np.ndarray) -> np.ndarray:
        jet = _RadialJet(model, prof, rho)
        # column-major, so that each column and each pair sum of the
        # pass's tree runs over contiguous memory
        table = np.empty((len(columns), rho.size)).T
        for t, col in enumerate(columns.values()):
            table[:, t] = col(jet)
        table *= model.radial_volume_density(rho)[:, None]
        return table

    return integrand


def _radial_terms(model, measure: str, prof: RadialProfile,
                  columns: dict[str, _Column], spec: QuadratureSpec
                  ) -> tuple[np.ndarray, np.ndarray]:
    """cp * integral of every column(jet) * radial density over the support,
    and its error: one radial pass from rho = 0, split at the profile's
    breakpoints, each column summed exactly as a lone integrand would be."""
    hi = prof.support
    cuts = sorted({0.0, hi, *[b for b in prof.breakpoints if 0.0 < b < hi]})
    value, error = radial_integrate(_radial_integrand(model, prof, columns),
                                    cuts, spec)
    cp = model.cp_constant(measure)
    return cp * value, cp * error


def _field_terms(model, measure: str, u: fc.ScalarField,
                 columns: dict[str, _Column], spec: QuadratureSpec,
                 floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Integral of every column(field jet) over the backward-polar annulus
    (floor * hi, hi), and its error, in one ``annulus_integrate`` pass."""
    if u.support_radius is None:
        raise PreconditionError("scalar fields need a support_radius bound")
    hi = u.support_radius * model.reversibility

    def integrand(rr: np.ndarray, ww: np.ndarray) -> np.ndarray:
        jet = _FieldJet(model, measure, u,
                        model.point_from_backward_polar(rr, ww))
        return np.stack([col(jet) for col in columns.values()], axis=-1)

    return annulus_integrate(model, measure, integrand, floor * hi, hi, spec)


def _nonfinite(terms: dict[str, TermValue]) -> list[str]:
    """The names of the terms whose value or error is not finite."""
    return [k for k, t in terms.items()
            if not math.isfinite(t.value + t.error)]


def _terms(model, measure: str, u, columns: dict[str, _Column],
           spec: QuadratureSpec, field_floor: float = 0.0
           ) -> dict[str, TermValue]:
    """The columns' integrals on the radial road, or on the field road from
    ``field_floor * hi`` when u is a scalar field.  A non-finite one is an
    integral that diverges at the base point: an error, never a number."""
    if isinstance(u, RadialProfile):
        values, errors = _radial_terms(model, measure, u, columns, spec)
    else:
        values, errors = _field_terms(model, measure, u, columns, spec,
                                      field_floor)
    terms = {k: TermValue(float(v), float(e))
             for k, v, e in zip(columns, values, errors)}
    bad = _nonfinite(terms)
    if bad:
        raise PreconditionError(f"the integrals of {bad} diverge at the "
                                f"base point")
    return terms


def _report(theorem: str, model, measure: str, beta: float, constants: dict,
            terms: dict, slack: float, spec: QuadratureSpec
            ) -> InequalityReport:
    """A report passes when its slack is above minus the error budget: the
    summed term errors plus the spec tolerances.  A term that its constant
    made non-finite (a coefficient that overflows) is an error, never a
    number."""
    bad = _nonfinite(terms)
    if bad:
        raise PreconditionError(f"{theorem}: the terms {bad} are not finite")
    err = sum(t.error for t in terms.values())
    scale = max((abs(t.value) for t in terms.values()), default=1.0)
    tol = err + spec.abs_tol + spec.rel_tol * max(1.0, scale)
    return InequalityReport(theorem, repr(model), measure, beta, constants,
                            terms, slack, tol, slack >= -tol)


# ------------------------------------------------------------- hardy family
def _hardy_constants(model, beta: float, what: str) -> dict:
    n = model.n
    hardy_domain(n, beta, what)
    gam = hardy_gamma(n, beta)
    return {"n": n, "beta": beta, "gamma": gam,
            "main_coefficient": gam * gam,
            "remainder_coefficient": 0.5 * (n - 1.0) * (n - 2.0 - beta),
            "k": model.curvature, "lambda_F": model.reversibility,
            "Lambda_F": model.uniformity}


def _hardy_columns(model, beta: float) -> dict[str, _Column]:
    cols = {"lhs": _du2(-beta), "main": _u2(-2.0 - beta)}
    if model.curvature != 0.0:
        cols["remainder"] = _u2(-2.0 - beta, remainder=True)
    return cols


def _hardy_terms(constants: dict, raw: dict[str, TermValue]
                 ) -> dict[str, TermValue]:
    return {"lhs": raw["lhs"],
            "main": raw["main"].scaled(constants["main_coefficient"]),
            "remainder": raw.get("remainder", _ZERO).scaled(
                constants["remainder_coefficient"])}


def hardy_report(model, measure: str, u, beta: float,
                 spec: QuadratureSpec | None = None) -> InequalityReport:
    """The curvature-weighted Hardy inequality: gradient energy against the
    sharp ``(n-2-beta)^2/4`` term plus the comparison remainder term."""
    spec = spec or QuadratureSpec()
    constants = _hardy_constants(model, beta, "hardy")
    raw = _terms(model, measure, u, _hardy_columns(model, beta), spec)
    terms = _hardy_terms(constants, raw)
    slack = terms["lhs"].value - terms["main"].value - terms["remainder"].value
    return _report("hardy", model, measure, beta, constants, terms, slack,
                   spec)


def hardy_bv_report(model, measure: str, u, beta: float,
                    spec: QuadratureSpec | None = None) -> InequalityReport:
    """Refined Hardy inequality with the Brezis-Vazquez remainder
    (C/Lambda_F) * integral of u^2/rho_u^beta, for strictly negative k."""
    spec = spec or QuadratureSpec()
    constants = _hardy_constants(model, beta, "hardy-bv")
    cbv = bv_constant(model)
    coeff = cbv / model.uniformity
    raw = _terms(model, measure, u,
                 {**_hardy_columns(model, beta), "bv": _u2(-beta)}, spec)
    terms = _hardy_terms(constants, raw)
    terms["brezis_vazquez"] = raw["bv"].scaled(coeff)
    slack = terms["lhs"].value - terms["main"].value \
        - terms["remainder"].value - terms["brezis_vazquez"].value
    constants.update({"C": cbv, "bv_coefficient": coeff})
    return _report("hardy-bv", model, measure, beta, constants, terms, slack,
                   spec)


def poincare_report(model, measure: str, v,
                    spec: QuadratureSpec | None = None) -> InequalityReport:
    """Weighted Poincare-type inequality
    int v^2/rho^{n-2} <= (2 lambda_F/(sqrt(|k|) min(1,n-1)))^2
    int F^2(grad v)/rho^{n-2}; slack is RHS - LHS."""
    spec = spec or QuadratureSpec()
    c = poincare_constant(model)
    n = model.n
    raw = _terms(model, measure, v,
                 {"lhs": _u2(2.0 - n), "grad": _du2(2.0 - n)}, spec)
    terms = {"lhs": raw["lhs"], "gradient_side": raw["grad"].scaled(c)}
    slack = terms["gradient_side"].value - terms["lhs"].value
    constants = {"n": n, "k": model.curvature, "constant": c,
                 "lambda_F": model.reversibility}
    return _report("poincare", model, measure, 0.0, constants, terms, slack,
                   spec)


def uncertainty_report(model, measure: str, u, beta: float,
                       spec: QuadratureSpec | None = None) -> InequalityReport:
    """Uncertainty-principle corollary:
    sqrt(int rho^{2+beta} u^2) sqrt(int F^2(grad u)/rho^beta)
    >= ((n-2-beta)/2) int u^2."""
    spec = spec or QuadratureSpec()
    n = model.n
    hardy_domain(n, beta, "uncertainty")
    gam = hardy_gamma(n, beta)
    terms = _terms(model, measure, u,
                   {"weighted_mass": _u2(2.0 + beta),
                    "gradient_energy": _du2(-beta), "mass": _u2(0.0)}, spec)
    weighted, grad = terms["weighted_mass"], terms["gradient_energy"]
    lhs = math.sqrt(max(weighted.value, 0.0)) * math.sqrt(max(grad.value, 0.0))
    lhs_err = 0.0
    if weighted.value > 0.0 and grad.value > 0.0:
        lhs_err = 0.5 * lhs * (weighted.error / weighted.value
                               + grad.error / grad.value)
    terms["lhs_product"] = TermValue(lhs, lhs_err)
    terms["rhs"] = terms["mass"].scaled(gam)
    slack = lhs - terms["rhs"].value
    constants = {"n": n, "beta": beta, "coefficient": gam,
                 "k": model.curvature}
    return _report("uncertainty", model, measure, beta, constants, terms,
                   slack, spec)


# ----------------------------------------------------------- rellich family
def _point_read(model, u, beta: float) -> tuple[float, list[tuple]]:
    """What G^beta's point terms read of u, in one read: u(0) and, at each
    inner breakpoint b, (b, f(b), f'(b-), f'(b+)), each side at the double
    next to b.  A radial profile gives all of it from one jet call; a
    scalar field declares no breakpoints, and its u(0) is read only where
    a point term can need it, beta + 2 >= n - 2 (0 stands in elsewhere)."""
    need_u0 = beta + 2.0 >= model.n - 2.0 - 1e-12
    kinks, u0 = [], 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if isinstance(u, RadialProfile):
            bps = [b for b in u.breakpoints if 0.0 < b < u.support]
            f, d1 = u.jet(np.array([0.0, *[x for b in bps for x in (
                b, np.nextafter(b, 0.0), np.nextafter(b, np.inf))]]), 1)
            kinks = [(b, float(f[i]), float(d1[i + 1]), float(d1[i + 2]))
                     for b, i in zip(bps, range(1, f.size, 3))]
            u0 = float(f[0])
        elif need_u0:
            u0 = float(u(np.zeros(model.n)))
    if need_u0 and not math.isfinite(u0):
        raise PreconditionError(f"G^beta undefined: u(0) = {u0}")
    return u0, kinks


def _gbeta_columns(model, measure: str, beta: float, u0: float,
                   kinks: list[tuple]) -> tuple[dict[str, _Column], float]:
    """The two integrands of G^beta, u^2 varrho and 2 rho^{-beta-2}
    div(u grad u) = 2 rho^{-beta-2} (F*^2(du) + u Delta u), and the sum of
    its point terms, from the ``_point_read`` (u0, kinks)."""
    nn = beta + 2.0
    if u0 != 0.0 and nn > model.n - 2.0 + 1e-12:
        raise PreconditionError(
            "G^beta undefined: the profile is nonzero at the base "
            "point while beta + 2 exceeds n - 2")
    cp = model.cp_constant(measure)
    # Lipschitz kinks of the profile put a sphere-supported flux jump (of
    # the radial flux f f') into div(u grad u), read distributionally there
    point = cp * sum(2.0 * b ** (-nn) * fb * (above - below)
                     * float(model.radial_volume_density(np.array([b]))[0])
                     for b, fb, below, above in kinks if below != above)
    # at the marginal exponent beta + 2 = n - 2 the power rho^{-(n-2)}
    # is the Green kernel: its distributional Laplacian carries the
    # point mass -(n-2) cp u(0)^2 delta_p, which the classical one misses
    if abs(nn - (model.n - 2.0)) <= 1e-12:
        point += (model.n - 2.0) * cp * u0 * u0
    return {"gbeta_varrho": lambda j: j.f ** 2 * j.varrho(beta),
            "gbeta_div": lambda j: 2.0 * j.power(-nn)
            * (j.d1 ** 2 + j.f * j.lap)}, point


def _gbeta_value(raw: dict[str, TermValue], point: float
                 ) -> tuple[float, float, float]:
    """(value, scale, error) of G^beta: its columns plus ``point``."""
    t1, t2 = raw["gbeta_varrho"], raw["gbeta_div"]
    return (t1.value + t2.value + point, abs(t1.value) + abs(t2.value),
            t1.error + t2.error)


def gbeta(model, measure: str, u, beta: float,
          spec: QuadratureSpec | None = None) -> tuple[float, float, float]:
    """The admissibility functional
    G^beta(u) = int [u^2 varrho_{u,beta} + 2 rho_u^{-beta-2} div(u grad u)].

    Returns (value, scale, error) where scale is the sum of the absolute
    term integrals; membership in the kernel class is ``gbeta_member``.
    Any beta is accepted: only the Rellich reports need -2 < beta < n - 4.
    """
    spec = spec or QuadratureSpec()
    cols, point = _gbeta_columns(model, measure, beta,
                                 *_point_read(model, u, beta))
    raw = _terms(model, measure, u, cols, spec, GBETA_FIELD_FLOOR)
    return _gbeta_value(raw, point)


def _require_c1(kinks: list[tuple], what: str) -> None:
    """Reject a derivative jump at an inner breakpoint b, beyond rounding:
    Delta u then has a singular part on rho = b that (Delta u)^2 misses."""
    for bp, fval, below, above in kinks:
        if abs(above - below) > 1e-8 * (abs(fval) / bp + abs(below)
                                        + abs(above)):
            raise PreconditionError(f"{what} needs a C^1 profile; "
                                    f"f' jumps by {above - below:.3e} "
                                    f"at rho = {bp}")


def _rellich_remainder_coefficient(n: int, beta: float) -> float:
    """(n-1)(n-2)(n+beta)(n-4-beta)/4, both Rellich remainders' weight."""
    return (n - 1.0) * (n - 2.0) * (n + beta) * (n - 4.0 - beta) / 4.0


def _rellich_pass(what: str, model, measure: str, prof: RadialProfile,
                  beta: float, spec: QuadratureSpec, extra: dict[str, _Column]
                  ) -> tuple[dict[str, TermValue], float, float]:
    """One radial pass for G^beta, the Rellich core terms (lhs, weight4 and
    its remainder where their coefficients are nonzero) and ``extra``;
    raises unless the profile is C^1 and u is in the G^beta kernel."""
    u0, kinks = _point_read(model, prof, beta)
    _require_c1(kinks, what)
    cols, point = _gbeta_columns(model, measure, beta, u0, kinks)
    cols["lhs"] = _lap2(-beta)
    # both weight-4 coefficients vanish at beta = n - 4, where their
    # integrals diverge for f(0) != 0: those columns are left out
    if rellich_sharp_constant(model.n, beta) != 0.0:
        cols["weight4"] = _u2(-4.0 - beta)
        if model.curvature != 0.0:
            cols["weight4_rem"] = _u2(-4.0 - beta, remainder=True)
    raw = _terms(model, measure, prof, {**cols, **extra}, spec)
    gval, gscale, _gerr = _gbeta_value(raw, point)
    if not gbeta_member(gval, gscale):
        raise PreconditionError(
            f"G^beta(u) = {gval:.3e} exceeds the membership band "
            f"{GBETA_BAND:g} * {gscale:.3e}")
    return raw, gval, gscale


def rellich_report(model, measure: str, u, beta: float,
                   spec: QuadratureSpec | None = None) -> InequalityReport:
    """Sharp Rellich inequality for kernel-class test functions."""
    spec = spec or QuadratureSpec()
    n = model.n
    rellich_domain(n, beta, "rellich")
    raw, gval, gscale = _rellich_pass("rellich", model, measure,
                                      _require_radial(u), beta, spec, {})
    delta = rellich_sharp_constant(n, beta)
    c_rem = _rellich_remainder_coefficient(n, beta)
    terms = {"lhs": raw["lhs"], "main": raw["weight4"].scaled(delta),
             "remainder": raw.get("weight4_rem", _ZERO).scaled(c_rem)}
    slack = terms["lhs"].value - terms["main"].value - terms["remainder"].value
    constants = {"n": n, "beta": beta, "gamma": rellich_gamma(n, beta),
                 "delta": delta, "remainder_coefficient": c_rem,
                 "k": model.curvature, "gbeta_value": gval,
                 "gbeta_scale": gscale}
    return _report("rellich", model, measure, beta, constants, terms, slack,
                   spec)


def rellich_bv_report(model, measure: str, u, beta: float,
                      spec: QuadratureSpec | None = None) -> InequalityReport:
    """Refined Rellich inequality with three Brezis-Vazquez style remainders,
    plus the intermediate square-completion inequality as an internal check."""
    spec = spec or QuadratureSpec()
    n = model.n
    if not 0.0 <= beta < n - 2.0:
        raise PreconditionError(f"refined rellich needs 0 <= beta < n - 2, "
                                f"got n={n}, beta={beta}")
    cbv = bv_constant(model)
    prof = _require_radial(u)
    lam = model.uniformity
    delta = rellich_sharp_constant(n, beta)
    c_rem4 = _rellich_remainder_coefficient(n, beta)
    c_w2 = (n - 2.0 - beta) * (n - 2.0 + beta) * cbv / (2.0 * lam)
    c_w2_rem = (n - 1.0) * (n - 2.0) * cbv / lam
    c_w0 = cbv * cbv / (lam * lam)
    # intermediate inequality (beta < n - 4): completed-square energy
    # bounded by the Rellich excess minus the first-order remainder
    q = (n + beta) * (n - 4.0 - beta) / 4.0
    extra = {"w2": _u2(-2.0 - beta),
             "w2_rem": _u2(-2.0 - beta, remainder=True), "w0": _u2(-beta)}
    if beta < n - 4.0:
        extra["de1"] = lambda j: (j.lap + q * j.f / j.power(2.0)) ** 2 * \
            j.power(-beta)
    raw, gval, gscale = _rellich_pass("refined rellich", model, measure,
                                      prof, beta, spec, extra)
    terms = {
        "lhs": raw["lhs"],
        "main": raw.get("weight4", _ZERO).scaled(delta),
        "remainder4": raw.get("weight4_rem", _ZERO).scaled(c_rem4),
        "weight2": raw["w2"].scaled(c_w2),
        "weight2_remainder": raw["w2_rem"].scaled(c_w2_rem),
        "weight0": raw["w0"].scaled(c_w0),
    }
    slack = terms["lhs"].value - sum(t.value for k, t in terms.items()
                                     if k != "lhs")
    constants = {"n": n, "beta": beta, "delta": delta, "C": cbv,
                 "Lambda_F": lam, "k": model.curvature,
                 "coeff_remainder4": c_rem4, "coeff_weight2": c_w2,
                 "coeff_weight2_remainder": c_w2_rem, "coeff_weight0": c_w0,
                 "gbeta_value": gval, "gbeta_scale": gscale}
    rep = _report("rellich-bv", model, measure, beta, constants, terms, slack,
                  spec)
    if "de1" in raw:
        tol = rep.slack_tolerance
        de1_lhs = raw["de1"].value
        de1_rhs = (raw["lhs"].value - delta * raw["weight4"].value
                   - c_rem4 * raw["weight4_rem"].value
                   - 2.0 * q * cbv / lam * raw["w2"].value)
        rep.checks.update({"de1_lhs": de1_lhs, "de1_rhs": de1_rhs,
                           "de1_ok": bool(-tol <= de1_lhs <= de1_rhs + tol)})
        rep.passed = rep.passed and rep.checks["de1_ok"]
    return rep


# ------------------------------------------------------------------- sweeps
def _suffix_sums(a: np.ndarray) -> np.ndarray:
    """a[s] + a[s + 1] + ... for every s, added from the last entry inward."""
    return np.cumsum(a[::-1], axis=0)[::-1]


def _truncated_family_integrals(model, measure: str, gamma: float,
                                energy: _Column, weight: float,
                                eps_arr: np.ndarray, r: float, R: float,
                                spec: QuadratureSpec
                                ) -> tuple[np.ndarray, ...]:
    """(I1, I2, J1, error) arrays for u = psi * max(eps, rho)^(-gamma), one
    entry per eps of the decreasing ``eps_arr``, from one radial pass.

    ``energy`` is the column of the quotient's numerator and ``weight`` the
    power of its mass u^2 rho^(-weight), both at the sweep's own beta.
    Above its eps every member is psi * rho^(-gamma), so a row sums the
    shells above its eps of one pass of the smallest-eps profile, cut at 0,
    every eps, r and R: the energy (I1), the mass (I2) and rho^(-n) on
    (min eps, r), as it diverges at 0 (J1), with the shells' error
    estimates.  Inside eps u = eps^(-gamma): a row's inner ball is
    eps^(-2 gamma) times one more column, rho^(-weight), below eps.
    """
    n = model.n
    cp = model.cp_constant(measure)
    cuts = [0.0, *eps_arr[::-1], r, R]
    prof = truncated_profile(gamma, eps_arr[-1], r, R)
    columns = {"energy": energy, "mass": _u2(-weight),
               "j1": lambda j: j.power(-n) * (j.rho >= eps_arr[-1]),
               "inner": lambda j: j.power(-weight)}
    values, errors = radial_segments(_radial_integrand(model, prof, columns),
                                     cuts, spec)
    values, errors = cp * values, cp * errors
    first = len(cuts) - 3 - np.arange(eps_arr.size)   # the shell above eps
    above, err_above = _suffix_sums(values)[first], _suffix_sums(errors)[first]
    j1 = _suffix_sums(values[:-1, 2])[first]           # (eps, r) only
    inner, inner_err = (np.cumsum(a[:, 3])[first - 1]
                        for a in (values, errors))
    scale = eps_arr ** (-2.0 * gamma)
    i2 = scale * inner + above[:, 1]
    error = err_above[:, 0] + err_above[:, 1] + scale * inner_err
    return above[:, 0], i2, j1, error


def _extrapolate_moebius(ls: np.ndarray, quotients: np.ndarray
                         ) -> tuple[float, float]:
    """Three-point rational fit R = A + d/(L + b) on the smallest epsilons:
    the limit A and the gap coefficient d.  Three points on a line have no
    limit; they give (r3, 0), which no sweep passes on."""
    l1, l2, l3 = ls[-3:]
    r1, r2, r3 = quotients[-3:]
    p = (l2 - l1) / (r1 - r2)
    q = (l3 - l2) / (r2 - r3)
    if p == q:
        return float(r3), 0.0
    b = (q * l1 - p * l3) / (p - q)
    d = (l1 + b) * (l2 + b) / p
    return float(r1 - d / (l1 + b)), float(d)


def _sharpness_sweep(model, measure: str, beta: float, r: float, R: float,
                     eps_list: Sequence[float], spec: QuadratureSpec,
                     order: int) -> SweepTable:
    n = model.n
    if order == 1:
        theorem = "hardy-sweep"
        hardy_domain(n, beta, theorem)
        gamma = hardy_gamma(n, beta)
        sharp = gamma * gamma
        energy, weight = _du2(-beta), 2.0 + beta
    else:
        theorem = "rellich-sweep"
        rellich_domain(n, beta, theorem)
        gamma = rellich_gamma(n, beta)
        sharp = rellich_sharp_constant(n, beta)
        energy, weight = _lap2(-beta), 4.0 + beta
    eps_arr = np.asarray(sorted(set(float(e) for e in eps_list), reverse=True))
    if not (all(0.0 < e < r for e in eps_arr) and r < R):
        raise PreconditionError(f"{theorem} needs 0 < eps < r < R, got "
                                f"eps={eps_arr.tolist()}, r={r}, R={R}")
    if eps_arr.size < 3:
        raise PreconditionError("the sweep needs at least three distinct eps "
                                "values to extrapolate")

    cp = model.cp_constant(measure)
    i1s, i2s, j1s, errs = _truncated_family_integrals(
        model, measure, gamma, energy, weight, eps_arr, r, R, spec)
    quotients = i1s / i2s
    rows = [SweepRow(float(eps), float(i1), float(i2), float(q), float(j1),
                     float(err))
            for eps, i1, i2, q, j1, err
            in zip(eps_arr, i1s, i2s, quotients, j1s, errs)]
    limit, gap = _extrapolate_moebius(np.log(r / eps_arr), quotients)
    monotone = bool(np.all(np.diff(quotients) < 0.0))
    constants = {"n": n, "beta": beta, "gamma": gamma, "r": r, "R": R,
                 "cp": cp, "k": model.curvature}
    return SweepTable(theorem, repr(model), measure, beta, constants,
                      rows, sharp, limit, gap, monotone)


def hardy_sharpness_sweep(model, measure: str, beta: float, r: float,
                          R: float, eps_list: Sequence[float],
                          spec: QuadratureSpec | None = None) -> SweepTable:
    """Rayleigh quotients of the truncated family converging to the sharp
    Hardy constant (n-2-beta)^2/4; each row carries the annulus mass J1 of
    rho^(-n) on (eps, r)."""
    return _sharpness_sweep(model, measure, beta, r, R, eps_list,
                            spec or QuadratureSpec(), 1)


def rellich_sharpness_sweep(model, measure: str, beta: float, r: float,
                            R: float, eps_list: Sequence[float],
                            spec: QuadratureSpec | None = None) -> SweepTable:
    """Rayleigh quotients converging to the sharp Rellich constant
    (n+beta)^2 (n-4-beta)^2/16; on the flat models the curvature correction
    vanishes and the limit is exact."""
    return _sharpness_sweep(model, measure, beta, r, R, eps_list,
                            spec or QuadratureSpec(), 2)


# ----------------------------------------------------------------- campaign
def _reduced_pair(dim: int, a, b, c, s) -> tuple[np.ndarray, np.ndarray]:
    """xi = (sin a, 0, cos a), eta = s (sin b cos c, sin b sin c, cos b) in
    span(e_1, e_2, e_dim) over the broadcast parameters; at dim 2 eta has no
    e_2 part, and c = 0 or pi gives the sign of its e_1 part."""
    xi = np.zeros(np.shape(a) + (dim,))
    xi[..., 0], xi[..., -1] = np.sin(a), np.cos(a)
    eta = np.zeros(np.broadcast_shapes(*map(np.shape, (b, c, s))) + (dim,))
    eta[..., 0], eta[..., -1] = s * np.sin(b) * np.cos(c), s * np.cos(b)
    if dim > 2:
        eta[..., 1] = s * np.sin(b) * np.sin(c)
    return xi, eta


def refined_cs_campaign(norm: MinkowskiNorm) -> CampaignSummary:
    """Certificate of the sharpened Cauchy-Schwarz inequality F*^2(xi+eta)
    >= F*^2(xi) + 2 g*_xi(xi, eta) + F*^2(eta)/Lambda_F and of its constant.

    The slack is 2-homogeneous and invariant under rotations about the drift
    axis, so the ``_reduced_pair`` grid of the ``_CS_*`` nodes (c at its ends
    at n = 2) in R^min(n, 3) stands for every pair, at a cost that does not
    depend on n; it is scanned in whole rows of a, about ``_CS_BLOCK``
    pairs per call.  The smallest ratio
    (slack + F*^2(eta)/Lambda_F)/F*^2(eta) is 1/Lambda_F, where the slack
    vanishes on the drift axis: xi = -e_n, eta = s e_n, 0 < s <= 1, mirrored
    for a negative drift.  Fixed grids also check that axis segment, the
    colinear identities and segment convexity.
    """
    n, lam = norm.dim, norm.uniformity()
    dim = min(n, 3)
    red = MinkowskiNorm(dim, norm.drift)
    grid = np.ix_(_CS_ANGLES, _CS_ANGLES,
                  _CS_AZIMUTHS if n > 2 else _CS_AZIMUTHS[[0, -1]], _CS_RATIOS)
    xi, eta = _reduced_pair(dim, *grid)
    fs_eta = red.dual_norm(eta) ** 2
    rows = max(1, _CS_BLOCK // fs_eta.size)
    best = low = (math.inf,)
    for r0 in range(0, xi.shape[0], rows):
        blk = xi[r0:r0 + rows]
        slack = red.refined_cs_slack(blk, eta)
        excess = slack / fs_eta             # the ratio minus 1/Lambda_F
        scale = np.maximum(1.0, red.dual_norm(blk + eta) ** 2)
        i, j = int(np.argmin(excess)), int(np.argmin(slack / scale))
        # a tie goes to the first pair in row-major order
        best = min(best, (excess.flat[i], r0 * fs_eta.size + i))
        low = min(low, (slack.flat[j] / scale.flat[j],
                        r0 * fs_eta.size + j, slack.flat[j], scale.flat[j]))
    at = np.unravel_index(best[1], [g.size for g in grid])
    arg = [float(g.flat[k]) for g, k in zip(grid, at)]
    argmin_xi, argmin_eta = _reduced_pair(n, *arg)

    # the equality segment: xi on the drift axis's short side, eta = -s xi
    e_n = math.copysign(1.0, norm.drift) * np.eye(dim)[-1]
    x0, e0 = -e_n, _CS_RATIOS[_CS_RATIOS <= 1.0, None] * e_n
    axis_dev = float(np.max(np.abs(red.refined_cs_slack(x0, e0)) / np.maximum(
        red.dual_norm(x0) ** 2, red.dual_norm(e0) ** 2)))

    # colinear-positive tightness: slack(xi, s xi) = s^2 F*^2(xi) (1 - 1/Lam)
    u, s = xi.reshape(-1, dim), _CS_RATIOS[:, None]
    tight = red.refined_cs_slack(u, s[..., None] * u)
    colinear_dev = float(np.max(np.abs(
        tight - s**2 * red.dual_norm(u) ** 2 * (1.0 - 1.0 / lam))))

    # colinear-negative closed form (eta = -kappa xi, kappa = 1 + s,
    # F*(-xi) <= F*(xi)): slack/F*^2(xi) = (2kappa-1)
    #   + ((kappa-1)^2 - kappa^2/Lam) F*^2(-xi)/F*^2(xi)
    u = np.where((red.dual_norm(-u) > red.dual_norm(u))[:, None], -u, u)
    got = red.refined_cs_slack(u, -(1.0 + s[..., None]) * u)
    f_p, f_m = red.dual_norm(u) ** 2, red.dual_norm(-u) ** 2
    want = f_p * (2.0 * s + 1.0) + (s**2 - (1.0 + s) ** 2 / lam) * f_m
    case2_dev = float(np.max(np.abs(got - want)
                             / np.maximum(1.0, np.abs(want))))

    # segment convexity: f''(t) = 2 g*_{xi+t eta}(eta, eta) >= 2 F*^2(eta)/Lam
    # at 9 nodes t in [0, 1] on a coarser grid, whose segments keep 0.25 away
    # from the origin
    xs, es = xi[::9, ..., None, :], eta[:, ::9, :, ::3, None, :]
    seg = xs + np.linspace(0.0, 1.0, 9)[:, None] * es
    margin = float(np.min(2.0 * red.dual_fundamental_form(seg, es, es)
                          - 2.0 * red.dual_norm(es) ** 2 / lam))

    ratio = float(best[0]) + 1.0 / lam
    min_slack, min_scale = float(low[2]), float(low[3])
    return CampaignSummary(
        drift=norm.drift, dim=n, pairs=xi.shape[0] * fs_eta.size,
        min_ratio=ratio, argmin_params=arg,
        argmin_xi=[float(v) for v in argmin_xi],
        argmin_eta=[float(v) for v in argmin_eta],
        min_slack=min_slack, min_scale=min_scale, drift_axis_max_dev=axis_dev,
        colinear_max_dev=colinear_dev, case2_max_dev=case2_dev,
        case3_margin=margin,
        passed=bool(min_slack >= -1e-10 * min_scale
                    and abs(ratio * lam - 1.0) <= 1e-6 and axis_dev <= 1e-10
                    and colinear_dev <= 1e-10 and case2_dev <= 1e-9
                    and margin >= -1e-9))


# ---------------------------------------------------------------- batteries
def _gauss_profile(a: float, support: float) -> RadialProfile:
    def jet(rho: np.ndarray, order: int = 2) -> tuple:
        rho = np.asarray(rho)
        rho2 = rho ** 2
        e = np.exp(-a * rho2)
        return (e, -2.0 * a * rho * e,
                (4.0 * a * a * rho2 - 2.0 * a) * e)[:order + 1]

    return RadialProfile.from_jet(jet, support, label=f"gauss[{a}]")


def _expdec_profile(a: float, support: float) -> RadialProfile:
    def jet(rho: np.ndarray, order: int = 2) -> tuple:
        e = np.exp(-a * np.asarray(rho))
        return (e, -a * e, a * a * e)[:order + 1]

    return RadialProfile.from_jet(jet, support, label=f"exp[{a}]")


def _lorentz_profile(q: float, support: float) -> RadialProfile:
    def jet(rho: np.ndarray, order: int = 2) -> tuple:
        rho = np.asarray(rho)
        rho2 = rho ** 2
        base = 1.0 + rho2
        p1 = base ** (-q - 1.0)
        return (base ** (-q), -2.0 * q * rho * p1,
                -2.0 * q * p1 + 4.0 * q * (q + 1.0) * rho2
                * base ** (-q - 2.0))[:order + 1]

    return RadialProfile.from_jet(jet, support, label=f"lorentz[{q}]")


def vanishing_at_origin(prof: RadialProfile) -> RadialProfile:
    """rho^2 times ``prof``: f and f' vanish at the base point, so G^beta
    is defined for beta + 2 > n - 2.  It rises near 0, so only the
    reversible models take it."""
    def square(rho: np.ndarray, order: int = 2) -> tuple:
        rho = np.asarray(rho)
        return (rho * rho, 2.0 * rho, np.full_like(rho, 2.0))[:order + 1]

    return profile_product(prof, RadialProfile.from_jet(
        square, prof.support, label="rho^2"))


def radial_battery(count: int, radius: float = 1.0) -> list[RadialProfile]:
    """A deterministic family of smooth, nonnegative, nonincreasing,
    compactly supported radial profiles (cutoffs times decaying modifiers)."""
    out = []
    for i in range(count):
        frac = i / max(count - 1, 1)
        r_i = radius * (0.25 + 0.35 * frac)
        big_r = radius * (0.65 + 0.35 * frac)
        base = cutoff_profile(r_i, big_r)
        kind = i % 4
        if kind == 0:
            prof = base
        elif kind == 1:
            prof = profile_product(base, _gauss_profile(0.5 + frac, big_r))
        elif kind == 2:
            prof = profile_product(base, _expdec_profile(0.4 + frac, big_r))
        else:
            prof = profile_product(base, _lorentz_profile(1.0 + frac, big_r))
        out.append(prof)
    return out
