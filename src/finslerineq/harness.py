"""Term-by-term evaluation of the Hardy/Rellich-type inequality functionals.

Each report reports every integral of one inequality instance as its own
term with its own error, records the constants in play, and exposes
``slack = LHS - sum(RHS terms)`` together with the quadrature error budget;
an inequality "passes" when the slack is above minus that budget.  The
sharpness sweeps drive the truncated radial family
``psi * max(eps, rho)^(-gamma)`` toward the origin and extrapolate the
Rayleigh quotients; on the flat models the quotient is an exactly Moebius
function of ``log(r/eps)``, which the structured extrapolator exploits, and
the three-point Moebius fit, which also holds on curved models, decides
whether a sweep passes.

A report writes its integrands once, as a table of named columns of a jet
(u, F*(du), rho, Delta u, the G^beta density), which ``_terms`` integrates
on one of two roads.  Radial inputs reduce through the model's polar
reduction (``cp_constant`` x radial density) to one ``radial_integrate``
pass per report, split at the profile's breakpoints, which evaluates the
profile jet once on the nodes of every segment; a sweep's one pass is cut
at every eps, and each row sums its ``radial_segments`` shells above its
eps.  Scalar fields take one backward-polar annulus pass of a field
jet that evaluates u, F*(du), the sign-cased distance ``rho_u`` and the
numeric Laplacian once per node set: the points of a block of radial
nodes (m, 1) against the sphere directions (K, n), an (m, K, n) stack, so
every column comes out (m, K).  Both roads read the G^beta density
-Delta(rho^(-beta-2)) at the jet's rho, which on the field road is rho_u.
The Hardy, Brezis-Vazquez Hardy, Poincare and uncertainty reports and
``gbeta`` accept a ``fields.ScalarField``; the Rellich pair stays radial,
because its G^beta membership gate needs the distributional terms (flux
jumps, the Green point mass) that only the radial road reads so far.

Reports are independent of one another and deterministic, so batteries and
campaigns may be evaluated concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import fields as fc
from .minkowski import MinkowskiNorm
from .models import (RadialProfile, RadialTestFunction, SmoothCutoff,
                     cutoff_profile, profile_product)
from .quadrature import QuadratureSpec, annulus_integrate, power_integral, \
    radial_integrate, radial_segments

RADIAL_FLOOR = 1e-12     # relative inner cutoff for integrals reaching rho=0
# relative inner cutoff of the G^beta field road, whose numeric Laplacian
# takes an absolute flux step
GBETA_FIELD_FLOOR = 1e-6
GBETA_BAND = 1e-6        # kernel membership: |G^beta(u)| <= band * scale


class PreconditionError(ValueError):
    """A report was requested outside its parameter domain."""


# ------------------------------------------------------------------ records
@dataclass(frozen=True)
class TermValue:
    value: float
    error: float

    def as_dict(self) -> dict:
        return {"value": self.value, "error": self.error}

    def scaled(self, c: float) -> "TermValue":
        return TermValue(c * self.value, c * self.error)


_ZERO = TermValue(0.0, 0.0)


def _record_dict(record, **converted) -> dict:
    """Every field of a record dataclass, with ``converted`` replacing some."""
    out = {f.name: getattr(record, f.name) for f in dc_fields(record)}
    out.update(converted)
    return out


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
        return _record_dict(
            self, constants=dict(self.constants), checks=dict(self.checks),
            terms={k: v.as_dict() for k, v in self.terms.items()})


@dataclass
class SweepRow:
    eps: float
    i1: float
    i2: float
    quotient: float
    j1_quadrature: float
    j1_exact: float
    error: float

    def as_dict(self) -> dict:
        exact = self.j1_exact if math.isfinite(self.j1_exact) else None
        return _record_dict(self, j1_exact=exact)


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
    extrapolated_moebius: float
    gap_coefficient: float
    monotone: bool
    passed: bool

    def as_dict(self) -> dict:
        return _record_dict(self, constants=dict(self.constants),
                            rows=[r.as_dict() for r in self.rows])


@dataclass
class CampaignSummary:
    drift: float
    dim: int
    samples: int
    min_slack: float
    min_scale: float
    argmin_xi: list
    argmin_eta: list
    histogram_counts: list
    histogram_edges: list
    colinear_max_dev: float
    case2_max_dev: float
    case3_margin: float
    passed: bool

    def as_dict(self) -> dict:
        return _record_dict(self)


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
def _as_radial(u) -> RadialProfile | None:
    """The profile of a radial input (a test function or a profile)."""
    if isinstance(u, RadialTestFunction):
        return u.profile()
    if isinstance(u, RadialProfile):
        return u
    return None


def _require_radial(u) -> RadialProfile:
    prof = _as_radial(u)
    if prof is None:
        raise PreconditionError("this report needs a radial test function")
    return prof


class _Jet:
    """The profile jet at the radial nodes: rho, f, f' and the radial
    Laplacian f'' + f' (n-1) s'/s, each evaluated at most once; the G^beta
    density ``varrho`` has one reader, the G^beta column."""

    def __init__(self, model, prof: RadialProfile, rho):
        self.model, self.prof = model, prof
        self.rho = rho

    @cached_property
    def f(self) -> np.ndarray:
        return self.prof.f(self.rho)

    @cached_property
    def d1(self) -> np.ndarray:
        return self.prof.d1(self.rho)

    @cached_property
    def lap(self) -> np.ndarray:
        return self.prof.d2(self.rho) + self.d1 * \
            np.asarray(self.model.radial_mean_curvature(self.rho))

    def varrho(self, beta: float) -> np.ndarray:
        """-Delta(rho^(-beta-2)) read at the jet's rho, the density of u^2
        in G^beta.  At field nodes rho is rho_u, so this is the sign-cased
        density: -Delta(rho_minus^(-beta-2)) where u > 0 and
        Delta(-rho_plus^(-beta-2)) where u < 0; where u = 0 the column's
        u^2 factor vanishes."""
        return -np.asarray(self.model.radial_laplacian(beta + 2.0, self.rho))


class _FieldJet(_Jet):
    """The same names at backward-polar nodes x of a scalar field: f = u,
    d1 = F*(du), rho = rho_u and the numeric Laplacian; ``varrho`` is the
    radial one, read at rho_u."""

    def __init__(self, model, measure: str, u: fc.ScalarField, x):
        self.model, self.measure, self.u, self.x = model, measure, u, x

    @cached_property
    def f(self) -> np.ndarray:
        return self.u(self.x)

    @cached_property
    def d1(self) -> np.ndarray:
        return np.asarray(self.model.conorm(self.x,
                                            fc.differential(self.u, self.x)))

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


def _u2(p: float, model=None) -> _Column:
    """f^2 rho^p, times the comparison remainder D(rho) when a model is given."""
    if model is None:
        return lambda j: j.f ** 2 * j.rho ** p
    return lambda j: j.f ** 2 * j.rho ** p * model.comparison_remainder(j.rho)


def _du2(p: float) -> _Column:
    return lambda j: j.d1 ** 2 * j.rho ** p


def _lap2(p: float) -> _Column:
    return lambda j: j.lap ** 2 * j.rho ** p


def _radial_integrand(model, prof: RadialProfile,
                      columns: dict[str, _Column]
                      ) -> Callable[[np.ndarray], np.ndarray]:
    """The (M, T) table of every column(jet) times the radial density."""
    def integrand(rho: np.ndarray) -> np.ndarray:
        jet = _Jet(model, prof, rho)
        cols = np.stack([col(jet) for col in columns.values()], axis=-1)
        return cols * model.radial_volume_density(rho)[:, None]

    return integrand


def _radial_terms(model, measure: str, prof: RadialProfile,
                  columns: dict[str, _Column], spec: QuadratureSpec
                  ) -> dict[str, TermValue]:
    """cp * integral of every column(jet) * radial density over the support.

    All columns share one radial pass, split at the profile's breakpoints,
    each summed exactly as a lone integrand would be.  The pass starts at a
    floor tiny enough that the omitted mass of every integrable report
    integrand is below the error budget.
    """
    hi = prof.support
    lo = RADIAL_FLOOR * hi
    cuts = sorted({lo, hi, *[b for b in prof.breakpoints if lo < b < hi]})
    value, error = radial_integrate(_radial_integrand(model, prof, columns),
                                    cuts, spec)
    cp = model.cp_constant(measure)
    return {k: TermValue(float(cp * value[i]), float(cp * error[i]))
            for i, k in enumerate(columns)}


def _field_terms(model, measure: str, u: fc.ScalarField,
                 columns: dict[str, _Column], spec: QuadratureSpec,
                 floor: float) -> dict[str, TermValue]:
    """Integral of every column(field jet) over the backward-polar annulus
    (floor * hi, hi), all columns in one ``annulus_integrate`` pass."""
    if u.support_radius is None:
        raise PreconditionError("scalar fields need a support_radius bound")
    hi = u.support_radius * model.reversibility
    names = list(columns)

    def integrand(rr: np.ndarray, ww: np.ndarray) -> np.ndarray:
        jet = _FieldJet(model, measure, u,
                        model.point_from_backward_polar(rr, ww))
        return np.stack([columns[k](jet) for k in names], axis=-1)

    values, errors = annulus_integrate(model, measure, integrand, floor * hi,
                                       hi, spec)
    return {k: TermValue(float(values[i]), float(errors[i]))
            for i, k in enumerate(names)}


def _terms(model, measure: str, u, columns: dict[str, _Column],
           spec: QuadratureSpec, field_floor: float = RADIAL_FLOOR
           ) -> dict[str, TermValue]:
    """The columns' integrals on the radial road, or on the field road from
    ``field_floor * hi`` when u is a scalar field."""
    prof = _as_radial(u)
    if prof is None:
        return _field_terms(model, measure, u, columns, spec, field_floor)
    return _radial_terms(model, measure, prof, columns, spec)


def _report(theorem: str, model, measure: str, beta: float, constants: dict,
            terms: dict, slack: float, spec: QuadratureSpec
            ) -> InequalityReport:
    """A report passes when its slack is above minus the error budget: the
    summed term errors plus the spec tolerances."""
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
        cols["remainder"] = _u2(-2.0 - beta, model)
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
    if model.curvature > 0.0:
        raise PreconditionError("uncertainty corollary needs K <= 0")
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
def _gbeta_columns(prof: RadialProfile | None,
                   beta: float) -> dict[str, _Column]:
    """The two integrands of G^beta: u^2 varrho and 2 rho^{-beta-2}
    div(u grad u) = 2 rho^{-beta-2} (F*^2(du) + u Delta u)."""
    if prof is not None and not prof.nonincreasing:
        raise PreconditionError("radial G^beta path expects a "
                                "nonincreasing profile")
    nn = beta + 2.0
    return {"gbeta_varrho": lambda j: j.f ** 2 * j.varrho(beta),
            "gbeta_div": lambda j: 2.0 * j.rho ** (-nn)
            * (j.d1 ** 2 + j.f * j.lap)}


def _gbeta_value(model, measure: str, prof: RadialProfile | None,
                 beta: float, raw: dict[str, TermValue]
                 ) -> tuple[float, float, float]:
    """(value, scale, error) of G^beta from the integrals of its columns,
    plus the distributional terms of a radial profile (the field road reads
    none yet)."""
    t1, t2 = raw["gbeta_varrho"], raw["gbeta_div"]
    value = t1.value + t2.value
    if prof is not None:
        nn = beta + 2.0
        hi = prof.support
        # Lipschitz kinks of the profile put a sphere-supported flux jump
        # into div(u grad u); the divergence is read distributionally there
        value += _profile_flux_jump(model, measure, prof, nn, hi)
        # at the marginal exponent beta + 2 = n - 2 the power rho^{-(n-2)}
        # is the Green kernel: its distributional Laplacian carries the
        # point mass -(n-2) cp delta_p, which the classical formula misses
        f0 = float(prof.f(np.array([RADIAL_FLOOR * hi]))[0])
        if f0 != 0.0:
            if nn > model.n - 2.0 + 1e-12:
                raise PreconditionError(
                    "G^beta undefined: the profile is nonzero at the base "
                    "point while beta + 2 exceeds n - 2")
            if abs(nn - (model.n - 2.0)) <= 1e-12:
                value += (model.n - 2.0) * model.cp_constant(measure) * \
                    f0 * f0
    scale = abs(t1.value) + abs(t2.value)
    return value, scale, t1.error + t2.error


def gbeta(model, measure: str, u, beta: float,
          spec: QuadratureSpec | None = None) -> tuple[float, float, float]:
    """The admissibility functional
    G^beta(u) = int [u^2 varrho_{u,beta} + 2 rho_u^{-beta-2} div(u grad u)].

    Returns (value, scale, error) where scale is the sum of the absolute
    term integrals; membership in the kernel class is ``gbeta_member``.
    Any beta is accepted: only the Rellich reports need -2 < beta < n - 4.
    """
    spec = spec or QuadratureSpec()
    prof = _as_radial(u)
    raw = _terms(model, measure, u, _gbeta_columns(prof, beta), spec,
                 GBETA_FIELD_FLOOR)
    return _gbeta_value(model, measure, prof, beta, raw)


def _profile_flux_jump(model, measure: str, prof: RadialProfile, nn: float,
                       hi: float) -> float:
    """Interface contribution of 2 rho^{-nn} div(u grad u) across the radial
    spheres where the profile derivative jumps (the radial flux is f f')."""
    cp = model.cp_constant(measure)
    total = 0.0
    for bp, below, above in _d1_sides(prof, hi):
        if below == above:
            continue
        fval = float(prof.f(np.array([bp]))[0])
        w = float(model.radial_volume_density(np.array([bp]))[0])
        total += 2.0 * bp ** (-nn) * fval * (above - below) * w
    return cp * total


def _d1_sides(prof: RadialProfile, hi: float):
    """(b, f'(b-), f'(b+)) at every breakpoint b in (0, hi), each side read
    at the double next to b."""
    for bp in prof.breakpoints:
        if 0.0 < bp < hi:
            yield bp, *(float(prof.d1(np.array([np.nextafter(bp, side)]))[0])
                        for side in (0.0, np.inf))


def _require_c1(prof: RadialProfile) -> None:
    """Reject a derivative jump at an inner breakpoint b, beyond rounding:
    Delta u then has a singular part on rho = b that (Delta u)^2 misses."""
    for bp, below, above in _d1_sides(prof, prof.support):
        fval = float(prof.f(np.array([bp]))[0])
        if abs(above - below) > 1e-8 * (abs(fval) / bp + abs(below)
                                        + abs(above)):
            raise PreconditionError(f"refined rellich needs a C^1 profile; "
                                    f"f' jumps by {above - below:.3e} "
                                    f"at rho = {bp}")


def _rellich_pass(model, measure: str, prof: RadialProfile, beta: float,
                  spec: QuadratureSpec, extra: dict[str, _Column]
                  ) -> tuple[dict[str, TermValue], float, float]:
    """One radial pass for G^beta, the Rellich core terms (lhs, weight4 and
    its remainder) and ``extra``; raises unless u is in the G^beta kernel."""
    cols = _gbeta_columns(prof, beta)
    cols.update({"lhs": _lap2(-beta), "weight4": _u2(-4.0 - beta)})
    if model.curvature != 0.0:
        cols["weight4_rem"] = _u2(-4.0 - beta, model)
    raw = _radial_terms(model, measure, prof, {**cols, **extra}, spec)
    gval, gscale, _gerr = _gbeta_value(model, measure, prof, beta, raw)
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
    raw, gval, gscale = _rellich_pass(model, measure, _require_radial(u),
                                      beta, spec, {})
    delta = rellich_sharp_constant(n, beta)
    c_rem = (n - 1.0) * (n - 2.0) * (n + beta) * (n - 4.0 - beta) / 4.0
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
    _require_c1(prof)
    lam = model.uniformity
    delta = rellich_sharp_constant(n, beta)
    c_rem4 = (n - 1.0) * (n - 2.0) * (n + beta) * (n - 4.0 - beta) / 4.0
    c_w2 = (n - 2.0 - beta) * (n - 2.0 + beta) * cbv / (2.0 * lam)
    c_w2_rem = (n - 1.0) * (n - 2.0) * cbv / lam
    c_w0 = cbv * cbv / (lam * lam)
    # intermediate inequality (beta < n - 4): completed-square energy
    # bounded by the Rellich excess minus the first-order remainder
    q = (n + beta) * (n - 4.0 - beta) / 4.0
    extra = {"w2": _u2(-2.0 - beta), "w2_rem": _u2(-2.0 - beta, model),
             "w0": _u2(-beta)}
    if beta < n - 4.0:
        extra["de1"] = lambda j: (j.lap + q * j.f / j.rho**2) ** 2 * \
            j.rho ** (-beta)
    raw, gval, gscale = _rellich_pass(model, measure, prof, beta, spec,
                                      extra)
    terms = {
        "lhs": raw["lhs"],
        "main": raw["weight4"].scaled(delta),
        "remainder4": raw["weight4_rem"].scaled(c_rem4),
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
                           "de1_ok": bool(de1_lhs <= de1_rhs + tol
                                          and de1_lhs >= -tol)})
    return rep


# ------------------------------------------------------------------- sweeps
def _suffix_sums(a: np.ndarray) -> np.ndarray:
    """a[s] + a[s + 1] + ... for every s, added from the last entry inward."""
    return np.cumsum(a[::-1], axis=0)[::-1]


def _truncated_family_integrals(model, measure: str, gamma: float,
                                order: int, eps_arr: np.ndarray,
                                r: float, R: float, spec: QuadratureSpec
                                ) -> tuple[np.ndarray, ...]:
    """(I1, I2, J1, error) arrays for u = psi * max(eps, rho)^(-gamma), one
    entry per eps of the decreasing ``eps_arr``, from one radial pass.

    ``order`` 1 selects the gradient functional (Hardy), 2 the Laplacian
    functional (Rellich); beta is implied by gamma through the sharp-exponent
    relations.  Above its eps every member is psi * rho^(-gamma), so a row
    sums the shells above its eps of one pass of the smallest-eps profile,
    cut at every eps, r and R: the energy (I1), u^2 rho^(-weight) (I2) and
    rho^(-n) short of r (J1), with the shells' error estimates.  Inside eps
    u = eps^(-gamma), whose mass is exact on flat models (a floor would drop
    nearly all of it as the exponent nears -1); curved models add the shell
    from RADIAL_FLOOR * min(eps) to the pass.
    """
    n = model.n
    beta = (n - 2.0 - 2.0 * gamma) if order == 1 else (n - 4.0 - 2.0 * gamma)
    weight = 2.0 + beta if order == 1 else 4.0 + beta
    cp = model.cp_constant(measure)
    curved = model.curvature != 0.0
    floor = [RADIAL_FLOOR * eps_arr[-1]] if curved else []
    cuts = [*floor, *eps_arr[::-1], r, R]
    prof = RadialTestFunction(gamma, eps_arr[-1], SmoothCutoff(r, R)).profile()
    columns = {"energy": _du2(-beta) if order == 1 else _lap2(-beta),
               "mass": _u2(-weight), "j1": lambda j: j.rho ** (-n),
               "inner": lambda j: j.rho ** (-weight)}
    values, errors = radial_segments(_radial_integrand(model, prof, columns),
                                     cuts, spec)
    values, errors = cp * values, cp * errors
    first = len(cuts) - 3 - np.arange(eps_arr.size)   # the shell above eps
    above, err_above = _suffix_sums(values)[first], _suffix_sums(errors)[first]
    j1 = _suffix_sums(values[:-1, 2])[first]           # (eps, r) only
    if curved:
        inner, inner_err = (np.cumsum(a[:, 3])[first - 1]
                            for a in (values, errors))
    else:
        inner = np.array([cp * power_integral(n - 1.0 - weight, 0.0, e)
                          for e in eps_arr])
        inner_err = 0.0
    scale = eps_arr ** (-2.0 * gamma)
    i2 = scale * inner + above[:, 1]
    error = err_above[:, 0] + err_above[:, 1] + scale * inner_err
    return above[:, 0], i2, j1, error


def _extrapolate_structured(ls: np.ndarray, quotients: np.ndarray,
                            j1s: np.ndarray, i2s: np.ndarray
                            ) -> tuple[float, float]:
    """Two-point log-gap extrapolation using the measured quotient structure.

    With K = J1/L and the epsilon-independent part c2 = I2 - J1, the
    quotient is A + d/(L + c2/K); the two smallest-eps points then determine
    the intercept A and gap coefficient d exactly on the flat models.
    """
    k_unit = j1s[-1] / ls[-1]
    b_off = (i2s[-1] - j1s[-1]) / k_unit
    l1, l2 = ls[-2] + b_off, ls[-1] + b_off
    a = (quotients[-1] * l2 - quotients[-2] * l1) / (l2 - l1)
    d = (quotients[-2] - a) * l1
    return a, d


def _extrapolate_moebius(ls: np.ndarray, quotients: np.ndarray) -> float:
    """Three-point rational fit R = A + d/(L + b) on the smallest epsilons."""
    l1, l2, l3 = ls[-3:]
    r1, r2, r3 = quotients[-3:]
    p = (l2 - l1) / (r1 - r2)
    q = (l3 - l2) / (r2 - r3)
    if p == q:
        return r3
    b = (q * l1 - p * l3) / (p - q)
    d = (l1 + b) * (l2 + b) / p
    return r1 - d / (l1 + b)


def _sharpness_sweep(model, measure: str, beta: float, r: float, R: float,
                     eps_list: Sequence[float], spec: QuadratureSpec,
                     order: int) -> SweepTable:
    n = model.n
    if order == 1:
        theorem = "hardy-sweep"
        hardy_domain(n, beta, theorem)
        gamma = hardy_gamma(n, beta)
        sharp = gamma * gamma
    else:
        theorem = "rellich-sweep"
        rellich_domain(n, beta, theorem)
        gamma = rellich_gamma(n, beta)
        sharp = rellich_sharp_constant(n, beta)
    eps_arr = np.asarray(sorted(set(float(e) for e in eps_list), reverse=True))
    if not (all(0.0 < e < r for e in eps_arr) and r < R):
        raise PreconditionError(f"{theorem} needs 0 < eps < r < R, got "
                                f"eps={eps_arr.tolist()}, r={r}, R={R}")
    if eps_arr.size < 2:
        raise PreconditionError("the sweep needs at least two distinct eps "
                                "values to extrapolate")

    cp = model.cp_constant(measure)
    i1s, i2s, j1s, errs = _truncated_family_integrals(
        model, measure, gamma, order, eps_arr, r, R, spec)
    quotients = i1s / i2s
    rows = [SweepRow(float(eps), float(i1), float(i2), float(q), float(j1),
                     cp * math.log(r / eps) if model.curvature == 0.0
                     else float("nan"), float(err))
            for eps, i1, i2, q, j1, err
            in zip(eps_arr, i1s, i2s, quotients, j1s, errs)]
    ls = np.log(r / eps_arr)
    a_struct, d_gap = _extrapolate_structured(ls, quotients, j1s, i2s)
    a_struct, d_gap = float(a_struct), float(d_gap)
    a_moeb = float(_extrapolate_moebius(ls, quotients)) \
        if eps_arr.size >= 3 else a_struct
    monotone = bool(np.all(np.diff(quotients) < 0.0))
    # the structured fit is exact only on the flat models; the Moebius fit
    # also holds on curved ones (and falls back to it for two eps values)
    passed = bool(monotone and abs(a_moeb - sharp) <= 0.01 * sharp
                  and d_gap > 0.0)
    constants = {"n": n, "beta": beta, "gamma": gamma, "r": r, "R": R,
                 "cp": cp, "k": model.curvature}
    return SweepTable(theorem, repr(model), measure, beta, constants,
                      rows, sharp, a_struct, a_moeb, d_gap, monotone, passed)


def hardy_sharpness_sweep(model, measure: str, beta: float, r: float,
                          R: float, eps_list: Sequence[float],
                          spec: QuadratureSpec | None = None) -> SweepTable:
    """Rayleigh quotients of the truncated family converging to the sharp
    Hardy constant (n-2-beta)^2/4; each row's annulus mass J1 stands beside
    its exact value n omega_n log(r/eps) on the flat models."""
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
def refined_cs_campaign(norm: MinkowskiNorm, samples: int,
                        seed: int) -> CampaignSummary:
    """Randomized verification of the sharpened Cauchy-Schwarz inequality.

    Draws covector pairs, checks the slack is nonnegative (to rounding),
    compares the colinear tightness identity and the colinear-negative
    closed form, and bounds the second derivative along segments from below
    by 2 F*^2(eta)/Lambda_F.
    """
    rng = np.random.default_rng(seed)
    n = norm.dim
    xi = rng.standard_normal((samples, n))
    eta = rng.standard_normal((samples, n))
    slack = np.asarray(norm.refined_cs_slack(xi, eta))
    scale = np.maximum(1.0, np.asarray(norm.dual_norm(xi + eta)) ** 2)
    rel = slack / scale
    i_min = int(np.argmin(rel))
    counts, edges = np.histogram(np.log10(np.maximum(slack, 1e-300)),
                                 bins=24)
    lam = norm.uniformity()

    # colinear-positive tightness: slack(xi, s xi) = s^2 F*^2(xi) (1 - 1/Lam)
    s_vals = rng.uniform(0.1, 3.0, size=min(samples, 1000))
    xi_c = rng.standard_normal((s_vals.size, n))
    tight = np.asarray(norm.refined_cs_slack(xi_c, s_vals[:, None] * xi_c))
    fs2 = np.asarray(norm.dual_norm(xi_c)) ** 2
    colinear_dev = float(np.max(np.abs(
        tight - s_vals**2 * fs2 * (1.0 - 1.0 / lam))))

    # colinear-negative closed form (eta = -kappa xi, kappa >= 1, F*(-xi)
    # <= F*(xi)): slack/F*^2(xi) = (2kappa-1)
    #   + ((kappa-1)^2 - kappa^2/Lam) F*^2(-xi)/F*^2(xi)
    kap = rng.uniform(1.0, 4.0, size=min(samples, 1000))
    xi_k = rng.standard_normal((kap.size, n))
    swap = np.asarray(norm.dual_norm(-xi_k)) > np.asarray(norm.dual_norm(xi_k))
    xi_k[swap] = -xi_k[swap]
    got = np.asarray(norm.refined_cs_slack(xi_k, -kap[:, None] * xi_k))
    f_p = np.asarray(norm.dual_norm(xi_k)) ** 2
    f_m = np.asarray(norm.dual_norm(-xi_k)) ** 2
    want = f_p * ((2.0 * kap - 1.0)
                  + ((kap - 1.0) ** 2 - kap**2 / lam) * f_m / f_p)
    case2_dev = float(np.max(np.abs(got - want)
                             / np.maximum(1.0, np.abs(want))))

    # segment convexity: f''(t) = 2 g*_{xi+t eta}(eta, eta) >= 2 F*^2(eta)/Lam
    # on the first 200 segments, skipping those that pass near the origin
    t_grid = np.linspace(0.0, 1.0, 9)
    seg = xi[:200, None, :] + t_grid[:, None] * eta[:200, None, :]
    keep = np.min(np.linalg.norm(seg, axis=-1), axis=1) >= 1e-6
    seg, e = seg[keep], eta[:200][keep][:, None, :]
    bound = 2.0 * np.asarray(norm.dual_norm(e)) ** 2 / lam
    f2 = 2.0 * np.asarray(norm.dual_fundamental_form(seg, e, e))
    margin = float(np.min(f2 - bound, initial=math.inf))

    min_slack = float(slack[i_min])
    passed = bool(np.all(slack >= -1e-10 * scale)
                  and colinear_dev <= 1e-10
                  and case2_dev <= 1e-9
                  and margin >= -1e-9)
    return CampaignSummary(
        drift=norm.drift, dim=n, samples=samples,
        min_slack=min_slack, min_scale=float(scale[i_min]),
        argmin_xi=[float(v) for v in xi[i_min]],
        argmin_eta=[float(v) for v in eta[i_min]],
        histogram_counts=[int(c) for c in counts],
        histogram_edges=[float(e) for e in edges],
        colinear_max_dev=colinear_dev, case2_max_dev=case2_dev,
        case3_margin=float(margin), passed=passed)


# ---------------------------------------------------------------- batteries
def _gauss_profile(a: float, support: float) -> RadialProfile:
    return RadialProfile(
        f=lambda rho: np.exp(-a * np.asarray(rho) ** 2),
        d1=lambda rho: -2.0 * a * np.asarray(rho)
        * np.exp(-a * np.asarray(rho) ** 2),
        d2=lambda rho: (4.0 * a * a * np.asarray(rho) ** 2 - 2.0 * a)
        * np.exp(-a * np.asarray(rho) ** 2),
        support=support, nonincreasing=True, label=f"gauss[{a}]")


def _expdec_profile(a: float, support: float) -> RadialProfile:
    return RadialProfile(
        f=lambda rho: np.exp(-a * np.asarray(rho)),
        d1=lambda rho: -a * np.exp(-a * np.asarray(rho)),
        d2=lambda rho: a * a * np.exp(-a * np.asarray(rho)),
        support=support, nonincreasing=True, label=f"exp[{a}]")


def _lorentz_profile(q: float, support: float) -> RadialProfile:
    def f(rho):
        return (1.0 + np.asarray(rho) ** 2) ** (-q)

    def d1(rho):
        rho = np.asarray(rho)
        return -2.0 * q * rho * (1.0 + rho**2) ** (-q - 1.0)

    def d2(rho):
        rho = np.asarray(rho)
        return (-2.0 * q * (1.0 + rho**2) ** (-q - 1.0)
                + 4.0 * q * (q + 1.0) * rho**2 * (1.0 + rho**2) ** (-q - 2.0))

    return RadialProfile(f, d1, d2, support=support, nonincreasing=True,
                         label=f"lorentz[{q}]")


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
