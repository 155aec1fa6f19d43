"""The radial term-table evaluator against a per-term reference.

The reference integrates every term of every radial report on its own, one
``radial_integrate`` call per term and breakpoint segment, with each
integrand written out in full.  The reports integrate all of their terms
and segments in one pass from rho = 0; the column sums use the same
pairwise tree and the segments add in the same order.  The reference's
first segment starts where the pass's panels do, at GAP times its end, and
the inner ball below is worked out on its own: f(0)^2 times the closed-form
power integral on flat models, or its 30-digit ``mpmath`` value on curved
ones (``oracles.inner_ball_power``).  So the report's error is the
reference's plus its tail estimate, and every value lies within that
estimate plus ROUNDING of the reference.  The sweep reference integrates
every shell between consecutive cuts on its own and sums the shells above
each eps in the sweep's order; a second one integrates every eps on its
own, region by region, as sweeps once did, and bounds the regrouping.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest

from finslerineq import cli
from finslerineq import harness as H
from finslerineq.models import (HyperbolicBall, RandersFlat, cutoff_profile,
                                truncated_profile)
from finslerineq.quadrature import (QuadratureSpec, annulus_integrate,
                                    radial_integrate, radial_segments,
                                    unit_sphere_area)
from oracles import hardy_terms_30_digits, inner_ball_power, \
    neg_laplacian_power, power_integral

SPEC = QuadratureSpec()
GAP = 1e-12          # a pass from 0 starts its panels at GAP times its end
# the reference's own rounding against the report's, relative to the scale
# of the compared terms
ROUNDING = 4e-15


def battery():
    # the four profile kinds of the battery, plus a truncated family member
    # whose derivative jumps at eps
    return H.radial_battery(4, 0.9) + [
        truncated_profile(1.0, 1e-3, 0.5, 0.9)]


# ------------------------------------------------------------ reference
def ref_integral(model, measure, g, hi, spec=SPEC, breakpoints=(), lo=0.0,
                 inner=None):
    """(value, error) of cp * integral of g(rho) * radial density on
    (lo, hi).  From lo = 0 the first segment starts at GAP times its end,
    and ``inner(a)``, the integral on (0, a) worked out on its own, joins
    its value; None stands for a column that vanishes at 0 like rho^2 or
    faster, whose inner mass (below 1e-35 here) is under rounding."""
    cp = model.cp_constant(measure)
    cuts = sorted({lo, hi, *[b for b in breakpoints if lo < b < hi]})
    if lo == 0.0:
        cuts[0] = GAP * cuts[1]
    total, err = 0.0, 0.0

    def h(rho):
        return np.asarray(g(rho), dtype=float) * \
            model.radial_volume_density(rho)

    for a, b in zip(cuts[:-1], cuts[1:]):
        v, e = radial_integrate(h, (a, b), spec)
        if a == cuts[0] and lo == 0.0 and inner is not None:
            v = v + inner(a)
        total += v
        err += e
    return cp * total, cp * err


def u2_inner(model, prof, p, remainder=False):
    """The inner piece of f^2 rho^p [D(rho)]: the profile is f(0) near 0,
    to O(rho) relative, so it is f(0)^2 times the power integral."""
    f0 = float(prof.f(np.zeros(1))[0])
    return lambda a: f0 * f0 * inner_ball_power(model, p, a, remainder)


def ref_lap(model, prof, rho):
    """f'' + f' (n-1)(1 + D)/rho, the mean curvature read from D as the
    program reads it (``tests/test_harness.py`` checks that against
    (n-1) s'/s)."""
    d = np.asarray(model.comparison_remainder(rho))
    return prof.d2(rho) + prof.d1(rho) * ((model.n - 1) * (1.0 + d) / rho)


def ref_budget(terms):
    err = sum(e for _, e in terms.values())
    scale = max((abs(v) for v, _ in terms.values()), default=1.0)
    return err + SPEC.abs_tol + SPEC.rel_tol * max(1.0, scale)


def scaled(c, term):
    return c * term[0], c * term[1]


def ref_hardy(model, measure, prof, beta):
    n = model.n
    hi, bks = prof.support, prof.breakpoints
    gam = 0.5 * (n - 2.0 - beta)
    c_rem = 0.5 * (n - 1.0) * (n - 2.0 - beta)
    lhs = ref_integral(model, measure,
                       lambda rho: prof.d1(rho) ** 2 * rho ** (-beta),
                       hi, breakpoints=bks)
    main = ref_integral(model, measure,
                        lambda rho: prof.f(rho) ** 2 * rho ** (-2.0 - beta),
                        hi, breakpoints=bks,
                        inner=u2_inner(model, prof, -2.0 - beta))
    rem = (0.0, 0.0) if model.curvature == 0.0 else ref_integral(
        model, measure, lambda rho: prof.f(rho) ** 2 * rho ** (-2.0 - beta)
        * model.comparison_remainder(rho), hi, breakpoints=bks,
        inner=u2_inner(model, prof, -2.0 - beta, remainder=True))
    terms = {"lhs": lhs, "main": scaled(gam * gam, main),
             "remainder": scaled(c_rem, rem)}
    slack = terms["lhs"][0] - terms["main"][0] - terms["remainder"][0]
    return terms, slack, {}


def ref_hardy_bv(model, measure, prof, beta):
    terms, slack, _ = ref_hardy(model, measure, prof, beta)
    coeff = H.bv_constant(model) / model.uniformity
    extra = ref_integral(model, measure,
                         lambda rho: prof.f(rho) ** 2 * rho ** (-beta),
                         prof.support, breakpoints=prof.breakpoints,
                         inner=u2_inner(model, prof, -beta))
    terms["brezis_vazquez"] = scaled(coeff, extra)
    return terms, slack - terms["brezis_vazquez"][0], {}


def ref_poincare(model, measure, prof):
    n = model.n
    hi, bks = prof.support, prof.breakpoints
    lhs = ref_integral(model, measure,
                       lambda rho: prof.f(rho) ** 2 * rho ** (2.0 - n),
                       hi, breakpoints=bks,
                       inner=u2_inner(model, prof, 2.0 - n))
    grad = ref_integral(model, measure,
                        lambda rho: prof.d1(rho) ** 2 * rho ** (2.0 - n),
                        hi, breakpoints=bks)
    terms = {"lhs": lhs,
             "gradient_side": scaled(H.poincare_constant(model), grad)}
    return terms, terms["gradient_side"][0] - lhs[0], {}


def ref_uncertainty(model, measure, prof, beta):
    hi, bks = prof.support, prof.breakpoints
    gam = 0.5 * (model.n - 2.0 - beta)
    weighted = ref_integral(
        model, measure, lambda rho: prof.f(rho) ** 2 * rho ** (2.0 + beta),
        hi, breakpoints=bks, inner=u2_inner(model, prof, 2.0 + beta))
    grad = ref_integral(model, measure,
                        lambda rho: prof.d1(rho) ** 2 * rho ** (-beta),
                        hi, breakpoints=bks)
    mass = ref_integral(model, measure, lambda rho: prof.f(rho) ** 2,
                        hi, breakpoints=bks, inner=u2_inner(model, prof, 0.0))
    lhs = math.sqrt(max(weighted[0], 0.0)) * math.sqrt(max(grad[0], 0.0))
    lhs_err = 0.0
    if weighted[0] > 0.0 and grad[0] > 0.0:
        lhs_err = 0.5 * lhs * (weighted[1] / weighted[0] + grad[1] / grad[0])
    terms = {"weighted_mass": weighted, "gradient_energy": grad,
             "mass": mass, "lhs_product": (lhs, lhs_err),
             "rhs": scaled(gam, mass)}
    return terms, lhs - gam * mass[0], {}


def ref_gbeta(model, measure, prof, beta):
    nn = beta + 2.0
    n = model.n
    hi, bks = prof.support, prof.breakpoints
    # -Delta(rho^-nn) = -nn rho^(-nn-2) ((nn + 2 - n) - (n - 1) D(rho))
    power, with_d = (u2_inner(model, prof, -nn - 2.0, rem)
                     for rem in (False, True))
    t1 = ref_integral(
        model, measure,
        lambda rho: prof.f(rho) ** 2 * neg_laplacian_power(model, nn, rho),
        hi, breakpoints=bks,
        inner=lambda a: nn * ((n - 2.0 - nn) * power(a)
                              + (n - 1.0) * with_d(a)))
    t2 = ref_integral(
        model, measure, lambda rho: 2.0 * rho ** (-nn) * (
            prof.d1(rho) ** 2 + prof.f(rho) * ref_lap(model, prof, rho)),
        hi, breakpoints=bks)
    jump = 0.0
    for bp in bks:
        if not 0.0 < bp < hi:
            continue
        below = float(prof.d1(np.array([np.nextafter(bp, 0.0)]))[0])
        above = float(prof.d1(np.array([np.nextafter(bp, np.inf)]))[0])
        if below != above:
            fval = float(prof.f(np.array([bp]))[0])
            w = float(model.radial_volume_density(np.array([bp]))[0])
            jump += 2.0 * bp ** (-nn) * fval * (above - below) * w
    jump *= model.cp_constant(measure)
    green = 0.0
    f0 = float(prof.f(np.zeros(1))[0])
    if f0 != 0.0 and abs(nn - (model.n - 2.0)) <= 1e-12:
        green = (model.n - 2.0) * model.cp_constant(measure) * f0 * f0
    return (t1[0] + t2[0] + jump + green, abs(t1[0]) + abs(t2[0]),
            t1[1] + t2[1])


def ref_rellich_core(model, measure, prof, beta):
    hi, bks = prof.support, prof.breakpoints
    lhs = ref_integral(
        model, measure,
        lambda rho: ref_lap(model, prof, rho) ** 2 * rho ** (-beta),
        hi, breakpoints=bks)
    w4 = ref_integral(model, measure,
                      lambda rho: prof.f(rho) ** 2 * rho ** (-4.0 - beta),
                      hi, breakpoints=bks,
                      inner=u2_inner(model, prof, -4.0 - beta))
    w4_rem = (0.0, 0.0) if model.curvature == 0.0 else ref_integral(
        model, measure, lambda rho: prof.f(rho) ** 2 * rho ** (-4.0 - beta)
        * model.comparison_remainder(rho), hi, breakpoints=bks,
        inner=u2_inner(model, prof, -4.0 - beta, remainder=True))
    return lhs, w4, w4_rem


def ref_rellich(model, measure, prof, beta):
    n = model.n
    delta = (n + beta) ** 2 * (n - 4.0 - beta) ** 2 / 16.0
    c_rem = (n - 1.0) * (n - 2.0) * (n + beta) * (n - 4.0 - beta) / 4.0
    lhs, w4, w4_rem = ref_rellich_core(model, measure, prof, beta)
    terms = {"lhs": lhs, "main": scaled(delta, w4),
             "remainder": scaled(c_rem, w4_rem)}
    slack = terms["lhs"][0] - terms["main"][0] - terms["remainder"][0]
    return terms, slack, {}


def ref_rellich_bv(model, measure, prof, beta):
    n = model.n
    hi, bks = prof.support, prof.breakpoints
    cbv = H.bv_constant(model)
    lam = model.uniformity
    delta = (n + beta) ** 2 * (n - 4.0 - beta) ** 2 / 16.0
    c_rem4 = (n - 1.0) * (n - 2.0) * (n + beta) * (n - 4.0 - beta) / 4.0
    lhs, w4, w4_rem = ref_rellich_core(model, measure, prof, beta)
    w2 = ref_integral(model, measure,
                      lambda rho: prof.f(rho) ** 2 * rho ** (-2.0 - beta),
                      hi, breakpoints=bks,
                      inner=u2_inner(model, prof, -2.0 - beta))
    w2_rem = ref_integral(
        model, measure, lambda rho: prof.f(rho) ** 2 * rho ** (-2.0 - beta)
        * model.comparison_remainder(rho), hi, breakpoints=bks,
        inner=u2_inner(model, prof, -2.0 - beta, remainder=True))
    w0 = ref_integral(model, measure,
                      lambda rho: prof.f(rho) ** 2 * rho ** (-beta),
                      hi, breakpoints=bks, inner=u2_inner(model, prof, -beta))
    terms = {
        "lhs": lhs, "main": scaled(delta, w4),
        "remainder4": scaled(c_rem4, w4_rem),
        "weight2": scaled((n - 2.0 - beta) * (n - 2.0 + beta) * cbv
                          / (2.0 * lam), w2),
        "weight2_remainder": scaled((n - 1.0) * (n - 2.0) * cbv / lam,
                                    w2_rem),
        "weight0": scaled(cbv * cbv / (lam * lam), w0)}
    slack = terms["lhs"][0] - sum(v for k, (v, _) in terms.items()
                                  if k != "lhs")
    checks = {}
    if beta < n - 4.0:
        tol = ref_budget(terms)
        q = (n + beta) * (n - 4.0 - beta) / 4.0
        # near 0 the square is q^2 f^2 rho^(-4-beta), up to O(rho^2)
        w4_inner = u2_inner(model, prof, -4.0 - beta)
        de1 = ref_integral(
            model, measure, lambda rho: (ref_lap(model, prof, rho)
                                         + q * prof.f(rho) / rho**2) ** 2
            * rho ** (-beta), hi, breakpoints=bks,
            inner=lambda a: q * q * w4_inner(a))[0]
        rhs = (lhs[0] - delta * w4[0] - c_rem4 * w4_rem[0]
               - 2.0 * q * cbv / lam * w2[0])
        checks = {"de1_lhs": de1, "de1_rhs": rhs,
                  "de1_ok": bool(de1 <= rhs + tol and de1 >= -tol)}
    return terms, slack, checks


def ref_sweep_rows(model, measure, gamma, order, eps_list, r, R):
    """The sweep rows from one pass: ``ref_integral`` on every shell between
    the cuts 0, eps..., r, R, one call per shell and column, and each row a
    sum over the shells above its eps, added from the outermost shell
    inward.  A row's inner ball is the closed-form power integral on flat
    models and the sum of the shells below its eps on curved ones."""
    n = model.n
    beta = (n - 2.0 - 2.0 * gamma) if order == 1 else (n - 4.0 - 2.0 * gamma)
    weight = 2.0 + beta if order == 1 else 4.0 + beta
    cp = model.cp_constant(measure)
    eps_list = sorted(eps_list, reverse=True)
    prof = truncated_profile(gamma, eps_list[-1], r, R)
    curved = model.curvature != 0.0
    cuts = [0.0] + eps_list[::-1] + [r, R]
    if order == 1:
        def energy(rho):
            return prof.d1(rho) ** 2 * rho ** (-beta)
    else:
        def energy(rho):
            return ref_lap(model, prof, rho) ** 2 * rho ** (-beta)
    # J1's shell below min(eps) is never read
    columns = ((energy, None),
               (lambda rho: prof.f(rho) ** 2 * rho ** (-weight),
                u2_inner(model, prof, -weight)),
               (lambda rho: rho ** (-n), None),
               (lambda rho: rho ** (-weight),
                lambda a: inner_ball_power(model, -weight, a)))
    shells = [[ref_integral(model, measure, g, b, lo=a, inner=inner)
               for g, inner in columns]
              for a, b in zip(cuts[:-1], cuts[1:])]
    scale = np.asarray(eps_list) ** (-2.0 * gamma)

    def total(column, part, shell_range):
        acc = 0.0
        for s in shell_range:
            acc = acc + shells[s][column][part]
        return acc

    rows = []
    for eps, eps_scale in zip(eps_list, scale):
        first = cuts.index(eps)
        above = range(len(shells) - 1, first - 1, -1)   # outermost first
        i1, mass = total(0, 0, above), total(1, 0, above)
        j1 = total(2, 0, above[1:])                      # (eps, r) only
        if curved:
            below = range(first)                         # innermost first
            inner, inner_err = total(3, 0, below), total(3, 1, below)
        else:
            inner = cp * power_integral(n - 1.0 - weight, 0.0, eps)
            inner_err = 0.0
        i2 = eps_scale * inner + mass
        err = total(0, 1, above) + total(1, 1, above) + eps_scale * inner_err
        rows.append(asdict(H.SweepRow(eps, i1, i2, i1 / i2, j1, err)))
    return rows


def ref_sweep_row_per_eps(model, measure, gamma, order, eps, r, R):
    """The row of one eps from its own profile, region by region: the
    annulus (eps, r), the cutoff region (r, R) and the inner ball (0, eps),
    with J1 on the annulus rule for n <= 4."""
    n = model.n
    beta = (n - 2.0 - 2.0 * gamma) if order == 1 else (n - 4.0 - 2.0 * gamma)
    cp = model.cp_constant(measure)
    prof = truncated_profile(gamma, eps, r, R)
    j1_val, err = ref_integral(model, measure, lambda rho: rho ** (-n), r,
                               lo=eps)
    j1_err = err
    if order == 1:
        err *= gamma * gamma
        outer = ref_integral(
            model, measure, lambda rho: prof.d1(rho) ** 2 * rho ** (-beta),
            R, lo=r)
        i1 = gamma * gamma * j1_val + outer[0]
        weight = 2.0 + beta
    else:
        def lap_sq(rho):
            return ref_lap(model, prof, rho) ** 2 * rho ** (-beta)

        mid = ref_integral(model, measure, lap_sq, r, lo=eps)
        outer = ref_integral(model, measure, lap_sq, R, lo=r)
        i1 = mid[0] + outer[0]
        err += mid[1]
        weight = 4.0 + beta
    err += outer[1] + j1_err
    if model.curvature == 0.0:
        inner = cp * eps ** (-2.0 * gamma) * \
            power_integral(n - 1.0 - weight, 0.0, eps)
    else:
        inner, inner_err = ref_integral(
            model, measure,
            lambda rho: eps ** (-2.0 * gamma) * rho ** (-weight), eps,
            inner=lambda a: eps ** (-2.0 * gamma)
            * inner_ball_power(model, -weight, a))
        err += inner_err
    tail = ref_integral(model, measure,
                        lambda rho: prof.f(rho) ** 2 * rho ** (-weight),
                        R, lo=r)
    i2 = inner + j1_val + tail[0]
    err += tail[1]
    j1_quad = annulus_integrate(model, measure, lambda rr, ww: rr ** (-n),
                                eps, r, SPEC)[0] if n <= 4 else j1_val
    return asdict(H.SweepRow(eps, i1, i2, i1 / i2, j1_quad, err))


# ------------------------------------------------------------------ tests
def assert_term(got, got_err, want, want_err, scale, name=""):
    """On the same panels the report's error is the reference's plus its
    tail estimate, and its value lies within that estimate plus ROUNDING *
    scale of the reference's.  Returns the bound on the value."""
    tail_err = got_err - want_err
    assert 0.0 <= tail_err <= ROUNDING * scale, name
    assert abs(got - want) <= tail_err + ROUNDING * scale, name
    return tail_err + ROUNDING * scale


def assert_report(rep, want):
    terms, slack, checks = want
    assert set(rep.terms) == set(terms)
    scale = max(1.0, max(abs(v) for v, _ in terms.values()))
    bound = sum(assert_term(rep.terms[k].value, rep.terms[k].error, v, e,
                            scale, k)
                for k, (v, e) in terms.items())
    tol = ref_budget(terms)
    assert abs(rep.slack - slack) <= bound
    assert abs(rep.slack_tolerance - tol) <= bound
    assert rep.passed == (rep.slack >= -rep.slack_tolerance) == \
        (slack >= -tol)
    assert set(rep.checks) == set(checks)
    for k, v in checks.items():
        if isinstance(v, bool):
            assert rep.checks[k] == v, k
        else:
            assert abs(rep.checks[k] - v) <= ROUNDING * max(scale, abs(v)), k


def assert_gbeta(got, want):
    """(value, scale, error) of G^beta against the reference's."""
    assert abs(got[1] - want[1]) <= ROUNDING * want[1]
    assert_term(got[0], got[2], want[0], want[2], want[1], "G^beta")


def assert_rows(rows, want):
    """Sweep rows against the reference's: nothing below a row's eps enters
    I1 or J1, so they agree bit for bit; I2 and the quotient carry the
    inner ball, whose error estimate the report's error adds."""
    for got, ref in zip(map(asdict, rows), want, strict=True):
        for key in ("eps", "i1", "j1_quadrature"):
            assert got[key] == ref[key], key
        extra = got["error"] - ref["error"]
        assert 0.0 <= extra <= ROUNDING * ref["i2"]
        for key in ("i2", "quotient"):
            assert abs(got[key] - ref[key]) <= \
                (extra / ref["i2"] + ROUNDING) * abs(ref[key]), key


RANDERS = RandersFlat(3, 0.5)
HYPER = HyperbolicBall(4, -1.0)


@pytest.mark.parametrize("model", (RANDERS, HYPER), ids=repr)
@pytest.mark.parametrize("measure", ("bh", "ht"))
def test_hardy_family_matches_reference(model, measure):
    for prof in battery():
        for beta in (0.0, 0.5):
            assert_report(H.hardy_report(model, measure, prof, beta, SPEC),
                          ref_hardy(model, measure, prof, beta))
        assert_report(H.uncertainty_report(model, measure, prof, 0.5, SPEC),
                      ref_uncertainty(model, measure, prof, 0.5))
        if model.curvature < 0.0:
            assert_report(H.hardy_bv_report(model, measure, prof, 0.5, SPEC),
                          ref_hardy_bv(model, measure, prof, 0.5))
            assert_report(H.poincare_report(model, measure, prof, SPEC),
                          ref_poincare(model, measure, prof))


@pytest.mark.parametrize("model", (RandersFlat(6, 0.5),
                                   HyperbolicBall(6, -1.0)), ids=repr)
def test_rellich_family_matches_reference(model):
    for prof in battery():
        for beta in (0.0, 1.0):
            want = ref_gbeta(model, "bh", prof, beta)
            assert_gbeta(H.gbeta(model, "bh", prof, beta, SPEC), want)
            if prof.label.startswith("trunc"):
                # the kinked member's Delta u has a singular part on
                # rho = eps, which both reports' (Delta u)^2 terms would
                # miss; the refined one needs k < 0 before anything else
                reports = [H.rellich_report]
                if model.curvature < 0.0:
                    reports.append(H.rellich_bv_report)
                for report in reports:
                    with pytest.raises(H.PreconditionError, match="C\\^1"):
                        report(model, "bh", prof, beta, SPEC)
                continue
            rep = H.rellich_report(model, "bh", prof, beta, SPEC)
            assert_report(rep, ref_rellich(model, "bh", prof, beta))
            gval = (rep.constants["gbeta_value"], rep.constants["gbeta_scale"])
            assert_gbeta((*gval, want[2]), want)
            if model.curvature < 0.0:
                # both betas are below n - 4, so both carry the de1 check
                rep = H.rellich_bv_report(model, "bh", prof, beta, SPEC)
                assert_report(rep, ref_rellich_bv(model, "bh", prof, beta))
                assert set(rep.checks) == {"de1_lhs", "de1_rhs", "de1_ok"}
                assert (rep.constants["gbeta_value"],
                        rep.constants["gbeta_scale"]) == gval


SWEEP_MODELS = (RANDERS, HyperbolicBall(3, -1.0), RandersFlat(5, 0.3),
                RandersFlat(6, 0.5), HyperbolicBall(6, -1.0))


def sweeps_of(model):
    """(sweep, order, beta) of every sweep the model admits."""
    sweeps = [(H.hardy_sharpness_sweep, 1, 0.0)]
    if model.n > 4:
        sweeps.append((H.rellich_sharpness_sweep, 2, 0.5))
    return sweeps


@pytest.mark.parametrize("model", SWEEP_MODELS, ids=repr)
def test_sweep_rows_match_reference(model):
    eps_list = (1e-2, 1e-3, 1e-4)
    for sweep, order, beta in sweeps_of(model):
        tab = sweep(model, "bh", beta, 0.4, 0.9, eps_list, SPEC)
        want = ref_sweep_rows(model, "bh", tab.constants["gamma"], order,
                              eps_list, 0.4, 0.9)
        assert_rows(tab.rows, want)


@pytest.mark.parametrize("model", SWEEP_MODELS, ids=repr)
def test_sweep_rows_match_per_eps_decomposition(model):
    # the one pass regroups the per-eps integrals: the rows stay within
    # rounding of integrating every eps on its own, region by region
    eps_list = (1e-2, 1e-3, 1e-4)
    for sweep, order, beta in sweeps_of(model):
        tab = sweep(model, "bh", beta, 0.4, 0.9, eps_list, SPEC)
        for row, eps in zip(tab.rows, eps_list):
            want = ref_sweep_row_per_eps(model, "bh", tab.constants["gamma"],
                                         order, eps, 0.4, 0.9)
            for key in ("i1", "i2", "quotient", "j1_quadrature"):
                assert getattr(row, key) == pytest.approx(want[key],
                                                          rel=1e-12), key


def test_one_pass_per_report_and_no_nested_reports(monkeypatch):
    calls = []

    def counted(f, cuts, spec):
        calls.append(tuple(cuts))
        return radial_integrate(f, cuts, spec)

    def counted_segments(f, cuts, spec):
        calls.append(("segments",) + tuple(cuts))
        return radial_segments(f, cuts, spec)

    def forbidden(*args, **kwargs):
        raise AssertionError("a report re-ran another report or pass")

    monkeypatch.setattr(H, "radial_integrate", counted)
    monkeypatch.setattr(H, "radial_segments", counted_segments)
    monkeypatch.setattr(H, "annulus_integrate", forbidden)
    monkeypatch.setattr(H, "hardy_report", forbidden)
    monkeypatch.setattr(H, "gbeta", forbidden)
    h = HyperbolicBall(6, -1.0)
    prof = H.radial_battery(1, 0.9)[0]     # one breakpoint inside (0, R)
    (inner,) = [b for b in prof.breakpoints if 0.0 < b < prof.support]
    for report in (H.hardy_bv_report, H.rellich_report, H.rellich_bv_report,
                   H.uncertainty_report):
        calls.clear()
        report(h, "bh", prof, 0.0, SPEC)
        assert len(calls) == 1, report.__name__
        assert calls[0] == (0.0, inner, prof.support), report.__name__
    # every sweep, flat or curved and at any n, is one pass from 0 cut at
    # every eps, r and R
    eps_list = (1e-2, 1e-3, 1e-4)
    for model in (h, RandersFlat(3, 0.5), HyperbolicBall(4, -1.0)):
        for sweep, _, beta in sweeps_of(model):
            calls.clear()
            sweep(model, "bh", beta, 0.4, 0.9, eps_list, SPEC)
            assert calls == [("segments", 0.0, 1e-4, 1e-3, 1e-2, 0.4, 0.9)]


# ---------------------------------------------------- the near-origin rule
# Every radial pass starts at rho = 0, and the sharp constants are reached
# only as mass concentrates there, so these run up to the edge of each
# theorem's domain.
def test_hardy_main_term_at_the_edge():
    # battery profile 0 is 1 on [0, r]: there the main term's integrand
    # is rho^(n-3-beta), integrated in closed form; the transition (r, R)
    # is smooth, so a 200-node Gauss rule resolves it
    n, beta = 3, 0.999
    prof = H.radial_battery(10, 1.0)[0]
    (r,), big_r = prof.breakpoints, prof.support
    nodes, weights = np.polynomial.legendre.leggauss(200)
    rho = r + (big_r - r) * (nodes + 1.0) / 2.0
    p = n - 2.0 - beta
    outer = (big_r - r) / 2.0 * np.sum(
        weights * cutoff_profile(r, big_r).f(rho) ** 2 * rho ** (p - 1.0))
    want = unit_sphere_area(n) * (p / 2.0) ** 2 * (r**p / p + outer)
    assert want == pytest.approx(3.139e-3, rel=1e-3)
    main = H.hardy_report(RandersFlat(n, 0.5), "bh", prof, beta).terms["main"]
    assert abs(main.value - want) <= main.error + 1e-9 * want


# each run inside its theorem's domain, near its edge
EDGE_RUNS = [
    pytest.param(["hardy", "--n", "3", "--beta", "0.999"], id="hardy"),
    # -2 < beta < n - 4 holds, and G^beta of the battery lies in its band
    pytest.param(["gbeta-check", "--n", "6", "--beta", "1.9"],
                 id="gbeta-check"),
    pytest.param(["rellich", "--n", "6", "--beta", "1.9"], id="rellich"),
    pytest.param(["rellich-bv", "--n", "6", "--beta", "1.9"],
                 id="rellich-bv"),
    # beta = n - 4: the weight-4 terms are left out
    pytest.param(["rellich-bv", "--n", "6", "--beta", "2"],
                 id="rellich-bv-n-minus-4"),
    # above n - 4 the battery is times rho^2, so that it vanishes at 0
    *[pytest.param(["rellich-bv", "--n", n, "--beta", beta],
                   id=f"rellich-bv-n{n}-beta{beta}")
      for n, beta in (("6", "2.5"), ("6", "3.9"), ("5", "2"))],
    # the curved sweeps' Moebius limits reach 0.0025 and 0.0390
    pytest.param(["hardy-sweep", "--model", "hyperbolic", "--beta", "0.9"],
                 id="hardy-sweep-hyperbolic"),
    pytest.param(["rellich-sweep", "--model", "hyperbolic", "--n", "6",
                  "--beta", "1.9"], id="rellich-sweep-hyperbolic"),
]


@pytest.mark.parametrize("args", EDGE_RUNS)
def test_edge_suites_pass(args, tmp_path):
    assert cli.main([*args, "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("model", (RandersFlat(3, 0.4),
                                   HyperbolicBall(3, -1.0)), ids=repr)
@pytest.mark.parametrize("beta", (0.0, 0.5, 0.8, 0.999))
def test_hardy_terms_match_30_digit_reference(model, beta):
    # battery profile 1 is cutoff(r, R) * exp(-a rho^2): its main term
    # nears rho^(-1) at the origin as beta nears n - 2 = 1
    frac = 1.0 / 9.0
    r, big_r = 0.9 * (0.25 + 0.35 * frac), 0.9 * (0.65 + 0.35 * frac)
    prof = H.radial_battery(10, 0.9)[1]
    assert (prof.breakpoints, prof.support) == ((r,), big_r)
    want = hardy_terms_30_digits(model, r, big_r, 0.5 + frac, beta)
    rep = H.hardy_report(model, "bh", prof, beta)
    for name, ref in want.items():
        term = rep.terms[name]
        assert abs(term.value - ref) <= term.error + 1e-13 * abs(ref), name


@pytest.mark.parametrize("n", (3, 5))
@pytest.mark.parametrize("curved", (False, True), ids=("flat", "hyperbolic"))
@pytest.mark.parametrize("beta", (0.0, 0.5, 0.8))
def test_hardy_ground_state_identity(n, curved, beta):
    # with 2 gamma = n - 2 - beta, integration by parts gives
    # lhs - main - remainder = cp int (f' + gamma f/rho)^2 rho^-beta w:
    # the report's slack by a second road that shares no subtraction
    model = HyperbolicBall(n, -1.0) if curved else RandersFlat(n, 0.4)
    gam = H.hardy_gamma(n, beta)
    battery10 = H.radial_battery(10, 0.9)
    direct = {"direct": lambda j: (j.d1 + gam * j.f / j.rho) ** 2
              * j.power(-beta)}
    for prof in (battery10[1], battery10[6],
                 truncated_profile(gam, 1e-4, 0.5, 0.9)):
        rep = H.hardy_report(model, "bh", prof, beta)
        got = H._terms(model, "bh", prof, direct, SPEC)["direct"]
        errors = sum(t.error for t in rep.terms.values()) + got.error
        assert abs(rep.slack - got.value) <= \
            errors + 1e-13 * abs(rep.terms["lhs"].value), prof.label


@pytest.mark.parametrize("n, beta", ((6, 2.5), (6, 3.9), (5, 2.0)))
def test_gbeta_of_a_profile_vanishing_at_the_origin(n, beta):
    # rho^2 psi is 0 at the base point, so G^beta is defined for
    # beta + 2 > n - 2 and the kernel class holds it
    prof = H.vanishing_at_origin(cutoff_profile(0.4, 0.9))
    assert prof.jet(np.zeros(1), 1) == (0.0, 0.0)
    value, scale, _ = H.gbeta(HyperbolicBall(n, -1.0), "bh", prof, beta)
    assert H.gbeta_member(value, scale)
    assert abs(value) <= 1e-11 * scale


@pytest.mark.parametrize("n", (4, 6))
def test_refined_rellich_at_beta_n_minus_4(n):
    # both weight-4 coefficients vanish at beta = n - 4, where their
    # integrals diverge for a profile with f(0) != 0: the terms read
    # exactly 0, with no inf * 0 (the suite turns warnings into errors)
    h = HyperbolicBall(n, -1.0)
    for prof in H.radial_battery(4, 0.9):
        rep = H.rellich_bv_report(h, "bh", prof, n - 4.0, SPEC)
        for name in ("main", "remainder4"):
            assert (rep.terms[name].value, rep.terms[name].error) == \
                (0.0, 0.0), name
        assert rep.passed


def test_divergent_term_is_an_error():
    # rho^-n against the density s^(n-1) diverges at the origin: the pass
    # reads it infinite, and the report raises rather than print a number
    prof = H.radial_battery(1, 0.9)[0]
    for model in (RandersFlat(3, 0.4), HyperbolicBall(4, -1.0)):
        with pytest.raises(H.PreconditionError, match="diverge"):
            H._terms(model, "bh", prof,
                     {"mass": lambda j: j.f ** 2 * j.power(-model.n),
                      "finite": lambda j: j.f ** 2}, SPEC)
