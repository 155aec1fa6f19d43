"""The radial term-table evaluator against a per-term reference.

The reference integrates every term of every radial report on its own, one
``radial_integrate`` call per term and breakpoint segment, with each
integrand written out in full.  The reports integrate all of their terms
and segments in one pass; the column sums use the same pairwise tree and
the segments add in the same order, so every value, error, slack, G^beta
figure and check must agree bit for bit.  The sweep reference integrates
every shell between consecutive cuts on its own and sums the shells above
each eps in the sweep's order; a second one integrates every eps on its
own, region by region, as sweeps once did, and bounds the regrouping.
"""

import math

import numpy as np
import pytest

from finslerineq import harness as H
from finslerineq.models import (HyperbolicBall, RadialTestFunction,
                                RandersFlat, SmoothCutoff)
from finslerineq.quadrature import (QuadratureSpec, annulus_integrate,
                                    power_integral, radial_integrate,
                                    radial_segments)

SPEC = QuadratureSpec()
FLOOR = 1e-12


def battery():
    # the four profile kinds of the battery, plus a truncated family member
    # whose derivative jumps at eps
    return H.radial_battery(4, 0.9) + [
        RadialTestFunction(1.0, 1e-3, SmoothCutoff(0.5, 0.9)).profile()]


# ------------------------------------------------------------ reference
def ref_integral(model, measure, g, hi, spec=SPEC, breakpoints=(), lo=None):
    """(value, error) of cp * integral of g(rho) * radial density."""
    cp = model.cp_constant(measure)
    lo = FLOOR * hi if lo is None else lo
    cuts = sorted({lo, hi, *[b for b in breakpoints if lo < b < hi]})
    total, err = 0.0, 0.0

    def h(rho):
        return np.asarray(g(rho), dtype=float) * \
            model.radial_volume_density(rho)

    for a, b in zip(cuts[:-1], cuts[1:]):
        v, e = radial_integrate(h, (a, b), spec)
        total += v
        err += e
    return cp * total, cp * err


def ref_lap(model, prof, rho):
    return prof.d2(rho) + prof.d1(rho) * \
        np.asarray(model.radial_mean_curvature(rho))


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
                        hi, breakpoints=bks)
    rem = (0.0, 0.0) if model.curvature == 0.0 else ref_integral(
        model, measure, lambda rho: prof.f(rho) ** 2 * rho ** (-2.0 - beta)
        * model.comparison_remainder(rho), hi, breakpoints=bks)
    terms = {"lhs": lhs, "main": scaled(gam * gam, main),
             "remainder": scaled(c_rem, rem)}
    slack = terms["lhs"][0] - terms["main"][0] - terms["remainder"][0]
    return terms, slack, {}


def ref_hardy_bv(model, measure, prof, beta):
    terms, slack, _ = ref_hardy(model, measure, prof, beta)
    coeff = H.bv_constant(model) / model.uniformity
    extra = ref_integral(model, measure,
                         lambda rho: prof.f(rho) ** 2 * rho ** (-beta),
                         prof.support, breakpoints=prof.breakpoints)
    terms["brezis_vazquez"] = scaled(coeff, extra)
    return terms, slack - terms["brezis_vazquez"][0], {}


def ref_poincare(model, measure, prof):
    n = model.n
    hi, bks = prof.support, prof.breakpoints
    lhs = ref_integral(model, measure,
                       lambda rho: prof.f(rho) ** 2 * rho ** (2.0 - n),
                       hi, breakpoints=bks)
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
        hi, breakpoints=bks)
    grad = ref_integral(model, measure,
                        lambda rho: prof.d1(rho) ** 2 * rho ** (-beta),
                        hi, breakpoints=bks)
    mass = ref_integral(model, measure, lambda rho: prof.f(rho) ** 2,
                        hi, breakpoints=bks)
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
    hi, bks = prof.support, prof.breakpoints
    t1 = ref_integral(
        model, measure, lambda rho: prof.f(rho) ** 2 * -np.asarray(
            model.radial_laplacian(nn, rho)),
        hi, breakpoints=bks)
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
    f0 = float(prof.f(np.array([FLOOR * hi]))[0])
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
                      hi, breakpoints=bks)
    w4_rem = (0.0, 0.0) if model.curvature == 0.0 else ref_integral(
        model, measure, lambda rho: prof.f(rho) ** 2 * rho ** (-4.0 - beta)
        * model.comparison_remainder(rho), hi, breakpoints=bks)
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
                      hi, breakpoints=bks)
    w2_rem = ref_integral(
        model, measure, lambda rho: prof.f(rho) ** 2 * rho ** (-2.0 - beta)
        * model.comparison_remainder(rho), hi, breakpoints=bks)
    w0 = ref_integral(model, measure,
                      lambda rho: prof.f(rho) ** 2 * rho ** (-beta),
                      hi, breakpoints=bks)
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
        de1 = ref_integral(
            model, measure, lambda rho: (ref_lap(model, prof, rho)
                                         + q * prof.f(rho) / rho**2) ** 2
            * rho ** (-beta), hi, breakpoints=bks)[0]
        rhs = (lhs[0] - delta * w4[0] - c_rem4 * w4_rem[0]
               - 2.0 * q * cbv / lam * w2[0])
        checks = {"de1_lhs": de1, "de1_rhs": rhs,
                  "de1_ok": bool(de1 <= rhs + tol and de1 >= -tol)}
    return terms, slack, checks


def ref_sweep_rows(model, measure, gamma, order, eps_list, r, R):
    """The sweep rows from one pass: ``ref_integral`` on every shell between
    the cuts eps..., r, R (and FLOOR * min eps below them on curved
    models), one call per shell and column, and each row a sum over the
    shells above its eps, added from the outermost shell inward."""
    n = model.n
    beta = (n - 2.0 - 2.0 * gamma) if order == 1 else (n - 4.0 - 2.0 * gamma)
    weight = 2.0 + beta if order == 1 else 4.0 + beta
    cp = model.cp_constant(measure)
    eps_list = sorted(eps_list, reverse=True)
    prof = RadialTestFunction(gamma, eps_list[-1],
                              SmoothCutoff(r, R)).profile()
    curved = model.curvature != 0.0
    floor = [FLOOR * eps_list[-1]] if curved else []
    cuts = floor + eps_list[::-1] + [r, R]
    if order == 1:
        def energy(rho):
            return prof.d1(rho) ** 2 * rho ** (-beta)
    else:
        def energy(rho):
            return ref_lap(model, prof, rho) ** 2 * rho ** (-beta)
    columns = (energy, lambda rho: prof.f(rho) ** 2 * rho ** (-weight),
               lambda rho: rho ** (-n), lambda rho: rho ** (-weight))
    shells = [[ref_integral(model, measure, g, b, lo=a) for g in columns]
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
        j1_exact = float("nan") if curved else cp * math.log(r / eps)
        rows.append(H.SweepRow(eps, i1, i2, i1 / i2, j1, j1_exact,
                               err).as_dict())
    return rows


def ref_sweep_row_per_eps(model, measure, gamma, order, eps, r, R):
    """The row of one eps from its own profile, region by region: the
    annulus (eps, r), the cutoff region (r, R) and the inner ball (0, eps),
    with J1 on the annulus rule for n <= 4."""
    n = model.n
    beta = (n - 2.0 - 2.0 * gamma) if order == 1 else (n - 4.0 - 2.0 * gamma)
    cp = model.cp_constant(measure)
    prof = RadialTestFunction(gamma, eps, SmoothCutoff(r, R)).profile()
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
            lo=FLOOR * eps)
        err += inner_err
    tail = ref_integral(model, measure,
                        lambda rho: prof.f(rho) ** 2 * rho ** (-weight),
                        R, lo=r)
    i2 = inner + j1_val + tail[0]
    err += tail[1]
    j1_exact = cp * math.log(r / eps) if model.curvature == 0.0 \
        else float("nan")
    j1_quad = annulus_integrate(model, measure, lambda rr, ww: rr ** (-n),
                                eps, r, SPEC)[0] if n <= 4 else j1_val
    return H.SweepRow(eps, i1, i2, i1 / i2, j1_quad, j1_exact, err).as_dict()


# ------------------------------------------------------------------ tests
def assert_report(rep, want):
    terms, slack, checks = want
    assert {k: (t.value, t.error) for k, t in rep.terms.items()} == terms
    tol = ref_budget(terms)
    assert (rep.slack, rep.slack_tolerance, rep.passed) == \
        (slack, tol, slack >= -tol)
    assert rep.checks == checks


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
            assert H.gbeta(model, "bh", prof, beta, SPEC) == want
            rep = H.rellich_report(model, "bh", prof, beta, SPEC)
            assert_report(rep, ref_rellich(model, "bh", prof, beta))
            assert (rep.constants["gbeta_value"],
                    rep.constants["gbeta_scale"]) == want[:2]
            if model.curvature < 0.0 and prof.label.startswith("trunc"):
                # the kinked member's Delta u has a singular part on
                # rho = eps, which the refined report's terms would miss
                with pytest.raises(H.PreconditionError, match="C\\^1"):
                    H.rellich_bv_report(model, "bh", prof, beta, SPEC)
            elif model.curvature < 0.0:
                # both betas are below n - 4, so both carry the de1 check
                rep = H.rellich_bv_report(model, "bh", prof, beta, SPEC)
                assert_report(rep, ref_rellich_bv(model, "bh", prof, beta))
                assert set(rep.checks) == {"de1_lhs", "de1_rhs", "de1_ok"}
                assert (rep.constants["gbeta_value"],
                        rep.constants["gbeta_scale"]) == want[:2]


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
        assert [row.as_dict() for row in tab.rows] == want


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
        assert inner in calls[0], report.__name__
    # every sweep, flat or curved and at any n, is one pass cut at every
    # eps, r and R (and the floor under the inner ball on curved models)
    eps_list = (1e-2, 1e-3)
    for model in (h, RandersFlat(3, 0.5), HyperbolicBall(4, -1.0)):
        for sweep, _, beta in sweeps_of(model):
            calls.clear()
            sweep(model, "bh", beta, 0.4, 0.9, eps_list, SPEC)
            floor = (FLOOR * 1e-3,) if model.curvature else ()
            assert calls == [("segments", *floor, 1e-3, 1e-2, 0.4, 0.9)]
