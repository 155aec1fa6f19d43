"""Inequality reports, admissibility functional, sharpness sweeps, and the
refined Cauchy-Schwarz certificate."""

import math
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from finslerineq import fields as fc
from finslerineq import harness as H
from finslerineq.cli import main
from finslerineq.minkowski import MinkowskiNorm
from finslerineq.models import (HyperbolicBall, RadialProfile, RandersFlat,
                                cutoff_profile, euclidean_flat,
                                truncated_profile)
from finslerineq.quadrature import QuadratureSpec
from oracles import mean_curvature_s_prime, rising_profile, \
    scaled_profile, segment_convexity_margin

SPEC = QuadratureSpec()
FAST = QuadratureSpec(radial_nodes=12, radial_panels=6, sphere_order=6)


def family(gamma, eps, r=0.5, R=1.0):
    return truncated_profile(gamma, eps, r, R)


# ----------------------------------------------------------------- constants
def test_constants():
    assert H.hardy_gamma(3, 0.0) == 0.5
    assert H.rellich_sharp_constant(6, 0.0) == 9.0
    assert H.rellich_sharp_constant(7, 1.0) == 16.0
    assert H.bv_constant(HyperbolicBall(4, -1.0)) == pytest.approx(0.25)
    assert H.bv_constant(HyperbolicBall(6, -1.0)) == pytest.approx(0.25)
    assert H.poincare_constant(HyperbolicBall(3, -1.0)) == pytest.approx(4.0)
    with pytest.raises(H.PreconditionError):
        H.bv_constant(RandersFlat(3, 0.5))


# -------------------------------------------------------------------- hardy
def test_hardy_flat_remainder_vanishes():
    m = RandersFlat(3, 0.5)
    rep = H.hardy_report(m, "bh", family(0.5, 0.01), 0.0, SPEC)
    assert rep.terms["remainder"].value == 0.0
    assert rep.passed and rep.slack >= -rep.slack_tolerance
    assert rep.constants["gamma"] == 0.5


def test_hardy_hyperbolic_remainder_positive():
    h = HyperbolicBall(4, -1.0)
    for prof in H.radial_battery(5):
        rep = H.hardy_report(h, "bh", prof, 0.0, SPEC)
        assert rep.terms["remainder"].value > 0.0
        assert rep.passed


def test_hardy_truncated_family_slack_shrinks():
    m = RandersFlat(3, 0.5)
    slacks = []
    for eps in (1e-2, 1e-3, 1e-4):
        rep = H.hardy_report(m, "bh", family(0.5, eps), 0.0, SPEC)
        slacks.append(rep.slack / rep.terms["lhs"].value)
    assert slacks[0] > slacks[1] > slacks[2] > 0.0


def test_hardy_precondition():
    with pytest.raises(H.PreconditionError):
        H.hardy_report(RandersFlat(3, 0.5), "bh",
                       cutoff_profile(0.4, 0.9), 1.5, SPEC)


def modulated_field(m, profile_f, profile_d1, support, amp=0.5):
    """w(rho_minus) * (1 + amp * x0/|x|) with analytic differential."""

    def fn(x):
        rho = np.asarray(m.rho_minus(x))
        return profile_f(rho) * (
            1.0 + amp * x[..., 0]
            / np.maximum(np.linalg.norm(x, axis=-1), 1e-300))

    def grad(x):
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        rho = np.asarray(m.rho_minus(x))[..., None]
        drho = x / r
        drho[..., -1] -= m.drift
        mod = 1.0 + amp * x[..., :1] / r
        dmod = -amp * x[..., :1] * x / r**3
        dmod[..., :1] += amp / r
        return profile_d1(rho) * drho * mod + profile_f(rho) * dmod

    return fc.ScalarField(fn, grad, support_radius=support)


def test_hardy_generic_field_path():
    # a radially modulated (non-radial) nonnegative field on the flat model
    m = RandersFlat(3, 0.4)
    psi = cutoff_profile(0.5, 1.0)
    u = modulated_field(m, psi.f, psi.d1, psi.support, amp=0.5)
    spec = QuadratureSpec(radial_nodes=8, radial_panels=4, sphere_order=4)
    rep = H.hardy_report(m, "bh", u, 0.0, spec)
    assert rep.passed
    assert rep.terms["lhs"].value > 0.0


# ----------------------------------------------------------- hardy-bv et al.
def test_hardy_bv_battery():
    h = HyperbolicBall(4, -1.0)
    assert H.bv_constant(h) == pytest.approx(0.25)
    for prof in H.radial_battery(6):
        rep = H.hardy_bv_report(h, "bh", prof, 0.0, SPEC)
        assert rep.passed
        assert rep.terms["brezis_vazquez"].value > 0.0
        assert rep.constants["C"] == pytest.approx(0.25)
    with pytest.raises(H.PreconditionError):
        H.hardy_bv_report(RandersFlat(4, 0.3), "bh",
                          cutoff_profile(0.4, 0.9), 0.0, SPEC)


def test_poincare_battery_and_scaling():
    h = HyperbolicBall(3, -1.0)
    rep = H.poincare_report(h, "bh", cutoff_profile(0.4, 0.9), SPEC)
    assert rep.constants["constant"] == pytest.approx(4.0)
    assert rep.passed
    # both sides are quadratic in v: the ratio is scale invariant
    scaled = scaled_profile(cutoff_profile(0.4, 0.9), 3.0)
    rep2 = H.poincare_report(h, "bh", scaled, SPEC)
    r1 = rep.terms["lhs"].value / rep.terms["gradient_side"].value
    r2 = rep2.terms["lhs"].value / rep2.terms["gradient_side"].value
    assert r1 == pytest.approx(r2, rel=1e-12)
    for prof in H.radial_battery(10):
        assert H.poincare_report(h, "bh", prof, SPEC).passed


def test_uncertainty_battery():
    m = RandersFlat(4, 0.3)
    for prof in H.radial_battery(5):
        rep = H.uncertainty_report(m, "bh", prof, 0.0, SPEC)
        assert rep.passed and rep.slack >= 0.0


def test_uncertainty_consistent_with_hardy():
    # the product bound is never tighter than Hardy plus Cauchy-Schwarz
    m = RandersFlat(4, 0.3)
    prof = cutoff_profile(0.3, 0.8)
    rep = H.uncertainty_report(m, "bh", prof, 0.0, SPEC)
    hardy = H.hardy_report(m, "bh", prof, 0.0, SPEC)
    implied = math.sqrt(rep.terms["weighted_mass"].value) * (
        math.sqrt(hardy.terms["lhs"].value)
        - math.sqrt(hardy.terms["main"].value))
    assert rep.slack >= implied - 1e-9


# -------------------------------------------------------------------- gbeta
def test_gbeta_vanishes_on_radial_nonincreasing():
    for model in (RandersFlat(6, 0.5), HyperbolicBall(6, -1.0)):
        for measure in ("bh", "ht"):
            for beta in (0.0, 1.0):
                for prof in H.radial_battery(4):
                    val, scale, _ = H.gbeta(model, measure, prof, beta, SPEC)
                    assert abs(val) <= 1e-6 * scale


def test_gbeta_truncated_family():
    # the sweep family is in the kernel class by construction
    m = RandersFlat(6, 0.5)
    val, scale, _ = H.gbeta(m, "bh", family(1.0, 1e-3), 0.0, SPEC)
    assert abs(val) <= 1e-6 * scale


def test_gbeta_nonradial_is_nonzero():
    # a deliberately non-radial field: the kernel class is a proper subset
    m = RandersFlat(6, 0.5)
    outer = cutoff_profile(0.55, 1.0)
    inner = cutoff_profile(0.25, 0.45)

    def w(rho):
        return outer.f(rho) * (1.0 - inner.f(rho))

    def w1(rho):
        return outer.d1(rho) * (1.0 - inner.f(rho)) \
            - outer.f(rho) * inner.d1(rho)

    spec = QuadratureSpec(radial_nodes=24, radial_panels=3, sphere_order=2)
    # control: a radial field in the kernel reads zero at this resolution
    kernel = fc.radial_field(m, cutoff_profile(0.55, 1.0))
    val, scale, err = H.gbeta(m, "bh", kernel, 0.0, spec)
    assert abs(val) <= 1e-5 * scale
    u = modulated_field(m, w, w1, outer.support, amp=0.8)
    val, scale, err = H.gbeta(m, "bh", u, 0.0, spec)
    assert abs(val) > 1e-3 * scale


# ------------------------------------------------------------------- rellich
def test_rellich_flat_report():
    m = RandersFlat(6, 0.5)
    rep = H.rellich_report(m, "bh", H.radial_battery(4)[0], 0.0, SPEC)
    assert rep.constants["delta"] == 9.0
    assert rep.passed
    assert rep.terms["remainder"].value == 0.0
    # the truncated family's f' jumps at eps, so its (Delta u)^2 is not
    # integrable and the report rejects it
    with pytest.raises(H.PreconditionError,
                       match="rellich needs a C\\^1 profile.* 0.001"):
        H.rellich_report(m, "bh", family(1.0, 1e-3), 0.0, SPEC)


def test_rellich_radial_laplacian_shortcut():
    # (Delta u)^2 / rho^beta = gamma^2 ((n+beta)/2)^2 rho^{-n} on the annulus
    m = RandersFlat(6, 0.5)
    gamma, beta = 1.0, 0.0
    prof = family(gamma, 1e-2)
    rho = np.linspace(0.05, 0.45, 20)
    lap = prof.d2(rho) + prof.d1(rho) * (m.n - 1) / rho
    want = gamma**2 * ((m.n + beta) / 2.0) ** 2 * rho ** (-m.n)
    assert np.allclose(lap**2 * rho ** (-beta) * rho ** (2 * gamma + 4),
                       want * rho ** (2 * gamma + 4), rtol=1e-12)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("k", [0.0, -1.0, -2.5])
def test_radial_laplacian_reads_the_mean_curvature_from_d(n, k):
    # f = rho has f' = 1 and f'' = 0, so the jet's Laplacian is the mean
    # curvature (n-1)(1 + D)/rho itself: within 8 ulp of (n-1) s'/s on
    # curved models, and the same bits on the flat one, where D = -0.0
    model = euclidean_flat(n) if k == 0.0 else HyperbolicBall(n, k)
    line = RadialProfile.from_jet(
        lambda rho, order=2: (rho, np.ones_like(rho),
                              np.zeros_like(rho))[:order + 1], 5.0)
    rho = np.geomspace(1e-13, 5.0, 20001)
    got = H._RadialJet(model, line, rho).lap
    want = mean_curvature_s_prime(k, n, rho)
    if k == 0.0:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 8 * np.spacing(want))


def test_rellich_hyperbolic_battery():
    h = HyperbolicBall(6, -1.0)
    for prof in H.radial_battery(4):
        rep = H.rellich_report(h, "bh", prof, 0.0, SPEC)
        assert rep.passed
        assert rep.terms["remainder"].value > 0.0


def test_rellich_preconditions():
    m = RandersFlat(6, 0.5)
    with pytest.raises(H.PreconditionError):
        H.rellich_report(m, "bh", family(1.0, 1e-3), 2.5, SPEC)
    with pytest.raises(H.PreconditionError):
        H.rellich_report(RandersFlat(5, 0.5), "bh", family(0.5, 1e-3),
                         1.5, SPEC)


def test_rellich_gbeta_gate():
    # on a nonreversible model F*(f' d rho_minus) = |f'| needs f' <= 0, so
    # every radial report rejects a rising profile, naming the model and
    # the smallest node with f' > 0
    r3, r6 = RandersFlat(3, 0.4), RandersFlat(6, 0.5)
    for report, model in ((H.hardy_report, r3), (H.uncertainty_report, r3),
                          (H.gbeta, r6), (H.rellich_report, r6)):
        with pytest.raises(H.PreconditionError, match=(
                rf"on the nonreversible {re.escape(repr(model))} needs "
                rf"f' <= 0, but f' > 0 at rho = \d")):
            report(model, "bh", rising_profile(), 0.0)


def test_rellich_bv_battery_and_de1():
    h = HyperbolicBall(6, -1.0)
    for prof in H.radial_battery(4):
        rep = H.rellich_bv_report(h, "bh", prof, 0.0, SPEC)
        assert rep.passed
        assert rep.checks["de1_ok"]
        assert rep.checks["de1_lhs"] >= 0.0
        # all five coefficients are closed-form computable
        for key in ("delta", "coeff_remainder4", "coeff_weight2",
                    "coeff_weight2_remainder", "coeff_weight0"):
            assert np.isfinite(rep.constants[key])
    assert rep.constants["C"] == pytest.approx(0.25)
    assert rep.constants["coeff_weight0"] == pytest.approx(0.0625)


def test_rellich_bv_square_completion_decides_passed(monkeypatch, tmp_path):
    # a de1 column above the Rellich excess (de1_rhs <= lhs) fails the
    # intermediate inequality, and with it the report and the CLI run
    terms = H._terms

    def inflated(*args, **kw):
        raw = terms(*args, **kw)
        if "de1" in raw:
            raw["de1"] = H.TermValue(2.0 * raw["lhs"].value + 1.0,
                                     raw["de1"].error)
        return raw

    monkeypatch.setattr(H, "_terms", inflated)
    rep = H.rellich_bv_report(HyperbolicBall(6, -1.0), "bh",
                              H.radial_battery(1)[0], 0.0, SPEC)
    assert rep.slack >= -rep.slack_tolerance and not rep.checks["de1_ok"]
    assert not rep.passed
    assert main(["rellich-bv", "--out", str(tmp_path / "run")]) == 1


def test_rellich_bv_rejects_kinked_profiles():
    # the truncated family's f' jumps by -1e6 at eps = 1e-3, so Delta u has
    # a singular part on that sphere which the (Delta u)^2 terms miss
    h = HyperbolicBall(6, -1.0)
    kinked = truncated_profile(1.0, 1e-3, 0.5, 0.9)
    for beta in (0.0, 1.0):
        with pytest.raises(H.PreconditionError,
                           match="refined rellich needs a C\\^1.* 0.001"):
            H.rellich_bv_report(h, "bh", kinked, beta, SPEC)
    # smooth profiles whose one-sided derivatives at a cutoff breakpoint
    # differ by rounding still pass
    for prof in H.radial_battery(20, 0.9):
        assert H.rellich_bv_report(h, "bh", prof, 0.0, SPEC).passed


def test_domains_name_the_theorem_n_and_beta():
    with pytest.raises(H.PreconditionError,
                       match=r"hardy-bv needs n - 2 > beta, got n=4, "
                             r"beta=2.5"):
        H.hardy_bv_report(HyperbolicBall(4, -1.0), "bh",
                          H.radial_battery(1)[0], 2.5, SPEC)
    with pytest.raises(H.PreconditionError,
                       match=r"rellich needs -2 < beta < n - 4, got n=5, "
                             r"beta=1.0"):
        H.rellich_report(RandersFlat(5, 0.5), "bh", H.radial_battery(1)[0],
                         1.0, SPEC)
    # gbeta itself takes a beta outside the Rellich domain (n = 3, beta = -1)
    m = RandersFlat(3, 0.4)
    val, scale, _ = H.gbeta(m, "bh", H.radial_battery(1, 0.9)[0], -1.0, SPEC)
    assert H.gbeta_member(val, scale)
    assert not H.gbeta_member(2.0 * H.GBETA_BAND, 1.0)


def test_rellich_bv_unit_uniformity_simplification():
    h = HyperbolicBall(6, -1.0)
    rep = H.rellich_bv_report(h, "bh", cutoff_profile(0.4, 0.9), 0.0, SPEC)
    c = rep.constants["C"]
    assert rep.constants["coeff_weight0"] == pytest.approx(c * c)
    assert rep.constants["coeff_weight2_remainder"] == \
        pytest.approx((6 - 1) * (6 - 2) * c)


def test_refined_reports_reject_in_domain_order():
    # beta's domain before k < 0, and k < 0 before a non-radial input
    r6 = RandersFlat(6, 0.5)
    u = fc.radial_field(r6, H.radial_battery(1, 0.9)[0])
    for report, beta, match in (
            (H.hardy_bv_report, 4.5, r"hardy-bv needs n - 2 > beta"),
            (H.rellich_bv_report, 4.5, r"refined rellich needs 0 <= beta"),
            (H.rellich_bv_report, 0.0, r"need k < 0, got k=0.0")):
        with pytest.raises(H.PreconditionError, match=match):
            report(r6, "bh", u, beta, SPEC)


# ------------------------------------------------------------- term tables
# every column is live on the hyperbolic ball; the last entry is the big
# side, from which the slack subtracts every other term
TABLES = {
    "hardy": (H.hardy_report, HyperbolicBall(4, -1.0), (0.0,), "lhs"),
    "hardy-bv": (H.hardy_bv_report, HyperbolicBall(4, -1.0), (0.0,), "lhs"),
    "poincare": (H.poincare_report, HyperbolicBall(3, -1.0), (),
                 "gradient_side"),
    "rellich": (H.rellich_report, HyperbolicBall(6, -1.0), (0.0,), "lhs"),
    "rellich-bv": (H.rellich_bv_report, HyperbolicBall(6, -1.0), (1.0,),
                   "lhs"),
}


def table_report(name, member=0):
    report, model, beta, _ = TABLES[name]
    return report(model, "bh", H.radial_battery(4)[member], *beta, FAST)


@pytest.mark.parametrize("name", TABLES)
def test_each_coefficient_scales_its_term_alone(monkeypatch, name):
    # the evaluator is the one seam between a coefficient and its term: a
    # coefficient read x1.01 there moves that term alone, by that factor,
    # and the slack by the term's change
    evaluate, tables = H._evaluate, []

    def record(table, *args):
        tables.append(table)
        return evaluate(table, *args)

    monkeypatch.setattr(H, "_evaluate", record)
    base = table_report(name)
    (table,) = tables
    assert all(col is not None for col, _ in table.values())
    scaled = {term: key for term, (_, key) in table.items() if key}
    assert len(scaled) == len(set(scaled.values())) >= 1
    big = TABLES[name][3]
    ulp = 2.0 ** -52 * max(abs(t.value) for t in base.terms.values())
    for term, key in scaled.items():
        def bumped(table, constants, *args, key=key):
            return evaluate(table, {**constants, key: 1.01 * constants[key]},
                            *args)

        monkeypatch.setattr(H, "_evaluate", bumped)
        rep = table_report(name)
        old, new = base.terms[term].value, rep.terms[term].value
        assert old != 0.0
        assert {t for t in rep.terms if rep.terms[t] != base.terms[t]} == \
            {term}
        assert new == pytest.approx(1.01 * old, rel=4e-16)
        change = new - old if term == big else old - new
        assert rep.slack - base.slack == pytest.approx(change, abs=8 * ulp)


@pytest.mark.parametrize("name", TABLES)
def test_slack_is_the_big_side_minus_the_others_in_term_order(name):
    # rellich-bv's members 0 and 1 tell this rule from lhs - sum(others)
    big = TABLES[name][3]
    for member in range(4):
        rep = table_report(name, member)
        slack = rep.terms[big].value
        for term, t in rep.terms.items():
            if term != big:
                slack -= t.value
        assert rep.slack == slack


# -------------------------------------------------------------------- sweeps
def test_hardy_sweep_flat():
    m = RandersFlat(3, 0.5)
    tab = H.hardy_sharpness_sweep(m, "bh", 0.0, 0.5, 1.0,
                                  [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], SPEC)
    assert tab.sharp_constant == 0.25
    assert tab.monotone and tab.passed
    assert tab.extrapolated == pytest.approx(0.25, rel=1e-6)
    assert tab.gap_coefficient > 0.0
    # J1 identity rows: |S^2|_bh log(r/eps) on the flat model
    for row in tab.rows:
        assert row.j1_quadrature == pytest.approx(
            m.cp_constant("bh") * math.log(0.5 / row.eps), rel=1e-6)


def test_hardy_sweep_quotient_gap_structure():
    # the gap R - gamma^2 decays like c / log(r/eps)
    m = RandersFlat(3, 0.5)
    tab = H.hardy_sharpness_sweep(m, "bh", 0.0, 0.5, 1.0,
                                  [1e-2, 1e-3, 1e-4, 1e-5], SPEC)
    ls = np.log(0.5 / np.array([row.eps for row in tab.rows]))
    gaps = np.array([row.quotient for row in tab.rows]) - 0.25
    products = gaps * ls
    assert np.all(gaps > 0)
    # products stabilize (within 25% across the sweep)
    assert np.max(products) / np.min(products) < 1.25


def test_hardy_sweep_measure_invariance():
    m = RandersFlat(3, 0.5)
    bh = H.hardy_sharpness_sweep(m, "bh", 0.0, 0.5, 1.0,
                                 [1e-3, 1e-4, 1e-5], SPEC)
    ht = H.hardy_sharpness_sweep(m, "ht", 0.0, 0.5, 1.0,
                                 [1e-3, 1e-4, 1e-5], SPEC)
    for a, b in zip(bh.rows, ht.rows):
        assert a.quotient == pytest.approx(b.quotient, rel=1e-12)
    assert ht.extrapolated == pytest.approx(0.25, rel=1e-6)


def test_hardy_sweep_quotient_scale_invariance():
    # I1 and I2 are quadratic in u, so the quotient ignores u -> c u;
    # verified through the report path on a scaled profile
    m = RandersFlat(3, 0.5)
    prof = family(0.5, 1e-3)
    rep = H.hardy_report(m, "bh", prof, 0.0, SPEC)
    rep10 = H.hardy_report(m, "bh", scaled_profile(prof, 10.0), 0.0, SPEC)
    q1 = rep.terms["lhs"].value / rep.terms["main"].value
    q2 = rep10.terms["lhs"].value / rep10.terms["main"].value
    assert q1 == pytest.approx(q2, rel=1e-12)


def test_hardy_sweep_euclidean():
    e = euclidean_flat(3)
    tab = H.hardy_sharpness_sweep(e, "bh", 0.0, 0.5, 1.0,
                                  [1e-2, 1e-3, 1e-4], SPEC)
    assert tab.extrapolated == pytest.approx(0.25, rel=1e-6)


def test_hardy_sweep_nonzero_beta():
    m = RandersFlat(5, 0.3)
    beta = 1.0
    tab = H.hardy_sharpness_sweep(m, "bh", beta, 0.5, 1.0,
                                  [1e-2, 1e-3, 1e-4], SPEC)
    assert tab.extrapolated == pytest.approx(1.0, rel=1e-6)  # ((5-2-1)/2)^2


def test_rellich_sweep_flat():
    m = RandersFlat(6, 0.5)
    tab = H.rellich_sharpness_sweep(m, "bh", 0.0, 0.5, 1.0,
                                    [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], SPEC)
    assert tab.sharp_constant == 9.0
    assert tab.passed and tab.monotone
    assert tab.extrapolated == pytest.approx(9.0, rel=1e-6)


@pytest.mark.parametrize("sweep, n, beta", [
    ("hardy_sharpness_sweep", 3, 0.3), ("hardy_sharpness_sweep", 3, 0.1),
    ("rellich_sharpness_sweep", 5, 0.3), ("rellich_sharpness_sweep", 6, 0.1)])
def test_sweeps_integrate_at_their_own_beta(monkeypatch, sweep, n, beta):
    # at these beta, n - 2 - 2 gamma (n - 4 - 2 gamma) is not beta to the
    # last bit; the energy and mass columns take the beta of the call
    built = []
    for name in ("_du2", "_lap2", "_u2"):
        def record(p, *args, _name=name, _column=getattr(H, name)):
            built.append((_name, p))
            return _column(p, *args)
        monkeypatch.setattr(H, name, record)
    getattr(H, sweep)(RandersFlat(n, 0.5), "bh", beta, 0.5, 1.0,
                      [1e-1, 1e-2, 1e-3], FAST)
    energy, weight = ("_du2", 2.0) if sweep.startswith("hardy") \
        else ("_lap2", 4.0)
    assert sorted(built) == [(energy, -beta), ("_u2", -(weight + beta))]


def test_rellich_sweep_preconditions():
    with pytest.raises(H.PreconditionError):
        H.rellich_sharpness_sweep(RandersFlat(5, 0.5), "bh", 1.5, 0.5, 1.0,
                                  [1e-2], SPEC)
    with pytest.raises(H.PreconditionError):
        H.hardy_sharpness_sweep(RandersFlat(3, 0.5), "bh", 0.0, 0.5, 1.0,
                                [0.7], SPEC)


# --------------------------------------------------------------- certificate
def _pair_grid(n, a=H._CS_ANGLES, b=H._CS_ANGLES, c=H._CS_AZIMUTHS,
               s=H._CS_RATIOS):
    """The certificate's pairs, embedded in R^n, as (k, n) stacks."""
    if n == 2:
        c = c[[0, -1]]
    xi, eta = H._reduced_pair(n, *np.ix_(a, b, c, s))
    xi, eta = np.broadcast_arrays(xi, eta)
    return xi.reshape(-1, n), eta.reshape(-1, n)


@pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 0.9, -0.6])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_refined_cs_certificate(n, t):
    norm = MinkowskiNorm(n, t)
    lam = norm.uniformity()
    s = H.refined_cs_campaign(norm)
    assert s.passed
    assert s.pairs == (86_247 if n > 2 else 19_166)
    # the whole grid, every pair in R^n: the scale is not F*^2(xi + eta),
    # which is 0 at s = 1 on the antipodal pairs
    xi, eta = _pair_grid(n)
    fs_xi, fs_eta = norm.dual_norm(xi) ** 2, norm.dual_norm(eta) ** 2
    slack = norm.refined_cs_slack(xi, eta)
    assert np.all(slack >= -1e-12 * np.maximum(fs_xi, fs_eta))
    # 1/Lambda_F is the best constant: the smallest ratio reaches it, as
    # far as the cancellation at small s lets it
    assert abs(s.min_ratio * lam - 1.0) <= 1e-6
    assert abs(np.min(slack / fs_eta) * lam) <= 1e-6
    assert s.min_slack >= -1e-10 * s.min_scale
    # equality on the drift axis: xi on its short side, eta = -s xi with
    # 0 < s <= 1
    x0 = np.zeros(n)
    x0[-1] = -1.0 if t >= 0.0 else 1.0
    e0 = -np.array([0.01, 0.3, 0.7, 1.0])[:, None] * x0
    scale = np.maximum(norm.dual_norm(x0) ** 2, norm.dual_norm(e0) ** 2)
    assert np.all(np.abs(norm.refined_cs_slack(x0, e0)) <= 1e-12 * scale)
    assert s.drift_axis_max_dev <= 1e-12
    # the argmin in R^n has the reduced pair's slack, up to the regrouped
    # sums of the zero coordinates
    x, e = np.array(s.argmin_xi), np.array(s.argmin_eta)
    assert (x.shape, e.shape) == ((n,), (n,))
    dim = min(n, 3)
    rx, reta = H._reduced_pair(dim, *s.argmin_params)
    want = MinkowskiNorm(dim, t).refined_cs_slack(rx, reta)
    got = norm.refined_cs_slack(x, e)
    scale = max(norm.dual_norm(x) ** 2, norm.dual_norm(e) ** 2)
    assert abs(got - want) <= 1e-12 * scale
    assert abs(got / norm.dual_norm(e) ** 2 + 1.0 / lam - s.min_ratio) \
        <= 1e-12 * scale / norm.dual_norm(e) ** 2


def test_refined_cs_certificate_costs_the_same_at_any_n():
    # the grid lies in R^3 at every n >= 3, so only dim and the argmin's
    # embedding differ, and the tracemalloc peak barely moves
    def run(n):
        tracemalloc.start()
        try:
            s = asdict(H.refined_cs_campaign(MinkowskiNorm(n, 0.9)))
            return s, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (low, peak_low), (high, peak_high) = run(3), run(200)
    for key in ("dim", "argmin_xi", "argmin_eta"):
        assert low.pop(key) != high.pop(key)
    assert low == high
    assert peak_high <= 1.1 * peak_low


@pytest.mark.parametrize("n, t", [(3, 0.5), (2, 0.0), (5, 0.3), (3, 0.7),
                                  (4, -0.6)])
def test_refined_cs_segment_margin_matches_point_loop(n, t):
    # the certificate's segment grid, embedded in R^n, one point at a time
    norm = MinkowskiNorm(n, t)
    xi, eta = _pair_grid(n, H._CS_ANGLES[::9], H._CS_ANGLES[::9],
                         s=H._CS_RATIOS[::3])
    want = segment_convexity_margin(norm, xi, eta)
    assert math.isfinite(want)
    assert abs(H.refined_cs_campaign(norm).case3_margin - want) <= 1e-13


@pytest.mark.parametrize("n, t, rows", [
    (3, 0.5, None), (2, 0.0, 5), (5, 0.3, 1), (3, 0.7, 0), (4, -0.6, 1)])
def test_blocked_grids_match_one_shot(monkeypatch, n, t, rows):
    # the row-blocked certificate against its all-at-once form, bit for bit,
    # with blocks of ``rows`` rows of a (a row holds every b, c and s; None
    # keeps the module's block); a block below one row, as 0 gives, still
    # scans one a at a time, and 5 of the 37 rows leave a partial last
    # block; a positive drift puts the grid's minimum on its last row, a
    # negative one on its first
    norm = MinkowskiNorm(n, t)
    row = H._CS_ANGLES.size * (H._CS_AZIMUTHS.size if n > 2 else 2) \
        * H._CS_RATIOS.size
    blocked = H._CS_BLOCK if rows is None else rows * row
    monkeypatch.setattr(H, "_CS_BLOCK", 1 << 30)
    whole = asdict(H.refined_cs_campaign(norm))
    monkeypatch.setattr(H, "_CS_BLOCK", blocked)
    assert asdict(H.refined_cs_campaign(norm)) == whole


def test_battery_profiles_admissible():
    for prof in H.radial_battery(12):
        rho = np.linspace(1e-3, prof.support * 0.999, 200)
        assert np.all(prof.d1(rho) <= 1e-12)
        assert np.all(prof.f(rho) >= 0.0)
        assert prof.f(np.array([prof.support * 1.01]))[0] == 0.0


def test_hardy_bv_coefficient_on_unit_uniformity():
    # Lambda_F = 1 on the hyperbolic model: the remainder coefficient is C
    h = HyperbolicBall(4, -1.0)
    rep = H.hardy_bv_report(h, "bh", cutoff_profile(0.4, 0.9), 0.0, SPEC)
    assert rep.constants["bv_coefficient"] == rep.constants["C"] == 0.25


def test_uncertainty_coefficient_degenerates():
    # beta -> n-2 drives the right-hand coefficient to zero
    m = RandersFlat(4, 0.3)
    rep = H.uncertainty_report(m, "bh", cutoff_profile(0.4, 0.9),
                               1.999, SPEC)
    assert rep.constants["coefficient"] == pytest.approx(0.0005, abs=1e-12)
    assert rep.passed
