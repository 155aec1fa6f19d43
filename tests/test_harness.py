"""Inequality reports, admissibility functional, sharpness sweeps, campaign."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import finslerineq
from finslerineq import fields as fc
from finslerineq import harness as H
from finslerineq import minkowski
from finslerineq.minkowski import MinkowskiNorm
from finslerineq.models import (HyperbolicBall, RandersFlat, cutoff_profile,
                                euclidean_flat, truncated_profile)
from finslerineq.quadrature import QuadratureSpec
from oracles import refined_cs_campaign_oneshot, rising_profile, \
    sampled_uniformity_full_grid, scaled_profile, segment_convexity_margin

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
    lap = prof.d2(rho) + prof.d1(rho) * np.asarray(
        m.radial_mean_curvature(rho))
    want = gamma**2 * ((m.n + beta) / 2.0) ** 2 * rho ** (-m.n)
    assert np.allclose(lap**2 * rho ** (-beta) * rho ** (2 * gamma + 4),
                       want * rho ** (2 * gamma + 4), rtol=1e-12)


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


# -------------------------------------------------------------------- sweeps
def test_hardy_sweep_flat():
    m = RandersFlat(3, 0.5)
    tab = H.hardy_sharpness_sweep(m, "bh", 0.0, 0.5, 1.0,
                                  [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], SPEC)
    assert tab.sharp_constant == 0.25
    assert tab.monotone and tab.passed
    assert tab.extrapolated == pytest.approx(0.25, rel=1e-6)
    assert tab.extrapolated_moebius == pytest.approx(0.25, rel=1e-6)
    assert tab.gap_coefficient > 0.0
    # J1 identity rows
    for row in tab.rows:
        assert row.j1_quadrature == pytest.approx(row.j1_exact, rel=1e-6)


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
    assert tab.extrapolated_moebius == pytest.approx(9.0, rel=1e-5)


def test_rellich_sweep_preconditions():
    with pytest.raises(H.PreconditionError):
        H.rellich_sharpness_sweep(RandersFlat(5, 0.5), "bh", 1.5, 0.5, 1.0,
                                  [1e-2], SPEC)
    with pytest.raises(H.PreconditionError):
        H.hardy_sharpness_sweep(RandersFlat(3, 0.5), "bh", 0.0, 0.5, 1.0,
                                [0.7], SPEC)


# ------------------------------------------------------------------ campaign
def test_refined_cs_campaign_properties():
    for b in (0.0, 0.3, 0.7):
        norm = MinkowskiNorm(3, b)
        s = H.refined_cs_campaign(norm, 20000, seed=99)
        assert s.passed
        assert s.min_slack >= -1e-10 * max(1.0, s.min_scale)
        assert s.colinear_max_dev <= 1e-10
        assert s.case2_max_dev <= 1e-9
        assert s.case3_margin >= -1e-9
    s0 = H.refined_cs_campaign(MinkowskiNorm(2, 0.0), 20000, seed=99)
    assert abs(s0.min_slack) <= 1e-12


@pytest.mark.parametrize("n, t, seed", [(3, 0.5, 1234), (2, 0.0, 1),
                                        (5, 0.3, 99), (3, 0.7, 7)])
def test_refined_cs_segment_margin_matches_point_loop(n, t, seed):
    # the CLI's default sample count, so the draws are the CLI's
    norm = MinkowskiNorm(n, t)
    s = H.refined_cs_campaign(norm, 100_000, seed)
    want = segment_convexity_margin(norm, 100_000, seed)
    assert math.isfinite(want)
    assert abs(s.case3_margin - want) <= 1e-13


@pytest.mark.parametrize("n, t, seed, samples, block", [
    (3, 0.5, 1234, 100_000, None), (2, 0.0, 1, 8193, 7),
    (5, 0.3, 99, 250, 1), (3, 0.7, 7, 1, 1), (4, -0.6, 5, 1000, 7)])
def test_streamed_sampling_matches_one_shot(monkeypatch, n, t, seed,
                                            samples, block):
    # the streamed campaign and the row-blocked Lambda_F grid against their
    # all-at-once forms, bit for bit; a small block takes the campaign's 200
    # segment pairs from many blocks, and the grid then scans ``block`` rows
    # of its 400 at a time (with 7, the last block is partial); a negative
    # drift puts the grid's maximum on its last row
    if block is not None:
        monkeypatch.setattr(H, "_CAMPAIGN_BLOCK", block)
        monkeypatch.setattr(minkowski, "_GRID_BLOCK", block * 400)
    norm = MinkowskiNorm(n, t)
    assert H.refined_cs_campaign(norm, samples, seed).as_dict() == \
        refined_cs_campaign_oneshot(norm, samples, seed).as_dict()
    assert norm.sampled_uniformity() == sampled_uniformity_full_grid(norm)


def test_refined_cs_campaign_memory():
    # a fresh interpreter, so the peak is this campaign's alone: holding
    # every pair's temporaries peaks near 145 MB at a million samples, the
    # streamed campaign near 45 MB (8 bytes per sample plus its blocks).
    # VmHWM starts over at exec, where ru_maxrss would keep the high-water
    # mark of the test process that started the child.
    src = str(Path(finslerineq.__file__).parents[1])
    code = ("from finslerineq import harness, minkowski\n"
            "harness.refined_cs_campaign(minkowski.MinkowskiNorm(3, 0.5),"
            " 1_000_000, 1234)\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert int(proc.stdout) <= 80 * 1024      # VmHWM is in kB


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
