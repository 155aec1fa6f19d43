"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import json
import math
import time

import numpy as np
import pytest

from finslerineq import fields as fc
from finslerineq import harness as H
from finslerineq.cli import RunConfig, run
from finslerineq.minkowski import MinkowskiNorm
from finslerineq.models import HyperbolicBall, RandersFlat
from finslerineq.quadrature import QuadratureSpec
from oracles import gradient, negated, reverse, scaled_profile

SPEC = QuadratureSpec()


def _report(num, desc):
    print(f"ACCEPTANCE {num:02d} PASS - {desc}")


def _sweep_eps():
    return [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]


def test_criterion_01_hardy_sharpness_randers():
    start = time.monotonic()
    m = RandersFlat(3, 0.5)
    limits = {}
    for measure in ("bh", "ht"):
        tab = H.hardy_sharpness_sweep(m, measure, 0.0, 0.5, 1.0,
                                      _sweep_eps(), SPEC)
        qs = [row.quotient for row in tab.rows]
        assert all(a > b for a, b in zip(qs, qs[1:])), \
            "quotients must strictly decrease"
        assert abs(tab.extrapolated - 0.25) <= 0.01 * 0.25
        limits[measure] = tab.extrapolated
    assert abs(limits["bh"] - limits["ht"]) <= 0.01 * 0.25
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(1, f"hardy sharpness limit 0.25 on BH and HT "
               f"(bh={limits['bh']:.6f}, ht={limits['ht']:.6f}, "
               f"{elapsed:.1f}s)")


def test_criterion_02_exact_annulus_mass():
    m = RandersFlat(3, 0.5)
    tab = H.hardy_sharpness_sweep(m, "bh", 0.0, 0.5, 1.0, _sweep_eps(), SPEC)
    worst = 0.0
    for row in tab.rows:
        exact = tab.constants["cp"] * math.log(0.5 / row.eps)
        rel = abs(row.j1_quadrature - exact) / exact
        worst = max(worst, rel)
        assert rel <= 1e-6
    _report(2, f"annulus mass matches n*omega_n*log(r/eps), worst rel "
               f"{worst:.2e}")


def test_criterion_03_refined_cauchy_schwarz():
    rng = np.random.default_rng(314159)
    worst_rel = 0.0
    for b in (0.0, 0.3, 0.7):
        for n in (2, 3, 5):
            norm = MinkowskiNorm(n, b)
            xi = rng.standard_normal((100_000, n))
            eta = rng.standard_normal((100_000, n))
            slack = np.asarray(norm.refined_cs_slack(xi, eta))
            scale = np.maximum(1.0,
                               np.asarray(norm.dual_norm(xi + eta)) ** 2)
            assert np.all(slack >= -1e-10 * scale)
            worst_rel = min(worst_rel, float(np.min(slack / scale)))
            if b == 0.0:
                assert np.max(np.abs(slack)) <= 1e-12
            # colinear-positive tightness, exact identity
            s = rng.uniform(0.05, 1.5, size=2000)
            xi_c = rng.standard_normal((2000, n))
            got = np.asarray(norm.refined_cs_slack(xi_c, s[:, None] * xi_c))
            want = s**2 * np.asarray(norm.dual_norm(xi_c)) ** 2 \
                * (1.0 - 1.0 / norm.uniformity())
            assert np.max(np.abs(got - want)) <= 1e-12
    _report(3, f"refined Cauchy-Schwarz on 9x1e5 pairs, min rel slack "
               f"{worst_rel:.2e}")


def test_criterion_04_asymmetry_constants():
    for b in (0.3, 0.5, 0.7):
        norm = MinkowskiNorm(3, b)
        lam_exact = (1.0 + b) / (1.0 - b)
        # closed forms reported exactly
        assert norm.reversibility() == lam_exact
        assert norm.uniformity() == lam_exact**2
        assert abs(norm.sampled_reversibility() - lam_exact) <= 0.01 * lam_exact
        assert abs(norm.sampled_uniformity() - lam_exact**2) <= \
            0.01 * lam_exact**2
    _report(4, "sampled lambda_F and Lambda_F within 1% of closed forms "
               "for b in {0.3, 0.5, 0.7}")


def _random_bump_field(rng, n, drift):
    centers = rng.uniform(-0.8, 0.8, size=(3, n))
    widths = rng.uniform(0.6, 2.0, size=3)
    amps = rng.uniform(-1.0, 1.0, size=3)

    def fn(x):
        d = x[..., None, :] - centers
        return np.sum(amps * np.exp(-np.sum(d * d, axis=-1) / widths),
                      axis=-1)

    def grad(x):
        d = x[..., None, :] - centers
        e = amps * np.exp(-np.sum(d * d, axis=-1) / widths)
        return np.sum((-2.0 * e / widths)[..., None] * d, axis=-2)

    return fc.ScalarField(fn, grad, support_radius=10.0)


def test_criterion_05_reverse_metric_identities():
    rng = np.random.default_rng(2718)
    m = RandersFlat(3, 0.5)
    rev = reverse(m)
    grad_worst = 0.0
    lap_worst = 0.0
    skipped = 0
    total = 0
    for _ in range(100):
        f = _random_bump_field(rng, 3, m.drift)
        pts = rng.uniform(-1.0, 1.0, size=(100, 3))
        total += len(pts)
        lhs = gradient(m, negated(f), pts)
        rhs = -gradient(rev, f, pts)
        scale = np.maximum(1.0, np.linalg.norm(rhs, axis=-1))
        grad_worst = max(grad_worst, float(np.max(
            np.max(np.abs(lhs - rhs), axis=-1) / scale)))
        lap_l = fc.numeric_laplacian(m, "bh", negated(f), pts)
        lap_r = -fc.numeric_laplacian(rev, "bh", f, pts)
        # NaN marks the measure-zero critical set, excluded
        live = ~(np.isnan(lap_l) | np.isnan(lap_r))
        skipped += int(np.count_nonzero(~live))
        lap_worst = max(lap_worst, float(np.max(
            np.abs(lap_l - lap_r) / np.maximum(1.0, np.abs(lap_r)),
            where=live, initial=0.0)))
    assert grad_worst <= 1e-9
    assert lap_worst <= 1e-4
    assert skipped <= 0.02 * total
    _report(5, f"reverse-metric identities on 100x100 samples "
               f"(grad {grad_worst:.1e}, laplacian {lap_worst:.1e}, "
               f"{skipped} critical points excluded)")


def test_criterion_06_gbeta_vanishing():
    m = RandersFlat(6, 0.5)
    worst = 0.0
    for measure in ("bh", "ht"):
        for beta in (0.0, 1.0):
            for prof in H.radial_battery(10):
                val, scale, _ = H.gbeta(m, measure, prof, beta, SPEC)
                worst = max(worst, abs(val) / scale)
                assert abs(val) <= 1e-6 * scale
    _report(6, f"G^beta vanishes on 10-profile batteries, both measures, "
               f"beta in {{0, 1}} (worst {worst:.1e})")


def test_criterion_07_rellich_sharpness():
    start = time.monotonic()
    m = RandersFlat(6, 0.5)
    tab = H.rellich_sharpness_sweep(m, "bh", 0.0, 0.5, 1.0, _sweep_eps(),
                                    SPEC)
    assert abs(tab.extrapolated - 9.0) <= 0.01 * 9.0
    qs = [row.quotient for row in tab.rows]
    assert all(a > b for a, b in zip(qs, qs[1:]))
    # closed-form radial Laplacian against the divergence-form FD oracle
    rng = np.random.default_rng(607)

    def grad(x):
        out = x / np.linalg.norm(x, axis=-1, keepdims=True)
        out[..., -1] -= m.drift
        return -1.0 * np.asarray(m.rho_minus(x))[..., None] ** -2.0 * out

    u = fc.ScalarField(lambda x: np.asarray(m.rho_minus(x)) ** -1.0, grad,
                       10.0)
    for rho_target in (0.35, 0.55, 0.8):
        x = rng.standard_normal(6)
        x *= rho_target / float(m.rho_minus(x))
        fd = fc.numeric_laplacian(m, "bh", u, x)
        closed = m.radial_laplacian(1.0, rho_target)
        assert abs(fd - closed) / abs(closed) <= 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(7, f"rellich sharpness limit 9 with FD-checked Laplacian "
               f"({tab.extrapolated:.6f}, {elapsed:.1f}s)")


def test_criterion_08_brezis_vazquez_refinements():
    for n in (4, 6):
        h = HyperbolicBall(n, -1.0)
        assert H.bv_constant(h) == pytest.approx(0.25)
        for prof in H.radial_battery(20, radius=0.9):
            rep = H.hardy_bv_report(h, "bh", prof, 0.0, SPEC)
            assert rep.slack >= -rep.slack_tolerance
            assert rep.terms["remainder"].value > 0.0
            assert rep.terms["brezis_vazquez"].value > 0.0
        for prof in H.radial_battery(10, radius=0.9):
            rep = H.rellich_bv_report(h, "bh", prof, 0.0, SPEC)
            assert rep.slack >= -rep.slack_tolerance
            assert rep.terms["weight2_remainder"].value > 0.0
    _report(8, "Brezis-Vazquez refined Hardy (20 fns) and Rellich (10 fns) "
               "on hyperbolic n in {4, 6}, C = 0.25")


def test_criterion_09_poincare_constant():
    h = HyperbolicBall(3, -1.0)
    assert H.poincare_constant(h) == pytest.approx(4.0)
    worst = math.inf
    for prof in H.radial_battery(10, radius=0.9):
        rep = H.poincare_report(h, "bh", prof, SPEC)
        worst = min(worst, rep.slack)
        assert rep.slack >= -rep.slack_tolerance
    _report(9, f"Poincare-type inequality with constant 4, min slack "
               f"{worst:.3e}")


def test_criterion_10_uncertainty_principle():
    m = RandersFlat(4, 0.3)
    for prof in H.radial_battery(10):
        rep = H.uncertainty_report(m, "bh", prof, 0.0, SPEC)
        assert rep.slack >= -rep.slack_tolerance
        # scale invariance of the slack sign under u -> 10u
        rep10 = H.uncertainty_report(m, "bh", scaled_profile(prof, 10.0),
                                     0.0, SPEC)
        assert (rep10.slack >= 0.0) == (rep.slack >= 0.0)
        assert rep10.slack == pytest.approx(100.0 * rep.slack, rel=1e-9)
    _report(10, "uncertainty principle on 10 test functions with "
                "scale-invariant slack sign")


def test_criterion_11_determinism(tmp_path):
    cfg_kwargs = dict(suite="hardy-sweep", model="randers", n=3, t=0.5,
                      measure="bh", beta=0.0, r=0.5, R=1.0,
                      eps=(1e-2, 1e-3, 1e-4), seed=99)
    outs = []
    for name in ("a", "b"):
        cfg = RunConfig(out=str(tmp_path / name), **cfg_kwargs)
        assert run(cfg) == 0
        outs.append((tmp_path / name / "report.json").read_bytes())
    assert outs[0] == outs[1]
    cs = []
    for name in ("c", "d"):
        cfg = RunConfig(suite="refined-cs", n=3, t=0.7, samples=20000,
                        seed=5, out=str(tmp_path / name))
        assert run(cfg) == 0
        cs.append((tmp_path / name / "report.json").read_bytes())
    assert cs[0] == cs[1]
    _report(11, "byte-identical report.json on rerun with identical config")
