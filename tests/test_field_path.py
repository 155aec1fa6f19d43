"""The batched field path against a per-point reference and the radial path."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import finslerineq
from finslerineq import fields as fc
from finslerineq import harness as H
from finslerineq import quadrature
from finslerineq.models import HyperbolicBall, RadialProfile, RandersFlat
from finslerineq.quadrature import QuadratureSpec, annulus_integrate, \
    sphere_nodes
from oracles import annulus_integrate_tiled, neg_laplacian_power, \
    rising_profile

# the per-point reference is slow, so it runs in the plane at a tiny spec
TINY = QuadratureSpec(radial_nodes=2, radial_panels=1, sphere_order=2)
PLANE = (RandersFlat(2, 0.4), HyperbolicBall(2, -1.0))
BETA = -1.0


def sign_changing_field(model, amp=1.5, R=0.6):
    """f(rho_minus) * (1 + amp sin(k.x + phase)) with the C^2 bump
    f = (1 - (rho/R)^2)_+^3: non-radial, and with amp > 1 it changes sign,
    so rho_u switches between rho_minus and rho_plus inside the support."""
    def jet(rho, order=2):
        bump = np.maximum(0.0, 1.0 - (rho / R) ** 2)
        return (bump ** 3, -6.0 * rho / R**2 * bump ** 2,
                (24.0 * rho**2 / R**2 - 6.0 * bump) / R**2 * bump)[:order + 1]

    base = fc.radial_field(model, RadialProfile.from_jet(jet, R))
    wave, phase = np.array([1.3, -0.7, 0.9])[:model.n], 0.4

    def fn(x):
        return base.fn(x) * (1.0 + amp * np.sin(x @ wave + phase))

    def grad(x):
        arg = x @ wave + phase
        return base.grad(x) * (1.0 + amp * np.sin(arg))[..., None] + \
            (base.fn(x) * amp * np.cos(arg))[..., None] * wave

    return fc.ScalarField(fn, grad, base.support_radius)


def vanishing_at_origin(u):
    """|x|^2 u: u(0) = 0, so G^beta is defined for beta + 2 > n - 2."""
    def fn(x):
        return np.sum(x * x, axis=-1) * u.fn(x)

    def grad(x):
        return np.sum(x * x, axis=-1)[..., None] * u.grad(x) + \
            2.0 * u.fn(x)[..., None] * x

    return fc.ScalarField(fn, grad, u.support_radius)


# ------------------------------------------------- per-point reference
def ref_differential(u, p):
    if u.grad is not None:
        return np.asarray(u.grad(p), dtype=float)
    h = 1e-6 * max(1.0, float(np.linalg.norm(p)))
    out = np.empty_like(p)
    for i in range(p.size):
        e = np.zeros_like(p)
        e[i] = h
        out[i] = (u(p + e) - u(p - e)) / (2.0 * h)
    return out


def ref_laplacian(model, u, p):
    """0 at critical points, as the G^beta integrand excludes them."""
    h = 1e-4 * max(1.0, float(np.linalg.norm(p)))
    div = 0.0
    for i in range(p.size):
        e = np.zeros_like(p)
        e[i] = h
        flux = []
        for z in (p + e, p - e):
            du = ref_differential(u, z)
            if np.linalg.norm(du) < fc.CRITICAL_DIFFERENTIAL:
                return 0.0
            flux.append(float(model.density(z, "bh")) * model.sharp(z, du)[i])
        div += (flux[0] - flux[1]) / (2.0 * h)
    return div / float(model.density(p, "bh"))


def ref_terms(model, u, beta, kind):
    """Raw term integrals, one point at a time: Hardy (lhs, main,
    remainder) or G^beta (varrho, div)."""
    hi = u.support_radius * model.reversibility

    def integrand(rr, ww):
        pts = model.point_from_backward_polar(rr, ww)
        rows = []
        for p in pts.reshape(-1, model.n):
            val = u(p)
            rp, rm = float(model.rho_plus(p)), float(model.rho_minus(p))
            rho = rm if val > 0.0 else rp if val < 0.0 else 0.5 * (rp + rm)
            fstar = float(model.conorm(p, ref_differential(u, p)))
            if kind == "hardy":
                core = val**2 * rho ** (-2.0 - beta)
                rows.append([fstar**2 * rho ** (-beta), core, core * float(
                    model.comparison_remainder(rho))])
                continue
            # the u^2 factor removes the zero set's density
            varrho = neg_laplacian_power(model, beta + 2.0, rho)
            div = 0.0
            if val != 0.0 or fstar >= 1e-10:
                div = 2.0 * rho ** (-beta - 2.0) * \
                    (fstar**2 + val * ref_laplacian(model, u, p))
            rows.append([val * val * varrho, div])
        return np.array(rows).reshape(pts.shape[:-1] + (-1,))

    if kind != "hardy":
        # the G^beta field road starts at GBETA_FIELD_FLOOR
        return annulus_integrate(model, "bh", integrand, 1e-6 * hi, hi,
                                 TINY)[0]
    # the Hardy road starts at 0: the annulus from lo, plus the inner ball
    # (0, lo) by the midpoint rule, whose O(lo^3) error is far below the
    # tests' tolerance
    lo = 1e-12 * hi
    ring = annulus_integrate(model, "bh", integrand, lo, hi, TINY)[0]
    dirs, wts = sphere_nodes(model.n, TINY)
    mid = np.array([[0.5 * lo]])
    weighted = integrand(mid, dirs) * \
        (model.polar_density("bh", mid, dirs) * wts)[..., None]
    return ring + lo * weighted[0].sum(axis=0)


@pytest.mark.parametrize("model", PLANE, ids=repr)
@pytest.mark.parametrize("analytic", (True, False), ids=("analytic", "fd"))
def test_hardy_batched_matches_per_point_reference(model, analytic):
    u = sign_changing_field(model)
    if not analytic:
        u = fc.ScalarField(u.fn, None, u.support_radius)
    rep = H.hardy_report(model, "bh", u, BETA, TINY)
    lhs, main, rem = ref_terms(model, u, BETA, "hardy")
    want = {"lhs": lhs, "main": rep.constants["main_coefficient"] * main,
            "remainder": rep.constants["remainder_coefficient"] * rem
            if model.curvature != 0.0 else 0.0}
    scale = max(abs(v) for v in want.values())
    for name, value in want.items():
        assert abs(rep.terms[name].value - value) <= 1e-10 * scale, name


def test_stacked_laplacian_marks_critical_points():
    # du vanishes outside the support: the point reads NaN on its own and
    # in a stack, and its neighbours keep the values they have alone
    m = RandersFlat(3, 0.4)
    u = sign_changing_field(m)
    pts = np.array([[0.1, -0.2, 0.15], [0.9, 0.3, -0.2], [-0.2, 0.1, 0.1]])
    lap = fc.numeric_laplacian(m, "bh", u, pts)
    assert np.isnan(lap[1])
    assert np.isnan(fc.numeric_laplacian(m, "bh", u, pts[1]))
    for i in (0, 2):
        assert lap[i] == fc.numeric_laplacian(m, "bh", u, pts[i])


@pytest.mark.parametrize("model", PLANE, ids=repr)
def test_gbeta_batched_matches_reference_and_block_size(model, monkeypatch):
    # beta + 2 > n - 2 in the plane, where G^beta needs u(0) = 0
    u = vanishing_at_origin(sign_changing_field(model))
    value, scale, error = H.gbeta(model, "bh", u, BETA, TINY)
    t1, t2 = ref_terms(model, u, BETA, "gbeta")
    assert abs(value - (t1 + t2)) <= 1e-10 * scale
    assert abs(scale - (abs(t1) + abs(t2))) <= 1e-10 * scale
    # the Laplacian's block size bounds memory and never changes a bit
    monkeypatch.setattr(fc, "_LAPLACIAN_BLOCK", 1)
    assert H.gbeta(model, "bh", u, BETA, TINY) == (value, scale, error)


@pytest.mark.parametrize("model", PLANE, ids=repr)
def test_field_road_independent_of_shell_blocks(model, monkeypatch):
    # the annulus shell's point budget bounds memory and never changes a
    # bit: one radial node per block and the tiled rule agree exactly; G^beta
    # needs u(0) = 0 in the plane at this beta
    u = vanishing_at_origin(sign_changing_field(model))

    def both():
        return (H.hardy_report(model, "bh", u, BETA, TINY).as_dict(),
                H.gbeta(model, "bh", u, BETA, TINY))

    want = both()
    monkeypatch.setattr(quadrature, "_SHELL_BLOCK", 1)
    assert both() == want
    monkeypatch.setattr(H, "annulus_integrate", annulus_integrate_tiled)
    assert both() == want


def test_default_spec_field_report_memory():
    # a fresh interpreter, so the peak is this report's alone; a shell that
    # tiles every node-direction pair peaks near 300 MB, the blocked one
    # near 40 MB.  VmHWM starts over at exec, where ru_maxrss would keep
    # the high-water mark of the test process that started the child.
    src = str(Path(finslerineq.__file__).parents[1])
    code = ("from finslerineq import fields, harness, models\n"
            "m = models.RandersFlat(3, 0.4)\n"
            "u = fields.radial_field(m, harness.radial_battery(10, 0.9)[0])\n"
            "harness.hardy_report(m, 'bh', u, 0.0)\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert int(proc.stdout) <= 100 * 1024      # VmHWM is in kB


def field_report(name, model, u, spec=None):
    """One of the reports that accept a ScalarField, at beta = 0."""
    if name == "poincare":
        return H.poincare_report(model, "bh", u, spec)
    fn = {"hardy": H.hardy_report, "hardy-bv": H.hardy_bv_report,
          "uncertainty": H.uncertainty_report}[name]
    return fn(model, "bh", u, 0.0, spec)


# every field-capable report on each model its domain allows (Hardy-BV and
# Poincare need k < 0); the Hardy cases are named by their model alone
R3, H3 = RandersFlat(3, 0.4), HyperbolicBall(3, -1.0)
FIELD_REPORTS = [("hardy", R3), ("hardy", H3), ("hardy-bv", H3),
                 ("poincare", H3), ("uncertainty", R3), ("uncertainty", H3)]


# the rising profile on every reversible case: there F*(f' d rho_minus) =
# |f'| for either sign of f', so the radial road takes it
REVERSIBLE = [(r, m) for r, m in FIELD_REPORTS if m.reversibility == 1.0] \
    + [("hardy", RandersFlat(3, 0.0))]


@pytest.mark.parametrize("report,model,rising", [
    pytest.param(r, m, rising, id=(repr(m) if r == "hardy"
                                    else f"{r}-{m!r}") + rising * "-rising")
    for rising, cases in ((False, FIELD_REPORTS), (True, REVERSIBLE))
    for r, m in cases])
def test_two_roads_radial_field_matches_radial_path(report, model, rising):
    # the same radial u through the annulus field path and the 1-d path;
    # the worst term reads 8.3e-9 relative on Randers, 8.8e-12 hyperbolic,
    # and 1.4e-10 for the rising profile
    prof = rising_profile() if rising else H.radial_battery(10, 0.9)[0]
    radial = field_report(report, model, prof)
    field = field_report(report, model, fc.radial_field(model, prof),
                         QuadratureSpec(radial_nodes=24, radial_panels=8,
                                        sphere_order=8))
    assert field.terms.keys() == radial.terms.keys()
    for name, term in radial.terms.items():
        assert abs(field.terms[name].value - term.value) <= \
            1e-7 * abs(term.value), name


def test_two_roads_hardy_plus_field_matches_radial_path():
    # u = -f(rho_plus) < 0 inside its support, so rho_u = rho_plus on the
    # field road; its terms equal those of f(rho_minus) on the radial road.
    # The backward-polar annulus cuts the rho_plus level sets obliquely, so
    # this needs sphere order 16 (order 8 is 3.8e-5 off); the worst term
    # reads 5.5e-9 relative
    prof = H.radial_battery(10, 0.9)[0]
    radial = H.hardy_report(R3, "bh", prof, 0.0)
    field = H.hardy_report(R3, "bh", fc.radial_field(R3, prof, "plus"), 0.0,
                           QuadratureSpec(radial_nodes=24, radial_panels=8,
                                          sphere_order=16))
    assert field.terms.keys() == radial.terms.keys()
    for name, term in radial.terms.items():
        assert abs(field.terms[name].value - term.value) <= \
            1e-7 * abs(term.value), name


@pytest.mark.parametrize("amp", (0.5, 1.5))
@pytest.mark.parametrize("report,model", FIELD_REPORTS,
                         ids=[f"{r}-{m!r}" for r, m in FIELD_REPORTS])
def test_nonradial_battery_slack(report, model, amp):
    # a non-radial field, sign-changing for amp > 1, so rho_u switches
    # between rho_minus and rho_plus: every inequality still holds
    u = sign_changing_field(model, amp=amp)
    rep = field_report(report, model, u,
                       QuadratureSpec(radial_nodes=8, radial_panels=2,
                                      sphere_order=4))
    assert all(np.isfinite(t.value) for t in rep.terms.values())
    assert rep.slack >= -rep.slack_tolerance, (rep.slack,
                                               rep.slack_tolerance)


@pytest.mark.parametrize("report", (H.rellich_report, H.rellich_bv_report))
def test_rellich_pair_rejects_scalar_fields(report):
    # their G^beta gate needs distributional terms the field road lacks
    m = HyperbolicBall(6, -1.0)
    u = fc.radial_field(m, H.radial_battery(10, 0.9)[0])
    with pytest.raises(H.PreconditionError, match="radial test function"):
        report(m, "bh", u, 1.0, TINY)


R4, H4 = RandersFlat(4, 0.6), HyperbolicBall(4, -1.0)


@pytest.mark.parametrize("model,orientation", [
    pytest.param(R4, "minus", id=repr(R4)),
    pytest.param(H4, "minus", id=repr(H4)),
    pytest.param(R4, "plus", id=f"{R4!r}-plus")])
def test_two_roads_gbeta_radial_field_matches_radial_path(model, orientation):
    # G^beta of a radial u vanishes on both roads; the field road reads
    # |G|/scale = 3.0e-6 (Randers), 1.4e-6 (Randers, u = -f(rho_plus), whose
    # density is read at rho_plus) and 4.2e-7 (hyperbolic) at this spec.
    # For f(rho_minus) the scale sits 1.1e-3 below the radial one on both
    # models; for -f(rho_plus) the sphere rule, whose error the field road
    # does not report, leaves it 8.4e-2 off at this order (-8.3e-2 at
    # order 6, 1.7e-2 at order 8), so only the membership is compared
    prof = H.radial_battery(10, 0.9)[0]
    radial = H.gbeta(model, "bh", prof, BETA)
    u = fc.radial_field(model, prof, orientation)
    value, scale, _ = H.gbeta(model, "bh", u, BETA,
                              QuadratureSpec(radial_nodes=24, radial_panels=3,
                                             sphere_order=4))
    assert abs(value) <= 1e-5 * scale
    if orientation == "minus":
        assert abs(scale - radial[1]) <= 2e-3 * radial[1]


R3, H3 = RandersFlat(3, 0.4), HyperbolicBall(3, -1.0)


@pytest.mark.parametrize("model,orientation,order", [
    pytest.param(R3, "minus", 8, id=repr(R3)),
    pytest.param(H3, "minus", 8, id=repr(H3)),
    pytest.param(R3, "plus", 16, id=f"{R3!r}-plus")])
def test_field_road_reads_the_green_point_mass(model, orientation, order):
    # at beta + 2 = n - 2 the Green kernel's point mass (n-2) cp u(0)^2 is
    # part of G^beta on the field road too: |G|/scale reads 3.8e-7
    # (Randers), 2.1e-6 (hyperbolic) and, for u = -f(rho_plus), 4.4e-7 at
    # sphere order 16, where the unreported sphere-rule error leaves 3.8e-5
    # at order 8; the integrals alone read 1.0 and 0.913
    u = fc.radial_field(model, H.radial_battery(10, 0.9)[0], orientation)
    value, scale, _ = H.gbeta(model, "bh", u, -1.0,
                              QuadratureSpec(radial_nodes=24, radial_panels=3,
                                             sphere_order=order))
    assert abs(value) <= 1e-5 * scale


@pytest.mark.parametrize("model", (R3, H3), ids=repr)
def test_field_road_rejects_u0_above_the_green_exponent(model):
    # beta + 2 > n - 2 with u(0) != 0: G^beta is undefined on both roads
    prof = H.radial_battery(10, 0.9)[0]
    for u in (prof, fc.radial_field(model, prof),
              fc.radial_field(model, prof, "plus")):
        with pytest.raises(H.PreconditionError,
                           match="nonzero at the base point"):
            H.gbeta(model, "bh", u, -0.5, TINY)
    # a field that diverges at the base point has no point terms to read
    pole = fc.ScalarField(lambda x: 1.0 / np.sum(x * x, axis=-1),
                          support_radius=0.9)
    with pytest.raises(H.PreconditionError, match=r"u\(0\) = inf"):
        H.gbeta(model, "bh", pole, -1.0, TINY)
