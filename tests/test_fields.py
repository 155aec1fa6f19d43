"""Gradients, Laplacians, reverse-metric identities, integration by parts."""

import math

import numpy as np
import pytest

from finslerineq import fields as fc
from finslerineq.models import (HyperbolicBall, RandersFlat, cutoff_profile,
                                euclidean_flat)
from finslerineq.quadrature import QuadratureSpec, annulus_integrate
from oracles import div_u_grad_u, gradient, gradient_norm, \
    neg_laplacian_power, negated, reverse


def bump_field(centers, widths, amps):
    """Sum of Gaussian bumps with analytic differential."""
    centers = np.asarray(centers, dtype=float)
    widths = np.asarray(widths, dtype=float)
    amps = np.asarray(amps, dtype=float)

    def fn(x):
        d = x[..., None, :] - centers
        return np.sum(amps * np.exp(-np.sum(d * d, axis=-1) / widths),
                      axis=-1)

    def grad(x):
        d = x[..., None, :] - centers
        e = amps * np.exp(-np.sum(d * d, axis=-1) / widths)
        return np.sum((-2.0 * e / widths)[..., None] * d, axis=-2)

    return fc.ScalarField(fn, grad, support_radius=10.0)


def random_bumps(rng, n, count=3):
    return bump_field(rng.uniform(-1, 1, size=(count, n)),
                      rng.uniform(0.5, 2.0, size=count),
                      rng.uniform(-1, 1, size=count))


def minus_rho_minus_field(model):
    def grad(x):
        out = -x / np.linalg.norm(x)
        out[-1] += model.drift
        return out
    return fc.ScalarField(lambda x: -float(model.rho_minus(x)), grad,
                          support_radius=10.0)


def test_differential_analytic_vs_fd():
    rng = np.random.default_rng(20)
    f = random_bumps(rng, 3)
    f_fd = fc.ScalarField(f.fn, None, f.support_radius)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=3)
        assert np.allclose(fc.differential(f, x), fc.differential(f_fd, x),
                           atol=1e-8)
    const = fc.ScalarField(lambda x: 4.2, None, 1.0)
    assert np.allclose(fc.differential(const, np.ones(3)), 0.0)


def test_differential_of_rho_minus_chain_rule():
    m = RandersFlat(3, 0.5)
    f = fc.ScalarField(lambda x: m.rho_minus(x), None, 10.0)
    rng = np.random.default_rng(21)
    for _ in range(10):
        x = rng.standard_normal(3)
        want = x / np.linalg.norm(x)
        want[-1] -= m.drift
        assert np.allclose(fc.differential(f, x), want, atol=1e-8)


def test_gradient_eikonal_identities():
    # F(grad(-rho_minus)) = 1 and grad(-rho_minus) = -x/rho_minus
    m = RandersFlat(3, 0.5)
    f = minus_rho_minus_field(m)
    rng = np.random.default_rng(22)
    for _ in range(50):
        x = rng.standard_normal(3)
        g = gradient(m, f, x)
        assert np.allclose(g, -x / m.rho_minus(x), atol=1e-10)
        assert m.norm.norm(g) == pytest.approx(1.0, abs=1e-10)
        assert gradient_norm(m, f, x) == pytest.approx(1.0, abs=1e-10)


def test_gradient_euclidean_is_differential():
    e = euclidean_flat(3)
    rng = np.random.default_rng(23)
    f = random_bumps(rng, 3)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=3)
        assert np.allclose(gradient(e, f, x), fc.differential(f, x))


def test_gradient_zero_convention():
    m = RandersFlat(3, 0.5)
    const = fc.ScalarField(lambda x: 1.0, lambda x: np.zeros(3), 1.0)
    assert np.all(gradient(m, const, np.ones(3)) == 0.0)


def test_legendre_consistency_f_grad_equals_fstar_du():
    rng = np.random.default_rng(24)
    m = RandersFlat(4, 0.6)
    f = random_bumps(rng, 4)
    for _ in range(50):
        x = rng.uniform(-1, 1, size=4)
        du = fc.differential(f, x)
        g = gradient(m, f, x)
        assert m.norm.norm(g) == pytest.approx(m.norm.conorm(du), rel=1e-10)
        # df(X) = g_grad(grad, X)
        v = rng.standard_normal(4)
        if np.linalg.norm(g) > 1e-8:
            assert m.norm.fundamental_form(g, g, v) == \
                pytest.approx(np.dot(du, v), rel=1e-9, abs=1e-12)


def test_reverse_metric_gradient_identity():
    # grad(-f) = -grad~(f) across the two metric objects
    rng = np.random.default_rng(25)
    m = RandersFlat(3, 0.5)
    rev = reverse(m)
    for trial in range(100):
        f = random_bumps(rng, 3)
        x = rng.uniform(-1, 1, size=3)
        lhs = gradient(m, negated(f), x)
        rhs = -gradient(rev, f, x)
        scale = max(1.0, float(np.linalg.norm(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def test_reverse_metric_laplacian_identity():
    rng = np.random.default_rng(26)
    m = RandersFlat(3, 0.5)
    rev = reverse(m)
    for trial in range(30):
        f = random_bumps(rng, 3)
        x = rng.uniform(-1, 1, size=3)
        lhs = fc.numeric_laplacian(m, "bh", negated(f), x)
        rhs = -fc.numeric_laplacian(rev, "bh", f, x)
        if np.isnan(lhs) or np.isnan(rhs):
            continue        # a critical point, excluded
        assert lhs == pytest.approx(rhs, rel=1e-4, abs=1e-6)


def test_numeric_laplacian_euclidean():
    e = euclidean_flat(3)
    f = fc.ScalarField(lambda x: float(np.sum(x**2)), lambda x: 2.0 * x, 10.0)
    x = np.array([0.4, -0.2, 0.7])
    assert fc.numeric_laplacian(e, "bh", f, x) == pytest.approx(6.0, rel=1e-8)


def test_numeric_laplacian_matches_closed_form_randers():
    m = RandersFlat(5, 0.5)

    def grad(x):
        out = x / np.linalg.norm(x, axis=-1, keepdims=True)
        out[..., -1] -= m.drift
        rm = np.asarray(m.rho_minus(x))[..., None]
        return -1.0 * rm ** -2.0 * out

    u = fc.ScalarField(lambda x: np.asarray(m.rho_minus(x)) ** -1.0, grad,
                       10.0)
    rng = np.random.default_rng(27)
    for _ in range(5):
        x = rng.standard_normal(5)
        x *= 0.7 / float(m.rho_minus(x))
        got = fc.numeric_laplacian(m, "bh", u, x)
        want = -neg_laplacian_power(m, 1.0, 0.7)
        assert got == pytest.approx(want, rel=1e-4)
    # the n=3 exponent is harmonic away from the pole
    m3 = RandersFlat(3, 0.5)

    def grad3(x):
        out = x / np.linalg.norm(x, axis=-1, keepdims=True)
        out[..., -1] -= m3.drift
        return -np.asarray(m3.rho_minus(x))[..., None] ** -2.0 * out

    u3 = fc.ScalarField(lambda x: np.asarray(m3.rho_minus(x)) ** -1.0, grad3,
                        10.0)
    x = np.array([0.3, -0.2, 0.9])
    assert fc.numeric_laplacian(m3, "bh", u3, x) == pytest.approx(0.0,
                                                                  abs=1e-6)


def test_numeric_laplacian_hyperbolic_radial():
    h = HyperbolicBall(3, -1.0)

    def fn(x):
        return np.exp(-np.asarray(h.rho(x)) ** 2)

    def grad(x):
        rho = np.asarray(h.rho(x))[..., None]
        lam = 2.0 / (1.0 - np.sum(x * x, axis=-1, keepdims=True))
        return -2.0 * rho * np.exp(-rho**2) * lam * x / \
            np.linalg.norm(x, axis=-1, keepdims=True)

    u = fc.ScalarField(fn, grad, 3.0)
    x = np.array([0.2, 0.1, -0.25])
    rho = float(h.rho(x))
    mc = 2.0 / math.tanh(rho)
    want = (4 * rho**2 - 2) * math.exp(-rho**2) \
        - 2 * rho * math.exp(-rho**2) * mc
    got = fc.numeric_laplacian(h, "bh", u, x)
    assert got == pytest.approx(want, rel=1e-4)


def test_laplacian_critical_point_flagged():
    m = RandersFlat(3, 0.5)
    const = fc.ScalarField(lambda x: 1.0, lambda x: np.zeros_like(x), 1.0)
    assert np.isnan(fc.numeric_laplacian(m, "bh", const, np.ones(3)))


def test_div_u_grad_u():
    e = euclidean_flat(3)
    rng = np.random.default_rng(28)
    f = random_bumps(rng, 3)
    x = rng.uniform(-0.5, 0.5, size=3)
    # at a zero of u the divergence term is the gradient energy
    shifted = fc.ScalarField(lambda p: f(p) - f(x),
                             f.grad, f.support_radius)
    got = div_u_grad_u(e, "bh", shifted, x)
    assert got == pytest.approx(gradient_norm(e, shifted, x) ** 2,
                                rel=1e-6)
    # reversible case: div(u grad u) = Laplacian(u^2)/2
    sq = fc.ScalarField(lambda p: f(p) ** 2,
                        lambda p: 2.0 * np.asarray(f(p))[..., None] *
                        f.grad(p), 10.0)
    got2 = div_u_grad_u(e, "bh", f, x)
    want2 = 0.5 * fc.numeric_laplacian(e, "bh", sq, x)
    assert got2 == pytest.approx(want2, rel=1e-5, abs=1e-7)


def varrho(model, sign, beta, x):
    """The G^beta density -Delta(rho_u^(-beta-2)) read at rho_u."""
    return neg_laplacian_power(model, beta + 2.0, model.rho_u(sign, x))


def test_varrho_density_cases():
    m = RandersFlat(6, 0.5)
    x = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -2.0 / 3.0])  # rho_minus = 1
    assert m.rho_minus(x) == pytest.approx(1.0)
    assert varrho(m, 1, 0.0, x) == pytest.approx(4.0)
    # u < 0 reads rho_plus = 1/3 there: Delta(-rho_plus^-2) = 4 * 3^4
    assert m.rho_plus(x) == pytest.approx(1.0 / 3.0)
    assert varrho(m, -1, 0.0, x) == pytest.approx(4.0 * 3.0**4)
    # reversible model: branches coincide
    e = euclidean_flat(6)
    y = np.array([0.5, 0.1, 0.0, 0.0, 0.0, 0.2])
    a = varrho(e, 1, 0.0, y)
    b = varrho(e, -1, 0.0, y)
    c = varrho(e, 0, 0.0, y)
    assert a == pytest.approx(b) and a == pytest.approx(c)


def test_varrho_upper_bound():
    # -varrho <= (-2-beta) rho_u^{-4-beta} [2 gamma + (n-1) D(rho_u)]
    beta = 0.0
    for model in (RandersFlat(6, 0.5), HyperbolicBall(6, -1.0)):
        n = model.n
        gamma = 0.5 * (n - 4 - beta)
        rng = np.random.default_rng(29)
        for _ in range(50):
            x = rng.standard_normal(6) * 0.1
            if np.linalg.norm(x) < 1e-3:
                continue
            for sign in (1, -1):
                rho_u = float(model.rho_u(sign, x))
                lhs = -varrho(model, sign, beta, x)
                d_val = float(model.comparison_remainder(rho_u))
                rhs = (-2.0 - beta) * rho_u ** (-4.0 - beta) * \
                    (2.0 * gamma + (n - 1.0) * d_val)
                assert lhs <= rhs + 1e-10 * abs(rhs)


def test_radial_field_orientations():
    m = RandersFlat(3, 0.5)
    prof = cutoff_profile(0.225, 0.585)
    x = np.array([0.0, 0.0, 0.3])       # rho_minus = 0.15, rho_plus = 0.45
    assert fc.radial_field(m, prof)(x) == 1.0
    want = -float(prof.f(np.array([0.45]))[0])
    assert fc.radial_field(m, prof, "plus")(x) == pytest.approx(want)
    assert want == pytest.approx(-0.256, abs=1e-3)
    with pytest.raises(ValueError, match="orientation"):
        fc.radial_field(m, prof, "minsu")


def test_integration_by_parts():
    # int v Lap(u) dm = -int <grad u, dv> dm for compactly supported v
    m = RandersFlat(3, 0.4)
    spec = QuadratureSpec(radial_nodes=12, radial_panels=6, sphere_order=8)

    def u_fn(x):
        return np.exp(-np.asarray(m.rho_minus(x)))

    def u_grad(x):
        d = x / np.linalg.norm(x, axis=-1, keepdims=True)
        d[..., -1] -= m.drift
        return -np.exp(-np.asarray(m.rho_minus(x)))[..., None] * d

    u = fc.ScalarField(u_fn, u_grad, 10.0)

    # v: radially modulated bump supported on the annulus 0.3 < rho- < 1.2
    def wedge(rho):
        core = np.exp(-1.0 / np.maximum(rho - 0.3, 1e-12)
                      - 1.0 / np.maximum(1.2 - rho, 1e-12))
        return np.where((0.3 < rho) & (rho < 1.2), core, 0.0)

    def v_fn(x):
        return wedge(np.asarray(m.rho_minus(x))) * (1.0 + 0.5 * x[..., 0])

    v = fc.ScalarField(v_fn, None, 1.2)

    def lhs_integrand(rr, ww):
        pts = m.point_from_backward_polar(rr, ww)
        return v(pts) * fc.numeric_laplacian(m, "bh", u, pts)

    def rhs_integrand(rr, ww):
        pts = m.point_from_backward_polar(rr, ww)
        dv = fc.differential(v, pts)
        return -np.sum(gradient(m, u, pts) * dv, axis=-1)

    lhs, _ = annulus_integrate(m, "bh", lhs_integrand, 0.3, 1.2, spec)
    rhs, _ = annulus_integrate(m, "bh", rhs_integrand, 0.3, 1.2, spec)
    assert lhs == pytest.approx(rhs, rel=2e-4, abs=1e-6)


def test_truncated_family_differential_analytic_vs_fd():
    from finslerineq.models import truncated_profile
    m = RandersFlat(3, 0.5)
    field = fc.radial_field(m, truncated_profile(0.5, 0.05, 0.5, 1.0))
    fd_only = fc.ScalarField(field.fn, None, field.support_radius)
    rng = np.random.default_rng(31)
    for _ in range(30):
        x = rng.standard_normal(3)
        rho = float(m.rho_minus(x))
        if abs(rho - 0.05) < 1e-3 or abs(rho - 0.5) < 1e-3 or rho > 0.99:
            continue   # stay away from the kink and support edge
        a = fc.differential(field, x)
        b = fc.differential(fd_only, x)
        assert np.max(np.abs(a - b)) < 1e-8 * max(1.0, np.max(np.abs(a)))


def test_div_u_grad_u_radial_closed_form():
    # for radial decreasing u the polar reduction gives f'^2 + f (f'' + f' mc)
    m = RandersFlat(3, 0.5)

    def fn(x):
        return np.exp(-2.0 * np.asarray(m.rho_minus(x)))

    def grad(x):
        d = x / np.linalg.norm(x, axis=-1, keepdims=True)
        d[..., -1] -= m.drift
        return -2.0 * np.exp(-2.0 * np.asarray(m.rho_minus(x)))[..., None] * d

    u = fc.ScalarField(fn, grad, 10.0)
    x = np.array([0.4, -0.3, 0.6])
    rho = float(m.rho_minus(x))
    f = math.exp(-2.0 * rho)
    f1, f2 = -2.0 * f, 4.0 * f
    mc = 2.0 / rho
    want = f1 * f1 + f * (f2 + f1 * mc)
    for measure in ("bh", "ht"):
        got = div_u_grad_u(m, measure, u, x)
        assert got == pytest.approx(want, rel=1e-6)
