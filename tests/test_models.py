"""Distances, densities, comparison functions, cutoffs, radial Laplacians."""

import math

import numpy as np
import pytest

from finslerineq.models import (DomainError, HyperbolicBall, RandersFlat,
                                comparison_D, comparison_s, cutoff_profile,
                                euclidean_flat, truncated_profile)
from finslerineq.quadrature import unit_sphere_area
from oracles import backward_polar_from_point, randers_d_rho, randers_rho


def test_rho_closed_forms():
    m = RandersFlat(3, 0.5)
    x = np.array([0.0, 0.0, 1.0])
    assert m.rho_minus(x) == pytest.approx(0.5)
    assert m.rho_plus(x) == pytest.approx(1.5)
    assert m.rho_plus(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert m.rho_minus(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    e = euclidean_flat(3)
    y = np.array([0.3, -0.4, 1.2])
    assert e.rho_plus(y) == e.rho_minus(y) == pytest.approx(np.linalg.norm(y))


def test_rho_positive_unless_origin():
    rng = np.random.default_rng(0)
    m = RandersFlat(4, 0.7)
    x = rng.standard_normal((200, 4))
    assert np.all(np.asarray(m.rho_minus(x)) > 0)
    assert np.all(np.asarray(m.rho_plus(x)) > 0)
    assert m.rho_minus(np.zeros(4)) == 0.0


def test_rho_minus_is_reverse_metric_distance():
    # straight-line length in the reverse norm equals rho_minus
    m = RandersFlat(3, 0.5)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((100, 3))
    assert np.allclose(m.rho_minus(x), m.norm.reverse_norm(x))
    # backward balls are the sublevel sets of rho_minus
    inside = np.asarray(m.rho_minus(x)) < 1.0
    assert np.array_equal(inside, np.asarray(m.norm.reverse_norm(x)) < 1.0)


def test_rho_and_differentials_match_inline_formulas():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        for t in (0.0, 0.4, 0.9, -0.6):
            m = RandersFlat(n, t)
            for x in (rng.standard_normal(n), rng.standard_normal((7, n)),
                      rng.standard_normal((3, 4, n))):
                got = (m.rho_plus(x), m.rho_minus(x))
                want = (randers_rho(x, t, 1), randers_rho(x, t, -1))
                assert np.ndim(got[0]) == np.ndim(want[0]) == x.ndim - 1
                assert np.array_equal(got, want)
                assert np.array_equal(m.d_rho_plus(x), randers_d_rho(x, t, 1))
                assert np.array_equal(m.d_rho_minus(x),
                                      randers_d_rho(x, t, -1))


def test_rho_u_case_split():
    m = RandersFlat(3, 0.5)
    x = np.array([0.0, 0.0, 1.0])
    assert m.rho_u(1, x) == pytest.approx(0.5)
    assert m.rho_u(-1, x) == pytest.approx(1.5)
    # the average cancels the drift
    assert m.rho_u(0, x) == pytest.approx(np.linalg.norm(x))
    h = HyperbolicBall(3, -1.0)
    p = np.array([0.1, 0.2, -0.1])
    for s in (-1, 0, 1):
        assert h.rho_u(s, p) == pytest.approx(h.rho(p))


def test_comparison_functions():
    assert comparison_D(0.0, 0.0, 1.7) == 0.0
    # frozen: coth(1) - 1
    assert comparison_D(-1.0, 0.0, 1.0) == \
        pytest.approx(0.31303528549933146, abs=1e-14)
    t = np.linspace(0.05, 4.0, 50)
    assert np.all(np.asarray(comparison_D(-1.0, 0.0, t)) > 0)
    # monotone in h: D_{k,h} < D_{k,0} for h > 0
    assert np.all(np.asarray(comparison_D(-1.0, 0.5, t))
                  < np.asarray(comparison_D(-1.0, 0.0, t)))
    # limit at zero
    assert comparison_D(-1.0, 0.0, 1e-6) == pytest.approx(0.0, abs=1e-9)
    # s_k shapes
    assert comparison_s(0.0, 2.5) == 2.5
    assert comparison_s(-1.0, 1.0) == pytest.approx(math.sinh(1.0))
    # no model has k > 0, and the comparison functions reject it
    for fn in (comparison_s, lambda k, t: comparison_D(k, 0.0, t)):
        with pytest.raises(DomainError, match="k <= 0"):
            fn(4.0, 0.25)
    with pytest.raises(DomainError):
        comparison_D(-1.0, 0.0, -0.5)


def test_polar_density_randers():
    m = RandersFlat(3, 0.5)
    omega = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    rho = np.full(3, 2.0)
    dens = m.polar_density("bh", rho, omega)
    base = 2.0 ** 2
    assert dens == pytest.approx([base * 1.5, base * 0.5, base])
    ratio = m.polar_density("ht", rho, omega) / dens
    assert np.allclose(ratio, (1 - 0.25) ** (-2.0))


def test_polar_density_hyperbolic():
    h = HyperbolicBall(2, -1.0)
    val = h.polar_density("bh", np.array([1.0]), np.array([[1.0, 0.0]]))
    assert val[0] == pytest.approx(1.1752011936438014)  # sinh(1)


def test_cp_constants():
    assert RandersFlat(3, 0.5).cp_constant("bh") == \
        pytest.approx(4.0 * math.pi)
    assert RandersFlat(2, 0.3).cp_constant("bh") == \
        pytest.approx(2.0 * math.pi)
    assert HyperbolicBall(3, -1.0).cp_constant("bh") == \
        pytest.approx(4.0 * math.pi)
    m = RandersFlat(4, 0.6)
    want = unit_sphere_area(4) * (1 - 0.36) ** (-2.5)
    assert m.cp_constant("ht") == pytest.approx(want)
    with pytest.raises(ValueError):
        m.cp_constant("lebesgue")


def test_straightening_chart():
    # |X|^2 = rho_minus^2 / (1 - t^2) and the chart round-trips
    m = RandersFlat(3, 0.5)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((200, 3))
    rho, omega = backward_polar_from_point(m, x)
    big_x = (rho / math.sqrt(1 - 0.25))[:, None] * omega
    assert np.allclose(np.sum(big_x**2, axis=1), rho**2 / (1 - 0.25),
                       rtol=1e-12)
    back = m.point_from_backward_polar(rho, omega)
    assert np.allclose(back, x, atol=1e-12)
    assert np.allclose(np.linalg.norm(omega, axis=1), 1.0)


def test_point_from_polar_has_requested_radius():
    m = RandersFlat(3, 0.5)
    rng = np.random.default_rng(3)
    omega = rng.standard_normal((50, 3))
    omega /= np.linalg.norm(omega, axis=1)[:, None]
    rho = rng.uniform(0.1, 3.0, size=50)
    x = m.point_from_backward_polar(rho, omega)
    assert np.allclose(m.rho_minus(x), rho, rtol=1e-12)
    h = HyperbolicBall(3, -0.5)
    xh = h.point_from_backward_polar(rho, omega)
    assert np.allclose(h.rho(xh), rho, rtol=1e-12)


def test_radial_laplacian_closed_forms():
    # flat: Delta(rho_minus^-N) = N (N + 2 - n) rho^(-N-2)
    m3 = RandersFlat(3, 0.5)
    assert m3.radial_laplacian(1.0, 0.7) == pytest.approx(0.0)
    m5 = RandersFlat(5, 0.5)
    assert m5.radial_laplacian(1.0, 1.0) == pytest.approx(-2.0)
    with pytest.raises(DomainError):
        m5.radial_laplacian(1.0, 0.0)
    # hyperbolic: mean curvature is (n-1) sqrt|k| coth(sqrt|k| rho)
    h = HyperbolicBall(3, -1.0)
    got = h.radial_laplacian(1.0, 1.0)
    mc = 2.0 / math.tanh(1.0)
    assert got == pytest.approx(1.0 * (2.0 - mc))


def test_cutoff_properties():
    psi = cutoff_profile(0.5, 1.0)
    assert psi.f(0.25) == 1.0 and psi.d1(0.25) == 0.0
    assert psi.f(1.0) == 0.0 and psi.d1(1.0) == 0.0
    assert psi.f(0.75) == pytest.approx(0.5)
    rho = np.linspace(0.0, 1.2, 500)
    vals = np.asarray(psi.f(rho))
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.asarray(psi.d1(rho)) <= 1e-12)
    # derivatives agree with finite differences through the transition
    mid = np.linspace(0.52, 0.98, 40)
    h = 1e-6
    fd1 = (np.asarray(psi.f(mid + h)) - np.asarray(psi.f(mid - h))) \
        / (2 * h)
    assert np.allclose(fd1, psi.d1(mid), atol=1e-6)
    fd2 = (np.asarray(psi.d1(mid + h)) - np.asarray(psi.d1(mid - h))) \
        / (2 * h)
    assert np.allclose(fd2, psi.d2(mid), atol=1e-4)


def test_truncated_profile():
    prof = truncated_profile(0.5, 0.01, 0.5, 1.0)
    assert prof.label == "trunc[g=0.5,eps=0.01]"
    rho = np.array([0.005, 0.01, 0.2, 0.6, 1.1])
    vals = prof.f(rho)
    assert vals[0] == vals[1] == pytest.approx(0.01 ** -0.5)
    assert vals[2] == pytest.approx(0.2 ** -0.5)
    assert vals[4] == 0.0
    assert prof.d1(np.array([0.005]))[0] == 0.0
    # derivative matches finite differences away from the kink
    mid = np.linspace(0.05, 0.95, 60)
    h = 1e-7
    fd = (prof.f(mid + h) - prof.f(mid - h)) / (2 * h)
    assert np.allclose(fd, prof.d1(mid), rtol=1e-5, atol=1e-5)
    for eps in (0.6, 0.5, 0.0, -0.01):
        with pytest.raises(ValueError, match="need 0 < eps < r"):
            truncated_profile(0.5, eps, 0.5, 1.0)
    with pytest.raises(ValueError, match="cutoff needs 0 < r < R"):
        truncated_profile(0.5, 0.01, 0.5, 0.5)


def test_cutoff_profile_fields():
    prof = cutoff_profile(0.4, 0.9)
    assert prof.support == 0.9
    assert prof.breakpoints == (0.4,) and prof.label == "cutoff[0.4,0.9]"
    assert prof.f(np.array([0.1]))[0] == 1.0
    for r, big_r in ((0.9, 0.4), (0.4, 0.4), (0.0, 0.9), (-0.1, 0.9)):
        with pytest.raises(ValueError, match="cutoff needs 0 < r < R"):
            cutoff_profile(r, big_r)


def test_hyperbolic_domain():
    h = HyperbolicBall(3, -1.0)
    with pytest.raises(DomainError):
        h.rho(np.array([1.2, 0.0, 0.0]))
    with pytest.raises(ValueError):
        HyperbolicBall(3, 0.5)


def test_model_constants_exposed():
    m = RandersFlat(3, 0.5)
    assert m.curvature == 0.0
    assert m.reversibility == pytest.approx(3.0)
    assert m.uniformity == pytest.approx(9.0)
    h = HyperbolicBall(4, -2.0)
    assert h.curvature == -2.0
    assert h.reversibility == 1.0 and h.uniformity == 1.0
