"""Norm, dual, Legendre and sharpened Cauchy-Schwarz properties."""

import math

import numpy as np
import pytest

from finslerineq.minkowski import MinkowskiNorm
from oracles import (cauchy_slack, conorm_variational,
                     dual_fundamental_form_fd, dual_fundamental_form_point,
                     fundamental_form_fd, sampled_uniformity_random)

DRIFTS = [0.0, 0.3, 0.5, 0.7]


def test_norm_closed_forms():
    mn = MinkowskiNorm(3, 0.5)
    assert mn.norm(np.array([0.0, 0.0, 1.0])) == pytest.approx(1.5)
    assert mn.norm(np.array([0.0, 0.0, -1.0])) == pytest.approx(0.5)
    assert MinkowskiNorm(4, 0.0).norm(np.array([1.0, 0, 0, 0])) == 1.0


def test_norm_positive_and_homogeneous():
    rng = np.random.default_rng(3)
    for b in DRIFTS:
        mn = MinkowskiNorm(4, b)
        y = rng.standard_normal((200, 4))
        vals = mn.norm(y)
        assert np.all(vals > 0)
        lam = rng.uniform(0.1, 5.0, size=200)
        assert np.allclose(mn.norm(lam[:, None] * y), lam * vals)


def test_triangle_inequality():
    rng = np.random.default_rng(4)
    for b in DRIFTS:
        mn = MinkowskiNorm(3, b)
        y = rng.standard_normal((500, 3))
        z = rng.standard_normal((500, 3))
        lhs = np.asarray(mn.norm(y + z))
        rhs = np.asarray(mn.norm(y)) + np.asarray(mn.norm(z))
        assert np.all(lhs <= rhs + 1e-12)


def test_reverse_norm():
    mn = MinkowskiNorm(3, 0.5)
    assert mn.reverse_norm(np.array([0.0, 0.0, 1.0])) == pytest.approx(0.5)
    assert MinkowskiNorm(2, 0.3).reverse_norm(np.array([0.0, 1.0])) == \
        pytest.approx(0.7)
    rng = np.random.default_rng(5)
    y = rng.standard_normal((100, 3))
    assert np.allclose(mn.reverse_norm(y), mn.norm(-y))
    mn0 = MinkowskiNorm(3, 0.0)
    assert np.allclose(mn0.reverse_norm(y), mn0.norm(y))


def test_dual_norm_closed_forms():
    mn = MinkowskiNorm(3, 0.5)
    assert mn.dual_norm(np.array([0.0, 0.0, 1.0])) == pytest.approx(1.5)
    assert MinkowskiNorm(5, 0.0).dual_norm(np.eye(5)[2]) == 1.0


def test_dual_norm_variational_oracle():
    # conorm (natural-coordinates dual) against direct maximization of
    # <xi, y>/F(y) over directions
    rng = np.random.default_rng(6)
    for b in [0.0, 0.5, 0.7]:
        mn = MinkowskiNorm(2, b)
        for _ in range(5):
            xi = rng.standard_normal(2)
            assert conorm_variational(mn, xi) == \
                pytest.approx(mn.conorm(xi), rel=1e-8)


def test_dual_norm_adapted_oracle():
    # dual_norm is the adapted presentation: maximizing <xi, y>/G(y) where G
    # is the gauge of the Euclidean ball centered at b*e_n reproduces it
    b = 0.7
    mn = MinkowskiNorm(2, b)
    xi = np.array([1.0, 0.0])
    assert mn.dual_norm(xi) == pytest.approx(1.0)

    def gauge(y):
        yn = y[..., -1]
        yy = np.sum(y * y, axis=-1)
        return (-b * yn + np.sqrt(b * b * yn**2 + (1 - b * b) * yy)) \
            / (1 - b * b)

    phi = np.linspace(0, 2 * math.pi, 40001)
    dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    val = np.max(dirs @ xi / gauge(dirs))
    assert val == pytest.approx(mn.dual_norm(xi), abs=1e-8)


def test_fundamental_form_euclidean_and_euler():
    mn0 = MinkowskiNorm(3, 0.0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        y, u, v = rng.standard_normal((3, 3))
        assert mn0.fundamental_form(y, u, v) == pytest.approx(np.dot(u, v))
    mn = MinkowskiNorm(3, 0.5)
    for _ in range(20):
        y = rng.standard_normal(3)
        assert mn.fundamental_form(y, y, y) == \
            pytest.approx(mn.norm(y) ** 2, rel=1e-12)


def test_fundamental_form_fd_oracle():
    mn = MinkowskiNorm(3, 0.5)
    y = np.array([0.0, 0.0, 1.0])
    u = np.array([1.0, 0.0, 0.0])
    closed = mn.fundamental_form(y, u, u)
    assert abs(closed - fundamental_form_fd(mn, y, u, u)) < 1e-7
    rng = np.random.default_rng(8)
    for b in DRIFTS:
        m = MinkowskiNorm(4, b)
        for _ in range(25):
            y, u, v = rng.standard_normal((3, 4))
            assert m.fundamental_form(y, u, v) == \
                pytest.approx(fundamental_form_fd(m, y, u, v), abs=2e-6)


def test_fundamental_form_rejects_origin():
    mn = MinkowskiNorm(3, 0.5)
    with pytest.raises(ValueError):
        mn.fundamental_form(np.zeros(3), np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        mn.dual_fundamental_form(np.zeros(3), np.ones(3), np.ones(3))


def test_fundamental_form_stack_matches_rows():
    rng = np.random.default_rng(17)
    for n in range(2, 7):
        for b in (0.0, 0.6, -0.6):
            mn = MinkowskiNorm(n, b)
            y, u, v = rng.standard_normal((3, 4, 5, n))
            stacked = mn.fundamental_form(y, u, v)
            assert stacked.shape == (4, 5)
            rows = [[mn.fundamental_form(y[i, j], u[i, j], v[i, j])
                     for j in range(5)] for i in range(4)]
            assert isinstance(rows[0][0], float)
            assert np.array_equal(stacked, np.array(rows))
            # a direction shared by the stack broadcasts like its copies
            w = np.broadcast_to(u[0, 0], y.shape)
            assert np.array_equal(mn.fundamental_form(y, u[0, 0], u[0, 0]),
                                  mn.fundamental_form(y, w, w))
            # the dual tensor is the same formula in adapted coordinates,
            # within rounding of the scalar dot products it replaced
            assert mn.dual_fundamental_form(y[0, 0], u[0, 0], v[0, 0]) == \
                pytest.approx(dual_fundamental_form_point(
                    mn, y[0, 0], u[0, 0], v[0, 0]), rel=1e-13, abs=1e-13)
            y[2, 3] = 0.0
            with pytest.raises(ValueError):
                mn.fundamental_form(y, u, v)


def test_dual_fundamental_form():
    mn = MinkowskiNorm(3, 0.5)
    xi = np.array([1.0, 0.0, 0.0])
    eta = np.array([0.0, 0.0, 1.0])
    # g*_xi(xi, eta) = F*(xi) * b for orthogonal eta along the drift axis
    assert mn.dual_fundamental_form(xi, xi, eta) == pytest.approx(0.5)
    rng = np.random.default_rng(9)
    for b in DRIFTS:
        m = MinkowskiNorm(3, b)
        for _ in range(25):
            xi, eta, zeta = rng.standard_normal((3, 3))
            assert m.dual_fundamental_form(xi, xi, xi) == \
                pytest.approx(m.dual_norm(xi) ** 2, rel=1e-12)
            assert m.dual_fundamental_form(xi, eta, zeta) == \
                pytest.approx(dual_fundamental_form_fd(m, xi, eta, zeta),
                              abs=2e-6)
    m0 = MinkowskiNorm(3, 0.0)
    for _ in range(10):
        xi, eta, zeta = rng.standard_normal((3, 3))
        assert m0.dual_fundamental_form(xi, eta, zeta) == \
            pytest.approx(np.dot(eta, zeta))


def test_legendre_roundtrip_and_duality():
    rng = np.random.default_rng(10)
    for b in DRIFTS:
        for n in (2, 3, 5):
            mn = MinkowskiNorm(n, b)
            y = rng.standard_normal((2500, n))
            for row in y:
                xi = mn.legendre(row)
                back = mn.legendre_inv(xi)
                assert np.max(np.abs(back - row)) < 1e-10 * max(
                    1.0, np.max(np.abs(row)))
                # duality round trip F*(L(y)) = F(y)
                assert mn.dual_norm(xi) == pytest.approx(mn.norm(row),
                                                         rel=1e-9)


def test_legendre_identities_natural_pairing():
    # F(legendre_inv(xi)) = F*(xi) and <xi, y> = F*^2(xi) when the covector
    # is read back in natural coordinates
    mn = MinkowskiNorm(3, 0.5)
    xi = np.array([0.0, 0.0, 1.0])
    y = mn.legendre_inv(xi)
    assert mn.norm(y) == pytest.approx(mn.dual_norm(xi), rel=1e-12)
    assert np.dot(mn.unadapt_covector(xi), y) == \
        pytest.approx(mn.dual_norm(xi) ** 2, rel=1e-12)


def test_legendre_zero_convention_and_homogeneity():
    mn = MinkowskiNorm(3, 0.5)
    assert np.all(mn.legendre(np.zeros(3)) == 0.0)
    assert np.all(mn.legendre_inv(np.zeros(3)) == 0.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        y = rng.standard_normal(3)
        lam = rng.uniform(0.1, 10.0)
        assert np.allclose(mn.legendre(lam * y), lam * mn.legendre(y))
    # b=0: identity map
    mn0 = MinkowskiNorm(3, 0.0)
    y = rng.standard_normal(3)
    assert np.allclose(mn0.legendre(y), y)


def test_flat_sharp_natural_pair():
    rng = np.random.default_rng(12)
    for b in DRIFTS:
        mn = MinkowskiNorm(4, b)
        for _ in range(100):
            y = rng.standard_normal(4)
            xi = mn.flat(y)
            assert np.allclose(mn.sharp(xi), y, atol=1e-12)
            assert mn.conorm(xi) == pytest.approx(mn.norm(y), rel=1e-12)
            # adapted and natural presentations agree through the adapter
            assert mn.dual_norm(mn.adapt_covector(xi)) == \
                pytest.approx(mn.conorm(xi), rel=1e-12)


def test_reversibility_uniformity_closed_forms():
    assert MinkowskiNorm(3, 0.5).uniformity() == pytest.approx(9.0)
    assert MinkowskiNorm(3, 0.5).reversibility() == pytest.approx(3.0)
    mn0 = MinkowskiNorm(3, 0.0)
    assert mn0.reversibility() == 1.0 and mn0.uniformity() == 1.0
    for b in DRIFTS:
        mn = MinkowskiNorm(3, b)
        assert mn.reversibility() ** 2 <= mn.uniformity() + 1e-14


def test_sampled_asymmetry_constants():
    for b in (0.3, 0.5, 0.7):
        mn = MinkowskiNorm(3, b)
        assert mn.sampled_reversibility() == \
            pytest.approx(mn.reversibility(), rel=1e-2)
        assert mn.sampled_uniformity() == \
            pytest.approx(mn.uniformity(), rel=1e-2)


def test_uniformity_random_triples_lower_bound():
    mn = MinkowskiNorm(3, 0.5)
    lam = mn.uniformity()
    prev = 1.0
    for samples in (200, 2000, 8000):
        est = sampled_uniformity_random(mn, samples, seed=13)
        assert est <= lam * (1.0 + 1e-2)
        assert est >= prev - 1e-12   # densification only improves the bound
        prev = est
    assert prev > 1.5   # the dense sample gets well away from 1


def test_dual_uniformity_ratio_bounded():
    # sampled sup of g*_xi(z,z)/g*_eta(z,z) stays below Lambda_F
    rng = np.random.default_rng(14)
    mn = MinkowskiNorm(3, 0.5)
    lam = mn.uniformity()
    sup = 0.0
    for _ in range(4000):
        xi, eta, z = rng.standard_normal((3, 3))
        sup = max(sup, mn.dual_fundamental_form(xi, z, z)
                  / mn.dual_fundamental_form(eta, z, z))
    assert sup <= lam * (1.0 + 1e-2)


def test_cauchy_inequality():
    rng = np.random.default_rng(15)
    for b in DRIFTS:
        mn = MinkowskiNorm(3, b)
        xi = rng.standard_normal((5000, 3))
        eta = rng.standard_normal((5000, 3))
        slack = np.asarray(cauchy_slack(mn, xi, eta))
        scale = np.maximum(1.0, np.asarray(mn.dual_norm(eta)) ** 2)
        assert np.all(slack >= -1e-10 * scale)


def test_refined_cs_zero_convention():
    mn = MinkowskiNorm(3, 0.5)
    eta = np.array([0.2, -0.4, 0.9])
    want = mn.dual_norm(eta) ** 2 * (1.0 - 1.0 / mn.uniformity())
    assert mn.refined_cs_slack(np.zeros(3), eta) == pytest.approx(want)


def test_refined_cs_euclidean_equality():
    mn = MinkowskiNorm(4, 0.0)
    rng = np.random.default_rng(16)
    xi = rng.standard_normal((20000, 4))
    eta = rng.standard_normal((20000, 4))
    slack = np.asarray(mn.refined_cs_slack(xi, eta))
    assert np.max(np.abs(slack)) < 1e-12


def test_refined_cs_nonnegative_and_tightness():
    rng = np.random.default_rng(17)
    for b in DRIFTS[1:]:
        mn = MinkowskiNorm(3, b)
        xi = rng.standard_normal((20000, 3))
        eta = rng.standard_normal((20000, 3))
        slack = np.asarray(mn.refined_cs_slack(xi, eta))
        scale = np.maximum(1.0, np.asarray(mn.dual_norm(xi + eta)) ** 2)
        assert np.all(slack >= -1e-10 * scale)
        # colinear tightness, exact algebra
        s = rng.uniform(0.05, 4.0, size=500)
        xi_c = rng.standard_normal((500, 3))
        got = np.asarray(mn.refined_cs_slack(xi_c, s[:, None] * xi_c))
        want = s**2 * np.asarray(mn.dual_norm(xi_c)) ** 2 \
            * (1.0 - 1.0 / mn.uniformity())
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(want))


def test_refined_cs_colinear_negative_case():
    # frozen oracle: xi=(1,0), eta=-2 xi, b=0.5 gives slack 32/9 by the
    # colinear closed form (2k-1) + ((k-1)^2 - k^2/Lambda) F*^2(-xi)/F*^2(xi)
    mn = MinkowskiNorm(2, 0.5)
    xi = np.array([1.0, 0.0])
    got = mn.refined_cs_slack(xi, -2.0 * xi)
    assert got == pytest.approx(32.0 / 9.0, rel=1e-14)


def test_invalid_construction():
    with pytest.raises(ValueError):
        MinkowskiNorm(3, 1.0)
    with pytest.raises(ValueError):
        MinkowskiNorm(1, 0.0)
