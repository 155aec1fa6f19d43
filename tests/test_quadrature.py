"""Radial/sphere/annulus rules, error estimates, determinism, Monte Carlo."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import finslerineq
from finslerineq.models import HyperbolicBall, RandersFlat, euclidean_flat
from finslerineq.quadrature import (QuadratureError, QuadratureSpec,
                                    _gauss_rule, _radial_plan, _tree_layout,
                                    _tree_sums, annulus_integrate,
                                    pairwise_sum, radial_integrate,
                                    radial_segments, sphere_nodes,
                                    unit_sphere_area)
from oracles import annulus_integrate_tiled, box_montecarlo, \
    power_integral, sphere_integrate

SPEC = QuadratureSpec()


def test_radial_log_integral():
    val, err = radial_integrate(lambda t: 1.0 / t, (1e-4, 0.5), SPEC)
    assert val == pytest.approx(math.log(0.5 / 1e-4), rel=1e-12)
    assert err < 1e-10


def test_radial_polynomial_exactness():
    val, _ = radial_integrate(lambda t: t**2, (0.1, 1.0), SPEC)
    assert val == pytest.approx((1.0 - 1e-3) / 3.0, rel=1e-14)


def test_radial_rejects_bad_interval_and_nan():
    with pytest.raises(QuadratureError):
        radial_integrate(lambda t: t, (-1.0, 1.0), SPEC)
    with pytest.raises(QuadratureError):
        radial_integrate(lambda t: np.full_like(t, np.nan), (0.1, 1.0),
                         SPEC)


@pytest.mark.parametrize("cuts", [(0.1,), (0.5, 0.2), (0.1, 0.3, 0.3, 1.0),
                                  (0.0, 0.0, 1.0), (0.5, 0.0, 1.0),
                                  (-1.0, 0.5, 1.0), (-1e-300, 1.0),
                                  (0.1, math.inf), (math.nan, 1.0),
                                  (0.1, 0.5, math.nan)], ids=repr)
def test_radial_rejects_bad_cuts(cuts):
    # fewer than two cuts, not strictly increasing, a first cut < 0, or a
    # non-finite cut (0 is legal as the first cut only); the integrand is
    # never called
    def never(t):
        raise AssertionError("integrand called on bad cuts")

    with pytest.raises(QuadratureError):
        radial_integrate(never, cuts, SPEC)


def _mixed(columns):
    """A singular scalar integrand, or it stacked with two smooth columns."""
    def f(t):
        g = np.sin(3.0 * t) / t
        return np.stack([g, t ** 2, np.exp(-t)], axis=-1) if columns else g
    return f


def _hexes(*values):
    return [x.hex() for x in np.hstack(values).tolist()]


@pytest.mark.parametrize("cuts", [(0.05, 0.9), (1e-6, 0.3, 0.9),
                                  (1e-6, 0.2, 0.45, 0.9), (0.0, 0.3, 0.9)],
                         ids=repr)
@pytest.mark.parametrize("columns", [False, True], ids=["M", "MxT"])
def test_radial_integrate_cuts_match_segment_sums(cuts, columns):
    # one call over all cuts: f sees every segment's coarse and fine nodes
    # at once; each segment of the pass is radial_integrate on that segment
    # alone, bit for bit, and radial_integrate adds the segments in order
    f = _mixed(columns)
    calls = []

    def counted(t):
        calls.append(t.size)
        return f(t)

    values, errors = radial_segments(counted, cuts, SPEC)
    assert len(calls) == 1
    segments = len(cuts) - 1
    assert values.shape == errors.shape == \
        ((segments, 3) if columns else (segments,))
    want_v, want_e = 0.0, 0.0
    for s, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        v, e = radial_integrate(f, (a, b), SPEC)
        assert _hexes(values[s], errors[s]) == _hexes(v, e)
        want_v = want_v + v
        want_e = want_e + e
    value, error = radial_integrate(f, cuts, SPEC)
    assert _hexes(value, error) == _hexes(want_v, want_e)
    assert np.shape(value) == np.shape(error) == ((3,) if columns else ())


def _clear_rule_caches():
    for cached in (_radial_plan, _tree_layout, _gauss_rule):
        cached.cache_clear()


@pytest.mark.parametrize("spec", [SPEC, QuadratureSpec(3, 1),
                                  QuadratureSpec(5, 3)], ids=repr)
@pytest.mark.parametrize("cuts", [(0.0, 0.3, 0.9), (1e-6, 0.2, 0.45, 0.9)],
                         ids=repr)
def test_radial_plan_cache_keeps_every_bit(cuts, spec):
    # a pass built from the cached plan reads what a pass on cleared
    # caches reads, and fails the same way
    def bad(t):
        return np.where(t > 0.25, np.nan, t)

    runs = []
    for _ in range(2):
        _clear_rule_caches()
        cold = radial_segments(_mixed(True), cuts, spec)
        warm = radial_segments(_mixed(True), cuts, spec)
        with pytest.raises(QuadratureError) as err:
            radial_segments(bad, cuts, spec)
        runs.append((_hexes(np.ravel(cold)), _hexes(np.ravel(warm)),
                     str(err.value)))
    assert runs[0] == runs[1] and runs[0][0] == runs[0][1]
    plan = _radial_plan(tuple(cuts), spec.radial_panels, spec.radial_nodes)
    arrays = [plan.lo, plan.half, plan.probes,
              *_gauss_rule(spec.radial_nodes)]
    if plan.layout.inverse is not None:
        arrays.append(plan.layout.inverse)
    assert not any(a.flags.writeable for a in arrays)


def test_radial_plan_cache_holds_no_node_arrays():
    # the cached plans hold per-panel data only: two rounds of two reports
    # over a battery of 20 profiles retain far less than the nodes and
    # weights of their passes (1.7 MB for one warm-suites round)
    from finslerineq import harness as H
    battery = H.radial_battery(20, 0.9)
    model = HyperbolicBall(3, -1.0)
    # one untraced round first: what the reports import lazily is not plans
    H.hardy_report(model, "bh", battery[0], 0.0, SPEC)
    H.hardy_bv_report(model, "bh", battery[0], 0.0, SPEC)
    _clear_rule_caches()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(2):
            for prof in battery:
                H.hardy_report(model, "bh", prof, 0.0, SPEC)
                H.hardy_bv_report(model, "bh", prof, 0.0, SPEC)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown <= 256 * 1024


@pytest.mark.parametrize("alpha", (-0.999, -0.5, 0.0, 3.0))
@pytest.mark.parametrize("b", (0.7, 2.3))
def test_origin_segment_is_exact_for_powers(alpha, b):
    # the tail below the panels is exact for rho^alpha, up to the rounding
    # of the fitted exponent, which the error estimate covers
    value, error = radial_integrate(lambda t: t ** alpha, (0.0, b), SPEC)
    exact = b ** (alpha + 1.0) / (alpha + 1.0)
    assert abs(value - exact) <= error + 1e-14 * exact
    assert error <= 1e-11 * exact


def test_origin_tail_vanishes_with_the_integrand():
    # a column that is 0 near the origin gets no tail and no tail error;
    # a column beside it keeps its own
    def f(t):
        return np.stack([np.where(t < 0.1, 0.0, (t - 0.1) ** 2),
                         t ** -0.5], axis=-1)

    values, errors = radial_segments(f, (0.0, 0.1, 1.0), SPEC)
    assert (values[0, 0], errors[0, 0]) == (0.0, 0.0)
    assert values[0, 1] == pytest.approx(2.0 * math.sqrt(0.1), rel=1e-14)


@pytest.mark.parametrize("alpha", (-1.0, -1.5, -3.0))
def test_origin_divergence_reads_infinite(alpha):
    # alpha <= -1 diverges: the origin segment reads +-inf with the sign
    # of the integrand and an infinite error, never a finite number
    def f(t):
        return np.stack([t ** alpha, -t ** alpha, np.ones_like(t)], axis=-1)

    values, errors = radial_segments(f, (0.0, 0.5, 1.0), SPEC)
    assert values[0].tolist()[:2] == [math.inf, -math.inf]
    assert np.isinf(errors[0, :2]).all()
    assert values[0, 2] == pytest.approx(0.5, rel=1e-14)
    assert np.isfinite(values[1]).all() and np.isfinite(errors[1]).all()
    value, error = radial_integrate(lambda t: t ** alpha, (0.0, 1.0), SPEC)
    assert value == math.inf and error == math.inf


def test_annulus_from_the_origin():
    # eps = 0 takes the radial rule's tail: the flat ball's volume
    # |S^{n-1}| R^n / n, whose integrand rho^(n-1) is a pure power
    m = RandersFlat(3, 0.0)
    val, err = annulus_integrate(m, "bh", lambda rr, ww: np.ones((1, 1)),
                                 0.0, 0.8, SPEC)
    want = m.cp_constant("bh") * 0.8 ** 3 / 3.0
    assert abs(val - want) <= err + 1e-14 * want


def test_radial_convergence_order():
    # a low-order spec: halving panels must gain at least a factor 8
    exact = math.exp(1.0) - math.exp(0.25)
    coarse = QuadratureSpec(radial_nodes=2, radial_panels=4)
    fine = QuadratureSpec(radial_nodes=2, radial_panels=8)
    e1 = abs(radial_integrate(np.exp, (0.25, 1.0), coarse)[0] - exact)
    e2 = abs(radial_integrate(np.exp, (0.25, 1.0), fine)[0] - exact)
    assert e1 / e2 >= 8.0


def test_sphere_area_and_moments():
    for n in (2, 3, 4, 5):
        got = sphere_integrate(lambda w: np.ones(len(w)), n, SPEC)
        assert got == pytest.approx(unit_sphere_area(n), rel=1e-12)
    # the angular factor h integrates to zero, h^2 to area/n
    assert sphere_integrate(lambda w: w[:, -1], 3, SPEC) == \
        pytest.approx(0.0, abs=1e-12)
    assert sphere_integrate(lambda w: w[:, -1] ** 2, 3, SPEC) == \
        pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


def test_annulus_j1_identity():
    # frozen: 4 pi ln(5000) = 107.03020623743303
    m = RandersFlat(3, 0.5)
    val, err = annulus_integrate(m, "bh", lambda r, w: r**-3.0,
                                 1e-4, 0.5, SPEC)
    assert val == pytest.approx(107.03020623743303, rel=1e-9)
    assert err < 1e-7


def test_annulus_constant_euclidean():
    e = euclidean_flat(3)
    val, _ = annulus_integrate(e, "bh", lambda r, w: np.ones_like(r),
                               0.2, 1.0, SPEC)
    want = 4.0 / 3.0 * math.pi * (1.0 - 0.2**3)
    assert val == pytest.approx(want, rel=1e-10)


def test_annulus_hyperbolic_volume_growth():
    for n in (2, 3):
        h = HyperbolicBall(n, -1.0)
        val, _ = annulus_integrate(h, "bh", lambda r, w: np.ones_like(r),
                                   0.05, 1.5, SPEC)
        if n == 2:
            want = 2 * math.pi * (math.cosh(1.5) - math.cosh(0.05))
        else:
            want = 4 * math.pi * ((math.sinh(3.0) / 2 - 1.5)
                                  - (math.sinh(0.1) / 2 - 0.05)) / 2.0
        assert val == pytest.approx(want, rel=1e-9)


def test_coarea_consistency():
    # the annulus integral of f F(grad rho~+) equals the iterated
    # radial-sphere integral (F(grad of the reverse-forward distance) = 1)
    m = RandersFlat(3, 0.5)

    def f(r, w):
        return np.exp(-r) * (1.0 + 0.3 * w[:, 0] ** 2)

    full, _ = annulus_integrate(m, "bh", f, 0.1, 1.0, SPEC)

    def shell_exact(r):
        # angular integral of (1 + 0.3 w0^2)(1 + t h) over S^2 = area(1+0.1)
        return np.exp(-r) * r**2 * 4.0 * math.pi * 1.1

    iterated, _ = radial_integrate(shell_exact, (0.1, 1.0), SPEC)
    assert full == pytest.approx(iterated, rel=1e-10)


def test_sphere_nodes_shared_and_read_only():
    dirs, wts = sphere_nodes(3, SPEC)
    again = sphere_nodes(3, SPEC)
    assert again[0] is dirs and again[1] is wts
    for a in (dirs, wts):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("order", [3, 6])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sphere_nodes_count(n, order):
    # order Gauss nodes per polar angle and 4 order on the azimuth circle
    dirs, wts = sphere_nodes(n, QuadratureSpec(sphere_order=order))
    assert dirs.shape == (4 * order ** (n - 1), n)
    assert wts.shape == (4 * order ** (n - 1),)


def _columns(*cols):
    return np.stack(np.broadcast_arrays(*cols), axis=-1)


# scalar and column integrands, radial and direction dependent; the blocked
# shell gets rho (m, 1) and omega (K, n), the tiled oracle flat (M,), (M, n),
# so a direction-only integrand returns (K,) to the one and (M,) to the other
ANNULUS_INTEGRANDS = {
    "radial": lambda r, w: r ** -3.0,
    "sphere-only": lambda r, w: 1.0 + 0.3 * w[..., 0] ** 2,
    "directional": lambda r, w: np.exp(-r) * (1.0 + 0.3 * w[..., 0] ** 2),
    "radial-columns": lambda r, w: _columns(r ** -2.0, np.cos(r)),
    "directional-columns": lambda r, w: _columns(
        r ** -2.0, r * w[..., -1], np.sin(r + w[..., 0])),
}


# the n = 4 rule has 1372 directions, so a block holds 47 nodes, and the
# 90-node fine pass on (2e-3, 0.8) ends in a partial block of 43
@pytest.mark.parametrize("measure", ("bh", "ht"))
@pytest.mark.parametrize("model,spec", [
    (RandersFlat(3, 0.5), SPEC), (HyperbolicBall(3, -1.0), SPEC),
    (RandersFlat(4, 0.3), QuadratureSpec(radial_nodes=5, radial_panels=3,
                                         sphere_order=7)),
    (HyperbolicBall(2, -0.5), QuadratureSpec(radial_nodes=7,
                                             sphere_order=9))], ids=repr)
@pytest.mark.parametrize("name", ANNULUS_INTEGRANDS)
def test_annulus_bit_identical_to_tiled(name, model, spec, measure):
    # broadcasting nodes against directions in blocks keeps every bit of
    # the rule that evaluates each node-direction pair as a flat point
    f = ANNULUS_INTEGRANDS[name]
    got = annulus_integrate(model, measure, f, 2e-3, 0.8, spec)
    want = annulus_integrate_tiled(model, measure, f, 2e-3, 0.8, spec)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_power_integral_helper():
    assert power_integral(2.0, 0.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert power_integral(-1.0, 0.1, 1.0) == pytest.approx(math.log(10.0))
    with pytest.raises(QuadratureError):
        power_integral(-2.0, 0.0, 1.0)


def test_pairwise_sum_matches_numpy():
    rng = np.random.default_rng(30)
    a = rng.standard_normal(1000)
    assert pairwise_sum(a) == pytest.approx(float(np.sum(a)), rel=1e-12)
    assert pairwise_sum(np.array([])) == 0.0


def _padded_tree(values):
    """The pairwise tree on a list zero-padded to a power of two."""
    v = list(values) or [0.0]
    v += [0.0] * ((1 << (len(v) - 1).bit_length()) - len(v))
    while len(v) > 1:
        v = [v[i] + v[i + 1] for i in range(0, len(v), 2)]
    return v[0]


@pytest.mark.parametrize("axis", (0, 1, 2))
@pytest.mark.parametrize("shape", [(5, 6, 7), (16, 3, 13), (1, 9, 4),
                                   (0, 3, 5), (7, 0, 2)])
def test_pairwise_sum_axis(shape, axis):
    # every slice along the axis is summed as the 1-d array of its values;
    # magnitudes spread over 16 decades make any other order show
    rng = np.random.default_rng(31)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    got = pairwise_sum(a, axis=axis)
    rows = np.moveaxis(a, axis, -1)
    flat = rows.reshape(math.prod(rows.shape[:-1]), rows.shape[-1])
    want = [pairwise_sum(v) for v in flat]
    assert got.shape == rows.shape[:-1]
    assert np.array_equal(got.ravel(), want)
    assert want == [_padded_tree(v) for v in flat]


@pytest.mark.parametrize("trailing", [(), (3,), (2, 4)], ids=repr)
@pytest.mark.parametrize("draw", range(6))
def test_tree_sums_match_pairwise_sum(draw, trailing):
    # one tree over runs of every kind of length (1, 0, odd, powers of two,
    # and the panels x radial_nodes of nodes 2, 3, 5 and 24, whose factors
    # of 2 differ) gives each run's pairwise_sum, bit for bit
    rng = np.random.default_rng(40 + draw)
    kinds = [1, 0, int(rng.integers(1, 40)) * 2 + 1,
             1 << int(rng.integers(1, 8))]
    kinds += [int(rng.integers(1, 30)) * nodes for nodes in (2, 3, 5, 24)]
    runs = [int(r) for r in rng.choice(kinds, size=int(rng.integers(1, 12)))]
    if draw == 0:
        runs = [24 * p for p in (8, 16, 40, 80, 3, 6)]
    shape = (sum(runs),) + trailing
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    got = _tree_sums(a, _tree_layout(tuple(runs)))
    assert got.shape == (len(runs),) + trailing
    stops = np.cumsum(runs)
    for run, stop, value in zip(runs, stops, got):
        part = a[stop - run:stop]
        assert np.array_equal(value, pairwise_sum(part))
        flat = part.reshape(run, -1).T
        assert value.ravel().tolist() == [_padded_tree(v) for v in flat]


def test_annulus_bits_independent_of_blas_threads():
    # the sphere sums must not depend on the BLAS thread count; at n = 5 the
    # rule has 262144 directions, long enough for OpenBLAS to split a dot
    # product over threads
    code = ("import numpy as np\n"
            "from finslerineq.models import RandersFlat\n"
            "from finslerineq.quadrature import QuadratureSpec, "
            "annulus_integrate\n"
            "spec = QuadratureSpec(radial_nodes=4, radial_panels=1)\n"
            "fs = (lambda r, w: np.stack(np.broadcast_arrays(r ** -2.0, "
            "r * w[..., -1], np.sin(r + w[..., 0])), axis=-1),\n"
            "      lambda r, w: np.exp(-r) * (1.0 + 0.3 * w[..., 0] ** 2))\n"
            "for f in fs:\n"
            "    v, e = annulus_integrate(RandersFlat(5, 0.3), 'bh', f, 0.2, "
            "0.8, spec)\n"
            "    print(*(x.hex() for x in np.ravel([v, e]).tolist()))\n")
    src = str(Path(finslerineq.__file__).parents[1])
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src,
                                "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert len(outs[0].split()) == 8 and outs[0] == outs[1]


def test_determinism_bit_identical():
    m = RandersFlat(3, 0.5)
    a = annulus_integrate(m, "ht", lambda r, w: r**-2.0, 1e-3, 0.7, SPEC)
    b = annulus_integrate(m, "ht", lambda r, w: r**-2.0, 1e-3, 0.7, SPEC)
    assert a == b
    s1 = box_montecarlo(m, "bh", lambda x: np.ones(len(x)),
                        -np.ones(3), np.ones(3), samples=200_000, seed=1234)
    s2 = box_montecarlo(m, "bh", lambda x: np.ones(len(x)),
                        -np.ones(3), np.ones(3), samples=200_000, seed=1234)
    assert s1 == s2


def test_montecarlo_ball_volume():
    e = euclidean_flat(3)
    val, stderr = box_montecarlo(
        e, "ht", lambda x: (np.linalg.norm(x, axis=1) < 1.0).astype(float),
        -np.ones(3), np.ones(3), samples=200_000, seed=1234)
    want = 4.0 / 3.0 * math.pi
    assert abs(val - want) < 4.0 * stderr + 1e-3


def test_montecarlo_measure_ratio():
    # same integrand under BH vs HT differs by (1-t^2)^((n+1)/2)
    m = RandersFlat(3, 0.5)
    f = lambda x: np.exp(-np.sum(x * x, axis=1))
    bh, _ = box_montecarlo(m, "bh", f, -np.ones(3), np.ones(3),
                           samples=200_000, seed=1234)
    ht, _ = box_montecarlo(m, "ht", f, -np.ones(3), np.ones(3),
                           samples=200_000, seed=1234)
    assert bh / ht == pytest.approx((1 - 0.25) ** 2.0, rel=1e-12)


def test_montecarlo_agrees_with_annulus_for_radial_field():
    m = RandersFlat(3, 0.5)

    def radial(x):
        rho = np.asarray(m.rho_minus(x))
        return np.where(rho < 1.0, (1.0 - rho) ** 2, 0.0)

    mc, stderr = box_montecarlo(m, "bh", radial,
                                -2 * np.ones(3), 2 * np.ones(3),
                                samples=400_000, seed=7)
    exact, _ = annulus_integrate(
        m, "bh", lambda r, w: np.where(r < 1.0, (1.0 - r) ** 2, 0.0),
        1e-8, 1.0, SPEC)
    assert abs(mc - exact) < 3.0 * stderr


def test_montecarlo_exclusion_required_for_singular():
    m = euclidean_flat(2)

    def singular(x):
        r = np.linalg.norm(x, axis=1)
        return np.where(r < 0.3, np.inf, 1.0)

    with pytest.raises(QuadratureError):
        box_montecarlo(m, "bh", singular, -np.ones(2), np.ones(2),
                       samples=500, seed=0)
    val, _ = box_montecarlo(m, "bh", singular, -np.ones(2), np.ones(2),
                            samples=500, seed=0, exclude_radius=0.3)
    assert np.isfinite(val)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(radial_nodes=1)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)


def test_holmes_thompson_ellipsoid_volume():
    # dm_HT = dx: the backward ball {rho_minus < R} is an ellipsoid of
    # Lebesgue volume omega_n R^n / (1 - t^2)^((n+1)/2)
    m = RandersFlat(3, 0.5)
    val, _ = annulus_integrate(m, "ht", lambda r, w: np.ones_like(r),
                               1e-9, 1.0, SPEC)
    want = (4.0 / 3.0) * math.pi / (1 - 0.25) ** 2.0
    assert val == pytest.approx(want, rel=1e-8)


def test_hyperbolic_annulus_mass_lower_bound():
    # int_eps^r t^{-1} (sinh t / t)^{n-1} dt >= log(r/eps): the curved-model
    # annulus mass dominates the flat one
    h = HyperbolicBall(3, -1.0)
    eps, r = 1e-4, 0.5
    val, _ = radial_integrate(
        lambda t: t ** -3.0 * np.sinh(t) ** 2, (eps, r), SPEC)
    assert val >= math.log(r / eps)
