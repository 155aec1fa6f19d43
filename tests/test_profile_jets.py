"""Profile jets: one call gives f, f' and f'' with the bits of the separate
formulas, and the radial road reads each profile through it once."""

import dataclasses

import numpy as np
import pytest

from finslerineq import harness as H
from finslerineq.models import (HyperbolicBall, RadialProfile, RandersFlat,
                                cutoff_profile, profile_product,
                                truncated_profile)
from oracles import battery_formulas, cutoff_formulas, truncated_formulas


def _grid(*knots: float) -> np.ndarray:
    """Each knot with its two neighbouring doubles, plus a spread of radii
    from deep inside the flat part of a cutoff to beyond its support."""
    near = [np.nextafter(k, side) for k in knots for side in (0.0, np.inf)]
    return np.sort(np.concatenate([np.geomspace(1e-12, 2.0, 400),
                                   knots, near]))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _assert_jet_matches(prof, formulas, rho: np.ndarray) -> None:
    """Every order of the jet, the f/d1/d2 views and the 0-d reads equal the
    separate formulas bit for bit."""
    for order in range(3):
        got = prof.jet(rho, order)
        assert len(got) == order + 1
        for k in range(order + 1):
            assert _bits(got[k]) == _bits(formulas[k](rho)), (order, k)
    for view, formula in zip((prof.f, prof.d1, prof.d2), formulas):
        assert _bits(view(rho)) == _bits(formula(rho))
        for x in rho[::37]:
            assert _bits(view(x)) == _bits(formula(x))
            assert _bits(view(float(x))) == _bits(formula(float(x)))


@pytest.mark.parametrize("index", range(8))
def test_battery_jets_match_separate_formulas(index):
    # kinds 0-3 (the cutoff and its gauss, exp and lorentz products), twice
    prof = H.radial_battery(8, 0.9)[index]
    r, R = prof.breakpoints[0], prof.support
    _assert_jet_matches(prof, battery_formulas(8, 0.9)[index], _grid(r, R))


def test_cutoff_jet_matches_separate_formulas():
    r, R = 0.4, 0.9
    formulas = cutoff_formulas(r, R)
    rho = _grid(r, R, 0.5 * (r + R))
    psi = cutoff_profile(r, R)
    _assert_jet_matches(psi, formulas, rho)
    # a 0-d rho gives 0-d values, on the band and off it
    for view in (psi.f, psi.d1, psi.d2):
        assert np.ndim(view(0.6)) == 0
        assert np.ndim(view(np.float64(0.2))) == 0
    assert all(np.ndim(v) == 0 for v in psi.jet(np.array(0.6)))


@pytest.mark.parametrize("gamma,eps", [(0.5, 1e-3), (1.0, 0.05), (2.5, 0.2)])
def test_truncated_family_jet_matches_separate_formulas(gamma, eps):
    r, R = 0.5, 0.9
    prof = truncated_profile(gamma, eps, r, R)
    assert prof.breakpoints == (eps, r) and prof.support == R
    _assert_jet_matches(prof, truncated_formulas(gamma, eps, r, R),
                        _grid(eps, r, R))


def test_growing_truncated_power_is_not_nonincreasing():
    # max(eps, rho)^(1/2) rises beyond eps: the radial road rejects it on a
    # nonreversible model and takes it on a reversible one
    prof = truncated_profile(-0.5, 0.1, 0.5, 0.9)
    with pytest.raises(H.PreconditionError, match="f' > 0 at rho = 0.1"):
        H.hardy_report(RandersFlat(3, 0.4), "bh", prof, 0.0)
    assert H.hardy_report(HyperbolicBall(3, -1.0), "bh", prof, 0.0).passed


def test_one_transition_per_pass():
    # the cutoff of a product profile is evaluated once on the node array
    # of a Rellich pass, and once more by the point read of G^beta: f(0),
    # and f(b) and f' at the two sides of the breakpoint b
    sizes = []
    cutoff = cutoff_profile(0.3, 0.7)

    def counted(rho, order=2):
        sizes.append(np.size(rho))
        return cutoff.jet(rho, order)

    prof = profile_product(dataclasses.replace(cutoff, jet=counted),
                           H._gauss_profile(0.8, 0.7))
    H.rellich_report(RandersFlat(6, 0.4), "bh", prof, 0.5)
    assert len(sizes) == 2 and sizes[0] == 4 and sizes[1] > 1000


@pytest.mark.parametrize("report,model,beta", [
    (H.rellich_report, RandersFlat(6, 0.5), 0.0),
    (H.rellich_report, HyperbolicBall(6, -1.0), 0.0),
    (H.rellich_bv_report, HyperbolicBall(6, -1.0), 0.0),
    (H.gbeta, RandersFlat(6, 0.5), 0.0),
    (H.gbeta, HyperbolicBall(6, -1.0), 0.0),
    (H.gbeta, HyperbolicBall(6, -1.0), 2.0)],
    ids=["rellich", "rellich-hyperbolic", "rellich-bv", "gbeta",
         "gbeta-hyperbolic", "gbeta-green"])
def test_two_jet_calls_per_report(report, model, beta, monkeypatch):
    # every point term of G^beta comes from one read, and the terms from one
    # pass; the profile's f, d1 and d2 views are its jet too, so any other
    # read would count here.  The pass reads D once, on its nodes: the
    # radial Laplacian and the G^beta density share it
    calls, d_sizes = [], []
    prof = H.radial_battery(10, 0.9)[0]

    def counted(rho, order=2):
        calls.append(np.size(rho))
        return prof.jet(rho, order)

    def counted_d(rho):
        d_sizes.append(np.size(rho))
        return type(model).comparison_remainder(model, rho)

    monkeypatch.setattr(model, "comparison_remainder", counted_d)
    report(model, "bh", RadialProfile.from_jet(
        counted, prof.support, breakpoints=prof.breakpoints), beta)
    assert len(calls) == 2
    assert d_sizes == [calls[1]]
