"""Profile jets: one call gives f, f' and f'' with the bits of the separate
formulas, and the radial road reads each profile through it once."""

import dataclasses
import json

import numpy as np
import pytest

from finslerineq import harness as H
from finslerineq.models import (HyperbolicBall, RandersFlat, cutoff_profile,
                                profile_product, truncated_profile)
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
        got = prof.derivatives(rho, order)
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
    assert prof.nonincreasing
    _assert_jet_matches(prof, truncated_formulas(gamma, eps, r, R),
                        _grid(eps, r, R))


def test_growing_truncated_power_is_not_nonincreasing():
    prof = truncated_profile(-0.5, 0.1, 0.5, 0.9)
    assert not prof.nonincreasing


def _report_text(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


@pytest.mark.parametrize("index", range(4))
def test_default_jet_gives_the_same_reports(index):
    # a profile known only by its f, d1 and d2 views takes the default
    # path of derivatives, with the same bits as its jet
    flat, hyp = RandersFlat(6, 0.4), HyperbolicBall(6, -1.0)
    prof = H.radial_battery(4, 0.9)[index]
    plain = dataclasses.replace(prof, jet=None)
    assert plain.jet is None and prof.jet is not None
    for run in (lambda p: H.hardy_report(flat, "bh", p, 0.5),
                lambda p: H.hardy_bv_report(hyp, "bh", p, 0.5),
                lambda p: H.rellich_report(flat, "ht", p, 0.5),
                lambda p: H.rellich_bv_report(hyp, "bh", p, 1.0),
                lambda p: H.uncertainty_report(flat, "bh", p, 0.5),
                lambda p: H.poincare_report(hyp, "bh", p)):
        assert _report_text(run(plain)) == _report_text(run(prof))
    assert H.gbeta(flat, "bh", plain, 0.5) == H.gbeta(flat, "bh", prof, 0.5)


def test_one_transition_per_pass():
    # the cutoff of a product profile is evaluated once on the node array
    # of a Rellich pass; the other calls read single breakpoints: the C^1
    # check and the flux jump each read the breakpoint's two sides, and
    # the Green-mass check reads f near the origin
    sizes = []
    cutoff = cutoff_profile(0.3, 0.7)

    def counted(rho, order=2):
        sizes.append(np.size(rho))
        return cutoff.jet(rho, order)

    prof = profile_product(dataclasses.replace(cutoff, jet=counted),
                           H._gauss_profile(0.8, 0.7))
    H.rellich_report(RandersFlat(6, 0.4), "bh", prof, 0.5)
    passes = [n for n in sizes if n > 3]
    assert len(passes) == 1 and passes[0] > 1000
    assert len(sizes) <= 4
