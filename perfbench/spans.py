"""Spans and counters recorded from outside the program.

``install`` replaces public functions and methods of ``finslerineq`` with
wrappers that record, per span name, the number of calls, the inclusive
time and the self time (inclusive time minus the time of the wrapped calls
made inside it), plus point counts where a layer has points.  Hot per-point
functions only count, because a span per point would dominate their cost.
Nothing of the program is changed on disk; the wrappers live for one
process.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

import numpy as np

REPORTS = ("hardy_report", "hardy_bv_report", "poincare_report",
           "uncertainty_report", "gbeta", "rellich_report",
           "rellich_bv_report", "hardy_sharpness_sweep",
           "rellich_sharpness_sweep", "refined_cs_campaign")
ANNULUS = "quadrature.annulus_integrate"


def _points(x) -> int:
    """Points in a point array (n,) or stack (..., n)."""
    x = np.asarray(x)
    return 1 if x.ndim <= 1 else x.size // x.shape[-1]


class Tracer:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self.stack: list[list] = []    # [name, time covered by children]

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def span(self, name: str, fn, before=None):
        """Wrap ``fn`` in a span; ``before(args, kwargs)`` may rewrite the
        arguments (to count points) and returns them."""
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            tracer.calls[name] += 1
            frame = [name, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                tracer.stack.pop()
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn, points=None):
        """Count calls of ``fn`` and, with ``points(args)``, its points."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count[name + ".calls"] += 1
            if points is not None:
                tracer.count[name + ".points"] += points(args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def counting(self, name: str, fn):
        """An integrand wrapper that adds the size of its first argument."""
        tracer = self

        def wrapper(x, *rest):
            tracer.count[name] += np.asarray(x).size
            return fn(x, *rest)
        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the program's public entry points for the life of the process."""
    from finslerineq import cli, fields, harness, minkowski, models, \
        quadrature

    for name in REPORTS:
        setattr(harness, name, _report_span(tracer, name,
                                            getattr(harness, name)))

    # radial passes made inside annulus_integrate are its shells, so they
    # get their own span and leave the radial evaluator's figures alone
    radial_spans = {}
    for parent, name in ((None, "quadrature.radial_integrate"),
                         (ANNULUS, "quadrature.radial_integrate.annulus")):
        def radial_before(args, kwargs, key=name + ".points"):
            return (tracer.counting(key, args[0]), *args[1:]), kwargs
        radial_spans[parent] = tracer.span(name, quadrature.radial_integrate,
                                           radial_before)

    def radial(*args, **kwargs):
        parent = ANNULUS if tracer.parent() == ANNULUS else None
        return radial_spans[parent](*args, **kwargs)
    quadrature.radial_integrate = harness.radial_integrate = radial

    def annulus_before(args, kwargs):
        integrand = args[2]

        def counted(rr, ww):
            tracer.count[ANNULUS + ".points"] += np.asarray(rr).size
            return integrand(rr, ww)
        return (*args[:2], counted, *args[3:]), kwargs

    annulus = tracer.span(ANNULUS, quadrature.annulus_integrate,
                          annulus_before)
    quadrature.annulus_integrate = harness.annulus_integrate = annulus

    def pairwise_before(args, kwargs):
        tracer.count["quadrature.pairwise_sum.elements"] += \
            np.asarray(args[0]).size
        return args, kwargs

    quadrature.pairwise_sum = tracer.span("quadrature.pairwise_sum",
                                          quadrature.pairwise_sum,
                                          pairwise_before)

    battery = harness.radial_battery

    def traced_battery(*args, **kwargs):
        return [_counted_profile(tracer, p) for p in battery(*args, **kwargs)]
    harness.radial_battery = tracer.span("harness.radial_battery",
                                         traced_battery)

    for cls in (models.RandersFlat, models.HyperbolicBall):
        cls.polar_density = tracer.counter(
            "models.polar_density", cls.polar_density,
            lambda args: np.asarray(args[2]).size)
        cls.point_from_backward_polar = tracer.counter(
            "models.point_from_backward_polar",
            cls.point_from_backward_polar,
            lambda args: np.asarray(args[1]).size)

    fields.ScalarField.__call__ = tracer.counter(
        "fields.field", fields.ScalarField.__call__,
        lambda args: _points(args[1]))
    fields.differential = tracer.counter("fields.differential",
                                         fields.differential)

    def laplacian_before(args, kwargs):
        tracer.count["fields.numeric_laplacian.points"] += _points(args[3])
        return args, kwargs

    fields.numeric_laplacian = tracer.span("fields.numeric_laplacian",
                                           fields.numeric_laplacian,
                                           laplacian_before)

    norm = minkowski.MinkowskiNorm

    def pairs_before(args, kwargs):
        tracer.count["minkowski.refined_cs_slack.pairs"] += _points(args[1])
        return args, kwargs

    norm.refined_cs_slack = tracer.span("minkowski.refined_cs_slack",
                                        norm.refined_cs_slack, pairs_before)
    norm.dual_fundamental_form = tracer.counter(
        "minkowski.dual_fundamental_form", norm.dual_fundamental_form)
    # the constants suite's sampling is program work, not command-line work
    for meth in ("sampled_reversibility", "sampled_uniformity"):
        setattr(norm, meth, tracer.span("minkowski." + meth,
                                        getattr(norm, meth)))

    cli.main = tracer.span("cli.main", cli.main)


def _report_span(tracer: Tracer, name: str, fn):
    def nested(args, kwargs):
        if any(frame[0] in REPORTS for frame in tracer.stack):
            tracer.count["harness.nested_report_calls"] += 1
        return args, kwargs
    return tracer.span(name, fn, nested)


def _counted_profile(tracer: Tracer, prof):
    def wrap(fn):
        return tracer.span("models.profile",
                           tracer.counting("models.profile.points", fn))
    return dataclasses.replace(prof, f=wrap(prof.f), d1=wrap(prof.d1),
                               d2=wrap(prof.d2))
