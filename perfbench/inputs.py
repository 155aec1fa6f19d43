"""Seeded inputs for the three workloads.

Everything a workload feeds the program is made here from the workload
seed, so one seed always gives the same inputs.  The seed draws

* the Randers drift ``t`` in [T_LOW, T_HIGH), passed to every suite that
  runs on the flat Randers model and to the field-path Randers models;
* the ``refined-cs`` campaign seed, an integer in [0, 2**31);
* the modulation of the non-radial field: amplitude in [0.1, 0.3), a wave
  vector of length in [1, 3) pointing in a uniform direction, and a phase
  in [0, 2 pi).

The two edge-of-integrability operations and all quadrature specs are
pinned and do not depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 20171001
T_LOW, T_HIGH = 0.2, 0.7

# The eleven suites of the command line, each at its default resolution.
SUITES = ("hardy", "hardy-bv", "hardy-sweep", "rellich", "rellich-bv",
          "rellich-sweep", "uncertainty", "gbeta-check", "poincare",
          "refined-cs", "constants")
# Suites whose default model is the flat Randers space (they take --t).
RANDERS_SUITES = ("hardy", "hardy-sweep", "rellich", "rellich-sweep",
                  "uncertainty", "gbeta-check", "constants", "refined-cs")

# Operations at the edge of integrability, pinned to the default drift.
# Both hit the near-origin cutoff of the radial quadrature (ROADMAP item 3).
EDGE_OPS = {
    "edge-gbeta-check": ("gbeta-check", "--n", "6", "--beta", "1.9"),
    "edge-hardy": ("hardy", "--n", "3", "--beta", "0.999"),
}

# The radial suites run on radial_battery(10, 0.9) (the command line's
# battery radius is 0.9 on every model used here); its profile 0 is the
# plain cutoff with r = 0.25 * 0.9 and R = 0.65 * 0.9.  The field path uses
# the same profile, so one mpmath reference serves both.
FIELD_COUNT, FIELD_RADIUS = 10, 0.9
PROFILE0 = (0.25 * FIELD_RADIUS, 0.65 * FIELD_RADIUS)
FIELD_OPS = ("hardy-randers-radial", "hardy-randers-modulated",
             "hardy-randers-modulated-fd", "hardy-hyperbolic-radial",
             "gbeta-randers4-radial")
HYPERBOLIC_K = -1.0
GBETA_DIM, GBETA_BETA = 4, -1.0
# Cutoff (r, R) under the modulated field.
MODULATED_CUTOFF = (0.2, 0.6)
# (radial_nodes, radial_panels, sphere_order) of each field-path operation.
SPEC_HARDY = (4, 1, 3)
SPEC_HARDY_MOD = (2, 1, 2)
SPEC_HARDY_HYP = (3, 1, 3)
SPEC_GBETA = (6, 1, 2)
SPEC_WARMUP = (2, 1, 2)


@dataclass(frozen=True)
class Draw:
    """The seeded part of the inputs."""

    seed: int
    t: float
    cs_seed: int
    amplitude: float
    wave: tuple
    phase: float


def draw(seed: int) -> Draw:
    rng = np.random.default_rng(seed)
    t = round(float(rng.uniform(T_LOW, T_HIGH)), 6)
    cs_seed = int(rng.integers(0, 2**31))
    amplitude = float(rng.uniform(0.1, 0.3))
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    wave = tuple(float(v) for v in direction * rng.uniform(1.0, 3.0))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return Draw(seed, t, cs_seed, amplitude, wave, phase)


def suite_args(d: Draw, out_root: str) -> dict[str, list[str]]:
    """Command-line arguments of the eleven suites, keyed by suite name."""
    ops = {}
    for suite in SUITES:
        args = [suite, "--out", f"{out_root}/{suite}"]
        if suite in RANDERS_SUITES:
            args += ["--t", repr(d.t)]
        if suite == "refined-cs":
            args += ["--seed", str(d.cs_seed)]
        ops[suite] = args
    return ops


def edge_args(out_root: str) -> dict[str, list[str]]:
    return {name: [*args, "--out", f"{out_root}/{name}"]
            for name, args in EDGE_OPS.items()}


# ----------------------------------------------------------- field inputs
def _norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(x * x, axis=-1))


class ModulatedField:
    """u(x) = f(rho(x)) * (1 + a sin(k.x + phase)) with its differential.

    ``rho`` is the backward distance from the origin: |x| - t x_n on the
    flat Randers model, 2 artanh(sqrt(-k)|x|)/sqrt(-k) on the hyperbolic
    ball; x is in R^3.  ``fn`` and ``grad`` use only axis=-1 operations, so
    they accept a point (n,) or a stack (..., n).
    """

    def __init__(self, profile, drift: float | None, curvature: float | None,
                 d: Draw):
        self.profile = profile
        self.drift = drift
        self.curvature = curvature
        self.amplitude = d.amplitude
        self.wave = np.asarray(d.wave)
        self.phase = d.phase

    def _rho(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = _norm(x)
        radial = x / np.asarray(r)[..., None]
        if self.drift is not None:
            drho = radial.copy()
            drho[..., -1] -= self.drift
            return r - self.drift * x[..., -1], drho
        s = math.sqrt(-self.curvature)
        rho = 2.0 * np.arctanh(s * r) / s
        return rho, (2.0 / (1.0 - s * s * r * r))[..., None] * radial

    def fn(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rho, _ = self._rho(x)
        mod = 1.0 + self.amplitude * np.sin(x @ self.wave + self.phase)
        return np.asarray(self.profile.f(rho)) * mod

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rho, drho = self._rho(x)
        arg = x @ self.wave + self.phase
        mod = 1.0 + self.amplitude * np.sin(arg)
        dmod = (self.amplitude * np.cos(arg))[..., None] * self.wave
        f = np.asarray(self.profile.f(rho))
        f1 = np.asarray(self.profile.d1(rho))
        return (f1 * mod)[..., None] * drho + f[..., None] * dmod
