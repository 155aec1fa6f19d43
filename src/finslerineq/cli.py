"""Configuration-driven command line front end.

Builds a model from flags or a sectioned key=value config file (flags win),
runs one verification suite, and writes machine-readable artifacts:
``report.json`` always, plus ``sweep.csv`` for sweeps or ``terms.csv`` for
reports.  ``SUITES`` is the one table of suites (help, default model and
n, runner) and ``SECTIONS`` names each run parameter once.  Each theorem's
domain is checked by the harness, not here; a failed run writes nothing.
Exit status: 0 all assertions pass, 1 assertion failure, 2 configuration
error, 3 numerical failure.  The module imports only the standard library:
``list``, ``--help`` and usage errors load no numpy, and a suite loads numpy
and the numerical modules when it runs, after numpy's OpenBLAS pool has been
given one thread unless the caller sets ``OPENBLAS_NUM_THREADS``.
``console()`` is the process entry (``python -m finslerineq.cli`` and the
``finslerineq`` script): it runs ``main`` with the cyclic collector off and
freezes the heap at the end, so that interpreter shutdown collects none of
it.  ``main(argv)`` keeps the collector, for tests and callers whose
process goes on.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import json
import math
import os
import re
import sys
from dataclasses import astuple, dataclass, field, fields, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

# OpenBLAS starts a pool of helper threads, one per core, when numpy loads,
# and they burn CPU although no computation here is a BLAS product (see
# ``quadrature``).  So one thread, unless the caller chose.  Neither the
# package's ``__init__`` nor this module imports numpy at load (the
# numerical modules are imported in the functions that use them), so in a
# CLI process this runs before numpy loads; where numpy came first, its
# pool stays as it was.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__

MODELS = ("randers", "euclidean", "hyperbolic")
MEASURES = ("bh", "ht")

EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """One run; metadata gives a field's config key, flags, choices, help."""

    suite: str
    model: str = field(default="randers",
                       metadata={"key": "kind", "choices": MODELS})
    n: int = 3
    t: float = field(default=0.5, metadata={"flags": ("--t", "--b"),
                                            "help": "Randers drift"})
    k: float = -1.0
    measure: str = field(default="bh", metadata={"choices": MEASURES})
    beta: float = 0.0
    r: float = 0.5
    R: float = 1.0
    eps: tuple = field(default=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
                       metadata={"help": "comma-separated truncation radii"})
    samples: int = field(default=0, metadata={"help": "report battery size"})
    seed: int = field(default=1234, metadata={"help": "read by no suite"})
    tol: float = 1e-9
    out: str = "out"
    quad: dict = field(default_factory=dict)

    @property
    def drift(self) -> float:
        """The Randers drift t; the other models are reversible."""
        return self.t if self.model == "randers" else 0.0

    @property
    def curvature(self) -> float:
        """The curvature k of the hyperbolic model; the others are flat."""
        return self.k if self.model == "hyperbolic" else 0.0

    def build_model(self):
        from .models import HyperbolicBall, RandersFlat, euclidean_flat
        if self.model == "randers":
            return RandersFlat(self.n, self.t)
        if self.model == "euclidean":
            return euclidean_flat(self.n)
        return HyperbolicBall(self.n, self.k)     # which requires k < 0

    def build_spec(self) -> QuadratureSpec:
        from .quadrature import QuadratureSpec
        accepted = [f.name for f in fields(QuadratureSpec)]
        for key in self.quad:
            if key not in accepted:
                raise ConfigError(f"unknown [quadrature] key {key!r}; "
                                  f"accepted: {', '.join(accepted)}")
        kw = dict(self.quad)
        kw.setdefault("abs_tol", self.tol)
        kw.setdefault("rel_tol", self.tol)
        return QuadratureSpec(**kw)

    def validate(self) -> None:
        """Checks on outside input only; the harness checks each domain."""
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}")
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if self.measure not in MEASURES:
            raise ConfigError("measure must be bh or ht")
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}; accepted: "
                              f"{', '.join(MODELS)}")
        for name in ("t", "k", "beta", "r", "R", "tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not all(math.isfinite(e) for e in self.eps):
            raise ConfigError(f"every eps must be finite, got {self.eps}")
        if self.samples < 0:
            raise ConfigError(f"samples must be >= 0, got {self.samples}")
        if self.model == "randers" and not 0.0 <= self.t < 1.0:
            raise ConfigError("randers drift t must be in [0, 1)")
        out = Path(self.out)
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"out must name a directory, but {existing} "
                              f"is a file")


def _fmt(x) -> str:
    return f"{x:.17g}"


def _json_default(obj):
    """A numpy scalar as its Python value, a record (a dataclass) as its
    fields; json.dumps encodes the fields in turn."""
    import numpy as np
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    if is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


def _report_rows(reports) -> list[list]:
    rows = []
    for idx, rep in enumerate(reports):
        for name, tv in rep.terms.items():
            rows.append([idx, name, float(tv.value), float(tv.error)])
        rows.append([idx, "slack", float(rep.slack),
                     float(rep.slack_tolerance)])
    return rows


def _check(name: str, passed) -> dict:
    return {"name": name, "passed": bool(passed)}


# ------------------------------------------------------------------ runners
# Each maps (cfg, spec) to (results, assertions, artifact), the artifact
# None or (file name, CSV header, rows).  Each imports the numerical modules
# it uses and looks harness functions up as it runs, so one replaced on the
# module after import is called.
def _constants(cfg: RunConfig, spec: QuadratureSpec):
    from .minkowski import MinkowskiNorm
    norm = MinkowskiNorm(cfg.n, cfg.drift)
    model = cfg.build_model()
    results = {"lambda_F": norm.reversibility(),
               "Lambda_F": norm.uniformity(),
               "lambda_F_sampled": norm.sampled_reversibility(),
               "Lambda_F_sampled": norm.sampled_uniformity(),
               "cp_bh": model.cp_constant("bh"),
               "cp_ht": model.cp_constant("ht"),
               "curvature": model.curvature}
    close = all(abs(results[key + "_sampled"] - results[key])
                <= 0.01 * results[key] for key in ("lambda_F", "Lambda_F"))
    return results, [_check("sampled constants within 1%", close)], None


def _refined_cs(cfg: RunConfig, spec: QuadratureSpec):
    from . import harness
    from .minkowski import MinkowskiNorm
    summary = harness.refined_cs_campaign(MinkowskiNorm(cfg.n, cfg.drift))
    return summary, [_check("sharpened Cauchy-Schwarz certificate",
                            summary.passed)], None


def _sweep(name: str):
    """The runner of the sharpness sweep ``harness.<name>``."""
    def run(cfg: RunConfig, spec: QuadratureSpec):
        from . import harness
        table = getattr(harness, name)(cfg.build_model(), cfg.measure,
                                       cfg.beta, cfg.r, cfg.R, cfg.eps, spec)
        sharp = table.sharp_constant
        checks = [_check(f"extrapolated quotient within "
                         f"{harness.SWEEP_TOLERANCE:.0%} of {sharp}",
                         table.limit_reached),
                  _check("quotients strictly decreasing", table.monotone)]
        return table, checks, (
            "sweep.csv", [f.name for f in fields(harness.SweepRow)],
            [astuple(row) for row in table.rows])
    return run


def _battery(cfg: RunConfig, size: int):
    """A report suite's model and battery; ``--samples`` overrides size."""
    from . import harness
    model = cfg.build_model()
    radius = min(1.0, 0.9 * getattr(model, "ball_radius", 1.0))
    return model, harness.radial_battery(cfg.samples or size, radius)


def _rellich_bv_battery(cfg: RunConfig, size: int):
    """The battery, times rho^2 above beta = n - 4: there G^beta is defined
    only for profiles that vanish at the origin."""
    from . import harness
    model, battery = _battery(cfg, size)
    if cfg.beta > cfg.n - 4.0:
        battery = [harness.vanishing_at_origin(p) for p in battery]
    return model, battery


def _reports(name: str, size: int = 10, beta: bool = True,
             battery: Callable = _battery):
    """The runner of ``harness.<name>`` on every profile of
    ``battery(cfg, size)``."""
    def run(cfg: RunConfig, spec: QuadratureSpec):
        from . import harness
        model, profiles = battery(cfg, size)
        report = getattr(harness, name)
        args = (cfg.beta,) if beta else ()
        reports = [report(model, cfg.measure, prof, *args, spec)
                   for prof in profiles]
        return ({"reports": reports},
                [_check("slack >= -tolerance on the whole battery",
                        all(r.passed for r in reports))],
                ("terms.csv", ["battery_index", "term", "value", "error"],
                 _report_rows(reports)))
    return run


def _gbeta_check(cfg: RunConfig, spec: QuadratureSpec):
    from . import harness
    # harness.gbeta takes any beta; membership is asked on Rellich's domain
    harness.rellich_domain(cfg.n, cfg.beta, "gbeta-check")
    model, battery = _battery(cfg, 10)
    results = []
    for prof in battery:
        val, scale, err = harness.gbeta(model, cfg.measure, prof, cfg.beta,
                                        spec)
        results.append({"label": prof.label, "value": val, "scale": scale,
                        "error": err})
    ok = all(harness.gbeta_member(r["value"], r["scale"]) for r in results)
    return {"battery": results}, [_check("G^beta vanishes on radial "
                                         "nonincreasing battery", ok)], None


class Suite(NamedTuple):
    help: str
    model: str
    n: int
    run: Callable


SUITES = {
    "hardy": Suite("hardy report on a radial battery; requires n - 2 > beta",
                   "randers", 3, _reports("hardy_report")),
    "hardy-bv": Suite("refined Hardy with Brezis-Vazquez term; requires "
                      "k < 0 and n - 2 > beta",
                      "hyperbolic", 4, _reports("hardy_bv_report", 20)),
    "hardy-sweep": Suite("sharpness sweep for the Hardy constant "
                         "(n-2-beta)^2/4; requires n - 2 > beta and "
                         "three distinct eps with 0 < eps < r < R",
                         "randers", 3, _sweep("hardy_sharpness_sweep")),
    "rellich": Suite("rellich report on a kernel-class battery; requires "
                     "-2 < beta < n - 4",
                     "randers", 6, _reports("rellich_report")),
    "rellich-bv": Suite("refined Rellich; requires k < 0 and "
                        "0 <= beta < n - 2; above n - 4 the battery is "
                        "times rho^2, so that it vanishes at the origin",
                        "hyperbolic", 6,
                        _reports("rellich_bv_report",
                                 battery=_rellich_bv_battery)),
    "rellich-sweep": Suite("sharpness sweep for (n+beta)^2(n-4-beta)^2/16; "
                           "requires -2 < beta < n - 4 and three distinct "
                           "eps with 0 < eps < r < R",
                           "randers", 6, _sweep("rellich_sharpness_sweep")),
    "uncertainty": Suite("uncertainty-principle corollary; requires "
                         "n - 2 > beta",
                         "randers", 4, _reports("uncertainty_report")),
    "gbeta-check": Suite("kernel functional on radial batteries; requires "
                         "-2 < beta < n - 4", "randers", 6, _gbeta_check),
    "poincare": Suite("weighted Poincare-type inequality; requires k < 0",
                      "hyperbolic", 3,
                      _reports("poincare_report", beta=False)),
    "refined-cs": Suite("sharpened Cauchy-Schwarz slack and its sharp "
                        "constant 1/Lambda_F on reduced covector pairs",
                        "randers", 3, _refined_cs),
    "constants": Suite("closed-form and sampled asymmetry/model constants",
                       "randers", 3, _constants),
}


def run(cfg: RunConfig) -> int:
    cfg.validate()
    spec = cfg.build_spec()
    results, assertions, artifact = SUITES[cfg.suite].run(cfg, spec)
    passed = all(a["passed"] for a in assertions)
    # the drift and curvature the model ran with, not the flags it ignored
    config = {name: getattr(cfg, name) for name in _FIELDS if name not in
              ("suite", "out", "quad")}
    config.update(t=cfg.drift, k=cfg.curvature, quadrature=spec)
    payload = {"suite": cfg.suite, "version": __version__, "config": config,
               "results": results, "assertions": assertions,
               "passed": passed}
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True,
                   default=_json_default) + "\n")
    if artifact is not None:
        _write_csv(outdir / artifact[0], *artifact[1:])
    return 0 if passed else EXIT_ASSERTION


def list_suites() -> str:
    lines = ["available suites:"]
    for name in sorted(SUITES):
        lines.append(f"  {name:14s} {SUITES[name].help}")
    return "\n".join(lines)


# The run parameters of each config-file section, each named once: they are
# also the flags of every suite and the overrides of a config file.
SECTIONS = {"model": ("model", "n", "t", "k"),
            "run": ("measure", "beta", "r", "R", "eps", "samples", "seed",
                    "tol", "out")}
_FIELDS = {f.name: f for f in fields(RunConfig)}


def _parse(name: str, value):
    """A parameter as its RunConfig default's type; eps is comma-separated."""
    default = _FIELDS[name].default
    if isinstance(default, tuple):
        return tuple(float(v) for v in value.split(","))
    return type(default)(value)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``-1e-2`` as a negative number, as it
    reads ``-0.01``: argparse's own pattern has no exponent form, so
    ``--k -1e-2`` would take ``-1e-2`` for an option.  Subparsers are built
    from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, each call fills a new namespace."""
    p = _Parser(
        prog="finslerineq",
        description="verify sharp Hardy/Rellich inequalities on Finsler "
                    "model spaces")
    sub = p.add_subparsers(dest="suite", required=True)
    sub.add_parser("list", help="enumerate suites and their domains")
    for name, suite in SUITES.items():
        sp = sub.add_parser(name, help=suite.help)
        sp.add_argument("--config", type=str, default=None)
        for key in sum(SECTIONS.values(), ()):
            meta, kind = _FIELDS[key].metadata, type(_FIELDS[key].default)
            # eps stays text for _parse, as in a config file
            sp.add_argument(*meta.get("flags", (f"--{key}",)), dest=key,
                            type=kind if kind in (int, float) else str,
                            default=None, choices=meta.get("choices"),
                            help=meta.get("help"))
    return p


def _config_from_args(args) -> RunConfig:
    suite = SUITES[args.suite]
    cfg = RunConfig(suite=args.suite, model=suite.model, n=suite.n)
    cp = configparser.ConfigParser()
    cp.optionxform = str          # keep r and R distinct
    if args.config == "":
        raise ConfigError("--config has an empty value")
    if args.config is not None:
        try:
            read = cp.read(args.config)
        except configparser.Error as exc:
            raise ConfigError(f"config file unreadable: {exc}") from None
        if not read:
            raise ConfigError(f"config file not found: {args.config}")
    for section, names in SECTIONS.items():
        for name in names:
            key = _FIELDS[name].metadata.get("key", name)
            text = cp.get(section, key, fallback=None)
            if text == "":
                raise ConfigError(f"[{section}] {key} has an empty value")
            given = getattr(args, name)
            if given == "":      # argparse rejects an empty number or choice
                raise ConfigError(f"--{name} has an empty value")
            for value in (text, given):                   # a flag wins
                if value is not None:
                    setattr(cfg, name, _parse(name, value))
    if cp.has_section("quadrature"):
        # each value parsed as its QuadratureSpec field's type; an unknown
        # key stays text for build_spec to reject
        from .quadrature import QuadratureSpec
        kinds = {f.name: type(f.default) for f in fields(QuadratureSpec)}
        cfg.quad = {k: kinds.get(k, str)(v)
                    for k, v in cp["quadrature"].items()}
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.suite == "list":
        print(list_suites())
        return 0
    from numpy.linalg import LinAlgError
    from . import harness
    from .quadrature import QuadratureError
    try:
        cfg = _config_from_args(args)
        code = run(cfg)
    # ArithmeticError covers the OverflowError of sizes beyond double range
    except (QuadratureError, ArithmeticError, LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # MemoryError: a size, such as a node count, whose arrays
    # cannot be allocated
    except (ConfigError, harness.PreconditionError, ValueError,
            MemoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if code == 0:
        print(f"{cfg.suite}: all assertions passed (artifacts in {cfg.out})")
    else:
        print(f"{cfg.suite}: ASSERTION FAILURE (artifacts in {cfg.out})",
              file=sys.stderr)
    return code


def console() -> int:
    """The process entry: ``main`` with the cyclic collector off, and the
    heap frozen at the end, so that the collections of interpreter shutdown
    skip every object the run made.  No run makes a cycle worth collecting;
    shutdown still flushes the streams, runs atexit and tears the modules
    down.  ``main`` keeps the collector for callers in a longer process."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console())
