"""Configuration-driven command line front end.

Builds a model from flags or a sectioned key=value config file (flags win),
dispatches one verification suite, and writes machine-readable artifacts:
``report.json`` always, plus ``sweep.csv`` for sweeps or ``terms.csv`` for
reports.  Exit status: 0 all assertions pass, 1 assertion failure,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from . import harness
from .fields import CriticalPointError
from .minkowski import MinkowskiNorm
from .models import HyperbolicBall, RandersFlat, euclidean_flat
from .quadrature import QuadratureError, QuadratureSpec

SUITES = {
    "hardy": "hardy report on a radial battery; requires n - 2 > beta",
    "hardy-bv": "refined Hardy with Brezis-Vazquez term; requires k < 0 "
                "and n - 2 > beta",
    "hardy-sweep": "sharpness sweep for the Hardy constant (n-2-beta)^2/4; "
                   "requires n - 2 > beta and 0 < eps < r < R",
    "rellich": "rellich report on a kernel-class battery; requires "
               "-2 < beta < n - 4",
    "rellich-bv": "refined Rellich; requires k < 0 and 0 <= beta < n - 2",
    "rellich-sweep": "sharpness sweep for (n+beta)^2(n-4-beta)^2/16; "
                     "requires -2 < beta < n - 4",
    "uncertainty": "uncertainty-principle corollary; requires K <= 0 and "
                   "n - 2 > beta",
    "gbeta-check": "kernel functional on radial batteries; requires "
                   "-2 < beta < n - 4",
    "poincare": "weighted Poincare-type inequality; requires k < 0",
    "refined-cs": "sharpened Cauchy-Schwarz campaign on random covector "
                  "pairs",
    "constants": "closed-form and sampled asymmetry/model constants",
}

EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    suite: str
    model: str = "randers"
    n: int = 3
    t: float = 0.5
    k: float = -1.0
    measure: str = "bh"
    beta: float = 0.0
    r: float = 0.5
    R: float = 1.0
    eps: tuple = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    samples: int = 0
    seed: int = 1234
    tol: float = 1e-9
    out: str = "out"
    quad: dict = field(default_factory=dict)

    @property
    def drift(self) -> float:
        """The Randers drift t; the other models are reversible."""
        return self.t if self.model == "randers" else 0.0

    def build_model(self):
        if self.model == "randers":
            return RandersFlat(self.n, self.t)
        if self.model == "euclidean":
            return euclidean_flat(self.n)
        if self.model == "hyperbolic":
            if not self.k < 0.0:
                raise ConfigError("hyperbolic model needs k < 0")
            return HyperbolicBall(self.n, self.k)
        raise ConfigError(f"unknown model {self.model!r}")

    def build_spec(self) -> QuadratureSpec:
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
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}")
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if self.measure not in ("bh", "ht"):
            raise ConfigError("measure must be bh or ht")
        if self.model == "randers" and not 0.0 <= self.t < 1.0:
            raise ConfigError("randers drift t must be in [0, 1)")
        needs_hardy = self.suite in ("hardy", "hardy-bv", "hardy-sweep",
                                     "uncertainty")
        if needs_hardy and not self.n - 2 > self.beta:
            raise ConfigError(f"{self.suite} requires n - 2 > beta")
        if self.suite in ("rellich", "rellich-sweep", "gbeta-check") and \
                not (-2.0 < self.beta < self.n - 4.0):
            raise ConfigError(f"{self.suite} requires -2 < beta < n - 4")
        if self.suite == "rellich-bv" and \
                not (0.0 <= self.beta < self.n - 2.0):
            raise ConfigError("rellich-bv requires 0 <= beta < n - 2")
        if self.suite in ("hardy-bv", "rellich-bv", "poincare") and \
                self.model != "hyperbolic":
            raise ConfigError(f"{self.suite} requires the hyperbolic model "
                              "(k < 0)")
        if self.suite.endswith("sweep"):
            if not 0.0 < self.r < self.R:
                raise ConfigError("need 0 < r < R")
            if not all(0.0 < e < self.r for e in self.eps):
                raise ConfigError("every eps must satisfy 0 < eps < r")


def _battery_size(cfg: RunConfig) -> int:
    if cfg.samples > 0:
        return cfg.samples
    return {"hardy": 10, "hardy-bv": 20, "rellich": 10, "rellich-bv": 10,
            "uncertainty": 10, "gbeta-check": 10, "poincare": 10
            }.get(cfg.suite, 10)


def _fmt(x) -> str:
    return f"{x:.17g}"


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
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


def run(cfg: RunConfig) -> int:
    cfg.validate()
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = cfg.build_spec()
    payload: dict = {
        "suite": cfg.suite,
        "version": __version__,
        "config": {
            "model": cfg.model, "n": cfg.n, "t": cfg.t, "k": cfg.k,
            "measure": cfg.measure, "beta": cfg.beta, "r": cfg.r,
            "R": cfg.R, "eps": list(cfg.eps), "samples": cfg.samples,
            "seed": cfg.seed, "tol": cfg.tol,
            "quadrature": asdict(spec),
        },
    }
    assertions: list[dict] = []
    sweep_csv: list[list] | None = None
    terms_csv: list[list] | None = None

    if cfg.suite == "constants":
        norm = MinkowskiNorm(cfg.n, cfg.drift)
        model = cfg.build_model()
        payload["results"] = {
            "lambda_F": norm.reversibility(),
            "Lambda_F": norm.uniformity(),
            "lambda_F_sampled": norm.sampled_reversibility(),
            "Lambda_F_sampled": norm.sampled_uniformity(),
            "cp_bh": model.cp_constant("bh"),
            "cp_ht": model.cp_constant("ht"),
            "curvature": model.curvature,
        }
        close = abs(payload["results"]["Lambda_F_sampled"]
                    - norm.uniformity()) <= 0.01 * norm.uniformity()
        assertions.append({"name": "sampled constants within 1%",
                           "passed": bool(close)})
    elif cfg.suite == "refined-cs":
        norm = MinkowskiNorm(cfg.n, cfg.drift)
        samples = cfg.samples if cfg.samples > 0 else 100_000
        summary = harness.refined_cs_campaign(norm, samples, cfg.seed)
        payload["results"] = summary.as_dict()
        assertions.append({"name": "refined Cauchy-Schwarz slack >= 0",
                           "passed": bool(summary.passed)})
    elif cfg.suite.endswith("sweep"):
        model = cfg.build_model()
        fn = harness.hardy_sharpness_sweep if cfg.suite == "hardy-sweep" \
            else harness.rellich_sharpness_sweep
        table = fn(model, cfg.measure, cfg.beta, cfg.r, cfg.R, cfg.eps, spec)
        payload["results"] = table.as_dict()
        assertions.append({
            "name": f"extrapolated quotient within 1% of "
                    f"{table.sharp_constant}",
            "passed": bool(abs(table.extrapolated_moebius
                               - table.sharp_constant)
                           <= 0.01 * table.sharp_constant)})
        assertions.append({"name": "quotients strictly decreasing",
                           "passed": bool(table.monotone)})
        sweep_csv = [[row.eps, row.i1, row.i2, row.quotient,
                      row.j1_quadrature, row.j1_exact, row.error]
                     for row in table.rows]
    else:
        model = cfg.build_model()
        count = _battery_size(cfg)
        radius = min(1.0, 0.9 * getattr(model, "ball_radius", 1.0))
        battery = harness.radial_battery(count, radius)
        reports = []
        if cfg.suite == "gbeta-check":
            results = []
            ok = True
            for prof in battery:
                val, scale, err = harness.gbeta(model, cfg.measure, prof,
                                                cfg.beta, spec)
                results.append({"label": prof.label, "value": val,
                                "scale": scale, "error": err})
                ok = ok and abs(val) <= 1e-6 * max(scale, 1e-300)
            payload["results"] = {"battery": results}
            assertions.append({"name": "G^beta vanishes on radial "
                                       "nonincreasing battery",
                               "passed": bool(ok)})
        else:
            fn = {"hardy": harness.hardy_report,
                  "hardy-bv": harness.hardy_bv_report,
                  "rellich": harness.rellich_report,
                  "rellich-bv": harness.rellich_bv_report,
                  "uncertainty": harness.uncertainty_report}.get(cfg.suite)
            if fn is None:
                poincare = harness.poincare_report
                reports = [poincare(model, cfg.measure, prof, 1, spec)
                           for prof in battery]
            else:
                reports = [fn(model, cfg.measure, prof, cfg.beta, spec)
                           for prof in battery]
            payload["results"] = {"reports": [r.as_dict() for r in reports]}
            assertions.append({
                "name": "slack >= -tolerance on the whole battery",
                "passed": bool(all(r.passed for r in reports))})
            terms_csv = _report_rows(reports)

    payload["assertions"] = assertions
    payload["passed"] = bool(all(a["passed"] for a in assertions))

    (outdir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True,
                   default=_json_default) + "\n")
    if sweep_csv is not None:
        _write_csv(outdir / "sweep.csv",
                   ["eps", "i1", "i2", "quotient", "j1_quadrature",
                    "j1_exact", "error"], sweep_csv)
    if terms_csv is not None:
        _write_csv(outdir / "terms.csv",
                   ["battery_index", "term", "value", "error"], terms_csv)
    return 0 if payload["passed"] else EXIT_ASSERTION


def list_suites() -> str:
    lines = ["available suites:"]
    for name in sorted(SUITES):
        lines.append(f"  {name:14s} {SUITES[name]}")
    return "\n".join(lines)


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, each call fills a new namespace."""
    p = argparse.ArgumentParser(
        prog="finslerineq",
        description="verify sharp Hardy/Rellich inequalities on Finsler "
                    "model spaces")
    sub = p.add_subparsers(dest="suite", required=True)
    sub.add_parser("list", help="enumerate suites and their domains")
    for name in SUITES:
        sp = sub.add_parser(name, help=SUITES[name])
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--model", type=str, default=None,
                        choices=["randers", "euclidean", "hyperbolic"])
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--t", "--b", dest="t", type=float, default=None,
                        help="Randers drift")
        sp.add_argument("--k", type=float, default=None)
        sp.add_argument("--measure", type=str, default=None,
                        choices=["bh", "ht"])
        sp.add_argument("--beta", type=float, default=None)
        sp.add_argument("--r", type=float, default=None)
        sp.add_argument("--R", dest="R_big", type=float, default=None)
        sp.add_argument("--eps", type=str, default=None,
                        help="comma-separated truncation radii")
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--out", type=str, default=None)
    return p


_DEFAULT_SUITE_MODEL = {
    "hardy-bv": ("hyperbolic", 4),
    "rellich-bv": ("hyperbolic", 6),
    "poincare": ("hyperbolic", 3),
    "rellich": ("randers", 6),
    "rellich-sweep": ("randers", 6),
    "gbeta-check": ("randers", 6),
    "uncertainty": ("randers", 4),
}


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(suite=args.suite)
    model_default = _DEFAULT_SUITE_MODEL.get(args.suite)
    if model_default is not None:
        cfg.model, cfg.n = model_default
    if args.config:
        cp = configparser.ConfigParser()
        cp.optionxform = str          # keep r and R distinct
        read = cp.read(args.config)
        if not read:
            raise ConfigError(f"config file not found: {args.config}")
        if cp.has_section("model"):
            sec = cp["model"]
            cfg.model = sec.get("kind", cfg.model)
            cfg.n = sec.getint("n", cfg.n)
            cfg.t = sec.getfloat("t", cfg.t)
            cfg.k = sec.getfloat("k", cfg.k)
        if cp.has_section("run"):
            sec = cp["run"]
            cfg.measure = sec.get("measure", cfg.measure)
            cfg.beta = sec.getfloat("beta", cfg.beta)
            cfg.r = sec.getfloat("r", cfg.r)
            cfg.R = sec.getfloat("R", cfg.R)
            if sec.get("eps", None):
                cfg.eps = tuple(float(v) for v in sec["eps"].split(","))
            cfg.samples = sec.getint("samples", cfg.samples)
            cfg.seed = sec.getint("seed", cfg.seed)
            cfg.tol = sec.getfloat("tol", cfg.tol)
            cfg.out = sec.get("out", cfg.out)
        if cp.has_section("quadrature"):
            # each value parsed as its QuadratureSpec field's type; an
            # unknown key stays text for build_spec to reject
            kinds = {f.name: type(f.default) for f in fields(QuadratureSpec)}
            cfg.quad = {k: kinds.get(k, str)(v)
                        for k, v in cp["quadrature"].items()}
    overrides = {"model": args.model, "n": args.n, "t": args.t, "k": args.k,
                 "measure": args.measure, "beta": args.beta, "r": args.r,
                 "R": args.R_big, "samples": args.samples, "seed": args.seed,
                 "tol": args.tol, "out": args.out}
    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    if args.eps is not None:
        cfg.eps = tuple(float(v) for v in args.eps.split(","))
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.suite == "list":
        print(list_suites())
        return 0
    try:
        cfg = _config_from_args(args)
        code = run(cfg)
    # first: CriticalPointError is also a ValueError
    except (QuadratureError, CriticalPointError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, harness.PreconditionError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if code == 0:
        print(f"{cfg.suite}: all assertions passed "
              f"(artifacts in {cfg.out})")
    else:
        print(f"{cfg.suite}: ASSERTION FAILURE (artifacts in {cfg.out})",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
