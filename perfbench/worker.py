"""One benchmark process running the program in-process.

    python3 perfbench/worker.py --workload warm-suites --seed 1 --budget 8 \
        --out .perfbench_out/warm-suites/0 [--trace]
    python3 perfbench/worker.py --probe sphere

A workload worker sets up (imports, inputs, one untimed warm-up), prints
``ready`` on its own line, then runs whole rounds of the workload's
operations until ``--budget`` seconds have passed (at least one round), and
prints one JSON line with the per-round times and the outputs to check.
With ``--trace`` it installs the wrappers of ``spans.py`` before setting
up, clears what the warm-up recorded and runs exactly one round.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import inputs
import spans


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def tree_digest(root: Path) -> tuple[str, int]:
    """Digest and total size of every file under ``root``."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(str(path.relative_to(root)).encode() + b"\0" + data)
    return h.hexdigest(), size


# ------------------------------------------------------------ warm suites
class WarmSuites:
    """All eleven suites plus the two edge operations through ``cli.main``."""

    def __init__(self, d: inputs.Draw, out: Path):
        from finslerineq import cli
        self.cli = cli
        self.out = out
        self.ops = {**inputs.suite_args(d, str(out)),
                    **inputs.edge_args(str(out))}

    def warmup(self) -> None:
        self.round()

    def round(self) -> dict:
        codes = {}
        sink = io.StringIO()
        for name, args in self.ops.items():
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                try:
                    codes[name] = self.cli.main(list(args))
                except Exception as exc:    # a crash is a failed operation
                    codes[name] = f"{type(exc).__name__}: {exc}"
        return codes

    def outputs(self, codes: dict) -> dict:
        digest, size = tree_digest(self.out)
        return {"codes": codes, "digest": digest, "artifact_bytes": size}


# ------------------------------------------------------------- field path
class FieldPath:
    """Hardy reports and G^beta on ScalarField inputs (the pointwise path)."""

    def __init__(self, d: inputs.Draw, out: Path):
        from finslerineq import fields, harness, models
        from finslerineq.quadrature import QuadratureSpec
        self.harness = harness
        randers = models.RandersFlat(3, d.t)
        hyper = models.HyperbolicBall(3, inputs.HYPERBOLIC_K)
        randers4 = models.RandersFlat(inputs.GBETA_DIM, d.t)
        prof = harness.radial_battery(inputs.FIELD_COUNT,
                                      inputs.FIELD_RADIUS)[0]
        cut = models.cutoff_profile(*inputs.MODULATED_CUTOFF)
        mod = inputs.ModulatedField(cut, d.t, None, d)
        mod_field = fields.ScalarField(mod.fn, mod.grad, cut.support)
        mod_fd = fields.ScalarField(mod.fn, None, cut.support)

        def spec(nodes_panels_order):
            nodes, panels, order = nodes_panels_order
            return QuadratureSpec(radial_nodes=nodes, radial_panels=panels,
                                  sphere_order=order)

        self.ops = {
            "hardy-randers-radial": (
                "hardy", randers, fields.radial_field(randers, prof), 0.0,
                spec(inputs.SPEC_HARDY)),
            "hardy-randers-modulated": (
                "hardy", randers, mod_field, 0.0,
                spec(inputs.SPEC_HARDY_MOD)),
            "hardy-randers-modulated-fd": (
                "hardy", randers, mod_fd, 0.0, spec(inputs.SPEC_HARDY_MOD)),
            "hardy-hyperbolic-radial": (
                "hardy", hyper, fields.radial_field(hyper, prof), 0.0,
                spec(inputs.SPEC_HARDY_HYP)),
            "gbeta-randers4-radial": (
                "gbeta", randers4, fields.radial_field(randers4, prof),
                inputs.GBETA_BETA, spec(inputs.SPEC_GBETA)),
        }
        self.warmup_op = ("hardy", randers, fields.radial_field(randers, prof),
                          0.0, spec(inputs.SPEC_WARMUP))

    def _run(self, kind, model, field, beta, spec):
        if kind == "hardy":
            return self.harness.hardy_report(model, "bh", field, beta,
                                             spec).as_dict()
        value, scale, error = self.harness.gbeta(model, "bh", field, beta,
                                                 spec)
        return {"value": value, "scale": scale, "error": error}

    def warmup(self) -> None:
        self._run(*self.warmup_op)

    def round(self) -> dict:
        results = {}
        for name, op in self.ops.items():
            try:
                results[name] = self._run(*op)
            except Exception as exc:    # a crash is a failed operation
                results[name] = {"exception": f"{type(exc).__name__}: {exc}"}
        return results

    def outputs(self, results: dict) -> dict:
        return {"results": results, "digest": _digest(results)}


WORKLOADS = {"warm-suites": WarmSuites, "field-path": FieldPath}


def run_workload(name: str, seed: int, budget: float, out: Path,
                 traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)
    out.mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[name](inputs.draw(seed), out)
    work.warmup()
    print("ready", flush=True)
    if tracer is not None:
        tracer.reset()

    rounds = []
    start = time.perf_counter()
    while not rounds or (not traced
                         and time.perf_counter() - start < budget):
        cpu0, t0 = _cpu(), time.perf_counter()
        result = work.round()
        wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
        rounds.append({"wall_s": wall, "cpu_s": cpu,
                       **work.outputs(result)})
    report = {"rounds": rounds}
    if tracer is not None:
        report["trace"] = {"calls": tracer.calls, "total": tracer.total,
                           "self": tracer.self_time, "count": tracer.count}
    return report


def sphere_probe() -> dict:
    """Build time and node count of the default sphere rule for n = 3..6.

    The rules are built in increasing n in this fresh process, so each time
    is the cost of the new dimension's layer on top of the cached one below.
    """
    from finslerineq import quadrature
    spec = quadrature.QuadratureSpec()
    out = {}
    for n in (3, 4, 5, 6):
        t0 = time.perf_counter()
        dirs, wts = quadrature.sphere_nodes(n, spec)
        out[f"n{n}"] = {"build_s": time.perf_counter() - t0,
                        "nodes": int(wts.size)}
        del dirs, wts
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--probe", choices=["sphere"])
    p.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    p.add_argument("--budget", type=float, default=8.0)
    p.add_argument("--out", type=Path)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    if args.probe == "sphere":
        report = sphere_probe()
    else:
        report = run_workload(args.workload, args.seed, args.budget,
                              args.out, args.trace)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
