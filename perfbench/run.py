"""Benchmark of finslerineq, run from the root of a checkout.

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 24 \
        --trace 0

Workloads (closed loop, one client, each operation starts when the one
before it ends):

  cold-cli     the eleven suites at their default resolution, each as a fresh
               ``python -m finslerineq.cli`` process
  warm-suites  the eleven suites and two edge-of-integrability operations
               through ``cli.main`` in processes that have imported and
               warmed up
  field-path   Hardy reports and G^beta on ScalarField inputs

The program runs from ``src/`` of the checkout; nothing is installed.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (setup_s, wall_s, cpu_s, peak_rss_mb); with ``--trace 1``
a traced layer run gives the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import spans
from worker import tree_digest

HERE = Path(__file__).resolve().parent
WORKERS = 3            # worker processes per in-process workload run
SETUP_PROBES = 3       # fresh CLI starts timed as cold-cli set-up
IMPORT_PROBES = 3      # fresh ``-X importtime`` imports in the traced run
CLI_TIMEOUT_S = 60     # one suite takes ~1.5 s; a hung one fails


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


# ------------------------------------------------------------ processes
def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _children_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _spawn_worker(ctx, args: list[str], log: Path) -> tuple[float, dict]:
    """Run worker.py; return its set-up time (start to ``ready``) and its
    JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=ctx["env"], cwd=ctx["root"], text=True)
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.stdout.read()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        code = proc.wait()
    if code != 0 or (first.strip() != "ready" and "--probe" not in args):
        raise BenchError(f"worker {args} exited {code}:\n"
                         + log.read_text()[-2000:])
    last = (first + rest).strip().splitlines()[-1]
    return setup, json.loads(last)


# ------------------------------------------------------- suite verdicts
def _suite_verdict(name: str, args: list[str], code, out: Path,
                   t: float) -> tuple[bool, list[str]]:
    """(failed, problems) of one command-line operation from its exit code
    and artifacts.  A wrong value against the mpmath reference fails the
    operation; every other problem is a broken property."""
    if code != 0:
        return True, [f"{name}: exit status {code}"]
    payload = json.loads((out / name / "report.json").read_text())
    suite = args[0]
    problems = checks.check_suite(suite, payload, t)
    wrong = []
    if suite == "hardy":
        cfg = payload["config"]
        ref = checks.hardy_reference(cfg["n"], cfg["beta"], *inputs.PROFILE0,
                                     0.0)
        wrong = checks.check_within_error(
            payload["results"]["reports"][0]["terms"], ref, name)
    return bool(wrong), problems + wrong


def _suite_self_tests(out: Path) -> list[str]:
    def load(name):
        return json.loads((out / name / "report.json").read_text())

    hardy = load("hardy")
    rep = hardy["results"]["reports"][0]
    ref = checks.hardy_reference(3, hardy["config"]["beta"], *inputs.PROFILE0,
                                 0.0)
    sweep, rsweep = load("hardy-sweep"), load("rellich-sweep")
    const, cs, gb = load("constants"), load("refined-cs"), load("gbeta-check")
    t = const["config"]["t"]
    p = checks.perturbed
    return checks.self_test([
        ("slack", checks.check_report,
         lambda: p(rep, ("terms", "lhs", "value"),
                   lambda v: v - rep["slack"] - 2 * rep["slack_tolerance"])),
        ("finite terms", checks.check_report,
         lambda: p(rep, ("terms", "main", "error"), lambda v: float("nan"))),
        ("recomputed slack", checks.check_report,
         lambda: p(rep, ("slack",), lambda v: v + 1e-6 * abs(v))),
        ("sweep limit", checks.check_sweep,
         lambda: p(sweep, ("results", "extrapolated"), lambda v: v * 1.02)),
        ("sharp constant", checks.check_sweep,
         lambda: p(rsweep, ("results", "sharp_constant"),
                   lambda v: v * 1.001)),
        ("annulus mass", checks.check_sweep,
         lambda: p(sweep, ("results", "rows", 1, "j1_quadrature"),
                   lambda v: v * (1 + 1e-7))),
        ("lambda_F", lambda d: checks.check_constants(d, t),
         lambda: p(const, ("results", "lambda_F_sampled"),
                   lambda v: v * 1.01)),
        ("Lambda_F", lambda d: checks.check_constants(d, t),
         lambda: p(const, ("results", "Lambda_F_sampled"),
                   lambda v: v * 1.02)),
        ("refined-cs", checks.check_refined_cs,
         lambda: p(cs, ("results", "min_slack"),
                   lambda v: -1e-9 * cs["results"]["min_scale"])),
        ("gbeta kernel", lambda d: checks.check_suite("gbeta-check", d, t),
         lambda: p(gb, ("results", "battery", 0, "value"),
                   lambda v: 1e-5 * gb["results"]["battery"][0]["scale"])),
        ("mpmath hardy", lambda terms: checks.check_within_error(
            terms, ref, "self-test"),
         lambda: p(rep["terms"], ("main", "value"),
                   lambda v: v * (1 + 1e-6))),
    ])


def _suite_outcome(ops: dict, codes: dict, out: Path, t: float
                   ) -> tuple[set, list[str]]:
    failed, problems = set(), []
    for name, args in ops.items():
        bad, probs = _suite_verdict(name, args, codes[name], out, t)
        if bad:
            failed.add(name)
        if name not in inputs.EDGE_OPS:
            problems += probs
    if not problems:
        problems = _suite_self_tests(out)
    return failed, problems


# --------------------------------------------------- field-path verdicts
def _field_outcome(results: dict) -> tuple[set, list[str]]:
    failed = {name for name, res in results.items() if "exception" in res}
    problems = [f"{name}: {results[name]['exception']}" for name in failed]
    if failed:
        return failed, problems
    (r, R), k = inputs.PROFILE0, inputs.HYPERBOLIC_K
    refs = {"hardy-randers-radial": checks.hardy_reference(3, 0.0, r, R, 0.0),
            "hardy-hyperbolic-radial": checks.hardy_reference(3, 0.0, r, R,
                                                              k)}
    for name, res in results.items():
        if "terms" in res:
            problems += checks.check_report(res)
        if name in refs:
            problems += checks.check_within_rtol(res["terms"], refs[name],
                                                 name)
    gb = results["gbeta-randers4-radial"]
    problems += checks.check_gbeta(gb["value"], gb["scale"],
                                   checks.GBETA_FIELD_BAND, "gbeta field")
    analytic = results["hardy-randers-modulated"]
    fd = results["hardy-randers-modulated-fd"]
    problems += checks.check_fd_agreement(analytic, fd, "modulated field")
    if problems:
        return failed, problems

    p = checks.perturbed
    radial = results["hardy-randers-radial"]
    ref = refs["hardy-randers-radial"]

    def against(terms):
        return checks.check_within_rtol(terms, ref, "self-test")
    problems = checks.self_test([
        ("field slack", checks.check_report,
         lambda: p(analytic, ("terms", "lhs", "value"),
                   lambda v: v - analytic["slack"]
                   - 2 * analytic["slack_tolerance"])),
        ("field mpmath lhs", against,
         lambda: p(radial["terms"], ("lhs", "value"), lambda v: v * 1.05)),
        ("field mpmath main", against,
         lambda: p(radial["terms"], ("main", "value"), lambda v: v * 1.005)),
        ("finite differences", lambda d: checks.check_fd_agreement(
            analytic, d, "self-test"),
         lambda: p(fd, ("terms", "lhs", "value"), lambda v: v * (1 + 1e-5))),
        ("gbeta field", lambda d: checks.check_gbeta(
            d["value"], d["scale"], checks.GBETA_FIELD_BAND, "self-test"),
         lambda: p(gb, ("value",), lambda v: 0.05 * gb["scale"])),
    ])
    return failed, problems


# ------------------------------------------------------------ workloads
def _rounds_agree(rounds: list[dict]) -> list[str]:
    """Same inputs, same outputs: every round's digest and exit statuses."""
    if any(r["digest"] != rounds[0]["digest"]
           or r.get("codes") != rounds[0].get("codes") for r in rounds):
        return ["outputs differ between rounds of the same inputs"]
    return []


def cold_cli(ctx) -> dict:
    out = ctx["out"] / "cli"
    cmd = [sys.executable, "-m", "finslerineq.cli"]
    setups = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        d = inputs.draw(ctx["seed"])
        ops = inputs.suite_args(d, str(out))
        subprocess.run(cmd + ["list"], env=ctx["env"], cwd=ctx["root"],
                       stdout=subprocess.DEVNULL, check=True)
        setups.append(time.perf_counter() - t0)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < ctx["seconds"]:
        codes = {}
        cpu0, t0 = _children_cpu(), time.perf_counter()
        for name, args in ops.items():
            try:
                codes[name] = subprocess.run(
                    cmd + args, env=ctx["env"], cwd=ctx["root"],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    timeout=CLI_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                codes[name] = "timeout"
        wall, cpu = time.perf_counter() - t0, _children_cpu() - cpu0
        rounds.append({"wall_s": wall, "cpu_s": cpu, "codes": codes,
                       "digest": tree_digest(out)[0]})

    problems = _rounds_agree(rounds)
    failed, more = _suite_outcome(ops, rounds[-1]["codes"], out, d.t)
    return _result(rounds, setups, len(ops), failed, problems + more,
                   ctx["out"])


def in_process(ctx) -> dict:
    name, out = ctx["workload"], ctx["out"]
    setups, rounds = [], []
    for i in range(WORKERS):
        setup, report = _spawn_worker(ctx, [
            "--workload", name, "--seed", str(ctx["seed"]),
            "--budget", repr(ctx["seconds"] / WORKERS),
            "--out", str(out / f"w{i}")], out / f"w{i}.log")
        setups.append(setup)
        rounds += report["rounds"]
    problems = _rounds_agree(rounds)
    failed, more = _outcome(name, ctx, rounds[-1], out / f"w{WORKERS - 1}")
    return _result(rounds, setups, _op_count(name), failed,
                   problems + more, out)


def _op_count(name: str) -> int:
    if name == "warm-suites":
        return len(inputs.SUITES) + len(inputs.EDGE_OPS)
    return len(inputs.FIELD_OPS)


def _outcome(name: str, ctx, last_round: dict, wout: Path
             ) -> tuple[set, list[str]]:
    if name == "warm-suites":
        ops = {**inputs.suite_args(ctx["draw"], str(wout)),
               **inputs.edge_args(str(wout))}
        return _suite_outcome(ops, last_round["codes"], wout, ctx["draw"].t)
    return _field_outcome(last_round["results"])


def _result(rounds, setups, ops_per_round, failed, problems, out) -> dict:
    for p in problems:
        print("problem:", p, file=sys.stderr)
    (out / "samples.json").write_text(json.dumps({
        "setup_s": setups, "wall_s": [r["wall_s"] for r in rounds],
        "cpu_s": [r["cpu_s"] for r in rounds]}))
    return {
        "correct": not problems,
        "attempted": len(rounds) * ops_per_round,
        "failed": len(rounds) * len(failed),
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"]
                                                  for r in rounds),
                       "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds),
                      "unit": "s"},
            "peak_rss_mb": {"value": _children_peak_mb(), "unit": "MB"},
        },
    }


# --------------------------------------------------------- traced run
def _import_times(ctx) -> tuple[float, float]:
    """Median over fresh processes of the cumulative import time of
    ``finslerineq.cli`` and of the scipy modules it pulls in."""
    pkg, sci = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import finslerineq.cli"], env=ctx["env"], cwd=ctx["root"],
            capture_output=True, text=True, check=True)
        total_pkg, total_sci = _parse_importtime(proc.stderr)
        pkg.append(total_pkg)
        sci.append(total_sci)
    return statistics.median(pkg), statistics.median(sci)


def _parse_importtime(text: str) -> tuple[float, float]:
    """Sum the cumulative microseconds of the outermost ``finslerineq`` and
    ``scipy`` entries of an ``-X importtime`` tree (children precede their
    parent and are indented two more spaces)."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, int(cum), name.strip()))
    totals = {"finslerineq": 0, "scipy": 0}
    ancestors: list[tuple[int, str]] = []
    for depth, cum, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        root = name.split(".")[0]
        if root in totals and all(a[1].split(".")[0] != root
                                  for a in ancestors):
            totals[root] += cum
        ancestors.append((depth, name))
    return totals["finslerineq"] * 1e-6, totals["scipy"] * 1e-6


def traced(ctx) -> dict:
    """One fixed traced layer run: the fresh-process probes and one traced
    round of each in-process workload.  Only the operations of the named
    workload are counted as attempted; the other round is a layer probe
    whose outputs are still checked."""
    out, name = ctx["out"], ctx["workload"]
    finsler_s, scipy_s = _import_times(ctx)
    _, sphere = _spawn_worker(ctx, ["--probe", "sphere"], out / "sphere.log")
    data, problems, counted = {}, [], None
    for wl in ("warm-suites", "field-path"):
        _, report = _spawn_worker(ctx, [
            "--workload", wl, "--seed", str(ctx["seed"]), "--trace",
            "--out", str(out / wl)], out / f"{wl}.log")
        data[wl] = report
        failed, probs = _outcome(wl, ctx, report["rounds"][0], out / wl)
        problems += probs
        if wl == name:
            counted = (_op_count(wl), len(failed))
    if counted is None:     # cold-cli: count one untraced round of it
        cold = cold_cli({**ctx, "seconds": 0.0})
        problems += [] if cold["correct"] else ["cold-cli round failed"]
        counted = (cold["attempted"], cold["failed"])
    for p in problems:
        print("problem:", p, file=sys.stderr)
    metrics = _layer_metrics(data, finsler_s, scipy_s, sphere)
    return {"correct": not problems, "attempted": counted[0],
            "failed": counted[1], "metrics": metrics}


def _layer_metrics(data: dict, finsler_s: float, scipy_s: float,
                   sphere: dict) -> dict:
    calls, total, self_t, count = {}, {}, {}, {}
    for report in data.values():
        tr = report["trace"]
        for dst, src in ((calls, tr["calls"]), (total, tr["total"]),
                         (self_t, tr["self"]), (count, tr["count"])):
            for key, val in src.items():
                dst[key] = dst.get(key, 0) + val
    m = {}

    def put(key, value, unit):
        m[key] = {"value": value, "unit": unit}

    def rate(points_key, span):
        return count.get(points_key, 0) / total[span] if total.get(span) \
            else 0.0

    put("import.finslerineq_s", finsler_s, "s")
    put("import.scipy_s", scipy_s, "s")
    put("cli.self_s", self_t.get("cli.main", 0.0), "s")
    put("cli.artifact_bytes",
        data["warm-suites"]["rounds"][0]["artifact_bytes"], "bytes")
    for rep in spans.REPORTS:
        put(f"harness.{rep}.calls", calls.get(rep, 0), "count")
        put(f"harness.{rep}.self_s", self_t.get(rep, 0.0), "s")
    put("harness.nested_report_calls",
        count.get("harness.nested_report_calls", 0), "count")
    for span in ("quadrature.radial_integrate",
                 "quadrature.annulus_integrate"):
        put(span + ".calls", calls.get(span, 0), "count")
        put(span + ".points", count.get(span + ".points", 0), "count")
        put(span + ".points_per_s", rate(span + ".points", span), "1/s")
    put("quadrature.pairwise_sum.elements_per_s",
        rate("quadrature.pairwise_sum.elements", "quadrature.pairwise_sum"),
        "1/s")
    for n in (3, 4, 5, 6):
        put(f"quadrature.sphere_rule.build_s.n{n}",
            sphere[f"n{n}"]["build_s"], "s")
    for n in (3, 4, 5, 6):
        put(f"quadrature.sphere_rule.nodes.n{n}", sphere[f"n{n}"]["nodes"],
            "count")
    for key in ("models.profile.points", "models.polar_density.points",
                "models.point_from_backward_polar.points",
                "fields.field.points", "fields.differential.calls"):
        put(key, count.get(key, 0), "count")
    put("fields.numeric_laplacian.calls",
        calls.get("fields.numeric_laplacian", 0), "count")
    put("fields.numeric_laplacian.points_per_s",
        rate("fields.numeric_laplacian.points", "fields.numeric_laplacian"),
        "1/s")
    put("minkowski.refined_cs_slack.pairs_per_s",
        rate("minkowski.refined_cs_slack.pairs",
             "minkowski.refined_cs_slack"), "1/s")
    put("minkowski.dual_fundamental_form.calls",
        count.get("minkowski.dual_fundamental_form.calls", 0), "count")
    # traced round times; against the untraced wall_s they give the overhead
    put("trace.warm_suites_round_s",
        data["warm-suites"]["rounds"][0]["wall_s"], "s")
    put("trace.field_path_round_s",
        data["field-path"]["rounds"][0]["wall_s"], "s")
    return m


# ------------------------------------------------------------------ main
RUNNERS = {"cold-cli": cold_cli, "warm-suites": in_process,
           "field-path": in_process}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    p.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # a terminated run raises here, so the processes it started are killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "finslerineq" / "__init__.py").is_file():
        print("perfbench: run from the root of a finslerineq checkout "
              "(src/finslerineq not found)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    out = root / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ctx = {"root": root, "env": env, "out": out, "seed": args.seed,
           "seconds": args.seconds, "workload": args.workload,
           "draw": inputs.draw(args.seed)}
    try:
        result = traced(ctx) if args.trace else RUNNERS[args.workload](ctx)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
