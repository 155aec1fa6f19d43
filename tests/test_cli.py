"""Command-line front end: artifacts, exit codes, determinism, config files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finslerineq
from finslerineq import harness
from finslerineq.cli import SUITES, RunConfig, main
from finslerineq.quadrature import QuadratureError


def run_cli(args):
    return main(args)


def test_list_suites(capsys):
    assert run_cli(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("hardy", "hardy-bv", "rellich", "rellich-bv", "uncertainty",
                 "gbeta", "poincare", "refined-cs"):
        assert name in out
    assert "-2 < beta < n - 4" in out
    # stable ordering across invocations
    run_cli(["list"])
    assert capsys.readouterr().out == out


def test_hardy_sweep_artifacts(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["hardy-sweep", "--model", "randers", "--n", "3",
                    "--t", "0.5", "--beta", "0", "--eps", "1e-2,1e-3,1e-4",
                    "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["suite"] == "hardy-sweep"
    assert abs(report["results"]["extrapolated"] - 0.25) < 0.0025
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,i1,i2,quotient,j1_quadrature,j1_exact,error"
    assert len(lines) == 4
    # every numeric in the report carries its error estimate
    for row in report["results"]["rows"]:
        assert set(row) >= {"eps", "i1", "i2", "quotient"}


def test_determinism_byte_identical(tmp_path):
    args = ["refined-cs", "--n", "3", "--t", "0.5", "--samples", "5000",
            "--seed", "7"]
    run_cli(args + ["--out", str(tmp_path / "a")])
    run_cli(args + ["--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b


def test_cached_parser_leaks_no_flag_between_calls(tmp_path):
    # the parser is built once per process; flags of one call must not
    # reach the next one
    assert run_cli(["hardy-sweep", "--t", "0.3", "--eps", "1e-2,1e-3",
                    "--seed", "99", "--out", str(tmp_path / "a")]) == 0
    assert run_cli(["refined-cs", "--samples", "200",
                    "--out", str(tmp_path / "b")]) == 0
    config = json.loads((tmp_path / "b" / "report.json").read_text())["config"]
    assert config["t"] == RunConfig.t
    assert config["seed"] == RunConfig.seed
    assert tuple(config["eps"]) == RunConfig.eps


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("""
[model]
kind = randers
n = 3
t = 0.5

[run]
measure = bh
beta = 0
r = 0.5
R = 1.0
eps = 1e-2,1e-3
seed = 11

[quadrature]
radial_nodes = 16
radial_panels = 6
sphere_order = 8
""")
    out = tmp_path / "c"
    code = run_cli(["hardy-sweep", "--config", str(cfg), "--measure", "ht",
                    "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["measure"] == "ht"          # flag wins
    assert report["config"]["n"] == 3                   # from config
    assert report["config"]["quadrature"]["radial_nodes"] == 16


def test_validation_exit_codes(tmp_path, capsys):
    # parameter domain violations exit 2
    assert run_cli(["hardy", "--n", "3", "--beta", "5",
                    "--out", str(tmp_path)]) == 2
    assert run_cli(["rellich", "--model", "randers", "--n", "5", "--beta",
                    "2", "--out", str(tmp_path)]) == 2
    assert run_cli(["hardy-bv", "--model", "randers",
                    "--out", str(tmp_path)]) == 2
    assert run_cli(["poincare", "--model", "euclidean",
                    "--out", str(tmp_path)]) == 2
    # the eps range is checked before the count of distinct eps values
    assert run_cli(["hardy-sweep", "--eps", "0.9",
                    "--out", str(tmp_path)]) == 2
    assert "0 < eps < r < R" in capsys.readouterr().err
    # the sweep extrapolates from at least two distinct eps values
    for eps in ("0.01", "0.01,0.01"):
        assert run_cli(["hardy-sweep", "--eps", eps,
                        "--out", str(tmp_path)]) == 2
        assert "two distinct eps" in capsys.readouterr().err
    # non-finite tolerances would fail or pass every check vacuously
    for tol in ("nan", "inf"):
        assert run_cli(["hardy", "--tol", tol, "--out", str(tmp_path)]) == 2
        assert "finite" in capsys.readouterr().err
    # every float flag must be finite, named in the message
    for suite, name, value in (("hardy-sweep", "R", "inf"),
                               ("rellich-sweep", "R", "inf"),
                               ("hardy", "beta", "nan"),
                               ("constants", "t", "nan"),
                               ("constants", "k", "-inf"),
                               ("hardy-sweep", "r", "nan"),
                               ("hardy-sweep", "eps", "0.1,nan")):
        assert run_cli([suite, f"--{name}={value}",
                        "--out", str(tmp_path)]) == 2
        assert f"{name} must be finite" in capsys.readouterr().err
    # a negative sample count no longer falls back to the default
    assert run_cli(["refined-cs", "--samples", "-3",
                    "--out", str(tmp_path)]) == 2
    assert "samples must be >= 0" in capsys.readouterr().err
    # the drift rule also holds for refined-cs, which builds no model
    for suite in ("constants", "refined-cs"):
        assert run_cli([suite, "--t", "-0.5", "--out", str(tmp_path)]) == 2
        assert "randers drift" in capsys.readouterr().err
    # an unknown [quadrature] key, e.g. an old-style mc_samples line
    old = tmp_path / "old.ini"
    old.write_text("[quadrature]\nmc_samples = 500\n")
    assert run_cli(["constants", "--config", str(old),
                    "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "mc_samples" in err and "sphere_order" in err
    # an unknown model kind from a config file, which argparse never sees
    kind = tmp_path / "kind.ini"
    kind.write_text("[model]\nkind = banana\n")
    for suite in ("refined-cs", "constants", "hardy"):
        assert run_cli([suite, "--config", str(kind),
                        "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "'banana'" in err and "randers, euclidean, hyperbolic" in err
    # each theorem's domain is checked by the harness alone; its message
    # names n and beta, or the range broken, and no directory is made
    fail = tmp_path / "fail"
    for args, words in (
            (["uncertainty", "--n", "3", "--beta", "1"],
             ("n - 2 > beta", "n=3", "beta=1.0")),
            (["rellich-sweep", "--n", "6", "--beta", "3"],
             ("-2 < beta < n - 4", "n=6", "beta=3.0")),
            (["gbeta-check", "--beta", "-3"], ("n=6", "beta=-3.0")),
            (["gbeta-check", "--beta", "2"], ("n=6", "beta=2.0")),
            (["rellich-bv", "--beta", "-1"],
             ("0 <= beta < n - 2", "n=6", "beta=-1.0")),
            (["rellich-bv", "--model", "euclidean"], ("k < 0",)),
            (["hardy-sweep", "--r", "0.5", "--R", "0.4"],
             ("0 < eps < r < R", "r=0.5", "R=0.4")),
            (["hardy-sweep", "--eps", "0,0.01"],
             ("0 < eps < r < R", "0.0"))):
        assert run_cli([*args, "--out", str(fail)]) == 2, args
        err = capsys.readouterr().err
        assert all(word in err for word in words), (args, err)
        assert not fail.exists(), args
    # nor does a numerical failure
    assert run_cli(["constants", "--n", "400", "--out", str(fail)]) == 3
    assert not fail.exists()
    capsys.readouterr()
    # argparse rejects bad choices itself, also with status 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["hardy", "--measure", "xx", "--out", str(tmp_path)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_rellich_bv_above_n_minus_4(tmp_path, capsys):
    # the domain is 0 <= beta < n - 2; above n - 4 G^beta is defined only
    # for profiles that vanish at the origin, so the battery is times rho^2
    out = tmp_path / "run"
    assert run_cli(["rellich-bv", "--n", "6", "--beta", "2.5",
                    "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    reports = json.loads((out / "report.json").read_text())["results"][
        "reports"]
    assert len(reports) == 10 and all(r["passed"] for r in reports)
    for r in reports:
        assert abs(r["constants"]["gbeta_value"]) <= \
            1e-11 * r["constants"]["gbeta_scale"]
    assert "n - 4" in SUITES["rellich-bv"].help


@pytest.mark.parametrize("args", [
    ["hardy-sweep"], ["hardy-sweep", "--beta", "0.9"],
    ["hardy-sweep", "--model", "hyperbolic"],
    ["hardy-sweep", "--model", "hyperbolic", "--beta", "0.9"],
    ["rellich-sweep"], ["rellich-sweep", "--beta", "1.9"],
    ["rellich-sweep", "--model", "hyperbolic"],
    ["rellich-sweep", "--model", "hyperbolic", "--beta", "1.9"]],
    ids=" ".join)
def test_sweep_assertions_agree_with_the_table(args, tmp_path):
    # the run passes exactly when the sweep table does, also where the
    # near-origin floor makes a curved sweep fail
    out = tmp_path / "run"
    code = run_cli([*args, "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] == report["results"]["passed"]
    assert code == (0 if report["passed"] else 1)
    assert report["assertions"][0]["name"] == (
        f"extrapolated quotient within 1% of "
        f"{report['results']['sharp_constant']}")


def test_out_naming_a_file_is_a_configuration_error(tmp_path, capsys):
    # --out naming a file, or a path below one, exits 2 with a message and
    # runs nothing; a missing directory below a directory is made
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for out in (afile, afile / "sub"):
        assert run_cli(["hardy-sweep", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "out must name a directory" in err and str(afile) in err
    assert afile.read_text() == "kept\n"
    assert run_cli(["constants", "--out", str(tmp_path / "new" / "dir")]) == 0
    assert (tmp_path / "new" / "dir" / "report.json").exists()


@pytest.mark.parametrize("section,key", [("model", "kind"), ("model", "n"),
                                         ("run", "eps"), ("run", "out")])
def test_empty_config_value_is_an_error(tmp_path, capsys, section, key):
    cfg = tmp_path / "empty.ini"
    cfg.write_text(f"[{section}]\n{key} =\n")
    assert run_cli(["hardy-sweep", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
    assert f"[{section}] {key} has an empty value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unparsable_config_file(tmp_path, capsys):
    # no section header: a configuration error, not a traceback
    cfg = tmp_path / "flat.ini"
    cfg.write_text("n = 3\n")
    assert run_cli(["constants", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
    assert "config file unreadable" in capsys.readouterr().err


def test_quadrature_tolerances_from_config(tmp_path, capsys):
    # each [quadrature] value is parsed as its spec field's type, and the
    # tolerances in effect are recorded with the rest of the spec
    cfg = tmp_path / "tol.ini"
    cfg.write_text("[quadrature]\nabs_tol = 1e-12\nradial_nodes = 16\n")
    out = tmp_path / "tol"
    assert run_cli(["hardy", "--samples", "1", "--tol", "1e-8",
                    "--config", str(cfg), "--out", str(out)]) == 0
    quad = json.loads((out / "report.json").read_text())["config"][
        "quadrature"]
    assert quad["abs_tol"] == 1e-12 and quad["rel_tol"] == 1e-8
    assert quad["radial_nodes"] == 16
    # a node count must still be an integer
    cfg.write_text("[quadrature]\nradial_nodes = 2.5\n")
    assert run_cli(["hardy", "--samples", "1", "--config", str(cfg),
                    "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_drift_rule_on_reversible_models(tmp_path):
    # --t is the Randers drift; refined-cs, like constants, runs on the
    # reversible norm of the other models
    for suite in ("refined-cs", "constants"):
        out = tmp_path / suite
        assert run_cli([suite, "--model", "hyperbolic", "--t", "-0.5",
                        "--samples", "500", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "refined-cs" / "report.json").read_text())
    assert rep["results"]["drift"] == 0.0
    res = json.loads((tmp_path / "constants" / "report.json").read_text())
    assert res["results"]["lambda_F"] == 1.0


def test_report_records_the_model_it_ran(tmp_path):
    # the drift belongs to the Randers model and k to the hyperbolic one; a
    # flag that the model ignores leaves report.json byte for byte unchanged
    for args in (["hardy-bv"], ["hardy-bv", "--t", "0.331"]):
        out = tmp_path / "-".join(args)
        assert run_cli([*args, "--samples", "2", "--out", str(out)]) == 0
    texts = [(tmp_path / name / "report.json").read_text()
             for name in ("hardy-bv", "hardy-bv---t-0.331")]
    assert texts[0] == texts[1]
    config = json.loads(texts[0])["config"]
    assert (config["model"], config["t"], config["k"]) == \
        ("hyperbolic", 0.0, -1.0)
    out = tmp_path / "flat"
    assert run_cli(["hardy", "--k", "-3", "--samples", "1",
                    "--out", str(out)]) == 0
    config = json.loads((out / "report.json").read_text())["config"]
    assert (config["model"], config["t"], config["k"]) == \
        ("randers", 0.5, 0.0)


def test_gbeta_and_constants(tmp_path):
    out1 = tmp_path / "g"
    assert run_cli(["gbeta-check", "--model", "randers", "--n", "6",
                    "--t", "0.5", "--beta", "1", "--samples", "4",
                    "--out", str(out1)]) == 0
    rep = json.loads((out1 / "report.json").read_text())
    assert len(rep["results"]["battery"]) == 4
    out2 = tmp_path / "c"
    assert run_cli(["constants", "--model", "randers", "--n", "3",
                    "--t", "0.5", "--out", str(out2)]) == 0
    res = json.loads((out2 / "report.json").read_text())["results"]
    assert res["lambda_F"] == 3.0
    assert res["Lambda_F"] == 9.0
    assert abs(res["cp_bh"] - 4.0 * 3.141592653589793) < 1e-12


def test_report_suites_emit_terms_csv(tmp_path):
    out = tmp_path / "h"
    code = run_cli(["hardy", "--model", "randers", "--n", "3", "--t", "0.5",
                    "--beta", "0", "--samples", "3", "--out", str(out)])
    assert code == 0
    lines = (out / "terms.csv").read_text().strip().splitlines()
    assert lines[0] == "battery_index,term,value,error"
    assert any(",slack," in ln for ln in lines)


def test_refined_cs_euclidean(tmp_path):
    out = tmp_path / "cs"
    code = run_cli(["refined-cs", "--n", "2", "--t", "0", "--samples",
                    "1000", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert abs(rep["results"]["min_slack"]) < 1e-12


def test_hyperbolic_batteries_via_cli(tmp_path):
    assert run_cli(["poincare", "--samples", "3",
                    "--out", str(tmp_path / "p")]) == 0
    assert run_cli(["hardy-bv", "--samples", "3",
                    "--out", str(tmp_path / "hb")]) == 0
    rep = json.loads((tmp_path / "hb" / "report.json").read_text())
    assert rep["config"]["model"] == "hyperbolic"
    assert rep["config"]["n"] == 4


@pytest.mark.parametrize("suite,attr", [("hardy-sweep", "hardy_sharpness_sweep"),
                                        ("gbeta-check", "gbeta")])
def test_runners_look_up_harness_functions(tmp_path, monkeypatch, capsys,
                                           suite, attr):
    # a runner finds its harness function when it runs, so a function
    # replaced on the module after import is the one called
    def failing(*args, **kwargs):
        raise QuadratureError("non-finite integrand samples")

    monkeypatch.setattr(harness, attr, failing)
    assert run_cli([suite, "--samples", "1", "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("args,key,value", [
    (["hardy-bv", "--k", "-1e-2"], "k", -1e-2),
    (["hardy", "--beta", "-5e-1"], "beta", -0.5),
    (["hardy", "--beta=-5e-1"], "beta", -0.5)])
def test_negative_values_in_exponent_form_parse(tmp_path, args, key, value):
    # argparse's own negative-number pattern has no exponent form
    assert run_cli(args + ["--samples", "1", "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert config[key] == value


def test_unknown_option_still_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["hardy", "--beta", "-5e-1", "--bogus", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err


def test_suite_defaults_reach_the_report(tmp_path):
    # each suite's default model and n, as the README lists them
    defaults = {"hardy": ("randers", 3), "hardy-bv": ("hyperbolic", 4),
                "hardy-sweep": ("randers", 3), "rellich": ("randers", 6),
                "rellich-bv": ("hyperbolic", 6),
                "rellich-sweep": ("randers", 6),
                "uncertainty": ("randers", 4), "gbeta-check": ("randers", 6),
                "poincare": ("hyperbolic", 3), "refined-cs": ("randers", 3),
                "constants": ("randers", 3)}
    assert set(defaults) == set(SUITES)
    for suite, (model, n) in defaults.items():
        assert (SUITES[suite].model, SUITES[suite].n) == (model, n)
        out = tmp_path / suite
        assert run_cli([suite, "--samples", "1", "--out", str(out)]) == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert (config["model"], config["n"]) == (model, n), suite


@pytest.mark.parametrize("args", [["constants", "--n", "400"],
                                  ["hardy-sweep", "--R", "1e308"]])
def test_overflow_exits_numerical(tmp_path, capsys, args):
    # finite input past the range of a double (|S^{n-1}| at n >= 344, the
    # panel count of log(R/eps)) is a numerical failure, not a traceback
    assert run_cli([*args, "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("args, quad", [
    (["refined-cs", "--samples", "1000000000000"], None),
    (["hardy"], "radial_nodes = 3000000")], ids=["samples", "radial_nodes"])
def test_oversized_input_exits_config(tmp_path, capsys, args, quad):
    # a size whose arrays exceed memory (the campaign's 8 TB slack vector,
    # the 65 TiB Jacobi matrix of a 3e6-node Gauss rule) is refused at its
    # first allocation: a configuration error, not a traceback
    if quad is not None:
        cfg = tmp_path / "big.ini"
        cfg.write_text(f"[quadrature]\n{quad}\n")
        args = [*args, "--config", str(cfg)]
    out = tmp_path / "out"
    assert run_cli([*args, "--out", str(out)]) == 2
    assert "configuration error: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file(tmp_path):
    assert run_cli(["hardy", "--config", str(tmp_path / "nope.ini"),
                    "--out", str(tmp_path)]) == 2


def test_hyperbolic_sweep_strict_json(tmp_path):
    out = tmp_path / "hyp"
    code = run_cli(["hardy-sweep", "--model", "hyperbolic", "--n", "3",
                    "--k", "-1", "--beta", "0", "--r", "0.3", "--R", "0.6",
                    "--eps", "1e-2,1e-3,1e-4,1e-5", "--out", str(out)])
    assert code == 0
    text = (out / "report.json").read_text()
    assert "NaN" not in text
    rep = json.loads(text)
    assert rep["results"]["rows"][0]["j1_exact"] is None
    assert abs(rep["results"]["extrapolated"] - 0.25) <= 0.0025
    # on curved models the verdict rests on the Moebius fit: the structured
    # extrapolator is exact only on flat ones (it reads ~9.24 here)
    out = tmp_path / "hyp-rellich"
    assert run_cli(["rellich-sweep", "--model", "hyperbolic", "--n", "6",
                    "--out", str(out)]) == 0
    text = (out / "report.json").read_text()
    assert "NaN" not in text
    res = json.loads(text)["results"]
    assert res["rows"][0]["j1_exact"] is None
    assert abs(res["extrapolated_moebius"] - 9.0) <= 1e-5 * 9.0


def test_drift_alias_flag(tmp_path):
    out = tmp_path / "alias"
    assert run_cli(["refined-cs", "--b", "0", "--samples", "500",
                    "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["config"]["t"] == 0.0


def _fresh_python(code, env=None):
    """Standard output of ``code`` in a fresh interpreter on this source
    tree, with OPENBLAS_NUM_THREADS unset unless ``env`` sets it."""
    src = str(Path(finslerineq.__file__).parents[1])
    base = {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**base, "PYTHONPATH": src, **(env or {})})
    return proc.stdout.split()


def test_import_does_not_load_scipy():
    # a fresh interpreter: this one may have imported scipy for other tests
    code = "import sys, finslerineq.cli; print('scipy' in sys.modules)"
    assert _fresh_python(code) == ["False"]


@pytest.mark.parametrize("argv, status", [
    (["list"], 0), (["--help"], 0), (["hardy", "--help"], 0),
    (["hardy", "--n", "x"], 2)])
def test_commands_that_run_no_suite_load_no_numpy(argv, status):
    # listing, help and usage errors start without the numerical modules
    code = ("import contextlib, io, sys\n"
            "from finslerineq.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "        contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        status = main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        status = exc.code\n"
            "print(status, 'numpy' in sys.modules,\n"
            "      'finslerineq.harness' in sys.modules)\n")
    assert _fresh_python(code) == [str(status), "False", "False"]


def test_package_import_loads_no_numpy():
    # the public names load lazily, each the object of its own submodule
    code = ("import sys, finslerineq as f\n"
            "print('numpy' in sys.modules)\n"
            "for name in f.__all__[:-1]:\n"
            "    obj = getattr(f, name)\n"
            "    mod = sys.modules[obj.__module__]\n"
            "    print(mod.__name__.startswith('finslerineq.')\n"
            "          and getattr(mod, name) is obj)\n")
    assert finslerineq.__all__[-1] == "__version__"
    assert _fresh_python(code) == ["False"] + ["True"] * 10


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the thread count from /proc")
@pytest.mark.parametrize("caller, threads", [(None, 1), (2, 2)])
def test_cli_runs_one_blas_thread_unless_the_caller_sets_it(
        tmp_path, caller, threads):
    # numpy loads when a suite runs, so one runs before the count is read
    argv = ["constants", "--out", str(tmp_path)]
    code = ("import contextlib, io, os, finslerineq.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = cli.main({argv!r})\n"
            "print(status, os.environ['OPENBLAS_NUM_THREADS'])\n"
            "print(*(line.split()[1] for line in open('/proc/self/status')\n"
            "        if line.startswith('Threads:')))\n")
    env = caller and {"OPENBLAS_NUM_THREADS": str(caller)}
    status, value, count = _fresh_python(code, env)
    assert status == "0"
    assert value == str(threads)
    # OpenBLAS caps its pool at the cores this process may run on
    assert int(count) == min(threads, len(os.sched_getaffinity(0)))
