"""Checks of the program's outputs that do not use the program.

Every check returns a list of problems; an empty list means it passed.
The references are the benchmark's own: sharp constants and sphere areas
from their closed forms, asymmetry constants from (1+t)/(1-t), and radial
Hardy integrals of the cutoff profile from 30-digit ``mpmath`` quadrature.
``self_test`` feeds every check a perturbed copy of a real output and
reports each check that fails to notice.
"""

from __future__ import annotations

import copy
import math

import mpmath

DIGITS = 30
# The radial path runs at the default spec and must agree with mpmath
# within its reported error plus this relative floor.
RADIAL_FLOOR_REL = 1e-8
# The field path runs at reduced specs whose reported error does not cover
# its actual error (the sphere rule is left out, and the unsplit cutoff
# transition can exceed it), so it gets fixed relative tolerances instead:
# the worst deviations measured are 1.6e-2 (lhs, hyperbolic), 1.15e-2 (lhs,
# Randers, 25 drifts in [0.2, 0.7)) and 7.3e-4 (main, remainder).
FIELD_RTOL = {"lhs": 3e-2, "main": 2e-3, "remainder": 2e-3}
GBETA_FIELD_BAND = 1e-2      # |G|/scale of a radial field at SPEC_GBETA
FD_AGREEMENT = 1e-6          # finite-difference vs analytic differential

# Which terms of each theorem are subtracted from which (slack = lhs - rhs).
SLACK_TERMS = {
    "hardy": ("lhs", ("main", "remainder")),
    "hardy-bv": ("lhs", ("main", "remainder", "brezis_vazquez")),
    "rellich": ("lhs", ("main", "remainder")),
    "rellich-bv": ("lhs", ("main", "remainder4", "weight2",
                           "weight2_remainder", "weight0")),
    "poincare": ("gradient_side", ("lhs",)),
    "uncertainty": ("lhs_product", ("rhs",)),
}


def sphere_area(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def hardy_sharp(n: int, beta: float) -> float:
    return (n - 2.0 - beta) ** 2 / 4.0


def rellich_sharp(n: int, beta: float) -> float:
    return (n + beta) ** 2 * (n - 4.0 - beta) ** 2 / 16.0


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


# --------------------------------------------------------------- suites
def check_report(rep: dict) -> list[str]:
    """Finite terms, slack recomputed from them, slack >= -tolerance."""
    problems = []
    terms = rep["terms"]
    for name, tv in terms.items():
        if not (_finite(tv["value"]) and _finite(tv["error"])):
            problems.append(f"{rep['theorem']}: term {name} not finite")
    if problems:
        return problems
    pos, negs = SLACK_TERMS[rep["theorem"]]
    slack = terms[pos]["value"] - sum(terms[k]["value"] for k in negs)
    tol = rep["slack_tolerance"]
    scale = max(abs(tv["value"]) for tv in terms.values())
    if abs(slack - rep["slack"]) > 1e-12 * max(scale, 1.0):
        problems.append(f"{rep['theorem']}: reported slack {rep['slack']!r}"
                        f" != recomputed {slack!r}")
    if not (_finite(tol) and tol > 0.0) or slack < -tol:
        problems.append(f"{rep['theorem']}: slack {slack:.3e} < -{tol:.3e}")
    return problems


def check_sweep(payload: dict) -> list[str]:
    """Sharp constant and its extrapolation, and J1 = |S^{n-1}| ln(r/eps)."""
    res, cfg = payload["results"], payload["config"]
    n, beta = cfg["n"], cfg["beta"]
    sharp = hardy_sharp(n, beta) if res["theorem"] == "hardy-sweep" \
        else rellich_sharp(n, beta)
    problems = []
    if abs(res["sharp_constant"] - sharp) > 1e-12 * sharp:
        problems.append(f"{res['theorem']}: sharp constant "
                        f"{res['sharp_constant']!r} != {sharp!r}")
    if not abs(res["extrapolated"] - sharp) <= 0.01 * sharp:
        problems.append(f"{res['theorem']}: extrapolated "
                        f"{res['extrapolated']!r} not within 1% of {sharp!r}")
    if res["constants"]["k"] == 0.0 and payload["config"]["measure"] == "bh":
        area = sphere_area(n)
        for row in res["rows"]:
            want = area * math.log(cfg["r"] / row["eps"])
            if not abs(row["j1_quadrature"] - want) <= 1e-9 * want:
                problems.append(f"{res['theorem']}: j1 at eps={row['eps']} "
                                f"is {row['j1_quadrature']!r}, want {want!r}")
    return problems


def check_constants(payload: dict, t: float) -> list[str]:
    """Closed-form and sampled asymmetry constants against (1+t)/(1-t)."""
    res = payload["results"]
    lam = (1.0 + t) / (1.0 - t)
    want = {"lambda_F": (lam, 1e-12), "Lambda_F": (lam * lam, 1e-12),
            "lambda_F_sampled": (lam, 1e-3),
            "Lambda_F_sampled": (lam * lam, 1e-2)}
    return [f"constants: {key} = {res[key]!r}, want {ref!r} within {rtol}"
            for key, (ref, rtol) in want.items()
            if not abs(res[key] - ref) <= rtol * ref]


def check_refined_cs(payload: dict) -> list[str]:
    res = payload["results"]
    if not (_finite(res["min_slack"]) and _finite(res["min_scale"])):
        return ["refined-cs: non-finite minimum"]
    if res["min_slack"] < -1e-10 * res["min_scale"]:
        return [f"refined-cs: min slack {res['min_slack']:.3e} < "
                f"-1e-10 * {res['min_scale']:.3e}"]
    return []


def check_gbeta(value: float, scale: float, band: float,
                label: str) -> list[str]:
    """A radial nonincreasing profile lies in the kernel: G = 0."""
    if not (_finite(value) and _finite(scale) and scale > 0.0):
        return [f"{label}: G^beta not finite"]
    if abs(value) > band * scale:
        return [f"{label}: |G^beta| = {abs(value):.3e} > {band} * "
                f"{scale:.3e}"]
    return []


def check_suite(name: str, payload: dict, t: float) -> list[str]:
    """All property checks that apply to one suite's report.json."""
    res = payload["results"]
    if name == "constants":
        return check_constants(payload, t)
    if name == "refined-cs":
        return check_refined_cs(payload)
    if name.endswith("sweep"):
        return check_sweep(payload)
    if name == "gbeta-check":
        return [p for item in res["battery"] for p in check_gbeta(
            item["value"], item["scale"], 1e-6,
            f"gbeta-check {item['label']}")]
    return [p for rep in res["reports"] for p in check_report(rep)]


# ------------------------------------------------------- mpmath references
def _cutoff(r, R):
    """The smooth cutoff 1/(1 + exp(1/(1-s) - 1/s)), s = (rho-r)/(R-r),
    and its derivative, in mpmath."""
    def psi(rho):
        if rho <= r:
            return mpmath.mpf(1)
        if rho >= R:
            return mpmath.mpf(0)
        s = (rho - r) / (R - r)
        return 1 / (1 + mpmath.exp(1 / (1 - s) - 1 / s))

    def dpsi(rho):
        if rho <= r or rho >= R:
            return mpmath.mpf(0)
        s = (rho - r) / (R - r)
        p = psi(rho)
        return -(1 / (1 - s) ** 2 + 1 / s ** 2) * p * (1 - p) / (R - r)
    return psi, dpsi


def hardy_reference(n: int, beta: float, r: float, R: float,
                    curvature: float) -> dict[str, float]:
    """Hardy terms of u = cutoff(rho) on a model with polar density
    |S^{n-1}| s_k(rho)^{n-1} (the BH measure on flat Randers spaces)."""
    with mpmath.workdps(DIGITS):
        r, R, beta = mpmath.mpf(r), mpmath.mpf(R), mpmath.mpf(beta)
        psi, dpsi = _cutoff(r, R)
        root = mpmath.sqrt(-curvature) if curvature < 0 else None

        def vol(rho):
            return rho ** (n - 1) if root is None \
                else (mpmath.sinh(root * rho) / root) ** (n - 1)

        def comparison(rho):       # x coth x - 1, x = sqrt(-k) rho
            x = root * rho
            return x * mpmath.coth(x) - 1

        lhs = mpmath.quad(lambda p: dpsi(p) ** 2 * p ** -beta * vol(p),
                          [r, R])
        # psi = 1 on [0, r]; on a flat model that piece is a power integral
        p_exp = n - 2 - beta
        if root is None:
            inner = r ** p_exp / p_exp
        else:
            inner = mpmath.quad(lambda p: p ** (-2 - beta) * vol(p), [0, r])
        main = inner + mpmath.quad(
            lambda p: psi(p) ** 2 * p ** (-2 - beta) * vol(p), [r, R])
        rem = mpmath.mpf(0) if root is None else mpmath.quad(
            lambda p: psi(p) ** 2 * p ** (-2 - beta) * comparison(p)
            * vol(p), [0, r, R])
        gam = (n - 2 - beta) / 2
        c_rem = (n - 1) * (n - 2 - beta) / 2
        area = sphere_area(n)
        return {"lhs": float(area * lhs),
                "main": float(area * gam ** 2 * main),
                "remainder": float(area * c_rem * rem)}


def check_within_error(terms: dict, ref: dict, label: str) -> list[str]:
    """Each term within its reported error plus RADIAL_FLOOR_REL of the
    mpmath reference."""
    problems = []
    for name, want in ref.items():
        got, err = terms[name]["value"], terms[name]["error"]
        if not abs(got - want) <= err + RADIAL_FLOOR_REL * abs(want):
            problems.append(f"{label}: {name} = {got!r} (error {err:.2e}), "
                            f"mpmath gives {want!r}")
    return problems


def check_within_rtol(terms: dict, ref: dict, label: str) -> list[str]:
    """Each term within FIELD_RTOL of the mpmath reference."""
    problems = []
    for name, want in ref.items():
        got = terms[name]["value"]
        if not abs(got - want) <= FIELD_RTOL[name] * abs(want):
            problems.append(f"{label}: {name} = {got!r}, mpmath gives "
                            f"{want!r} (tolerance {FIELD_RTOL[name]})")
    return problems


def check_fd_agreement(analytic: dict, fd: dict, label: str) -> list[str]:
    """The finite-difference differential reproduces the analytic one."""
    problems = []
    for name, tv in analytic["terms"].items():
        a, b = tv["value"], fd["terms"][name]["value"]
        if not abs(a - b) <= FD_AGREEMENT * max(abs(a), 1e-300):
            problems.append(f"{label}: {name} {b!r} (finite differences) vs "
                            f"{a!r} (analytic)")
    return problems


# ----------------------------------------------------------- self-tests
def self_test(cases: list[tuple[str, callable, callable]]) -> list[str]:
    """Each case is (label, check, perturb): ``perturb`` returns a bad copy
    of real data and ``check`` must report a problem for it."""
    return [f"self-test: check {label} accepted a perturbed value"
            for label, check, perturb in cases if not check(perturb())]


def perturbed(data, path: tuple, fn):
    """A deep copy of ``data`` with the value at ``path`` replaced by
    ``fn(value)``."""
    out = copy.deepcopy(data)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = fn(node[path[-1]])
    return out
