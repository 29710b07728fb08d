"""Command-line driver emitting machine-readable JSON reports.

Every subcommand writes one JSON document (schema: report.schema.json)
to stdout or --out, with numeric fields serialized at full binary64
round-trip precision.  Exit status: 0 when all checks pass, 1 on a
failed check, 2 on usage errors, 3 on domain errors, 4 on
non-convergence.  Identical argv (including --seed) reproduces the
report byte for byte; no timestamps are emitted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .critical import critical_p, derivative_sign_condition, monotonicity_scan
from .energy import (
    FOUR_PI_SQ,
    EnergyParams,
    degree_lower_bound,
    energy,
    energy_gradient,
    identity_energy_closed_form,
    identity_energy_derivative,
    identity_energy_quadrature,
    moebius_energy_closed_form,
)
from .errors import ConsistencyError, ConvergenceError, DomainError
from .inequalities import bbm_degree_check, jp_monotonicity_check, young_variant_check
from .maps import (
    GridMap,
    degree,
    moebius_map,
    perturb,
    power_map,
    read_map_csv,
    write_map_csv,
)
from .minimize import MinimizeConfig, minimize, minimize_scan
from .special import beta

# root of B((p-1)/2, 1/2) = 5*pi from mpmath at 40 digits; critical_p
# lands within a few ulps of it
REFERENCE_CRITICAL_P = 1.139210840326630521723
REFERENCE_CRITICAL_TOL = 1e-12
# the value the paper quotes, reported next to the root as data
PAPER_CRITICAL_P = 1.13924

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_USAGE = 2
_EXIT_DOMAIN = 3
_EXIT_NONCONVERGED = 4


def _check(name: str, passed: bool, margin: float) -> dict:
    return {"name": name, "passed": bool(passed), "margin": float(margin)}


def _tolerance_check(name: str, deviation: float, tol: float) -> dict:
    """Pass when |deviation| <= tol; margin is the remaining slack."""
    margin = tol - abs(deviation)
    return _check(name, margin >= 0.0, margin)


def _bound_check(name: str, value: float, bound: float) -> dict:
    """Pass when value >= bound."""
    margin = value - bound
    return _check(name, margin >= 0.0, margin)


# ---------------------------------------------------------------- commands


def _cmd_id_energy(args):
    closed = identity_energy_closed_form(args.p)
    quad = identity_energy_quadrature(args.p)
    rel_gap = (quad - closed) / closed
    results = {
        "energy": closed,
        "quadrature_path": quad,
        "path_rel_gap": rel_gap,
    }
    checks = [_tolerance_check("closed_vs_quadrature_rel", rel_gap, 1e-9)]
    if args.p == 2.0:
        results["ground_truth"] = FOUR_PI_SQ
        checks.append(
            _tolerance_check("matches_ground_truth_rel", closed / FOUR_PI_SQ - 1.0, 1e-9)
        )
    return results, checks, None


def _cmd_id_energy_derivative(args):
    derivative = identity_energy_derivative(args.p)
    series_bracket = 2.0 * derivative_sign_condition(args.p)
    digamma_bracket = derivative / (
        2.0 ** (args.p - 1.0) * math.pi * beta(0.5 * (args.p - 1.0), 0.5)
    )
    gap = digamma_bracket - series_bracket
    results = {
        "derivative": derivative,
        "digamma_bracket": digamma_bracket,
        "series_bracket": series_bracket,
    }
    checks = [
        _bound_check("derivative_negative", 0.0, derivative),
        _tolerance_check("two_path_agreement", gap, 1e-9),
    ]
    return results, checks, None


def _cmd_critical_p(args):
    report = critical_p(args.tol)
    results = {
        "p_prime": report.p_prime,
        "residual_beta": report.residual_beta,
        "residual_quadrature": report.residual_quadrature,
        "bracket_lo": report.bracket[0],
        "bracket_hi": report.bracket[1],
        "iterations": report.iterations,
        "paper_p_prime": PAPER_CRITICAL_P,
        "paper_gap": PAPER_CRITICAL_P - report.p_prime,
    }
    checks = [
        _tolerance_check("beta_residual", report.residual_beta, 1e-10),
        _tolerance_check(
            "path_agreement", report.residual_beta - report.residual_quadrature, 1e-8
        ),
        _tolerance_check(
            "matches_reference_value",
            report.p_prime - REFERENCE_CRITICAL_P,
            REFERENCE_CRITICAL_TOL,
        ),
    ]
    return results, checks, None


def _cmd_monotonicity_scan(args):
    pairs = monotonicity_scan(args.grid_size)
    derivatives = [d for _, d in pairs]
    results = {
        "grid_size": args.grid_size,
        "max_derivative": max(derivatives),
        "min_derivative": min(derivatives),
    }
    checks = [_bound_check("all_derivatives_negative", 0.0, max(derivatives))]
    if args.table_out:
        with open(args.table_out, "w") as fh:
            fh.write("p,derivative\n")
            for p, d in pairs:
                fh.write(f"{p:.17g},{d:.17g}\n")
    return results, checks, None


def _cmd_energy(args):
    u = read_map_csv(args.map)
    value = energy(u, EnergyParams(args.p))
    results = {"n": u.n, "p": args.p, "energy": value, "degree": degree(u)}
    return results, [], None


def _cmd_degree(args):
    u = read_map_csv(args.map)
    d = degree(u)
    residual = u.winding - d
    results = {"n": u.n, "degree": d, "winding_residual": residual}
    checks = [_tolerance_check("winding_residual", residual, 1e-9)]
    return results, checks, None


def _cmd_gradient_check(args):
    u = perturb(power_map(args.n, 1), args.amplitude, args.seed)
    params = EnergyParams(args.p)
    analytic = energy_gradient(u, params)
    step = 1e-6

    def shifted(i, multiple):
        bump = np.zeros(u.n)
        bump[i] = multiple * step
        return energy(GridMap(u.phases + bump), params)

    # five-point central stencil: truncation error O(step^4), where the
    # two-point form's O(step^2) error alone can exceed the tolerance
    fd = np.empty(u.n)
    for i in range(u.n):
        near = shifted(i, 1) - shifted(i, -1)
        far = shifted(i, 2) - shifted(i, -2)
        fd[i] = (8.0 * near - far) / (12.0 * step)
    deviation = np.abs(analytic - fd)
    tolerance = 1e-5 * np.abs(fd) + 1e-7
    worst = float(np.min(tolerance - deviation))
    results = {
        "n": u.n,
        "p": args.p,
        "max_abs_deviation": float(np.max(deviation)),
        "max_rel_error": float(np.max(deviation / np.maximum(np.abs(fd), 1e-7))),
        # at most 1 exactly when the check passes, unlike max_rel_error
        "max_tolerance_ratio": float(np.max(deviation / tolerance)),
    }
    checks = [_check("matches_finite_differences", worst >= 0.0, worst)]
    return results, checks, args.seed


def _cmd_moebius(args):
    u = moebius_map(args.n, (args.a_re, args.a_im))
    d = degree(u)
    value = energy(u, EnergyParams(args.p))
    results = {
        "n": u.n,
        "degree": d,
        "energy": value,
        "max_gap": float(np.max(np.abs(u.gaps))),
    }
    checks = [_tolerance_check("degree_is_one", d - 1, 0.0)]
    if args.p == 2.0:
        closed = moebius_energy_closed_form(u.n, complex(args.a_re, args.a_im))
        results["ground_truth_ratio"] = value / FOUR_PI_SQ
        results["discrete_closed_form"] = closed
        checks.append(_tolerance_check("matches_discrete_closed_form", value / closed - 1.0, 1e-12))
    if args.map_out:
        write_map_csv(u, args.map_out)
    return results, checks, None


def _minimize_config(args, p: float) -> MinimizeConfig:
    return MinimizeConfig(
        p=p,
        degree_target=args.degree,
        n=args.n,
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        restarts=args.restarts,
        seed=args.seed,
    )


def _cmd_minimize(args):
    config = _minimize_config(args, args.p)
    result = minimize(config)
    start_energy = energy(power_map(args.n, args.degree), EnergyParams(args.p))
    bound = degree_lower_bound(args.p, args.degree)
    results = {
        "final_energy": result.final_energy,
        "final_degree": result.final_degree,
        "iterations": result.iterations,
        "grad_norm": result.grad_norm,
        "converged": result.converged,
        "start_energy": start_energy,
        "lower_bound": bound,
    }
    checks = [
        _tolerance_check("degree_preserved", result.final_degree - args.degree, 0.0),
        _bound_check("above_lower_bound", result.final_energy, 0.98 * bound - 1e-12),
        _bound_check(
            "feasible_competitor", start_energy + 1e-9, result.final_energy
        ),
    ]
    if args.map_out:
        write_map_csv(result.final_map, args.map_out)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write("iter,energy\n")
            for i, value in enumerate(result.energy_trace):
                fh.write(f"{i},{value:.17g}\n")
    return results, checks, args.seed, result.converged


def _cmd_scan(args):
    p_values = [float(tok) for tok in args.p_values.split(",") if tok.strip()]
    if not p_values:
        raise DomainError("scan needs at least one exponent in --p-values")
    rows = minimize_scan(p_values, _minimize_config(args, p_values[0]))
    results = {
        "rows": [
            {
                "p": row.p,
                "min_energy": row.min_energy,
                "identity_energy": row.identity_energy,
                "lower_bound": row.lower_bound,
                "converged": row.converged,
            }
            for row in rows
        ]
    }
    checks = []
    for row in rows:
        slack = min(
            row.min_energy - 0.98 * row.lower_bound,
            row.identity_energy + 1e-9 - row.min_energy,
        )
        checks.append(_check(f"sandwich_p={row.p:g}", slack >= 0.0, slack))
    all_converged = all(row.converged for row in rows)
    return results, checks, args.seed, all_converged


def _cmd_inequality_suite(args):
    rng = np.random.default_rng(args.seed)
    jp_min = math.inf
    for _ in range(args.count):
        m = int(rng.integers(1, 4))
        a = rng.uniform(-10.0, 10.0, m)
        b = rng.uniform(-10.0, 10.0, m)
        p = float(rng.uniform(1.05, 1.95))
        jp_min = min(jp_min, jp_monotonicity_check(a, b, p).margin)
    young_min = math.inf
    for _ in range(args.count):
        big_a = float(rng.uniform(0.0, 100.0))
        big_b = float(rng.uniform(1e-6, 100.0))
        p = float(rng.uniform(1.05, 1.95))
        young_min = min(young_min, young_variant_check(big_a, big_b, p).margin)
    antipodal_max = 0.0
    for p in (1.1, 1.3, 1.5, 1.7, 1.9):
        check = jp_monotonicity_check(np.array([-1.0, 0.0]), np.array([1.0, 0.0]), p)
        antipodal_max = max(antipodal_max, abs(check.margin))
    results = {
        "count": args.count,
        "jp_min_margin": jp_min,
        "young_min_margin": young_min,
        "antipodal_max_abs_margin": antipodal_max,
    }
    checks = [
        _bound_check("jp_margin_floor", jp_min, -1e-10),
        _bound_check("young_margin_floor", young_min, -1e-12),
        _tolerance_check("antipodal_equality", antipodal_max, 1e-9),
    ]
    return results, checks, args.seed


def _cmd_bbm_check(args):
    sources = [args.map is not None, args.power is not None, args.moebius is not None]
    if sum(sources) != 1:
        raise DomainError("provide exactly one of --map, --power, --moebius")
    if args.map is not None:
        u = read_map_csv(args.map)
    elif args.power is not None:
        u = power_map(args.n, args.power)
    else:
        u = moebius_map(args.n, (args.moebius, 0.0))
    check = bbm_degree_check(u, args.p)
    results = {
        "n": u.n,
        "degree": degree(u),
        "energy": check.lhs,
        "lower_bound": check.rhs,
        "margin": check.margin,
    }
    checks = [_bound_check("holds_with_2pct_slack", check.lhs, 0.98 * check.rhs)]
    return results, checks, None


# ------------------------------------------------------------------ driver


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmin",
        description="Fractional circle-map energies: closed forms, winding bounds, "
        "critical exponent, and constrained minimization.",
    )
    parser.add_argument("--out", default=None, help="write the report to a file instead of stdout")
    # --out is also accepted after the subcommand; SUPPRESS keeps an
    # absent trailing flag from clobbering a leading one
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    s = add_parser("id-energy", help="closed-form identity-map energy with quadrature cross-check")
    s.add_argument("--p", type=float, required=True)

    s = add_parser("id-energy-derivative", help="p-derivative of the identity-map energy")
    s.add_argument("--p", type=float, required=True)

    s = add_parser("critical-p", help="solve the critical-exponent equation")
    s.add_argument("--tol", type=float, default=1e-10)

    s = add_parser("monotonicity-scan", help="sign scan of the energy derivative over (1.01, 1.99)")
    s.add_argument("--grid-size", type=int, default=100)
    s.add_argument("--table-out", default=None, help="optional CSV of (p, derivative) rows")

    s = add_parser("energy", help="energy of a map read from CSV")
    s.add_argument("--map", required=True)
    s.add_argument("--p", type=float, required=True)

    s = add_parser("degree", help="winding number of a map read from CSV")
    s.add_argument("--map", required=True)

    s = add_parser("gradient-check", help="analytic gradient vs central differences on a random map")
    s.add_argument("--n", type=int, default=64)
    s.add_argument("--p", type=float, default=1.5)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--amplitude", type=float, default=0.3)

    s = add_parser("moebius", help="disk-automorphism boundary trace: degree and energy")
    s.add_argument("--a-re", type=float, required=True)
    s.add_argument("--a-im", type=float, default=0.0)
    s.add_argument("--n", type=int, default=512)
    s.add_argument("--p", type=float, default=2.0)
    s.add_argument("--map-out", default=None)

    def add_minimize_options(sp):
        sp.add_argument("--n", type=int, default=256)
        sp.add_argument("--max-iters", type=int, default=1000)
        sp.add_argument("--grad-tol", type=float, default=1e-5)
        sp.add_argument("--restarts", type=int, default=3)
        sp.add_argument("--seed", type=int, default=0)

    s = add_parser("minimize", help="minimize the energy over a winding class")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--degree", type=int, required=True)
    add_minimize_options(s)
    s.add_argument("--map-out", default=None, help="write the final map as CSV")
    s.add_argument("--trace-out", default=None, help="write the energy trace as CSV")

    s = add_parser("scan", help="minimize across several exponents and tabulate the bound sandwich")
    s.add_argument("--p-values", required=True, help="comma-separated exponents")
    s.add_argument("--degree", type=int, default=1)
    add_minimize_options(s)

    s = add_parser("inequality-suite", help="randomized inequality margins")
    s.add_argument("--count", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)

    s = add_parser("bbm-check", help="energy vs winding lower bound for one map")
    s.add_argument("--map", default=None)
    s.add_argument("--power", type=int, default=None)
    s.add_argument("--moebius", type=float, default=None)
    s.add_argument("--n", type=int, default=256)
    s.add_argument("--p", type=float, default=2.0)
    return parser


_HANDLERS = {
    "id-energy": _cmd_id_energy,
    "id-energy-derivative": _cmd_id_energy_derivative,
    "critical-p": _cmd_critical_p,
    "monotonicity-scan": _cmd_monotonicity_scan,
    "energy": _cmd_energy,
    "degree": _cmd_degree,
    "gradient-check": _cmd_gradient_check,
    "moebius": _cmd_moebius,
    "minimize": _cmd_minimize,
    "scan": _cmd_scan,
    "inequality-suite": _cmd_inequality_suite,
    "bbm-check": _cmd_bbm_check,
}

_INTERNAL_KEYS = ("command", "out")


def _parameters(args) -> dict:
    params = {}
    for key, value in sorted(vars(args).items()):
        if key in _INTERNAL_KEYS:
            continue
        params[key.replace("_", "-")] = value
    return params


def _jsonable(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv=None) -> int:
    """Parse argv, execute one subcommand, emit its report.

    Returns the process exit status; the `fracmin` script wraps this in
    sys.exit.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        outcome = _HANDLERS[args.command](args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except (ConvergenceError, ConsistencyError) as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return _EXIT_NONCONVERGED
    if len(outcome) == 4:
        results, checks, seed, converged = outcome
    else:
        results, checks, seed = outcome
        converged = True
    report = {
        "command": args.command,
        "parameters": _jsonable(_parameters(args)),
        "results": _jsonable(results),
        "checks": checks,
        "version": __version__,
    }
    if seed is not None:
        report["seed"] = int(seed)
    _emit(report, args)
    if not converged:
        return _EXIT_NONCONVERGED
    if not all(check["passed"] for check in checks):
        return _EXIT_CHECK_FAILED
    return _EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
