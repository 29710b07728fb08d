"""Command-line driver emitting machine-readable JSON reports.

Every subcommand writes one JSON document (schema: report.schema.json)
to stdout or --out, with numeric fields serialized at full binary64
round-trip precision.  Exit status: 0 when all checks pass, 1 on a
failed check, 2 on usage errors, 3 on domain errors, 4 on
non-convergence (ConvergenceError, or a minimize run that did not
converge).  Identical argv (including --seed) reproduces the
report byte for byte; no timestamps are emitted.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .critical import _derivative_paths, critical_p, monotonicity_scan
from .energy import (
    FOUR_PI_SQ,
    EnergyParams,
    _error_estimate,
    _unfolded_sign,
    energy,
    energy_and_gradient,
    identity_energy_closed_form,
    identity_energy_quadrature,
    moebius_energy_closed_form,
)
from .errors import ConvergenceError, DomainError
from .inequalities import _jp_checks, bbm_degree_check, jp_monotonicity_check, young_variant_check
from .maps import (
    GridMap,
    _write_text,
    degree,
    moebius_map,
    perturb,
    power_map,
    read_map_csv,
    write_map_csv,
)
from .minimize import MinimizeConfig, minimize

# root of B((p-1)/2, 1/2) = 5*pi from mpmath at 40 digits; critical_p
# returns the double nearest it at every tol <= 1e-6, and 4.1e-16 off at
# tol = 1e-4
REFERENCE_CRITICAL_P = 1.139210840326630521723
REFERENCE_CRITICAL_TOL = 1e-12
# the value the paper quotes, reported next to the root as data
PAPER_CRITICAL_P = 1.13924
# bbm-check passes when the energy reaches this fraction of the winding
# bound, which is sharp only at p = 2 (below, it lies under |d| E_p(Id)).
# At p = 2 the 2% covers grid error: a Moebius trace on a coarse grid, or
# a concentrated one, falls up to 0.4% below it (n = 8 at a = 0.5).
_WINDING_SLACK = 0.98

# inequality-suite runs its jp draws through the checks this many at a
# time, each block one quadrature batch.  On the certify benchmark
# workload (peak RSS 41.7 MiB one draw at a time) blocks of 64 add
# 0.3 MiB; blocks of 32 add none but take 2 ms more per 1000 draws, and
# one block of all 1000 draws adds 6.7 MiB.
_JP_BLOCK = 64
# its Young draws this many at a time, each block one generator call: a
# block of 1024 rows holds 24 KiB of doubles, so no count allocates more
_YOUNG_BLOCK = 1024

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


def _identity_energy_check(value: float, d: int, identity: float, tol: float) -> dict:
    """matches_identity_energy: the energy is |d| E_p(Id) to within the
    relative error tol, on either side."""
    return _tolerance_check("matches_identity_energy", value / (abs(d) * identity) - 1.0, tol)


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
    return results, checks


def _two_path_check(digamma_bracket: float, series_bracket: float) -> dict:
    """The brackets agree to 1e-9, relative where |bracket| > 1: it grows
    like -2/(p-1) near p = 1 and rounds at that scale."""
    tol = 1e-9 * max(1.0, abs(digamma_bracket))
    return _tolerance_check("two_path_agreement", digamma_bracket - series_bracket, tol)


def _cmd_id_energy_derivative(args):
    [(derivative, digamma_bracket, series_bracket)] = _derivative_paths([args.p])
    results = {
        "derivative": derivative,
        "digamma_bracket": digamma_bracket,
        "series_bracket": series_bracket,
    }
    checks = [
        _bound_check("derivative_negative", 0.0, derivative),
        _two_path_check(digamma_bracket, series_bracket),
    ]
    return results, checks


def _cmd_critical_p(args):
    report = critical_p(args.tol)
    results = {
        "p_prime": report.p_prime,
        "residual_beta": report.residual_beta,
        "residual_quadrature": report.residual_quadrature,
        "iterations": report.iterations,
        "paper_p_prime": PAPER_CRITICAL_P,
        "paper_gap": PAPER_CRITICAL_P - report.p_prime,
    }
    # critical_p returns only once |residual_beta| <= tol, so the residual
    # is data, not a check
    checks = [
        _tolerance_check(
            "path_agreement", report.residual_beta - report.residual_quadrature, 1e-8
        ),
        _tolerance_check("matches_reference_value", report.p_prime - REFERENCE_CRITICAL_P, REFERENCE_CRITICAL_TOL),
    ]
    return results, checks


def _cmd_monotonicity_scan(args):
    rows = monotonicity_scan(args.grid_size)
    derivatives = [d for _, d, _, _ in rows]
    results = {
        "grid_size": args.grid_size,
        "max_derivative": max(derivatives),
        "min_derivative": min(derivatives),
    }
    checks = [
        _bound_check("all_derivatives_negative", 0.0, max(derivatives)),
        # the exponent with the least slack stands for the grid
        min((_two_path_check(a, b) for _, _, a, b in rows), key=lambda check: check["margin"]),
    ]
    if args.table_out:
        table = "".join(f"{p:.17g},{d:.17g}\n" for p, d, _, _ in rows)
        _write_text(args.table_out, "p,derivative\n" + table)
    return results, checks


def _cmd_energy(args):
    u = read_map_csv(args.map)
    value = energy(u, EnergyParams(args.p))
    results = {"n": u.n, "p": args.p, "energy": value, "degree": degree(u)}
    return results, []


def _cmd_degree(args):
    u = read_map_csv(args.map)
    d = degree(u)
    # degree(u) raises for a residual >= 1e-9, so no check could fail here
    return {"n": u.n, "degree": d, "winding_residual": u.winding - d}, []


# Taylor remainder test of the gradient (Farrell, Ham, Funke and Rognes,
# SIAM J. Sci. Comput. 35, 2013): along a direction v the remainder
# r(eps) = |E(phi + eps v) - E(phi) - eps g.v| falls like eps^2 when g is
# the gradient, and only like eps when g is off along v.
_TAYLOR_FIRST_STEP = 1e-2
_TAYLOR_STEP_RATIO = 4.0
_TAYLOR_LEVELS = 10
# remainders at or below this multiple of |E| are rounding, not Taylor terms
_TAYLOR_FLOOR = 1e-12
_TAYLOR_MIN_ORDER = 1.8


def _taylor_directions(u: GridMap, seed: int, grad: np.ndarray) -> list[np.ndarray]:
    """Four directions, each scaled to max |v| = 1: a smooth field of five
    random Fourier modes, a standard-normal field that reaches every node,
    a field that moves one node, and the gradient under test, along which
    a scaled gradient leaves the largest linear remainder.

    The two random fields are functions of the target phase, not of the
    grid angle: the normal one interpolates independent normal values at n
    equally spaced target angles.  They move two targets that nearly
    coincide by nearly the same amount, so the energy stays smooth along
    them where a perturbed map folds back onto itself; a field of the grid
    angle pulls such a pair through each other at steps near 1e-6, where
    the remainder falls only at order p.
    """
    # a stream apart from the perturb draw that made the map
    rng = np.random.default_rng((int(seed) % 2**63, 1))
    angles = np.outer(u.phases, np.arange(1, 6))
    smooth = np.cos(angles) @ rng.uniform(-1.0, 1.0, 5) + np.sin(angles) @ rng.uniform(-1.0, 1.0, 5)
    normal = np.interp(u.phases, u.theta, rng.standard_normal(u.n), period=2.0 * math.pi)
    node = np.zeros(u.n)
    node[rng.integers(u.n)] = 1.0
    # a gradient that is exactly zero, as at the identity on some small
    # grids, gives no direction
    directions = [smooth, normal, node, grad] if np.any(grad) else [smooth, normal, node]
    return [v / np.max(np.abs(v)) for v in directions]


def _taylor_order(u: GridMap, params: EnergyParams, value: float, slope: float, v: np.ndarray):
    """(order, calls): the last observed order log_4(r_{k-1}/r_k) along v,
    None when fewer than two remainders clear the rounding floor, and the
    energy calls made.  The ladder stops at the first remainder at the floor."""
    floor = _TAYLOR_FLOOR * abs(value)
    remainders = []
    step = _TAYLOR_FIRST_STEP
    for calls in range(1, _TAYLOR_LEVELS + 1):
        shifted = energy(GridMap(u.phases + step * v), params)
        remainder = abs(shifted - value - step * slope)
        if remainder <= floor:
            break
        remainders.append(remainder)
        step /= _TAYLOR_STEP_RATIO
    if len(remainders) < 2:
        return None, calls
    return math.log(remainders[-2] / remainders[-1], _TAYLOR_STEP_RATIO), calls


def _cmd_gradient_check(args):
    """Taylor remainder test of the gradient on a perturbed degree-one map.

    Along each direction the remainder must fall at order >= 1.8 between
    its last two steps above the rounding floor; a direction that keeps
    fewer than two such remainders is rounding-limited and fails.
    """
    u = perturb(power_map(args.n, 1), args.amplitude, args.seed)
    params = EnergyParams(args.p)
    value, grad = energy_and_gradient(u, params)
    orders = []
    evaluations = 1
    for v in _taylor_directions(u, args.seed, grad):
        order, calls = _taylor_order(u, params, value, float(grad @ v), v)
        orders.append(order)
        evaluations += calls
    observed = [order for order in orders if order is not None]
    rounding_limited = len(orders) - len(observed)
    # with no observed order at all, the order check reads 0
    min_order = min(observed, default=0.0)
    results = {
        "n": u.n,
        "p": args.p,
        "orders": orders,
        "min_order": min_order,
        "rounding_limited": rounding_limited,
        "energy_evaluations": evaluations,
    }
    checks = [
        # a direction whose remainders sink into rounding shows no order
        _tolerance_check("no_rounding_limited_direction", rounding_limited, 0.0),
        _bound_check("taylor_remainder_order", min_order, _TAYLOR_MIN_ORDER),
    ]
    return results, checks


def _cmd_moebius(args):
    u = moebius_map(args.n, (args.a_re, args.a_im))
    d = degree(u)
    value = energy(u, EnergyParams(args.p))
    identity = identity_energy_closed_form(args.p)
    # Moebius invariance: the continuum energy is E_p(Id) at every p, so
    # the energy must match it within its own error estimate
    error_bound = _error_estimate(u, args.p)
    results = {
        "n": u.n,
        "degree": d,
        "energy": value,
        "max_gap": u.max_gap,
        "identity_energy": identity,
        "error_bound_rel": error_bound,
    }
    checks = [_identity_energy_check(value, d, identity, error_bound)]
    if args.p == 2.0:
        # the discrete closed form is that of the raw double sum.  At p = 2
        # the correction is sum_i D_i^2 (weight -2 zeta(0) = 1) less T2,
        # which is -sum_i (D_i - D_{i-1})^2 / 12 there (zeta(-2) = 0)
        # where T2 applies; so the raw sum is the energy less both, with
        # no second kernel call.  The correction is restated here, not
        # read from _add_diagonal_correction, so that a wrong correction
        # in the energy fails this check too
        gaps = u.gaps
        raw = value - float(np.sum(gaps**2))
        if _unfolded_sign(u) != 0.0:
            raw -= float(np.sum((gaps - np.roll(gaps, 1)) ** 2)) / 12.0
        closed = moebius_energy_closed_form(u.n, complex(args.a_re, args.a_im))
        results["ground_truth_ratio"] = value / FOUR_PI_SQ
        results["discrete_closed_form"] = closed
        checks.append(_tolerance_check("matches_discrete_closed_form", raw / closed - 1.0, 1e-12))
    if args.map_out:
        write_map_csv(u, args.map_out)
    return results, checks


def _minimize_at(args, p: float):
    """(result, results, checks) of one minimize run at exponent p.  Its
    one check, as in moebius: the minimum is |d| E_p(Id), the energy of z^d
    and a lower bound on its class, to within the run's own estimated
    relative error, on either side."""
    result = minimize(MinimizeConfig(p, args.degree, args.n, args.max_iters, args.restarts, args.seed))
    identity = identity_energy_closed_form(p)
    results = {
        "final_energy": result.final_energy,
        "final_degree": result.final_degree,
        "iterations": result.iterations,
        "grad_norm": result.grad_norm,
        "decrement_rel": result.decrement_rel,
        "error_estimate_rel": result.error_estimate_rel,
        "converged": result.converged,
        "termination": result.termination,
        "evaluations": result.evaluations,
        "total_evaluations": result.total_evaluations,
        "identity_energy": identity,
    }
    checks = [_identity_energy_check(result.final_energy, args.degree, identity, result.error_estimate_rel)]
    return result, results, checks


def _cmd_minimize(args):
    result, results, checks = _minimize_at(args, args.p)
    if args.map_out:
        write_map_csv(result.final_map, args.map_out)
    if args.trace_out:
        rows = "".join(f"{i},{value:.17g}\n" for i, value in enumerate(result.energy_trace))
        _write_text(args.trace_out, "iter,energy\n" + rows)
    return results, checks, result.converged


def _exponent_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _exponent_list_arg(text: str) -> str:
    """argparse type of --p-values: the text as given, which the report's
    parameters echo, once every comma-separated entry parses as a float."""
    try:
        _exponent_list(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    return text


def _cmd_scan(args):
    p_values = _exponent_list(args.p_values)
    if not p_values:
        raise DomainError("scan needs at least one exponent in --p-values")
    rows = []
    checks = []
    for p in p_values:
        _, results, run_checks = _minimize_at(args, p)
        rows.append({"p": p, **results})
        # :g where it reads back as p, so that distinct exponents keep distinct names
        label = f"{p:g}" if float(f"{p:g}") == p else repr(p)
        checks += [{**check, "name": f"{check['name']}_p={label}"} for check in run_checks]
    return {"rows": rows}, checks, all(row["converged"] for row in rows)


def _young_draws(rng, count: int):
    """(A, B, p) for count Young checks, drawn uniform on [0, 100) x
    [1e-6, 100) x [1.05, 1.95) in blocks of _YOUNG_BLOCK rows.  A block
    fills its rows in C order, each double from what a scalar
    rng.uniform(low, high) would take, so the draws and the generator's
    state after them are those of 3 count scalar draws."""
    for start in range(0, count, _YOUNG_BLOCK):
        rows = min(_YOUNG_BLOCK, count - start)
        yield from rng.uniform((0.0, 1e-6, 1.05), (100.0, 100.0, 1.95), (rows, 3)).tolist()


def _cmd_inequality_suite(args):
    if args.count < 1:
        raise DomainError(f"count must be >= 1, got {args.count}")
    rng = np.random.default_rng(int(args.seed) % 2**63)
    jp_min = math.inf
    for start in range(0, args.count, _JP_BLOCK):
        draws = []
        for _ in range(min(_JP_BLOCK, args.count - start)):
            m = int(rng.integers(1, 4))
            # a, then b: the doubles of two draws of m
            ends = rng.uniform(-10.0, 10.0, 2 * m)
            draws.append((ends[:m], ends[m:], float(rng.uniform(1.05, 1.95))))
        for check in _jp_checks(draws):
            jp_min = min(jp_min, check.margin)
    young_min = math.inf
    for big_a, big_b, p in _young_draws(rng, args.count):
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
    return results, checks


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
    checks = [_bound_check("holds_with_2pct_slack", check.lhs, _WINDING_SLACK * check.rhs)]
    return results, checks


# ------------------------------------------------------------------ driver


# built on the first run, not at import, and then reused: parse_args keeps
# no state between calls
@functools.cache
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

    def add_parser(name, handler, **kwargs):
        s = sub.add_parser(name, parents=[common], **kwargs)
        s.set_defaults(handler=handler)
        return s

    s = add_parser("id-energy", _cmd_id_energy, help="closed-form identity-map energy with quadrature cross-check")
    s.add_argument("--p", type=float, required=True)

    s = add_parser("id-energy-derivative", _cmd_id_energy_derivative, help="p-derivative of the identity-map energy")
    s.add_argument("--p", type=float, required=True)

    s = add_parser("critical-p", _cmd_critical_p, help="solve the critical-exponent equation")
    s.add_argument("--tol", type=float, default=1e-12, help="stop once |residual| <= tol, in [1e-13, 1e-4]")

    s = add_parser(
        "monotonicity-scan", _cmd_monotonicity_scan, help="sign scan of the energy derivative over (1.01, 1.99)"
    )
    s.add_argument("--grid-size", type=int, default=100)
    s.add_argument("--table-out", default=None, help="optional CSV of (p, derivative) rows")

    s = add_parser("energy", _cmd_energy, help="energy of a map read from CSV")
    s.add_argument("--map", required=True)
    s.add_argument("--p", type=float, required=True)

    s = add_parser("degree", _cmd_degree, help="winding number of a map read from CSV")
    s.add_argument("--map", required=True)

    s = add_parser(
        "gradient-check",
        _cmd_gradient_check,
        help="Taylor remainder test of the analytic gradient along four directions on a random map",
    )
    s.add_argument("--n", type=int, default=64)
    s.add_argument("--p", type=float, default=1.5)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--amplitude", type=float, default=0.3)

    s = add_parser("moebius", _cmd_moebius, help="disk-automorphism boundary trace: degree and energy")
    s.add_argument("--a-re", type=float, required=True)
    s.add_argument("--a-im", type=float, default=0.0)
    s.add_argument("--n", type=int, default=512)
    s.add_argument("--p", type=float, default=2.0)
    s.add_argument("--map-out", default=None)

    def add_minimize_options(sp):
        sp.add_argument("--n", type=int, default=256)
        sp.add_argument("--max-iters", type=int, default=1000)
        sp.add_argument("--restarts", type=int, default=3)
        sp.add_argument("--seed", type=int, default=0)

    s = add_parser("minimize", _cmd_minimize, help="minimize the energy over a winding class")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--degree", type=int, required=True)
    add_minimize_options(s)
    s.add_argument("--map-out", default=None, help="write the final map as CSV")
    s.add_argument("--trace-out", default=None, help="write the energy trace as CSV")

    s = add_parser("scan", _cmd_scan, help="the minimize report and its checks at each of several exponents")
    s.add_argument("--p-values", type=_exponent_list_arg, required=True, help="comma-separated exponents")
    s.add_argument("--degree", type=int, default=1)
    add_minimize_options(s)

    s = add_parser("inequality-suite", _cmd_inequality_suite, help="randomized inequality margins")
    s.add_argument("--count", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)

    s = add_parser("bbm-check", _cmd_bbm_check, help="energy vs winding lower bound for one map")
    s.add_argument("--map", default=None)
    s.add_argument("--power", type=int, default=None)
    s.add_argument("--moebius", type=float, default=None)
    s.add_argument("--n", type=int, default=256)
    s.add_argument("--p", type=float, default=2.0)
    return parser


_INTERNAL_KEYS = ("command", "handler", "out")


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if args.out:
        _write_text(args.out, text)
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
        # minimize and scan also return whether their runs converged
        results, checks, *converged = args.handler(args)
        report = {
            "command": args.command,
            "parameters": {
                key.replace("_", "-"): value for key, value in sorted(vars(args).items()) if key not in _INTERNAL_KEYS
            },
            "results": results,
            "checks": checks,
            "version": __version__,
        }
        if "seed" in vars(args):
            report["seed"] = int(args.seed)
        _emit(report, args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return _EXIT_NONCONVERGED
    if not all(converged):
        return _EXIT_NONCONVERGED
    if not all(check["passed"] for check in checks):
        return _EXIT_CHECK_FAILED
    return _EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
