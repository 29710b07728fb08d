"""In-memory span tracing of fracmin's public functions, and the arithmetic
that turns spans into per-layer metrics.

Tracing wraps every public function of the eight fracmin modules (plus the
`GridMap` constructor) and installs the wrapper under every name that
refers to it: in the package namespace and in the globals of each module
that imported it.  Patching only the defining module would miss every
`from .energy import energy` caller.  The submodules are reached through
`sys.modules`, because the package attributes `fracmin.energy` and
`fracmin.minimize` are functions that shadow their submodules.

This module imports nothing from fracmin at import time, so its arithmetic
can be tested on synthetic spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass

LAYERS = ("special", "quadrature", "maps", "energy", "inequalities", "critical", "minimize", "cli")

# classes are not wrapped, except the constructor the maps metrics time
WRAPPED_CLASSES = {"maps.GridMap"}

# a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10

# subcommands the descent and certify workloads run; each gets a p50 metric
CLI_SUBCOMMANDS = (
    "minimize",
    "energy",
    "degree",
    "gradient-check",
    "critical-p",
    "id-energy",
    "id-energy-derivative",
    "monotonicity-scan",
    "inequality-suite",
)

# (function span, stats reported for it)
FUNCTION_STATS = (
    ("energy.energy", ("calls", "self_s", "p50_us", "tail_us", "tail_pct")),
    ("energy.energy_gradient", ("calls", "self_s", "p50_us", "tail_us", "tail_pct")),
    ("maps.GridMap", ("calls", "self_s")),
    ("maps.is_admissible", ("calls", "self_s")),
    ("maps.degree", ("calls", "self_s")),
    ("maps.read_map_csv", ("self_s",)),
    ("maps.write_map_csv", ("self_s",)),
    ("minimize.minimize", ("calls", "self_s")),
    ("minimize.descend_from", ("calls", "self_s")),
    ("quadrature.integrate_singular", ("calls", "self_s")),
    ("quadrature.integral_sin_power", ("calls", "self_s")),
    ("special.log_gamma", ("calls", "self_s")),
    ("special.beta", ("calls", "self_s")),
    ("special.digamma", ("calls", "self_s")),
    ("critical.critical_p", ("self_s",)),
    ("critical.reciprocal_pair_sum", ("calls", "self_s")),
    ("critical.monotonicity_scan", ("self_s",)),
    ("inequalities.jp_monotonicity_check", ("calls", "self_s")),
    ("inequalities.segment_weight_integral", ("calls", "self_s")),
    ("inequalities.young_variant_check", ("calls", "self_s")),
    ("cli.run", ("calls", "self_s")),
)

STAT_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "tail_us": "us", "tail_pct": "%"}

DERIVED_UNITS = {
    "energy.pairs_per_s": "1/s",
    "energy.self_share": "ratio",
    "minimize.iterations": "count",
    "minimize.energy_evals": "count",
    "minimize.gradient_evals": "count",
    "minimize.halvings": "count",
    "minimize.terminations.grad_tol": "count",
    "minimize.terminations.max_iters": "count",
    "minimize.terminations.line_search": "count",
    "minimize.useful_eval_ratio": "ratio",
    "quadrature.nodes": "count",
    "critical.critical_p.iterations": "count",
    **{f"cli.{command}.p50_ms": "ms" for command in CLI_SUBCOMMANDS},
    "trace.overhead_s": "s",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, stats in FUNCTION_STATS:
        for stat in stats:
            units[f"{name}.{stat}"] = STAT_UNITS[stat]
    units.update(DERIVED_UNITS)
    return units


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    info: dict | None = None


# ------------------------------------------------------------- arithmetic


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def children_of(spans) -> list[list[int]]:
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    return children


def self_times(spans, children=None) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    if children is None:
        children = children_of(spans)
    out = []
    for span, kids in zip(spans, children):
        clipped = [
            (max(spans[k].start, span.start), min(spans[k].end, span.end))
            for k in kids
            if spans[k].end > span.start and spans[k].start < span.end
        ]
        out.append((span.end - span.start) - covered_length(clipped))
    return out


def tail(values):
    """The highest nearest-rank percentile with at least TAIL_BEYOND samples
    above it, as (value, percentile, sample count); None with too few samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def _termination(info) -> str:
    if info["converged"]:
        return "grad_tol"
    if info["iterations"] >= info["max_iters"]:
        return "max_iters"
    return "line_search"


def layer_metrics(spans) -> dict:
    """Per-layer metric values computed from one traced pass.

    trace.overhead_s is not a span quantity; the caller sets it.
    """
    children = children_of(spans)
    selfs = self_times(spans, children)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    values = {}
    for name, stats in FUNCTION_STATS:
        indices = by_name.get(name, [])
        durations = [spans[i].end - spans[i].start for i in indices]
        found = tail(durations)
        computed = {
            "calls": len(indices),
            "self_s": sum(selfs[i] for i in indices),
            "p50_us": statistics.median(durations) * 1e6 if durations else 0.0,
            "tail_us": found[0] * 1e6 if found else 0.0,
            "tail_pct": found[1] if found else 0.0,
        }
        for stat in stats:
            values[f"{name}.{stat}"] = computed[stat]

    kernel = by_name.get("energy.energy", []) + by_name.get("energy.energy_gradient", [])
    kernel_self = sum(selfs[i] for i in kernel)
    pairs = sum(spans[i].info["pairs"] for i in kernel)
    values["energy.pairs_per_s"] = pairs / kernel_self if kernel_self > 0.0 else 0.0
    total_self = sum(selfs)
    energy_self = sum(s for span, s in zip(spans, selfs) if span.name.startswith("energy."))
    values["energy.self_share"] = energy_self / total_self if total_self > 0.0 else 0.0

    counts = dict.fromkeys(
        ("iterations", "energy_evals", "gradient_evals", "halvings", "grad_tol", "max_iters", "line_search"), 0
    )
    useful = 0
    for i in by_name.get("minimize.minimize", []):
        returned = spans[i].info["result"]
        for d in children[i]:
            if spans[d].name != "minimize.descend_from":
                continue
            info = spans[d].info
            kids = [spans[k].name for k in children[d]]
            energy_evals = kids.count("energy.energy")
            gradient_evals = kids.count("energy.energy_gradient")
            # one admissibility test checks the start; each other tests a trial step
            trials = kids.count("maps.is_admissible") - 1
            counts["iterations"] += info["iterations"]
            counts["energy_evals"] += energy_evals
            counts["gradient_evals"] += gradient_evals
            counts["halvings"] += trials - info["iterations"]
            counts[_termination(info)] += 1
            if info["result"] is returned:
                useful += energy_evals + gradient_evals
    for key in ("iterations", "energy_evals", "gradient_evals", "halvings"):
        values[f"minimize.{key}"] = counts[key]
    for key in ("grad_tol", "max_iters", "line_search"):
        values[f"minimize.terminations.{key}"] = counts[key]
    evals = counts["energy_evals"] + counts["gradient_evals"]
    values["minimize.useful_eval_ratio"] = useful / evals if evals else 0.0

    values["quadrature.nodes"] = sum(spans[i].info["nodes"] for i in by_name.get("quadrature.integrate_singular", []))
    values["critical.critical_p.iterations"] = sum(
        spans[i].info["iterations"] for i in by_name.get("critical.critical_p", [])
    )
    for command in CLI_SUBCOMMANDS:
        durations = [
            spans[i].end - spans[i].start for i in by_name.get("cli.run", []) if spans[i].info["command"] == command
        ]
        values[f"cli.{command}.p50_ms"] = statistics.median(durations) * 1e3 if durations else 0.0
    return values


# ----------------------------------------------------------------- hooks
#
# A "before" hook may replace the call's arguments and records what it needs
# in the span's info dict; an "after" hook reads the result.


def _pairs(args, kwargs, info):
    n = args[0].n
    info["pairs"] = n * (n - 1)
    return args, kwargs


def _count_nodes(args, kwargs, info):
    info["nodes"] = 0
    args = list(args)
    f = args[0] if args else kwargs["f"]

    def counted(x):
        info["nodes"] += x.size
        return f(x)

    if args:
        args[0] = counted
    else:
        kwargs["f"] = counted
    return tuple(args), kwargs


def _cli_command(args, kwargs, info):
    argv = args[0] if args else kwargs["argv"]
    info["command"] = argv[0]
    return args, kwargs


def _descent_result(result, args, kwargs, info):
    config = args[1] if len(args) > 1 else kwargs["config"]
    info.update(
        iterations=result.iterations,
        converged=result.converged,
        max_iters=config.max_iters,
        result=result,
    )


def _keep_result(result, args, kwargs, info):
    info["result"] = result


def _critical_iterations(result, args, kwargs, info):
    info["iterations"] = result.iterations


BEFORE = {
    "energy.energy": _pairs,
    "energy.energy_gradient": _pairs,
    "quadrature.integrate_singular": _count_nodes,
    "cli.run": _cli_command,
}
AFTER = {
    "minimize.descend_from": _descent_result,
    "minimize.minimize": _keep_result,
    "critical.critical_p": _critical_iterations,
}


# ----------------------------------------------------------------- tracer


class Tracer:
    """Records spans of wrapped calls while `active` is true."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name, fn):
        before = BEFORE.get(name)
        after = AFTER.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            info = {} if before or after else None
            if before:
                args, kwargs = before(args, kwargs, info)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, info)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after:
                after(result, args, kwargs, info)
            return result

        return wrapper


def _public_names(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    return names


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install tracer wrappers under every name fracmin looks them up by,
    and restore the originals on exit."""
    modules = {layer: sys.modules[f"fracmin.{layer}"] for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for name in _public_names(module):
            obj = vars(module)[name]
            qualified = f"{layer}.{name}"
            own_function = inspect.isfunction(obj) and obj.__module__ == module.__name__
            if own_function or qualified in WRAPPED_CLASSES:
                wrappers[id(obj)] = (obj, tracer.wrap(qualified, obj))
    undo = []
    try:
        for module in (sys.modules["fracmin"], *modules.values()):
            for key, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, key, entry[1])
                    undo.append((module, key, value))
        yield tracer
    finally:
        for module, key, value in reversed(undo):
            setattr(module, key, value)
