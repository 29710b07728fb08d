"""Tests of the benchmark's own arithmetic on synthetic inputs.

Run from the root of the repository:

    python3 -m pytest -q bench/test_harness.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END_UNITS, WORKLOAD_NAMES  # noqa: E402
from tracing import Span, covered_length, layer_metrics, metric_units, self_times, tail  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (1.5, 1.7)]) == 3.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 5.0, 0),
        Span("c", 2.0, 3.0, 1),  # grandchild of a: already inside b
        Span("d", 6.0, 7.5, 0),
        Span("e", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.5, 4.0 - 1.0, 1.0, 1.5, 1.0])
    # self times of a nested call stack add up to the root's duration
    assert sum(self_times(spans[:4])) == pytest.approx(10.0)


def test_self_time_clips_children_to_the_parent():
    spans = [Span("a", 0.0, 2.0, -1), Span("b", 1.0, 3.0, 0), Span("c", 1.5, 2.5, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tail_needs_ten_samples_beyond_it():
    assert tail(list(range(10))) is None
    value, percentile, count = tail([float(v) for v in range(11)])
    assert (value, count) == (0.0, 11)
    assert percentile == pytest.approx(100.0 / 11)
    values = [float(v) for v in range(100, 0, -1)]  # 1..100, unsorted
    value, percentile, count = tail(values)
    assert (value, percentile, count) == (90.0, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tally_counts_each_failed_operation_once():
    tally = Tally()
    assert tally.fail_ratio == 0.0
    tally.start()
    assert tally.check(True, "fine")
    tally.start()
    assert not tally.check(False, "first problem")
    tally.check(False, "second problem of the same operation")
    tally.start()
    tally.check(False, "third operation")
    tally.start()
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.fail_ratio == 0.5
    assert len(tally.reasons) == 3


class _Result:
    def __init__(self, iterations, converged):
        self.iterations = iterations
        self.converged = converged


def _descent_spans():
    """One minimize call with two descent runs; the second is returned."""
    kept = _Result(0, True)
    dropped = _Result(2, False)
    spans = [Span("minimize.minimize", 0.0, 100.0, -1, {"result": kept})]

    def add(name, start, end, parent, info=None):
        spans.append(Span(name, start, end, parent, info))
        return len(spans) - 1

    run = add("minimize.descend_from", 1.0, 50.0, 0, {"iterations": 2, "converged": False, "max_iters": 5, "result": dropped})
    add("maps.is_admissible", 1.0, 2.0, run)  # start check
    add("energy.energy", 2.0, 4.0, run, {"pairs": 56})
    add("energy.energy_gradient", 4.0, 8.0, run, {"pairs": 56})
    for start in (10.0, 20.0, 30.0):  # three trials, two accepted
        add("maps.is_admissible", start, start + 1.0, run)
        add("energy.energy", start + 1.0, start + 3.0, run, {"pairs": 56})
    add("energy.energy_gradient", 40.0, 44.0, run, {"pairs": 56})
    run = add("minimize.descend_from", 60.0, 70.0, 0, {"iterations": 0, "converged": True, "max_iters": 5, "result": kept})
    add("maps.is_admissible", 60.0, 61.0, run)
    add("energy.energy", 61.0, 63.0, run, {"pairs": 56})
    add("energy.energy_gradient", 63.0, 67.0, run, {"pairs": 56})
    return spans


def test_layer_metrics_count_descent_work():
    values = layer_metrics(_descent_spans())
    assert values["minimize.minimize.calls"] == 1
    assert values["minimize.descend_from.calls"] == 2
    assert values["minimize.iterations"] == 2
    assert values["minimize.energy_evals"] == 5
    assert values["minimize.gradient_evals"] == 3
    assert values["minimize.halvings"] == 1
    assert values["minimize.terminations.grad_tol"] == 1
    assert values["minimize.terminations.line_search"] == 1
    assert values["minimize.terminations.max_iters"] == 0
    assert values["minimize.useful_eval_ratio"] == pytest.approx(2 / 8)
    # energy spans have no children here, so self time is their duration
    assert values["energy.energy.self_s"] == pytest.approx(10.0)
    assert values["energy.pairs_per_s"] == pytest.approx(8 * 56 / 22.0)
    assert values["energy.energy.tail_us"] == 0.0  # 5 calls: no tail yet
    assert values["energy.energy.p50_us"] == pytest.approx(2e6)


def test_metric_names_match_the_benchmark_definition():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == metric_units()
    computed = set(layer_metrics(_descent_spans())) | {"trace.overhead_s"}
    assert computed == set(declared)
