"""One benchmark process: set up a workload, run it, write its result.

Started by run.py with BLAS/OpenMP threads fixed at 1 and the checkout's
src/ on PYTHONPATH.  With --setup-only it stops once the workload is ready
and prints the perf_counter reading of that moment, so run.py can time
set-up from process start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import fracmin
import fracmin.cli  # noqa: F401  (registers the submodule the workloads call)
from run import THREAD_VARIABLES
from tracing import Tracer, layer_metrics, patched
from workloads import WORKLOADS, Session, Tally


def _read(path) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_note(seed: int) -> dict:
    """What the numbers depend on: CPU, caches, Python, numpy, BLAS, threads."""
    import numpy as np

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        size = _read(f"{base}/{entry}/size")
        if level and size:
            caches.append(f"L{level} {kind} {size}")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "note": "Kernel throughput is reported as energy.pairs_per_s without a roofline "
        "ratio: a fair bandwidth probe needs arrays of at least 4x the L3 size, "
        "more memory than this benchmark may use.",
    }


def _validator():
    import jsonschema

    here = os.path.dirname(fracmin.__file__)
    with open(os.path.join(here, "report.schema.json")) as fh:
        return jsonschema.Draft7Validator(json.load(fh))


def timed_run(workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Repeat the operation list until `seconds` have passed.  Operations
    whose inputs repeat must reproduce the first repetition's output.

    Each operation's time is the median of its probe-scaled runs, which
    keeps a burst of contention on the shared host from moving the result;
    a timing metric is the sum of those medians over the operations it
    covers.  The unscaled medians go to the record for comparison.
    """
    samples: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    reps = []
    first_outputs = None
    start = time.perf_counter()
    while True:
        session = Session(tally, reference=first_outputs, probe=True)
        reps.append(workload.run_rep(session, seed, len(reps), first=not reps))
        if first_outputs is None:
            first_outputs = session.outputs
        for label in session.times:
            samples.setdefault(label, []).extend(session.scaled[label])
            raw.setdefault(label, []).extend(session.times[label])
        if time.perf_counter() - start >= seconds:
            break

    def total(labels, source=samples):
        return sum(statistics.median(source[label]) for label in labels)

    metrics = {
        "wall_s": total(reps[0].wall),
        "time_to_accuracy_s": total(reps[0].accuracy),
        "id_rel_err": statistics.median(rep.id_rel_err for rep in reps),
    }
    details = {
        "reps": len(reps),
        "unscaled_wall_s": total(reps[0].wall, raw),
        "unscaled_time_to_accuracy_s": total(reps[0].accuracy, raw),
        "op_samples_s": raw,
        "op_scaled_samples_s": samples,
    }
    return metrics, details


def traced_run(workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict, list]:
    """Alternate untraced and traced passes of repetition 0 while another
    pair fits in `seconds`, running at least one pair.  Per-layer metrics
    come from the first traced pass; every pass must reproduce the first
    untraced pass's outputs exactly."""
    tracer = Tracer()
    reference = None
    untraced, traced = [], []
    metrics = spans = None
    start = time.perf_counter()

    def untraced_pass():
        nonlocal reference
        session = Session(tally, reference=reference)
        rep = workload.run_rep(session, seed, 0, first=reference is None)
        untraced.append(session.total(rep.wall))
        if reference is None:
            reference = session.outputs

    def traced_pass():
        nonlocal metrics, spans
        tracer.spans.clear()
        session = Session(tally, tracer, reference)
        with patched(tracer):
            rep = workload.run_rep(session, seed, 0, first=False)
        traced.append(session.total(rep.wall))
        if metrics is None:
            metrics = layer_metrics(tracer.spans)
            spans = list(tracer.spans)

    while True:
        begun = time.perf_counter()
        passes = (untraced_pass, traced_pass) if len(traced) % 2 == 0 else (traced_pass, untraced_pass)
        for run_pass in passes:
            run_pass()
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            break
    overheads = [t - u for t, u in zip(traced, untraced)]
    metrics["trace.overhead_s"] = statistics.median(overheads)
    details = {"untraced_wall_s": untraced, "traced_wall_s": traced, "overhead_s": overheads}
    return metrics, details, spans


def write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps([span.name, span.start, span.end, span.parent]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--result", help="file to write the result JSON to")
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.workdir)
    workload.setup()
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    workload.validator = _validator()
    tally = Tally()
    details = {"ready": ready}
    if args.trace:
        metrics, extra, spans = traced_run(workload, args.seed, args.seconds, tally)
        if args.spans:
            write_spans(args.spans, spans)
    else:
        metrics, extra = timed_run(workload, args.seed, args.seconds, tally)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details.update(extra)
    details["fail_ratio"] = tally.fail_ratio
    details["failures"] = tally.reasons[:50]
    details["machine"] = machine_note(args.seed)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "details": details,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
