"""fracmin benchmark entry point.

Run from the root of a checkout:

    python3 bench/run.py --workload kernel --seed 1 --seconds 20 --trace 0

It times set-up in several fresh worker processes, runs the workload in
one more, and prints one JSON line last: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).  The
full record, with per-repetition numbers and a machine note, goes to
bench/out/<workload>-trace<0|1>.json; a traced run also writes its spans
to bench/out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("kernel", "descent", "certify")
# set-up is timed in this many fresh processes, the workload process included
SETUP_SAMPLES = 7
# every run must end within this many seconds
TIME_LIMIT = 175.0
# fixed at 1 in every worker's environment
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "time_to_accuracy_s": "s",
    "id_rel_err": "ratio",
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def worker_env(src: str) -> dict:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv, env, deadline) -> tuple[float, subprocess.CompletedProcess]:
    """Run one worker to completion; return its start time and outcome."""
    timeout = max(1.0, deadline - time.perf_counter())
    started = time.perf_counter()
    process = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    finally:
        if process.poll() is None:  # timed out or interrupted: stop it and wait
            process.kill()
            process.communicate()
    return started, subprocess.CompletedProcess(argv, process.returncode, stdout, stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fracmin benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT

    if args.workload not in WORKLOAD_NAMES:
        return fail(f"unknown workload {args.workload!r}; expected one of {WORKLOAD_NAMES}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fracmin", "__init__.py")):
        return fail(f"no fracmin sources under {src}; run from the root of a checkout")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    work_root = os.path.join(HERE, "work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    env = worker_env(src)
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload, "--workdir", workdir]
    result_path = os.path.join(workdir, "result.json")
    try:
        setup = []
        for _ in range(SETUP_SAMPLES - 1):
            started, done = run_worker(base + ["--setup-only"], env, deadline)
            if done.returncode != 0:
                return fail(f"set-up worker failed:\n{done.stderr}")
            setup.append(json.loads(done.stdout.splitlines()[-1])["ready"] - started)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}.jsonl")
        command = base + [
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--result", result_path,
            "--spans", spans_path,
        ]  # fmt: skip
        started, done = run_worker(command, env, deadline)
        if done.returncode != 0:
            return fail(f"workload worker failed:\n{done.stderr}")
        with open(result_path) as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        return fail(f"a worker exceeded the {TIME_LIMIT:.0f} s limit")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = result["details"]
    setup.append(details["ready"] - started)
    details["setup_s"] = setup
    values = result["metrics"]
    if args.trace:
        sys.path.insert(0, HERE)
        from tracing import metric_units

        units = metric_units()
    else:
        values["setup_s"] = statistics.median(setup)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    record.update(result)
    record["metrics"] = metrics
    with open(os.path.join(out_dir, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for reason in details["failures"]:
        print(f"FAILED {reason}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} fail_ratio={details['fail_ratio']:.6g}")
    line = {key: result[key] for key in ("correct", "attempted", "failed")}
    line["metrics"] = metrics
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
