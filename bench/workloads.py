"""The benchmark's workloads: their inputs, operations and output checks.

Each workload turns (seed, repetition) into a fixed list of operations,
runs them through a Session that times them, and checks every output.
fracmin is reached only through its public names, looked up at call time
so that tracing wrappers installed in the package namespace are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

# E_p(Id) = 2^p * pi * B((p-1)/2, 1/2), evaluated with mpmath at 40 digits
# and rounded to binary64: references independent of fracmin's own paths.
IDENTITY_ENERGY = {
    1.05: 269.0989881566063360361797,
    1.13921: 108.6947419700303518499761,
    1.2: 81.72420616812772084468607,
    1.5: 46.59797908333485275239565,
    1.99: 39.48005308115219685124346,
    2.0: 39.47841760435743447533796,
}
# root of B((p-1)/2, 1/2) = 5*pi, mpmath at 40 digits
CRITICAL_P = 1.139210840326630521723082680637902687034
CRITICAL_P_TOL = 1e-10

# Rotating the target circle changes each phase difference by rounding
# only; on the kernel maps the relative energy change measured below 4e-16,
# so 1e-12 leaves room for any reordering without admitting an asymmetry.
ROTATION = 0.7
ROTATION_REL_TOL = 1e-12
# The gradient sums to zero by the same invariance; measured sums stayed
# below 1.1e-14 of the energy, while a wrong gradient misses by O(energy).
GRADIENT_SUM_REL_TOL = 1e-10


# The host is shared: identical work ran up to 2x slower for seconds at a
# time, and run medians drifted by up to 40% between runs minutes apart.
# Each timed operation is therefore followed by a fixed probe that uses no
# fracmin code, and its time is rescaled by REFERENCE_PROBE_S / (mean of the
# probes just before and after it).  Program changes cannot move the probe,
# so they still show in full; host slowdowns cancel to first order.
# REFERENCE_PROBE_S is the probe's median time on a 2-core Xeon KVM guest.
REFERENCE_PROBE_S = 0.018
_PROBE_X = np.linspace(0.1, 3.0, 4096)


def speed_probe() -> float:
    """Seconds taken by a fixed mix of numpy array work and Python loops."""
    start = time.perf_counter()
    total = 0.0
    for shift in range(200):
        total += float(np.sum(np.abs(np.sin(_PROBE_X + shift)) ** 1.5))
    count = 0
    for i in range(20000):
        count += i * i % 7
    return time.perf_counter() - start


def derive_seed(seed: int, *keys: int) -> int:
    """A program-facing seed drawn from the harness seed and fixed keys."""
    sequence = np.random.SeedSequence([seed % 2**63, *keys])
    return int(sequence.generate_state(1)[0] % 2**31)


def fracmin():
    return sys.modules["fracmin"]


class Tally:
    """Counts attempted operations and those that failed at least one check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._current_failed = False

    def start(self) -> None:
        self.attempted += 1
        self._current_failed = False

    def check(self, ok, reason: str) -> bool:
        """Record one check of the current operation."""
        if not ok:
            self.reasons.append(reason)
            if not self._current_failed:
                self.failed += 1
                self._current_failed = True
        return bool(ok)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Session:
    """Runs the operations of one pass: times each, switches tracing on
    around it, and compares its output with that of a reference pass which
    ran the same operation on the same inputs.

    `times` holds wall seconds; with probing on, `scaled` holds the same
    times rescaled to the probe's reference speed."""

    def __init__(self, tally: Tally, tracer=None, reference: dict | None = None, probe: bool = False):
        self.tally = tally
        self.tracer = tracer
        self.reference = reference
        self.outputs: dict = {}
        self.times: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self._probe = speed_probe() if probe else None

    def op(self, label: str, call, key=lambda out: out, inputs=None):
        """Time call(); return its output, or None when it raised.

        key(output) is what must repeat exactly; `inputs` names what the
        operation was given, when that varies between passes."""
        self.tally.start()
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an operation that raises is a failed one
            self._finish(label, start)
            self.tally.check(False, f"{label}: raised {exc!r}")
            return None
        self._finish(label, start)
        fingerprint = key(out)
        self.outputs[label, inputs] = fingerprint
        if self.reference is not None and (label, inputs) in self.reference:
            self.tally.check(
                self.reference[label, inputs] == fingerprint, f"{label}: output differs from the reference pass"
            )
        return out

    def _finish(self, label, start):
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.active = False
        self.times.setdefault(label, []).append(elapsed)
        if self._probe is not None:
            after = speed_probe()
            scale = REFERENCE_PROBE_S / (0.5 * (self._probe + after))
            self._probe = after
            self.scaled.setdefault(label, []).append(elapsed * scale)

    def total(self, labels) -> float:
        """Time spent in all runs of the given operations."""
        return sum(sum(self.times[label]) for label in labels)


@dataclass
class Rep:
    """What one repetition reports: the operations that make up wall_s and
    time_to_accuracy_s, and the workload's identity-energy error."""

    wall: list[str]
    accuracy: list[str]
    id_rel_err: float


def _read_bytes(path) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _run_cli(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = sys.modules["fracmin.cli"].run(argv)
    return status, stdout.getvalue()


class Workload:
    name = ""
    warmup_sizes: tuple[int, ...] = ()

    def __init__(self, workdir: str, validator=None):
        self.workdir = workdir
        self.validator = validator

    def setup(self) -> None:
        """One energy call at each grid size the workload uses, which builds
        fracmin's cached offset tables."""
        f = fracmin()
        params = f.EnergyParams(1.5)
        for n in self.warmup_sizes:
            f.energy(f.identity_map(n), params)

    def cli(self, session: Session, label: str, argv: list[str], reads: str | None = None):
        """Run one CLI operation; return its parsed report when it passes.

        `reads` names a file the operation reads, whose content then counts
        among its inputs."""
        inputs = (tuple(argv), _read_bytes(reads) if reads else None)
        out = session.op(label, lambda: _run_cli(argv), inputs=inputs)
        if out is None:
            return None
        status, text = out
        check = session.tally.check
        try:
            report = json.loads(text)
        except ValueError:
            check(False, f"{label}: report is not JSON")
            return None
        errors = sorted(error.message for error in self.validator.iter_errors(report))
        check(not errors, f"{label}: report fails the schema: {errors[:3]}")
        check(status == 0, f"{label}: exit status {status}")
        failed = [c.get("name") for c in report.get("checks", []) if c.get("passed") is not True]
        check(not failed, f"{label}: failed checks {failed}")
        return report if not errors else None

    def run_rep(self, session: Session, seed: int, rep: int, first: bool) -> Rep:
        """Run the operation list once, checking every output."""
        raise NotImplementedError


class Kernel(Workload):
    """Few large energy/gradient calls on three map families."""

    name = "kernel"
    sizes = (256, 512, 1024, 2048, 4096)
    exponents = (1.13921, 1.5, 2.0)
    ladder_exponents = (1.5, 2.0)
    ladder_start = 64
    ladder_cap = 4096
    ladder_target = 2e-2
    ladder_repeats = 5
    warmup_sizes = (64, 128, 256, 512, 1024, 2048, 4096)

    def run_rep(self, session, seed, rep, first):
        f = fracmin()
        check = session.tally.check
        perturb_seed = derive_seed(seed)
        wall_labels = []
        id_rel_err = 0.0
        for n in self.sizes:
            maps = {
                "identity": f.identity_map(n),
                "moebius": f.moebius_map(n, (0.4, 0.0)),
                "perturbed": f.perturb(f.power_map(n, 2), 0.3, perturb_seed),
            }
            for p in self.exponents:
                params = f.EnergyParams(p)
                for kind, u in maps.items():
                    label = f"energy+gradient n={n} p={p:g} {kind}"
                    wall_labels.append(label)
                    out = session.op(
                        label,
                        lambda: (f.energy(u, params), f.energy_gradient(u, params)),
                        key=lambda out: (out[0], out[1].tobytes()),
                    )
                    if out is None:
                        continue
                    value, grad = out
                    check(math.isfinite(value) and value >= 0.0, f"{label}: energy {value!r}")
                    check(grad.shape == (n,) and np.all(np.isfinite(grad)), f"{label}: gradient not finite")
                    grad_sum = abs(float(np.sum(grad)))
                    check(grad_sum <= GRADIENT_SUM_REL_TOL * value, f"{label}: gradient sum {grad_sum:.3e}")
                    if first:
                        turned = f.energy(f.rotated(u, ROTATION), params)
                        gap = abs(turned - value)
                        check(gap <= ROTATION_REL_TOL * value, f"{label}: rotation changes energy by {gap:.3e}")
                    if kind == "identity" and n == self.sizes[-1]:
                        reference = IDENTITY_ENERGY[p]
                        id_rel_err = max(id_rel_err, abs(reference - value) / reference)
        ladder = set()
        for _ in range(self.ladder_repeats):
            ladder.update(self._ladder(session))
        return Rep(wall_labels, sorted(ladder), id_rel_err)

    def _ladder(self, session) -> list[str]:
        """Double n from 64 until the identity energy is within 2e-2 of the
        closed form, for each ladder exponent; return the rungs run."""
        f = fracmin()
        rungs = []
        for p in self.ladder_exponents:
            params = f.EnergyParams(p)
            reference = IDENTITY_ENERGY[p]
            n = self.ladder_start
            while True:
                label = f"ladder p={p:g} n={n}"
                value = session.op(label, lambda: f.energy(f.identity_map(n), params))
                rungs.append(label)
                if value is None:
                    break
                error = (reference - value) / reference
                if error <= self.ladder_target:
                    break
                if n >= self.ladder_cap:
                    session.tally.check(False, f"{label}: error {error:.3e} above target at the cap")
                    break
                n *= 2
        return rungs


class Descent(Workload):
    """Thousands of small energy/gradient calls inside certified descent."""

    name = "descent"
    n = 128
    runs = ((2.0, 1), (1.2, 1), (1.5, 2))
    warmup_sizes = (64, 128)

    def run_rep(self, session, seed, rep, first):
        check = session.tally.check
        # restarts end after very different iteration counts, so every
        # repetition draws a new seed and the medians average over them
        minimize_seed = str(derive_seed(seed, 0, rep))
        map_path = f"{self.workdir}/final.csv"
        trace_path = f"{self.workdir}/trace.csv"
        degree_one = []
        id_rel_err = 0.0
        final = None
        for p, d in self.runs:
            label = f"minimize p={p:g} d={d}"
            argv = ["minimize", "--p", f"{p:g}", "--degree", str(d), "--n", str(self.n), "--seed", minimize_seed]
            last = (p, d) == self.runs[-1]
            if last:
                argv += ["--map-out", map_path, "--trace-out", trace_path]
            report = self.cli(session, label, argv)
            if d == 1:
                degree_one.append(label)
            if report is None:
                continue
            results = report["results"]
            if d == 1:
                reference = IDENTITY_ENERGY[p]
                id_rel_err = max(id_rel_err, abs(reference - results["final_energy"]) / reference)
            if last:
                final = results["final_energy"]
                energies = _trace_energies(trace_path)
                rising = [i for i in range(1, len(energies)) if energies[i] > energies[i - 1]]
                check(energies and not rising, f"{label}: energy trace increases at steps {rising[:5]}")
        p, d = self.runs[-1]
        argv = ["energy", "--map", map_path, "--p", f"{p:g}"]
        report = self.cli(session, "energy of written map", argv, reads=map_path)
        if report is not None:
            results = report["results"]
            check(results["degree"] == d and results["n"] == self.n, f"energy of written map: {results}")
            if final is not None:
                gap = abs(results["energy"] - final)
                check(gap <= 1e-12 * abs(final), f"energy of written map differs from minimize by {gap:.3e}")
        report = self.cli(session, "degree of written map", ["degree", "--map", map_path], reads=map_path)
        if report is not None:
            check(report["results"]["degree"] == d, f"degree of written map: {report['results']}")
        gradient_seed = str(derive_seed(seed, 1))
        self.cli(session, "gradient-check", ["gradient-check", "--n", "64", "--p", "1.5", "--seed", gradient_seed])
        return Rep(list(session.times), degree_one, id_rel_err)


def _trace_energies(path) -> list[float]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [float(line.split(",")[1]) for line in lines[1:] if line]


class Certify(Workload):
    """Closed forms, quadrature and inequality certificates; no energy calls."""

    name = "certify"
    id_exponents = (1.05, 1.13921, 1.5, 1.99, 2.0)
    derivative_exponents = (1.05, 1.13921, 1.5, 1.99)
    suites = 3
    # critical-p takes a few milliseconds, so time_to_accuracy_s times
    # extra runs of it outside the operation list
    accuracy_repeats = 5

    def run_rep(self, session, seed, rep, first):
        check = session.tally.check
        for label in ["critical-p"] + ["critical-p accuracy"] * self.accuracy_repeats:
            report = self.cli(session, label, ["critical-p", "--tol", "1e-12"])
            if report is not None:
                gap = abs(report["results"]["p_prime"] - CRITICAL_P)
                check(gap <= CRITICAL_P_TOL, f"{label}: p_prime is {gap:.3e} from the 40-digit root")
        id_rel_err = 0.0
        for p in self.id_exponents:
            report = self.cli(session, f"id-energy p={p:g}", ["id-energy", "--p", f"{p:g}"])
            if report is not None:
                reference = IDENTITY_ENERGY[p]
                for key in ("energy", "quadrature_path"):
                    id_rel_err = max(id_rel_err, abs(report["results"][key] - reference) / reference)
        for p in self.derivative_exponents:
            self.cli(session, f"id-energy-derivative p={p:g}", ["id-energy-derivative", "--p", f"{p:g}"])
        self.cli(session, "monotonicity-scan", ["monotonicity-scan", "--grid-size", "1000"])
        for k in range(self.suites):
            suite_seed = str(derive_seed(seed, k))
            self.cli(session, f"inequality-suite #{k}", ["inequality-suite", "--count", "1000", "--seed", suite_seed])
        wall = [label for label in session.times if label != "critical-p accuracy"]
        return Rep(wall, ["critical-p accuracy"], id_rel_err)


WORKLOADS = {w.name: w for w in (Kernel, Descent, Certify)}
