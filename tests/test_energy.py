"""Energy kernel against brute-force sums, finite differences, and closed forms."""

import hashlib
import importlib
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmin import (
    AdmissibilityError,
    DomainError,
    EnergyParams,
    GridMap,
    beta,
    degree_lower_bound,
    energy,
    energy_and_gradient,
    energy_gradient,
    identity_energy_closed_form,
    identity_energy_derivative,
    identity_energy_quadrature,
    identity_map,
    is_admissible,
    moebius_energy_closed_form,
    moebius_map,
    pairwise_sum,
    perturb,
    power_map,
    rotated,
)

# the package binds the name fracmin.energy to the function
energy_module = importlib.import_module("fracmin.energy")

FOUR_PI_SQ = 4.0 * math.pi * math.pi

# frozen from the Beta closed form 2^p pi B((p-1)/2, 1/2), cross-checked
# against an independent Gamma implementation
IDENTITY_ENERGY_P12 = 81.72420616812771
IDENTITY_ENERGY_P15 = 46.59797908333485


def brute_force(phases, p):
    """Plain double-loop energy and gradient, no vectorization or pair
    folding, each with the tolerance a kernel evaluation must meet.

    The tolerance of a sum is 1e-12 of the magnitudes of its terms, plus
    the product form's cancellation: each chord |u_i - u_j| and sine it
    forms from cos/sin values carries an absolute error of a few eps, so
    every term is allowed 8 eps times its derivative in the chord.  That
    allowance is negligible unless two targets nearly coincide.
    """
    n = len(phases)
    h = 2.0 * math.pi / n
    eps = np.finfo(float).eps
    total = total_tol = 0.0
    grad = np.zeros(n)
    grad_tol = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            delta = phases[i] - phases[j]
            chord_u = 2.0 * abs(math.sin(0.5 * delta))
            chord_x = 2.0 * abs(math.sin(math.pi * (i - j) / n))
            total += chord_u**p / chord_x**2
            if chord_u == 0.0:
                continue
            total_tol += (1e-12 * chord_u + 8.0 * eps * p) * chord_u ** (p - 1.0) / chord_x**2
            term = chord_u ** (p - 2.0) * math.sin(delta) / chord_x**2
            grad[i] += term
            grad_tol[i] += 1e-12 * abs(term) + 8.0 * eps * (1.0 + abs(p - 2.0)) * chord_u ** (p - 2.0) / chord_x**2
    return total * h * h, total_tol * h * h, 2.0 * h * h * p * grad, 2.0 * h * h * p * grad_tol


def assert_matches_brute_force(phases, p):
    u = GridMap(phases)
    params = EnergyParams(p)
    value, value_tol, grad, grad_tol = brute_force(phases, p)
    assert abs(energy(u, params) - value) <= value_tol
    assert np.all(np.abs(energy_gradient(u, params) - grad) <= grad_tol)


def gradient_term_magnitudes(u, p):
    """Per node, the summed magnitudes of its gradient terms: a gradient
    summed in another order agrees relative to these, not to its value."""
    n = u.n
    delta = u.phases[:, None] - u.phases[None, :]
    chord_u = 2.0 * np.abs(np.sin(0.5 * delta))
    chord_x = 2.0 * np.abs(np.sin(math.pi * np.subtract.outer(np.arange(n), np.arange(n)) / n))
    np.fill_diagonal(chord_x, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(chord_u > 0.0, chord_u ** (p - 2.0) * np.abs(np.sin(delta)), 0.0) / chord_x**2
    h = 2.0 * math.pi / n
    return 2.0 * h * h * p * terms.sum(axis=1)


def central_difference_gradient(u, params, step=1e-6):
    fd = np.empty(u.n)
    for i in range(u.n):
        bump = np.zeros(u.n)
        bump[i] = step
        fd[i] = (
            energy(GridMap(u.phases + bump), params) - energy(GridMap(u.phases - bump), params)
        ) / (2.0 * step)
    return fd


def random_admissible_map(n, d, amplitude, seed):
    u = perturb(power_map(n, d), amplitude, seed)
    from fracmin import degree

    assert degree(u) == d
    return u


class TestEnergyParams:
    @pytest.mark.parametrize("bad", [1.0, 0.5, 2.5, 3.0, 4.0, 5.0, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            EnergyParams(bad)


class TestPairwiseSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(0)
        for size in (1, 2, 3, 7, 64, 1000):
            values = rng.uniform(-1.0, 1.0, size)
            assert pairwise_sum(values) == pytest.approx(math.fsum(values), rel=1e-14, abs=1e-15)

    def test_empty(self):
        assert pairwise_sum([]) == 0.0

    def test_fixed_tree_order(self):
        # adjacent pairs add level by level and an odd last element moves up
        # unchanged; the kernel's per-offset sums fold columns the same way
        def tree(xs):
            while len(xs) > 1:
                xs = [xs[i] + xs[i + 1] for i in range(0, len(xs) - 1, 2)] + xs[len(xs) - len(xs) % 2 :]
            return xs[0]

        rng = np.random.default_rng(1)
        for size in (1, 2, 3, 5, 7, 12, 33, 100, 1001):
            values = rng.standard_normal(size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
            assert pairwise_sum(values) == tree(list(values))
            columns = np.stack([values, values[::-1]], axis=1)
            assert list(energy_module._pairwise_fold(columns)) == [tree(list(values)), tree(list(values[::-1]))]


class TestEnergy:
    @pytest.mark.parametrize("n", [8, 9, 15, 16, 17, 33, 127, 128])
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
    def test_against_brute_force(self, n, p):
        rng = np.random.default_rng(n * 100 + int(10 * p))
        phases = 2.0 * math.pi * np.arange(n) / n + rng.uniform(-0.3, 0.3, n)
        assert_matches_brute_force(phases, p)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.integers(8, 48),
        d=st.integers(-3, 3),
        jitter=st.floats(0.0, 1.5),
        shift=st.floats(-10.0, 10.0),
        p=st.floats(1.01, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fuzzed_maps_against_brute_force(self, n, d, jitter, shift, p, seed):
        rng = np.random.default_rng(seed)
        phases = d * 2.0 * math.pi * np.arange(n) / n + shift + rng.uniform(-jitter, jitter, n)
        if is_admissible(GridMap(phases)):
            assert_matches_brute_force(phases, p)

    def test_constant_map_zero(self):
        u = GridMap(np.full(32, 0.7))
        assert energy(u, EnergyParams(1.5)) == 0.0

    @pytest.mark.parametrize("n", [64, 128, 256, 1000, 1024, 4096])
    def test_identity_p2_exact_value(self, n):
        # at p = 2 every pair contributes its own chord ratio of one
        value = energy(identity_map(n), EnergyParams(2.0))
        assert value == pytest.approx(FOUR_PI_SQ * (1.0 - 1.0 / n), rel=1e-15)

    @pytest.mark.parametrize("n", [95, 96])
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_returns_float(self, n, p):
        assert type(energy(perturb(identity_map(n), 0.3, 9), EnergyParams(p))) is float

    def test_rotation_invariance_exact_case(self):
        # phases and shift all exactly representable: additions are exact,
        # so the energies agree bit for bit
        base = GridMap(np.arange(16) * 0.25)
        shifted = rotated(base, 0.5)
        for p in (1.3, 2.0):
            assert energy(base, EnergyParams(p)) == energy(shifted, EnergyParams(p))

    def test_rotation_invariance_generic(self):
        u = random_admissible_map(128, 1, 0.3, 5)
        v = rotated(u, 0.987654321)
        for p in (1.2, 1.7, 2.0):
            assert energy(u, EnergyParams(p)) == pytest.approx(
                energy(v, EnergyParams(p)), rel=1e-12
            )

    def test_reflection_invariance(self):
        u = random_admissible_map(128, 2, 0.3, 6)
        v = GridMap(-u.phases)
        from fracmin import degree

        assert degree(v) == -2
        for p in (1.4, 2.0):
            assert energy(u, EnergyParams(p)) == energy(v, EnergyParams(p))

    def test_inadmissible_rejected(self):
        phases = np.zeros(8)
        phases[4:] = math.pi
        with pytest.raises(DomainError):
            energy(GridMap(phases), EnergyParams(1.5))

    def test_deterministic(self):
        u = random_admissible_map(256, 1, 0.4, 7)
        values = {energy(u, EnergyParams(1.5)) for _ in range(5)}
        assert len(values) == 1


class TestEnergyConvergence:
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
    def test_monotone_convergence_to_closed_form(self, p):
        closed = identity_energy_closed_form(p)
        errors = []
        for n in (64, 128, 256, 512, 1024):
            errors.append(abs(energy(identity_map(n), EnergyParams(p)) - closed))
        assert all(coarse > fine for coarse, fine in zip(errors, errors[1:]))

    def test_discrete_below_closed_form(self):
        for p in (1.2, 1.5, 2.0):
            disc = energy(identity_map(512), EnergyParams(p))
            assert disc < identity_energy_closed_form(p)


class TestGradient:
    def test_constant_map_zero(self):
        u = GridMap(np.full(32, -1.1))
        np.testing.assert_array_equal(energy_gradient(u, EnergyParams(1.5)), np.zeros(32))

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.9, 2.0])
    def test_identity_gradient_vanishes_by_symmetry(self, p):
        g = energy_gradient(identity_map(64), EnergyParams(p))
        assert np.max(np.abs(g)) <= 1e-9

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.9, 2.0])
    def test_matches_central_differences(self, p):
        params = EnergyParams(p)
        for seed in range(20):
            u = random_admissible_map(64, 1, 0.35, seed)
            analytic = energy_gradient(u, params)
            fd = central_difference_gradient(u, params)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)

    def test_descent_direction(self):
        u = random_admissible_map(64, 1, 0.3, 3)
        params = EnergyParams(1.5)
        g = energy_gradient(u, params)
        before = energy(u, params)
        after = energy(GridMap(u.phases - 1e-4 * g), params)
        assert after < before


class TestKernel:
    """The tiled product-form kernel behind energy and energy_gradient."""

    @pytest.mark.parametrize("n", [33, 128, 1000])
    @pytest.mark.parametrize("columns", [1, 3])
    def test_tile_width(self, monkeypatch, n, columns):
        # per-offset sums fold in a fixed order whatever the tiling, so the
        # energy keeps its bits; the gradient only reorders its row sums
        maps = [random_admissible_map(n, 1, 0.3, 8), random_admissible_map(n, 2, 0.3, 9), moebius_map(n, (0.4, 0.1))]
        cases = [(u, EnergyParams(p)) for u in maps for p in (1.2, 1.7)]
        default = [(energy(u, params), energy_gradient(u, params)) for u, params in cases]
        monkeypatch.setattr(energy_module, "_TILE_ELEMENTS", columns * n)
        for (u, params), (value, grad) in zip(cases, default):
            assert energy(u, params) == value
            scale = gradient_term_magnitudes(u, params.p)
            assert np.all(np.abs(energy_gradient(u, params) - grad) <= 1e-13 * scale)

    def test_nearest_neighbour_terms_against_mpmath(self):
        # each chord and sine formed from cos/sin values is off by at most
        # about eps in absolute terms; relative to a chord of length about
        # 2 pi k / n that is eps n / (2 pi k), so 7e-14 at n = 4096, k = 1
        n = 4096
        eps = np.finfo(float).eps
        smooth = [identity_map(n), moebius_map(n, (0.4, 0.0)), perturb(identity_map(n), 0.05, 4)]
        # a degree-2 map whose perturbation nearly stops it: neighbour
        # chords down to 5e-7, where only the absolute bound holds
        slowed = perturb(power_map(n, 2), 0.3, 5)
        for u in smooth + [slowed]:
            c, s = np.cos(u.phases), np.sin(u.phases)
            pair = np.empty((2, 1, n))
            sine = np.empty((1, n))
            energy_module._product_terms(np.array([np.concatenate([c, c]), np.concatenate([s, s])]), 1, pair, sine)
            chord_sq = pair[0]
            with mpmath.workdps(40):
                for i in np.linspace(0, n - 1, 200).astype(int):
                    delta = mpmath.mpf(u.phases[i]) - mpmath.mpf(u.phases[(i + 1) % n])
                    exact_chord = 2 * abs(mpmath.sin(delta / 2))
                    exact_sine = mpmath.sin(delta)
                    chord_error = abs(mpmath.sqrt(chord_sq[0, i]) - exact_chord)
                    sine_error = abs(sine[0, i] - exact_sine)
                    assert chord_error <= eps and sine_error <= eps
                    if u is not slowed:
                        assert chord_error <= 1e-12 * exact_chord
                        assert sine_error <= 1e-12 * abs(exact_sine)

    @pytest.mark.parametrize("n", [512, 1000, 1024, 4097])
    def test_bytes_do_not_depend_on_the_helper(self, monkeypatch, n):
        # 0 helpers (one usable CPU) and 1 helper (two) give the same bytes:
        # energies fold per-offset slots, and gradients add tile sums in order
        tile_threads = set()
        helped = False
        product_terms = energy_module._product_terms

        def recording(*args):
            tile_threads.add(threading.current_thread().name)
            return product_terms(*args)

        monkeypatch.setattr(energy_module, "_product_terms", recording)
        maps = [random_admissible_map(n, 1, 0.3, 3), moebius_map(n, (0.4, 0.1))] + fused_cases(n)[1:]
        for u in maps:
            for p in (1.05, 1.13921, 1.5):
                params = EnergyParams(p)
                monkeypatch.setattr(energy_module, "_usable_cpus", lambda: 1)
                tile_threads.clear()
                value, grad = energy_and_gradient(u, params)
                assert tile_threads == {threading.current_thread().name}
                monkeypatch.setattr(energy_module, "_usable_cpus", lambda: 2)
                shared_value, shared_grad = energy_and_gradient(u, params)
                assert (shared_value, shared_grad.tobytes()) == (value, grad.tobytes())
                assert energy(u, params) == value
                assert energy_gradient(u, params).tobytes() == grad.tobytes()
                helped = helped or "fracmin-tiles" in tile_threads
        # the helper ran tiles: the comparisons are not serial against serial
        assert helped

    def test_concurrent_callers(self, monkeypatch):
        # four callers share the one helper; each gets the serial bytes
        u = random_admissible_map(2048, 2, 0.3, 6)
        params = EnergyParams(1.3)
        with monkeypatch.context() as serial:
            serial.setattr(energy_module, "_usable_cpus", lambda: 1)
            expected = energy_gradient(u, params).tobytes()
        monkeypatch.setattr(energy_module, "_usable_cpus", lambda: 2)
        start = threading.Barrier(4)
        results = [None] * 4

        def call(slot):
            start.wait()
            results[slot] = energy_gradient(u, params).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(slot,)) for slot in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [expected] * 4

    def test_caller_does_not_wait_for_the_helper(self, monkeypatch):
        # a helper stalled mid-tile, as when the host takes its CPU away,
        # delays no call: the caller computes that tile itself
        entered, release = threading.Event(), threading.Event()
        product_terms = energy_module._product_terms

        def stalling(*args):
            if threading.current_thread().name == "fracmin-tiles":
                entered.set()
                release.wait(timeout=120.0)
            return product_terms(*args)

        u = random_admissible_map(4096, 1, 0.3, 13)
        params = EnergyParams(1.3)
        monkeypatch.setattr(energy_module, "_usable_cpus", lambda: 1)
        value, grad = energy_and_gradient(u, params)
        monkeypatch.setattr(energy_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(energy_module, "_product_terms", stalling)
        results = []
        caller = threading.Thread(target=lambda: results.append(energy_and_gradient(u, params)))
        try:
            caller.start()
            caller.join(timeout=60.0)
            assert not caller.is_alive()
        finally:
            release.set()
        assert entered.is_set()
        assert results[0][0] == value and results[0][1].tobytes() == grad.tobytes()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity calls")
    def test_one_cpu_gives_the_same_bytes(self):
        # pinned to one CPU the kernel starts no helper and runs every tile
        # itself; the gradient bytes are those of an unpinned process
        script = (
            "import hashlib, os, sys, threading\n"
            "if sys.argv[1] == 'pinned':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from fracmin import EnergyParams, energy_gradient, perturb, power_map\n"
            "grad = energy_gradient(perturb(power_map(2048, 1), 0.3, 11), EnergyParams(1.13921))\n"
            "print(hashlib.sha256(grad.tobytes()).hexdigest(), threading.active_count())\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(energy_module.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        outputs = {}
        for mode in ("pinned", "free"):
            done = subprocess.run(
                [sys.executable, "-c", script, mode], env=env, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
            digest, threads = done.stdout.split()
            outputs[mode] = digest, int(threads)
        grad = energy_gradient(perturb(power_map(2048, 1), 0.3, 11), EnergyParams(1.13921))
        assert outputs["pinned"] == (hashlib.sha256(grad.tobytes()).hexdigest(), 1)
        assert outputs["free"][0] == outputs["pinned"][0]
        assert outputs["free"][1] == (2 if len(os.sched_getaffinity(0)) >= 2 else 1)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_computes(self, monkeypatch):
        # the helper thread does not survive fork: the child starts its own
        # and gets the parent's bytes
        monkeypatch.setattr(energy_module, "_usable_cpus", lambda: 2)
        u = random_admissible_map(4096, 1, 0.3, 12)
        params = EnergyParams(1.5)
        expected = energy_gradient(u, params).tobytes()
        assert "fracmin-tiles" in {thread.name for thread in threading.enumerate()}
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                same = energy_gradient(u, params).tobytes() == expected
                helped = "fracmin-tiles" in {thread.name for thread in threading.enumerate()}
                code = 0 if same and helped else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 120.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish within 120 s")
            time.sleep(0.05)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    def test_memory_linear_in_n(self):
        # an n x n/2 table of float64 alone would take 256 MiB at n = 8192
        u = random_admissible_map(8192, 1, 0.3, 2)
        tracemalloc.start()
        try:
            energy_gradient(u, EnergyParams(1.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


def fused_cases(n):
    """A perturbed degree-2 map where admissible, a Moebius map, and a
    degree-1 map with a block of coincident targets."""
    maps = [moebius_map(n, (0.4, 0.1))]
    perturbed = perturb(power_map(n, 2), 0.3, n)
    if is_admissible(perturbed):
        maps.append(perturbed)
    phases = identity_map(n).phases.copy()
    phases[2:4] = phases[1]
    maps.append(GridMap(phases))
    return maps


class TestEnergyAndGradient:
    """One kernel pass for both outputs, bit for bit the separate calls."""

    @pytest.mark.parametrize("n", [8, 9, 17, 128, 129, 1024])
    @pytest.mark.parametrize("columns", [None, 1, 3])
    def test_matches_separate_calls(self, monkeypatch, n, columns):
        if columns is not None:
            monkeypatch.setattr(energy_module, "_TILE_ELEMENTS", columns * n)
        for u in fused_cases(n):
            for p in (1.05, 1.13921, 1.5, 2.0):
                params = EnergyParams(p)
                value, grad = energy_and_gradient(u, params)
                assert type(value) is float
                assert value == energy(u, params)
                assert grad.tobytes() == energy_gradient(u, params).tobytes()

    def test_one_kernel_pass(self, monkeypatch):
        flags = []
        kernel = energy_module._kernel

        def counting(u, params, value, gradient):
            flags.append((value, gradient))
            return kernel(u, params, value, gradient)

        monkeypatch.setattr(energy_module, "_kernel", counting)
        u = perturb(identity_map(64), 0.3, 1)
        for p in (1.5, 2.0):
            energy_and_gradient(u, EnergyParams(p))
            energy(u, EnergyParams(p))
            energy_gradient(u, EnergyParams(p))
        assert flags == [(True, True), (True, False), (False, True)] * 2

    def test_rejects_inadmissible(self):
        # the gap of exactly pi between nodes 7 and 8 leaves the winding undefined
        phases = np.where(np.arange(16) < 8, 0.0, math.pi)
        with pytest.raises(AdmissibilityError):
            energy_and_gradient(GridMap(phases), EnergyParams(1.5))


def mpmath_energy_and_gradient_p2(phases, digits=30):
    """The p = 2 double sum and its gradient, pair by pair in mpmath."""
    n = len(phases)
    with mpmath.workdps(digits):
        phi = [mpmath.mpf(x) for x in phases]
        # 1 / c_k^2 for the node chord c_k = 2 sin(pi k / n)
        inverse_node_sq = [None] + [1 / (4 * mpmath.sin(mpmath.pi * k / n) ** 2) for k in range(1, n)]
        total = mpmath.mpf(0)
        grad = [mpmath.mpf(0)] * n
        for i in range(n):
            for j in range(i + 1, n):
                cos_half, sin_half = mpmath.cos_sin((phi[i] - phi[j]) / 2)
                weight = inverse_node_sq[j - i]
                total += 4 * sin_half * sin_half * weight
                term = 2 * sin_half * cos_half * weight
                grad[i] += term
                grad[j] -= term
        h = 2 * mpmath.pi / n
        return float(2 * h * h * total), np.array([float(4 * h * h * g) for g in grad])


def spectral_cases():
    """Identity, Moebius and perturbed degree-1 and degree-2 maps, odd and even n."""
    for n in (8, 9, 15, 16, 128, 255, 256, 1024, 4096):
        candidates = [
            identity_map(n),
            moebius_map(n, (0.4, 0.1)),
            perturb(identity_map(n), 0.3, n),
            perturb(power_map(n, 2), 0.3, n + 1),
        ]
        for u in candidates:
            if is_admissible(u):
                yield u


class TestSpectral:
    """The O(n log n) kernel behind energy and energy_gradient at p = 2."""

    def test_against_tiled_kernel(self):
        cases = list(spectral_cases())
        assert len(cases) >= 30
        for u in cases:
            tiled, tiled_grad = energy_module._tiled(u, 2.0, True, True)
            assert energy(u, EnergyParams(2.0)) == pytest.approx(tiled, rel=1e-14)
            assert np.max(np.abs(energy_gradient(u, EnergyParams(2.0)) - tiled_grad)) <= 1e-13

    def test_against_mpmath(self):
        u = perturb(power_map(256, 2), 0.3, 11)
        value, grad = mpmath_energy_and_gradient_p2(u.phases)
        assert energy(u, EnergyParams(2.0)) == pytest.approx(value, rel=1e-14)
        assert np.max(np.abs(energy_gradient(u, EnergyParams(2.0)) - grad)) <= 1e-13
        assert np.max(np.abs(grad)) >= 0.1  # the bound is not vacuous

    @pytest.mark.parametrize("n", [17, 31, 64, 1000])
    def test_constant_map_exactly_zero(self, n):
        # the FFT of a constant is not exactly zero at every n; the kernel
        # removes the mean first
        u = GridMap(np.full(n, 0.7))
        assert energy(u, EnergyParams(2.0)) == 0.0
        np.testing.assert_array_equal(energy_gradient(u, EnergyParams(2.0)), np.zeros(n))

    def test_memory_linear_in_n(self):
        # measured 64.0 MiB: three complex arrays of n entries (z, its
        # spectrum, the inverse transform) and two real ones
        u = perturb(identity_map(2**20), 0.3, 2)
        is_admissible(u)  # the map's cached gaps are not the kernel's memory
        tracemalloc.start()
        try:
            energy_gradient(u, EnergyParams(2.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 72 * 2**20


class TestMoebiusClosedForm:
    A_VALUES = (0.0, 0.3 + 0.1j, -0.5j, 0.7 + 0.2j, -0.85)

    def test_identity_at_center(self):
        for n in (8, 64, 1000):
            assert moebius_energy_closed_form(n, 0.0) == pytest.approx(FOUR_PI_SQ * (1.0 - 1.0 / n), rel=1e-15)

    @pytest.mark.parametrize("n", [8, 9, 64, 127, 512])
    def test_tiled_kernel_matches(self, n):
        for a in self.A_VALUES:
            u = moebius_map(n, a)
            if is_admissible(u):
                closed = moebius_energy_closed_form(n, a)
                tiled, _ = energy_module._tiled(u, 2.0, True, False)
                assert tiled == pytest.approx(closed, rel=1e-13)
                assert energy(u, EnergyParams(2.0)) == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize("n, a", [(1, 0.3), (64, 1.0), (64, 0.8 + 0.8j)])
    def test_domain(self, n, a):
        with pytest.raises(DomainError):
            moebius_energy_closed_form(n, a)


class TestClosedForms:
    def test_p2_is_four_pi_squared(self):
        assert identity_energy_closed_form(2.0) == pytest.approx(FOUR_PI_SQ, rel=1e-9)

    def test_frozen_values(self):
        assert identity_energy_closed_form(1.2) == pytest.approx(IDENTITY_ENERGY_P12, rel=1e-12)
        assert identity_energy_closed_form(1.5) == pytest.approx(IDENTITY_ENERGY_P15, rel=1e-12)

    def test_quadrature_path_agrees(self):
        for p in (1.1, 1.5, 1.9, 2.0):
            assert identity_energy_quadrature(p) == pytest.approx(
                identity_energy_closed_form(p), rel=1e-9
            )

    def test_strictly_decreasing(self):
        ps = np.linspace(1.01, 2.0, 100)
        values = [identity_energy_closed_form(float(p)) for p in ps]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [1.0, 2.1, 0.3])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            identity_energy_closed_form(bad)


class TestDerivative:
    @pytest.mark.parametrize("p", [1.3, 1.5, 1.7])
    def test_matches_finite_difference(self, p):
        step = 1e-6
        fd = (
            identity_energy_closed_form(p + step) - identity_energy_closed_form(p - step)
        ) / (2.0 * step)
        assert identity_energy_derivative(p) == pytest.approx(fd, rel=1e-6)

    def test_negative_on_interval(self):
        for p in np.linspace(1.01, 1.99, 50):
            assert identity_energy_derivative(float(p)) < 0.0

    def test_vanishes_toward_two(self):
        near = abs(identity_energy_derivative(1.999))
        nearer = abs(identity_energy_derivative(1.9999))
        assert nearer < near < abs(identity_energy_derivative(1.5))

    @pytest.mark.parametrize("bad", [1.0, 2.0])
    def test_domain_endpoints(self, bad):
        with pytest.raises(DomainError):
            identity_energy_derivative(bad)


class TestDegreeLowerBound:
    def test_anchors(self):
        assert degree_lower_bound(2.0, 1) == pytest.approx(FOUR_PI_SQ, rel=1e-15)
        assert degree_lower_bound(1.5, 0) == 0.0
        assert degree_lower_bound(1.4, -2) == pytest.approx(
            2.0 * FOUR_PI_SQ / 2.0**0.6, rel=1e-14
        )

    def test_chain_on_random_populations(self):
        # energies of mildly perturbed degree-d maps stay above the bound
        # with 2% discretization slack
        for d in (-2, -1, 0, 1, 2, 3):
            for seed in range(50):
                u = random_admissible_map(256, d, 0.5, 1000 * (d + 2) + seed)
                for p in (1.3, 1.6, 2.0):
                    value = energy(u, EnergyParams(p))
                    assert value >= degree_lower_bound(p, d) * 0.98

    def test_chord_bridge_between_exponents(self):
        # per-pair |u_i - u_j|^(2-p) <= 2^(2-p) makes the bridge exact in
        # the discrete sums as well
        for d in (-2, 0, 1, 3):
            for seed in range(10):
                u = random_admissible_map(256, d, 0.5, 77 * (d + 2) + seed)
                e2 = energy(u, EnergyParams(2.0))
                for p in (1.3, 1.6):
                    ep = energy(u, EnergyParams(p))
                    assert e2 <= 2.0 ** (2.0 - p) * ep * 1.01
