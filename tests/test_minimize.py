"""Descent runs: degree certification, monotone traces, bound sandwiches."""

import importlib
import math

import numpy as np
import pytest

from fracmin import (
    DomainError,
    EnergyParams,
    GridMap,
    MinimizeConfig,
    degree_lower_bound,
    descend_from,
    energy,
    energy_gradient,
    identity_energy_closed_form,
    minimize,
    perturb,
    power_map,
    rotated,
)

# the package binds the names fracmin.energy and fracmin.minimize to functions
energy_module = importlib.import_module("fracmin.energy")
minimize_module = importlib.import_module("fracmin.minimize")

FOUR_PI_SQ = 4.0 * math.pi * math.pi

FAST = dict(n=64, max_iters=300, restarts=1)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=1.0, degree_target=1, n=64),
            dict(p=2.3, degree_target=1, n=64),
            dict(p=1.5, degree_target=5, n=10),
            dict(p=1.5, degree_target=1, n=4),
            dict(p=1.5, degree_target=1, n=64, grad_tol=0.0),
            dict(p=1.5, degree_target=1, n=64, max_iters=0),
            dict(p=1.5, degree_target=1, n=64, restarts=-1),
            dict(p=1.5, degree_target=1, n=64, grad_tol=math.nan),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            MinimizeConfig(**kwargs)


class TestDescend:
    def test_symmetric_start_is_critical(self):
        config = MinimizeConfig(p=1.5, degree_target=2, n=64)
        result = descend_from(power_map(64, 2), config)
        assert result.converged and result.iterations == 0
        assert result.final_degree == 2

    def test_monotone_trace(self):
        config = MinimizeConfig(p=1.7, degree_target=1, **FAST)
        result = descend_from(perturb(power_map(64, 1), 0.1, 3), config)
        assert np.all(np.diff(result.energy_trace) <= 0.0)
        assert result.energy_trace[0] >= result.final_energy

    def test_gauge_quotient(self):
        # rotating the start by a constant phase moves along the orbit of
        # minimizers; the converged energies agree within 1e-8
        config = MinimizeConfig(p=1.5, degree_target=1, **FAST)
        for shift in (0.5, 1.0, 2.5):
            r0 = descend_from(power_map(64, 1), config)
            r1 = descend_from(rotated(power_map(64, 1), shift), config)
            assert r0.converged and r1.converged
            assert abs(r0.final_energy - r1.final_energy) <= 1e-8

    def test_wrong_start_degree_rejected(self):
        config = MinimizeConfig(p=1.5, degree_target=2, n=64)
        with pytest.raises(DomainError):
            descend_from(power_map(64, 1), config)



def two_pass_descent(start, config):
    """The descent loop with separate kernel passes: energy for every
    trial step, then energy_gradient for the accepted one.

    Returns (final_energy, grad_norm, iterations, converged, trace)."""
    m = minimize_module
    params = EnergyParams(config.p)
    point = start
    current = energy(point, params)
    trace = [current]
    grad = energy_gradient(point, params)
    grad_norm = float(np.linalg.norm(grad))
    iterations = 0
    aborted = False
    trial_step = m._INITIAL_STEP
    while grad_norm > config.grad_tol and iterations < config.max_iters and not aborted:
        grad_sq = grad_norm * grad_norm
        step = trial_step
        for _ in range(m._MAX_HALVINGS + 1):
            candidate = GridMap(point.phases - step * grad)
            if m._candidate_degree(candidate) == config.degree_target:
                trial = energy(candidate, params)
                if trial <= current - m._ARMIJO_DECREASE * step * grad_sq:
                    break
            step *= m._ARMIJO_SHRINK
        else:
            aborted = True
            break
        iterations += 1
        previous_grad = grad
        point = candidate
        current = trial
        trace.append(current)
        grad = energy_gradient(point, params)
        grad_norm = float(np.linalg.norm(grad))
        grad_change = grad - previous_grad
        curvature = float(grad_change @ grad_change)
        slope = -step * float(previous_grad @ grad_change)
        if curvature > 0.0 and slope > 0.0:
            trial_step = min(max(slope / curvature, m._TRIAL_STEP_RANGE[0]), m._TRIAL_STEP_RANGE[1])
        else:
            trial_step = m._INITIAL_STEP
    converged = (grad_norm <= config.grad_tol) and not aborted
    return current, grad_norm, iterations, converged, np.array(trace)


class TestFusedDescent:
    """Descent evaluates every trial with one energy_and_gradient pass."""

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
    def test_matches_two_pass_loop(self, p):
        config = MinimizeConfig(p=p, degree_target=1, **FAST)
        for seed in (1, 2, 3):
            start = perturb(power_map(64, 1), 0.1, seed)
            result = descend_from(start, config)
            final_energy, grad_norm, iterations, converged, trace = two_pass_descent(start, config)
            assert result.iterations == iterations > 0
            assert result.converged == converged
            assert result.final_energy == final_energy
            assert result.grad_norm == grad_norm
            assert result.energy_trace.tobytes() == trace.tobytes()

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_one_kernel_pass_per_trial(self, monkeypatch, p):
        passes = []
        trials = []
        kernel = energy_module._kernel
        candidate_degree = minimize_module._candidate_degree

        def counting_kernel(*args):
            passes.append(args[2:])
            return kernel(*args)

        def counting_degree(candidate):
            d = candidate_degree(candidate)
            trials.append(d == 1)
            return d

        monkeypatch.setattr(energy_module, "_kernel", counting_kernel)
        monkeypatch.setattr(minimize_module, "_candidate_degree", counting_degree)
        config = MinimizeConfig(p=p, degree_target=1, **FAST)
        result = descend_from(perturb(power_map(64, 1), 0.1, 2), config)
        # the first degree test is the start's; each later one that keeps
        # the degree is a trial step the kernel evaluates
        steps = sum(trials[1:])
        assert steps > result.iterations
        assert len(passes) == steps + 1 == result.evaluations
        assert set(passes) == {(True, True)}

    def test_every_termination_occurs(self, request):
        converged = descend_from(power_map(32, 1), MinimizeConfig(p=1.5, degree_target=1, n=32))
        assert converged.termination == "grad_tol" and converged.converged
        assert converged.evaluations == 1
        capped_config = MinimizeConfig(p=1.5, degree_target=1, n=32, max_iters=5)
        capped = descend_from(perturb(power_map(32, 1), 0.1, 1), capped_config)
        assert capped.termination == "max_iters" and not capped.converged
        assert capped.iterations == 5 and capped.evaluations >= 6
        # under the double sum alone the winding concentrates until no step
        # keeps degree one
        request.getfixturevalue("raw_double_sum")
        stuck = descend_from(perturb(power_map(16, 1), 0.1, 1), MinimizeConfig(p=1.5, degree_target=1, n=16))
        assert stuck.termination == "line_search" and not stuck.converged
        assert stuck.iterations < 1000 and stuck.grad_norm > 1e-5


class TestMinimize:
    def test_degree_zero_constant_ground_state(self):
        result = minimize(MinimizeConfig(p=1.5, degree_target=0, n=64, restarts=1))
        assert result.converged
        assert result.final_energy <= 1e-8
        assert result.final_degree == 0

    def test_p2_ground_truth(self):
        result = minimize(MinimizeConfig(p=2.0, degree_target=1, n=256))
        assert result.converged
        assert result.final_degree == 1
        assert abs(result.final_energy - FOUR_PI_SQ) <= 0.05 * FOUR_PI_SQ

    def test_p15_sandwich(self):
        result = minimize(MinimizeConfig(p=1.5, degree_target=1, n=256))
        assert result.converged
        disc_identity = energy(power_map(256, 1), EnergyParams(1.5))
        assert result.final_energy <= disc_identity + 1e-9
        assert result.final_energy >= degree_lower_bound(1.5, 1) * 0.98

    def test_feasible_competitor_bound(self):
        config = MinimizeConfig(p=1.3, degree_target=2, **FAST)
        result = minimize(config)
        start = energy(power_map(64, 2), EnergyParams(1.3))
        assert result.final_energy <= start + 1e-9

    def test_deterministic(self):
        config = MinimizeConfig(p=1.5, degree_target=1, **FAST)
        a = minimize(config)
        b = minimize(config)
        assert a.final_energy == b.final_energy
        assert np.array_equal(a.final_map.phases, b.final_map.phases)
        assert a.iterations == b.iterations

    def test_degree_certificate(self):
        for d in (-2, 1, 3):
            result = minimize(MinimizeConfig(p=1.6, degree_target=d, **FAST))
            assert result.final_degree == d


class TestScan:
    """One minimize run per exponent, as the scan subcommand makes them."""

    def test_rows_satisfy_sandwich(self):
        for p in (1.4, 1.8, 2.0):
            result = minimize(MinimizeConfig(p=p, degree_target=1, **FAST))
            assert result.converged
            assert degree_lower_bound(p, 1) * 0.98 <= result.final_energy <= identity_energy_closed_form(p) + 1e-9

    def test_p2_row_near_ground_truth(self):
        result = minimize(MinimizeConfig(p=2.0, degree_target=1, **FAST))
        assert result.final_energy == pytest.approx(FOUR_PI_SQ, rel=0.05)
        assert identity_energy_closed_form(2.0) == pytest.approx(FOUR_PI_SQ, rel=1e-9)
