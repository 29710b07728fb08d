"""Descent runs: degree certification, monotone traces, bound sandwiches."""

import importlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmin import (
    DomainError,
    EnergyParams,
    GridMap,
    MinimizeConfig,
    degree,
    degree_lower_bound,
    descend_from,
    energy,
    energy_gradient,
    identity_energy_closed_form,
    identity_map,
    minimize,
    moebius_map,
    perturb,
    power_map,
    rotated,
)

# the package binds the names fracmin.energy and fracmin.minimize to functions
energy_module = importlib.import_module("fracmin.energy")
minimize_module = importlib.import_module("fracmin.minimize")
maps_module = importlib.import_module("fracmin.maps")

FOUR_PI_SQ = 4.0 * math.pi * math.pi
# root of B((p-1)/2, 1/2) = 5 pi, from mpmath at 40 digits
P_PRIME = 1.139210840326630521723

FAST = dict(n=64, max_iters=300, restarts=1)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=1.0, degree_target=1, n=64),
            dict(p=2.3, degree_target=1, n=64),
            dict(p=1.5, degree_target=5, n=10),
            dict(p=1.5, degree_target=1, n=4),
            dict(p=math.nan, degree_target=1, n=64),
            dict(p=1.5, degree_target=1, n=64, max_iters=0),
            dict(p=1.5, degree_target=1, n=64, restarts=-1),
            dict(p=1.5, degree_target=1, n=7),
            # the constant map is the degree-0 minimum; no descent runs there
            dict(p=1.5, degree_target=0, n=64),
            # z^4's Hessian symbol keeps a negative mode above 4 at n = 10
            dict(p=2.0, degree_target=4, n=10),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            MinimizeConfig(**kwargs)

    def test_no_fixed_gradient_tolerance(self):
        # the stop is relative to the energy's error estimate at every n
        with pytest.raises(TypeError):
            MinimizeConfig(p=1.5, degree_target=1, n=64, grad_tol=1e-5)


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

    Returns (final_energy, grad_norm, decrement_rel, iterations,
    converged, trace)."""
    m = minimize_module
    params = EnergyParams(config.p)
    symbol = m._sobolev_symbol(start.n, config.p, config.degree_target)
    point = start
    current = energy(point, params)
    trace = [current]
    grad = energy_gradient(point, params)
    direction = m._sobolev_gradient(grad, symbol)
    decrement = float(grad @ direction)
    iterations = 0

    def stop():
        return decrement <= m._STOP_FRACTION * energy_module._error_estimate(point, config.p) * current

    while not stop() and iterations < config.max_iters:
        step = 1.0
        for _ in range(m._MAX_HALVINGS + 1):
            candidate = GridMap(point.phases - step * direction)
            if candidate.degree == config.degree_target:
                trial = energy(candidate, params)
                if trial <= current - m._ARMIJO_DECREASE * step * decrement:
                    break
            step *= m._ARMIJO_SHRINK
        else:
            break
        iterations += 1
        point = candidate
        current = trial
        trace.append(current)
        grad = energy_gradient(point, params)
        direction = m._sobolev_gradient(grad, symbol)
        decrement = float(grad @ direction)
    grad_norm = float(np.linalg.norm(grad))
    return current, grad_norm, decrement / current, iterations, stop(), np.array(trace)


def record_maps(monkeypatch):
    """Record every GridMap made from here on into the first list
    returned, and the size of each array maps._wrapped wraps into the
    second."""
    made, wraps = [], []
    post_init, wrapped = GridMap.__post_init__, maps_module._wrapped

    def recording_post_init(u):
        post_init(u)
        made.append(u)

    def counting_wrapped(x):
        wraps.append(np.size(x))
        return wrapped(x)

    monkeypatch.setattr(GridMap, "__post_init__", recording_post_init)
    monkeypatch.setattr(maps_module, "_wrapped", counting_wrapped)
    return made, wraps


class TestFusedDescent:
    """Descent evaluates every trial with one energy_and_gradient pass."""

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
    def test_matches_two_pass_loop(self, p):
        config = MinimizeConfig(p=p, degree_target=1, **FAST)
        for seed in (1, 2, 3):
            start = perturb(power_map(64, 1), 0.1, seed)
            result = descend_from(start, config)
            final_energy, grad_norm, decrement_rel, iterations, converged, trace = two_pass_descent(start, config)
            assert result.iterations == iterations > 0
            assert result.converged == converged
            assert result.final_energy == final_energy
            assert result.grad_norm == grad_norm
            assert result.decrement_rel == decrement_rel
            assert result.energy_trace.tobytes() == trace.tobytes()

    # from a perturbed z^d every unit step is accepted, so these starts are
    # chosen to reject trials: away from z the symbol of z's Hessian
    # overshoots
    @pytest.mark.parametrize(
        "p, d, start",
        [(1.5, 1, perturb(moebius_map(64, (0.5, 0.2)), 0.1, 2)), (2.0, 1, perturb(moebius_map(64, (0.9, 0)), 0.3, 3))],
        ids=["1.5", "2.0"],
    )
    def test_one_kernel_pass_per_trial(self, monkeypatch, p, d, start):
        passes = []
        config = MinimizeConfig(p=p, degree_target=d, **FAST)
        trials, wraps = record_maps(monkeypatch)
        kernel = energy_module._kernel

        def counting_kernel(*args):
            passes.append(args[2:])
            return kernel(*args)

        monkeypatch.setattr(energy_module, "_kernel", counting_kernel)
        result = descend_from(start, config)
        # every map the run makes is a trial step, and its gaps are wrapped
        # once, as it is made; each trial that keeps the degree is evaluated
        assert wraps == [start.n] * len(trials)
        steps = sum(trial.degree == d for trial in trials)
        assert steps > result.iterations
        assert len(passes) == steps + 1 == result.evaluations
        assert set(passes) == {(True, True)}

    def test_trial_of_another_degree_halves_without_a_kernel_pass(self, monkeypatch):
        # a direction 64 times too long makes the unit steps cross gaps of
        # pi: the first trials wind 2 and -2 times, and are halved unevaluated
        passes = []
        start = perturb(power_map(64, 1), 0.1, 1)
        config = MinimizeConfig(p=1.5, degree_target=1, **FAST)
        trials, wraps = record_maps(monkeypatch)
        kernel = energy_module._kernel
        sobolev_gradient = minimize_module._sobolev_gradient

        def counting_kernel(*args):
            passes.append(args[0])
            return kernel(*args)

        monkeypatch.setattr(energy_module, "_kernel", counting_kernel)
        monkeypatch.setattr(
            minimize_module, "_sobolev_gradient", lambda grad, symbol: 64.0 * sobolev_gradient(grad, symbol)
        )
        result = descend_from(start, config)
        degrees = [trial.degree for trial in trials]
        assert wraps == [64] * len(trials)
        assert degrees[0] != 1 and degrees[1] != 1
        # the start and every trial of degree one
        assert len(passes) == 1 + degrees.count(1) == result.evaluations
        assert len(trials) > result.evaluations - 1 > result.iterations > 0
        assert result.final_degree == degree(result.final_map) == 1
        assert np.all(np.diff(result.energy_trace) <= 0.0)

    def test_every_termination_occurs(self, request):
        converged = descend_from(power_map(32, 1), MinimizeConfig(p=1.5, degree_target=1, n=32))
        assert converged.termination == "grad_tol" and converged.converged
        assert converged.evaluations == 1
        capped_config = MinimizeConfig(p=1.5, degree_target=1, n=32, max_iters=2)
        capped = descend_from(perturb(power_map(32, 1), 0.1, 1), capped_config)
        assert capped.termination == "max_iters" and not capped.converged
        assert capped.iterations == 2 and capped.evaluations >= 3
        # under the double sum alone the winding concentrates until no step
        # keeps degree one
        request.getfixturevalue("raw_double_sum")
        stuck = descend_from(perturb(power_map(16, 1), 0.1, 1), MinimizeConfig(p=1.5, degree_target=1, n=16))
        assert stuck.termination == "line_search" and not stuck.converged
        assert stuck.iterations < 1000 and stuck.grad_norm > 1e-5


class TestMinimize:
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
        assert abs(result.final_energy / identity_energy_closed_form(1.5) - 1.0) <= result.error_estimate_rel

    def test_feasible_competitor_bound(self):
        config = MinimizeConfig(p=1.3, degree_target=2, **FAST)
        result = minimize(config)
        start = energy(power_map(64, 2), EnergyParams(1.3))
        assert result.final_energy <= start + 1e-9

    def test_total_evaluations_count_every_run(self, monkeypatch):
        calls = []
        kernel = energy_module._kernel

        def counting_kernel(*args):
            calls.append(args[0].n)
            return kernel(*args)

        monkeypatch.setattr(energy_module, "_kernel", counting_kernel)
        result = minimize(MinimizeConfig(p=1.5, degree_target=1, n=64, restarts=2))
        assert result.total_evaluations == len(calls) > result.evaluations
        calls.clear()
        single = minimize(MinimizeConfig(p=1.5, degree_target=1, n=64, restarts=0))
        assert single.total_evaluations == single.evaluations == len(calls)

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
        # the minimum lies no higher than the identity, whose energy on the
        # grid can lie above E_p(Id) by its own error (2.5e-11 relative at
        # p = 1.4, n = 64)
        for p in (1.4, 1.8, 2.0):
            result = minimize(MinimizeConfig(p=p, degree_target=1, **FAST))
            assert result.converged
            identity = max(identity_energy_closed_form(p), energy(identity_map(FAST["n"]), EnergyParams(p)))
            assert degree_lower_bound(p, 1) * 0.98 <= result.final_energy <= identity + 1e-9
            assert abs(result.final_energy / identity_energy_closed_form(p) - 1.0) <= result.error_estimate_rel

    def test_p2_row_near_ground_truth(self):
        result = minimize(MinimizeConfig(p=2.0, degree_target=1, **FAST))
        assert result.final_energy == pytest.approx(FOUR_PI_SQ, rel=0.05)
        assert identity_energy_closed_form(2.0) == pytest.approx(FOUR_PI_SQ, rel=1e-9)


def accepted_iff_resolved(n, p, d):
    """Whether MinimizeConfig accepts the (n, p, d) grid, after asserting
    that it does exactly when z^d's Hessian symbol is positive on some mode
    above |d| and on every one: the lift raises the modes m <= |d| to
    lambda_{|d|+1}, so the lifted symbol is then positive."""
    above = minimize_module._hessian_symbol(n, p, d)[abs(d) + 1 :]
    if above.size == 0 or above.min() <= 0.0:
        with pytest.raises(DomainError, match="too coarse"):
            MinimizeConfig(p=p, degree_target=d, n=n)
        return False
    MinimizeConfig(p=p, degree_target=d, n=n)
    symbol = minimize_module._sobolev_symbol(n, p, d)
    assert symbol.shape == (n // 2 + 1,)
    assert np.all(np.isfinite(symbol)) and np.all(symbol > 0.0), (n, d)
    assert not symbol.flags.writeable
    return True


class TestPreconditionedDescent:
    """Steps along P^-1 g, with P the Hessian symbol at z^d, converge in a
    few unit steps at every n and stop at the energy's own error estimate."""

    @pytest.mark.parametrize("n", [64, 128, 255, 256])
    @pytest.mark.parametrize("p, d", [(P_PRIME, 1), (1.5, 1), (2.0, 1), (1.5, 2), (1.05, 1)])
    def test_iterations_stay_flat_in_n(self, n, p, d):
        # the model symbol h (1 + m)^(3-p) took 6-33 iterations and 11-34
        # passes here at n >= 128 in degree 1
        config = MinimizeConfig(p=p, degree_target=d, n=n)
        for seed in (1, 2, 3):
            result = descend_from(perturb(power_map(n, d), 0.1, seed), config)
            assert result.converged and result.iterations <= 6
            assert result.evaluations <= result.iterations + 2
            assert 0.0 <= result.decrement_rel <= 0.1 * result.error_estimate_rel
            gap = result.final_energy / (d * identity_energy_closed_form(p)) - 1.0
            assert abs(gap) <= result.error_estimate_rel

    def test_unpreconditioned_steps_exceed_the_bound(self, monkeypatch):
        # with P = I the same loop is plain gradient descent, whose condition
        # number grows like n^(3-p)
        monkeypatch.setattr(minimize_module, "_sobolev_symbol", lambda n, p, d: np.ones(n // 2 + 1))
        config = MinimizeConfig(p=1.5, degree_target=1, n=128, max_iters=41)
        result = descend_from(perturb(power_map(128, 1), 0.1, 1), config)
        assert result.termination == "max_iters"

    @pytest.mark.parametrize("n, d", [(257, 2), (256, 1)])
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
    def test_hessian_symbol_matches_central_differences(self, monkeypatch, n, d, p):
        # z^d's Hessian is circulant, so each cosine mode is an eigenvector;
        # the modes m <= d are compared before they are lifted.  The symbol
        # descent uses reads the correction's one definition: with T2's
        # weights beta and gamma doubled it still matches the gradient
        alpha, beta, gamma = energy_module._second_weights(p)
        params = EnergyParams(p)
        phases = power_map(n, d).phases
        step = 1e-5
        for scale in (1.0, 2.0):
            monkeypatch.setattr(energy_module, "_second_weights", lambda q: (alpha, scale * beta, scale * gamma))
            symbol = minimize_module._hessian_symbol(n, p, d)
            for m in (1, 2, 3, 10):
                mode = np.cos(2.0 * math.pi * m * np.arange(n) / n)
                forward = energy_gradient(GridMap(phases + step * mode), params)
                backward = energy_gradient(GridMap(phases - step * mode), params)
                deviation = np.max(np.abs((forward - backward) / (2.0 * step) - symbol[m] * mode))
                if m > d:
                    assert deviation <= 1e-6 * abs(symbol[m]), (scale, m)
                else:
                    assert deviation <= 1e-7, (scale, m)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
    def test_hessian_symbol_meets_its_continuum_limit(self, p):
        # an independent reference: E_p(u) = sum_j (-c_j) E_2(u^j), with
        # -c_j = Gamma(p+1) sin(pi p/2)/pi Gamma(j - p/2)/Gamma(j + 1 + p/2)
        # the Fourier coefficients of |1 - e^(i delta)|^p, so at the identity
        # n lambda_m -> 8 pi^2 sum_{j<m} (m - j) j^2 (-c_j).  At n = 256 the
        # symbol meets that to 2.7e-6; with the zeta weight halved it misses
        # by 0.021 or more, and with T2 dropped by 7.4e-5 or more
        n = 256
        symbol = minimize_module._hessian_symbol(n, p, 1)
        with mpmath.workdps(30):
            q = mpmath.mpf(p)
            scale = mpmath.gamma(q + 1) * mpmath.sin(mpmath.pi * q / 2) / mpmath.pi
            minus_c = [scale * mpmath.gamma(j - q / 2) / mpmath.gamma(j + 1 + q / 2) for j in range(1, 6)]
            for m in range(2, 7):
                limit = 8 * mpmath.pi**2 * sum((m - j) * j**2 * minus_c[j - 1] for j in range(1, m))
                assert abs(n * symbol[m] / float(limit) - 1.0) <= 1e-5, m

    @pytest.mark.parametrize("p", [1.01, 1.05, P_PRIME, 1.5, 2.0])
    def test_symbol_is_positive_on_every_accepted_grid(self, p):
        # a grid is accepted exactly where the lifted symbol is positive, and
        # at every p some grid is not
        grids = [(n, d) for n in range(8, 34) for d in range(-(n // 2), n // 2 + 1) if d != 0 and n > 2 * abs(d)]
        rejected = [(n, d) for n, d in grids + [(128, 2)] if not accepted_iff_resolved(n, p, d)]
        assert (8, 3) in rejected and (10, 4) in rejected

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(n=st.integers(8, 400), p=st.floats(1.01, 2.0), share=st.floats(0.0, 1.0), sign=st.sampled_from([-1, 1]))
    def test_rejected_grids_are_coarse(self, n, p, share, sign):
        # over n <= 400 and p >= 1.01 the largest rejected n/|d| measured is
        # 4.95 (p = 1.01); it falls to 4.26 at p = 2
        d = sign * (1 + round(share * ((n - 1) // 2 - 1)))
        if not accepted_iff_resolved(n, p, d):
            assert n / abs(d) < 5.0

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_symbol_lifts_the_modes_up_to_the_degree(self, p):
        # on resolved grids P is the Hessian symbol above |d|, and the modes
        # below it, rotation, Moebius and saddle modes, take lambda_{|d|+1}
        for n, d in [(64, 1), (65, -2), (128, 2), (255, 3)]:
            hessian = minimize_module._hessian_symbol(n, p, d)
            symbol = minimize_module._sobolev_symbol(n, p, d)
            assert np.array_equal(symbol[abs(d) + 1 :], hessian[abs(d) + 1 :])
            assert np.all(symbol[: abs(d) + 1] == hessian[abs(d) + 1])
