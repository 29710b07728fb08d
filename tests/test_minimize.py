"""Descent runs: degree certification, monotone traces, bound sandwiches."""

import math

import numpy as np
import pytest

from fracmin import (
    DomainError,
    EnergyParams,
    MinimizeConfig,
    degree_lower_bound,
    descend_from,
    energy,
    identity_energy_closed_form,
    minimize,
    minimize_scan,
    perturb,
    power_map,
    rotated,
)

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
    def test_rows_satisfy_sandwich(self):
        rows = minimize_scan([1.4, 1.8, 2.0], MinimizeConfig(p=1.5, degree_target=1, **FAST))
        assert [row.p for row in rows] == [1.4, 1.8, 2.0]
        for row in rows:
            assert row.converged
            assert row.lower_bound * 0.98 <= row.min_energy <= row.identity_energy + 1e-9

    def test_p2_row_near_ground_truth(self):
        rows = minimize_scan([2.0], MinimizeConfig(p=1.5, degree_target=1, **FAST))
        (row,) = rows
        assert row.min_energy == pytest.approx(FOUR_PI_SQ, rel=0.05)
        assert row.identity_energy == pytest.approx(FOUR_PI_SQ, rel=1e-9)
