"""Critical exponent: two-path residuals, series sign structure, monotonicity."""

import math

import mpmath
import numpy as np
import pytest

from fracmin import critical
from fracmin import (
    ConvergenceError,
    DomainError,
    beta,
    critical_p,
    derivative_sign_condition,
    digamma,
    identity_energy_closed_form,
    identity_energy_derivative,
    monotonicity_scan,
    reciprocal_pair_sum,
)
from fracmin.energy import _digamma_bracket

FOUR_PI_SQ = 4.0 * math.pi * math.pi
FIVE_PI = 5.0 * math.pi

# root of B((p-1)/2, 1/2) = 5 pi, from mpmath at 40 digits
REFERENCE = 1.139210840326630521723


class TestCriticalP:
    def test_matches_reference(self):
        report = critical_p(1e-10)
        assert abs(report.p_prime - REFERENCE) <= 1e-12

    def test_residuals(self):
        report = critical_p(1e-10)
        assert abs(report.residual_beta) <= 1e-10
        assert abs(report.residual_beta - report.residual_quadrature) <= 1e-8

    def test_consistency_with_identity_energy(self):
        # five times the degree bound at p' equals the identity energy there
        p = critical_p(1e-10).p_prime
        lhs = 5.0 * FOUR_PI_SQ / 2.0 ** (2.0 - p)
        rhs = identity_energy_closed_form(p)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_equation_value_at_two(self):
        # B(1/2, 1/2) = pi, so the equation residual at p = 2 is -4 pi
        assert beta(0.5, 0.5) - FIVE_PI == pytest.approx(-4.0 * math.pi, rel=1e-14)

    def test_root_stability_under_tol_halving(self):
        for tol in (1e-6, 1e-8, 1e-10):
            a = critical_p(tol).p_prime
            b = critical_p(tol / 2.0).p_prime
            assert abs(a - b) <= 10.0 * tol

    def test_tol_is_the_residual_target(self):
        loose = critical_p(1e-4)
        tight = critical_p(1e-12)
        assert abs(loose.residual_beta) <= 1e-4
        assert loose.iterations < tight.iterations
        # the residual moves by about 100 per unit of p near the root
        assert abs(loose.p_prime - REFERENCE) <= 1e-6

    def test_illinois_update_does_not_stall(self):
        # plain false position keeps one stale end and needed 40 steps
        report = critical_p(1e-12)
        assert report.iterations <= 30
        assert report.p_prime == REFERENCE  # the double nearest the root

    def test_lands_on_the_nearest_double(self):
        # Newton's steps from 1.0001 reach the double nearest the root
        for tol in np.geomspace(1e-13, 1e-6, 50):
            report = critical_p(float(tol))
            assert report.p_prime == REFERENCE and report.iterations <= 12, tol

    def test_default_tol(self):
        assert critical_p() == critical_p(1e-12)

    @pytest.mark.parametrize("bad", [1e-15, 1e-14, 1e-3, 0.0, -1e-9])
    def test_tol_domain(self, bad):
        with pytest.raises(DomainError):
            critical_p(bad)


class TestDerivativeSignCondition:
    def test_zero_at_two(self):
        assert abs(derivative_sign_condition(2.0)) <= 1e-10

    def test_negative_on_open_interval(self):
        for p in np.linspace(1.001, 1.999, 100):
            assert derivative_sign_condition(float(p)) < 0.0

    def test_strongly_negative_near_one(self):
        # the n = 0 term 1/((p-1) p) dominates
        value = derivative_sign_condition(1.05)
        assert value < -15.0

    def test_midpoint_value(self):
        assert derivative_sign_condition(1.5) < 0.0

    def test_series_decreasing_in_p(self):
        values = [reciprocal_pair_sum(p) for p in (1.1, 1.4, 1.7, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_series_against_digamma_closed_form(self):
        # psi((p-1)/2) - psi(p/2) = -2 * sum; independent evaluation paths
        for p in (1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9):
            lhs = digamma(0.5 * (p - 1.0)) - digamma(0.5 * p)
            rhs = -2.0 * reciprocal_pair_sum(p)
            assert abs(lhs - rhs) <= 1e-9

    def test_telescoping_at_two(self):
        # at p = 2 the series is sum 1/((2n+1)(2n+2)) = log 2
        assert reciprocal_pair_sum(2.0) == pytest.approx(math.log(2.0), abs=4e-16)

    def test_domain(self):
        with pytest.raises(DomainError):
            derivative_sign_condition(1.0)
        with pytest.raises(DomainError):
            derivative_sign_condition(2.5)


class TestMonotonicityScan:
    def test_all_negative_small_grid(self):
        rows = monotonicity_scan(10)
        assert len(rows) == 10
        assert all(d < 0.0 for _, d, _, _ in rows)

    def test_grid_covers_interval(self):
        rows = monotonicity_scan(25)
        ps = [p for p, _, _, _ in rows]
        assert ps[0] == pytest.approx(1.01) and ps[-1] == pytest.approx(1.99)
        assert all(a < b for a, b in zip(ps, ps[1:]))

    def test_derivative_magnitude_shrinks_toward_two(self):
        pairs = {p: d for p, d, _, _ in monotonicity_scan(99)}
        near_two = max(p for p in pairs if p > 1.98)
        mid = min(pairs, key=lambda p: abs(p - 1.5))
        assert abs(pairs[near_two]) < abs(pairs[mid])

    def test_grid_size_domain(self):
        with pytest.raises(DomainError):
            monotonicity_scan(9)

    def test_rows_are_the_derivative_and_its_two_brackets(self):
        # the derivative is the public one bit for bit; the brackets are its
        # digamma factor and the series, which agree to rounding
        for p, derivative, digamma_bracket, series_bracket in monotonicity_scan(10):
            assert derivative == identity_energy_derivative(p)
            assert digamma_bracket == 2.0 * math.log(2.0) + digamma(0.5 * (p - 1.0)) - digamma(0.5 * p)
            assert series_bracket == 2.0 * derivative_sign_condition(p)
            assert abs(digamma_bracket - series_bracket) <= 1e-9 * max(1.0, abs(digamma_bracket))

    @pytest.mark.parametrize("grid_size", [10, 99, 1000])
    def test_rows_do_not_depend_on_the_block(self, monkeypatch, grid_size):
        # each row is its exponent's single-exponent paths, bit for bit,
        # whatever the block of exponents the series was summed in
        single = [
            (p, identity_energy_derivative(p), _digamma_bracket(p), 2.0 * derivative_sign_condition(p))
            for p in np.linspace(1.01, 1.99, grid_size).tolist()
        ]
        for block in sorted({1, 7, critical._SCAN_BLOCK, 64}):
            monkeypatch.setattr(critical, "_SCAN_BLOCK", block)
            assert monotonicity_scan(grid_size) == single, block


class TestReciprocalPairSumBlock:
    def test_block_is_each_exponent_alone(self):
        exponents = np.linspace(1.0001, 2.0, 37)
        sums = reciprocal_pair_sum(exponents)
        assert isinstance(sums, np.ndarray) and sums.shape == (37,)
        assert sums.tolist() == [reciprocal_pair_sum(p) for p in exponents.tolist()]
        assert isinstance(reciprocal_pair_sum(1.5), float)

    @pytest.mark.parametrize("bad", [1.0, 2.5, math.nan])
    def test_block_rejects_a_bad_exponent(self, bad):
        with pytest.raises(DomainError, match="the series"):
            reciprocal_pair_sum(np.array([1.5, bad, 1.7]))


class TestNewtonBracket:
    def test_critical_equation_changes_sign_on_the_bracket(self):
        # critical_p's Newton start p = 1.0001 lies left of the root, and
        # its root lies in (1.0001, 2): beta(0.00005, 0.5) > 5 pi > beta(0.5, 0.5)
        assert beta(0.5 * (1.0001 - 1.0), 0.5) > FIVE_PI
        assert beta(0.5, 0.5) < FIVE_PI


class TestPairSeriesAgainstMpmath:
    @pytest.mark.parametrize("p", [1.0001, 1.01, 1.05, REFERENCE, 1.5, 1.99, 2.0])
    def test_digamma_difference(self, p):
        # sum_n 1/((2n+p-1)(2n+p)) = (psi(p/2) - psi((p-1)/2)) / 2
        with mpmath.workdps(40):
            x = mpmath.mpf(p)
            exact = (mpmath.digamma(x / 2) - mpmath.digamma((x - 1) / 2)) / 2
            assert abs((reciprocal_pair_sum(p) - exact) / exact) <= 1e-15
