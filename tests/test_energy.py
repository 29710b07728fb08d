"""Energy kernel against brute-force sums, finite differences, and closed forms."""

import hashlib
import importlib
import json
import math
import os
import queue
import resource
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
    perturb,
    power_map,
    rotated,
    wrap_angle,
)

# the package binds the name fracmin.energy to the function
energy_module = importlib.import_module("fracmin.energy")

# numpy's record of the CPU features it found and of those it compiled loops for
try:
    CPU_MODULE = "numpy._core._multiarray_umath"
    from numpy._core._multiarray_umath import __cpu_dispatch__ as CPU_DISPATCH
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # numpy 1.x
    CPU_MODULE = "numpy.core._multiarray_umath"
    from numpy.core._multiarray_umath import __cpu_dispatch__ as CPU_DISPATCH
    from numpy.core._multiarray_umath import __cpu_features__ as CPU_FEATURES

FOUR_PI_SQ = 4.0 * math.pi * math.pi

# frozen from the Beta closed form 2^p pi B((p-1)/2, 1/2), cross-checked
# against an independent Gamma implementation
IDENTITY_ENERGY_P12 = 81.72420616812771
IDENTITY_ENERGY_P15 = 46.59797908333485
# root of B((p-1)/2, 1/2) = 5 pi, from mpmath at 40 digits
P_PRIME = 1.139210840326630521723


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
    """The energy and gradient of the phases against brute_force; the
    caller takes the raw_double_sum fixture."""
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


class TestEnergy:
    @pytest.mark.parametrize("n", [8, 9, 15, 16, 17, 33, 127, 128])
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
    def test_against_brute_force(self, raw_double_sum, n, p):
        rng = np.random.default_rng(n * 100 + int(10 * p))
        phases = 2.0 * math.pi * np.arange(n) / n + rng.uniform(-0.3, 0.3, n)
        assert_matches_brute_force(phases, p)

    # the raw_double_sum fixture's patch holds for every example alike
    @settings(
        derandomize=True,
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(8, 48),
        d=st.integers(-3, 3),
        jitter=st.floats(0.0, 1.5),
        shift=st.floats(-10.0, 10.0),
        p=st.floats(1.01, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fuzzed_maps_against_brute_force(self, raw_double_sum, n, d, jitter, shift, p, seed):
        rng = np.random.default_rng(seed)
        phases = d * 2.0 * math.pi * np.arange(n) / n + shift + rng.uniform(-jitter, jitter, n)
        if is_admissible(GridMap(phases)):
            assert_matches_brute_force(phases, p)

    def test_constant_map_zero(self):
        u = GridMap(np.full(32, 0.7))
        assert energy(u, EnergyParams(1.5)) == 0.0

    @pytest.mark.parametrize("n", [64, 128, 256, 1000, 1024, 4096])
    def test_identity_p2_exact_value(self, raw_double_sum, n):
        # at p = 2 every pair contributes its own chord ratio of one
        value = energy(identity_map(n), EnergyParams(2.0))
        assert value == pytest.approx(FOUR_PI_SQ * (1.0 - 1.0 / n), rel=1e-15)

    @pytest.mark.parametrize("n", [95, 96])
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_returns_float(self, n, p):
        assert type(energy(perturb(identity_map(n), 0.3, 9), EnergyParams(p))) is float

    def test_rotation_invariance_exact_case(self):
        # phases and shift all exactly representable, so the shifted phases
        # and every gap are exact.  At p = 2 the spectral kernel reads only
        # phase differences and the correction only gaps: bit for bit.  At
        # p < 2 the tiled kernel forms chords from cos and sin of the shifted
        # phases, which round differently, so only rounding agreement holds:
        # over the shifts k/64, k = 1..256, the gap is at most 0.72 eps
        base = GridMap(np.arange(16) * 0.25)
        for shift in (0.25, 0.5):
            shifted = rotated(base, shift)
            assert energy(base, EnergyParams(2.0)) == energy(shifted, EnergyParams(2.0))
            for p in (1.3, 1.5, 1.7):
                value = energy(base, EnergyParams(p))
                assert abs(energy(shifted, EnergyParams(p)) - value) <= 4.0 * np.finfo(float).eps * value

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


def mpmath_second_term(gaps, p, digits=50):
    """T2 from the gaps, term by term in mpmath with its own zeta(-p):
    h^(p+1) [2 zeta(-p) h sum_i |v_i|^p (1/12 - p v_i^2 / 24)
    - (p (p - 1) / 12) (zeta(-p) - zeta(2 - p)) h sum_i |vbar_i|^(p-2) phi''_i^2],
    v = D / h, vbar_i = (D_i + D_{i-1}) / 2h and phi''_i = (D_i - D_{i-1}) / h^2."""
    with mpmath.workdps(digits):
        p = mpmath.mpf(p)
        n = len(gaps)
        h = 2 * mpmath.pi / n
        first_weight = 2 * mpmath.zeta(-p)
        second_weight = p * (p - 1) / 12 * (mpmath.zeta(-p) - mpmath.zeta(2 - p))
        first = second = mpmath.mpf(0)
        for i in range(n):
            v = gaps[i] / h
            first += abs(v) ** p * (mpmath.mpf(1) / 12 - p * v * v / 24)
            mean = (gaps[i] + gaps[i - 1]) / (2 * h)
            curvature = (gaps[i] - gaps[i - 1]) / (h * h)
            second += abs(mean) ** (p - 2) * curvature**2
        return h ** (p + 1) * (first_weight * h * first - second_weight * h * second)


def mpmath_weighted_correction(phases, p):
    """The diagonal correction -2 zeta(2 - p) sum |D_i|^p and its gradient
    -2 zeta(2 - p) p (w_{i-1} - w_i), w = |D|^(p-2) D, with zeta from mpmath,
    less T2 and its gradient where every gap D_i is nonzero, of one sign
    and below pi/2 in magnitude; T2's gradient is a central difference in
    50-digit arithmetic."""
    weight = float(-2 * mpmath.zeta(2 - mpmath.mpf(p)))
    gaps = wrap_angle(np.roll(phases, -1) - phases)
    w = np.abs(gaps) ** (p - 2.0) * gaps
    value = weight * math.fsum(np.abs(gaps) ** p)
    grad = weight * p * (np.roll(w, 1) - w)
    if (np.all(gaps > 0.0) or np.all(gaps < 0.0)) and np.all(np.abs(gaps) < 0.5 * math.pi):
        with mpmath.workdps(50):
            exact = [mpmath.mpf(g) for g in gaps]
            value -= float(mpmath_second_term(exact, p))
            step = mpmath.mpf(10) ** -20
            for k in range(len(gaps)):
                # phase k moves gap k - 1 up and gap k down
                forward, backward = list(exact), list(exact)
                forward[k - 1] += step
                forward[k] -= step
                backward[k - 1] -= step
                backward[k] += step
                slope = (mpmath_second_term(forward, p) - mpmath_second_term(backward, p)) / (2 * step)
                grad[k] -= float(slope)
    return value, grad


def add_zeta_term(u, p, total, grad):
    """total and grad plus the zeta term alone, -2 zeta(2 - p) sum |D_i|^p,
    and its gradient, in the kernel's weight and order of operations."""
    weight = energy_module._correction_weight(p)
    magnitude = np.abs(u.gaps)
    rise = magnitude ** (p - 1.0)
    w = np.copysign(rise, u.gaps) * (weight * p)
    grad = grad.copy()
    grad[1:] += w[:-1]
    grad[0] += w[-1]
    grad -= w
    return total + weight * float(np.sum(rise * magnitude)), grad


def second_term(u, p):
    """-T2 and its gradient: the kernel's correction less its zeta term."""
    value, grad = energy_module._add_diagonal_correction(u, p, 0.0, np.zeros(u.n))
    zeta_value, zeta_grad = add_zeta_term(u, p, 0.0, np.zeros(u.n))
    return value - zeta_value, grad - zeta_grad


class TestCorrectedScheme:
    """The energy: the double sum plus its diagonal correction."""

    @pytest.mark.parametrize("n", [8, 17, 33, 128])
    @pytest.mark.parametrize("p", [1.05, P_PRIME, 1.5, 2.0])
    def test_brute_force_plus_correction(self, n, p):
        # jitter 0.3 leaves the n = 8 maps unfolded, so T2 applies there
        rng = np.random.default_rng(7 * n + int(100 * p))
        phases = 2.0 * math.pi * np.arange(n) / n + rng.uniform(-0.3, 0.3, n)
        assert_matches_brute_force_plus_correction(phases, p)

    @pytest.mark.parametrize("n", [16, 17, 33])
    @pytest.mark.parametrize("p", [1.05, P_PRIME, 1.5, 2.0])
    @pytest.mark.parametrize("d", [1, -2])
    def test_brute_force_plus_correction_unfolded(self, n, p, d):
        # jitter of 0.3 h keeps every gap of d h inside (0.4, 1.6) d h,
        # which is below pi/2 here: T2 applies
        rng = np.random.default_rng(7 * n + int(100 * p) + d)
        phases = d * 2.0 * math.pi * np.arange(n) / n + rng.uniform(-0.3, 0.3, n) * 2.0 * math.pi / n
        gaps = wrap_angle(np.roll(phases, -1) - phases)
        assert np.all(np.sign(gaps) == np.sign(d)) and np.all(np.abs(gaps) < 0.5 * math.pi)
        assert_matches_brute_force_plus_correction(phases, p)

    @pytest.mark.parametrize("p", [1.001, 1.05, P_PRIME, 1.5, 1.99, 2.0])
    def test_zeta_negative_against_mpmath(self, p):
        # from the functional equation; the sine form makes zeta(-2) exactly 0
        value = energy_module._zeta_negative(p)
        exact = mpmath.zeta(-mpmath.mpf(p))
        if p == 2.0:
            assert value == 0.0
        else:
            assert abs(value / float(exact) - 1.0) <= 1e-14

    @pytest.mark.parametrize("n", [63, 64, 257])
    @pytest.mark.parametrize("p", [1.05, P_PRIME, 1.5, 2.0])
    def test_second_term_taylor_remainder(self, n, p):
        # on unfolded maps |T2(u + t v) - T2(u) - t T2'(u) . v| falls like
        # t^2: a wrong gradient of T2 leaves a remainder of order t
        rng = np.random.default_rng(n)
        for u in (identity_map(n), moebius_map(n, (0.4, 0.0)), perturb(identity_map(n), 0.02, 1)):
            value, grad = second_term(u, p)
            v = rng.standard_normal(n)
            v *= 2.0 * math.pi / n / np.max(np.abs(v))  # moves no phase by more than h / 10 below
            remainders = []
            for step in 0.1 / 4.0 ** np.arange(7):
                moved = GridMap(u.phases + step * v)
                assert moved.gaps.min() > 0.0
                remainders.append(abs(second_term(moved, p)[0] - value - step * (grad @ v)))
            orders = [math.log(coarse / fine, 4.0) for coarse, fine in zip(remainders, remainders[1:])]
            assert min(orders) >= 1.9, orders

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_fold_rule(self, request, p):
        # constant, degree-0, folded and unresolved maps get the zeta term
        # alone, bit for bit as it was before T2; unfolded maps whose gaps
        # stay below a quarter turn get T2 as well
        n = 64
        constant = GridMap(np.full(n, 0.7))
        degree_zero = perturb(constant, 0.3, 2)
        folded = perturb(identity_map(n), 0.3, 4)
        slowed = identity_map(n).phases.copy()
        slowed[10] = slowed[9]  # one zero gap
        unresolved = moebius_map(n, (0.99, 0.0))  # largest gap 2.9
        maps = [constant, degree_zero, folded, GridMap(slowed), GridMap(-folded.phases), unresolved]
        assert all(np.any(u.gaps <= 0.0) and np.any(u.gaps >= 0.0) for u in maps[:-1])
        assert unresolved.gaps.min() > 0.0 and unresolved.gaps.max() >= 0.5 * math.pi
        unfolded = [moebius_map(n, (0.4, 0.0)), GridMap(-moebius_map(n, (0.4, 0.0)).phases)]
        params = EnergyParams(p)
        corrected = [energy_and_gradient(u, params) for u in maps + unfolded]
        assert corrected[0][0] == 0.0
        request.getfixturevalue("raw_double_sum")
        for u, (value, grad) in zip(maps + unfolded, corrected):
            zeta_value, zeta_grad = add_zeta_term(u, p, *energy_and_gradient(u, params))
            if u in maps:
                assert value == zeta_value
                assert grad.tobytes() == zeta_grad.tobytes()
            else:
                assert value != zeta_value

    def test_reflection_of_unfolded_maps(self):
        # T2 reads only the gap magnitudes: a reflected map keeps its
        # correction bit for bit, and its negated correction gradient; the
        # tiled double sum, and so the energy, is bit-exact too at p < 2
        for u in (identity_map(64), moebius_map(129, (0.5, 0.3)), perturb(power_map(128, 2), 0.05, 3)):
            v = GridMap(-u.phases)
            assert np.all(v.gaps == -u.gaps) and u.gaps.min() > 0.0
            for p in (1.05, 1.4, 2.0):
                value, grad = energy_module._add_diagonal_correction(u, p, 0.0, np.zeros(u.n))
                reflected, reflected_grad = energy_module._add_diagonal_correction(v, p, 0.0, np.zeros(u.n))
                assert reflected == value and np.array_equal(reflected_grad, -grad)
                if p < 2.0:
                    assert energy(u, EnergyParams(p)) == energy(v, EnergyParams(p))

    @pytest.mark.parametrize("p", np.linspace(P_PRIME, 2.0, 8))
    def test_identity_energy_at_256_nodes(self, p):
        closed = identity_energy_closed_form(p)
        assert abs(energy(identity_map(256), EnergyParams(p)) - closed) <= 1e-6 * closed

    def test_identity_p2_is_four_pi_squared(self):
        # the raw sum is 4 pi^2 (1 - 1/n) and zeta(0) = -1/2: the correction
        # adds n h^2 = 4 pi^2 / n
        for n in (8, 64, 1000, 4096):
            assert energy(identity_map(n), EnergyParams(2.0)) == pytest.approx(FOUR_PI_SQ, rel=1e-14)

    @pytest.mark.parametrize("d", [1, -1, 2, 3, -5])
    def test_power_maps_at_p2_are_exact(self, d):
        # zeta(-2) = 0 removes T2's first sum, and its second vanishes on
        # the equal gaps of z^d, so E_2(z^d) = 4 pi^2 |d| to rounding
        for n in (11, 64, 255, 1024):
            if n > 2 * abs(d):
                value = energy(power_map(n, d), EnergyParams(2.0))
                assert value == pytest.approx(FOUR_PI_SQ * abs(d), rel=1e-14)

    @pytest.mark.parametrize("p", [1.05, P_PRIME, 1.5, 1.8, 2.0])
    def test_identity_error_after_second_term(self, p):
        # 5.5e-11 at n = 64 and 3.4e-15 at n = 4096 (p = p' and 1.5); the
        # zeta term alone left 1.8e-6 and 2.5e-10
        closed = identity_energy_closed_form(p)
        for n, tol in ((64, 1e-10), (256, 5e-13), (4096, 1e-14)):
            assert abs(energy(identity_map(n), EnergyParams(p)) / closed - 1.0) <= tol

    @pytest.mark.parametrize("p", [1.05, P_PRIME, 1.5, 1.8, 2.0])
    def test_self_convergence_order(self, p):
        # successive differences on a resolved degree-1 map shrink like
        # h^(p+3) with T2 (4.05 to 5.00 measured), h^(p+1) without it
        params = EnergyParams(p)
        values = [energy(moebius_map(n, (0.4, 0.1)), params) for n in (128, 256, 512)]
        order = math.log2(abs(values[0] - values[1]) / abs(values[1] - values[2]))
        assert order >= p + 2.8


def assert_matches_brute_force_plus_correction(phases, p):
    """The energy and gradient of the phases against brute_force plus
    mpmath_weighted_correction."""
    u = GridMap(phases)
    value, value_tol, grad, grad_tol = brute_force(phases, p)
    correction, correction_grad = mpmath_weighted_correction(phases, p)
    params = EnergyParams(p)
    assert abs(energy(u, params) - (value + correction)) <= value_tol + 1e-14 * correction
    deviation = np.abs(energy_gradient(u, params) - (grad + correction_grad))
    assert np.all(deviation <= grad_tol + 1e-13 * np.max(np.abs(correction_grad)))


class TestEnergyConvergence:
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
    def test_monotone_convergence_to_closed_form(self, raw_double_sum, p):
        closed = identity_energy_closed_form(p)
        errors = []
        for n in (64, 128, 256, 512, 1024):
            errors.append(abs(energy(identity_map(n), EnergyParams(p)) - closed))
        assert all(coarse > fine for coarse, fine in zip(errors, errors[1:]))

    def test_discrete_below_closed_form(self, raw_double_sum):
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

    @pytest.mark.parametrize("n", [33, 128, 1000, 1024, 4097])
    @pytest.mark.parametrize("columns", [1, 3])
    def test_tile_width(self, monkeypatch, n, columns):
        # numpy reduces each offset's contiguous row on its own, so the
        # energy keeps its bits whatever the tiling, the helper or the
        # outputs asked for; the gradient only reorders its row sums
        maps = [random_admissible_map(n, 1, 0.3, 8), random_admissible_map(n, 2, 0.3, 9), moebius_map(n, (0.4, 0.1))]
        cases = [(u, EnergyParams(p)) for u in maps for p in (1.2, 1.7)]
        default = [(energy(u, params), energy_gradient(u, params)) for u, params in cases]
        # columns offsets per gradient tile, 3 * columns // 2 for the energy
        monkeypatch.setattr(energy_module, "_TILE_ELEMENTS", 3 * columns * n)
        for (u, params), (value, grad) in zip(cases, default):
            for cpus in (1, 2):
                monkeypatch.setattr(energy_module, "_usable_cpus", lambda cpus=cpus: cpus)
                assert energy(u, params) == value
                fused_value, fused_grad = energy_and_gradient(u, params)
                assert fused_value == value
            # the reference magnitudes take n^2 memory
            if n <= 1000:
                scale = gradient_term_magnitudes(u, params.p)
                assert np.all(np.abs(fused_grad - grad) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [9, 10, 33, 64, 65])
    def test_mirror_wrap_at_every_width(self, raw_double_sum, monkeypatch, n):
        # the mirrored sums read each tile's terms through the wrap in front
        # of its rows; on even n the tile that holds the middle offset
        # skews one row fewer than it holds
        tile_width = energy_module._tile_width
        u = random_admissible_map(n, 1, 0.3, n)
        params = EnergyParams(1.3)
        _, _, expected, _ = brute_force(u.phases, params.p)
        scale = gradient_term_magnitudes(u, params.p)
        for width in range(1, n // 2 + 1):
            monkeypatch.setattr(
                energy_module, "_tile_width", lambda n, gradient, width=width: width if gradient else tile_width(n, False)
            )
            grad = energy_gradient(u, params)
            assert np.all(np.abs(grad - expected) <= 1e-13 * scale)
            assert energy_and_gradient(u, params)[1].tobytes() == grad.tobytes()

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
            pair = np.empty((2, 1, n))
            sine = np.empty((1, n))
            energy_module._product_terms(energy_module._phase_table(u.phases), 1, pair, sine)
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

    @pytest.mark.parametrize("p", [1.05, P_PRIME, 1.5, 1.99])
    def test_pair_powers_against_mpmath(self, p):
        # exp(e log x) turns the log's rounding into a relative error of
        # about |e log x| eps, which pow, working in extra precision, avoids:
        # measured up to 15 ulp for x >= 1e-6 (pow: under 1) and 109 ulp at
        # x = 1e-30, where the chord itself is off by eps / |u_i - u_j|
        eps = np.finfo(float).eps
        chords = np.geomspace(1e-30, 4.0, 1001)
        terms, weights = chords.copy(), np.empty_like(chords)
        energy_module._pair_powers(terms, weights, p, True, True)
        with mpmath.workdps(40):
            for x, term, weight in zip(chords, terms, weights):
                log = mpmath.log(mpmath.mpf(x))
                for exponent, value in ((0.5 * p, term), (0.5 * (p - 2.0), weight)):
                    exact = mpmath.exp(exponent * log)
                    assert abs(value - exact) <= (1.0 + abs(exponent * math.log(x))) * eps * exact
        # each output alone has the bits of both together, and coincident
        # targets give a zero term and a zero weight
        chords = np.concatenate([[0.0], chords, [0.0]])
        terms, weights = chords.copy(), np.empty_like(chords)
        energy_module._pair_powers(terms, weights, p, True, True)
        assert terms[0] == terms[-1] == weights[0] == weights[-1] == 0.0
        alone = chords.copy()
        energy_module._pair_powers(alone, np.empty_like(chords), p, True, False)
        assert alone.tobytes() == terms.tobytes()
        alone = np.empty_like(chords)
        energy_module._pair_powers(chords, alone, p, False, True)
        assert alone.tobytes() == weights.tobytes()

    @staticmethod
    def all_offsets(phases, rows):
        """The chord squares and sines of offsets 1..n//2, from tiles of rows offsets."""
        n = len(phases)
        half = n // 2
        table = energy_module._phase_table(np.asarray(phases, dtype=np.float64))
        chord_sq, sine = np.empty((half, n)), np.empty((half, n))
        pair = np.empty((2, rows, n))
        for k0 in range(1, half + 1, rows):
            count = min(rows, half + 1 - k0)
            energy_module._product_terms(table, k0, pair[:, :count], sine[k0 - 1 : k0 - 1 + count])
            chord_sq[k0 - 1 : k0 - 1 + count] = pair[0, :count]
        return table, chord_sq, sine

    def test_sine_against_exact_products(self):
        # s_i (c_j - c_i) - c_i (s_j - s_i) from the chord's rounded
        # differences: measured within 1.42 eps of the exact s_i c_j - c_i s_j
        # of the rounded cos and sin, where rounding the two products gave 0.61
        eps = np.finfo(float).eps
        rng = np.random.default_rng(11)
        n = 48
        for phases in (np.sort(rng.uniform(0.0, 2.0 * math.pi, n)), rng.uniform(-20.0, 20.0, n)):
            table, _, sine = self.all_offsets(phases, n // 2)
            c, s = table[0, :n].tolist(), table[1, :n].tolist()
            for q, row in enumerate(sine.tolist()):
                for i, value in enumerate(row):
                    j = (i + q + 1) % n
                    exact = Fraction(s[i]) * Fraction(c[j]) - Fraction(c[i]) * Fraction(s[j])
                    assert abs(Fraction(value) - exact) <= 2 * Fraction(eps)

    def test_sine_and_chord_zero_for_coincident_targets(self):
        phases = identity_map(32).phases.copy()
        phases[5:9] = phases[5]
        phases[20] = phases[3]
        _, chord_sq, sine = self.all_offsets(phases, 16)
        for group in (range(5, 9), (3, 20)):
            for i in group:
                for j in group:
                    k = (j - i) % 32
                    if 1 <= k <= 16:
                        assert sine[k - 1, i] == 0.0 and chord_sq[k - 1, i] == 0.0

    def test_sine_bits_do_not_depend_on_the_tile(self):
        for n in (33, 128):
            phases = random_admissible_map(n, 2, 0.3, n).phases
            _, chord_sq, sine = self.all_offsets(phases, n // 2)
            for rows in (1, 7):
                _, other_sq, other = self.all_offsets(phases, rows)
                assert other.tobytes() == sine.tobytes()
                assert other_sq.tobytes() == chord_sq.tobytes()

    @pytest.mark.skipif(not CPU_FEATURES.get("AVX512_SKX"), reason="no AVX-512 to disable")
    def test_results_without_avx512(self):
        # numpy picks its SIMD loops at import time, and log, exp and pow
        # round differently in each: already under pow, the gradient's bytes
        # and the energy's last bit changed with AVX-512 disabled.  Bits are
        # reproducible for one numpy build on one CPU; elsewhere the results
        # agree to rounding.
        disabled = [
            name for name in CPU_DISPATCH if CPU_FEATURES.get(name) and (name.startswith("AVX512") or name == "X86_V4")
        ]
        cases = [(u, p) for u in fused_cases(300) for p in (1.13921, 1.5)]
        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from fracmin import EnergyParams, GridMap, energy_and_gradient\n"
            f"from {CPU_MODULE} import __cpu_features__\n"
            "assert not __cpu_features__['AVX512_SKX']\n"
            "out = []\n"
            "for phases, p in json.load(sys.stdin):\n"
            "    value, grad = energy_and_gradient(GridMap(np.array(phases)), EnergyParams(p))\n"
            "    out.append([value, grad.tolist()])\n"
            "print(json.dumps(out))\n"
        )
        package_root = os.path.dirname(os.path.dirname(importlib.import_module("fracmin").__file__))
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled), PYTHONPATH=package_root)
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps([[u.phases.tolist(), p] for u, p in cases]),
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        for (u, p), (value, grad) in zip(cases, json.loads(done.stdout)):
            default_value, default_grad = energy_and_gradient(u, EnergyParams(p))
            assert abs(value - default_value) <= 1e-14 * default_value
            _, _, _, grad_tol = brute_force(u.phases, p)
            assert np.all(np.abs(np.array(grad) - default_grad) <= grad_tol)

    @pytest.mark.parametrize("n", [512, 1000, 1024, 4097])
    def test_bytes_do_not_depend_on_the_helper(self, monkeypatch, n):
        # 0 helpers (one usable CPU) and 1 helper (two) give the same bytes:
        # energies fold per-offset slots, and gradients add two fixed halves
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

    def test_caller_takes_over_from_the_last_checkpoint(self, monkeypatch):
        # a helper stalled after it has published k tiles of its half: the
        # caller finishes that half from the checkpoint without waiting, and
        # of the helper's first k tiles it runs at most one again
        k = 3
        entered, release = threading.Event(), threading.Event()
        product_terms = energy_module._product_terms
        helper_tiles, caller_tiles = [], []

        def stalling(cs2, k0, *rest):
            if threading.current_thread().name == "fracmin-tiles":
                if len(helper_tiles) == k:
                    entered.set()
                    release.wait(timeout=120.0)
                else:
                    helper_tiles.append(k0)
            else:
                # the caller's half starts once the helper has stalled
                entered.wait(timeout=60.0)
                caller_tiles.append(k0)
            return product_terms(cs2, k0, *rest)

        n = 4096
        u = random_admissible_map(n, 1, 0.3, 14)
        params = EnergyParams(1.13921)
        monkeypatch.setattr(energy_module, "_usable_cpus", lambda: 1)
        value, grad = energy_and_gradient(u, params)
        monkeypatch.setattr(energy_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(energy_module, "_product_terms", stalling)
        results = []
        caller = threading.Thread(target=lambda: results.append(energy_and_gradient(u, params)))
        try:
            caller.start()
            caller.join(timeout=60.0)
            assert not caller.is_alive() and not release.is_set()
        finally:
            release.set()
        assert entered.is_set()
        assert results[0][0] == value and results[0][1].tobytes() == grad.tobytes()
        starts = range(1, n // 2 + 1, energy_module._tile_width(n, True))
        split = (len(starts) + 1) // 2
        assert helper_tiles == list(starts[split : split + k])
        assert len(set(caller_tiles) & set(helper_tiles)) <= 1
        assert set(caller_tiles) | set(helper_tiles) == set(starts)

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

    @pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="needs per-thread fault counts")
    def test_repeated_calls_fault_in_no_pages(self, monkeypatch):
        # each thread keeps its tile work space between calls: fresh arrays
        # made 288 minor page faults per gradient call at n = 256; what is
        # left, 0 alone and up to 1.6 per call inside the suite, comes from
        # the small arrays of a call.  n = 296, the first gradient of two
        # tiles, has the widest wrap, and at n = 4096 the helper runs half
        # of each call's tiles in a work space of its own
        monkeypatch.setattr(energy_module, "_usable_cpus", lambda: 2)
        params = EnergyParams(1.5)

        def faults():
            # the helper runs its jobs in order: this one after every tile
            # that the calls before it left to the helper
            helper = queue.SimpleQueue()
            energy_module._helper().put(lambda: helper.put(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt))
            return np.array([resource.getrusage(resource.RUSAGE_THREAD).ru_minflt, helper.get(timeout=60.0)])

        for n in (256, 296, 4096):
            u = random_admissible_map(n, 1, 0.3, 3)
            for call in (energy_gradient, energy_and_gradient):
                call(u, params)
                before = faults()
                for _ in range(10):
                    call(u, params)
                assert np.all(faults() - before <= 100), (n, call.__name__)

    def test_each_thread_keeps_its_own_work_space(self):
        u = random_admissible_map(256, 1, 0.3, 3)
        params = EnergyParams(1.5)
        grad = energy_gradient(u, params)
        kept = energy_module._work.space
        energy(u, params)
        assert energy_module._work.space is kept
        seen = []

        def other():
            seen.append(energy_gradient(u, params).tobytes())
            seen.append(energy_module._work.space)

        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=60.0)
        assert seen[0] == grad.tobytes() and seen[1] is not kept
        assert energy_gradient(u, params).tobytes() == grad.tobytes()

    def test_work_space_starts_on_a_cache_line(self, monkeypatch):
        # a tile's rows start on 64-byte lines, so its passes store whole
        # lines; numpy alone aligns to 16 bytes.  Both threads drop their
        # kept space first, so the calls below allocate it
        monkeypatch.setattr(energy_module, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(energy_module._work, "space", raising=False)
        params = EnergyParams(1.5)

        def in_helper(job):
            # the helper runs its jobs in order: this one after every tile
            # that the calls before it left to the helper
            done = queue.SimpleQueue()
            energy_module._helper().put(lambda: done.put(job()))
            return done.get(timeout=60.0)

        in_helper(lambda: vars(energy_module._work).pop("space", None))
        for n in (128, 512, 4096):
            energy_and_gradient(random_admissible_map(n, 1, 0.3, 3), params)
            assert energy_module._work.space.ctypes.data % 64 == 0, n
            if n > 128:  # one tile at n = 128 leaves the helper idle
                helper_space = in_helper(lambda: getattr(energy_module._work, "space", None))
                assert helper_space is not None and helper_space.ctypes.data % 64 == 0, n
        # a request wider than the kept space gets a fresh array, aligned too
        kept = energy_module._work.space
        monkeypatch.setattr(energy_module, "_TILE_ELEMENTS", 64)
        for size in (kept.size + 1, 5 * kept.size):
            assert energy_module._work_space(size).ctypes.data % 64 == 0, size
        assert energy_module._work.space is kept

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
    def test_matches_separate_calls(self, monkeypatch, request, n, columns):
        if columns is not None:
            # columns offsets per gradient tile, 3 * columns // 2 for the energy
            monkeypatch.setattr(energy_module, "_TILE_ELEMENTS", 3 * columns * n)
        # the corrected energy, then the double sum alone
        for raw in (False, True):
            if raw:
                request.getfixturevalue("raw_double_sum")
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

    def test_against_tiled_kernel(self, raw_double_sum):
        cases = list(spectral_cases())
        assert len(cases) >= 30
        raw = EnergyParams(2.0)
        for u in cases:
            tiled, tiled_grad = energy_module._tiled(u, 2.0, True, True)
            assert energy(u, raw) == pytest.approx(tiled, rel=1e-14)
            assert np.max(np.abs(energy_gradient(u, raw) - tiled_grad)) <= 1e-13

    def test_against_mpmath(self, raw_double_sum):
        u = perturb(power_map(256, 2), 0.3, 11)
        value, grad = mpmath_energy_and_gradient_p2(u.phases)
        raw = EnergyParams(2.0)
        assert energy(u, raw) == pytest.approx(value, rel=1e-14)
        assert np.max(np.abs(energy_gradient(u, raw) - grad)) <= 1e-13
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
    def test_tiled_kernel_matches(self, raw_double_sum, n):
        for a in self.A_VALUES:
            # the sampled trace as moebius_map lifts it, which at n = 8 and
            # 9 rejects the lifts that wind 0 times; the closed form holds
            # for the sampled points whatever their winding
            z = np.exp(2j * math.pi * np.arange(n) / n)
            u = GridMap(np.unwrap(np.angle((z - a) / (1.0 - np.conj(a) * z))))
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

    def test_against_mpmath(self):
        # 2^p pi B((p-1)/2, 1/2) at 40 digits; the Beta path rounds to a
        # few ulps, 1.8e-15 at worst on this grid
        worst = 0.0
        with mpmath.workdps(40):
            for p in np.linspace(1.0001, 2.0, 800):
                x = mpmath.mpf(float(p))
                exact = 2**x * mpmath.pi * mpmath.beta((x - 1) / 2, mpmath.mpf(1) / 2)
                worst = max(worst, abs(float((identity_energy_closed_form(float(p)) - exact) / exact)))
        assert worst <= 2.5e-15

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
