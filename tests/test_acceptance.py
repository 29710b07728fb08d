"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  Each criterion is a separate test so a failure
pinpoints the broken guarantee without masking the rest.
"""

import math
import time

import numpy as np
import pytest

from fracmin import (
    EnergyParams,
    GridMap,
    MinimizeConfig,
    critical_p,
    degree,
    degree_lower_bound,
    derivative_sign_condition,
    energy,
    energy_gradient,
    identity_energy_closed_form,
    identity_energy_derivative,
    identity_map,
    jp_monotonicity_check,
    minimize,
    moebius_map,
    perturb,
    power_map,
    reciprocal_pair_sum,
    young_variant_check,
)
from fracmin.energy import _digamma_bracket

FOUR_PI_SQ = 4.0 * math.pi * math.pi
# root of B((p-1)/2, 1/2) = 5 pi, from mpmath at 40 digits
REFERENCE_P_PRIME = 1.139210840326630521723


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert passed, f"criterion {number} ({name}) failed {suffix}"


def admissible_map(n, d, amplitude, seed):
    u = perturb(power_map(n, d), amplitude, seed)
    assert degree(u) == d
    return u


def test_criterion_01_critical_exponent():
    started = time.perf_counter()
    rep = critical_p(1e-10)
    elapsed = time.perf_counter() - started
    ok = (
        abs(rep.p_prime - REFERENCE_P_PRIME) <= 1e-12
        and abs(rep.residual_beta) <= 1e-10
        and abs(rep.residual_beta - rep.residual_quadrature) <= 1e-8
        and elapsed < 1.0
    )
    report(
        1,
        "critical exponent",
        ok,
        f"p'={rep.p_prime:.10f}, residual={rep.residual_beta:.2e}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_02_identity_energy_p2(raw_double_sum):
    started = time.perf_counter()
    closed = identity_energy_closed_form(2.0)
    closed_ok = abs(closed - FOUR_PI_SQ) <= 1e-9 * FOUR_PI_SQ
    errors = []
    for n in (64, 128, 256, 512, 1024):
        errors.append(abs(energy(identity_map(n), EnergyParams(2.0)) - closed))
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    within_1pct = errors[-1] <= 0.01 * closed
    elapsed = time.perf_counter() - started
    ok = closed_ok and monotone and within_1pct and elapsed < 10.0
    report(
        2,
        "identity energy at p=2",
        ok,
        f"rel err at n=1024: {errors[-1] / closed:.2e}, {elapsed:.1f} s",
    )


def test_criterion_03_consistency_identity():
    p = critical_p(1e-10).p_prime
    lhs = 5.0 * FOUR_PI_SQ / 2.0 ** (2.0 - p)
    rhs = identity_energy_closed_form(p)
    ok = abs(lhs - rhs) <= 1e-8 * abs(rhs)
    report(3, "five-fold bound meets identity energy", ok, f"rel gap {abs(lhs - rhs) / rhs:.2e}")


def test_criterion_04_monotonicity():
    grid = np.linspace(1.01, 1.99, 100)
    all_negative = all(identity_energy_derivative(float(p)) < 0.0 for p in grid)
    fd_ok = True
    worst = 0.0
    for p in (1.3, 1.5, 1.7):
        step = 1e-6
        fd = (
            identity_energy_closed_form(p + step) - identity_energy_closed_form(p - step)
        ) / (2.0 * step)
        rel = abs(identity_energy_derivative(p) - fd) / abs(fd)
        worst = max(worst, rel)
        fd_ok = fd_ok and rel <= 1e-6
    report(4, "identity energy strictly decreasing", all_negative and fd_ok, f"fd rel {worst:.2e}")


def test_criterion_05_log2_identity():
    # reciprocal_pair_sum is the series of derivative_sign_condition, the
    # second path to the derivative's sign; at p = 2 it is log 2 to the bit.
    # Just below 2, twice the sign condition is the digamma bracket: within
    # 2e-12, twice the series' truncation budget (2.2e-16 apart measured,
    # value -1.6e-3); without its Euler-Maclaurin tail it is 5e-4 off
    series = reciprocal_pair_sum(2.0)
    below = 2.0 * derivative_sign_condition(1.999)
    gap = abs(below - _digamma_bracket(1.999))
    report(
        5,
        "reciprocal pair sum log 2 and sign condition below p=2",
        series == math.log(2.0) and gap <= 2e-12 and below < 0.0,
        f"series err {abs(series - math.log(2.0)):.2e}, 2 dsc(1.999) {below:.3e}, gap to digamma {gap:.1e}",
    )


def test_criterion_06_gradient_correctness():
    started = time.perf_counter()
    step = 1e-6
    worst = 0.0
    ok = True
    for p in (1.2, 1.5, 1.9, 2.0):
        params = EnergyParams(p)
        for seed in range(20):
            u = admissible_map(64, 1, 0.35, seed)
            analytic = energy_gradient(u, params)
            fd = np.empty(u.n)
            for i in range(u.n):
                bump = np.zeros(u.n)
                bump[i] = step
                fd[i] = (
                    energy(GridMap(u.phases + bump), params)
                    - energy(GridMap(u.phases - bump), params)
                ) / (2.0 * step)
            deviation = np.abs(analytic - fd)
            allowance = 1e-5 * np.abs(fd) + 1e-7
            worst = max(worst, float(np.max(deviation - allowance)))
            ok = ok and bool(np.all(deviation <= allowance))
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    report(6, "analytic gradient vs central differences", ok, f"{elapsed:.1f} s")


def test_criterion_07_degree_energy_chain():
    ok = True
    for d in (-2, -1, 0, 1, 2, 3):
        for seed in range(50):
            u = admissible_map(256, d, 0.5, 1000 * (d + 2) + seed)
            e2 = energy(u, EnergyParams(2.0))
            for p in (1.3, 1.6, 2.0):
                ep = energy(u, EnergyParams(p)) if p != 2.0 else e2
                ok = ok and ep >= degree_lower_bound(p, d) * 0.98
                ok = ok and e2 <= 2.0 ** (2.0 - p) * ep * 1.01
    report(7, "winding bound and exponent bridge", ok, "300 maps x 3 exponents")


def test_criterion_08_minimizer_ground_truth():
    started = time.perf_counter()
    result = minimize(MinimizeConfig(p=2.0, degree_target=1, n=256))
    minimizer_ok = (
        result.converged
        and result.final_degree == 1
        and abs(result.final_energy - FOUR_PI_SQ) <= 0.05 * FOUR_PI_SQ
    )
    family_ok = True
    worst = 0.0
    for r in (0.0, 0.2, 0.4):
        value = energy(moebius_map(512, (r, 0.0)), EnergyParams(2.0))
        gap = abs(value - FOUR_PI_SQ) / FOUR_PI_SQ
        worst = max(worst, gap)
        family_ok = family_ok and gap <= 0.01
    elapsed = time.perf_counter() - started
    ok = minimizer_ok and family_ok and elapsed < 120.0
    report(
        8,
        "degree-one minimization at p=2",
        ok,
        f"E={result.final_energy:.4f}, extremal family gap {worst:.4f}, {elapsed:.0f} s",
    )


def test_criterion_09_minimizer_sandwich():
    p_prime = critical_p(1e-10).p_prime
    p_values = [1.2, 1.4, p_prime, 1.8]
    ok = True
    for p in p_values:
        result = minimize(MinimizeConfig(p=p, degree_target=1, n=256))
        ok = ok and result.converged
        ok = ok and degree_lower_bound(p, 1) * 0.98 <= result.final_energy <= identity_energy_closed_form(p) + 1e-9
        # two-sided: E_p(Id) within the run's own error estimate
        ok = ok and abs(result.final_energy / identity_energy_closed_form(p) - 1.0) <= result.error_estimate_rel
    report(9, "minimizer bound sandwich", ok, ", ".join(f"p={p:.3f}" for p in p_values))


def test_criterion_10_inequality_suites():
    rng = np.random.default_rng(42)
    jp_min = math.inf
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        a = rng.uniform(-10.0, 10.0, m)
        b = rng.uniform(-10.0, 10.0, m)
        p = float(rng.uniform(1.05, 1.95))
        jp_min = min(jp_min, jp_monotonicity_check(a, b, p).margin)
    antipodal = 0.0
    for p in (1.1, 1.3, 1.5, 1.7, 1.9):
        check = jp_monotonicity_check(np.array([-1.0, 0.0]), np.array([1.0, 0.0]), p)
        antipodal = max(antipodal, abs(check.margin))
    young_min = math.inf
    for _ in range(1000):
        a = float(rng.uniform(0.0, 100.0))
        b = float(rng.uniform(1e-6, 100.0))
        p = float(rng.uniform(1.05, 1.95))
        young_min = min(young_min, young_variant_check(a, b, p).margin)
    ok = jp_min >= -1e-10 and antipodal <= 1e-9 and young_min >= -1e-12
    report(
        10,
        "inequality margins",
        ok,
        f"jp min {jp_min:.1e}, antipodal {antipodal:.1e}, young min {young_min:.1e}",
    )
