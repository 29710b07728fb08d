"""The critical exponent where the identity-map energy meets 5x the
degree lower bound, located through two independent evaluation paths.

The defining equation, after dividing out the common factors, is

    B((p-1)/2, 1/2) = 5*pi    equivalently    integral_0^pi (sin g)^(p-2) dg = 5*pi.

The left side is strictly decreasing in p (the identity energy is), so a
bracketing secant/bisection hybrid on (1.0001, 2) pins the root; the
quadrature path then revalidates the residual independently of the Beta
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import identity_energy_derivative
from .errors import ConsistencyError, ConvergenceError, DomainError
from .quadrature import integral_sin_power
from .special import beta, digamma

__all__ = [
    "CriticalReport",
    "critical_p",
    "derivative_sign_condition",
    "reciprocal_pair_sum",
    "monotonicity_scan",
]

FIVE_PI = 5.0 * math.pi

_BRACKET_LO = 1.0001
_BRACKET_HI = 2.0

# Direct terms summed before the Euler-Maclaurin tail takes over.  The
# first omitted tail term, -f'''(N)/720 with f'''(N) ~ -6 N^-5, is about
# 8e-18 at N = 1000, below the rounding of the sum itself.
_SERIES_CUTOFF = 1000


@dataclass(frozen=True)
class CriticalReport:
    p_prime: float
    residual_beta: float
    residual_quadrature: float
    bracket: tuple[float, float]
    iterations: int


def _gap(p: float) -> float:
    return beta(0.5 * (p - 1.0), 0.5) - FIVE_PI


def critical_p(tol: float = 1e-10) -> CriticalReport:
    """Locate the exponent p' solving B((p'-1)/2, 1/2) = 5*pi.

    The root is bracketed on (1.0001, 2), refined by a secant step with
    bisection fallback until |residual| <= min(tol, 1e-12), and
    cross-checked against the singular-quadrature evaluation of the same
    integral.  tol must lie in [1e-13, 1e-4]; the residual floor of the
    Beta path is about 1.2e-14, so a smaller target is unreachable.
    """
    tol = float(tol)
    if not (1e-13 <= tol <= 1e-4):
        raise DomainError(f"tol must lie in [1e-13, 1e-4], got {tol!r}")
    target = min(tol, 1e-12)
    lo, hi = _BRACKET_LO, _BRACKET_HI
    f_lo, f_hi = _gap(lo), _gap(hi)
    if not (f_lo > 0.0 > f_hi):
        raise ConvergenceError("critical equation lost its sign change on (1.0001, 2)")
    p = lo
    f_p = f_lo
    iterations = 0
    for _ in range(200):
        iterations += 1
        # secant through the current bracket endpoints, clipped to a
        # bisection step whenever it leaves (or crowds) the bracket
        denominator = f_hi - f_lo
        candidate = lo - f_lo * (hi - lo) / denominator if denominator != 0.0 else 0.5 * (lo + hi)
        width = hi - lo
        if not (lo + 0.01 * width < candidate < hi - 0.01 * width):
            candidate = 0.5 * (lo + hi)
        p = candidate
        f_p = _gap(p)
        if abs(f_p) <= target:
            break
        if f_p > 0.0:
            lo, f_lo = p, f_p
        else:
            hi, f_hi = p, f_p
        if hi - lo <= 4.0 * np.finfo(float).eps:
            break
    if abs(f_p) > target:
        raise ConvergenceError(f"root residual {f_p:.3e} above target {target:.3e}")
    residual_quadrature = integral_sin_power(p) - FIVE_PI
    return CriticalReport(
        p_prime=p,
        residual_beta=f_p,
        residual_quadrature=residual_quadrature,
        bracket=(lo, hi),
        iterations=iterations,
    )


def reciprocal_pair_sum(p: float) -> float:
    """sum_{n >= 0} 1 / ((2n + p - 1)(2n + p)) with truncation error <= 1e-12.

    The first N = 1000 terms are summed directly (pairwise reduction); the
    tail is integrated by Euler-Maclaurin through the f'(N)/12 correction.
    The remainder is bounded by the first omitted correction,
    |f'''(N)|/720 ~ 8e-18 at this cutoff, so the stated budget holds with
    wide slack and the sum is accurate to rounding (~3e-16 relative).
    """
    p = float(p)
    if not math.isfinite(p) or p <= 1.0 or p > 2.0:
        raise DomainError(f"series requires 1 < p <= 2, got {p!r}")
    n = np.arange(_SERIES_CUTOFF, dtype=np.float64)
    direct = float(np.sum(1.0 / ((2.0 * n + p - 1.0) * (2.0 * n + p))))
    big_n = float(_SERIES_CUTOFF)
    x0 = 2.0 * big_n + p - 1.0  # f(x) = 1/(2x+p-1) - 1/(2x+p)
    integral_tail = 0.5 * math.log1p(1.0 / x0)
    f_n = 1.0 / (x0 * (x0 + 1.0))
    fprime_n = -2.0 * (1.0 / (x0 * x0) - 1.0 / ((x0 + 1.0) * (x0 + 1.0)))
    tail = integral_tail + 0.5 * f_n - fprime_n / 12.0
    return direct + tail


def derivative_sign_condition(p: float) -> float:
    """log 2 minus the reciprocal pair series at p.

    Negative throughout (1, 2) -- each summand decreases in p -- and zero
    at p = 2, where the series telescopes to log 2 exactly.  The sign
    mirrors the sign of the identity-energy derivative, evaluated without
    touching the digamma path.
    """
    return math.log(2.0) - reciprocal_pair_sum(p)


def monotonicity_scan(grid_size: int) -> list[tuple[float, float]]:
    """identity_energy_derivative on a uniform grid over (1.01, 1.99).

    Every value must be negative; at each grid point the digamma-bracket
    evaluation and the series evaluation of the same quantity must agree
    within 1e-9, otherwise a ConsistencyError is raised.
    """
    grid_size = int(grid_size)
    if grid_size < 10:
        raise DomainError(f"grid_size must be >= 10, got {grid_size}")
    ps = np.linspace(1.01, 1.99, grid_size)
    out = []
    for p in ps:
        p = float(p)
        derivative = identity_energy_derivative(p)
        digamma_path = digamma(0.5 * (p - 1.0)) - digamma(0.5 * p)
        series_path = -2.0 * reciprocal_pair_sum(p)
        mismatch = abs(digamma_path - series_path)
        if mismatch > 1e-9:
            raise ConsistencyError(
                f"digamma and series paths disagree by {mismatch:.3e} at p={p!r}"
            )
        out.append((p, derivative))
    return out
