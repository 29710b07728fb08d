"""The critical exponent where the identity-map energy meets 5x the
degree lower bound, and the identity energy's p-derivative, each through
two independent evaluation paths.

The defining equation, after dividing out the common factors, is

    B((p-1)/2, 1/2) = 5*pi    equivalently    integral_0^pi (sin g)^(p-2) dg = 5*pi.

The left side is strictly decreasing and log-convex in p, so Newton's
method on its logarithm, started at the left end of (1.0001, 2), pins the
root; the quadrature path then revalidates the residual independently of
the Beta closed form.  The derivative's bracket has a digamma and a series path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import _digamma_bracket, identity_energy_derivative
from .errors import ConvergenceError, DomainError, _exponent
from .quadrature import integral_sin_power
from .special import beta

__all__ = [
    "CriticalReport",
    "critical_p",
    "derivative_sign_condition",
    "reciprocal_pair_sum",
    "monotonicity_scan",
]

FIVE_PI = 5.0 * math.pi

_BRACKET_LO = 1.0001
_MAX_STEPS = 100

# Direct terms summed before the Euler-Maclaurin tail takes over.  The
# first omitted tail term, -f'''(N)/720 with f'''(N) ~ -6 N^-5, is about
# 8e-18 at N = 1000, below the rounding of the sum itself.
_SERIES_CUTOFF = 1000

# monotonicity_scan sums the series of this many exponents at a time.  On
# the certify benchmark workload blocks of 8 add at most 0.1 MiB of peak
# RSS to one exponent at a time, and blocks of 64 add 1.5 MiB: each
# exponent's terms take 8 KiB per temporary.
_SCAN_BLOCK = 8


@dataclass(frozen=True)
class CriticalReport:
    p_prime: float
    residual_beta: float
    residual_quadrature: float
    iterations: int


def _gap(p: float) -> float:
    return beta(0.5 * (p - 1.0), 0.5) - FIVE_PI


def critical_p(tol: float = 1e-12) -> CriticalReport:
    """Locate the exponent p' solving B((p'-1)/2, 1/2) = 5*pi.

    The gap B((p-1)/2, 1/2) - 5*pi changes sign on (1.0001, 2): both ends
    are constants, and the tests check them.  Newton's method on log B
    runs from p = 1.0001 with the slope _digamma_bracket(p)/2 - log 2
    = (psi((p-1)/2) - psi(p/2))/2.  log B(x, 1/2) is convex and decreasing
    in x, as psi' is decreasing, so in exact arithmetic no step overshoots.
    It stops at the first p with |residual| <= tol whose step was at most
    tol/100, so p' is within about tol/100 of the root, and the residual is
    cross-checked by the singular quadrature of the same integral.  tol lies
    in [1e-13, 1e-4]: the residual floor of the Beta path is about 1.2e-14.
    """
    tol = float(tol)
    if not (1e-13 <= tol <= 1e-4):
        raise DomainError(f"tol must lie in [1e-13, 1e-4], got {tol!r}")
    f = _gap(_BRACKET_LO)
    p = _BRACKET_LO
    for iterations in range(1, _MAX_STEPS + 1):
        step = math.log1p(f / FIVE_PI) / (math.log(2.0) - 0.5 * _digamma_bracket(p))
        p += step
        f = _gap(p)
        if abs(f) <= tol and abs(step) <= tol / 100.0:
            break
    else:
        raise ConvergenceError(f"no root within {_MAX_STEPS} Newton steps: residual {f:.3e}, step {step:.3e}")
    return CriticalReport(
        p_prime=p,
        residual_beta=f,
        residual_quadrature=integral_sin_power(p) - FIVE_PI,
        iterations=iterations,
    )


def reciprocal_pair_sum(p):
    """sum_{n >= 0} 1 / ((2n + p - 1)(2n + p)) with truncation error <= 1e-12.

    The first N = 1000 terms are summed directly (pairwise reduction); the
    tail is integrated by Euler-Maclaurin through the f'(N)/12 correction.
    The remainder is bounded by the first omitted correction,
    |f'''(N)|/720 ~ 8e-18 at this cutoff, so the stated budget holds with
    wide slack and the sum is accurate to rounding (~3e-16 relative).

    For a 1-D array of exponents it returns the array of their sums, the
    direct terms of all of them in one numpy pass.  Each sum is bit for
    bit that of its p alone: np.sum reduces each row of the block
    pairwise, as it reduces a single vector.
    """
    exponents = [_exponent(q, "the series") for q in np.ravel(p).tolist()]
    n = np.arange(_SERIES_CUTOFF, dtype=np.float64)
    column = np.array(exponents)[:, None]
    direct = np.sum(1.0 / ((2.0 * n + column - 1.0) * (2.0 * n + column)), axis=1).tolist()
    big_n = float(_SERIES_CUTOFF)
    sums = []
    for q, head in zip(exponents, direct):
        x0 = 2.0 * big_n + q - 1.0  # f(x) = 1/(2x+p-1) - 1/(2x+p)
        integral_tail = 0.5 * math.log1p(1.0 / x0)
        f_n = 1.0 / (x0 * (x0 + 1.0))
        fprime_n = -2.0 * (1.0 / (x0 * x0) - 1.0 / ((x0 + 1.0) * (x0 + 1.0)))
        sums.append(head + (integral_tail + 0.5 * f_n - fprime_n / 12.0))
    return sums[0] if np.ndim(p) == 0 else np.array(sums)


def derivative_sign_condition(p):
    """log 2 minus the reciprocal pair series at p, or at each p of an array.

    Negative throughout (1, 2) -- each summand decreases in p -- and zero
    at p = 2, where the series telescopes to log 2 exactly.  The sign
    mirrors the sign of the identity-energy derivative, evaluated without
    touching the digamma path.
    """
    return math.log(2.0) - reciprocal_pair_sum(p)


def _derivative_paths(exponents: list[float]) -> list[tuple[float, float, float]]:
    """(identity_energy_derivative(p), the _digamma_bracket it read, and
    2 derivative_sign_condition(p)) for each p of exponents, the series
    of all of them in one call: the bracket again, without digamma, as
    psi((p-1)/2) - psi(p/2) = -2 sum_n 1/((2n+p-1)(2n+p))."""
    digamma_paths = [(identity_energy_derivative(p), _digamma_bracket(p)) for p in exponents]
    series = (2.0 * derivative_sign_condition(np.array(exponents))).tolist()
    return [(*paths, bracket) for paths, bracket in zip(digamma_paths, series)]


def monotonicity_scan(grid_size: int) -> list[tuple[float, float, float, float]]:
    """(p, derivative, digamma bracket, series bracket) rows of
    _derivative_paths on a uniform grid over (1.01, 1.99), _SCAN_BLOCK
    exponents to a call."""
    grid_size = int(grid_size)
    if grid_size < 10:
        raise DomainError(f"grid_size must be >= 10, got {grid_size}")
    grid = np.linspace(1.01, 1.99, grid_size).tolist()
    blocks = (grid[start : start + _SCAN_BLOCK] for start in range(0, grid_size, _SCAN_BLOCK))
    return [(p, *paths) for block in blocks for p, paths in zip(block, _derivative_paths(block))]
