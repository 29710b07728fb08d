"""1D quadrature for integrands with algebraic endpoint singularities.

The engine is a tanh-sinh (double exponential) transform: node
density increases double-exponentially toward the endpoints, which
absorbs any integrable algebraic singularity x^alpha, alpha > -1, without
scheme-specific weights.  Every integral refines to at most level 12
(step 2^-12 in t) and stops once two successive levels agree to 1e-10.

The t-only node factors of levels 0-3, which the stopping rule always
needs, form one joined table, and each deeper level has its own; each
is built once per process, on first use.  A call scales the joined
table to its interval and evaluates it and the centre in one integrand
call; each level then sums its own slice of the pair terms.

Precision note: nodes are generated as exact distances from the nearer
endpoint, so an integrand singular at an endpoint is sampled at full
relative accuracy only when that endpoint is exactly representable with a
negligible ulp-neighborhood (in practice: put the singularity at 0).
`integral_sin_power` folds its domain that way; the segment integrals
of the inequality checks are smooth after their substitution.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, _exponent

__all__ = ["integrate_singular", "integral_sin_power"]

# The refinement depth and the stopping tolerance of every integral.
_MAX_LEVEL = 12
_ABS_TOL = 1e-10

# Truncation of the tanh-sinh node range.  At |t| = 6 the distance from
# the endpoint is ~3e-276 and the node contribution of any integrable
# algebraic singularity is far below double precision.
_T_MAX = 6.0

# The first level whose estimate the stopping rule compares with the one
# before it; coarser estimates are too far from converged to test.
_MIN_LEVEL = 3


def _eval_batch(f, x):
    values = np.asarray(f(x), dtype=np.float64)
    if values.shape != x.shape:
        raise DomainError("integrand must return one value per node")
    if not np.isfinite(values).all():
        raise DomainError("integrand evaluated to a non-finite value at an interior node")
    return values


@functools.cache
def _node_table(first, last):
    """The t-only factors of the nodes levels first..last add, joined in
    level order: q, 1 + q, cosh t, (1 + q)^2, and the index at which
    each level starts.

    Level 0 holds t = 1..5 (the centre t = 0 is separate); level k >= 1
    holds the odd multiples of 2^-k below _T_MAX.  q = exp(-pi sinh t)
    lies in (0, 1] and does not overflow for t <= 6.  The arrays are
    shared by every call, so they are read-only.
    """
    levels = []
    for level in range(first, last + 1):
        h = 0.5**level
        levels.append(np.arange(1.0, _T_MAX) if level == 0 else np.arange(1.0, math.ceil(_T_MAX / h), 2.0) * h)
    t = np.concatenate(levels)
    u = 0.5 * math.pi * np.sinh(t)
    q = np.exp(-2.0 * u)
    table = (q, 1.0 + q, np.cosh(t), (1.0 + q) ** 2, np.cumsum([0] + [x.size for x in levels[:-1]]))
    for column in table:
        column.setflags(write=False)
    return table


def _scaled(table, a, b):
    """A table's nodes scaled to (a, b), lower ones then upper ones, the
    weight of each pair, and the mask of the pairs kept: those whose
    distance from the endpoint does not underflow to 0."""
    q, one_plus_q, cosh_t, one_plus_q_sq, _ = table
    length = b - a
    dist = length * q / one_plus_q  # distance from the nearer endpoint
    # dx/dt = (length/2) (pi/2) cosh(t) sech^2(u), sech^2(u) = 4q/(1+q)^2
    weight = 0.5 * length * (0.5 * math.pi) * cosh_t * 4.0 * q / one_plus_q_sq
    keep = dist > 0.0
    dist, weight = dist[keep], weight[keep]
    return np.concatenate((a + dist, b - dist)), weight, keep


def _pair_terms(values, weight):
    """weight (f(lower) + f(upper)) for values laid out lower then upper."""
    return weight * (values[: weight.size] + values[weight.size :])


def _tanh_sinh_estimates(f, a, b, max_level):
    """Successive trapezoid-in-t estimates, one per refinement level.

    The step h = 2^-level halves each level, reusing every node already
    evaluated: each level only adds the odd multiples of the new h.
    _tanh_sinh never stops before level _MIN_LEVEL, so the centre and
    the levels up to it are scaled from one joined table and evaluated
    in one integrand call.  Each level sums its own slice of the pair
    terms, in the order a level-by-level loop sums them.
    """
    length = b - a
    first = min(max_level, _MIN_LEVEL)
    table = _node_table(0, first)
    x, weight, keep = _scaled(table, a, b)
    values = _eval_batch(f, np.concatenate(([a + 0.5 * length], x)))
    terms = _pair_terms(values[1:], weight)
    counts = np.add.reduceat(keep, table[-1]).tolist()  # pairs kept per level
    total = values[0] * (0.25 * math.pi * length)
    start = 0
    for level in range(max_level + 1):
        if level <= first:
            level_terms = terms[start : start + counts[level]]
            start += counts[level]
        else:
            x, weight, _ = _scaled(_node_table(level, level), a, b)
            level_terms = _pair_terms(_eval_batch(f, x), weight)
        level_sum = float(np.add.reduce(level_terms))
        total = total + level_sum if level == 0 else 0.5 * total + level_sum * 0.5**level
        yield total


def _tanh_sinh(f, a, b, max_level, abs_tol):
    previous = math.inf
    for level, total in enumerate(_tanh_sinh_estimates(f, a, b, max_level)):
        if level >= _MIN_LEVEL and abs(total - previous) <= abs_tol:
            return total
        previous = total
    raise ConvergenceError(
        f"tanh-sinh quadrature did not reach abs_tol={abs_tol:g} within level {max_level}"
    )


def integrate_singular(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Integrate f over (a, b) by the module's fixed tanh-sinh rule.

    f is called on numpy arrays of interior nodes and must be re-entrant;
    endpoint values are never requested.  The result is deterministic.
    Raises ConvergenceError when the tolerance is not met at the deepest
    level, and propagates any exception raised by f.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise DomainError(f"integration interval must satisfy a < b, got ({a!r}, {b!r})")
    return _tanh_sinh(f, a, b, _MAX_LEVEL, _ABS_TOL)


def integral_sin_power(p: float) -> float:
    """The integral of (sin g)^(p-2) over g in (0, pi), for 1 < p <= 2.

    The integrand has endpoint singularities of exponent p - 2 in (-1, 0].
    Folding at pi/2 moves them both onto the endpoint 0, and subtracting
    the exactly integrable leading power g^(p-2) leaves a remainder that
    vanishes like g^p there.  The subtraction matters as p -> 1: the raw
    singularity then concentrates measurable mass at endpoint distances
    below the range of binary64, where no quadrature node can reach.
    """
    p = _exponent(p, "the integral")
    exponent = p - 2.0
    half_pi = 0.5 * math.pi

    def remainder(x):
        # sin(x)^(p-2) - x^(p-2), evaluated without cancellation
        return x**exponent * np.expm1(exponent * np.log(np.sin(x) / x))

    leading = half_pi ** (p - 1.0) / (p - 1.0)
    return 2.0 * (leading + integrate_singular(remainder, 0.0, half_pi))
