"""1D quadrature for integrands with algebraic endpoint singularities.

The engine is a tanh-sinh (double exponential) transform: node
density increases double-exponentially toward the endpoints, which
absorbs any integrable algebraic singularity x^alpha, alpha > -1, without
scheme-specific weights.  Every integral refines to at most level 12
(step 2^-12 in t) and stops once two successive levels agree to 1e-10.

The engine integrates a batch of intervals, one row each, through one
entry, `_integrate_rows`; a single integral is a batch of one.  The
t-only node factors of levels 0-3, which the stopping rule always
needs, form one joined table, and each deeper level has its own; each
is built once per process, on first use.  The joined table is scaled
to every row, and one integrand call evaluates it and the centres;
each deeper level is one integrand call on the rows still active.
Every row sums its own slice of each level, applies the stopping rule
on its own and leaves the batch once it is met, so it gets the same
nodes and the same bits as alone.  A row shorter than 2^-100, on which
a node's distance from its endpoint may underflow and be dropped, is
integrated alone: the nodes it keeps may differ from the other rows'.

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

# Rows at least this long share a batch: every node has t < _T_MAX, so
# its q exceeds 6e-276 and its distance from the endpoint, at least
# 2^-100 q, is a normal number.  Shorter rows may drop nodes whose
# distance underflows, and are integrated alone.
_SHORTEST_SHARED = 2.0**-100


def _eval_batch(f, x, rows):
    values = np.asarray(f(x, rows), dtype=np.float64)
    if values.shape != x.shape:
        raise DomainError("integrand must return one value per node")
    if np.count_nonzero(np.isfinite(values)) < values.size:
        raise DomainError("integrand evaluated to a non-finite value at an interior node")
    return values


@functools.cache
def _node_table(first, last):
    """The t-only factors of the nodes levels first..last add, joined in
    level order: q, 1 + q, cosh t, (1 + q)^2, each as one row, and the
    number of nodes of each level.

    Level 0 holds t = 1..5 (the centre t = 0 is separate); level k >= 1
    holds the odd multiples of 2^-k below _T_MAX.  q = exp(-pi sinh t)
    lies in (0, 1] and does not overflow for t <= 6.  The arrays are
    shared by every call, so they are read-only.
    """
    levels = []
    for level in range(first, last + 1):
        h = 0.5**level
        levels.append(np.arange(1.0, _T_MAX) if level == 0 else np.arange(1.0, math.ceil(_T_MAX / h), 2.0) * h)
    t = np.concatenate(levels)[None, :]  # one row, for the rows of a batch
    u = 0.5 * math.pi * np.sinh(t)
    q = np.exp(-2.0 * u)
    columns = (q, 1.0 + q, np.cosh(t), (1.0 + q) ** 2)
    for column in columns:
        column.setflags(write=False)
    return columns + (tuple(x.size for x in levels),)


def _scaled(table, a, b, length, head=()):
    """A table's nodes scaled to the rows (a, b) of lengths `length`,
    columns, after the columns `head`: the lower nodes, then the upper
    ones.  Also the weight of each pair and the number of pairs kept per
    level: those whose distance from the endpoint does not underflow to
    0 in any row (rows that would drop one go alone, see
    `_SHORTEST_SHARED`)."""
    q, one_plus_q, cosh_t, one_plus_q_sq, sizes = table
    dist = length * q / one_plus_q  # distance from the nearer endpoint
    # dx/dt = (length/2) (pi/2) cosh(t) sech^2(u), sech^2(u) = 4q/(1+q)^2
    weight = 0.5 * length * (0.5 * math.pi) * cosh_t * 4.0 * q / one_plus_q_sq
    counts = sizes
    if np.count_nonzero(dist) < dist.size:
        keep = (dist > 0.0).all(axis=0)
        dist, weight = dist[:, keep], weight[:, keep]
        counts = np.add.reduceat(keep, np.cumsum((0,) + sizes[:-1])).tolist()
    return np.concatenate((*head, a + dist, b - dist), axis=1), weight, counts


def _pair_terms(values, weight):
    """weight (f(lower) + f(upper)) for values laid out lower then upper."""
    return weight * (values[:, -2 * weight.shape[1] : -weight.shape[1]] + values[:, -weight.shape[1] :])


def _row_estimates(f, a, b, rows, max_level, abs_tol):
    """Successive trapezoid-in-t estimates of the integrals of f over the
    intervals (a[i, 0], b[i, 0]) of the rows `rows`, one level at a time:
    the rows in the level, their estimates, and which of them stop there.

    The step h = 2^-level halves each level, reusing every node already
    evaluated: each level only adds the odd multiples of the new h.
    The stopping rule never stops a row before level _MIN_LEVEL, so the
    centres and the levels up to it are scaled from one joined table and
    evaluated in one integrand call.  Each row sums its own slice of
    each level's pair terms, in the order a level-by-level loop over
    that row alone sums them, and stops once two successive estimates
    from level _MIN_LEVEL on agree to abs_tol; the rest go on.
    """
    first = min(max_level, _MIN_LEVEL)
    length = b - a
    x, weight, counts = _scaled(_node_table(0, first), a, b, length, (a + 0.5 * length,))
    values = _eval_batch(f, x, rows)
    terms = _pair_terms(values, weight)  # no row stops before level `first`
    total = (values[:, :1] * (0.25 * math.pi * length)).ravel().tolist()
    start = 0
    for level in range(max_level + 1):
        if level <= first:
            level_terms = terms[:, start : start + counts[level]]
            start += counts[level]
        else:
            x, weight, _ = _scaled(_node_table(level, level), a, b, length)
            level_terms = _pair_terms(_eval_batch(f, x, rows), weight)
        sums = np.add.reduce(level_terms, axis=1).tolist()
        previous = total
        if level == 0:
            total = [t + s for t, s in zip(previous, sums)]
        else:
            step = 0.5**level
            total = [0.5 * t + s * step for t, s in zip(previous, sums)]
        done = [abs(t - p) <= abs_tol for t, p in zip(total, previous)] if level >= _MIN_LEVEL else ()
        yield rows, total, done
        if any(done):
            if all(done):
                return
            kept = np.logical_not(done)
            rows, a, b, length = rows[kept], a[kept], b[kept], length[kept]
            total = [t for t, stop in zip(total, done) if not stop]


def _integrate_rows(f, a, b) -> list[float]:
    """The integrals of f over the intervals (a[i], b[i]) of two float
    arrays, by the module's tanh-sinh rule: the engine's only entry.

    f(x, rows) returns f at the nodes x of the rows `rows`, one row of x
    per row index, and must be re-entrant; endpoint values are never
    requested.  Rows at least _SHORTEST_SHARED long share one batch, and
    f gets all of them at once; shorter rows are integrated alone.  Each
    result is bit for bit that of its row alone.  Raises
    ConvergenceError when a row has not met the stopping rule at level
    _MAX_LEVEL, and propagates any exception raised by f.  The caller
    checks the intervals.
    """
    results = {}
    short = b - a < _SHORTEST_SHARED
    for rows in [(~short).nonzero()[0], *short.nonzero()[0][:, None]]:
        if rows.size:
            for active, total, done in _row_estimates(f, a[rows, None], b[rows, None], rows, _MAX_LEVEL, _ABS_TOL):
                results.update((row, value) for row, value, stop in zip(active.tolist(), total, done) if stop)
    if len(results) < a.size:
        raise ConvergenceError(f"tanh-sinh quadrature did not reach abs_tol={_ABS_TOL:g} within level {_MAX_LEVEL}")
    return [results[row] for row in range(a.size)]


def _interval(a, b) -> tuple[float, float]:
    """(a, b) as floats, which must be finite with a < b."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise DomainError(f"integration interval must satisfy a < b, got ({a!r}, {b!r})")
    return a, b


def integrate_singular(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Integrate f over (a, b) by the module's fixed tanh-sinh rule.

    f is called on numpy arrays of interior nodes and must be re-entrant;
    endpoint values are never requested.  The result is deterministic.
    Raises ConvergenceError when the tolerance is not met at the deepest
    level, and propagates any exception raised by f.
    """
    a, b = _interval(a, b)
    return _integrate_rows(lambda x, rows: np.asarray(f(x[0]))[None], np.array([a]), np.array([b]))[0]


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
