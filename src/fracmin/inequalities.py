"""Executable checks of the elementary inequalities behind the energy bounds.

Each check evaluates both sides numerically and reports the margin
lhs - rhs, which must stay above a small negative tolerance budget on
randomized input populations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyParams, degree_lower_bound, energy
from .errors import DomainError, _exponent
from .maps import GridMap, degree
from .quadrature import _integrate_rows, _interval

__all__ = [
    "InequalityCheck",
    "jp_monotonicity_check",
    "young_variant_check",
    "bbm_degree_check",
    "segment_weight_integral",
]


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float
    rhs: float
    margin: float


def _check(lhs, rhs) -> InequalityCheck:
    return InequalityCheck(lhs=float(lhs), rhs=float(rhs), margin=float(lhs) - float(rhs))


def segment_weight_integral(a, b, p: float) -> float:
    """The integral of |a + t (b - a)|^(p-2) over t in (0, 1), 1 < p < 2.

    Arc length s along the line is measured from the line's closest
    point to the origin, at distance d = |a ^ b| / |b - a|.  With
    e = (b - a) / |b - a| the integral is (1 / |b - a|) times that of
    (d^2 + s^2)^((p-2)/2) over (a.e, b.e), split at s = 0 when that
    point is inside the segment.  The wedge a ^ b is exact in integers
    (`_line_distance`), so d is 0 in 1-D and exactly 0 for antipodal
    pairs; for d = 0 each piece integrates s^(p-2) in closed form,
    which quadrature cannot replace for p -> 1, as s^(p-2) then holds
    measurable mass below the smallest tanh-sinh node.  For d > 0 each
    piece is integrated in s = d sinh u (`_arc_pieces`), smooth however
    close the line or an endpoint passes to the origin.  Endpoints that
    are not finite, or whose norm exceeds half the float range, raise
    DomainError, as does p outside 1 < p < 2.
    """
    p = _exponent(p, "the segment integral", closed=False)
    a, b = _segment(a, b)
    [(length, along)] = _arc_integrals([_arc_pieces(a, b, p)])
    if length == 0.0:
        if not a.any():
            raise DomainError("degenerate input: a = b = 0")
        return math.hypot(*a) ** (p - 2.0)
    return along / length


def _segment(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise DomainError("a and b must be 1D vectors of equal positive length")
    # the integral forms sums up to |a| + |b| <= 2 max(|a|, |b|), which is
    # not finite if an endpoint is not; each norm is tested on its own, as
    # max() passes over a NaN in its second argument
    if not all(math.isfinite(2.0 * math.hypot(*v)) for v in (a, b)):
        raise DomainError("a and b must be finite, with norms below half the float range")
    return a, b


def _arc_pieces(a: np.ndarray, b: np.ndarray, p: float) -> tuple[float, float, list]:
    """The integral of |x|^(p-2) over arc length along the segment, in
    pieces: |b - a|, the sum of the pieces in closed form (d = 0), and
    the quadrature row (p, U, width, scale) of each piece (d > 0).

    The integral is segment_weight_integral times |b - a|, formed
    without the division, which overflows for segments near the origin
    as p -> 1.  `_arc_integrals` adds up the pieces.

    A piece of d > 0 is the integral of (d^2 + s^2)^((p-2)/2) over s in
    (lo, hi), lo >= 0.  With s = d sinh u it is the integral of
    (d cosh u)^(p-1) over (asinh(lo / d), U), U = asinh(hi / d), taken
    here in v = U - u over (0, width): d cosh u = (r / 2) e^(-v)
    (1 + e^(2 (v - U))) with r = d e^U = hi + hypot(hi, d), and scale =
    (r / 2)^(p-1).  No factor overflows, though U can pass the 710 at
    which cosh does, and d, which may be subnormal, multiplies nothing.
    U and the width come from `_rise_log`; a width that underflows to 0
    raises DomainError.
    """
    # lengths come from math.hypot: squares underflow below about 1e-154
    delta = b - a
    length = math.hypot(*delta)
    if length == 0.0:
        return 0.0, 0.0, []
    unit = delta / length
    s_a, s_b = float(a @ unit), float(b @ unit)
    d = _line_distance(a.tolist(), b.tolist(), length)
    pieces = [(0.0, -s_a), (0.0, s_b)] if s_a < 0.0 < s_b else [(min(abs(s_a), abs(s_b)), length)]
    total, rows = 0.0, []
    for lo, span in pieces:
        hi = lo + span
        if d > 0.0:
            _, width = _interval(0.0, _rise_log(d, lo, span))
            rows.append((p, _rise_log(d, 0.0, hi), width, (0.5 * (hi + math.hypot(hi, d))) ** (p - 1.0)))
        else:
            # hi^(p-1) - lo^(p-1) without subtracting nearly equal powers
            drop = -math.expm1((1.0 - p) * _rise_log(0.0, lo, span)) if lo > 0.0 else 1.0
            total += hi ** (p - 1.0) * drop / (p - 1.0)
    return length, total, rows


def _line_distance(a: list, b: list, length: float) -> float:
    """|a ^ b| / |b - a|, the distance from the origin to the line through a and b.

    Each component (a_i b_j - a_j b_i) / |b - a| is formed in integers
    from the exact ratios of the floats and rounded once, by int / int.
    The distance thus keeps a relative error of an eps or so also for a
    line that passes within eps |a| of the origin, where a wedge of
    rounded products, or of rounded unit vectors, is O(1) off.  A 1-D
    line has no components.
    """
    ratios = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in zip(a, b)]
    top, bottom = length.as_integer_ratio()
    parts = []
    for i, ((a_i, a_i_den), (b_i, b_i_den)) in enumerate(ratios):
        for (a_j, a_j_den), (b_j, b_j_den) in ratios[:i]:
            wedge = a_i * b_j * a_j_den * b_i_den - a_j * b_i * a_i_den * b_j_den
            parts.append(wedge * bottom / (a_i_den * b_j_den * a_j_den * b_i_den * top))
    return math.hypot(*parts)


def _rise_log(d: float, lo: float, span: float) -> float:
    """log(r(lo + span) / r(lo)) for r(s) = s + hypot(s, d) > 0.

    That is asinh(hi / d) - asinh(lo / d), or log(hi / lo) at d = 0,
    hi = lo + span.  r(hi) - r(lo) = span (1 + (lo + hi) / (hypot(lo, d)
    + hypot(hi, d))) adds positive terms, so log1p of its ratio to r(lo)
    does not cancel on short spans; logs of r take over if that overflows.
    """
    hi = lo + span
    near, far = math.hypot(lo, d), math.hypot(hi, d)
    growth = span * (1.0 + (lo + hi) / (near + far)) / (lo + near)
    return math.log1p(growth) if math.isfinite(growth) else math.log(hi + far) - math.log(lo + near)


def _arc_integrals(prepared) -> list[tuple[float, float]]:
    """(|b - a|, the arc-length integral) of each `_arc_pieces` result,
    with every row of d > 0 in one quadrature batch: scale times the
    integral of e^((1-p) v) (1 + e^(2 (v - U)))^(p-1) over (0, width)."""
    p, upper, width, scale = np.array([row for _, _, rows in prepared for row in rows]).reshape(-1, 4).T

    def integrand(v, rows):
        p_row, top = p[rows, None], upper[rows, None]
        return np.exp((1.0 - p_row) * v) * (1.0 + np.exp(2.0 * (v - top))) ** (p_row - 1.0)

    integrals = _integrate_rows(integrand, np.zeros(width.size), width)
    feet = (factor * value for factor, value in zip(scale.tolist(), integrals))
    sums = []
    for length, total, rows in prepared:
        for _ in rows:
            total += next(feet)
        sums.append((length, total))
    return sums


def _jp_checks(draws) -> list[InequalityCheck]:
    """jp_monotonicity_check of each (a, b, p) in draws, with the d > 0
    pieces of every segment in one quadrature batch.

    The draws are validated and prepared in order before any integral
    is taken, so a bad draw raises what jp_monotonicity_check raises on
    it, unless an earlier draw's sides overflow: that is found only
    after the integrals.
    """
    prepared, sides = [], []
    with np.errstate(over="ignore"):  # a side that overflows raises DomainError below
        for a, b, p in draws:
            p = _exponent(p, "the jp check", closed=False)
            a, b = _segment(a, b)
            norm_a = math.hypot(*a)
            norm_b = math.hypot(*b)
            if norm_a == 0.0 and norm_b == 0.0:
                raise DomainError("degenerate input: a = b = 0")
            # |v|^(p-1) times the unit vector: |v|^(p-2) overflows for subnormal |v|
            ja = a / norm_a * norm_a ** (p - 1.0) if norm_a > 0.0 else np.zeros_like(a)
            jb = b / norm_b * norm_b ** (p - 1.0) if norm_b > 0.0 else np.zeros_like(b)
            sides.append((p, float((jb - ja) @ (b - a))))
            prepared.append(_arc_pieces(a, b, p))
    checks = []
    for (p, lhs), (length, along) in zip(sides, _arc_integrals(prepared)):
        # |b - a| times the arc-length integral: |b - a|^2 times the mean
        # weight would square an underflowing length and divide by it
        rhs = (p - 1.0) * length * along
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            # |b - a|^p beyond the float range, which _segment's gate allows
            raise DomainError(f"jp check sides overflow: lhs={lhs!r}, rhs={rhs!r}")
        checks.append(_check(lhs, rhs))
    return checks


def jp_monotonicity_check(a, b, p: float) -> InequalityCheck:
    """Monotonicity of v -> |v|^(p-2) v for 1 < p < 2:

        <|b|^(p-2) b - |a|^(p-2) a, b - a>
            >= (p-1) |b-a|^2 * integral_0^1 |a + t(b-a)|^(p-2) dt.

    lhs and rhs coincide on antipodal equal-norm pairs.
    """
    return _jp_checks([(a, b, p)])[0]


def young_variant_check(A: float, B: float, p: float) -> InequalityCheck:
    """A^p <= A^2 B^(p-2) + B^p for A >= 0, B > 0, 1 < p < 2."""
    A = float(A)
    B = float(B)
    p = _exponent(p, "the young check", closed=False)
    if A < 0.0:
        raise DomainError("A must be >= 0")
    if B <= 0.0:
        raise DomainError("B must be > 0")
    try:  # a float power raises OverflowError, where A * A gives inf
        lhs = A * A * B ** (p - 2.0) + B**p
        rhs = A**p
    except OverflowError:
        lhs = rhs = math.inf
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        # a nan or inf A or B, or a side beyond the float range
        raise DomainError(f"young check sides overflow or are not finite: A={A!r}, B={B!r}, p={p!r}")
    return _check(lhs, rhs)


def bbm_degree_check(u: GridMap, p: float) -> InequalityCheck:
    """Energy against the winding lower bound:

        E_p(u) >= (4*pi^2 / 2^(2-p)) |deg u|.

    The margin is reported raw; callers apply the discretization slack
    (2% in the acceptance suite) appropriate to their grid size.
    """
    d = degree(u)
    lhs = energy(u, EnergyParams(p))
    rhs = degree_lower_bound(p, d)
    return _check(lhs, rhs)
