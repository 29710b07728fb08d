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
from .errors import DomainError
from .maps import GridMap, degree
from .quadrature import integrate_singular

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
    point is inside the segment.  The wedge is exactly rounded
    (`_line_distance`): it has no components in 1-D and vanishes exactly
    for antipodal pairs; for d = 0 each piece integrates s^(p-2) in
    closed form, which quadrature cannot replace for p -> 1, as s^(p-2)
    then holds measurable mass below the smallest tanh-sinh node.  For
    d > 0 each piece is integrated in s = d sinh u (`_foot_piece`),
    smooth however close the line or an endpoint passes to the origin.
    """
    a, b = _segment(a, b)
    length, along = _along_segment(a, b, p)
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
    return a, b


def _along_segment(a: np.ndarray, b: np.ndarray, p: float) -> tuple[float, float]:
    """(|b - a|, the integral of |x|^(p-2) over arc length along the segment).

    The second is segment_weight_integral times |b - a|, formed without
    the division, which overflows for segments near the origin as p -> 1.
    """
    # lengths come from math.hypot: squares underflow below about 1e-154
    delta = b - a
    length = math.hypot(*delta)
    if length == 0.0:
        return 0.0, 0.0
    unit = delta / length
    s_a, s_b = float(a @ unit), float(b @ unit)
    d = _line_distance(a.tolist(), b.tolist(), length)
    pieces = [(0.0, -s_a), (0.0, s_b)] if s_a < 0.0 < s_b else [(min(abs(s_a), abs(s_b)), length)]
    total = 0.0
    for lo, span in pieces:
        if d > 0.0:
            total += _foot_piece(d, lo, span, p)
        else:
            # hi^(p-1) - lo^(p-1) without subtracting nearly equal powers
            drop = -math.expm1((1.0 - p) * _rise_log(0.0, lo, span)) if lo > 0.0 else 1.0
            total += (lo + span) ** (p - 1.0) * drop / (p - 1.0)
    return length, total


# Veltkamp's splitter for 53-bit doubles, 2^27 + 1
_SPLITTER = 134217729.0


def _exact_parts(x: float, y: float) -> tuple[float, float]:
    """(fl(x y), x y - fl(x y)), both exact, for |x|, |y| <= 1 (Dekker).

    The second part loses bits below 2^-1074 when x y < about 2^-969.
    """
    product = x * y
    t = _SPLITTER * x
    x_hi = t - (t - x)
    x_lo = x - x_hi
    t = _SPLITTER * y
    y_hi = t - (t - y)
    y_lo = y - y_hi
    return product, ((x_hi * y_hi - product) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo


def _line_distance(a: list, b: list, length: float) -> float:
    """|a ^ b| / |b - a|, the distance from the origin to the line through a and b.

    Each wedge component a_i b_j - a_j b_i is exactly rounded: a and b
    are scaled by powers of two to largest components in [0.5, 1), and
    math.fsum adds the exact parts of the two products.  The quotient
    thus keeps a relative error of a few eps also for a line that passes
    within eps |a| of the origin, where a wedge of rounded products, or
    of rounded unit vectors, is O(1) off.  1-D lines have no wedge.
    """
    if len(a) < 2:
        return 0.0
    k_a = math.frexp(max(map(abs, a)))[1]
    k_b = math.frexp(max(map(abs, b)))[1]
    a = [math.ldexp(x, -k_a) for x in a]
    b = [math.ldexp(x, -k_b) for x in b]
    parts = []
    for i in range(len(a)):
        for j in range(i):
            ab, ab_low = _exact_parts(a[i], b[j])
            ba, ba_low = _exact_parts(a[j], b[i])
            parts.append(math.fsum((ab, ab_low, -ba, -ba_low)))
    # |a ^ b| = 2^(k_a + k_b) hypot(parts); divide by the length before
    # scaling back, so neither factor overflows on its own
    return math.ldexp(math.hypot(*parts) / math.ldexp(length, -max(k_a, k_b)), min(k_a, k_b))


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


def _foot_piece(d: float, lo: float, span: float, p: float) -> float:
    """The integral of (d^2 + s^2)^((p-2)/2) over s in (lo, lo + span), d > 0, lo >= 0.

    With s = d sinh u it is the integral of (d cosh u)^(p-1) over
    (asinh(lo / d), U), U = asinh(hi / d), taken here in v = U - u:
    d cosh u = (r / 2) e^(-v) (1 + e^(2 (v - U))) with r = d e^U =
    hi + hypot(hi, d).  No factor overflows, though U can pass the 710
    at which cosh does, and d, which may be subnormal, multiplies
    nothing.  U and the width of the range come from `_rise_log`.
    """
    hi = lo + span
    upper = _rise_log(d, 0.0, hi)

    def integrand(v):
        return np.exp((1.0 - p) * v) * (1.0 + np.exp(2.0 * (v - upper))) ** (p - 1.0)

    scale = (0.5 * (hi + math.hypot(hi, d))) ** (p - 1.0)
    return scale * integrate_singular(integrand, 0.0, _rise_log(d, lo, span))


def jp_monotonicity_check(a, b, p: float) -> InequalityCheck:
    """Monotonicity of v -> |v|^(p-2) v for 1 < p < 2:

        <|b|^(p-2) b - |a|^(p-2) a, b - a>
            >= (p-1) |b-a|^2 * integral_0^1 |a + t(b-a)|^(p-2) dt.

    lhs and rhs coincide on antipodal equal-norm pairs.
    """
    p = float(p)
    if not (1.0 < p < 2.0):
        raise DomainError(f"jp check requires 1 < p < 2, got {p!r}")
    a, b = _segment(a, b)
    norm_a = math.hypot(*a)
    norm_b = math.hypot(*b)
    if norm_a == 0.0 and norm_b == 0.0:
        raise DomainError("degenerate input: a = b = 0")
    # |v|^(p-1) times the unit vector: |v|^(p-2) overflows for subnormal |v|
    ja = a / norm_a * norm_a ** (p - 1.0) if norm_a > 0.0 else np.zeros_like(a)
    jb = b / norm_b * norm_b ** (p - 1.0) if norm_b > 0.0 else np.zeros_like(b)
    lhs = float((jb - ja) @ (b - a))
    # |b - a| times the arc-length integral: |b - a|^2 times the mean
    # weight would square an underflowing length and divide by it
    length, along = _along_segment(a, b, p)
    rhs = (p - 1.0) * length * along
    return _check(lhs, rhs)


def young_variant_check(A: float, B: float, p: float) -> InequalityCheck:
    """A^p <= A^2 B^(p-2) + B^p for A >= 0, B > 0, 1 < p < 2."""
    A = float(A)
    B = float(B)
    p = float(p)
    if not (1.0 < p < 2.0):
        raise DomainError(f"young check requires 1 < p < 2, got {p!r}")
    if A < 0.0:
        raise DomainError("A must be >= 0")
    if B <= 0.0:
        raise DomainError("B must be > 0")
    lhs = A * A * B ** (p - 2.0) + B**p
    rhs = A**p
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
