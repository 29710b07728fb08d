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

    The integrand is singular only where the segment passes closest to
    the origin; the closest-approach parameter is found by projecting and
    the domain is split there, with each piece reflected so the (possible)
    singularity sits at the exactly representable endpoint 0.  A segment
    through the origin has pieces |b - a|^(p-2) tau^(p-2), which are
    integrated in closed form.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise DomainError("a and b must be 1D vectors of equal positive length")
    delta = b - a
    seg_sq = float(delta @ delta)
    if seg_sq == 0.0:
        if float(a @ a) == 0.0:
            raise DomainError("degenerate input: a = b = 0")
        return float(a @ a) ** (0.5 * (p - 2.0))
    t_star = min(max(-float(a @ delta) / seg_sq, 0.0), 1.0)
    w = a + t_star * delta
    w_sq = float(w @ w)
    w_dot = float(w @ delta)  # ~0 whenever t_star is interior
    exponent = 0.5 * (p - 2.0)
    seg_len = math.sqrt(seg_sq)
    # Scalar segments of opposite sign cross the origin exactly even when
    # the projected foot point rounds to ~1e-16; antipodal vector pairs
    # land on w == 0 exactly.  Both need the exact-ray integral, since
    # near p -> 1 the integral is genuinely sensitive to the minimal
    # distance at any scale.
    through_origin = (w_sq == 0.0 and w_dot == 0.0) or (
        a.size == 1 and float(a[0]) * float(b[0]) < 0.0
    )

    def piece(sign, length):
        if length <= 0.0:
            return 0.0
        if through_origin:
            # |v| = tau * |b - a| exactly, so the piece integrates in closed
            # form.  Quadrature cannot replace it for p -> 1: tau^(p-2) then
            # holds measurable mass below the smallest tanh-sinh node.
            return seg_len ** (p - 2.0) * length ** (p - 1.0) / (p - 1.0)

        def integrand(tau):
            v_sq = w_sq + sign * 2.0 * tau * w_dot + tau * tau * seg_sq
            # v_sq >= (|w| - tau |delta|)^2 >= 0; the floor only absorbs
            # rounding of that cancellation, never a true zero
            return np.maximum(v_sq, 5e-324) ** exponent

        return integrate_singular(integrand, 0.0, length)

    return piece(-1.0, t_star) + piece(+1.0, 1.0 - t_star)


def jp_monotonicity_check(a, b, p: float) -> InequalityCheck:
    """Monotonicity of v -> |v|^(p-2) v for 1 < p < 2:

        <|b|^(p-2) b - |a|^(p-2) a, b - a>
            >= (p-1) |b-a|^2 * integral_0^1 |a + t(b-a)|^(p-2) dt.

    lhs and rhs coincide on antipodal equal-norm pairs.
    """
    p = float(p)
    if not (1.0 < p < 2.0):
        raise DomainError(f"jp check requires 1 < p < 2, got {p!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise DomainError("a and b must be 1D vectors of equal positive length")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 and norm_b == 0.0:
        raise DomainError("degenerate input: a = b = 0")
    ja = a * norm_a ** (p - 2.0) if norm_a > 0.0 else np.zeros_like(a)
    jb = b * norm_b ** (p - 2.0) if norm_b > 0.0 else np.zeros_like(b)
    delta = b - a
    lhs = float((jb - ja) @ delta)
    seg_sq = float(delta @ delta)
    if seg_sq == 0.0:
        rhs = 0.0
    else:
        rhs = (p - 1.0) * seg_sq * segment_weight_integral(a, b, p)
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
