"""Exception types shared across the package."""

__all__ = ["AdmissibilityError", "ConvergenceError", "DomainError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AdmissibilityError(DomainError):
    """A grid map has a phase gap of magnitude >= pi, or one wrapped from
    a neighbor difference above 2^21, so its winding number (and hence
    the energy bookkeeping built on it) is ill-defined at the current
    resolution."""


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to reach the requested tolerance."""


def _exponent(p, what: str, *, closed: bool = True) -> float:
    """p as a float, for an operation defined on 1 < p <= 2 (on 1 < p < 2
    when not closed); DomainError naming `what` otherwise."""
    p = float(p)
    if not (1.0 < p < 2.0 or (closed and p == 2.0)):
        raise DomainError(f"{what} requires 1 < p {'<=' if closed else '<'} 2, got {p!r}")
    return p
