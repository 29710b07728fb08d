"""Energy descent over a prescribed winding class.

The lift parametrization makes the circle constraint automatic, so the
minimization runs as plain gradient descent in phase coordinates.  The
winding number is locally constant under small phase moves; instead of a
constraint, every candidate step must keep the iterate admissible with
the target degree, and is halved until it does (or the run aborts).
Descent therefore certifies the degree of whatever it returns.

At p = 2 the continuum minimizers form the non-compact family of disk
automorphism traces; the finite grid regularizes the associated
concentration, and perturbed restarts guard against the slow plateaus
that family produces.  No attempt is made to resolve the concentration
limit itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import EnergyParams, energy_and_gradient
from .errors import DomainError, _exponent
from .maps import MIN_NODES, GridMap, degree, is_admissible, perturb, power_map

__all__ = ["MinimizeConfig", "MinimizeResult", "descend_from", "minimize"]

_INITIAL_STEP = 1.0
_ARMIJO_SHRINK = 0.5
_ARMIJO_DECREASE = 1e-4
_MAX_HALVINGS = 40
# clamp on the spectral trial step; backtracking recovers from a bad trial
_TRIAL_STEP_RANGE = (1e-6, 1e3)

_RESTART_AMPLITUDE = 0.1


@dataclass(frozen=True)
class MinimizeConfig:
    p: float
    degree_target: int
    n: int
    max_iters: int = 1000
    grad_tol: float = 1e-5
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p", _exponent(self.p, "minimization"))
        if self.n < MIN_NODES:
            raise DomainError(f"n must be >= {MIN_NODES}, got {self.n}")
        if self.n <= 2 * abs(self.degree_target):
            raise DomainError(
                f"degree {self.degree_target} needs n > {2 * abs(self.degree_target)}, got n={self.n}"
            )
        if self.max_iters < 1:
            raise DomainError("max_iters must be >= 1")
        if not (self.grad_tol > 0.0):
            raise DomainError("grad_tol must be > 0")
        if self.restarts < 0:
            raise DomainError("restarts must be >= 0")


@dataclass(frozen=True)
class MinimizeResult:
    """One descent run's outcome.

    termination says why the run stopped: "grad_tol" (converged),
    "max_iters", or "line_search" (no step of the backtracking kept the
    degree and decreased the energy enough).  evaluations counts the
    kernel passes the run made: the start plus every trial step that
    kept the target degree.
    """

    final_map: GridMap
    final_energy: float
    final_degree: int
    iterations: int
    grad_norm: float
    energy_trace: np.ndarray
    termination: str
    evaluations: int

    @property
    def converged(self) -> bool:
        return self.termination == "grad_tol"


def _candidate_degree(candidate: GridMap) -> int | None:
    """Winding number of a candidate map, or None when inadmissible."""
    if not is_admissible(candidate):
        return None
    return degree(candidate)


def descend_from(start: GridMap, config: MinimizeConfig) -> MinimizeResult:
    """One descent run from an explicit admissible starting map.

    Accepted steps must decrease the energy by the Armijo sufficient
    decrease margin and preserve the target degree; violating steps are
    halved up to 40 times, after which the run aborts as non-converged.
    The returned energy trace is therefore non-increasing.

    The backtracking starts from a spectral (Barzilai-Borwein) trial step
    once two gradients are available; the landscape at p = 2 has a
    near-flat valley along the disk-automorphism family, and a constant
    trial step crawls there.
    """
    params = EnergyParams(config.p)
    target = config.degree_target
    if _candidate_degree(start) != target:
        raise DomainError("starting map does not carry the target degree")
    point = start
    # every kernel pass yields the gradient too, so an accepted trial's
    # gradient is already in hand
    current, grad = energy_and_gradient(point, params)
    evaluations = 1
    trace = [current]
    grad_norm = float(np.linalg.norm(grad))
    iterations = 0
    aborted = False
    trial_step = _INITIAL_STEP
    while grad_norm > config.grad_tol and iterations < config.max_iters:
        grad_sq = grad_norm * grad_norm
        step = trial_step
        for _ in range(_MAX_HALVINGS + 1):
            candidate = GridMap(point.phases - step * grad)
            if _candidate_degree(candidate) == target:
                trial, trial_grad = energy_and_gradient(candidate, params)
                evaluations += 1
                if trial <= current - _ARMIJO_DECREASE * step * grad_sq:
                    break
            step *= _ARMIJO_SHRINK
        else:
            aborted = True
            break
        iterations += 1
        previous_grad = grad
        point = candidate
        current = trial
        trace.append(current)
        grad = trial_grad
        grad_norm = float(np.linalg.norm(grad))
        grad_change = grad - previous_grad
        curvature = float(grad_change @ grad_change)
        slope = -step * float(previous_grad @ grad_change)
        if curvature > 0.0 and slope > 0.0:
            trial_step = min(max(slope / curvature, _TRIAL_STEP_RANGE[0]), _TRIAL_STEP_RANGE[1])
        else:
            trial_step = _INITIAL_STEP
    if grad_norm <= config.grad_tol and not aborted:
        termination = "grad_tol"
    elif iterations >= config.max_iters:
        termination = "max_iters"
    else:
        termination = "line_search"
    return MinimizeResult(
        final_map=point,
        final_energy=current,
        final_degree=degree(point),
        iterations=iterations,
        grad_norm=grad_norm,
        energy_trace=np.array(trace),
        termination=termination,
        evaluations=evaluations,
    )


def minimize(config: MinimizeConfig) -> MinimizeResult:
    """Minimize the energy over the degree-d class on the n-grid.

    Runs descent from the canonical power map plus `restarts` perturbed
    copies.  Among converged runs the lowest energy wins (ties toward the
    earlier run); an unconverged run is reported only when nothing
    converged.  Deterministic for a fixed config.  Non-convergence is
    reported through MinimizeResult.converged, not an exception.

    The corrected energy charges the diagonal band that the raw double
    sum omits, so concentrating the winding into a few grid cells no
    longer lowers it, and the perturbed restarts stay regular.  Measured
    at n = 128 with the default 1000 iterations and restart seeds 1-3:
    in degree 1 they converge (grad_tol) after 36-53 iterations at p = 2,
    102-160 at p = 1.5 and 172-236 at p = p' and 1.2, to energies within
    4.4e-7 of E_p(Id), with largest gaps of 0.052-0.054 (h = 0.049); in
    degree 2 at p = 1.5 they stop at max_iters within 5.8e-7 of 2 E_p(Id),
    with largest gaps of 0.11.  Under the uncorrected double sum the degree-1
    restarts concentrated: at p = 1.5 the largest gap reached pi and the
    runs ended in the line search after 480-527 iterations, and the
    degree-2 ones after 145-168.
    """
    base = power_map(config.n, config.degree_target)
    starts = [base]
    for r in range(1, config.restarts + 1):
        starts.append(perturb(base, _RESTART_AMPLITUDE, config.seed + r))
    best_converged = None
    best_any = None
    for start in starts:
        if _candidate_degree(start) != config.degree_target:
            continue  # a perturbed start broke admissibility; skip it
        result = descend_from(start, config)
        if best_any is None or result.final_energy < best_any.final_energy:
            best_any = result
        if result.converged and (
            best_converged is None or result.final_energy < best_converged.final_energy
        ):
            best_converged = result
    if best_any is None:
        raise DomainError("no admissible starting map with the target degree")
    return best_converged if best_converged is not None else best_any

