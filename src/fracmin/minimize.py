"""Energy descent over a prescribed winding class.

The lift parametrization makes the circle constraint automatic, so the
minimization runs as unconstrained descent in phase coordinates.  Its
steps are Newton steps with the Hessian frozen at the class's own start
map z^d: on power_map(n, d) the Hessian of the corrected energy is
circulant, so its exact eigenvalues come from one rfft of a closed-form
row, and P^-1 g costs one real FFT pair.  That symbol is
energy._hessian_symbol, which reads the diagonal correction from the
same coefficients as the energy and its gradient.  MinimizeConfig
rejects what it cannot precondition: degree 0, whose minimum is the
constant map with E = 0, and grids too coarse for z^d.  The winding
number is locally constant under small phase moves; instead of a
constraint, every candidate step must keep the iterate admissible with
the target degree, and is halved until it does (or the run aborts).
Descent therefore certifies the degree of whatever it returns.

The continuum minimizers form the non-compact family of disk
automorphism traces, along which the energy is constant; on the grid it
falls slowly as a trace concentrates, by no more than the grid's error.
Descent stops once the decrease it could still make is below that error,
so where along the family a run ends depends on its start.  No attempt
is made to resolve the concentration limit itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .energy import EnergyParams, _error_estimate, _hessian_symbol, energy_and_gradient
from .errors import DomainError, _exponent
from .maps import MIN_NODES, GridMap, perturb, power_map

__all__ = ["MinimizeConfig", "MinimizeResult", "descend_from", "minimize"]

_ARMIJO_SHRINK = 0.5
_ARMIJO_DECREASE = 1e-4
_MAX_HALVINGS = 40
# a run has converged once the decrease a full step predicts is this
# fraction of the energy's estimated discretization error
_STOP_FRACTION = 0.1

_RESTART_AMPLITUDE = 0.1


@dataclass(frozen=True)
class MinimizeConfig:
    """Descent in degree degree_target on the n-grid at exponent p.

    A grid is accepted where _sobolev_symbol(n, p, degree_target) > 0, and
    no rule on n/|d| says where: over d = 1..8, p = 1.0001..2 and n up to
    60|d|, d = 1, 2 accept every n >= 8, d = 4 every n from 14 (p <= 1.1),
    13 (p' to 1.99) or 12 (p = 2), and at d = 8, p = 1.7 the least mode is
    +0.042 at n = 27 but -0.041 at n = 28."""

    p: float
    degree_target: int
    n: int
    max_iters: int = 1000
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p", _exponent(self.p, "minimization"))
        if self.n < MIN_NODES:
            raise DomainError(f"n must be >= {MIN_NODES}, got {self.n}")
        if self.max_iters < 1:
            raise DomainError("max_iters must be >= 1")
        if self.restarts < 0:
            raise DomainError("restarts must be >= 0")
        if self.degree_target == 0:
            raise DomainError("degree 0 is not minimized: its minimum is the constant map, with E = 0")
        if _sobolev_symbol(self.n, self.p, self.degree_target).min() <= 0.0:
            raise DomainError(f"n={self.n} is too coarse for z^{self.degree_target}: its Hessian symbol has a mode <= 0")


@dataclass(frozen=True)
class MinimizeResult:
    """One descent run's outcome.

    termination says why the run stopped: "grad_tol" (converged: the
    decrement fell to a tenth of the error estimate), "max_iters", or
    "line_search" (no step of the backtracking kept the degree and
    decreased the energy enough).  evaluations counts the kernel passes
    the run made: the start plus every trial step that kept the target
    degree.  total_evaluations counts the kernel passes of every run that
    produced this result: minimize's restarts included, a single run's
    own from descend_from.  grad_norm is the Euclidean norm of the final
    gradient, decrement_rel the final g . P^-1 g over the energy, and
    error_estimate_rel the final map's estimated relative energy error.
    """

    final_map: GridMap
    final_energy: float
    final_degree: int
    iterations: int
    grad_norm: float
    energy_trace: np.ndarray
    termination: str
    evaluations: int
    decrement_rel: float
    error_estimate_rel: float
    total_evaluations: int

    @property
    def converged(self) -> bool:
        return self.termination == "grad_tol"


@functools.lru_cache(maxsize=64)
def _sobolev_symbol(n: int, p: float, d: int) -> np.ndarray:
    """The preconditioner P on the rfft modes m = 0..n//2, for descent in degree d != 0.

    P is energy._hessian_symbol(n, p, d) with the modes m <= |d| lifted to
    lambda_{|d|+1}: rotation, the Moebius modes and, for |d| >= 2, the
    discrete saddle modes, on which z^d's Hessian is zero or negative.
    On a grid too coarse for z^d a mode above |d| stays <= 0, and at
    n = 2|d| + 1 no mode lies above |d|, so the lift is 0 there;
    MinimizeConfig rejects both.  Cached per (n, p, d) and shared by
    every run, so the array is read-only.
    """
    symbol = _hessian_symbol(n, p, d)
    symbol[: abs(d) + 1] = symbol[abs(d) + 1] if abs(d) < n // 2 else 0.0
    symbol.setflags(write=False)
    return symbol


def _sobolev_gradient(grad: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """P^-1 grad, applied mode by mode through the real FFT."""
    return np.fft.irfft(np.fft.rfft(grad) / symbol, grad.size)


def descend_from(start: GridMap, config: MinimizeConfig) -> MinimizeResult:
    """One preconditioned descent run from an admissible starting map.

    The run steps along d = P^-1 g, a Sobolev gradient in the sense of
    Neuberger (Yu, Schumacher and Crane precondition repulsive curves the
    same way).  P is the symbol of the energy's Hessian at z^d, which
    energy._hessian_symbol computes and _sobolev_symbol lifts on its
    lowest modes, so near z^d the unit step is a Newton step.  The
    Hessian grows like |m|^(3-p), so plain gradient steps would be
    limited by the highest grid mode.

    Each step backtracks from 1: the trial map's degree must be the target
    (a trial of another degree costs no kernel pass) and the energy must
    fall by the Armijo margin 1e-4 t lambda^2, where lambda^2 = g . P^-1 g
    is the Newton decrement; so the returned energy trace is non-increasing.
    The run stops at the first of three exits, tested once per state:
    "grad_tol" (converged) once lambda^2 <= 0.1 eps E, with eps the energy's
    estimated relative discretization error at the current map, as a step
    could then gain no more than the grid resolves; "max_iters"; and
    "line_search" once 40 halvings found no step.  No tolerance is fixed.

    From perturb(power_map(n, d), 0.1, seed), seeds 1-3, every run
    converged in 1-5 iterations and 2-6 kernel passes, with no halving,
    over n = 32 to 1024, p = 1.05 to 2 and d = 1, 2.
    """
    params = EnergyParams(config.p)
    target = config.degree_target
    if start.degree != target:
        raise DomainError("starting map does not carry the target degree")
    symbol = _sobolev_symbol(start.n, config.p, target)
    point = start
    # every kernel pass yields the gradient too, so an accepted trial's
    # gradient is already in hand
    current, grad = energy_and_gradient(point, params)
    evaluations = 1
    trace = [current]
    iterations = 0
    while True:
        direction = _sobolev_gradient(grad, symbol)
        decrement = float(grad @ direction)
        error_estimate = _error_estimate(point, config.p)
        if decrement <= _STOP_FRACTION * error_estimate * current:
            termination = "grad_tol"
            break
        if iterations >= config.max_iters:
            termination = "max_iters"
            break
        step = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            candidate = GridMap(point.phases - step * direction)
            if candidate.degree == target:
                trial, trial_grad = energy_and_gradient(candidate, params)
                evaluations += 1
                if trial <= current - _ARMIJO_DECREASE * step * decrement:
                    break
            step *= _ARMIJO_SHRINK
        else:
            termination = "line_search"
            break
        iterations += 1
        point, current, grad = candidate, trial, trial_grad
        trace.append(current)
    return MinimizeResult(
        final_map=point,
        final_energy=current,
        final_degree=point.degree,
        iterations=iterations,
        grad_norm=float(np.linalg.norm(grad)),
        energy_trace=np.array(trace),
        termination=termination,
        evaluations=evaluations,
        decrement_rel=decrement / current,
        error_estimate_rel=error_estimate,
        total_evaluations=evaluations,
    )


def minimize(config: MinimizeConfig) -> MinimizeResult:
    """Minimize the energy over the degree-d class on the n-grid.

    Runs descent from the canonical power map plus `restarts` perturbed
    copies.  Among converged runs the lowest energy wins (ties toward the
    earlier run); an unconverged run is reported only when nothing
    converged.  Deterministic for a fixed config.  Non-convergence is
    reported through MinimizeResult.converged, not an exception.

    Measured at n = 128 with restart seeds 1-3, every restart converges
    (grad_tol) without halving a step.  In degree 1 that takes 3
    iterations at p = 2 and p = 1.5, and 3-4 at p = p' and p = 1.2, with
    largest gaps of 0.053-0.056 (h = 0.049).  The restarts stop 1e-11 to
    8.3e-8 above E_p(Id), short of the unperturbed z, which lies within
    3.1e-12 of it and is returned.  In degree 2 at p = 1.5 they take 2-3
    iterations and end from 4.5e-8 below to 2.1e-7 above 2 E_p(Id), with
    largest gaps of 0.11; the unperturbed z^2, 1.3e-6 below, is
    returned.  A whole minimize made 11-15 kernel passes
    (total_evaluations) and took 1-3.5 ms for each of these cases, and
    16 passes and 7 ms at n = 256, p = p' (medians of 15 runs on a 2-core
    Xeon guest).
    Every one of these gaps to d E_p(Id) is inside the run's error
    estimate, which is 2.9e-7 to 3.2e-7 relative at p = 2 and up to
    8.8e-6 in degree 2.
    """
    base = power_map(config.n, config.degree_target)
    starts = [base]
    for r in range(1, config.restarts + 1):
        starts.append(perturb(base, _RESTART_AMPLITUDE, config.seed + r))
    # a perturbed start that broke admissibility is skipped
    runs = [descend_from(start, config) for start in starts if start.degree == config.degree_target]
    # min keeps the earliest of equal energies
    best = min([run for run in runs if run.converged] or runs, key=lambda run: run.final_energy)
    return replace(best, total_evaluations=sum(run.evaluations for run in runs))

