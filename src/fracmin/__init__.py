"""Fractional Gagliardo energies of circle-valued maps.

The package computes the scale-critical nonlocal energy
E_p(u) = integral over S^1 x S^1 of |u(x) - u(y)|^p / |x - y|^2 for maps
u: S^1 -> S^1 sampled on uniform grids, together with everything that
hangs off it: winding numbers and their energy lower bounds, the
closed-form identity-map energy and its strict monotonicity in p, the
critical exponent p' ~ 1.1392108 where the identity energy meets five
times the winding bound, elementary inequality verification, and energy
minimization over prescribed winding classes.
"""

from .critical import CriticalReport, critical_p, derivative_sign_condition, monotonicity_scan, reciprocal_pair_sum
from .energy import (
    EnergyParams,
    degree_lower_bound,
    energy,
    energy_and_gradient,
    energy_gradient,
    identity_energy_closed_form,
    identity_energy_derivative,
    identity_energy_quadrature,
    moebius_energy_closed_form,
    pairwise_sum,
)
from .errors import AdmissibilityError, ConsistencyError, ConvergenceError, DomainError
from .inequalities import (
    InequalityCheck,
    bbm_degree_check,
    jp_monotonicity_check,
    segment_weight_integral,
    young_variant_check,
)
from .maps import (
    GridMap,
    degree,
    identity_map,
    is_admissible,
    moebius_map,
    perturb,
    power_map,
    read_map_csv,
    rotated,
    wrap_angle,
    write_map_csv,
)
from .minimize import MinimizeConfig, MinimizeResult, descend_from, minimize
from .quadrature import integral_sin_power, integrate_singular
from .special import EULER_GAMMA, SeriesTail, beta, digamma, digamma_series, log2_series, log_gamma, zeta

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "ConsistencyError",
    "ConvergenceError",
    "CriticalReport",
    "DomainError",
    "EULER_GAMMA",
    "EnergyParams",
    "GridMap",
    "InequalityCheck",
    "MinimizeConfig",
    "MinimizeResult",
    "SeriesTail",
    "bbm_degree_check",
    "beta",
    "critical_p",
    "degree",
    "degree_lower_bound",
    "derivative_sign_condition",
    "descend_from",
    "digamma",
    "digamma_series",
    "energy",
    "energy_and_gradient",
    "energy_gradient",
    "identity_energy_closed_form",
    "identity_energy_derivative",
    "identity_energy_quadrature",
    "identity_map",
    "integral_sin_power",
    "integrate_singular",
    "is_admissible",
    "jp_monotonicity_check",
    "log2_series",
    "log_gamma",
    "minimize",
    "moebius_energy_closed_form",
    "moebius_map",
    "monotonicity_scan",
    "pairwise_sum",
    "perturb",
    "power_map",
    "read_map_csv",
    "reciprocal_pair_sum",
    "rotated",
    "segment_weight_integral",
    "wrap_angle",
    "write_map_csv",
    "young_variant_check",
    "zeta",
]
