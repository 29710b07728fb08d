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

# the aliases reach the submodules: the functions energy and minimize,
# imported below, shadow the package attributes of the same names
from . import critical as _critical
from . import energy as _energy
from . import errors as _errors
from . import inequalities as _inequalities
from . import maps as _maps
from . import minimize as _minimize
from . import quadrature as _quadrature
from . import special as _special
from .critical import *
from .energy import *
from .errors import *
from .inequalities import *
from .maps import *
from .minimize import *
from .quadrature import *
from .special import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (_critical, _energy, _errors, _inequalities, _maps, _minimize, _quadrature, _special)
    for name in module.__all__
)
