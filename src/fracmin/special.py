"""Log-gamma, Beta, digamma and zeta evaluation in binary64.

log_gamma is the C library's math.lgamma, and beta is built on it.
digamma is a shift-up recurrence into its asymptotic (Stirling-type)
regime, and zeta an Euler-Maclaurin sum.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["log_gamma", "beta", "digamma", "zeta"]

# B_{2n} / (2n) for the asymptotic series of digamma, n = 1..7.
_DIGAMMA_STIRLING = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

_SHIFT_THRESHOLD = 8.0

# B_{2j} / (2j)! for the Euler-Maclaurin tail of the zeta series, j = 1..7.
_ZETA_BERNOULLI = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    1.0 / 74724249600.0,
)

# Terms k < N of the zeta series are summed directly.  The first omitted
# tail term, B_16/16! s(s+1)...(s+14) N^(-s-15), is below 5e-17 at N = 10
# for every s in [0, 1), where |zeta(s)| >= 1/2, and below 7.1e-17 for s
# in [2, 3], where zeta(s) > 1.2.
_ZETA_CUTOFF = 10


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0: the C library's
    math.lgamma, and inf where even the logarithm overflows (x above
    about 2.6e305)."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def beta(a: float, b: float) -> float:
    """Euler Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b)."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta requires positive arguments, got ({a!r}, {b!r})")
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def digamma(z: float) -> float:
    """Logarithmic derivative of Gamma for z > 0.

    Upward recurrence psi(z) = psi(z+1) - 1/z until the argument reaches 8,
    then the asymptotic expansion
    psi(y) ~ log y - 1/(2y) - sum B_{2n} / (2n y^{2n}).
    """
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"digamma requires finite z > 0, got {z!r}")
    recurrence = 0.0
    y = z
    while y < _SHIFT_THRESHOLD:
        recurrence += 1.0 / y
        y += 1.0
    r = 1.0 / (y * y)
    corr = 0.0
    for c in reversed(_DIGAMMA_STIRLING):
        corr = corr * r + c
    return math.log(y) - 0.5 / y - corr * r - recurrence


def zeta(s: float) -> float:
    """Riemann zeta(s) for 0 <= s < 1, where it is negative, and for 2 <= s <= 3.

    The energy's diagonal corrections need zeta(2 - p) and, through the
    functional equation, zeta(1 + p), for 1 < p <= 2; 1 + p rounds to 2
    at the least such p, 1 + 2^-52, where zeta is pi^2/6.  The terms
    k < N = 10 of sum k^(-s) are summed directly; the tail is integrated
    by Euler-Maclaurin, the integral continued analytically to
    N^(1-s)/(s-1), with the corrections
    B_{2j}/(2j)! s(s+1)...(s+2j-2) N^(-s-2j+1) for j = 1..7.  math.fsum
    adds the pieces with one rounding, so zeta(0) = -1/2 exactly: the
    corrections then vanish and the rest is integer arithmetic.
    """
    s = float(s)
    if not (0.0 <= s < 1.0 or 2.0 <= s <= 3.0):
        raise DomainError(f"zeta requires 0 <= s < 1 or 2 <= s <= 3, got {s!r}")
    big_n = float(_ZETA_CUTOFF)
    pieces = [k**-s for k in range(1, _ZETA_CUTOFF)]
    pieces.append(big_n ** (1.0 - s) / (s - 1.0))
    pieces.append(0.5 * big_n**-s)
    rising = s  # s (s+1) ... (s+2j-2)
    power = big_n ** (-s - 1.0)  # N^(-s-2j+1)
    for j, coefficient in enumerate(_ZETA_BERNOULLI, start=1):
        pieces.append(coefficient * rising * power)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= big_n * big_n
    return math.fsum(pieces)
