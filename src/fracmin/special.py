"""Log-gamma, Beta, digamma and zeta evaluation in binary64.

log_gamma is the C library's math.lgamma, and beta is built on it.
digamma is a shift-up recurrence into its asymptotic (Stirling-type)
regime, and zeta an Euler-Maclaurin sum.  The slowly converging series
representations ``digamma_series`` and ``log2_series`` are kept alongside
as independent validators: they come with rigorous truncation bounds, so
a partial sum plus its tail bound brackets the true value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "EULER_GAMMA",
    "SeriesTail",
    "log_gamma",
    "beta",
    "digamma",
    "zeta",
    "digamma_series",
    "log2_series",
]

EULER_GAMMA = 0.5772156649015328606065

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
# in (2, 3], where zeta(s) > 1.2.
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
    """Riemann zeta(s) for 0 <= s < 1, where it is negative, and for 2 < s <= 3.

    The energy's diagonal corrections need zeta(2 - p) and, through the
    functional equation, zeta(1 + p), for 1 < p <= 2.  The terms k < N = 10 of sum k^(-s) are summed directly; the tail is
    integrated by Euler-Maclaurin, the integral continued analytically
    to N^(1-s)/(s-1), with the corrections
    B_{2j}/(2j)! s(s+1)...(s+2j-2) N^(-s-2j+1) for j = 1..7.  math.fsum
    adds the pieces with one rounding, so zeta(0) = -1/2 exactly: the
    corrections then vanish and the rest is integer arithmetic.
    """
    s = float(s)
    if not (0.0 <= s < 1.0 or 2.0 < s <= 3.0):
        raise DomainError(f"zeta requires 0 <= s < 1 or 2 < s <= 3, got {s!r}")
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


@dataclass(frozen=True)
class SeriesTail:
    """A partial sum together with a rigorous truncation bound.

    partial_sum +/- tail_bound brackets the limit of the series.
    """

    partial_sum: float
    terms_used: int
    tail_bound: float

    def __post_init__(self):
        if self.terms_used < 1:
            raise DomainError("terms_used must be >= 1")
        if not math.isfinite(self.partial_sum):
            raise DomainError("partial_sum must be finite")
        if self.tail_bound < 0.0:
            raise DomainError("tail_bound must be >= 0")

    def brackets(self, value: float) -> bool:
        return abs(value - self.partial_sum) <= self.tail_bound


def digamma_series(z: float, n_terms: int) -> SeriesTail:
    """Truncated series for digamma:
    -gamma + sum_{n < N} (z-1) / ((n+1)(n+z)), with tail bound |z-1| / N.

    The terms all carry the sign of (z - 1), so the partial sum approaches
    digamma(z) monotonically and the bound is rigorous for every z > 0.
    """
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"digamma_series requires finite z > 0, got {z!r}")
    n_terms = int(n_terms)
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    n = np.arange(n_terms, dtype=np.float64)
    terms = (z - 1.0) / ((n + 1.0) * (n + z))
    partial = -EULER_GAMMA + float(np.sum(terms))
    return SeriesTail(
        partial_sum=partial,
        terms_used=n_terms,
        tail_bound=abs(z - 1.0) / n_terms,
    )


def log2_series(n_terms: int) -> SeriesTail:
    """Partial sums of sum_{n >= 0} 1 / ((2n+1)(2n+2)), which converges
    (monotonically from below) to log 2.

    Each term is below 1 / (4 n (n+1)), so the tail after N terms is
    bounded by 1 / (4N).
    """
    n_terms = int(n_terms)
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    n = np.arange(n_terms, dtype=np.float64)
    terms = 1.0 / ((2.0 * n + 1.0) * (2.0 * n + 2.0))
    return SeriesTail(
        partial_sum=float(np.sum(terms)),
        terms_used=n_terms,
        tail_bound=0.25 / n_terms,
    )
