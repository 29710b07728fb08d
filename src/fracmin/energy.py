"""Discrete fractional Gagliardo energy of circle maps and its gradient.

For a map u on the uniform n-grid the energy is the double sum

    E_p(u) = h^2 * sum_{i != j} |u_i - u_j|^p / c_ij^2,    h = 2*pi/n,

where |u_i - u_j| = 2|sin((phi_i - phi_j)/2)| is the chord distance
between the target points and c_ij = 2|sin((theta_i - theta_j)/2)| the
chord distance between the grid nodes.  The kernel exponent 2 = 1 + s*p
with s = 1/p is what makes the energy scale-critical on the circle.

The diagonal i = j is excluded; the omitted band vanishes as the grid is
refined, and the closed-form identity-map energy

    E_p(Id) = 2^p * pi * B((p-1)/2, 1/2)

quantifies the discretization error exactly.

One kernel evaluates both the energy and its gradient.  It takes
c_i = cos phi_i and s_i = sin phi_i once per call, so it makes O(n)
transcendental calls, and forms every pair from products:

    |u_i - u_j|^2 = (c_j - c_i)^2 + (s_j - s_i)^2,
    sin(phi_i - phi_j) = s_i c_j - c_i s_j.

A single pow, w = |u_i - u_j|^(p-2), gives the energy term
w |u_i - u_j|^2 and the gradient term w sin(phi_i - phi_j), so one pass
yields both: energy_and_gradient returns them bit-identical to energy
and energy_gradient, which compute only what they return.  Descent
(minimize.descend_from) evaluates its start and every line-search trial
with energy_and_gradient, so an accepted trial's gradient is already in
hand; the CLI and the checks call energy and energy_gradient.  Offsets
k and n-k pair the same nodes, so only k = 1..n//2 is evaluated, in
tiles of B offsets read through strided views; the temporaries take
O(n * B) memory and no index table is built.

Accuracy: c_i and s_i are rounded to about eps, so every chord and sine
carries an absolute error of about eps where phase differences would
give a relative one.  For a chord of length about 2*pi*k/n that is a
relative error of eps*n/(2*pi*k); measured against mpmath on smooth
maps, nearest neighbours are off by at most 9.4e-14 at n = 4096 and
1.8e-12 at n = 65536.  Where two targets nearly coincide the relative
error of their chord grows like eps/|u_i - u_j|; the energy term's
absolute error stays below about p*eps*|u_i - u_j|^(p-1)/c_ij^2, the
gradient term's about eps*|u_i - u_j|^(p-2)/c_ij^2.

Each offset's terms are folded over i, and the per-offset sums
combined, in a fixed pairwise-tree order: the energy's bits do not
depend on the tile width, and results are reproducible bit for bit.

At p = 2 the same double sum is computed in O(n log n) time and O(n)
memory instead.  With z_i = exp(i(phi_i - phi_0)), its DFT Z and
lambda_m = m(n - m), the identity
sum_{k=1}^{n-1} sin^2(pi m k/n) / sin^2(pi k/n) = m(n - m) gives

    E_2 = (h^2 / n) sum_m lambda_m |Z_m|^2,
    d E_2 / d phi_i = -2 h^2 Im(z_i conj(IFFT(lambda Z)_i)).

Both outputs come from one spectrum Z.  The energy is a sum of
non-negative terms, so nothing cancels.  Against the tiled form the
energies agree to 7e-16 relative and the gradients to 2e-14 absolute
(n from 8 to 4096).  Against 30-digit mpmath on a perturbed degree-2
map at n = 256, the energy is off by 1.6e-16 relative, as in the tiled
form, and the gradient by 1.2e-14 absolute on max |g| = 0.52, where the
tiled form gives 3.4e-15.  Referencing the
phases to phi_0 keeps rotations by exactly representable angles
bit-for-bit invariant, and removing the mean of z before the FFT makes
a constant map's energy exactly zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DomainError
from .maps import GridMap, is_admissible
from .quadrature import integral_sin_power
from .special import beta, digamma

__all__ = [
    "EnergyParams",
    "pairwise_sum",
    "energy",
    "energy_gradient",
    "energy_and_gradient",
    "identity_energy_closed_form",
    "identity_energy_quadrature",
    "identity_energy_derivative",
    "moebius_energy_closed_form",
    "degree_lower_bound",
]

FOUR_PI_SQ = 4.0 * math.pi * math.pi

# Pair elements per tile: the kernel takes B = max(1, _TILE_ELEMENTS // n)
# offsets of all n nodes at a time.  A tile's four work arrays then stay
# near the size of a 2 MiB L2 cache; 2^18 ran 16-25% slower at n >= 1024
# on a Xeon with 2 MiB of L2 per core.
_TILE_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class EnergyParams:
    """The exponent p of the energy, 1 < p <= 2."""

    p: float

    def __post_init__(self):
        p = float(self.p)
        if not math.isfinite(p) or p <= 1.0 or p > 2.0:
            raise DomainError(f"exponent must satisfy 1 < p <= 2, got {p!r}")
        object.__setattr__(self, "p", p)


def _pairwise_fold(arr: np.ndarray) -> np.ndarray:
    """The sum along axis 0 of a non-empty array, in a fixed binary-tree order."""
    while arr.shape[0] > 1:
        m = arr.shape[0] // 2
        folded = arr[: 2 * m : 2] + arr[1 : 2 * m : 2]
        if arr.shape[0] % 2:
            folded = np.concatenate((folded, arr[-1:]))
        arr = folded
    return arr[0]


def pairwise_sum(values) -> float:
    """Sum in a fixed binary-tree order, independent of any threading."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        return 0.0
    return float(_pairwise_fold(arr))


def _require_admissible(u: GridMap) -> None:
    if not is_admissible(u):
        raise AdmissibilityError("energy requires a degree-admissible map")


@functools.lru_cache(maxsize=64)
def _node_chords_sq(n: int) -> np.ndarray:
    """c_k^2 for the node chords c_k = 2 sin(pi k / n), k = 1..n//2.

    Cached per n and shared by every call, so the array is read-only.
    """
    c = 2.0 * np.sin(math.pi * np.arange(1, n // 2 + 1) / n)
    if np.min(c) <= 0.0:
        # cannot happen on a uniform grid with n >= 8; guards the kernel
        raise DomainError("node chord underflow")
    c_sq = c**2
    c_sq.setflags(write=False)
    return c_sq


def _partners(doubled: np.ndarray, k0: int, rows: int) -> np.ndarray:
    """View [q, i] -> doubled[i + k0 + q] of a twice-repeated array.

    With doubled = (x, x) for a length-n array x, row q lists x at the
    partner (i + k0 + q) mod n of every node i; no index table is built.
    The view is read-only when doubled is.
    """
    n = doubled.size // 2
    step = doubled.itemsize
    return np.ndarray((rows, n), np.float64, doubled, k0 * step, (step, step))


def _product_terms(
    c2: np.ndarray, s2: np.ndarray, k0: int, chord_sq: np.ndarray, scratch: np.ndarray, sine: np.ndarray | None = None
) -> None:
    """Pair terms at offsets k = k0..k0+rows-1 from the doubled cos/sin arrays.

    Fills chord_sq[q, i] = |u_i - u_j|^2 = (c_j - c_i)^2 + (s_j - s_i)^2
    and, when given, sine[q, i] = sin(phi_i - phi_j) = s_i c_j - c_i s_j,
    for the partner j = (i + k) mod n, k = k0 + q; scratch is overwritten.
    """
    n = c2.size // 2
    c, s = c2[:n], s2[:n]
    rows = chord_sq.shape[0]
    cj = _partners(c2, k0, rows)
    sj = _partners(s2, k0, rows)
    if sine is not None:
        np.multiply(s, cj, out=sine)
        sine -= np.multiply(c, sj, out=scratch)
    dc = np.subtract(cj, c, out=chord_sq)
    ds = np.subtract(sj, s, out=scratch)
    dc *= dc
    ds *= ds
    dc += ds


def _kernel(u: GridMap, params: EnergyParams, value: bool, gradient: bool) -> tuple[float | None, np.ndarray | None]:
    """(energy, gradient); each is computed only when its flag is set, else None."""
    _require_admissible(u)
    if params.p == 2.0:
        return _spectral(u, value, gradient)
    return _tiled(u, params.p, value, gradient)


def _spectral(u: GridMap, value: bool, gradient: bool) -> tuple[float | None, np.ndarray | None]:
    """The p = 2 energy and gradient from one FFT of z = exp(i(phi - phi_0))."""
    n = u.n
    h = 2.0 * math.pi / n
    z = np.exp(1j * (u.phases - u.phases[0]))
    # the mean only moves spectrum[0], whose weight is zero; removing it
    # makes a constant map's spectrum exactly zero at every n
    spectrum = np.fft.fft(z - z.sum() / n)
    weights = np.arange(n, dtype=np.float64)
    weights *= n - weights
    total = grad = None
    if value:
        power = np.abs(spectrum)
        power *= power
        total = h * h / n * float(np.dot(weights, power))
    if gradient:
        spectrum *= weights
        field = np.fft.ifft(spectrum)
        np.conjugate(field, out=field)
        field *= z
        grad = -2.0 * h * h * field.imag
    return total, grad


def _tiled(u: GridMap, p: float, value: bool, gradient: bool) -> tuple[float | None, np.ndarray | None]:
    """The product-form double sum, in tiles of offsets, for any p."""
    n = u.n
    half = n // 2
    h = 2.0 * math.pi / n
    c = np.cos(u.phases)
    s = np.sin(u.phases)
    c2 = np.concatenate((c, c))
    s2 = np.concatenate((s, s))
    c2.setflags(write=False)
    s2.setflags(write=False)
    node_sq = _node_chords_sq(n)
    exponent = 0.5 * (p - 2.0)
    width = min(half, max(1, _TILE_ELEMENTS // n))
    chord_sq = np.empty((width, n))
    weight = np.empty((width, n))
    if value:
        per_offset = np.empty(half)
    if gradient:
        # each row of a tile is followed by its periodic copy, for the
        # skewed mirror read below
        term = np.empty((width, 2 * n))
        step_q, step_i = term.strides
        grad = np.zeros(n)
        # offset n-k acts on node j as the negated offset-k term of node
        # j-k; the middle offset of even n already lists both orders
        mirror = half - 1 if n % 2 == 0 else half
    for k0 in range(1, half + 1, width):
        rows = min(width, half + 1 - k0)
        offsets = slice(k0 - 1, k0 - 1 + rows)
        x = chord_sq[:rows]
        w = weight[:rows]
        sine = term[:rows, :n] if gradient else None
        _product_terms(c2, s2, k0, x, w, sine)
        with np.errstate(divide="ignore"):
            np.power(x, exponent, out=w)
        # coincident targets contribute zero (valid since p > 1)
        w[x == 0.0] = 0.0
        # one pow serves both outputs: the energy term is w |u_i - u_j|^2,
        # the gradient term w sin(phi_i - phi_j)
        if value:
            x *= w
            per_offset[offsets] = _pairwise_fold(x.T) / node_sq[offsets]
        if not gradient:
            continue
        sine *= w
        sine /= node_sq[offsets, None]
        grad += sine.sum(axis=0)
        skewed = min(rows, mirror + 1 - k0)
        if skewed > 0:
            term[:rows, n:] = sine
            # row q read from column n - k0 - q: entry [q, j] is the
            # offset-(k0+q) term of node (j - k0 - q) mod n
            mirrored = np.ndarray((skewed, n), np.float64, term, (n - k0) * step_i, (step_q - step_i, step_i))
            grad -= mirrored.sum(axis=0)
    total = None
    if value:
        # offsets above n//2 repeat those below, while the middle offset of
        # even n already lists each of its unordered pairs in both orders
        if n % 2 == 0:
            total = float(h * h * (2.0 * pairwise_sum(per_offset[:-1]) + per_offset[-1]))
        else:
            total = h * h * 2.0 * pairwise_sum(per_offset)
    return total, (2.0 * h * h * p * grad if gradient else None)


def energy(u: GridMap, params: EnergyParams) -> float:
    """The double-sum energy E_p(u); non-negative, zero only for constants."""
    return _kernel(u, params, True, False)[0]


def energy_gradient(u: GridMap, params: EnergyParams) -> np.ndarray:
    """Partial derivatives of the energy with respect to each lifted phase.

    d E / d phi_k = 2 h^2 p * sum_{j != k} |u_k - u_j|^(p-2)
                    (u_k - u_j) . tau_k / c_kj^2,

    with tau_k the unit tangent at u_k.  The dot product simplifies to
    sin(phi_k - phi_j); coincident target points contribute zero (valid
    since p > 1).
    """
    return _kernel(u, params, False, True)[1]


def energy_and_gradient(u: GridMap, params: EnergyParams) -> tuple[float, np.ndarray]:
    """(energy(u, params), energy_gradient(u, params)) from one kernel pass.

    Both values are bit-identical to the separate calls; the pass forms
    each pair's chord and pow once for the two of them.
    """
    return _kernel(u, params, True, True)


def identity_energy_closed_form(p: float) -> float:
    """E_p(Id) = 2^p * pi * B((p-1)/2, 1/2), for 1 < p <= 2.

    Polar reduction of the double integral gives
    E_p(Id) = 2^p * pi * integral of (sin g)^(p-2) over (0, pi), and the
    substitution w = sin^2 g turns that integral into the Beta value.
    At p = 2 this is exactly 4*pi^2.
    """
    p = float(p)
    if not math.isfinite(p) or p <= 1.0 or p > 2.0:
        raise DomainError(f"closed form requires 1 < p <= 2, got {p!r}")
    return 2.0**p * math.pi * beta(0.5 * (p - 1.0), 0.5)


def moebius_energy_closed_form(n: int, a: complex) -> float:
    """The discrete p = 2 energy of moebius_map(n, a), in closed form.

    The trace w(z) = (z - a) / (1 - conj(a) z) has the Fourier
    coefficients (1 - |a|^2) conj(a)^(k-1) at k >= 1 and none at k < 0.
    On the n-grid they alias with period n, which multiplies mode m by
    1 / (1 - conj(a)^n); with x = |a|^2 the spectral form of E_2 becomes

        E_2 = 4 pi^2 (1 - x)^2 sum_{m=1}^{n-1} m (1 - m/n) x^(m-1)
              / |1 - conj(a)^n|^2.

    Every term is positive, and no kernel is involved: it is an
    independent reference for the discrete energy.  At a = 0 it is the
    identity energy 4 pi^2 (n - 1) / n.
    """
    n = int(n)
    a = complex(a)
    if n < 2 or not abs(a) < 1.0:
        raise DomainError(f"closed form requires n >= 2 and |a| < 1, got n={n}, |a|={abs(a)!r}")
    x = abs(a) ** 2
    m = np.arange(1, n, dtype=np.float64)
    series = float(np.sum(m * (1.0 - m / n) * np.power(x, m - 1.0)))
    return FOUR_PI_SQ * (1.0 - x) ** 2 * series / abs(1.0 - a.conjugate() ** n) ** 2


def identity_energy_quadrature(p: float) -> float:
    """Independent evaluation of E_p(Id) through the singular quadrature path."""
    p = float(p)
    if not math.isfinite(p) or p <= 1.0 or p > 2.0:
        raise DomainError(f"quadrature form requires 1 < p <= 2, got {p!r}")
    return 2.0**p * math.pi * integral_sin_power(p)


def identity_energy_derivative(p: float) -> float:
    """d/dp of the closed-form identity energy, for 1 < p < 2.

    Differentiating through the Beta factor with the digamma rule gives

        2^(p-1) * pi * B((p-1)/2, 1/2)
               * (2 log 2 + psi((p-1)/2) - psi(p/2)),

    which is negative on the whole interval: the identity energy strictly
    decreases in p.
    """
    p = float(p)
    if not math.isfinite(p) or p <= 1.0 or p >= 2.0:
        raise DomainError(f"derivative requires 1 < p < 2, got {p!r}")
    bracket = 2.0 * math.log(2.0) + digamma(0.5 * (p - 1.0)) - digamma(0.5 * p)
    return 2.0 ** (p - 1.0) * math.pi * beta(0.5 * (p - 1.0), 0.5) * bracket


def degree_lower_bound(p: float, d: int) -> float:
    """(4*pi^2 / 2^(2-p)) * |d|: no degree-d map has energy below this.

    Combines the sharp winding bound 4*pi^2 |deg u| <= E_2(u) with the
    chord bound |u(x) - u(y)|^(2-p) <= 2^(2-p) linking E_2 to E_p.
    """
    p = float(p)
    if not math.isfinite(p) or p <= 1.0 or p > 2.0:
        raise DomainError(f"lower bound requires 1 < p <= 2, got {p!r}")
    return FOUR_PI_SQ / 2.0 ** (2.0 - p) * abs(int(d))
