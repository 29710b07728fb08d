"""Discrete fractional Gagliardo energy of circle maps and its gradient.

For a map u on the uniform n-grid the energy is the double sum

    E_p(u) = h^2 * sum_{i != j} |u_i - u_j|^p / c_ij^2,    h = 2*pi/n,

where |u_i - u_j| = 2|sin((phi_i - phi_j)/2)| is the chord distance
between the target points and c_ij = 2|sin((theta_i - theta_j)/2)| the
chord distance between the grid nodes.  The kernel exponent 2 = 1 + s*p
with s = 1/p is what makes the energy scale-critical on the circle.

The diagonal i = j is excluded, which biases the sum low by O(h^(p-1)).
The generalized Euler-Maclaurin expansion of the punctured trapezoid
rule (Navot 1961; Kapur and Rokhlin, SIAM J. Numer. Anal. 34, 1997)
gives the leading error of row i as 2 zeta(2-p) h^(p-1) |phi'_i|^p, and
the energy subtracts it and the expansion's next term T2:

    E_p(u) = (double sum) - 2 zeta(2-p) sum_i |D_i|^p - T2,

with D_i the wrapped neighbour gaps u.gaps, v = D/h, vbar_i =
(D_i + D_{i-1})/2h, phi''_i = (D_i - D_{i-1})/h^2 and

    T2 = h^(p+1) [2 zeta(-p) h sum_i |v_i|^p (1/12 - p v_i^2/24)
         - (p(p-1)/12) (zeta(-p) - zeta(2-p)) h sum_i |vbar_i|^(p-2) phi''_i^2].

The first sum of T2 is Navot's zeta(-p) term; the second is the O(h^2)
error that the gaps bring into sum_i |D_i|^p, its third-derivative part
integrated by parts.  zeta(-p) comes from the functional equation and
zeta(1+p), and is exactly 0 at p = 2.  The two terms cost O(n) work
and two length-n pows per call, and their gradients are stencils in
the gaps: the zeta term adds -2 zeta(2-p) p (w_{i-1} - w_i),
w = |D|^(p-2) D.  The Hessian at z^d, descent's preconditioner, is
computed here too, from the same coefficients (_hessian_symbol).

The fold rule: T2 expands about phi' != 0, so it applies only when
every gap is nonzero and has the sign of the winding, and, as the next
term of a series in the gaps, only when every gap is below a quarter
turn.  Constant, degree-0, folded (some gap of the wrong sign or zero)
and unresolved maps get the zeta term alone.  Where a gap of a
degree-1 map crosses zero or pi/2 the energy therefore jumps by T2,
which is O(h^(p+1)) relative on resolved grids.

On resolved degree +-1 maps the error then falls like h^(p+3): the
closed-form identity-map energy

    E_p(Id) = 2^p * pi * B((p-1)/2, 1/2)

is met to 5.5e-11 relative at n = 64 and to 1.2e-15 at n = 4096 for
p = p' (the zeta term alone left 1.8e-6 and 2.5e-10), and at p = 2,
where zeta(0) = -1/2 and T2 vanishes on the identity, it is exactly
4 pi^2 up to rounding.  At |d| >= 2 the order stays h^(p+1): z^d also
meets itself where u(x) = u(y) with x != y, a singular set that no
diagonal term sees.  The uncorrected double sum alone approaches
E_p(Id) from below, monotonically in n (31% low at n = 4096, p = p'),
and at p = 2 the identity gives 4 pi^2 (1 - 1/n).

One kernel evaluates both the energy and its gradient.  It takes
c_i = cos phi_i and s_i = sin phi_i once per call, O(n) calls, and
forms every pair from the differences D = (c_j - c_i, s_j - s_i):

    |u_i - u_j|^2 = D_0^2 + D_1^2,
    sin(phi_i - phi_j) = s_i D_0 - c_i D_1,

the sine one contraction of D (np.einsum), which the chord needs anyway.
One log of x = |u_i - u_j|^2 gives the energy term |u_i - u_j|^p =
exp((p/2) log x) and the gradient weight |u_i - u_j|^(p-2) =
exp(((p-2)/2) log x), whose product with the sine is the gradient term.
Where targets coincide, x = 0: the energy term is exp(-inf) = 0 with no
mask, and the weight is set to 0.  The gradient adds up each node's
terms over a tile's offsets k with the weights 1/c_k^2 in one more
contraction, so no pass divides the pair terms.  energy_and_gradient
returns both outputs from one pass, bit-identical to energy and
energy_gradient, which compute only what they return.  Descent
(minimize.descend_from) evaluates its start and every line-search trial
with energy_and_gradient, so an accepted trial's gradient is already in
hand, and gradient-check makes one energy_and_gradient pass; the other
CLI subcommands and the checks call energy.  Offsets
k and n-k pair the same nodes, so only k = 1..n//2 is evaluated, in
tiles of B offsets read through strided views, and no index table is
built.  Offset n-k gives node j the negated offset-k term of node j-k:
the gradient reads a tile's terms a second time through a skewed view
whose row q starts q columns early, over a wrap of each row's last B
terms kept in front of the row, and subtracts those sums from the
gradient rotated by the tile's first offset.  The energy's tile holds
two work arrays of B offsets by n nodes and the gradient's three and
the wrap, about 2^17 elements (1 MiB) either way, so the temporaries
take O(n * B) memory.

Accuracy: c_i and s_i are rounded to about eps, so every chord and sine
carries an absolute error of about eps where phase differences would
give a relative one (the sine, against s_i c_j - c_i s_j of the rounded
values, is within 2 eps).  For a chord of length about 2*pi*k/n that is
a relative error of eps*n/(2*pi*k); measured against mpmath on smooth
maps, nearest neighbours are off by at most 9.4e-14 at n = 4096 and
1.8e-12 at n = 65536.  Where two targets nearly coincide the relative
error of their chord grows like eps/|u_i - u_j|; the energy term's
absolute error stays below about p*eps*|u_i - u_j|^(p-1)/c_ij^2, the
gradient term's about eps*|u_i - u_j|^(p-2)/c_ij^2.  exp(e log x)
turns the log's rounding into a relative error of about |e log x| eps,
where pow, which works in extra precision, stays within 1 ulp: against
mpmath the energy term is within 15 ulp for x >= 1e-6 and 109 ulp at
x = 1e-30, where the chord itself is off by far more, and the weight
within 7 and 45 ulp.  The energy's last bits may differ from those of
the pow kernel: on identity, Moebius and perturbed degree-2 maps, n = 64
to 4096, p = 1.05 to 1.99, 77 of 84 energies kept their bits and the
rest moved by at most 3.1e-16 relative.

Each offset's terms are summed over i by numpy's pairwise reduction
along the tile's contiguous node axis, and the per-offset sums by the
same reduction of one vector, so rounding grows like log n.  numpy
reduces each row of a tile on its own: the energy's bits do not depend
on the tile width, on which thread runs a tile, or on whether the
gradient is computed too, and results are reproducible bit for bit on
one numpy build and CPU.  numpy picks its SIMD loops for log and exp
at import, so with AVX-512 disabled the last bits move (as pow's did):
the energies agree to 1e-14 relative.

A call of more than one tile splits its tiles into two fixed halves.
The caller runs the first half in order into gradient rows of its own.
In a process that may run on two or more CPUs, one helper thread,
started on the first such call (and again in a forked child), runs the
second half in order into rows of its own and publishes a checkpoint
(tiles done, a copy of its rows) after each tile; numpy releases the
interpreter lock inside each tile's array operations, so the two run
side by side.  The caller never waits: once its half is done it stops
the helper and runs the second half on from the last checkpoint, so it
repeats at most the tile the helper is in, and a helper whose CPU the
host takes away delays no call.  The gradient is the first half's rows
plus the second half's, and each offset's energy sum has a slot of its
own, so the split, not the thread count or the scheduling, fixes the
bits of every result; concurrent callers share the one helper.

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
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DomainError, _exponent
from .maps import GridMap, is_admissible, power_map
from .quadrature import integral_sin_power
from .special import beta, digamma, zeta

__all__ = [
    "EnergyParams",
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

# |E_p(u_a) / E_p(Id) - 1| / max_gap^(p+1) on Moebius maps, measured up to
# 1.1e-3 for max_gap <= 1 (a up to 0.999, n = 8 .. 2^20, p = 1.05 .. 2)
# for the energy without T2; twice that bounds the error of every
# resolved grid.  Under-resolved grids (max_gap of 2.5 and above) exceed
# it, up to 5.3e-3.  With T2 the estimate is conservative on resolved
# degree +-1 maps, whose error falls like h^(p+3); it still models the
# O(h^(p+1)) error of folded maps and of degree |d| >= 2.
_ERROR_CONSTANT = 2e-3
# relative rounding allowance of the energy, as for the discrete closed form
_ROUNDING = 1e-12
# T2 applies only to maps whose gaps all lie below this (_unfolded_sign)
_SECOND_TERM_MAX_GAP = 0.5 * math.pi

# Elements per tile, 1 MiB, half of a 2 MiB L2 cache: the energy alone takes
# B = _TILE_ELEMENTS // (2n) offsets of all n nodes at a time and the
# gradient _TILE_ELEMENTS // (3n), whose tile holds three work arrays and
# the wrap (_tile_width).  The caller's and the helper's halves of a call
# each work in a tile of their own.
# On a 2-core Xeon guest with line-aligned tiles (_work_space), budgets of
# 2^16, 2^17 and 2^18 elements, timed apart for the energy and the gradient
# (two sweeps, medians of 17 and 21 interleaved rounds, n = 512 to 4096,
# p = 1.13921): serially 2^17 was fastest for the gradient at every n in
# both sweeps, and for the energy at every n but 2048 in the second (2^16
# 8% ahead there, 5% behind in the first); elsewhere 2^16 ran up to 13%
# slower and 2^18 up to 19%.  With the helper 2^18 led the gradient by 2-8%
# at three sizes in one sweep and all four in the other, and 2^16 the
# energy by 9% at 512, each slower elsewhere or serially, so no budget was
# faster at every n in both modes.
_TILE_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class EnergyParams:
    """The exponent p of the energy, 1 < p <= 2."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _exponent(self.p, "the energy"))


@functools.lru_cache(maxsize=64)
def _node_chords_sq(n: int) -> np.ndarray:
    """c_k^2 for the node chords c_k = 2 sin(pi k / n), k = 1..n//2.

    Cached per n and shared by every call, so the array is read-only.
    """
    c = 2.0 * np.sin(math.pi * np.arange(1, n // 2 + 1) / n)
    c_sq = c**2
    c_sq.setflags(write=False)
    return c_sq


@functools.lru_cache(maxsize=64)
def _node_chords_inverse_sq(n: int) -> np.ndarray:
    """1 / c_k^2, k = 1..n//2, the gradient's offset weights; cached and
    read-only as _node_chords_sq is."""
    inverse = 1.0 / _node_chords_sq(n)
    inverse.setflags(write=False)
    return inverse


def _phase_table(phases: np.ndarray) -> np.ndarray:
    """Rows (c, s, -c) of c = cos phi and s = sin phi, each followed by its
    periodic copy; read-only.  _product_terms reads the partners from the
    first two rows and the sine's weights (s, -c) from the last two."""
    n = phases.size
    table = np.empty((3, 2 * n))
    np.cos(phases, out=table[0, :n])
    np.sin(phases, out=table[1, :n])
    np.negative(table[0, :n], out=table[2, :n])
    table[:, n:] = table[:, :n]
    table.setflags(write=False)
    return table


def _product_terms(table: np.ndarray, k0: int, pair: np.ndarray, sine: np.ndarray | None = None) -> None:
    """Pair terms at offsets k = k0..k0+rows-1 from the _phase_table of the map.

    [:, q, i] -> table[:2, i + k0 + q] is a strided view of the partners
    j = (i + k) mod n, k = k0 + q, and no index table is built.  The
    differences D = (c_j - c_i, s_j - s_i) give pair[0, q, i] =
    |u_i - u_j|^2 = D_0^2 + D_1^2 and, when given, sine[q, i] =
    sin(phi_i - phi_j) = s_i D_0 - c_i D_1, contracted over the two rows
    of D; pair[1] is overwritten.
    """
    n = table.shape[1] // 2
    step = table.itemsize
    partners = np.ndarray(pair.shape, np.float64, table, k0 * step, (table.strides[0], step, step))
    np.subtract(partners, table[:2, None, :n], out=pair)
    if sine is not None:
        np.einsum("kqi,ki->qi", pair, table[1:, :n], out=sine)
    np.square(pair, out=pair)
    np.add(pair[0], pair[1], out=pair[0])


def _pair_powers(x: np.ndarray, w: np.ndarray, p: float, value: bool, gradient: bool) -> None:
    """From the chord squares x = |u_i - u_j|^2, the energy terms
    |u_i - u_j|^p = exp((p/2) log x) into x when value is set, and the
    gradient weights |u_i - u_j|^(p-2) = exp(((p-2)/2) log x) into w when
    gradient is; one log serves both, and x is kept unless value is set.

    Where targets coincide, x = 0 and log x = -inf: the energy term is
    exp(-inf) = 0, and the weight, inf, is set to 0 (valid since p > 1).
    """
    logs = w if gradient else x
    with np.errstate(divide="ignore"):
        np.log(x, out=logs)
    if value:
        np.multiply(logs, 0.5 * p, out=x)
        np.exp(x, out=x)
    if gradient:
        # logs are >= log 0 = -inf; on large tiles min costs less than the mask
        coincident = w.min() == -np.inf
        w *= 0.5 * (p - 2.0)
        np.exp(w, out=w)
        if coincident:
            w[w == np.inf] = 0.0


def _kernel(u: GridMap, params: EnergyParams, value: bool, gradient: bool) -> tuple[float | None, np.ndarray | None]:
    """(energy, gradient); each is computed only when its flag is set, else None."""
    if not is_admissible(u):
        raise AdmissibilityError("energy requires a degree-admissible map")
    if params.p == 2.0:
        total, grad = _spectral(u, value, gradient)
    else:
        total, grad = _tiled(u, params.p, value, gradient)
    return _add_diagonal_correction(u, params.p, total, grad)


@functools.lru_cache(maxsize=64)
def _correction_weight(p: float) -> float:
    """-2 zeta(2 - p), the weight of sum_i |gap_i|^p; 1 at p = 2."""
    return -2.0 * zeta(2.0 - p)


@functools.lru_cache(maxsize=64)
def _zeta_negative(p: float) -> float:
    """zeta(-p) = -2 (2 pi)^(-1-p) sin(pi (2 - p) / 2) Gamma(1 + p) zeta(1 + p),
    by the functional equation; exactly 0 at p = 2, where the sine's
    argument is 0."""
    return -2.0 * (2.0 * math.pi) ** (-1.0 - p) * math.sin(0.5 * math.pi * (2.0 - p)) * math.gamma(1.0 + p) * zeta(1.0 + p)


@functools.lru_cache(maxsize=64)
def _second_weights(p: float) -> tuple[float, float, float]:
    """(alpha, beta, gamma) with -T2 = sum_i |D_i|^p (alpha h^2 + beta D_i^2)
    + gamma sum_i |D_i + D_{i-1}|^(p-2) (D_i - D_{i-1})^2; (0, -0, 1/12) at p = 2."""
    z = _zeta_negative(p)
    return -z / 6.0, p * z / 12.0, 2.0 ** (2.0 - p) * p * (p - 1.0) / 12.0 * (z - zeta(2.0 - p))


def _correction_coefficients(p: float, n: int, unfolded: bool) -> tuple[float, float, float]:
    """(flat, beta, gamma) of the diagonal correction on the n-grid.

    The correction, -2 zeta(2 - p) sum_i |D_i|^p less T2 where T2 applies
    (unfolded, by _unfolded_sign), is

        sum_i a_i^p (flat + beta a_i^2) + gamma sum_i S_i^(p-2) B_i^2,

    with a = |D|, S_i = a_i + a_{i-1} and B_i = a_i - a_{i-1}: flat =
    -2 zeta(2 - p) + alpha h^2 and (alpha, beta, gamma) = _second_weights(p).
    Maps that the fold rule excludes get (-2 zeta(2 - p), 0, 0).  The
    energy, its gradient and its Hessian at z^d all read these.
    """
    weight = _correction_weight(p)
    if not unfolded:
        return weight, 0.0, 0.0
    alpha, beta, gamma = _second_weights(p)
    h = 2.0 * math.pi / n
    return weight + alpha * h * h, beta, gamma


def _add_diagonal_correction(u: GridMap, p: float, total: float | None, grad: np.ndarray | None):
    """total and grad plus the diagonal correction of u and its gradient.

    The correction is that of _correction_coefficients.  It is a sum over
    the gaps, so its gradient is q_{i-1} - q_i, with q_i its derivative in
    D_i: sign(D_i) times that in a_i.  Term i of the second sum depends on
    a_i and a_{i-1}.
    """
    gaps = u.gaps
    magnitude = np.abs(gaps)
    rise = magnitude ** (p - 1.0)  # a^(p-1), zero where a gap is
    sign = _unfolded_sign(u)
    flat, beta, gamma = _correction_coefficients(p, gaps.size, sign != 0.0)
    if sign == 0.0:
        # beta = gamma = 0, and the gaps may take either sign
        if total is not None:
            # numpy's pairwise sum of a contiguous array, in a fixed order; at
            # n = 2^20 math.fsum took 80 ms, against 114 ms for the p = 2 kernel
            total += flat * float(np.sum(rise * magnitude))
        if grad is not None:
            slope = np.copysign(rise, gaps, out=rise)
            slope *= flat * p
    else:
        square = magnitude * magnitude
        previous = np.concatenate((magnitude[-1:], magnitude[:-1]))
        span = magnitude + previous
        bend = magnitude - previous
        bent = span ** (p - 2.0)
        bent *= bend  # S_i^(p-2) B_i
        if total is not None:
            # np.dot, as in _spectral: at n = 64 numpy's sum takes 2.7 us, dot 0.6
            coefficient = beta * square
            coefficient += flat
            total += float(np.dot(rise * magnitude, coefficient)) + gamma * float(np.dot(bent, bend))
        if grad is not None:
            # d/da_i of the first sum, of second-sum term i, and of term i + 1
            slope = (beta * (p + 2.0)) * square
            slope += flat * p
            slope *= rise
            curve = bend / span
            curve *= gamma * (p - 2.0)
            curve *= bent  # gamma (p - 2) S_i^(p-3) B_i^2
            bent *= 2.0 * gamma
            slope += curve
            slope += bent
            curve -= bent
            slope[:-1] += curve[1:]
            slope[-1] += curve[0]
            if sign < 0.0:
                np.negative(slope, out=slope)
    if grad is not None:
        grad[1:] += slope[:-1]
        grad[0] += slope[-1]
        grad -= slope
    return total, grad


def _unfolded_sign(u: GridMap) -> float:
    """1 or -1 when every gap of u has that sign and a magnitude in
    (0, pi/2), else 0: T2 applies only where this is nonzero.

    T2 expands about phi' != 0, so constant, degree-0 and folded maps get
    the zeta term alone.  It is the next term of a series in the gaps, so
    maps that move a quarter turn or more between nodes do too: on Moebius
    maps (a up to 0.998, n = 32 to 2048, p = 1.05 to 2) T2 lowered the
    error wherever the largest gap was at most 1.77 and raised it from
    1.98 on (at p = 2; at every p from 2.36).
    """
    low, high = u.gap_range
    if 0.0 < low and high < _SECOND_TERM_MAX_GAP:
        return 1.0
    if -_SECOND_TERM_MAX_GAP < low and high < 0.0:
        return -1.0
    return 0.0


def _hessian_symbol(n: int, p: float, d: int) -> np.ndarray:
    """Eigenvalues lambda_m, m = 0..n//2, of the corrected energy's Hessian
    at power_map(n, d), d != 0.

    At z^d every pair at offset k has the phase difference d k h, so the
    Hessian is circulant: its row is r_k = -2 h^2 F''(d k h) / c_k^2 with
    F(delta) = (2 - 2 cos delta)^(p/2), r_0 = -sum_{k != 0} r_k, and its
    eigenvalues are the rfft of that row.  With X = 2 - 2 cos delta,
    F'' = p X^(p/2-1) (p - 1 - p X / 4), which is 2 cos delta at p = 2.
    Pairs whose targets coincide (n | d k) have F'' = inf for p < 2; the
    kernel drops them, and so does the symbol.  Every gap of z^d has the
    magnitude a = |d h|, so the correction's first sum, sum_i f(a_i) with
    f(a) = a^p (flat + beta a^2), adds f''(a) (2 - 2 cos(2 pi m / n)).
    Its second sum is quadratic in B_i, which is 0 at z^d, so it adds
    2 gamma (2 a)^(p-2) (2 - 2 cos(2 pi m / n))^2.  (flat, beta, gamma)
    come from _correction_coefficients, with the fold rule applied to
    z^d's gaps.
    """
    node_sq = _node_chords_sq(n)  # c_j^2 = 2 - 2 cos(2 pi j / n), j = 1..n//2
    k = np.arange(1, n)
    target = abs(d) * k % n
    target = np.minimum(target, n - target)
    x = np.where(target > 0, node_sq[target - 1], 0.0)
    with np.errstate(divide="ignore"):
        curvature = p * x ** (0.5 * p - 1.0) * (p - 1.0 - 0.25 * p * x)
    if p < 2.0:
        curvature[target == 0] = 0.0
    h = 2.0 * math.pi / n
    row = np.empty(n)
    row[1:] = -2.0 * h * h * curvature / node_sq[np.minimum(k, n - k) - 1]
    row[0] = -row[1:].sum()
    symbol = np.fft.rfft(row).real
    flat, beta, gamma = _correction_coefficients(p, n, _unfolded_sign(power_map(n, d)) != 0.0)
    a = abs(d * h)
    stretch = flat * p * (p - 1.0) * a ** (p - 2.0) + beta * (p + 2.0) * (p + 1.0) * a**p
    bending = 2.0 * gamma * (2.0 * a) ** (p - 2.0)
    symbol[1:] += (stretch + bending * node_sq) * node_sq
    return symbol


@functools.lru_cache(maxsize=64)
def _spectral_weights(n: int) -> np.ndarray:
    """The p = 2 mode weights m (n - m), m = 0..n-1; cached per n and
    shared, so read-only."""
    weights = np.arange(n, dtype=np.float64)
    weights *= n - weights
    weights.setflags(write=False)
    return weights


def _spectral(u: GridMap, value: bool, gradient: bool) -> tuple[float | None, np.ndarray | None]:
    """The p = 2 energy and gradient from one FFT of z = exp(i(phi - phi_0))."""
    n = u.n
    h = 2.0 * math.pi / n
    z = np.exp(1j * (u.phases - u.phases[0]))
    # the mean only moves spectrum[0], whose weight is zero; removing it
    # makes a constant map's spectrum exactly zero at every n
    spectrum = np.fft.fft(z - z.sum() / n)
    weights = _spectral_weights(n)
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
    table = _phase_table(u.phases)
    node_sq = _node_chords_sq(n)
    inverse_sq = _node_chords_inverse_sq(n) if gradient else None
    width = _tile_width(n, gradient)
    # offset n-k acts on node j as the negated offset-k term of node j-k;
    # the middle offset of even n already lists both orders
    mirror = half - 1 if n % 2 == 0 else half

    def buffers():
        # each row of the gradient's term buffer holds a wrap of the row's
        # last width entries in front of the row, for the skewed mirror read
        size = 2 * width * n
        work = _work_space(size + width * (n + width) if gradient else size)
        return work[:size].reshape(2, width, n), work[size:].reshape(width, n + width) if gradient else None

    def tile(k0, work, grad, per_offset):
        """Offsets k0..k0+rows-1: their energy sums into their slots of
        per_offset, their direct less their mirrored sums over the offsets,
        weighted by 1/c_k^2, onto grad."""
        pair, term = work
        rows = min(width, half + 1 - k0)
        offsets = slice(k0 - 1, k0 - 1 + rows)
        x = pair[0, :rows]
        w = pair[1, :rows]
        sine = term[:rows, width:] if gradient else None
        _product_terms(table, k0, pair[:, :rows], sine)
        _pair_powers(x, w, p, value, gradient)
        if value:
            per_offset[offsets] = np.add.reduce(x, axis=1) / node_sq[offsets]
        if not gradient:
            return
        sine *= w
        inverse = inverse_sq[offsets]
        grad += np.einsum("q,qi->i", inverse, sine)
        skewed = min(rows, mirror + 1 - k0)
        if skewed > 0:
            term[:skewed, :width] = term[:skewed, n:]
            # row q read from column width - q: entry [q, i] is the
            # offset-(k0+q) term of node (i - q) mod n, which node (i + k0) mod n subtracts
            step_q, step_i = term.strides
            mirrored = np.ndarray((skewed, n), np.float64, term, width * step_i, (step_q - step_i, step_i))
            shifted = np.einsum("q,qi->i", inverse[:skewed], mirrored)
            grad[k0:] -= shifted[: n - k0]
            grad[:k0] -= shifted[n - k0 :]

    # two fixed halves of the tiles, each added in order into rows of its own
    starts = range(1, half + 1, width)
    split = (len(starts) + 1) // 2
    per_offset = np.empty(half) if value else None
    grad = np.zeros(n) if gradient else None
    if split < len(starts):
        # the helper's half, in arrays of its own: after each tile it
        # publishes a new checkpoint (tiles done, a copy of its rows).  A
        # published checkpoint, like a done tile's slots of helper_offsets,
        # is never changed after it is published.
        helper_offsets = np.empty(half) if value else None
        checkpoint = 0, (np.zeros(n) if gradient else None)
        stopped = False

        def second_half():
            nonlocal checkpoint
            work, helper_grad = buffers(), (np.zeros(n) if gradient else None)
            for done, k0 in enumerate(starts[split:], 1):
                if stopped:
                    return
                try:
                    tile(k0, work, helper_grad, helper_offsets)
                except Exception:  # the caller runs the tile itself, and raises there
                    return
                checkpoint = done, (helper_grad.copy() if gradient else None)

        if _usable_cpus() >= 2:
            _helper().put(second_half)
    work = buffers()
    try:
        for k0 in starts[:split]:
            tile(k0, work, grad, per_offset)
    finally:
        stopped = True  # the helper starts no tile of this call once it sees this
    if split < len(starts):
        # the caller never waits: it goes on from the last checkpoint in a
        # copy of its own, repeating at most the tile the helper is in.  A
        # late helper can never replace a result the caller uses with a
        # different or missing one: it writes only its own arrays and
        # checkpoints that the caller no longer reads.
        done, published = checkpoint
        resume = split + done
        if value:
            kept = slice(split * width, resume * width)
            per_offset[kept] = helper_offsets[kept]
        second = published.copy() if gradient else None
        for k0 in starts[resume:]:
            tile(k0, work, second, per_offset)
        if gradient:
            grad += second
    total = None
    if value:
        # offsets above n//2 repeat those below, while the middle offset of
        # even n already lists each of its unordered pairs in both orders
        if n % 2 == 0:
            total = float(h * h * (2.0 * np.add.reduce(per_offset[:-1]) + per_offset[-1]))
        else:
            total = float(h * h * 2.0 * np.add.reduce(per_offset))
    if gradient:
        grad *= 2.0 * h * h * p
    return total, grad


def _tile_width(n: int, gradient: bool) -> int:
    """Offsets per tile at n nodes: B = _TILE_ELEMENTS // (2n) for the
    energy alone, whose tile has two work arrays of B rows by n, and
    _TILE_ELEMENTS // (3n) for the gradient, whose tile has three and the
    wrap; at least 1, at most n // 2."""
    return min(n // 2, max(1, _TILE_ELEMENTS // ((3 if gradient else 2) * n)))


_work = threading.local()


def _work_space(size: int) -> np.ndarray:
    """size float64 elements of work space for this thread's tiles,
    starting on a 64-byte cache line.

    A tile fills at most _TILE_ELEMENTS elements and the gradient's wrap,
    B^2 <= _TILE_ELEMENTS / 6 (B <= n/2 and 3 B n <= _TILE_ELEMENTS),
    unless one offset row alone is wider; that much is kept per thread
    between calls.  Fresh arrays cost their page faults on every call:
    288 minor faults and about 0.5 ms of a 1.3 ms gradient call at n = 256.

    numpy aligns its arrays to 16 bytes only: three in four start 16, 32
    or 48 bytes past a line, and then every 64-byte vector store of the
    tile's passes splits two lines.  The space is taken 7 elements larger
    and starts at its first line, kept and fresh alike, so the pair rows
    start on lines whenever n % 8 == 0.  On a 2-core Xeon guest (AVX-512),
    at n = 4096 the subtract into the tile fell from 0.60 to 0.30 ns per
    element, the add from 0.29 to 0.24, exp from 0.70 to 0.63 and log from
    0.95 to 0.92; energy calls ran 14-20% and gradient calls 7-12% faster
    at n = 512 to 4096, serially.  Results keep every bit.
    """
    kept = getattr(_work, "space", None)
    if kept is not None and kept.size >= size:
        return kept[:size]
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    space = raw[start : start + size]
    if size <= _TILE_ELEMENTS + _TILE_ELEMENTS // 6:
        _work.space = space
    return space


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_helper_jobs = None
_helper_lock = threading.Lock()


def _helper() -> queue.SimpleQueue:
    """The job queue of the one helper thread, started on first use."""
    global _helper_jobs
    with _helper_lock:
        if _helper_jobs is None:
            jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(jobs,), name="fracmin-tiles", daemon=True).start()
            _helper_jobs = jobs
        return _helper_jobs


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        jobs.get()()


def _forget_helper() -> None:
    """In a forked child, which has no helper thread: start a new one on demand."""
    global _helper_jobs, _helper_lock
    _helper_jobs = None
    _helper_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _error_estimate(u: GridMap, p: float) -> float:
    """Estimated relative error of the energy of u: 2e-3 max_gap^(p+1),
    the O(h^(p+1)) discretization error with h scaled by the map's
    largest stretch, plus 1e-12 for rounding."""
    return _ERROR_CONSTANT * u.max_gap ** (p + 1.0) + _ROUNDING


def energy(u: GridMap, params: EnergyParams) -> float:
    """The double-sum energy E_p(u); non-negative, zero only for constants."""
    return _kernel(u, params, True, False)[0]


def energy_gradient(u: GridMap, params: EnergyParams) -> np.ndarray:
    """Partial derivatives of the energy with respect to each lifted phase.

    d E / d phi_k = 2 h^2 p * sum_{j != k} |u_k - u_j|^(p-2)
                    (u_k - u_j) . tau_k / c_kj^2,

    with tau_k the unit tangent at u_k.  The dot product simplifies to
    sin(phi_k - phi_j); coincident target points contribute zero (valid
    since p > 1).  The diagonal correction adds its gradient
    -2 zeta(2-p) p (w_{k-1} - w_k), w = |D|^(p-2) D, and on unfolded
    maps that of T2.
    """
    return _kernel(u, params, False, True)[1]


def energy_and_gradient(u: GridMap, params: EnergyParams) -> tuple[float, np.ndarray]:
    """(energy(u, params), energy_gradient(u, params)) from one kernel pass.

    Both values are bit-identical to the separate calls; the pass forms
    each pair's differences, chord and log once for the two of them.
    """
    return _kernel(u, params, True, True)


def identity_energy_closed_form(p: float) -> float:
    """E_p(Id) = 2^p * pi * B((p-1)/2, 1/2), for 1 < p <= 2.

    Polar reduction of the double integral gives
    E_p(Id) = 2^p * pi * integral of (sin g)^(p-2) over (0, pi), and the
    substitution w = sin^2 g turns that integral into the Beta value.
    At p = 2 this is exactly 4*pi^2.
    """
    p = _exponent(p, "the closed form")
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
    p = _exponent(p, "the quadrature form")
    return 2.0**p * math.pi * integral_sin_power(p)


# one entry: critical._derivative_paths reads the bracket right after the
# derivative at the same p, and Newton's method for p' moves p every step
@functools.lru_cache(maxsize=1)
def _digamma_bracket(p: float) -> float:
    """2 log 2 + psi((p-1)/2) - psi(p/2), twice the p-derivative of
    log E_p(Id); the package calls digamma nowhere else."""
    return 2.0 * math.log(2.0) + digamma(0.5 * (p - 1.0)) - digamma(0.5 * p)


def identity_energy_derivative(p: float) -> float:
    """d/dp of the closed-form identity energy, for 1 < p < 2.

    Differentiating through the Beta factor with the digamma rule gives

        2^(p-1) * pi * B((p-1)/2, 1/2) * _digamma_bracket(p),

    which is negative on the whole interval: the identity energy strictly
    decreases in p.
    """
    p = _exponent(p, "the derivative", closed=False)
    return 2.0 ** (p - 1.0) * math.pi * beta(0.5 * (p - 1.0), 0.5) * _digamma_bracket(p)


def degree_lower_bound(p: float, d: int) -> float:
    """(4*pi^2 / 2^(2-p)) * |d|: no degree-d map has energy below this.

    Combines the sharp winding bound 4*pi^2 |deg u| <= E_2(u) with the
    chord bound |u(x) - u(y)|^(2-p) <= 2^(2-p) linking E_2 to E_p.
    """
    p = _exponent(p, "the lower bound")
    return FOUR_PI_SQ / 2.0 ** (2.0 - p) * abs(int(d))
