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

A call of more than one tile, in a process that may run on two or more
CPUs, shares its tiles with one helper thread, started on the first
such call (and again in a forked child); numpy releases the interpreter
lock inside each tile's array operations, so the two run side by side.
Both threads claim tiles from one counter into their own work arrays.
Each tile returns its per-offset energy sums and its gradient row sums,
which the caller stores and adds in tile order.  The bits of every
result are therefore the same with or without the helper and under any
scheduling; concurrent callers share the one helper.  The caller never
waits for the helper: when the next result is still in the helper's
hands and it may claim no other tile, it computes that tile itself, so
a helper whose CPU the host takes away delays no call.

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

# Pair elements per gradient tile: the kernel takes B = max(1,
# _TILE_ELEMENTS // n) offsets of all n nodes at a time, and twice as many
# for the energy alone, whose tile has two work arrays, not four.  Either
# tile's arrays then fill 1 MiB, half of a 2 MiB L2 cache, and the
# caller's and the helper's tiles together hold what one 2^16 tile did.
# On a 2-core Xeon guest 2^18 ran 16-25% slower than 2^16 at n >= 1024,
# and serially 2^15 and 2^16 tie.  With the helper, 2^16 for every tile
# cut the benchmark's kernel wall time further (1.74 -> 1.01 s, against
# 1.22 s at 2^15, one 15 s run each) but raised its peak RSS by 6%,
# against 0.6% at 2^15.
_TILE_ELEMENTS = 1 << 15

# claimed tiles of one shared call that may await the caller at once
_HELD_TILES = 4


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


def _product_terms(cs2: np.ndarray, k0: int, pair: np.ndarray, sine: np.ndarray | None = None) -> None:
    """Pair terms at offsets k = k0..k0+rows-1 from the doubled cos/sin rows cs2.

    cs2 holds (c, c) and (s, s) as rows, so [:, q, i] -> cs2[:, i + k0 + q]
    is a strided view of the partners j = (i + k) mod n, k = k0 + q, and
    no index table is built.  Fills pair[0, q, i] = |u_i - u_j|^2 =
    (c_j - c_i)^2 + (s_j - s_i)^2 and, when given, sine[q, i] =
    sin(phi_i - phi_j) = s_i c_j - c_i s_j; pair[1] is overwritten.  Each
    numpy call treats the cos and the sin half of a step together.
    """
    n = cs2.shape[1] // 2
    step = cs2.itemsize
    partners = np.ndarray(pair.shape, np.float64, cs2, k0 * step, (cs2.strides[0], step, step))
    if sine is not None:
        np.multiply(cs2[::-1, None, :n], partners, out=pair)
        np.subtract(pair[0], pair[1], out=sine)
    np.subtract(partners, cs2[:, None, :n], out=pair)
    np.square(pair, out=pair)
    np.add(pair[0], pair[1], out=pair[0])


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
    cs2 = np.empty((2, 2 * n))
    np.cos(u.phases, out=cs2[0, :n])
    np.sin(u.phases, out=cs2[1, :n])
    cs2[:, n:] = cs2[:, :n]
    cs2.setflags(write=False)
    node_sq = _node_chords_sq(n)
    exponent = 0.5 * (p - 2.0)
    # the energy alone needs two work arrays of a tile's shape, the gradient
    # four (one twice as wide): both tiles fill the same memory
    width = min(half, max(1, (_TILE_ELEMENTS if gradient else 2 * _TILE_ELEMENTS) // n))
    # offset n-k acts on node j as the negated offset-k term of node j-k;
    # the middle offset of even n already lists both orders
    mirror = half - 1 if n % 2 == 0 else half

    def buffers():
        # each row of the gradient's term buffer is followed by its periodic
        # copy, for the skewed mirror read below
        return np.empty((2, width, n)), np.empty((width, 2 * n)) if gradient else None

    def tile(k0, work):
        """Offsets k0..k0+rows-1: their energy sums and the gradient's direct
        and mirrored row sums, each None where absent."""
        pair, term = work
        rows = min(width, half + 1 - k0)
        offsets = slice(k0 - 1, k0 - 1 + rows)
        x = pair[0, :rows]
        w = pair[1, :rows]
        sine = term[:rows, :n] if gradient else None
        _product_terms(cs2, k0, pair[:, :rows], sine)
        with np.errstate(divide="ignore"):
            np.power(x, exponent, out=w)
        # coincident targets contribute zero (valid since p > 1); chord
        # squares are >= 0, and on large tiles min costs less than the mask
        if x.min() == 0.0:
            w[x == 0.0] = 0.0
        # one pow serves both outputs: the energy term is w |u_i - u_j|^2,
        # the gradient term w sin(phi_i - phi_j)
        sums = None
        if value:
            x *= w
            sums = _pairwise_fold(x.T) / node_sq[offsets]
        if not gradient:
            return sums, None, None
        sine *= w
        sine /= node_sq[offsets, None]
        skewed = min(rows, mirror + 1 - k0)
        if skewed <= 0:
            return sums, sine.sum(axis=0), None
        term[:rows, n:] = sine
        # row q read from column n - k0 - q: entry [q, j] is the
        # offset-(k0+q) term of node (j - k0 - q) mod n
        step_q, step_i = term.strides
        mirrored = np.ndarray((skewed, n), np.float64, term, (n - k0) * step_i, (step_q - step_i, step_i))
        return sums, sine.sum(axis=0), mirrored.sum(axis=0)

    starts = range(1, half + 1, width)
    per_offset = np.empty(half) if value else None
    grad = np.zeros(n) if gradient else None
    for k0, (sums, direct, mirrored) in zip(starts, _tile_results(tile, buffers, starts)):
        if value:
            per_offset[k0 - 1 : k0 - 1 + sums.size] = sums
        if gradient:
            grad += direct
            if mirrored is not None:
                grad -= mirrored
    total = None
    if value:
        # offsets above n//2 repeat those below, while the middle offset of
        # even n already lists each of its unordered pairs in both orders
        if n % 2 == 0:
            total = float(h * h * (2.0 * pairwise_sum(per_offset[:-1]) + per_offset[-1]))
        else:
            total = h * h * 2.0 * pairwise_sum(per_offset)
    return total, (2.0 * h * h * p * grad if gradient else None)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _tile_results(tile, buffers, starts: range):
    """tile(k0, work) for each k0 in starts, in that order.

    A call of more than one tile on a process that may use two CPUs
    shares its tiles with the helper thread: both claim tiles from one
    counter, each with its own buffers() as work arrays.  The caller
    receives every result in tile order whoever computed it, so the
    results do not depend on the thread count or the scheduling.
    """
    if len(starts) > 1 and _usable_cpus() >= 2:
        job = _SharedTiles(tile, buffers, starts)
        _helper().put(job)
        return job.results()
    work = buffers()
    return (tile(k0, work) for k0 in starts)


class _SharedTiles:
    """The tiles of one kernel call, claimed in order by its caller and the helper.

    A claimed tile is held until the caller takes its result, and the
    helper claims none while _HELD_TILES are held.  The caller never
    waits: when the next result is still with the helper and it may
    claim nothing more, it runs that tile itself.  A helper that the
    host deschedules mid-tile thus delays no call.
    """

    def __init__(self, tile, buffers, starts: range):
        self._tile = tile
        self._buffers = buffers
        self._starts = starts
        self._claimed = 0
        self._taken = 0
        self._done = {}
        self._changed = threading.Condition()

    def help(self) -> None:
        """The helper's share: claim and run tiles until every tile is claimed."""
        work = None
        while True:
            with self._changed:
                while self._claimed < len(self._starts) and self._claimed - self._taken >= _HELD_TILES:
                    self._changed.wait()
                if self._claimed == len(self._starts):
                    return
                index = self._claimed
                self._claimed += 1
            try:
                if work is None:
                    work = self._buffers()
                result = self._tile(self._starts[index], work)
            except Exception:  # the caller runs the tile itself, and raises there
                continue
            with self._changed:
                if index >= self._taken:
                    self._done[index] = result

    def results(self):
        """Each tile's result in tile order, run by the caller unless the helper has it."""
        work = self._buffers()
        try:
            for taken in range(len(self._starts)):
                while True:
                    with self._changed:
                        if taken in self._done:
                            result = self._done.pop(taken)
                            break
                        free = self._claimed < len(self._starts) and self._claimed - taken < _HELD_TILES
                        if taken < self._claimed and not free:
                            index = taken  # the helper's, unfinished: run it here
                        else:
                            index = self._claimed
                            self._claimed += 1
                    result = self._tile(self._starts[index], work)
                    if index == taken:
                        break
                    with self._changed:
                        self._done[index] = result
                with self._changed:
                    self._taken = taken + 1
                    self._done.pop(taken, None)  # the helper's late copy
                    self._changed.notify()
                yield result
        finally:
            # an abandoned call leaves the helper nothing to claim
            with self._changed:
                self._claimed = len(self._starts)
                self._changed.notify()


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
        jobs.get().help()


def _forget_helper() -> None:
    """In a forked child, which has no helper thread: start a new one on demand."""
    global _helper_jobs, _helper_lock
    _helper_jobs = None
    _helper_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


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
