"""Circle-valued maps sampled on a uniform grid, and their winding numbers.

A map u from the circle to itself is stored through a lifted phase field:
node i at angle theta_i = 2*pi*i/n carries a real phase phi_i, and
u(theta_i) = (cos phi_i, sin phi_i).  Storing the lift keeps the winding
number exact integer arithmetic and leaves descent directions
unconstrained.

A map is "degree-admissible" when every cyclic neighbor gap, wrapped to
the principal interval, is strictly inside (-pi, pi); only then is the
discrete winding number well defined at this resolution.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AdmissibilityError, DomainError

__all__ = [
    "GridMap",
    "wrap_angle",
    "identity_map",
    "power_map",
    "moebius_map",
    "degree",
    "is_admissible",
    "perturb",
    "rotated",
    "read_map_csv",
    "write_map_csv",
]

TWO_PI = 2.0 * math.pi

MIN_NODES = 8


def wrap_angle(x):
    """Wrap angles to the principal interval (-pi, pi]; ties at pi map to +pi.

    Angles inside (-pi, pi) come back unchanged, and wrap_angle(-x) =
    -wrap_angle(x) bit for bit wherever the result lies inside, so a
    reflected map has exactly the negated gaps.
    """
    # x + (-2 pi) rint(x / 2 pi) is x - 2 pi round(x / 2 pi) bit for bit;
    # in place, at n = 64 it takes half the time of np.round and np.where
    w = np.asarray(np.rint(np.divide(x, TWO_PI)))
    w *= -TWO_PI
    w += x
    w[w > math.pi] -= TWO_PI
    w[w <= -math.pi] += TWO_PI
    return w


@dataclass(frozen=True, eq=False)
class GridMap:
    """A circle-valued map on the uniform n-point grid, stored as lifted phases."""

    phases: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=np.float64).copy()
        if phases.ndim != 1 or phases.size < MIN_NODES:
            raise DomainError(f"a grid map needs at least {MIN_NODES} nodes, got shape {phases.shape}")
        if not np.all(np.isfinite(phases)):
            raise DomainError("phases must all be finite")
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

    @property
    def n(self) -> int:
        return self.phases.size

    @property
    def theta(self) -> np.ndarray:
        """Grid angles theta_i = 2*pi*i/n."""
        return TWO_PI * np.arange(self.n) / self.n

    # the map is frozen and its phases read-only, so no cache goes stale
    @cached_property
    def gaps(self) -> np.ndarray:
        """Cyclic neighbor phase gaps wrapped to (-pi, pi]; read-only."""
        phases = self.phases
        gaps = wrap_angle(np.concatenate((phases[1:], phases[:1])) - phases)
        gaps.setflags(write=False)
        return gaps

    @cached_property
    def winding(self) -> float:
        """The unrounded winding: the gap sum over 2*pi."""
        return float(np.sum(self.gaps)) / TWO_PI

    @cached_property
    def admissible(self) -> bool:
        """True when every wrapped neighbor gap is strictly inside (-pi, pi)."""
        return bool(np.abs(self.gaps).max() < math.pi)

    @cached_property
    def degree(self) -> int | None:
        """The winding rounded to an integer; None when the map is not
        admissible or its winding lies 1e-9 or more from an integer."""
        d = round(self.winding)
        return d if self.admissible and abs(self.winding - d) < 1e-9 else None


def is_admissible(u: GridMap) -> bool:
    """True when every wrapped neighbor gap is strictly inside (-pi, pi)."""
    return u.admissible


def degree(u: GridMap) -> int:
    """Discrete winding number u.degree, the winding rounded to the nearest integer.

    Raises AdmissibilityError where u.degree is None: when some gap
    reaches pi in magnitude (the winding is then ill-defined at this
    resolution) or when the rounding residual exceeds 1e-9.
    """
    if u.degree is not None:
        return u.degree
    if not u.admissible:
        raise AdmissibilityError("map has a neighbor phase gap of magnitude >= pi; winding number undefined")
    raise AdmissibilityError(f"winding residual {math.remainder(u.winding, 1.0):.3e} exceeds 1e-9")


def identity_map(n: int) -> GridMap:
    """phi_i = theta_i; winds once counterclockwise."""
    return power_map(n, 1)


def power_map(n: int, d: int) -> GridMap:
    """phi_i = d * theta_i, the canonical degree-d representative.

    Admissibility of the d*2*pi/n gaps requires n > 2|d|.
    """
    n = int(n)
    d = int(d)
    if n <= 2 * abs(d):
        raise DomainError(f"degree {d} needs n > {2 * abs(d)} nodes, got n={n}")
    return GridMap(d * TWO_PI * np.arange(n) / n)


def moebius_map(n: int, a) -> GridMap:
    """Boundary trace of the disk automorphism z -> (z - a) / (1 - conj(a) z).

    a may be a complex number or an (x, y) pair with |a| < 1.  The phases
    are a continuous lift of the argument.  The trace has degree one, and
    so must its sample: a grid too coarse for the trace's jump near a/|a|
    (as n = 9 for |a| = 0.999, whose lift winds 0 times) raises DomainError.
    """
    n = int(n)
    a = complex(a[0], a[1]) if isinstance(a, (tuple, list)) else complex(a)
    if not (abs(a) < 1.0):
        raise DomainError(f"moebius parameter must lie in the open unit disk, got |a|={abs(a)!r}")
    z = np.exp(1j * TWO_PI * np.arange(n) / n)
    w = (z - a) / (1.0 - np.conj(a) * z)
    u = GridMap(np.unwrap(np.angle(w)))
    if u.degree != 1:
        raise DomainError(f"{n} nodes miss the Moebius trace's jump at |a|={abs(a)!r}: the sample has no degree one")
    return u


def perturb(u: GridMap, amplitude: float, seed: int) -> GridMap:
    """Add a smooth periodic phase field built from five random Fourier modes.

    Each cosine/sine coefficient is drawn uniformly from
    [-amplitude, amplitude]; the draw is deterministic for a fixed seed.
    amplitude must be >= 0, and 10 * amplitude, a bound of the sum, finite.
    """
    amplitude = float(amplitude) + 0.0  # -0.0 becomes 0.0, which the draw accepts
    if not (amplitude >= 0.0 and math.isfinite(10.0 * amplitude)):
        raise DomainError(f"amplitude must be >= 0 with 10 * amplitude finite, got {amplitude!r}")
    rng = np.random.default_rng(int(seed) % 2**63)  # any integer seed is accepted
    coeffs = rng.uniform(-amplitude, amplitude, size=(5, 2))
    theta = u.theta
    delta = np.zeros(u.n)
    for m, (c, s) in enumerate(coeffs, start=1):
        delta += c * np.cos(m * theta) + s * np.sin(m * theta)
    return GridMap(u.phases + delta)


def rotated(u: GridMap, angle: float) -> GridMap:
    """Rotate the target circle: add a constant to every phase."""
    return GridMap(u.phases + float(angle))


def write_map_csv(u: GridMap, path) -> None:
    """Write `theta,phase` rows in radians with 17 significant digits."""
    theta = u.theta
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise DomainError(f"cannot write map file {str(path)!r}: {exc.strerror}") from exc
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "phase"])
        for t, phi in zip(theta, u.phases):
            writer.writerow([f"{t:.17g}", f"{phi:.17g}"])


def read_map_csv(path) -> GridMap:
    """Read a map written by write_map_csv.

    Validates the header, a strictly increasing uniform theta grid
    theta_i = 2*pi*i/n, finiteness, and degree admissibility.
    """
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise DomainError(f"cannot read map file {str(path)!r}: {exc.strerror}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["theta", "phase"]:
            raise DomainError(f"expected header 'theta,phase', got {header!r}")
        rows = [row for row in reader if row]
    try:
        theta = np.array([float(r[0]) for r in rows])
        phases = np.array([float(r[1]) for r in rows])
    except (IndexError, ValueError) as exc:
        raise DomainError(f"malformed map row: {exc}") from exc
    u = GridMap(phases)
    if np.any(np.diff(theta) <= 0.0):
        raise DomainError("theta grid must be strictly increasing")
    if np.max(np.abs(theta - u.theta)) > 1e-9:
        raise DomainError("theta grid is not the uniform grid 2*pi*i/n")
    if not is_admissible(u):
        raise AdmissibilityError("map file contains a phase gap of magnitude >= pi")
    return u
