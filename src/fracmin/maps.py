"""Circle-valued maps sampled on a uniform grid, and their winding numbers.

A map u from the circle to itself is stored through a lifted phase field:
node i at angle theta_i = 2*pi*i/n carries a real phase phi_i, and
u(theta_i) = (cos phi_i, sin phi_i).  Storing the lift keeps the winding
number exact integer arithmetic and leaves descent directions
unconstrained.

A map is "degree-admissible" when every cyclic neighbor gap, wrapped to
the principal interval, is strictly inside (-pi, pi); only then is the
discrete winding number well defined at this resolution.  A map is
measured once, when it is made, and a gap that is not finite (finite
phases whose difference overflows), or one wrapped from a difference
too large to land near the nodes' positions, makes it inadmissible.
Every reader of the largest gap takes it from GridMap.gap_range:
admissibility, the fold rule of the energy's correction, the energy's
error estimate and the moebius report's max_gap.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

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

# the largest neighbor difference whose wrap lands within 1e-9 of its
# nodes' positions (derived in GridMap's docstring)
_FAR_GAP = 2.0**21


def wrap_angle(x):
    """Wrap angles to the principal interval (-pi, pi]; ties at pi map to +pi.

    Angles inside (-pi, pi) come back unchanged, and wrap_angle(-x) =
    -wrap_angle(x) bit for bit wherever the result lies inside, so a
    reflected map has exactly the negated gaps.
    """
    return _wrapped(x)[0]


def _wrapped(x) -> tuple[np.ndarray, float, float]:
    """(wrap_angle(x), its least entry, its greatest entry); the extremes
    of an empty x are inf and -inf, and nan wherever x holds a nan."""
    # x + (-2 pi) rint(x / 2 pi) is x - 2 pi round(x / 2 pi) bit for bit;
    # in place, at n = 64 it takes half the time of np.round and np.where
    w = np.asarray(np.rint(np.divide(x, TWO_PI)))
    w *= -TWO_PI
    w += x
    low, high = _extremes(w)
    # the two masked corrections change nothing when every entry lies in
    # (-pi, pi], and the extremes cost less than either mask; a nan makes
    # both extremes nan, and then the corrections run
    if not (-math.pi < low and high <= math.pi):
        w[w > math.pi] -= TWO_PI
        w[w <= -math.pi] += TWO_PI
        low, high = _extremes(w)
    return w, low, high


def _extremes(w: np.ndarray) -> tuple[float, float]:
    # the ufunc reductions skip ndarray.min's wrapper, and return a nan
    # without a warning
    low = np.minimum.reduce(w, axis=None, initial=math.inf)
    high = np.maximum.reduce(w, axis=None, initial=-math.inf)
    return float(low), float(high)


@lru_cache(maxsize=64)
def _grid_angles(n: int) -> np.ndarray:
    """theta_i = 2*pi*i/n, i = 0..n-1; cached per n and shared, so read-only."""
    theta = TWO_PI * np.arange(n) / n
    theta.setflags(write=False)
    return theta


@dataclass(frozen=True, eq=False)
class GridMap:
    """A circle-valued map on the uniform n-point grid, stored as lifted phases.

    Measured when it is made: the cyclic neighbor gaps wrapped to (-pi, pi]
    (read-only), their (least, greatest) gap_range, the winding (their sum
    over 2*pi), admissible (every gap strictly inside (-pi, pi)) and degree,
    the winding rounded, or None unless admissible and within 1e-9 of it.

    A raw neighbor difference x wraps to within 2.61e-16 |x| + 1e-15 of
    the angle between its nodes' positions: x and round(x / TWO_PI) *
    TWO_PI each round once (2^-52 |x|), and TWO_PI is 2.45e-16 short of
    2 pi (3.9e-17 |x|); against mpmath, 4800 differences up to 1e15 wrap
    at most 2.55e-16 |x| off.  A difference above _FAR_GAP = 2^21, where
    the bound passes 5.5e-10, makes the map inadmissible whatever its
    gaps read; only maps with a phase of 2^20 or more, twice which bounds
    every difference, are searched for one.
    """

    phases: np.ndarray

    def __post_init__(self):
        phases = np.array(self.phases, dtype=np.float64)
        if phases.ndim != 1 or phases.size < MIN_NODES:
            raise DomainError(f"a grid map needs at least {MIN_NODES} nodes, got shape {phases.shape}")
        # one reduction, at the cost of np.isfinite(phases).all(): a nan
        # makes it nan, an inf inf, and it bounds the neighbor differences
        bound = np.maximum.reduce(np.abs(phases), axis=None)
        if not bound < math.inf:
            raise DomainError("phases must all be finite")
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)
        if bound < _FAR_GAP / 2:
            self.__dict__.update(_measured(phases, near=True))
        else:
            # a difference may exceed _FAR_GAP, and it or its wrap overflow:
            # that gap is nan or inf, inadmissible
            with np.errstate(over="ignore", invalid="ignore"):
                self.__dict__.update(_measured(phases, near=False))

    @property
    def n(self) -> int:
        return self.phases.size

    @property
    def theta(self) -> np.ndarray:
        """Grid angles theta_i = 2*pi*i/n; shared by every map of n nodes, so read-only."""
        return _grid_angles(self.n)

    @property
    def max_gap(self) -> float:
        """The largest gap magnitude, max |gaps|: the greater of |least| and greatest."""
        low, high = self.gap_range
        return max(abs(low), high)


def _measured(phases: np.ndarray, near: bool) -> dict:
    """The attributes GridMap measures from its phases; near when no
    neighbor difference can exceed _FAR_GAP."""
    differences = np.concatenate((phases[1:], phases[:1])) - phases
    gaps, low, high = _wrapped(differences)
    gaps.setflags(write=False)
    # np.sum of a 1-d array is this pairwise sum, behind a wrapper
    winding = float(np.add.reduce(gaps)) / TWO_PI
    admissible = -math.pi < low and high < math.pi and (near or float(np.max(np.abs(differences))) <= _FAR_GAP)
    # an admissible map's gaps, and so its winding, are finite
    d = round(winding) if admissible else None
    degree = d if admissible and abs(winding - d) < 1e-9 else None
    return {"gaps": gaps, "gap_range": (low, high), "winding": winding, "admissible": admissible, "degree": degree}


def is_admissible(u: GridMap) -> bool:
    """True when every wrapped neighbor gap is strictly inside (-pi, pi),
    and no neighbor difference exceeds 2^21 (see GridMap)."""
    return u.admissible


def degree(u: GridMap) -> int:
    """Discrete winding number u.degree, the winding rounded to the nearest integer.

    Raises AdmissibilityError where u.degree is None: when some gap
    reaches pi in magnitude (the winding is then ill-defined at this
    resolution) or comes from a difference above 2^21, or when the
    rounding residual exceeds 1e-9.
    """
    if u.degree is not None:
        return u.degree
    if not u.admissible:
        raise AdmissibilityError(
            "map has a neighbor phase gap of magnitude >= pi, or a difference above 2^21; winding number undefined"
        )
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
    # row m - 1 holds mode m: c_m cos(m theta) + s_m sin(m theta), as one
    # pass of each function over all five rows
    angles = np.multiply.outer(np.arange(1.0, 6.0), u.theta)
    modes = np.cos(angles)
    modes *= coeffs[:, :1]
    np.sin(angles, out=angles)
    angles *= coeffs[:, 1:]
    modes += angles
    # the rows are added to 0.0 one after another, mode 1 first
    delta = np.add.reduce(modes, axis=0, initial=0.0)
    return GridMap(u.phases + delta)


def rotated(u: GridMap, angle: float) -> GridMap:
    """Rotate the target circle: add a constant to every phase."""
    return GridMap(u.phases + float(angle))


def _write_text(path, text: str, what: str = "file") -> None:
    """Write text to path as UTF-8, its line ends as they are; DomainError,
    naming `what`, when the file cannot be opened, written or closed."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {what} {str(path)!r}: {exc.strerror}") from exc


def write_map_csv(u: GridMap, path) -> None:
    """Write `theta,phase` rows in radians with 17 significant digits.

    The rows are those of csv.writer, lines ended by CR LF; no field needs
    quoting, so the whole file is formatted as one block and written once.
    """
    rows = "".join(["%.17g,%.17g\r\n" % row for row in zip(u.theta.tolist(), u.phases.tolist())])
    _write_text(path, "theta,phase\r\n" + rows, "map file")


def read_map_csv(path) -> GridMap:
    """Read a map written by write_map_csv.

    A file that cannot be opened, decoded as UTF-8 or parsed as CSV is a
    DomainError.  Validates the header (the first row; blank rows after
    it are skipped), a strictly increasing uniform theta grid
    theta_i = 2*pi*i/n, finiteness, and degree admissibility.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"cannot read map file {str(path)!r}: {getattr(exc, 'strerror', None) or exc}") from exc
    if header is None or [h.strip() for h in header] != ["theta", "phase"]:
        raise DomainError(f"expected header 'theta,phase', got {header!r}")
    try:
        theta = np.array([float(r[0]) for r in rows])
        phases = np.array([float(r[1]) for r in rows])
    except (IndexError, ValueError) as exc:
        raise DomainError(f"malformed map row: {exc}") from exc
    u = GridMap(phases)
    if np.any(np.diff(theta) <= 0.0):
        raise DomainError("theta grid must be strictly increasing")
    if not np.max(np.abs(theta - u.theta)) <= 1e-9:
        raise DomainError("theta grid is not the uniform grid 2*pi*i/n")
    if not is_admissible(u):
        raise AdmissibilityError("map file contains a phase gap of magnitude >= pi, or a difference above 2^21")
    return u
