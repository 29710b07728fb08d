"""Grid maps: construction, winding numbers, perturbations, CSV round trips."""

import csv
import importlib
import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fracmin import (
    AdmissibilityError,
    DomainError,
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

maps_module = importlib.import_module("fracmin.maps")


class TestWrap:
    def test_principal_interval(self):
        xs = np.array([0.0, 1.0, math.pi, -math.pi, 3.5, -3.5, 7.0, 100.0])
        w = wrap_angle(xs)
        assert np.all(w > -math.pi) and np.all(w <= math.pi)

    def test_tie_at_pi_maps_to_plus_pi(self):
        assert wrap_angle(np.array([math.pi]))[0] == math.pi
        assert wrap_angle(np.array([-math.pi]))[0] == math.pi

    def test_identity_on_interior(self):
        xs = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        np.testing.assert_allclose(wrap_angle(xs), xs, atol=1e-15)


class TestGridMap:
    def test_minimum_size(self):
        with pytest.raises(DomainError):
            GridMap(np.zeros(7))

    def test_finiteness(self):
        phases = np.zeros(16)
        phases[3] = np.nan
        with pytest.raises(DomainError):
            GridMap(phases)

    def test_immutability(self):
        u = identity_map(16)
        with pytest.raises(ValueError):
            u.phases[0] = 1.0

    def test_theta_grid(self):
        u = identity_map(8)
        np.testing.assert_allclose(u.theta, 2.0 * math.pi * np.arange(8) / 8)


class TestConstructionsAndDegree:
    def test_identity(self):
        u = identity_map(8)
        np.testing.assert_allclose(u.phases, [k * math.pi / 4.0 for k in range(8)])
        assert degree(identity_map(64)) == 1

    @pytest.mark.parametrize("n,d", [(16, 0), (64, -3), (64, 2), (9, 4)])
    def test_power_map_degree(self, n, d):
        assert degree(power_map(n, d)) == d

    @pytest.mark.parametrize("make", [identity_map, lambda n: power_map(n, 0), lambda n: moebius_map(n, 0.3)])
    def test_grid_size_gate(self, make):
        # every constructor takes the grid map's own gate on the node count
        with pytest.raises(DomainError, match="at least 8 nodes"):
            make(7)
        assert make(8).n == 8

    def test_identity_is_the_degree_one_power_map(self):
        for n in (8, 9, 64, 1000):
            expected = 2.0 * math.pi * np.arange(n) / n
            assert identity_map(n).phases.tobytes() == power_map(n, 1).phases.tobytes() == expected.tobytes()

    def test_power_map_size_guard(self):
        with pytest.raises(DomainError):
            power_map(8, 4)  # needs n > 8
        power_map(9, 4)  # boundary is admissible

    def test_degree_requires_gaps_below_pi(self):
        phases = np.zeros(8)
        phases[4:] = math.pi  # one gap of exactly pi
        with pytest.raises(AdmissibilityError):
            degree(GridMap(phases))
        assert not is_admissible(GridMap(phases))

    def test_degree_additivity_on_products(self):
        # the pointwise product of two maps adds their phases
        for d1, d2 in [(1, 1), (2, -3), (-1, -1), (0, 4)]:
            u, v = power_map(64, d1), power_map(64, d2)
            assert degree(GridMap(u.phases + v.phases)) == d1 + d2

    def test_rotation_leaves_degree(self):
        u = power_map(64, 2)
        assert degree(rotated(u, 1.2345)) == 2

    def test_perturbed_identity_keeps_degree(self):
        u = perturb(identity_map(256), 0.3, 7)
        assert degree(u) == 1
        assert abs(u.winding - 1.0) < 1e-9


def uncached_winding(u):
    """(admissible, winding) from the gap formula, bypassing the map's cache."""
    gaps = wrap_angle(np.roll(u.phases, -1) - u.phases)
    return bool(np.all(np.abs(gaps) < math.pi)), float(np.sum(gaps)) / (2.0 * math.pi)


@st.composite
def grid_maps(draw):
    """Perturbed power maps, some with one neighbor gap of exactly +-pi."""
    n = draw(st.integers(8, 64))
    d = draw(st.integers(-((n - 1) // 2), (n - 1) // 2))
    u = perturb(power_map(n, d), draw(st.floats(0.0, 8.0)), draw(st.integers(0, 2**32)))
    phases = u.phases.copy()
    tie = draw(st.sampled_from([None, None, math.pi, -math.pi]))
    if tie is not None:
        i = draw(st.integers(0, n - 2))
        phases[i], phases[i + 1] = 0.0, tie
    return GridMap(phases)


def count_wraps(monkeypatch):
    """Record the size of each array maps._wrapped wraps, into the list returned."""
    wraps = []
    wrapped = maps_module._wrapped

    def counting_wrapped(x):
        wraps.append(np.size(x))
        return wrapped(x)

    monkeypatch.setattr(maps_module, "_wrapped", counting_wrapped)
    return wraps


class TestCachedWinding:
    def test_gaps_computed_once_and_read_only(self, monkeypatch):
        phases = perturb(identity_map(32), 0.2, 1).phases
        wraps = count_wraps(monkeypatch)
        u = GridMap(phases)
        # the gaps are wrapped as the map is made, and never again
        assert wraps == [32]
        assert u.gaps is u.gaps
        assert is_admissible(u) and degree(u) == round(u.winding) == 1
        assert u.max_gap == max(abs(u.gap_range[0]), u.gap_range[1])
        assert wraps == [32]
        with pytest.raises(ValueError):
            u.gaps[0] = 0.0

    def test_admissibility_computed_once(self):
        # measured when the map is made: the readers return the stored values
        u = perturb(identity_map(32), 0.2, 1)
        assert vars(u)["admissible"] is True
        assert is_admissible(u) is True
        assert vars(u)["degree"] == degree(u) == 1

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(grid_maps())
    def test_agrees_with_uncached_formula(self, u):
        admissible, winding = uncached_winding(u)
        assert is_admissible(u) == admissible
        assert u.admissible == admissible
        assert u.winding == winding
        if not admissible or abs(winding - round(winding)) >= 1e-9:
            with pytest.raises(AdmissibilityError):
                degree(u)
        else:
            assert degree(u) == round(winding)


class TestFarDifferences:
    """A neighbor difference above 2^21 may wrap more than 1e-9 off the
    angle between its nodes' positions, and makes the map inadmissible."""

    def test_gap_that_misses_the_positions(self):
        # 1e20 wraps to a gap of 0, but node 1 sits -0.7014 rad from node 0
        assert float(mpmath.fmod(mpmath.mpf(1e20), 2 * mpmath.pi)) - 2.0 * math.pi == pytest.approx(-0.7014, abs=1e-4)
        u = GridMap(np.array([0.0, 1e20] + [0.0] * 6))
        assert u.gaps[0] == 0.0
        assert u.admissible is False and u.degree is None and is_admissible(u) is False
        with pytest.raises(AdmissibilityError, match="above 2\\^21"):
            degree(u)

    def test_bound(self):
        at = GridMap(np.array([0.0, 2.0**21] + [0.0] * 6))
        above = GridMap(np.array([0.0, np.nextafter(2.0**21, math.inf)] + [0.0] * 6))
        assert at.admissible is True and at.degree == 0
        assert above.admissible is False and above.degree is None

    @pytest.mark.parametrize(
        "make",
        [lambda: power_map(65536, 32767), lambda: rotated(identity_map(64), 1e7)],
        ids=["power-65536-32767", "rotated-1e7"],
    )
    def test_far_phases_with_near_differences_stay_admissible(self, make):
        u = make()
        assert u.admissible is True and u.degree == round(u.winding)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(a=st.floats(-(2.0**20), 2.0**20), x=st.floats(-(2.0**21), 2.0**21))
    def test_wrap_error_within_the_stated_bound(self, a, x):
        # GridMap's bound, 2.61e-16 |x| + 1e-15, at most 5.5e-10 up to 2^21
        b = a + x
        x = b - a
        wrapped = float(wrap_angle(np.array([x]))[0])
        exact = mpmath.mpf(b) - mpmath.mpf(a)
        two_pi = 2 * mpmath.pi
        error = abs(mpmath.mpf(wrapped) - (exact - two_pi * mpmath.nint(exact / two_pi)))
        error = min(error, abs(error - two_pi))
        assert error <= 2.61e-16 * abs(x) + 1e-15

    def test_map_file_is_rejected(self, tmp_path):
        path = tmp_path / "far.csv"
        write_map_csv(GridMap(np.array([0.0, 1e20] + [0.0] * 6)), path)
        with pytest.raises(AdmissibilityError, match="above 2\\^21"):
            read_map_csv(path)


class TestMoebius:
    def test_center_zero_is_identity(self):
        u = moebius_map(64, (0.0, 0.0))
        np.testing.assert_allclose(u.phases, identity_map(64).phases, atol=1e-12)

    @pytest.mark.parametrize("a", [(0.3, 0.0), (0.0, 0.5), (-0.4, 0.2), (0.6, -0.6)])
    def test_degree_one(self, a):
        assert degree(moebius_map(128, a)) == 1

    def test_accepts_complex(self):
        u = moebius_map(64, 0.3 + 0.1j)
        assert degree(u) == 1

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            moebius_map(64, (1.0, 0.0))
        with pytest.raises(DomainError):
            moebius_map(64, (0.8, 0.8))

    def test_unresolved_trace_rejected(self):
        # at |a| = 0.999 the trace jumps between two of the 9 nodes, and the
        # sampled lift winds 0 times with every gap 0.013
        with pytest.raises(DomainError, match="no degree one"):
            moebius_map(9, (0.5994, 0.7992))
        assert degree(moebius_map(4096, (0.5994, 0.7992))) == 1

    def test_concentration_grows_with_radius(self):
        max_gaps = []
        for r in (0.0, 0.2, 0.4, 0.6):
            u = moebius_map(512, (r, 0.0))
            max_gaps.append(float(np.max(np.abs(u.gaps))))
        assert all(a < b for a, b in zip(max_gaps, max_gaps[1:]))


class TestPerturb:
    def test_zero_amplitude_is_identity_operation(self):
        u = identity_map(32)
        v = perturb(u, 0.0, 123)
        assert np.array_equal(u.phases, v.phases)

    def test_deterministic(self):
        u = identity_map(32)
        a = perturb(u, 0.25, 9)
        b = perturb(u, 0.25, 9)
        assert np.array_equal(a.phases, b.phases)

    def test_different_seeds_differ(self):
        u = identity_map(32)
        assert not np.array_equal(perturb(u, 0.25, 1).phases, perturb(u, 0.25, 2).phases)

    def test_degree_stable_under_moderate_amplitude(self):
        u = perturb(power_map(256, 2), 0.2, 11)
        assert degree(u) == 2

    def test_negative_amplitude_rejected(self):
        with pytest.raises(DomainError):
            perturb(identity_map(32), -0.1, 0)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, 1e308, 8e307])
    def test_amplitude_without_a_finite_width_rejected(self, amplitude):
        # the ten terms of the mode sum reach 10 * amplitude; at 8e307 the
        # range 2 * amplitude is finite but the sum is not, and the
        # rejection comes before it, with no RuntimeWarning (an error here)
        with pytest.raises(DomainError, match="10 \\* amplitude"):
            perturb(identity_map(32), amplitude, 0)

    def test_negative_zero_amplitude_is_zero(self):
        u = identity_map(32)
        assert np.array_equal(perturb(u, -0.0, 3).phases, u.phases)


class TestCsv:
    def test_round_trip(self, tmp_path):
        u = perturb(moebius_map(64, (0.3, -0.1)), 0.05, 4)
        path = tmp_path / "map.csv"
        write_map_csv(u, path)
        v = read_map_csv(path)
        assert np.array_equal(u.phases, v.phases)

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(DomainError, match="cannot write map file"):
            write_map_csv(identity_map(8), tmp_path / "missing" / "map.csv")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_device(self):
        # the open succeeds, and the write fails as the file is closed
        with pytest.raises(DomainError, match="cannot write map file '/dev/full': No space left on device"):
            write_map_csv(identity_map(8), "/dev/full")

    def test_text_is_written_as_given(self, tmp_path):
        # UTF-8, with no line end translated
        path = tmp_path / "out.txt"
        maps_module._write_text(path, "a\r\nb\nc\r\u00e9")
        assert path.read_bytes() == b"a\r\nb\nc\r\xc3\xa9"

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"theta,phase\r\n\xff\r\n", "can't decode byte 0xff"),
            (b"theta,phase\r\n0," + b"1" * 200000 + b"\r\n", "field larger than field limit"),
        ],
        ids=["undecodable", "field-over-the-csv-limit"],
    )
    def test_unparsable_file(self, tmp_path, content, reason):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(DomainError, match="cannot read map file") as raised:
            read_map_csv(path)
        assert reason in str(raised.value)

    def test_directory(self, tmp_path):
        with pytest.raises(DomainError, match="cannot read map file .*: Is a directory"):
            read_map_csv(tmp_path)

    def test_blank_rows_after_the_header_are_skipped(self, tmp_path):
        u = identity_map(8)
        path = tmp_path / "map.csv"
        path.write_text("theta,phase\n\n" + "".join(f"{t:.17g},{t:.17g}\n\n" for t in u.theta))
        assert _same_bits(read_map_csv(path).phases, u.phases)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,beta\n0,0\n")
        with pytest.raises(DomainError):
            read_map_csv(path)

    def test_grid_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["theta,phase"] + [f"{0.1 * i},{0.0}" for i in range(16)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DomainError):
            read_map_csv(path)

    def test_admissibility_validation(self, tmp_path):
        n = 8
        theta = 2.0 * math.pi * np.arange(n) / n
        phases = np.zeros(n)
        phases[4:] = math.pi
        path = tmp_path / "bad.csv"
        rows = ["theta,phase"] + [f"{t:.17g},{p:.17g}" for t, p in zip(theta, phases)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(AdmissibilityError):
            read_map_csv(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["theta,phase"] + [f"{t:.17g},{t:.17g}" for t in identity_map(8).theta]
        rows[3] = "0.5"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DomainError, match="malformed map row"):
            read_map_csv(path)

    def test_theta_not_increasing(self, tmp_path):
        # the uniform grid with two angles swapped; a map's angles are read-only
        theta = identity_map(8).theta.copy()
        theta[[2, 3]] = theta[[3, 2]]
        path = tmp_path / "bad.csv"
        rows = ["theta,phase"] + [f"{t:.17g},{t:.17g}" for t in theta]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DomainError, match="strictly increasing"):
            read_map_csv(path)

    @pytest.mark.parametrize("row", [0, 5])
    def test_theta_not_a_number(self, tmp_path, row):
        # a nan compares false both ways, so no angle may pass for being one
        theta = [f"{t:.17g}" for t in identity_map(8).theta]
        theta[row] = "nan"
        path = tmp_path / "bad.csv"
        path.write_text("theta,phase\n" + "".join(f"{t},{i}\n" for i, t in enumerate(theta)))
        with pytest.raises(DomainError, match="uniform grid"):
            read_map_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("theta,phase\n0,0\n")
        with pytest.raises(DomainError):
            read_map_csv(path)


# Reference copies of the forms that do every step unconditionally: the
# guards of the package's forms may skip only work that changes no bit.


def reference_wrap_angle(x):
    """wrap_angle with both masked corrections always run."""
    w = np.asarray(np.rint(np.divide(x, 2.0 * math.pi)))
    w *= -2.0 * math.pi
    w += x
    w[w > math.pi] -= 2.0 * math.pi
    w[w <= -math.pi] += 2.0 * math.pi
    return w


def reference_perturb_phases(u, amplitude, seed):
    """perturb's phases, summed mode by mode into zeros."""
    amplitude = float(amplitude) + 0.0
    coeffs = np.random.default_rng(int(seed) % 2**63).uniform(-amplitude, amplitude, size=(5, 2))
    theta = 2.0 * math.pi * np.arange(u.n) / u.n
    delta = np.zeros(u.n)
    for m, (c, s) in enumerate(coeffs, start=1):
        delta += c * np.cos(m * theta) + s * np.sin(m * theta)
    return u.phases + delta


def reference_map_csv(u, path):
    """write_map_csv row by row through csv.writer."""
    theta = 2.0 * math.pi * np.arange(u.n) / u.n
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "phase"])
        for t, phi in zip(theta, u.phases):
            writer.writerow([f"{t:.17g}", f"{phi:.17g}"])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_TIES = [math.pi, 3.0 * math.pi, np.nextafter(math.pi, 4.0), np.nextafter(math.pi, 3.0), 0.0, -0.0]
_WRAP_SPECIAL = [sign * x for x in _TIES for sign in (1.0, -1.0)] + [k * 2.0 * math.pi for k in (1e3, -7e8, 3e12, 2.0**52)]
_wrap_entries = st.one_of(
    st.sampled_from(_WRAP_SPECIAL + [math.nan]),
    st.floats(-1e6, 1e6),
    st.builds(lambda k, x: k * 2.0 * math.pi + x, st.integers(-(2**40), 2**40), st.sampled_from([0.0, math.pi, -math.pi])),
)


class TestSkippedWorkMatchesReference:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_wrap_entries, min_size=0, max_size=40))
    def test_wrap_angle(self, xs):
        x = np.array(xs, dtype=np.float64)
        assert _same_bits(wrap_angle(x), reference_wrap_angle(x))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_wrap_entries)
    def test_wrap_angle_of_a_scalar(self, x):
        # 0-d in, 0-d out
        for value in (x, np.float64(x), np.array(x)):
            assert _same_bits(wrap_angle(value), reference_wrap_angle(value))

    def test_wrap_angle_of_the_ties(self):
        x = np.array(_WRAP_SPECIAL + [math.nan])
        assert _same_bits(wrap_angle(x), reference_wrap_angle(x))
        assert np.all(wrap_angle(np.array(_WRAP_SPECIAL)) > -math.pi)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(grid_maps())
    def test_gap_range(self, u):
        gaps = reference_wrap_angle(np.roll(u.phases, -1) - u.phases)
        assert u.gap_range == (gaps.min(), gaps.max())
        assert _same_bits(u.max_gap, float(np.max(np.abs(gaps))))
        assert u.admissible == bool(np.abs(gaps).max() < math.pi)

    def test_max_gap_of_a_constant_map_is_plus_zero(self):
        assert math.copysign(1.0, GridMap(np.zeros(8)).max_gap) == 1.0

    @pytest.mark.parametrize(
        "bad",
        [[math.nan], [math.inf], [-math.inf], [math.inf, -math.inf], [-math.inf, math.inf, math.nan]],
        ids=["nan", "inf", "-inf", "inf,-inf", "-inf,inf,nan"],
    )
    def test_grid_map_rejects_every_non_finite_phase(self, bad):
        phases = np.array(bad + [0.0] * 8)
        assert not np.all(np.isfinite(phases))
        with pytest.raises(DomainError, match="finite"):
            GridMap(phases)

    @pytest.mark.parametrize("phases", [[1e308] * 8, [1.7e308, -1.7e308] * 4 + [1.7e308]], ids=["sum", "alternating"])
    def test_grid_map_accepts_finite_phases_whose_sum_overflows(self, phases):
        # RuntimeWarnings are errors here: a gate that summed would raise,
        # and so would a difference that overflowed outside np.errstate
        u = GridMap(np.array(phases))
        assert np.array_equal(u.phases, phases)
        if u.n == 8:  # equal phases: every gap is 0, and the degree 0
            assert _same_bits(u.gaps, np.zeros(8))
            assert u.gap_range == (0.0, 0.0) and u.winding == 0.0 and u.degree == 0
        else:  # 8 of the 9 differences overflow, and their wraps are nan
            assert np.isnan(u.gaps[:8]).all() and u.gaps[8] == 0.0
            assert all(math.isnan(x) for x in (*u.gap_range, u.winding))
            assert u.admissible is False and u.degree is None

    def test_map_whose_differences_overflow_is_inadmissible(self):
        u = GridMap(np.array([1.7e308, -1.7e308] * 4 + [1.7e308]))
        assert u.admissible is False and u.degree is None
        assert is_admissible(u) is False
        with pytest.raises(AdmissibilityError, match=">= pi"):
            degree(u)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        n=st.integers(8, 600),
        d=st.integers(-3, 3),
        amplitude=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 10.0)),
        seed=st.integers(-(2**70), 2**70),
    )
    def test_perturb(self, n, d, amplitude, seed):
        u = power_map(n, d)
        assert _same_bits(perturb(u, amplitude, seed).phases, reference_perturb_phases(u, amplitude, seed))

    @pytest.mark.parametrize(
        "u",
        [
            identity_map(8),
            power_map(9, -4),
            perturb(power_map(300, 3), 0.3, 17),
            moebius_map(64, 0.99),
            rotated(identity_map(16), 1e20),
            GridMap(np.full(8, 1e-300)),
        ],
        ids=["identity", "negative", "perturbed", "concentrated", "rotated-far", "tiny"],
    )
    def test_map_file_bytes(self, tmp_path, u):
        written, reference = tmp_path / "map.csv", tmp_path / "reference.csv"
        write_map_csv(u, written)
        reference_map_csv(u, reference)
        assert written.read_bytes() == reference.read_bytes()
        assert _same_bits(read_map_csv(written).phases, u.phases)

    def test_grid_angles_shared_and_read_only(self):
        u, v = identity_map(24), power_map(24, 5)
        assert u.theta is v.theta
        assert _same_bits(u.theta, 2.0 * math.pi * np.arange(24) / 24)
        with pytest.raises(ValueError):
            u.theta[0] = 1.0


_finite_phase = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.7e308, -1.7e308, 2.0**1022, -(2.0**1022), 5e-324, -5e-324, 0.0, -0.0]),
    st.floats(-1e3, 1e3),
)


class TestAnyFinitePhases:
    """Map input fuzzed: any finite float64 phases make a map, with no warning."""

    @settings(
        derandomize=True, max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(st.lists(_finite_phase, min_size=8, max_size=64))
    # the greatest phases whose differences are not searched for one above
    # 2^21, and the least that are; the greatest whose differences stay
    # finite, and the least whose differences overflow
    @example([np.nextafter(2.0**20, 0.0), -np.nextafter(2.0**20, 0.0)] * 4)
    @example([2.0**20, -(2.0**20)] * 4)
    @example([np.nextafter(2.0**1022, 0.0), -np.nextafter(2.0**1022, 0.0)] * 4)
    @example([2.0**1022, -(2.0**1022)] * 4)
    def test_measured_without_a_warning(self, tmp_path, phases):
        # RuntimeWarnings are errors here
        u = GridMap(np.array(phases))
        if u.degree is None:
            with pytest.raises(AdmissibilityError):
                degree(u)
        else:
            assert degree(u) == u.degree
        path = tmp_path / "map.csv"
        write_map_csv(u, path)
        if u.admissible:
            v = read_map_csv(path)
            assert _same_bits(v.phases, u.phases)
            assert v.degree == u.degree
        else:
            with pytest.raises(AdmissibilityError):
                read_map_csv(path)
