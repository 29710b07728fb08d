"""Grid maps: construction, winding numbers, perturbations, CSV round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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


class TestCachedWinding:
    def test_gaps_computed_once_and_read_only(self):
        u = perturb(identity_map(32), 0.2, 1)
        assert u.gaps is u.gaps
        with pytest.raises(ValueError):
            u.gaps[0] = 0.0

    def test_admissibility_computed_once(self):
        u = perturb(identity_map(32), 0.2, 1)
        assert "admissible" not in vars(u)
        assert is_admissible(u) is True
        assert vars(u)["admissible"] is True

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
        # the uniform grid with two angles swapped
        theta = identity_map(8).theta
        theta[[2, 3]] = theta[[3, 2]]
        path = tmp_path / "bad.csv"
        rows = ["theta,phase"] + [f"{t:.17g},{t:.17g}" for t in theta]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DomainError, match="strictly increasing"):
            read_map_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("theta,phase\n0,0\n")
        with pytest.raises(DomainError):
            read_map_csv(path)
