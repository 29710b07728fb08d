"""Special-function accuracy against independent references.

mpmath at 40 digits serves as the external oracle.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmin import DomainError, beta, digamma, log_gamma, zeta

mpmath.mp.dps = 40

LN2 = math.log(2.0)
EULER_GAMMA = float(mpmath.euler)


class TestLogGamma:
    def test_exact_anchors(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_against_mpmath_over_range(self):
        # log_gamma is math.lgamma, so the reference is mpmath
        xs = np.exp(np.random.default_rng(0).uniform(np.log(1e-3), np.log(1e3), 4000))
        for x in xs:
            ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
            assert log_gamma(float(x)) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_overflow_is_inf(self):
        # log Gamma(x) ~ x log x leaves binary64 above about 2.6e305
        assert log_gamma(1e306) == math.inf

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestBeta:
    def test_anchors(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)
        # B(a, 1) = 1/a
        assert beta(0.25, 1.0) == pytest.approx(4.0, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
            b = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
            ba, bb = beta(a, b), beta(b, a)
            assert ba == pytest.approx(bb, rel=1e-14)

    def test_against_mpmath(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
            b = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
            assert beta(a, b) == pytest.approx(float(mpmath.beta(a, b)), rel=1e-12)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0), (1.0, -1.0)])
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            beta(a, b)


class TestDigamma:
    def test_exact_anchors(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * LN2, abs=1e-13)

    def test_against_mpmath_over_range(self):
        zs = np.exp(np.random.default_rng(3).uniform(np.log(1e-3), np.log(100.0), 2000))
        for z in zs:
            assert digamma(float(z)) == pytest.approx(float(mpmath.digamma(z)), abs=1e-11)

    def test_recurrence_property(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            z = float(rng.uniform(1e-6, 50.0))
            assert abs(digamma(z + 1.0) - digamma(z) - 1.0 / z) <= 1e-11

    @pytest.mark.parametrize("bad", [0.0, -3.0, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            digamma(bad)


def assert_zeta_matches_mpmath(s):
    exact = mpmath.zeta(mpmath.mpf(s))
    assert abs((zeta(s) - exact) / exact) <= 1e-14, s


class TestZeta:
    """zeta(s) on [0, 1) and [2, 3], where the energy's diagonal corrections
    need zeta(2 - p) and zeta(1 + p); 1 + p is 2 at p = 1 + 2^-52."""

    @pytest.mark.parametrize("s", [0.0, 1e-3, 0.3, 0.5, 0.86, 0.95, 0.999])
    def test_against_mpmath(self, s):
        assert_zeta_matches_mpmath(s)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(s=st.floats(0.0, 1.0, exclude_max=True))
    def test_sweep_against_mpmath(self, s):
        assert_zeta_matches_mpmath(s)

    @pytest.mark.parametrize("s", [2.0, 2.0 + 1e-12, 2.001, 2.05, 2.13921, 2.5, 2.99, 3.0])
    def test_above_two_against_mpmath(self, s):
        assert_zeta_matches_mpmath(s)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(s=st.floats(2.0, 3.0))
    def test_sweep_above_two_against_mpmath(self, s):
        assert_zeta_matches_mpmath(s)

    def test_two_is_pi_squared_over_six_exactly(self):
        # zeta(1 + p) at the least exponent above 1, where 1 + p rounds to 2
        assert 1.0 + np.nextafter(1.0, 2.0) == 2.0
        assert zeta(2.0) == math.pi**2 / 6.0

    def test_zero_is_minus_one_half_exactly(self):
        # the diagonal correction at p = 2 then makes the identity energy 4 pi^2
        assert zeta(0.0) == -0.5

    @pytest.mark.parametrize("bad", [-1e-300, -0.5, 1.0, 1.5, 1.9999999999999998, 3.0000000000000004, 4.0, math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            zeta(bad)
