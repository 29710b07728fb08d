"""Inequality margins on designed equality cases and seeded random sweeps."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracmin import (
    DomainError,
    bbm_degree_check,
    identity_map,
    jp_monotonicity_check,
    moebius_map,
    perturb,
    power_map,
    segment_weight_integral,
    young_variant_check,
)
from fracmin import inequalities

PS = (1.1, 1.3, 1.5, 1.7, 1.9)

# non-finite endpoints, in either argument, and a b - a that overflows
NON_FINITE_SEGMENTS = [
    ([math.nan, 0.0], [1.0, 1.0]),
    ([1.0, 1.0], [math.nan, 0.0]),
    ([1.0, 1.0], [math.nan, math.nan]),
    ([math.inf, 0.0], [1.0, 1.0]),
    ([1.0], [math.inf]),
    ([1e308, 0.0], [-1e308, 1e300]),
]

# finite endpoints and |b - a|, but norms too large for the integral's sums:
# one raised OverflowError, one a DomainError about its interval, and one
# returned inf
NEAR_MAXIMAL_SEGMENTS = [
    ([1.7e308, 0.85e308], [0.85e308, 1.7e308]),
    ([1.5e308, 1.5e308], [1.5e308, 1.4e308]),
    ([1.2e308, 0.0], [0.0, 1.2e308]),
]


class TestSegmentWeightIntegral:
    @pytest.mark.parametrize("p", PS)
    def test_antipodal_closed_form(self, p):
        # integral of |2t-1|^(p-2) over (0,1) is 1/(p-1)
        value = segment_weight_integral(np.array([-1.0, 0.0]), np.array([1.0, 0.0]), p)
        assert value == pytest.approx(1.0 / (p - 1.0), rel=1e-10)

    def test_equal_nonzero_endpoints(self):
        a = np.array([3.0, 1.0])
        value = segment_weight_integral(a, a, 1.5)
        assert value == pytest.approx(float(a @ a) ** -0.25, rel=1e-14)

    def test_scalar_closed_form(self):
        # same-sign scalar segment: |a + t(b-a)|^(p-2) has the elementary
        # antiderivative (b^(p-1) - a^(p-1)) / ((p-1)(b-a))
        a, b, p = 2.0, 5.0, 1.4
        expected = (b ** (p - 1.0) - a ** (p - 1.0)) / ((p - 1.0) * (b - a))
        value = segment_weight_integral(np.array([a]), np.array([b]), p)
        assert value == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([6.23673875], [6.24563337]),
            ([6.23673875, 1.0], [6.24563337, 1.0001]),
            ([1.0, -2.0, 6.23673875], [1.00001, -2.00003, 6.24563337]),
        ],
    )
    def test_short_segment_against_mpmath(self, a, b):
        # far from the origin the two powers of the 1-D closed form nearly
        # cancel, and a ^ b / |b - a| would carry eps |a| |b| / |b - a|
        for p in (1.01, 1.05, 1.3, 1.99):
            exact = _mp_segment(a, b, p)
            assert abs(segment_weight_integral(a, b, p) - exact) <= 1e-15 * exact, p

    def test_huge_endpoints_against_mpmath(self):
        # float products of these components overflow
        a, b = [3e307, 1e307], [-1e307, 2e307]
        for p in (1.01, 1.5, 1.99):
            exact = _mp_segment(a, b, p)
            assert abs(segment_weight_integral(a, b, p) - exact) <= 1e-15 * exact, p

    def test_crossing_scalar_closed_form(self):
        # opposite signs: the crossing splits the antiderivative at zero
        a, b, p = 1.5, -2.5, 1.3
        span = b - a
        expected = (abs(a) ** (p - 1.0) + abs(b) ** (p - 1.0)) / ((p - 1.0) * abs(span))
        value = segment_weight_integral(np.array([a]), np.array([b]), p)
        assert value == pytest.approx(expected, rel=1e-10)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            segment_weight_integral(np.zeros(3), np.zeros(3), 1.5)

    @pytest.mark.parametrize("a, b", NON_FINITE_SEGMENTS)
    def test_non_finite_rejected(self, a, b):
        with pytest.raises(DomainError):
            segment_weight_integral(a, b, 1.5)

    @pytest.mark.parametrize("p", [1.0, math.nan, 3.0, 0.5, 2.0])
    def test_p_domain(self, p):
        # p = 1 divided by zero on a 1-D segment; nan and p outside (1, 2) passed
        with pytest.raises(DomainError, match="1 < p < 2"):
            segment_weight_integral(np.array([1.0]), np.array([2.0]), p)

    @pytest.mark.parametrize("a, b", NEAR_MAXIMAL_SEGMENTS)
    def test_near_maximal_rejected(self, a, b):
        for check in (segment_weight_integral, jp_monotonicity_check):
            with pytest.raises(DomainError, match="half the float range"):
                check(a, b, 1.5)

    def test_exact_scaling(self):
        # |2^k x|^(p-2) = 2^(k (p-2)) |x|^(p-2), with the factor taken in
        # mpmath: the float 2.0 ** (k * (p - 2)) rounds k (p - 2) first
        rng = np.random.default_rng(31)
        eps = 2.0**-52
        cases = 0
        for _ in range(300):
            m = int(rng.integers(1, 4))
            a = rng.uniform(-10.0, 10.0, m)
            b = rng.uniform(-10.0, 10.0, m)
            p = float(rng.uniform(1.01, 1.99))
            value = segment_weight_integral(a, b, p)
            for k in (40, -40, 300, -300, 700, -700, 1000, -1000):
                a_k, b_k = np.ldexp(a, k), np.ldexp(b, k)
                if np.min(np.abs(np.concatenate([a_k, b_k]))) < 2.0**-1022:
                    continue
                scaled = segment_weight_integral(a_k, b_k, p)
                with mpmath.workdps(40):
                    exact = mpmath.mpf(value) * mpmath.mpf(2) ** (k * (mpmath.mpf(p) - 2))
                    assert abs(scaled - exact) <= 4 * eps * exact, (a, b, p, k)
                cases += 1
        assert cases >= 2000

    @pytest.mark.parametrize("k", [300, 400, 500])
    def test_tiny_endpoints_against_mpmath(self, k):
        a, b = [math.ldexp(1.0, -k), math.ldexp(2.0, -k)], [math.ldexp(-3.0, -k), math.ldexp(1.0, -k)]
        for p in (1.01, 1.5, 1.99):
            exact = _mp_segment(a, b, p)
            assert abs(segment_weight_integral(a, b, p) - exact) <= 1e-15 * exact, p

    def test_through_origin_near_one(self):
        # at p -> 1, tau^(p-2) holds measurable mass below the smallest
        # tanh-sinh node, and quadrature raised ConvergenceError here
        a, b, p = 8.957860505278106, -8.678788014175144, 1.022313093502282
        seg_len = abs(b - a)
        expected = seg_len ** (p - 2.0) * (
            abs(a / seg_len) ** (p - 1.0) + abs(b / seg_len) ** (p - 1.0)
        ) / (p - 1.0)
        value = segment_weight_integral(np.array([a]), np.array([b]), p)
        assert math.isfinite(value)
        assert value == pytest.approx(expected, rel=1e-14)
        assert jp_monotonicity_check([a], [b], p).margin >= -1e-10

    @pytest.mark.parametrize("p", [1.05, 1.5, 1.9])
    @pytest.mark.parametrize(
        "a, b", [([3.0], [-1.0]), ([-1.0, -2.0], [3.0, 6.0]), ([1.0, -2.0, 2.0], [-3.0, 6.0, -6.0])]
    )
    def test_through_origin_against_mpmath(self, a, b, p):
        # the crossing parameter (3/4 or 1/4) is exact in binary, so the
        # reference's foot point w is exactly 0; each piece is integrated in
        # tau = length * exp(-y), which leaves no mass out of reach
        with mpmath.workdps(30):
            delta = [mpmath.mpf(y) - x for x, y in zip(a, b)]
            t_star = -mpmath.fsum(x * d for x, d in zip(a, delta)) / mpmath.fsum(d * d for d in delta)
            w = [x + t_star * d for x, d in zip(a, delta)]
            assert not any(w)

            def piece(sign, length):
                def integrand(y):
                    tau = length * mpmath.exp(-y)
                    return mpmath.norm([wi + sign * tau * d for wi, d in zip(w, delta)]) ** (p - 2) * tau

                return mpmath.quad(integrand, [0, mpmath.inf])

            exact = piece(-1, t_star) + piece(1, 1 - t_star)
            value = segment_weight_integral(np.array(a), np.array(b), p)
            assert abs(value - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("eps", [1e-8, 1e-12, 1e-16, 1e-20, 1e-30, 1e-50, 1e-100, 1e-200, 1e-300])
    def test_near_origin_against_mpmath(self, eps):
        # the line of (1, eps), (-1, eps) passes the origin at distance eps,
        # with its foot inside the segment; eps^2 underflows below ~1e-154
        cases = [([1.0, eps], [-1.0, eps], p) for p in (1.01, 1.05, 1.1, 1.3, 1.5, 1.7, 1.9, 1.99)]
        if eps in (1e-8, 1e-30, 1e-100, 1e-200, 1e-300):
            # the closest point of these segments is the endpoint (eps, 0...)
            for p in (1.01, 1.05, 1.3, 1.99):
                cases += [([eps, 0.0], [1.0, 1.0], p), ([eps, 0.0, 0.0], [3.0, -1.0, 2.0], p)]
                cases += [([1.0, 1.0], [eps, 0.0], p)]
        if eps == 1e-16:
            # a line through a rounded unit vector a and b = (-1, -3), nearly
            # -sqrt(10) a, misses the origin by 1.3e-17: a wedge of rounded
            # products or unit vectors gave d with an O(1) relative error,
            # 2.9e-2 off at p = 1.01 and 3.0e-6 at p = 1.3
            a = [0.1 / math.hypot(0.1, 0.3), 0.3 / math.hypot(0.1, 0.3)]
            for p in (1.01, 1.05, 1.3, 1.99):
                cases += [(a, [-1.0, -3.0], p), ([-1.0, -3.0], a, p), (a + [0.0], [-1.0, -3.0, 0.0], p)]
        for a, b, p in cases:
            exact = _mp_segment(a, b, p)
            value = segment_weight_integral(a, b, p)
            assert abs(value - exact) <= 1e-15 * exact, (a, b, p)


def _mp_segment(a, b, p):
    """The integral of |a + t (b - a)|^(p-2) over (0, 1) in 40-digit mpmath.

    Along the line at distance d from the origin, s = d sinh u turns it
    into (1 / |b - a|) times the integral of (d cosh u)^(p-1) between
    asinh(s_a / d) and asinh(s_b / d); at d = 0 the power s^(p-2) is
    integrated exactly.  mpmath.quad aims at an absolute error, so the
    endpoints are first divided by the power of two 2^k that brings
    their largest component to [0.5, 1), and the result is multiplied
    by 2^(k (p-2)).
    """
    k = math.frexp(max(map(abs, a + b)))[1]
    with mpmath.workdps(40):
        a = [mpmath.ldexp(mpmath.mpf(x), -k) for x in a]
        b = [mpmath.ldexp(mpmath.mpf(x), -k) for x in b]
        q = mpmath.mpf(p)
        scale = mpmath.mpf(2) ** (k * (q - 2))
        length = mpmath.sqrt(mpmath.fsum((y - x) ** 2 for x, y in zip(a, b)))
        s_a, s_b = (mpmath.fsum(x * (y - z) for x, y, z in zip(v, b, a)) / length for v in (a, b))
        d = mpmath.sqrt(mpmath.fsum((a[i] * b[j] - a[j] * b[i]) ** 2 for i in range(len(a)) for j in range(i)))
        d /= length
        if d == 0:
            ends = [abs(s_a) ** (q - 1), abs(s_b) ** (q - 1)]
            total = ends[0] + ends[1] if s_a < 0 < s_b else abs(ends[1] - ends[0])
            return scale * total / ((q - 1) * length)
        lo, hi = mpmath.asinh(s_a / d), mpmath.asinh(s_b / d)
        total = mpmath.quad(lambda u: (d * mpmath.cosh(u)) ** (q - 1), [lo, 0, hi] if lo < 0 < hi else [lo, hi])
        return scale * total / length


class TestJpMonotonicity:
    def test_equal_inputs_both_sides_vanish(self):
        a = np.array([3.0, 1.0])
        check = jp_monotonicity_check(a, a, 1.5)
        assert check.lhs == 0.0 and check.rhs == 0.0

    @pytest.mark.parametrize("p", PS)
    def test_antipodal_equality(self, p):
        check = jp_monotonicity_check(np.array([-1.0, 0.0]), np.array([1.0, 0.0]), p)
        assert check.lhs == pytest.approx(4.0, abs=1e-14)
        assert abs(check.margin) <= 1e-9

    def test_scalar_case_is_identity(self):
        # in one dimension both sides integrate the same derivative
        rng = np.random.default_rng(10)
        for _ in range(100):
            a = rng.uniform(-10.0, 10.0, 1)
            b = rng.uniform(-10.0, 10.0, 1)
            p = float(rng.uniform(1.05, 1.95))
            check = jp_monotonicity_check(a, b, p)
            assert abs(check.margin) <= 1e-9 * max(1.0, abs(check.lhs))

    def test_random_population_margin_floor(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            m = int(rng.integers(1, 4))
            a = rng.uniform(-10.0, 10.0, m)
            b = rng.uniform(-10.0, 10.0, m)
            p = float(rng.uniform(1.05, 1.95))
            worst = min(worst, jp_monotonicity_check(a, b, p).margin)
        assert worst >= -1e-10

    @settings(derandomize=True, max_examples=300, deadline=None)
    # the line misses the origin by the smallest subnormal
    @example(k=0, direction=[1.0, 0.0], far=[0.0, 5e-324, 0.0], p=1.01)
    @given(
        k=st.integers(0, 1000),
        direction=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
        far=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
        p=st.floats(1.001, 1.99),
    )
    def test_fuzzed_near_origin_margin(self, k, direction, far, p):
        # an endpoint at any scale down to 2^-1000 from the origin
        norm = math.hypot(*direction)
        assume(norm > 0.0)
        a = [math.ldexp(x / norm, -k) for x in direction]
        b = far[: len(a)]
        check = jp_monotonicity_check(a, b, p)
        assert math.isfinite(check.rhs) and check.rhs >= 0.0
        assert check.margin >= -1e-10

    def test_tiny_segment_rhs_is_finite(self):
        # the mean weight over this segment overflows, and |b - a|^2
        # underflows, so |b - a|^2 times the mean was 0 * inf = nan
        check = jp_monotonicity_check([-(2.0**-1015)], [2.0**-1016], 1.001)
        assert math.isfinite(check.rhs) and check.rhs > 0.0
        # in 1-D both sides integrate the same derivative
        assert abs(check.margin) <= 1e-9 * check.lhs

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            jp_monotonicity_check(np.zeros(2), np.zeros(2), 1.5)

    def test_p_domain(self):
        with pytest.raises(DomainError):
            jp_monotonicity_check(np.ones(2), np.zeros(2), 2.0)

    @pytest.mark.parametrize("a, b", NON_FINITE_SEGMENTS)
    def test_non_finite_rejected(self, a, b):
        with pytest.raises(DomainError):
            jp_monotonicity_check(a, b, 1.5)

    @pytest.mark.parametrize("a, b", [((0.6e308, 0.0), (0.0, 0.6e308)), ([0.89e308], [-0.89e308])])
    def test_overflowing_sides_rejected(self, a, b):
        # the endpoints pass the segment gate, but |b - a|^p overflows:
        # both sides were inf and the margin nan
        with pytest.raises(DomainError, match="overflow"):
            jp_monotonicity_check(a, b, 1.5)


class TestJpBatch:
    DRAWS = [
        (np.array([3.0, -1.0]), np.array([-2.0, 4.0]), 1.3),
        (np.array([-1.0, 0.0]), np.array([1.0, 0.0]), 1.7),
        (np.array([0.5, 2.0, -1.0]), np.array([-3.0, 1.0, 2.0]), 1.05),
        (np.array([7.0]), np.array([-9.0]), 1.99),
    ]

    def test_matches_one_check_at_a_time(self):
        checks = inequalities._jp_checks(self.DRAWS)
        assert checks == [jp_monotonicity_check(a, b, p) for a, b, p in self.DRAWS]

    @pytest.mark.parametrize("position", range(5))
    @pytest.mark.parametrize(
        "bad",
        [
            (np.array([math.nan, 0.0]), np.array([1.0, 1.0]), 1.5),
            (np.zeros(2), np.zeros(2), 1.5),
            (np.array([1.0]), np.array([2.0]), 2.0),
            ([0.6e308, 0.0], [0.0, 0.6e308], 1.5),
        ],
    )
    def test_bad_draw_raises_its_own_error(self, position, bad):
        with pytest.raises(DomainError) as alone:
            jp_monotonicity_check(*bad)
        draws = self.DRAWS[:position] + [bad] + self.DRAWS[position:]
        with pytest.raises(DomainError) as batch:
            inequalities._jp_checks(draws)
        assert str(batch.value) == str(alone.value)


class TestInner:
    """_inner rounds the exact dot product once, so no BLAS moves its bits."""

    def test_correctly_rounded_on_random_draws(self):
        # numpy's dot (OpenBLAS ddot) misses the exact rounding on about a
        # fifth of these draws
        rng = np.random.default_rng(3)
        for _ in range(3000):
            m = int(rng.integers(1, 4))
            u, v = rng.uniform(-10, 10, m).tolist(), rng.uniform(-10, 10, m).tolist()
            assert inequalities._inner(u, v) == float(sum(Fraction(x) * Fraction(y) for x, y in zip(u, v)))

    @pytest.mark.parametrize(
        "u, v, expected",
        [
            # cancellation that a sum of rounded products loses, inside and
            # outside the product split's range
            ([1e100, 1.0, -1e100], [1.0, 1.0, 1.0], 1.0),
            ([1e200, 1.0, -1e200], [1.0, 1.0, 1.0], 1.0),
            ([0.1, 0.0], [0.1, 5.0], float(Fraction(0.1) ** 2)),
            # a subnormal result, and exact sums beyond the float range
            ([1e-300, 3.0], [1e-20, 0.0], 1e-320),
            ([1e300, 1e300], [1e300, 1.0], math.inf),
            ([-1e300, 1e300], [1e300, 1.0], -math.inf),
            # a product that underflows, and an entry whose split overflows
            ([1e-200, 1.0], [1e-200, 0.5], 0.5),
            ([1.5e300, 3.0], [1e-200, 0.1], float(Fraction(1.5e300) * Fraction(1e-200) + Fraction(3.0) * Fraction(0.1))),
        ],
    )
    def test_edge_cases(self, u, v, expected):
        assert inequalities._inner(u, v) == expected


class TestYoungVariant:
    def test_zero_a(self):
        check = young_variant_check(0.0, 2.0, 1.5)
        assert check.margin == pytest.approx(2.0**1.5, rel=1e-15)

    def test_equal_arguments(self):
        check = young_variant_check(3.0, 3.0, 1.5)
        assert check.margin == pytest.approx(3.0**1.5, rel=1e-15)

    def test_random_population(self):
        rng = np.random.default_rng(24)
        worst = math.inf
        for _ in range(1000):
            a = float(rng.uniform(0.0, 100.0))
            b = float(rng.uniform(1e-6, 100.0))
            p = float(rng.uniform(1.05, 1.95))
            worst = min(worst, young_variant_check(a, b, p).margin)
        assert worst >= -1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            young_variant_check(1.0, 0.0, 1.5)
        with pytest.raises(DomainError):
            young_variant_check(-1.0, 1.0, 1.5)

    @pytest.mark.parametrize("A, B", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_rejected(self, A, B):
        # the margins were nan, a check that cannot fail
        with pytest.raises(DomainError, match="finite"):
            young_variant_check(A, B, 1.5)

    @pytest.mark.parametrize("A, B, p", [(1e300, 1e-300, 1.5), (1e200, 1.0, 1.1), (1.0, 1e-320, 1.01), (1.0, 1e308, 1.9)])
    def test_overflowing_sides_rejected(self, A, B, p):
        # a float power raised a bare OverflowError; A * A went to inf silently
        with pytest.raises(DomainError, match="overflow"):
            young_variant_check(A, B, p)


class TestBbmDegree:
    def test_constant_map_trivial(self):
        check = bbm_degree_check(power_map(64, 0), 1.5)
        assert check.lhs >= 0.0 and check.rhs == 0.0

    def test_identity_sharp_within_slack(self, request):
        # the corrected energy meets the sharp constant to rounding
        check = bbm_degree_check(identity_map(512), 2.0)
        assert abs(check.margin) <= 1e-14 * check.rhs
        # the double sum alone, without the diagonal, sits 1/n below the
        # sharp constant
        request.getfixturevalue("raw_double_sum")
        check = bbm_degree_check(identity_map(512), 2.0)
        assert check.margin < 0.0
        assert check.lhs >= 0.98 * check.rhs
        assert abs(check.margin) / check.rhs <= 0.01

    @pytest.mark.parametrize("r", [0.0, 0.2, 0.4])
    def test_moebius_family_near_extremal(self, r):
        check = bbm_degree_check(moebius_map(512, (r, 0.0)), 2.0)
        assert abs(check.margin) / check.rhs <= 0.01

    def test_higher_degrees_with_slack(self):
        for d in (-3, 2, 3):
            u = perturb(power_map(512, d), 0.2, abs(d))
            for p in (1.4, 2.0):
                check = bbm_degree_check(u, p)
                assert check.lhs >= 0.98 * check.rhs
