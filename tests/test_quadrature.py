"""Quadrature engine against closed-form antiderivatives and the Beta oracle."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracmin import (
    ConvergenceError,
    DomainError,
    beta,
    integral_sin_power,
    integrate_singular,
)
from fracmin import inequalities, quadrature
from fracmin.quadrature import _SHORTEST_SHARED, _integrate_rows, _node_table, _row_estimates


def _tanh_sinh_estimates(f, a, b, max_level):
    """The engine's estimates of one integral, one per level up to
    max_level: a batch of one row under a tolerance that no estimate meets."""

    def one_row(x, rows):
        return np.asarray(f(x[0]))[None]

    for _, total, _ in _row_estimates(one_row, np.array([[a]]), np.array([[b]]), np.zeros(1, int), max_level, -math.inf):
        yield total[0]


def _engine_limits(max_level, abs_tol):
    """The engine's refinement depth and stopping tolerance, patched."""
    return mock.patch.multiple(quadrature, _MAX_LEVEL=max_level, _ABS_TOL=abs_tol)


def _midpoint_refined(f, a, b):
    """A dyadically refined midpoint rule with one Richardson step.

    An independent reference for smooth integrands: it shares no nodes
    or weights with the tanh-sinh rule.
    """
    length = b - a
    plain_prev = None
    extrap_prev = None
    for level in range(1, 13):
        m = 2**level
        h = length / m
        x = a + (np.arange(m) + 0.5) * h
        plain = float(np.sum(f(x))) * h
        if plain_prev is not None:
            # midpoint error expands in even powers of h; one Richardson
            # step removes the h^2 term
            extrap = (4.0 * plain - plain_prev) / 3.0
            if extrap_prev is not None and abs(extrap - extrap_prev) <= 1e-10:
                return extrap
            extrap_prev = extrap
        plain_prev = plain
    raise ConvergenceError("refined midpoint rule did not converge within level 12")


class TestIntegrateSingular:
    def test_constant(self):
        value = integrate_singular(lambda x: np.ones_like(x), 0.0, math.pi)
        assert value == pytest.approx(math.pi, abs=1e-12)

    def test_inverse_sqrt(self):
        # antiderivative 2 sqrt(t)
        value = integrate_singular(lambda t: t**-0.5, 0.0, 1.0)
        assert value == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, -0.1, 0.0, 0.5])
    def test_power_law(self, alpha):
        value = integrate_singular(lambda t: t**alpha, 0.0, 1.0)
        assert value == pytest.approx(1.0 / (alpha + 1.0), abs=1e-9)

    def test_interior_singularity_by_reflection(self):
        # |2t-1|^(p-2) on (0,1): each half reflected onto (0, 1/2) puts the
        # singular point at 0; the antiderivative gives 1/(p-1) in total
        for p in (1.2, 1.5, 1.8):
            halves = 2.0 * integrate_singular(lambda tau: (2.0 * tau) ** (p - 2.0), 0.0, 0.5)
            assert halves == pytest.approx(1.0 / (p - 1.0), abs=1e-9)

    def test_smooth_scheme_agreement(self):
        integrands = [
            (np.sin, 0.0, math.pi, 2.0),
            (np.exp, -1.0, 2.0, math.e**2 - math.exp(-1.0)),
            (lambda x: x**3 - 2.0 * x, 0.0, 2.0, 0.0),
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
        ]
        for f, a, b, exact in integrands:
            de = integrate_singular(f, a, b)
            mid = _midpoint_refined(f, a, b)
            assert abs(de - mid) <= 10.0 * 1e-10
            assert de == pytest.approx(exact, abs=1e-9)

    def test_midpoint_cannot_resolve_endpoint_singularity(self):
        with pytest.raises(ConvergenceError):
            _midpoint_refined(lambda t: t**-0.5, 0.0, 1.0)

    def test_nonconvergence_at_low_level(self):
        with _engine_limits(2, 1e-14), pytest.raises(ConvergenceError):
            integrate_singular(lambda t: np.cos(7.0 * t) * t**-0.3, 0.0, 1.0)

    def test_callback_errors_propagate(self):
        class Boom(RuntimeError):
            pass

        def bad(_):
            raise Boom("integrand failure")

        with pytest.raises(Boom):
            integrate_singular(bad, 0.0, 1.0)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(DomainError):
            integrate_singular(lambda t: np.full_like(t, np.inf), 0.0, 1.0)

    def test_wrong_shape_rejected(self):
        # a scalar where one value per node is due
        with pytest.raises(DomainError, match="one value per node"):
            integrate_singular(lambda t: 1.0, 0.0, 1.0)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_singular(np.sin, 1.0, 1.0)
        with pytest.raises(DomainError):
            integrate_singular(np.sin, 2.0, 1.0)

    def test_deterministic(self):
        values = {integrate_singular(lambda t: t**-0.25, 0.0, 2.0) for _ in range(5)}
        assert len(values) == 1


class TestIntegralSinPower:
    def test_p2_is_pi(self):
        assert integral_sin_power(2.0) == pytest.approx(math.pi, abs=1e-12)

    def test_beta_oracle(self):
        # integral equals B((p-1)/2, 1/2)
        for p in (1.1, 1.3, 1.5, 1.7, 1.9, 1.99):
            assert integral_sin_power(p) == pytest.approx(beta(0.5 * (p - 1.0), 0.5), abs=1e-9)

    def test_beta_integral_consistency_small_exponents(self):
        # B(a, 1/2) = integral of sin^(2a-1); exercises a down to 0.05
        for a in (0.05, 0.1, 0.25, 0.5):
            p = 2.0 * a + 1.0
            assert integral_sin_power(p) == pytest.approx(beta(a, 0.5), rel=1e-9)

    def test_monotone_decreasing_in_p(self):
        ps = np.linspace(1.02, 2.0, 50)
        values = [integral_sin_power(float(p)) for p in ps]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_convergence_order(self):
        # each level halves h; the error against the Beta oracle must drop
        # by 10x or more per level until it is below 1e-10
        oracle = beta(0.1, 0.5)
        estimates = _tanh_sinh_estimates(
            lambda x: np.sin(x) ** (1.2 - 2.0), 0.0, 0.5 * math.pi, 6
        )
        errors = [abs(2.0 * est - oracle) for est in estimates]
        for coarse, fine in zip(errors, errors[1:]):
            if coarse <= 1e-10:
                break
            assert fine <= coarse / 10.0

    @pytest.mark.parametrize("bad", [0.5, 1.0, 2.5, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            integral_sin_power(bad)


def _reference_estimates(f, a, b, max_level):
    """The tanh-sinh level loop with no caching or batching.

    Every level rebuilds its node table from t, and the lower and upper
    nodes go to the integrand in two separate calls.
    """

    def level_sum(t):
        length = b - a
        u = 0.5 * math.pi * np.sinh(t)
        q = np.exp(-2.0 * u)
        dist = length * q / (1.0 + q)
        weight = 0.5 * length * (0.5 * math.pi) * np.cosh(t) * 4.0 * q / (1.0 + q) ** 2
        keep = dist > 0.0
        dist, weight = dist[keep], weight[keep]
        lower = np.asarray(f(a + dist), dtype=np.float64)
        upper = np.asarray(f(b - dist), dtype=np.float64)
        return float(np.sum(weight * (lower + upper)))

    length = b - a
    center = np.asarray(f(np.array([a + 0.5 * length])), dtype=np.float64)[0]
    total = center * (0.25 * math.pi * length) + level_sum(np.arange(1.0, 6.0))
    yield total
    h = 1.0
    for _ in range(max_level):
        h *= 0.5
        total = 0.5 * total + level_sum(np.arange(1.0, math.ceil(6.0 / h), 2.0) * h) * h
        yield total


def _reference_integrate(f, a, b):
    """The stopping rule at depth 12 and tolerance 1e-10, as literals."""
    previous = math.inf
    for level, total in enumerate(_reference_estimates(f, a, b, 12)):
        if level >= 3 and abs(total - previous) <= 1e-10:
            return total
        previous = total
    raise ConvergenceError("reference did not converge")


def _recording(f):
    """f, plus the list of every node it is asked for."""
    nodes = []

    def wrapped(x):
        nodes.append(np.array(x, copy=True))
        return f(x)

    return wrapped, nodes


def _sin_power_remainder(p):
    exponent = p - 2.0
    return lambda x: x**exponent * np.expm1(exponent * np.log(np.sin(x) / x))


def _segment_piece(w_sq, w_dot, seg_sq, p):
    # |w + tau delta|^(p-2) in tau, nearly singular at 0 when |w| is small
    return lambda tau: np.maximum(w_sq + 2.0 * tau * w_dot + tau * tau * seg_sq, 5e-324) ** (
        0.5 * (p - 2.0)
    )


def _row(f, row):
    """Row `row` of a batch integrand f(x, rows), as a 1-D integrand."""
    return lambda x: f(x[None], np.array([row]))[0]


def _foot_piece_case(d, lo, span, p):
    """The integrand and interval that the inequality checks' quadrature
    batch integrates for the piece (lo, lo + span) of a line d from the
    origin, as a 1-D integrand on its own.  The segment from (lo, d) to
    (lo + span, d) has that one piece where lo, span and d come back
    exactly, as they do for the case below."""
    calls = []
    pieces = inequalities._arc_pieces(np.array([lo, d]), np.array([lo + span, d]), p)
    with mock.patch.object(inequalities, "_integrate_rows", lambda f, a, b: calls.append((f, a, b)) or [0.0] * a.size):
        inequalities._arc_integrals([pieces])
    f, a, b = calls[0]
    return _row(f, 0), float(a[0]), float(b[0])


REFERENCE_CASES = [
    (np.ones_like, 0.0, 1.0),  # converged at level 3, the earliest stop
    (_sin_power_remainder(1.13921), 0.0, 0.5 * math.pi),
    (_sin_power_remainder(1.01), 0.0, 0.5 * math.pi),
    (_sin_power_remainder(1.9), 0.0, 0.5 * math.pi),
    (_segment_piece(0.37, 1e-17, 41.5, 1.3), 0.0, 0.62),
    (_segment_piece(2.5e-9, -3e-16, 7.25, 1.05), 0.0, 0.31),
    (lambda t: t**-0.9, 0.0, 1.0),
    (lambda t: t**-0.5, 0.0, 1e-300),  # the deepest distances underflow and are dropped
    # of levels 0-3 only the last level-3 node (t = 5.875) underflows
    (lambda t: 1e45 * t**-0.5, 0.0, 1e-90),
    _foot_piece_case(1e-200, 0.0, 1.0, 1.05),  # a line 1e-200 from the origin
    (lambda t: np.cos(7.0 * t) * t**-0.3, 0.0, 1.0),
    # level-7 steps of 3.1e-11 and 3.1e-10: these stop at levels 7 and 8
    # only for a tolerance within a factor 3 of 1e-10
    (lambda t: np.cos(400.0 * t), 0.0, 1.0),
    (lambda t: 10.0 * np.cos(400.0 * t), 0.0, 1.0),
    (lambda t: np.cos(12800.0 * t), 0.0, 1.0),  # converged at level 12, the deepest
]


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("max_level", [1, 2, 3, 12])
    @pytest.mark.parametrize("case", range(len(REFERENCE_CASES)))
    def test_estimates_bit_identical(self, case, max_level):
        f, a, b = REFERENCE_CASES[case]
        f_new, nodes_new = _recording(f)
        f_ref, nodes_ref = _recording(f)
        new = list(_tanh_sinh_estimates(f_new, a, b, max_level))
        ref = list(_reference_estimates(f_ref, a, b, max_level))
        assert len(new) == len(ref) == max_level + 1
        assert new == ref
        assert np.array_equal(np.sort(np.concatenate(nodes_new)), np.sort(np.concatenate(nodes_ref)))

    @pytest.mark.parametrize("case", range(len(REFERENCE_CASES)))
    def test_stopping_requests_no_extra_nodes(self, case):
        # the batched levels 0-3 are nodes the stopping rule always needs;
        # later levels are requested only while it has not been met
        f, a, b = REFERENCE_CASES[case]
        f_new, nodes_new = _recording(f)
        f_ref, nodes_ref = _recording(f)
        assert integrate_singular(f_new, a, b) == _reference_integrate(f_ref, a, b)
        assert np.array_equal(np.sort(np.concatenate(nodes_new)), np.sort(np.concatenate(nodes_ref)))

    @pytest.mark.parametrize("f, stop_level", [(np.ones_like, 3), (lambda t: np.cos(400.0 * t), 7)])
    def test_integrand_calls(self, f, stop_level):
        # one call for the centre and levels 0-3, then one per deeper level
        f_new, nodes = _recording(f)
        integrate_singular(f_new, 0.0, 1.0)
        assert len(nodes) == 1 + (stop_level - 3)
        assert nodes[0].size == 1 + 2 * 47

    def test_only_the_last_level_three_node_underflows(self):
        q, one_plus_q = _node_table(0, 3)[:2]
        dropped = np.flatnonzero(1e-90 * q / one_plus_q == 0.0)
        assert dropped.tolist() == [q.size - 1]

    def test_node_tables_built_once(self):
        def f(t):
            return np.cos(12800.0 * t)  # reaches level 12

        integrate_singular(f, 0.0, 1.0)
        misses = _node_table.cache_info().misses
        for _ in range(3):
            integrate_singular(f, 0.0, 1.0)
            integrate_singular(np.ones_like, 0.0, 1e-90)
        assert _node_table.cache_info().misses == misses
        assert _node_table(0, 3)[0].size == 47

    def test_no_level_beyond_twelve(self):
        # twice the frequency of the last reference case needs level 13
        with pytest.raises(ConvergenceError):
            integrate_singular(lambda t: np.cos(25600.0 * t), 0.0, 1.0)

    def test_nan_at_level_two_node(self):
        # t = 1/4 is a level-2 node; its lower abscissa on (0, 1) is q/(1+q)
        q = math.exp(-math.pi * math.sinh(0.25))
        bad = q / (1.0 + q)

        def f(x):
            return np.where(np.isclose(x, bad, rtol=1e-9, atol=0.0), np.nan, 1.0)

        with pytest.raises(DomainError):
            integrate_singular(f, 0.0, 1.0)
        # at max level 1 the node is never requested: the run ends unconverged
        with _engine_limits(1, 1e-10), pytest.raises(ConvergenceError):
            integrate_singular(f, 0.0, 1.0)



def _recording_rows(f):
    """f(x, rows), plus the list of the rows of every call."""
    calls = []

    def wrapped(x, rows):
        calls.append(rows.tolist())
        return f(x, rows)

    return wrapped, calls


_VECTOR = st.integers(1, 3).flatmap(lambda m: st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m).map(np.array))


@st.composite
def _jp_draws(draw):
    """A jp draw (a, b, p): a far segment, a short one or an antipodal
    pair, scaled by a power of two from 2^-1000 to 2^1000."""
    scale = 2.0 ** draw(st.integers(-1000, 1000))
    a = draw(_VECTOR) * scale
    if not a.any():  # also where the scale underflows it: a = b = 0 is rejected
        a[0] = scale
    kind = draw(st.sampled_from(["far", "short", "antipodal"]))
    if kind == "far":
        b = draw(st.lists(st.floats(-10.0, 10.0), min_size=a.size, max_size=a.size).map(np.array)) * scale
    elif kind == "short":
        step = draw(st.lists(st.floats(-10.0, 10.0), min_size=a.size, max_size=a.size).map(np.array))
        b = a + step * scale * 10.0 ** -draw(st.integers(1, 300))
    else:
        b = -a
    return a, b, draw(st.floats(1.01, 1.99))


class TestBatchedRows:
    def test_one_integrand_call_per_level(self):
        # rows that stop at levels 3, 7 and 12: every level evaluates the
        # rows still active in one call, and each row keeps its own bits
        frequency = np.array([[0.0], [400.0], [12800.0]])
        f, calls = _recording_rows(lambda x, rows: np.cos(frequency[rows] * x))
        a, b = np.zeros(3), np.ones(3)
        results = _integrate_rows(f, a, b)
        assert calls == [[0, 1, 2]] + [[1, 2]] * 4 + [[2]] * 5
        for row, value in enumerate(results):
            assert value == _reference_integrate(_row(f, row), 0.0, 1.0)

    def test_short_rows_run_alone(self):
        # the last level-3 node of (0, 1e-90) underflows and is dropped,
        # so that row runs as a batch of one, beside the batch of the others
        f, calls = _recording_rows(lambda x, rows: np.cos(x) * x**-0.5)
        a, b = np.zeros(3), np.array([1.0, 1e-90, 2.0])
        assert b[1] < _SHORTEST_SHARED
        results = _integrate_rows(f, a, b)
        assert [rows for rows in calls if 1 in rows] == [[1]] * (len(calls) - calls.index([1]))
        assert calls[0] == [0, 2]
        for row, value in enumerate(results):
            assert value == _reference_integrate(_row(f, row), 0.0, float(b[row]))

    @settings(derandomize=True, max_examples=300, deadline=None)
    # a segment 1e-90 long 1 from the origin: its row runs alone
    @example(
        draws=[
            (np.array([1.0, 0.0]), np.array([1.0, 1e-90]), 1.5),
            (np.array([3.0, -1.0]), np.array([-2.0, 4.0]), 1.3),
        ]
    )
    # antipodal pairs integrate in closed form, between rows of the batch
    @example(
        draws=[
            (np.array([0.5, 2.0]), np.array([-3.0, 1.0]), 1.01),
            (np.array([-1.0, 0.0]), np.array([1.0, 0.0]), 1.7),
            (np.array([7.0]), np.array([-9.0]), 1.99),
            (np.array([1.0, 2.0, 3.0]), np.array([-1.0, 5.0, 0.5]), 1.2),
        ]
    )
    # two rows at p = 1.5: numpy's power rounds some nodes differently for
    # a column of exponents 0.5 than for the one exponent of a row alone
    @example(draws=[(np.array([5.75, 1.6875]), np.array([1.0, 10.0]), 1.5)])
    @given(draws=st.lists(_jp_draws(), min_size=1, max_size=8))
    def test_jp_rows_against_reference(self, draws):
        # every row of the jp checks' quadrature batch, against the
        # reference loop on that row's integrand and interval alone
        batches = []

        def recording(f, a, b):
            results = _integrate_rows(f, a, b)
            batches.append((f, a, b, results))
            return results

        with mock.patch.object(inequalities, "_integrate_rows", recording), np.errstate(over="ignore"):
            try:
                inequalities._jp_checks(draws)
            except DomainError as error:
                # huge draws, whose sides overflow after the integrals, and
                # pieces too short for any width, as jp_monotonicity_check
                assert "overflow" in str(error) or "interval" in str(error)
        for f, a, b, results in batches:
            for row, value in enumerate(results):
                assert value == _reference_integrate(_row(f, row), float(a[row]), float(b[row]))
