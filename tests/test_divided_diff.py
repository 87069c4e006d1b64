import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from decoy_akg import (
    DegeneratePointsError,
    EvaluationError,
    PointSet,
    divided_difference,
    divided_difference_recurrence,
    power_divided_difference,
    simplex_mean_value_oracle,
)
from decoy_akg.divided_diff import DEFAULT_SERIES_TOL, _top_limit, h_series


def test_single_point_is_function_value():
    assert divided_difference(lambda x: x * x, PointSet([3.0])) == 9.0


def test_reciprocal_two_points():
    # closed form (-1)^(n-1)/(x1*x2)
    value = divided_difference(lambda x: 1.0 / x, PointSet([1.0, 2.0]))
    assert value == pytest.approx(-0.5, rel=1e-14)


def test_direct_vs_recurrence_exp():
    pts = PointSet([0.1, 0.2, 0.3])
    direct = divided_difference(math.exp, pts)
    recur = divided_difference_recurrence(math.exp, pts)
    assert recur == pytest.approx(direct, rel=1e-12)


def test_recurrence_identity_slope():
    assert divided_difference_recurrence(lambda x: x, PointSet([1.0, 5.0])) == 1.0


def test_recurrence_linear_three_points_vanishes():
    assert divided_difference_recurrence(lambda x: x, PointSet([1.0, 2.0, 3.0])) == pytest.approx(
        0.0, abs=1e-15
    )


def test_recurrence_cube_three_points():
    value = divided_difference_recurrence(lambda x: x**3, PointSet([1.0, 2.0, 3.0]))
    assert value == pytest.approx(6.0, rel=1e-14)  # sum of the points


def _enumerated_power_sum(exponent: int, xs: tuple[float, ...]) -> float:
    """Oracle: explicit sum of all monomials of total degree exponent-n+1."""
    degree = exponent - len(xs) + 1
    total = 0.0
    for combo in product(range(degree + 1), repeat=len(xs)):
        if sum(combo) == degree:
            term = 1.0
            for x, power in zip(xs, combo):
                term *= x**power
            total += term
    return total


def test_power_reciprocal_closed_form():
    value = power_divided_difference(-1, PointSet([1.0, 2.0, 4.0]))
    assert value == pytest.approx(1.0 / 8.0, rel=1e-14)


def test_power_vanishing_region_exact_zero():
    assert power_divided_difference(2, PointSet([1.0, 2.0, 3.0, 4.0, 5.0])) == 0.0


def test_power_by_enumeration():
    xs = (1.0, 2.0, 3.0)
    expected = _enumerated_power_sum(4, xs)  # evaluates to 25
    assert expected == 25.0
    assert power_divided_difference(4, PointSet(xs)) == pytest.approx(expected, rel=1e-14)
    direct = divided_difference(lambda x: x**4, PointSet(xs))
    assert direct == pytest.approx(expected, rel=1e-12)


def test_power_negative_exponent_rejects_zero_point():
    with pytest.raises(ValueError):
        power_divided_difference(-1, PointSet([0.0, 1.0]))


def test_degenerate_points_rejected():
    with pytest.raises(DegeneratePointsError):
        PointSet([1.0, 1.0 + 1e-12])


def test_nonfinite_value_rejected():
    with pytest.raises(EvaluationError):
        divided_difference(lambda x: float("inf"), PointSet([0.0, 1.0]))


@st.composite
def point_sets(draw, max_points=6):
    n = draw(st.integers(min_value=1, max_value=max_points))
    start = draw(st.floats(min_value=-3.0, max_value=3.0))
    gaps = draw(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n - 1, max_size=n - 1)
    )
    pts = [start]
    for gap in gaps:
        pts.append(pts[-1] + gap)
    return PointSet(pts)


@given(point_sets(), st.sampled_from(["exp", "sin", "poly"]))
@example(PointSet([2.96875, 3.03125, 3.09375, 3.15625, 3.28125, 3.34375]), "exp")
def test_direct_and_recurrence_agree(pts, fname):
    f = {"exp": math.exp, "sin": math.sin, "poly": lambda x: x**4 - 2.0 * x + 1.0}[fname]
    direct = divided_difference(f, pts)
    recur = divided_difference_recurrence(f, pts)
    # Both routes are linear in the same values f(x_i).  To first order each
    # is off by at most 3(n-1) u S, with u the unit roundoff and S the sum of
    # |f(x_i)| / prod_{j != i} |x_i - x_j|: a direct term takes 2n-2 roundings
    # and the sum n-1, and every path up the Newton table 3 per level, all
    # paths from f(x_i) with the sign of its coefficient.
    xs = pts.points
    n = len(xs)
    conditioning = sum(
        abs(f(x)) / math.prod(abs(x - y) for y in xs if y != x) for x in xs
    )
    assert abs(direct - recur) <= 6 * (n - 1) * 2.0**-53 * conditioning


@given(point_sets(max_points=6), st.integers(min_value=0, max_value=12))
def test_power_vanishes_below_degree(pts, exponent):
    n = len(pts.points)
    if exponent <= n - 2:
        assert power_divided_difference(exponent, pts) == 0.0


@given(point_sets(max_points=5))
def test_mean_value_containment_for_exp(pts):
    # n! * D_exp equals exp evaluated somewhere inside [x_1, x_n]
    n = len(pts.points) - 1
    value = math.factorial(n) * divided_difference(math.exp, pts)
    lo, hi = math.exp(pts.points[0]), math.exp(pts.points[-1])
    assert lo - 1e-9 * hi <= value <= hi * (1.0 + 1e-9)


@given(point_sets(max_points=5), st.randoms(use_true_random=False))
def test_permutation_symmetry(pts, rand):
    shuffled = list(pts.points)
    rand.shuffle(shuffled)
    reordered = PointSet(shuffled)
    a = divided_difference(math.exp, pts)
    b = divided_difference(math.exp, reordered)
    assert a == b  # canonical ordering makes the symmetry exact


def test_oracle_constant_derivative_is_exact():
    est = simplex_mean_value_oracle(lambda y: 2.5, PointSet([0.3, 0.9]), samples=100, seed=1)
    assert est.estimate == pytest.approx(2.5, rel=1e-12)
    assert est.standard_error == pytest.approx(0.0, abs=1e-12)


def test_oracle_matches_exp_divided_difference():
    pts = PointSet([0.1, 0.2])
    est = simplex_mean_value_oracle(np.exp, pts, samples=200_000, seed=42)
    target = divided_difference(math.exp, pts)
    assert abs(est.estimate - target) <= 3.0 * est.standard_error


def test_oracle_matches_cubic_second_derivative():
    # f(x) = x^3 has f'' = 6x; three points probe the 2nd-derivative average
    pts = PointSet([1.0, 2.0, 3.0])
    est = simplex_mean_value_oracle(lambda y: 6.0 * y, pts, samples=200_000, seed=7)
    target = power_divided_difference(3, pts)  # = x1 + x2 + x3 = 6
    assert target == pytest.approx(6.0, rel=1e-14)
    assert abs(est.estimate - target) <= 3.0 * max(est.standard_error, 1e-12)



@given(
    st.lists(st.floats(0.05, 2.0), max_size=8),
    st.lists(st.floats(0.05, 2.0), min_size=1, max_size=30),
    st.sampled_from([None, 0.3, 0.9]),
)
def test_h_series_lanes_equal_scalar_calls(prefix, lanes, alpha):
    # each element of an array last point sums the terms a scalar call would
    weight = None if alpha is None else (lambda n: -math.expm1(n * math.log1p(-alpha)))
    points = tuple(sorted(prefix))
    values = h_series(points + (np.array(lanes),), weight)
    assert values.shape == (len(lanes),)
    for value, last in zip(values.tolist(), lanes):
        assert value == h_series(points + (last,), weight)


def test_h_series_needs_a_point():
    with pytest.raises(ValueError, match="empty point set"):
        h_series(())


def test_h_series_stop_is_the_majorant_test():
    # x_top < _top_limit(m, n, n!) exactly where the majorant of term n + 1
    # is below half the tolerance
    for m in range(1, 11):
        factorial = float(math.factorial(m + 1))
        for n in range(m + 2, m + 40):
            factorial *= n
            if n <= m + 3:
                continue
            limit = _top_limit(m, n, factorial)

            def majorant(top):
                return math.comb(n - 1, m - 1) * top ** (n - m) / (factorial * (n + 1))

            assert majorant(limit) >= 0.5 * DEFAULT_SERIES_TOL
            assert majorant(math.nextafter(limit, 0.0)) < 0.5 * DEFAULT_SERIES_TOL
