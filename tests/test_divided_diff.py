import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given
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
    return PointSet(pts, min_gap=0.01)


@given(point_sets(), st.sampled_from(["exp", "sin", "poly"]))
def test_direct_and_recurrence_agree(pts, fname):
    f = {"exp": math.exp, "sin": math.sin, "poly": lambda x: x**4 - 2.0 * x + 1.0}[fname]
    direct = divided_difference(f, pts)
    recur = divided_difference_recurrence(f, pts)
    scale = max(1.0, abs(direct), abs(recur))
    assert abs(direct - recur) <= 1e-10 * scale


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
    reordered = PointSet(shuffled, min_gap=pts.min_gap)
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

