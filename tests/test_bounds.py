import math
import operator
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from decoy_akg import (
    ExpansionTable,
    InfeasibleStatsError,
    IntensityGrid,
    ObservedStats,
    aggregate,
    alpha_of_distance,
    build_matrices,
    lp_oracle_b1_max,
    lp_oracle_b_j_max,
    lp_oracle_q1_min,
    lp_oracle_q_j_min,
    model_stats,
)
from decoy_akg import bounds
from decoy_akg.channel import STANDARD_FIBER
from decoy_akg.reference import beta
from conftest import feasible_instance as _feasible_instance
from conftest import random_grid


def test_observed_stats_validation():
    with pytest.raises(ValueError):
        ObservedStats((0.1, 0.2), (0.1,))  # even length
    with pytest.raises(ValueError):
        ObservedStats((0.1, 1.2, 0.2), (0.1,))  # rate above 1
    with pytest.raises(ValueError, match="one error rate per intensity"):
        ObservedStats((0.1, 0.2, 0.2), (0.1, 0.1))
    for args in (
        (("1e-6", 0.1, 0.2), (0.1,)),
        ((1e-6, True, 0.2), (0.1,)),
        ((1e-6, 0.1, 0.2), (np.bool_(False),)),
        ((1e-6, 0.1, 0.2), (0.1,), "0"),
    ):  # float() would read them all
        with pytest.raises(TypeError, match="not a number"):
            ObservedStats(*args)
    with pytest.raises(TypeError, match="not a number"):
        ObservedStats.symmetric(1e-6, (True, 0.2), (0.1, 0.1))
    # every rate is held to [0, 1], a NaN in any place too, and the first refused one named
    for args, name, got in (
        (((0.1, 0.2, math.nan), (0.1,)), "p", "nan"),
        (((0.1, 0.2, 0.2, 0.3, 0.3), (0.1, math.nan)), "s", "nan"),
        (((0.1, 0.2, 0.2), (0.1,), math.nan), "p_dark", "nan"),
        (((0.1, 0.05, 0.2), (0.1,), -1e-9), "p_dark", "-1e-09"),
        (((0.1, math.inf, -0.5), (0.1,), 2.0), "p", "inf"),
    ):
        with pytest.raises(ValueError, match=rf"^{name} entries must lie in \[0, 1\]; got {got}$"):
            ObservedStats(*args)
    with pytest.raises(InfeasibleStatsError, match=r"p_dark=0.06; got 0.05$"):
        ObservedStats((0.1, 0.05, 0.2), (0.1,), 0.06)
    stats = ObservedStats((np.float64(0.1), 0.2, 1), (np.float32(0.5),), np.float64(0.0))
    assert all(type(v) is float for v in (*stats.p, *stats.s, stats.p_dark))
    stats = ObservedStats.symmetric(1e-6, (1e-4, 2e-4), (0.1, 0.1), p_dark=1e-7)
    assert stats.k == 2
    assert stats.p[1] == stats.p[3] and stats.p[2] == stats.p[4]


def test_beta_order_one():
    grid = IntensityGrid((0.1, 0.2))
    assert beta(1, 1, grid) == pytest.approx(10.0 * math.exp(0.1), rel=1e-14)


def test_beta_order_two_matches_two_intensity_coefficients():
    grid = IntensityGrid((0.1, 0.2))
    mu1, mu2 = 0.1, 0.2
    expected_1 = mu2 * math.exp(mu1) / (mu1 * (mu2 - mu1))
    expected_2 = -mu1 * math.exp(mu2) / (mu2 * (mu2 - mu1))
    assert beta(2, 1, grid) == pytest.approx(expected_1, rel=1e-13)
    assert beta(2, 2, grid) == pytest.approx(expected_2, rel=1e-13)
    with pytest.raises(ValueError):
        beta(3, 1, grid)


def test_order_two_bound_equals_legacy_form_without_dark_counts(table_cache):
    # Wang's two-intensity closed forms (PRL 94, 230503 (2005)) are the
    # order-2 yield bound and the order-1 error bound without dark counts
    grid = IntensityGrid((0.1, 0.2, 0.35), min_spacing=0.05)
    stats = model_stats(grid, 1e-3, STANDARD_FIBER)
    assert stats.p_dark == 0.0
    agg = aggregate(stats, grid, table_cache(grid))
    (mu1, mu2, _), (p0, p1, p2) = grid.mus, stats.p[:3]
    wang_q2_min = (
        mu2 * math.exp(mu1) / (mu1 * (mu2 - mu1)) * (p1 - math.exp(-mu1) * p0)
        - mu1 * math.exp(mu2) / (mu2 * (mu2 - mu1)) * (p2 - math.exp(-mu2) * p0)
    )
    wang_b1_max = (stats.s[0] * p1 * math.exp(mu1) - 0.5 * p0) / mu1
    assert agg.q_j_min[1] == pytest.approx(wang_q2_min, rel=1e-10)
    assert agg.b_j_max[0] == pytest.approx(wang_b1_max, rel=1e-10)


def test_order_one_bound_recovers_saturating_truth():
    # stats built with q^2 exactly at its box ceiling make the order-1 bound tight
    rng = np.random.default_rng(5)
    k, p_dark = 2, 1e-5
    grid = random_grid(rng, k)
    table = ExpansionTable.build(grid)
    p_matrix = build_matrices(grid).constraint.p
    q_vec = rng.uniform(0.0, 1.0 - p_dark, size=2 * k + 2)
    q_vec[2] = 1.0 - p_dark
    p = p_matrix @ q_vec + p_dark
    stats = ObservedStats(tuple(p), (0.1,) * k, p_dark)
    assert aggregate(stats, grid, table).q_j_min[0] == pytest.approx(q_vec[1], rel=1e-9, abs=1e-12)


def test_plus_basis_variant_uses_conjugate_rates():
    rng = np.random.default_rng(9)
    grid, table, stats, q_vec, _ = _feasible_instance(rng, 3, p_dark=1e-4)
    agg = aggregate(stats, grid, table)
    for x_val, plus_val in zip(agg.q_j_min, agg.q_kj_min, strict=True):
        assert x_val != pytest.approx(plus_val, abs=1e-15)  # asymmetric stats
    sym = ObservedStats.symmetric(stats.p[0], stats.p[1:4], stats.s, stats.p_dark)
    agg = aggregate(sym, grid, table)
    assert agg.q_j_min == agg.q_kj_min
    assert agg.q1_source_j <= 3  # the first of tied orders wins: the key basis


def test_soundness_on_synthetic_truth():
    rng = np.random.default_rng(17)
    for trial in range(30):
        k = int(rng.integers(1, 5))
        p_dark = float(rng.choice([0.0, 1e-6, 1e-3]))
        grid, table, stats, q_vec, b_vec = _feasible_instance(rng, k, p_dark)
        agg = aggregate(stats, grid, table)
        assert agg.q1_min <= q_vec[1] + 1e-9
        assert agg.b1_max >= b_vec[0] - 1e-9


def test_table_rows_give_the_from_points_bounds_exactly():
    # the table's beta rows and decays are computed once per grid; every bound
    # read through them must equal, to the last bit, the bound from the points
    rng = np.random.default_rng(23)
    for k in range(1, 11):
        for p_dark in (0.0, 1e-6, 1e-3):
            grid, table, stats, _, _ = _feasible_instance(rng, k, p_dark)
            for j, row in enumerate(table.beta_rows, start=1):
                assert row == tuple(beta(j, i, grid) for i in range(1, j + 1))
            cap = 1.0 - p_dark
            vacuum = [math.exp(-mu) * (stats.p[0] - p_dark) for mu in grid.mus]
            c_key, c_plus = (
                [stats.p[offset + i] - p_dark - v for i, v in enumerate(vacuum, start=1)]
                for offset in (0, k)
            )
            inputs = zip(stats.s, stats.p[1:], vacuum)
            d = [s_i * p_i - 0.5 * (p_dark + v) for s_i, p_i, v in inputs]
            agg = aggregate(stats, grid, table)
            for j in range(1, k + 1):
                product, omega = math.prod(grid.mus[:j]), table.omegas[j - 1]
                row = [beta(j, i, grid) for i in range(1, j + 1)]  # from the points
                q, b = bounds.order_bounds(row, product, c_key[:j], d[:j], omega, cap)
                q_plus, _ = bounds.order_bounds(row, product, c_plus[:j], d[:j], omega, cap)
                assert agg.q_j_min[j - 1] == q and agg.b_j_max[j - 1] == b
                assert agg.q_kj_min[j - 1] == q_plus


def test_symmetric_stats_share_the_key_basis_bounds():
    # equal basis inputs skip the conjugate-basis computation: its bounds are the
    # key basis's, bit for bit, and a tie still goes to the key basis
    rng = np.random.default_rng(41)
    for k in range(1, 11):
        grid, table, feasible, _, _ = _feasible_instance(rng, k, 1e-5)
        symmetric = ObservedStats.symmetric(
            feasible.p[0], feasible.p[1 : k + 1], feasible.s, feasible.p_dark
        )
        for stats in (model_stats(grid, 1e-3, STANDARD_FIBER), symmetric):
            agg = aggregate(stats, grid, table)
            _, c_plus, d = bounds._observed_inputs(stats, table, 0, k)
            for j, (row, omega) in enumerate(zip(table.beta_rows, table.omegas), start=1):
                product, cap = math.prod(grid.mus[:j]), 1.0 - stats.p_dark
                q_plus = bounds.order_bounds(row, product, c_plus, d, omega, cap)[0]
                assert agg.q_kj_min[j - 1].hex() == agg.q_j_min[j - 1].hex() == q_plus.hex()
            assert 1 <= agg.q1_source_j <= k


def test_order_bounds_reads_the_first_j_inputs():
    # every order takes the whole input lists, floats or the engine's lane arrays
    rng = np.random.default_rng(43)
    for k in range(1, 11):
        grid, table, stats, _, _ = _feasible_instance(rng, k, 1e-4)
        c, _, d = bounds._observed_inputs(stats, table, 0, k)
        scale = rng.uniform(0.5, 1.5, size=5)
        c_lanes, d_lanes = np.outer(c, scale), np.outer(d, scale)
        cap = 1.0 - stats.p_dark
        for j, (row, omega) in enumerate(zip(table.beta_rows, table.omegas), start=1):
            product = math.prod(grid.mus[:j])
            whole = bounds.order_bounds(row, product, c, d, omega, cap)
            first = bounds.order_bounds(row, product, c[:j], d[:j], omega, cap)
            assert [v.hex() for v in whole] == [v.hex() for v in first]
            whole = bounds.order_bounds(row, product, c_lanes, d_lanes, omega, cap)
            first = bounds.order_bounds(row, product, c_lanes[:j], d_lanes[:j], omega, cap)
            assert all(np.array_equal(w, f) for w, f in zip(whole, first, strict=True))


def test_aggregate_sources_and_clamping(table_cache):
    grid = IntensityGrid((0.1, 0.2))
    table = table_cache(grid)
    p_dark = 1e-6
    stats = ObservedStats.symmetric(p_dark, (p_dark, p_dark), (0.5, 0.5), p_dark)
    agg = aggregate(stats, grid, table)
    assert agg.q1_min == 0.0  # nothing above the dark floor
    assert agg.q1_min_raw <= 0.0
    assert min(agg.q_j_min) < 0.0  # odd orders go strictly negative here
    assert 1 <= agg.q1_source_j <= 2 * grid.k
    assert 1 <= agg.b1_source_j <= grid.k


def test_lp_matches_closed_forms_with_dark_counts():
    rng = np.random.default_rng(29)
    for trial in range(20):
        k = int(rng.integers(1, 5))
        p_dark = float(rng.choice([0.0, 1e-6, 5e-4]))
        grid, table, stats, _, _ = _feasible_instance(rng, k, p_dark)
        agg = aggregate(stats, grid, table)
        assert lp_oracle_q1_min(stats, grid, table) == pytest.approx(agg.q1_min, abs=1e-8)
        assert lp_oracle_b1_max(stats, grid, table) == pytest.approx(agg.b1_max, abs=1e-8)


def test_per_order_relaxed_programs_match_closed_forms():
    rng = np.random.default_rng(31)
    for k in range(1, 11):
        p_dark = float(rng.choice([0.0, 1e-4]))
        grid, table, stats, _, _ = _feasible_instance(rng, k, p_dark)
        agg = aggregate(stats, grid, table)
        for j in range(1, k + 1):
            assert lp_oracle_q_j_min(j, stats, grid, table) == pytest.approx(
                agg.q_j_min[j - 1], abs=1e-8
            )
            assert lp_oracle_q_j_min(j, stats, grid, table, plus_basis=True) == pytest.approx(
                agg.q_kj_min[j - 1], abs=1e-8
            )
            assert lp_oracle_b_j_max(j, stats, grid, table) == pytest.approx(
                agg.b_j_max[j - 1], abs=1e-8
            )
    for j in (0, grid.k + 1):  # no order-j program outside 1..k
        for oracle in (lp_oracle_q_j_min, lp_oracle_b_j_max):
            with pytest.raises(ValueError, match=f"order j={j} must satisfy"):
                oracle(j, stats, grid, table)


def test_lp_reports_infeasible_below_dark_floor(table_cache):
    grid = IntensityGrid((0.1, 0.2))
    table = table_cache(grid)
    p_dark = 1e-3
    with pytest.raises(InfeasibleStatsError, match="dark floor"):
        stats = ObservedStats.symmetric(1e-4, (1e-4, 1e-4), (0.1, 0.1), p_dark)  # p < p_dark
        lp_oracle_q1_min(stats, grid, table)
    # above the floor, but mu_1 = 0.1 cannot click with probability 0.5
    stats = ObservedStats.symmetric(1e-6, (0.5, 0.15), (0.1, 0.1))
    with pytest.raises(InfeasibleStatsError, match="infeasible"):
        lp_oracle_q1_min(stats, grid, table)


def test_stats_grid_and_table_must_agree():
    grid = IntensityGrid((0.1, 0.2, 0.35), min_spacing=0.05)
    other = IntensityGrid((0.1, 0.2, 0.4), min_spacing=0.05)
    stats = model_stats(grid, 1e-3, STANDARD_FIBER)
    two = IntensityGrid((0.1, 0.2))
    mismatches = [
        (stats, grid, ExpansionTable.build(other)),  # a table of other intensities
        (stats, two, ExpansionTable.build(two)),  # stats of three intensities on two
    ]
    for args in mismatches:
        for call in (
            lambda: aggregate(*args),
            lambda: lp_oracle_q1_min(*args),
            lambda: lp_oracle_b1_max(*args),
            lambda: lp_oracle_q_j_min(2, *args),
            lambda: lp_oracle_b_j_max(2, *args),
        ):
            with pytest.raises(ValueError, match="disagree|table built"):
                call()


def test_lp_oracle_solves_through_the_module_hook(monkeypatch):
    rng = np.random.default_rng(29)
    grid, table, stats, _, _ = _feasible_instance(rng, 3, p_dark=1e-4)
    oracles = _every_oracle(stats, grid, table)
    expected = [oracle() for _, _, oracle in oracles]
    solve, calls = bounds.linprog, []

    def spy(a_eq, b_eq, objective, sign, cap, boxed=None):
        calls.append((a_eq.shape, b_eq.shape, objective, sign, cap, boxed))
        return solve(a_eq, b_eq, objective, sign, cap, boxed)

    monkeypatch.setattr(bounds, "linprog", spy)
    for (_, _, oracle), value in zip(oracles, expected):
        before = len(calls)
        assert oracle() == value
        assert len(calls) == before + 1  # one solve per oracle
    k, n, cap = grid.k, 2 * grid.k + 2, 1.0 - stats.p_dark
    q_system, b_system = ((n - 1, n), (n - 1,)), ((k, k + 1), (k,))
    assert calls[:2] == [(*q_system, 1, 1.0, cap, None), (*b_system, 0, -1.0, cap, None)]
    assert calls[2:5] == [
        (*q_system, 1, 1.0, cap, 2),
        (*q_system, 1, 1.0, cap, 2 + k),
        (*b_system, 0, -1.0, cap, 1),
    ]

    def failing(*args, **kwargs):
        raise InfeasibleStatsError("claimed by the fake")

    monkeypatch.setattr(bounds, "linprog", failing)
    with pytest.raises(InfeasibleStatsError, match="claimed by the fake"):
        lp_oracle_q1_min(stats, grid, table)


def _off_the_box(x, a_eq):
    """x moved along the null space of a_eq, far out of the box [0, 1 - p_dark]."""
    step = np.linalg.svd(a_eq)[2][-1]
    return x + 10.0 * step / np.max(np.abs(step))


_MISSED = (
    r"^the solve's point misses the constraints: largest bound violation (?P<v>\S+), "
    r"largest equality residual (?P<r>\S+), tolerance (?P<tol>\S+)$"
)


@pytest.mark.parametrize(
    "point, violated, off_equalities",
    [
        # x = 0 meets the box but leaves the residual p - p_dark
        (lambda x, a_eq: np.zeros_like(x), False, True),
        # a point that meets the equalities but leaves the box
        (_off_the_box, True, False),
        # a NaN makes both the violation and the residual NaN
        (lambda x, a_eq: np.where(np.arange(len(x)) == 1, np.nan, x), None, None),
    ],
)
def test_point_check_refuses_a_point_off_the_constraints(point, violated, off_equalities):
    rng = np.random.default_rng(29)
    grid, table, stats, q_vec, _ = _feasible_instance(rng, 3, p_dark=1e-4)
    a_eq, b_eq = bounds._q_system(stats, grid, table)
    box = np.zeros(len(q_vec)), np.full(len(q_vec), 1.0 - stats.p_dark)
    bounds._check_point(q_vec, a_eq, b_eq, *box)  # the point the stats were made from passes
    with pytest.raises(InfeasibleStatsError, match=_MISSED) as raised:
        bounds._check_point(point(q_vec, a_eq), a_eq, b_eq, *box)
    # the message names the largest violation, the largest residual and the tolerance
    found = re.search(_MISSED, str(raised.value))
    tol = float(found["tol"])
    assert tol == pytest.approx(math.sqrt(1e-9) * 10, rel=1e-3)
    for name, expected in (("v", violated), ("r", off_equalities)):
        value = float(found[name])
        assert math.isnan(value) if expected is None else (value > tol) == expected


def test_linprog_solves_on_the_line_of_solutions_and_refuses_other_systems():
    # x0 + x1 = 1.5 in the unit box: t = x0 lies in [0.5, 1]
    a_eq, b_eq = np.array([[1.0, 1.0]]), np.array([1.5])
    assert bounds.linprog(a_eq, b_eq, 0, 1.0, 1.0) == 0.5
    assert bounds.linprog(a_eq, b_eq, 1, -1.0, 1.0) == -1.0  # t = x1 at its top
    assert bounds.linprog(a_eq, b_eq, 0, -1.0, 1.0, boxed=1) == -1.5  # x0 free: t up to 1.5
    # the bounds meet nowhere on the line: x0 + x1 = 3
    empty = r"infeasible: the bounds leave no t: \[2.0, 1.0\]$"
    with pytest.raises(InfeasibleStatsError, match=empty):
        bounds.linprog(a_eq, np.array([3.0]), 0, 1.0, 1.0)
    # x1 = 2 on every solution, outside its box, whatever t is
    a_eq, b_eq = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]), np.array([2.0, 1.0])
    with pytest.raises(InfeasibleStatsError, match=r"x\[1\] = 2.0 on every solution, outside"):
        bounds.linprog(a_eq, b_eq, 0, 1.0, 1.0)
    # only x1 = 0.5 is boxed, so t = x0 falls without bound
    with pytest.raises(InfeasibleStatsError, match="falls without bound"):
        bounds.linprog(a_eq, np.array([0.5, 1.0]), 0, 1.0, 1.0, boxed=1)
    refused = [
        np.array([[1.0, 1.0, 0.0]]),  # two free unknowns
        np.array([[1.0, 0.0], [1.0, 1.0]]),  # none
        np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),  # not triangular
        np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),  # a zero pivot
    ]
    for a_eq in refused:
        with pytest.raises(ValueError, match="square lower-triangular"):
            bounds.linprog(a_eq, np.ones(len(a_eq)), 0, 1.0, 1.0)


def _every_oracle(stats, grid, table):
    """(sign, closed form, oracle) of every LP oracle of an instance.

    An oracle's value is sign * the hook's value, the LP's minimum.
    """
    agg = aggregate(stats, grid, table)
    oracles = [
        (1.0, agg.q1_min, lambda: lp_oracle_q1_min(stats, grid, table)),
        (-1.0, agg.b1_max, lambda: lp_oracle_b1_max(stats, grid, table)),
    ]
    for j in range(1, grid.k + 1):
        oracles += [
            (1.0, agg.q_j_min[j - 1], lambda j=j: lp_oracle_q_j_min(j, stats, grid, table)),
            (
                1.0,
                agg.q_kj_min[j - 1],
                lambda j=j: lp_oracle_q_j_min(j, stats, grid, table, plus_basis=True),
            ),
            (-1.0, agg.b_j_max[j - 1], lambda j=j: lp_oracle_b_j_max(j, stats, grid, table)),
        ]
    return oracles


def test_lp_oracles_agree_with_highs(monkeypatch):
    # SciPy's HiGHS, given the hook's LP, finds the same optimum where it is reliable (k <= 6)
    optimize = pytest.importorskip("scipy.optimize")
    solve, reference = bounds.linprog, []

    def both(a_eq, b_eq, objective, sign, cap, boxed=None):
        n = a_eq.shape[1]
        c = np.zeros(n)
        c[objective] = sign
        box = np.tile([-np.inf, np.inf], (n, 1))
        box[slice(None) if boxed is None else boxed] = 0.0, cap
        reference.append(optimize.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=box, method="highs"))
        return solve(a_eq, b_eq, objective, sign, cap, boxed)

    monkeypatch.setattr(bounds, "linprog", both)
    rng = np.random.default_rng(166)
    for k in range(1, 7):
        p_dark = float(rng.choice([0.0, 1e-6, 1e-4]))
        grid, table, stats, _, _ = _feasible_instance(rng, k, p_dark)
        for sign, _, oracle in _every_oracle(stats, grid, table):
            value = oracle()
            res = reference.pop()
            assert res.status == 0, (k, res.message)
            assert value == pytest.approx(sign * res.fun, abs=1e-9), k


_UNIT_ROUNDOFF = Fraction(1, 2**53)


def _exact_line(a_eq, b_eq, free: int):
    """(exact, bound, float) of a and of d, the float system's line of solutions a + t d.

    The exact a and d are the forward substitution of ``a_eq``'s other
    columns (T) in Fractions; the float ones are the solve's own.  The bound
    is componentwise on their distance: gamma_m |T^-1| |T| |u| at the float u
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., thm 8.5).
    The parameter's own entries are exact.
    """
    rows, n = a_eq.shape
    others = [j for j in range(n) if j != free]
    square = [[Fraction(a_eq[i, j]) for j in others] for i in range(rows)]

    def substitute(rhs):
        u = []
        for row, r in zip(square, rhs):
            u.append((r - sum(map(operator.mul, row, u))) / row[len(u)])
        return u

    inverse_columns = [substitute([Fraction(i == j) for i in range(rows)]) for j in range(rows)]
    gamma = rows * _UNIT_ROUNDOFF / (1 - rows * _UNIT_ROUNDOFF)
    computed = bounds._forward_substitution(
        a_eq[:, others], np.column_stack((b_eq, -a_eq[:, free]))
    )
    line = []
    rhs_pair = ([Fraction(v) for v in b_eq], [-Fraction(v) for v in a_eq[:, free]])
    for column, rhs in enumerate(rhs_pair):
        exact, u = substitute(rhs), [Fraction(v) for v in computed[:, column]]
        scaled = [sum(abs(t) * abs(v) for t, v in zip(row, u)) for row in square]  # |T| |u|
        spread = [
            gamma * sum(abs(inverse_columns[l][i]) * scaled[l] for l in range(i + 1))
            for i in range(rows)
        ]
        assert all(abs(v - e) <= s for v, e, s in zip(u, exact, spread))
        # a[free] = 0 and d[free] = 1, exactly
        full, full_spread, floats = [Fraction(column)] * n, [Fraction(0)] * n, [float(column)] * n
        for j, e, s, v in zip(others, exact, spread, u):
            full[j], full_spread[j], floats[j] = e, s, float(v)
        line.append((full, full_spread, floats))
    return line


def _end_with_bound(ends):
    """(exact end, float end, bound on their distance) of a max over candidate ends.

    Each candidate is (exact e, float e, bound on |float - exact|); the two
    maxima lie within the larger bound of the two candidates that reach them.
    """
    exact = max(ends, key=lambda end: end[0])
    computed = max(ends, key=lambda end: end[1])
    return exact[0], computed[1], max(exact[2], computed[2])


def test_lp_oracles_match_an_exact_forward_substitution(monkeypatch):
    # over k = 1..10, each oracle's float optimum lies within a rounding bound of
    # the exact optimum of the same float system
    solve, checked, lines = bounds.linprog, [], {}

    def exact_too(a_eq, b_eq, objective, sign, cap, boxed=None):
        key = (a_eq.tobytes(), b_eq.tobytes(), objective)  # one system's oracles share its line
        if key not in lines:
            lines[key] = _exact_line(a_eq, b_eq, objective)
        (a, delta_a, a_hat), (d, delta_d, d_hat) = lines[key]
        lows, highs = [], []
        for j in range(a_eq.shape[1]) if boxed is None else [boxed]:
            if d[j] == 0:
                assert d_hat[j] == 0.0 and 0 <= a[j] <= cap
                continue
            for bound, lower in ((0.0, True), (cap, False)):
                exact = (Fraction(bound) - a[j]) / d[j]
                computed = (bound - a_hat[j]) / d_hat[j]  # as the solve rounds it
                assert abs(Fraction(d_hat[j])) > delta_d[j]  # so d has the sign of the float d
                # the ends' own two roundings, then the error of a and d carried through
                spread = 3 * _UNIT_ROUNDOFF * abs(Fraction(computed)) + (
                    abs(Fraction(computed)) * (1 + 3 * _UNIT_ROUNDOFF) * delta_d[j] + delta_a[j]
                ) / (abs(Fraction(d_hat[j])) - delta_d[j])
                (lows if lower == (d[j] > 0) else highs).append((exact, computed, spread))
        if sign > 0:
            exact, computed, spread = _end_with_bound(lows)
        else:
            exact, computed, spread = _end_with_bound([(-e, -f, s) for e, f, s in highs])
            exact, computed = -exact, -computed
        value = solve(a_eq, b_eq, objective, sign, cap, boxed)
        checked.append((exact, computed, spread, value / sign))
        return value

    monkeypatch.setattr(bounds, "linprog", exact_too)
    rng = np.random.default_rng(166)
    worst = 0.0
    for k in range(1, 11):
        p_dark = float(rng.choice([0.0, 1e-6, 1e-4]))
        grid, table, stats, _, _ = _feasible_instance(rng, k, p_dark)
        for _, _, oracle in _every_oracle(stats, grid, table):
            value = oracle()
            exact, computed, spread, t = checked.pop()
            assert value == t == computed  # the solve's t is the end rounded as above
            assert abs(Fraction(value) - exact) <= spread, k
            worst = max(worst, float(spread))
    assert worst < 1e-8  # the bound itself is tighter than criterion 8's tolerance


# (rng seed, raw draws before the instance, k, p_dark) of the feasible instances on which
# HiGHS reported infeasible or failed: the k = 9, 10 ones among seeds 30, 41 and 42, each
# drawing 23 instances per k = 1..10 as a p_dark choice followed by feasible_instance
_HIGHS_FALSE_FAILURES = [
    (30, 4826, 9, 1e-4),
    (30, 5039, 10, 1e-4),
    (30, 5779, 10, 0.0),
    (41, 3957, 9, 1e-4),
    (41, 4707, 9, 1e-4),
    (41, 4952, 10, 1e-6),
    (41, 5213, 10, 1e-4),
    (41, 5822, 10, 1e-4),
    (42, 4628, 9, 1e-6),
    (42, 4707, 9, 1e-6),
    (42, 4786, 9, 1e-6),
    (42, 4865, 10, 1e-6),
    (42, 4909, 10, 0.0),
]


def test_lp_oracles_solve_the_feasible_systems_highs_refused():
    for seed, draws, k, p_dark in _HIGHS_FALSE_FAILURES:
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(draws)
        grid, table, stats, _, _ = _feasible_instance(rng, k, p_dark)
        for _, closed_form, oracle in _every_oracle(stats, grid, table):
            assert oracle() == pytest.approx(closed_form, abs=1e-8), (seed, draws)


_WITHOUT_SCIPY = """
import sys

sys.modules["scipy"] = None  # importing SciPy, or any part of it, now raises ImportError
sys.path.insert(0, sys.argv[1])
from decoy_akg import ExpansionTable, IntensityGrid, model_stats
from decoy_akg import lp_oracle_b1_max, lp_oracle_b_j_max, lp_oracle_q1_min, lp_oracle_q_j_min
from decoy_akg.channel import STANDARD_FIBER

grid = IntensityGrid((0.1, 0.2, 0.35), min_spacing=0.05)
args = (model_stats(grid, 1e-3, STANDARD_FIBER), grid, ExpansionTable.build(grid))
values = [lp_oracle_q1_min(*args), lp_oracle_b1_max(*args)]
for j in (1, 2, 3):
    values += [lp_oracle_q_j_min(j, *args), lp_oracle_q_j_min(j, *args, plus_basis=True)]
    values.append(lp_oracle_b_j_max(j, *args))
print(" ".join(value.hex() for value in values))
"""


def test_lp_oracles_run_without_scipy():
    # every oracle solves in an interpreter that cannot import SciPy, to the same bits
    src = Path(bounds.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(src)], capture_output=True, text=True, check=True
    )
    grid = IntensityGrid((0.1, 0.2, 0.35), min_spacing=0.05)
    stats = model_stats(grid, 1e-3, STANDARD_FIBER)
    oracles = _every_oracle(stats, grid, ExpansionTable.build(grid))
    assert done.stdout.split() == [oracle().hex() for _, _, oracle in oracles]


def test_bounds_tighten_with_more_intensities():
    # nested grids can only add constraints, so the aggregated bounds tighten
    params = STANDARD_FIBER
    alpha = alpha_of_distance(100.0, params)
    mus = (0.1, 0.2, 0.3, 0.4)
    previous_q, previous_b = -math.inf, math.inf
    for k in range(1, 5):
        grid = IntensityGrid(mus[:k])
        table = ExpansionTable.build(grid)
        stats = model_stats(grid, alpha, params)
        agg = aggregate(stats, grid, table)
        assert agg.q1_min >= previous_q - 1e-15
        assert agg.b1_max <= previous_b + 1e-15
        previous_q, previous_b = agg.q1_min, agg.b1_max


def test_two_intensity_error_bound_dominates_ratio_estimator():
    # min(b_1, b_2) can only improve on Ma et al.'s two-intensity ratio bound
    # (s2 p2 e^mu2 - s1 p1 e^mu1) / (mu2 - mu1) (PRA 72, 012326 (2005))
    rng = np.random.default_rng(41)
    for trial in range(25):
        grid, table, stats, _, _ = _feasible_instance(rng, 2, p_dark=0.0)
        agg = aggregate(stats, grid, table)
        (mu1, mu2), (p1, p2), (s1, s2) = grid.mus, stats.p[1:3], stats.s
        ma_b12_max = (s2 * p2 * math.exp(mu2) - s1 * p1 * math.exp(mu1)) / (mu2 - mu1)
        assert min(agg.b_j_max[0], agg.b_j_max[1]) <= ma_b12_max + 1e-12


def test_numpy_trial_signal_matches_its_array_element():
    # a one-distance optimization passes its trial signal as np.float64, whose
    # ** is C pow: it must give the bits of the lane sweep's array element
    mus = np.random.default_rng(13).uniform(0.31, 2.0, 2000)
    lanes_q1 = bounds.ma_q1_lower((0.1, 0.2, mus), 1e-4, (2e-3, 4e-3, 0.3 * mus))
    lanes_beta = np.array(bounds._beta_row((0.1, 0.2, mus)))
    for i, mu in enumerate(mus):
        assert bounds.ma_q1_lower((0.1, 0.2, mu), 1e-4, (2e-3, 4e-3, 0.3 * mu)) == lanes_q1[i]
        assert bounds._beta_row((0.1, 0.2, mu)) == lanes_beta[:, i].tolist()
