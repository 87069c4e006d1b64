import math
from types import SimpleNamespace

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
    for trial in range(8):
        k = int(rng.integers(1, 5))
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
    expected = lp_oracle_q1_min(stats, grid, table)
    lazy_linprog = bounds.linprog
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs["method"])
        return lazy_linprog(*args, **kwargs)

    monkeypatch.setattr(bounds, "linprog", spy)
    assert lp_oracle_q1_min(stats, grid, table) == expected
    assert calls == ["highs"]
    # a solver status other than optimal (0) and infeasible (2) is a failure too
    failed = SimpleNamespace(status=4, success=False, message="numerical difficulties", fun=0.0)
    monkeypatch.setattr(bounds, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(InfeasibleStatsError, match=r"LP solver failed \(status 4\)"):
        lp_oracle_q1_min(stats, grid, table)


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
