import numpy as np
import pytest

from decoy_akg import (
    ConfigurationError,
    ExpansionTable,
    IntensityGrid,
    achievable_distance,
    aggregate,
    alpha_of_distance,
    b_j_max,
    model_stats,
    q_j_min,
    run_scenario,
    scenario,
    universal_upper,
)
from decoy_akg.channel import STANDARD_FIBER
from decoy_akg.keyrate import DEFAULT_MU_CAP
from decoy_akg.scenarios import _ScenarioEngine


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        scenario("custom")  # no decoys given
    with pytest.raises(ConfigurationError):
        scenario("custom", decoys=())
    with pytest.raises(ConfigurationError):
        scenario("custom", decoys=(0.1, 0.15))  # below the minimum width
    with pytest.raises(ConfigurationError):
        scenario("custom", decoys=(0.1, 0.2), signal_lower=0.25)  # too close to decoys
    with pytest.raises(ConfigurationError):
        scenario("k2", dark_mode="explicit")  # missing dark rate
    with pytest.raises(ConfigurationError):
        scenario("nope")
    for signal_lower in (DEFAULT_MU_CAP, DEFAULT_MU_CAP + 0.5, float("nan")):
        with pytest.raises(ConfigurationError):
            scenario("k2", signal_lower=signal_lower)
    with pytest.raises(ConfigurationError):
        scenario("custom", decoys=(0.1, float("nan")), signal_lower=0.5)
    spec = scenario("k2", dark_mode="explicit", dark_rate=1e-7)
    assert spec.dark_rate_effective == 1e-7
    assert scenario("k4", dark_mode="pd-equals-p0").dark_rate_effective == pytest.approx(4e-7)


def test_preset_decoys_and_bounds_kinds():
    assert scenario("k2").decoy_mus == (0.1,)
    assert scenario("k3-ours").decoy_mus == (0.1, 0.2)
    assert scenario("k4").decoy_mus == (0.1, 0.2, 0.3)
    assert scenario("universal").decoy_mus == ()
    assert scenario("k3-ma").estimator_kind == "ma"
    assert scenario("k3-wang").estimator_kind == "wang"
    assert scenario("custom", decoys=(0.1, 0.3)).estimator_kind == "aggregate"


@pytest.mark.parametrize(
    "spec",
    [
        scenario("k2", direction="forward", dark_mode="pd-equals-p0"),
        scenario("k3-ours", direction="forward", dark_mode="pd-equals-p0"),
        scenario("k4", direction="forward", dark_mode="pd-equals-p0"),
        scenario("custom", dark_mode="pd-equals-p0", decoys=(0.1, 0.2, 0.35, 0.5)),
    ],
    ids=lambda spec: spec.name,
)
def test_engine_matches_library_bounds_path(spec):
    # the engine's cached/vectorized estimators must equal the public
    # aggregate() on the same grid under the dark-inclusive convention,
    # for the trial-signal order and for every decoy prefix order
    engine = _ScenarioEngine(spec)
    length, mu = 120.0, spec.signal_lower + 0.17
    state = engine._distance_state(length)
    q1, b1, q_src, b_src = engine._bounds(state, mu, diagnostics=True)

    estimation = STANDARD_FIBER.with_dark_rate(0.0)
    grid = IntensityGrid(spec.decoy_mus + (mu,), min_spacing=0.05)
    table = ExpansionTable.build(grid)
    alpha = alpha_of_distance(length, estimation)
    stats = model_stats(grid, alpha, estimation)
    agg = aggregate(stats, grid, table)
    assert float(q1) == pytest.approx(agg.q1_min_raw, rel=1e-11)
    assert float(b1) == pytest.approx(agg.b1_max_raw, rel=1e-11)
    assert q_src == agg.q1_source_j
    assert b_src == agg.b1_source_j
    for j in range(1, len(spec.decoy_mus) + 1):
        assert state["q_prefix"][j - 1] == pytest.approx(q_j_min(j, stats, grid, table), rel=1e-11)
        assert state["b_prefix"][j - 1] == pytest.approx(b_j_max(j, stats, grid, table), rel=1e-11)


def test_engine_ratio_estimator_matches_legacy_form():
    # the k3-ma engine and the library's legacy Ma estimator are one formula
    spec = scenario("k3-ma")
    engine = _ScenarioEngine(spec)
    length, mu = 120.0, 0.47
    q1, _ = engine._bounds(engine._distance_state(length), mu)

    estimation = STANDARD_FIBER.with_dark_rate(0.0)
    grid = IntensityGrid((0.1, 0.2, mu))
    alpha = alpha_of_distance(length, estimation)
    stats = model_stats(grid, alpha, estimation)
    legacy = aggregate(stats, grid, ExpansionTable.build(grid)).legacy
    assert float(q1) == pytest.approx(legacy.ma_q13_l, rel=1e-11)


def test_engine_vector_path_equals_scalar_path():
    for name in ("k2", "k3-ma", "k3-wang", "k3-ours", "k4", "universal"):
        spec = scenario(name, direction="reverse", dark_mode="pd-equals-p0")
        engine = _ScenarioEngine(spec)
        state = engine._distance_state(150.0)
        mus = np.linspace(spec.signal_lower + 0.05, 1.5, 7)
        q_vec, b_vec = engine._bounds(state, mus)
        rate_vec = engine.rate(state, mus)
        for idx, mu in enumerate(mus):
            q_s, b_s = engine._bounds(state, float(mu))
            assert float(np.asarray(q_vec)[idx]) == pytest.approx(float(q_s), rel=1e-13)
            assert float(np.asarray(b_vec)[idx]) == pytest.approx(float(b_s), rel=1e-13)
            assert rate_vec[idx] == pytest.approx(engine.rate(state, float(mu)), rel=1e-12)


@pytest.mark.parametrize("direction", ["forward", "reverse"])
@pytest.mark.parametrize("dark_mode", ["pd-zero", "pd-equals-p0", "explicit"])
def test_universal_engine_rate_is_library_universal_upper(direction, dark_mode):
    dark_rate = 1e-7 if dark_mode == "explicit" else None
    spec = scenario("universal", direction=direction, dark_mode=dark_mode, dark_rate=dark_rate)
    engine = _ScenarioEngine(spec)
    params = spec.resolved_channel()
    for length in (0.0, 120.0, 210.0):
        alpha = alpha_of_distance(length, params)
        for mu in (0.2, 0.55, 1.3):
            expected = universal_upper(mu, alpha, params, direction, estimation_dark_rate=0.0)
            assert engine.rate_at(length, mu) == pytest.approx(expected, rel=1e-14)


def test_decoy_estimates_never_beat_perfect_knowledge():
    # at equal signal intensity the decoy-estimated rate cannot exceed the
    # perfectly estimated one (soundness of the bounds through the rate)
    universal = _ScenarioEngine(scenario("universal"))
    for name in ("k2", "k3-wang", "k3-ours", "k4"):
        engine = _ScenarioEngine(scenario(name))
        for length in (50.0, 150.0, 215.0):
            for mu in (0.4, 0.6, 1.0):
                decoy = engine.rate_at(length, mu)
                perfect = universal.rate_at(length, mu)
                assert decoy <= perfect + 1e-12


def test_run_scenario_rows_and_refinement():
    spec = scenario("k2")
    result = run_scenario(spec, (218.0, 226.0, 1.0))
    lengths = [row.L_km for row in result.rows]
    assert lengths == sorted(lengths)
    for row in result.rows:
        assert row.rate == max(row.rate_signed, 0.0)
        assert 0.0 <= row.q1_min <= 1.0
        assert row.q1_source_j == 2 and row.b1_source_j == 1
    assert result.achievable_km == pytest.approx(222.86, abs=0.05)


def test_run_scenario_range_edges():
    spec = scenario("k2")
    with pytest.raises(ConfigurationError):
        run_scenario(spec, (0.0, 10.0, 0.0))
    with pytest.raises(ConfigurationError):
        run_scenario(spec, (10.0, 0.0, 1.0))
    # still positive at the end of a short range: no crossing to report
    short = run_scenario(spec, (0.0, 10.0, 5.0))
    assert short.achievable_km is None
    # never positive across the range
    far = run_scenario(spec, (235.0, 238.0, 1.0))
    assert far.achievable_km == 0.0


def test_beyond_range_is_none_in_both_apis():
    spec = scenario("k2")
    assert run_scenario(spec, (0.0, 100.0, 1.0)).achievable_km is None
    assert achievable_distance(spec, 0.0, 100.0) is None


def test_universal_optimum_stays_below_one():
    spec = scenario("universal", direction="reverse", dark_mode="pd-equals-p0")
    result = run_scenario(spec, (0.0, 220.0, 20.0))
    for row in result.rows:
        assert row.optimal_mu <= 1.0 + 1e-6
        assert row.q1_source_j == 0 and row.b1_source_j == 0


def test_optimal_intensity_ordering_across_estimators():
    # tighter estimation lets the sender push the signal harder; the k4 and
    # universal optima are nearly indistinguishable
    mus = {}
    for name in ("k2", "k3-wang", "k3-ours", "k4", "universal"):
        engine = _ScenarioEngine(scenario(name, direction="reverse", dark_mode="pd-equals-p0"))
        mus[name] = engine.optimized(150.0).optimal_mu
    assert mus["k2"] <= mus["k3-wang"] <= mus["k3-ours"] <= mus["k4"] + 1e-9
    assert abs(mus["k4"] - mus["universal"]) <= 2e-3


def test_ma_scenario_uses_signal_rate():
    spec = scenario("k3-ma")
    engine = _ScenarioEngine(spec)
    state = engine._distance_state(100.0)
    q_a, _ = engine._bounds(state, 0.4)
    q_b, _ = engine._bounds(state, 0.8)
    assert float(q_a) != pytest.approx(float(q_b), rel=1e-6)
    row = engine.optimized(100.0)
    assert row.q1_source_j == -1 and row.b1_source_j == 1
