import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from decoy_akg import (
    ConfigurationError,
    ExpansionTable,
    IntensityGrid,
    ScenarioSpec,
    aggregate,
    alpha_of_distance,
    model_stats,
    run_scenario,
    universal_upper,
)
from decoy_akg import cli, scenarios
from decoy_akg.bounds import _best, _pick, ma_q1_lower, order_bounds
from decoy_akg.channel import STANDARD_FIBER, ChannelParams, counting_rate
from decoy_akg.divided_diff import h_series
from decoy_akg.expansion import _beta_row
from decoy_akg.keyrate import (
    DEFAULT_MU_CAP,
    DEFAULT_MU_TOL,
    DISTANCE_TOL_KM,
    _bisection_midpoints,
    _coarse_grid,
    _first_max,
    _universal_box_bound,
    find_zero_distance,
)
from decoy_akg.scenarios import DARK_MODES, SCENARIO_NAMES, _ScenarioEngine


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        ScenarioSpec("custom")  # no decoys given
    with pytest.raises(ConfigurationError):
        ScenarioSpec("custom", decoy_mus=())
    with pytest.raises(ConfigurationError):
        ScenarioSpec("custom", decoy_mus=(0.1, 0.15))  # below the minimum width
    with pytest.raises(ConfigurationError):
        ScenarioSpec("custom", decoy_mus=(0.1, 0.2), signal_lower=0.25)  # too close to decoys
    with pytest.raises(ConfigurationError):
        ScenarioSpec("k2", dark_mode="explicit")  # missing dark rate
    with pytest.raises(ConfigurationError):
        ScenarioSpec("k2", dark_mode="pd-zero", dark_rate=1e-7)  # a dark rate the mode ignores
    with pytest.raises(ConfigurationError):
        ScenarioSpec("nope")
    with pytest.raises(ConfigurationError, match="ratio estimator"):
        # inside the grid's 1e-12 spacing slack, but below mu1 + mu2 = 0.1 + 0.2
        ScenarioSpec("k3-ma", signal_lower=0.3 - 5e-13)
    for signal_lower in (DEFAULT_MU_CAP, DEFAULT_MU_CAP + 0.5, float("nan")):
        with pytest.raises(ConfigurationError):
            ScenarioSpec("k2", signal_lower=signal_lower)
    with pytest.raises(ConfigurationError):
        ScenarioSpec("custom", decoy_mus=(0.1, float("nan")), signal_lower=0.5)
    # a preset's decoys are its table entry; other decoys are 'custom'
    for name, decoys, signal_lower in (
        ("k2", (0.1, 0.3), None),
        ("k2", (0.1, 0.3), 0.5),
        ("universal", (0.1,), 0.5),
        ("k3-ma", (0.1,), 0.3),
    ):
        with pytest.raises(ConfigurationError, match="use 'custom'"):
            ScenarioSpec(name, decoy_mus=decoys, signal_lower=signal_lower)
    # every number is read before any other check
    with pytest.raises(ConfigurationError, match="signal_lower must be numeric"):
        ScenarioSpec("k2", signal_lower="x")
    with pytest.raises(ConfigurationError, match="dark_rate must be numeric"):
        ScenarioSpec("k2", dark_mode="explicit", dark_rate="x")
    # float() reads numeric strings and bools, but they are not numbers here
    for key, kwargs in (
        ("signal_lower", dict(signal_lower="0.5")),
        ("signal_lower", dict(signal_lower=True)),
        ("dark_rate", dict(dark_mode="explicit", dark_rate=False)),
        ("dark_rate", dict(dark_mode="explicit", dark_rate="1e-7")),
    ):
        with pytest.raises(ConfigurationError, match=f"{key} must be numeric"):
            ScenarioSpec("k2", **kwargs)
    for decoys in (("0.1", True), (0.1, True), (0.1, np.True_), ("0.1", 0.3)):
        with pytest.raises(ConfigurationError, match="decoy_mus must be numeric"):
            ScenarioSpec("custom", decoy_mus=decoys)
    with pytest.raises(ConfigurationError, match="--dark-mode"):
        ScenarioSpec("k2", channel=replace(STANDARD_FIBER, pD=1e-7))  # a dark rate no mode reads
    for kwargs, message in (
        (dict(direction="sideways"), "direction must be"),
        (dict(dark_mode="dim"), "dark_mode must be one of"),
        (dict(dark_mode="explicit", dark_rate=-1e-9), r"must lie in \[0, p0\]"),
        (dict(dark_mode="explicit", dark_rate=2.0 * STANDARD_FIBER.p0), r"must lie in \[0, p0\]"),
    ):
        with pytest.raises(ConfigurationError, match=message):
            ScenarioSpec("k2", **kwargs)
    spec = ScenarioSpec("k2", dark_mode="explicit", dark_rate=1e-7)
    assert spec.dark_rate_effective == 1e-7
    assert ScenarioSpec("k4", dark_mode="pd-equals-p0").dark_rate_effective == pytest.approx(4e-7)


def test_k3_ma_floor_at_the_decimal_sum_is_accepted():
    # 0.3 lies one float below 0.1 + 0.2 = 0.30000000000000004, by rounding
    # alone: the spec takes it and searches from just above mu1 + mu2, as the
    # default floor does, so the rows are the default's.  A floor clearly
    # below the sum is refused
    spec = ScenarioSpec("k3-ma", signal_lower=0.3)
    assert spec.signal_lower == 0.3
    assert _ScenarioEngine(spec).lower == 0.1 + 0.2 == ScenarioSpec("k3-ma").signal_lower
    l_range = (60.0, 240.0, 30.0)
    assert run_scenario(spec, l_range).rows == run_scenario(ScenarioSpec("k3-ma"), l_range).rows
    with pytest.raises(ConfigurationError, match="minimum spacing"):
        ScenarioSpec("k3-ma", signal_lower=0.29)
    for floor in (0.3 - 5e-13, math.nextafter(0.3, 0.0)):
        with pytest.raises(ConfigurationError, match="ratio estimator"):
            ScenarioSpec("k3-ma", signal_lower=floor)


def test_intensity_with_a_subnormal_square_is_refused():
    # the beta rows divide by mu^2, which below 1.49e-154 is subnormal: 1e-160
    # silently gave a q1_min above the true q1 and 1e-300 divided by zero
    for decoy in (1e-160, 1e-300):
        with pytest.raises(ConfigurationError, match="normal float"):
            ScenarioSpec("custom", decoy_mus=(decoy,))
    with pytest.raises(ConfigurationError, match="normal float"):
        ScenarioSpec("universal", signal_lower=1e-160)
    universal = run_scenario(ScenarioSpec("universal")).achievable_km
    for decoy in (1e-150, 1e-12):  # a vanishing decoy is the vacuum again
        reach = run_scenario(ScenarioSpec("custom", decoy_mus=(decoy,))).achievable_km
        assert reach == pytest.approx(universal, abs=DISTANCE_TOL_KM)


def test_spec_decoys_are_read_as_a_float_tuple():
    spec = ScenarioSpec("custom", decoy_mus=(0.1, 0.2), signal_lower=0.5)
    rows = run_scenario(spec, (0.0, 100.0, 50.0)).rows
    for decoys in ([0.1, 0.2], np.array([0.1, 0.2]), (0.2, 0.1)):
        same = ScenarioSpec("custom", decoy_mus=decoys, signal_lower=0.5)
        assert same == spec
        assert type(same.decoy_mus[0]) is float
        assert run_scenario(same, (0.0, 100.0, 50.0)).rows == rows
    # given decoys are sorted before the default signal floor is read off the largest
    unsorted = ScenarioSpec("custom", decoy_mus=(0.35, 0.1, 0.2))
    assert unsorted == ScenarioSpec("custom", decoy_mus=(0.1, 0.2, 0.35))
    assert unsorted.decoy_mus == (0.1, 0.2, 0.35) and unsorted.signal_lower == 0.35 + 0.1
    assert ScenarioSpec("k2", decoy_mus=[0.1]).decoy_mus == (0.1,)
    for bad in (0.1, 5, "0.1", "1", ["a"], [0.1, None], np.array([[0.1, 0.2]])):
        with pytest.raises(ConfigurationError, match="decoy_mus must be numeric"):
            ScenarioSpec("custom", decoy_mus=bad, signal_lower=0.5)


def test_preset_decoys_and_bounds_kinds():
    # a preset name alone is a runnable spec: its decoys, and a signal floor one
    # spacing above them; k3's 0.2 + 0.1 rounds above 0.3, to k3-ma's mu1 + mu2
    k3 = ((0.1, 0.2), "0.30000000000000004")
    for name, (decoys, signal_lower) in {
        "k2": ((0.1,), "0.2"),
        "k3-ma": k3,
        "k3-wang": k3,
        "k3-ours": k3,
        "k4": ((0.1, 0.2, 0.3), "0.4"),
        "universal": ((), "0.01"),
    }.items():
        spec = ScenarioSpec(name)
        assert spec.decoy_mus == decoys and repr(spec.signal_lower) == signal_lower
    assert ScenarioSpec("k3-ma").estimator_kind == "ma"
    assert ScenarioSpec("k3-wang").estimator_kind == "wang"
    assert ScenarioSpec("custom", decoy_mus=(0.1, 0.3)).estimator_kind == "aggregate"


@pytest.mark.parametrize(
    "spec",
    [
        ScenarioSpec("k2", direction="forward", dark_mode="pd-equals-p0"),
        ScenarioSpec("k3-ours", direction="forward", dark_mode="pd-equals-p0"),
        ScenarioSpec("k4", direction="forward", dark_mode="pd-equals-p0"),
        ScenarioSpec("custom", dark_mode="pd-equals-p0", decoy_mus=(0.1, 0.2, 0.35, 0.5)),
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
    q1, b1, q_src, b_src = engine._bounds(state, mu)

    estimation = replace(STANDARD_FIBER, pD=0.0)
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
        assert state["q_prefix"][j - 1] == pytest.approx(agg.q_j_min[j - 1], rel=1e-11)
        assert state["b_prefix"][j - 1] == pytest.approx(agg.b_j_max[j - 1], rel=1e-11)


@pytest.mark.parametrize("name", ["k3-wang", "k3-ma", "universal"])
def test_engine_distance_bounds_match_library(name):
    # the bounds the state resolves once per distance are the library's:
    # Wang's order-2 q and order-1 b, Ma's ratio q with the order-1 b, and
    # the universal alpha + p0, s alpha + p0 / 2, each with its source codes
    spec = ScenarioSpec(name, dark_mode="pd-equals-p0")
    engine = _ScenarioEngine(spec)
    length, mu = 120.0, 0.47
    q1, b1, q_src, b_src = engine._bounds(engine._distance_state(length), mu)

    estimation = replace(STANDARD_FIBER, pD=0.0)
    alpha = alpha_of_distance(length, estimation)
    if name == "universal":
        expected = (alpha + estimation.p0, estimation.s * alpha + 0.5 * estimation.p0, 0, 0)
    else:
        grid = IntensityGrid(spec.decoy_mus + (mu,))
        stats = model_stats(grid, alpha, estimation)
        agg = aggregate(stats, grid, ExpansionTable.build(grid))
        if name == "k3-wang":
            expected = (agg.q_j_min[1], agg.b_j_max[0], 2, 1)
        else:
            expected = (ma_q1_lower(grid.mus, stats.p[0], stats.p[1:4]), agg.b_j_max[0], -1, 1)
    assert float(q1) == pytest.approx(expected[0], rel=1e-11)
    assert float(b1) == pytest.approx(expected[1], rel=1e-11)
    assert (q_src, b_src) == expected[2:]


@pytest.mark.parametrize("lengths", [120.0, np.asarray([0.0, 120.0, 230.0])])
def test_prefix_order_wins_a_tie(monkeypatch, lengths):
    # a trial-signal order that only equals the best prefix order leaves the
    # prefix's source codes in place, as argmax over all orders would
    def best_prefix(self, state, mu, signal, terms):
        return state["q1"], state["b1"]

    monkeypatch.setattr(_ScenarioEngine, "_order_k_bounds", best_prefix)
    engine = _ScenarioEngine(ScenarioSpec("k4"))
    state = engine._distance_state(lengths)
    q1, b1, q_src, b_src = engine._bounds(state, 0.6)
    assert np.array_equal(q1, np.max(state["q_prefix"], axis=0))
    assert np.array_equal(b1, np.min(state["b_prefix"], axis=0))
    assert np.array_equal(q_src, np.argmax(state["q_prefix"], axis=0) + 1)
    assert np.array_equal(b_src, np.argmin(state["b_prefix"], axis=0) + 1)
    assert np.all(q_src <= 3) and np.all(b_src <= 3)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([-1e-3, 0.0, 2e-6, 0.5]), min_size=n, max_size=n),
            min_size=1,
            max_size=3,
        )
    )
)
def test_tightest_order_is_one_rule_for_floats_lanes_and_the_trial_step(lanes):
    # the max of the lower bounds, the min of the upper ones, the lowest order
    # winning a tie: from a list of floats, from the same values as lanes, and
    # as the engine's trial-signal order added to the best prefix order
    stacked = np.array(lanes).T  # orders along the first axis, one lane per column
    for upper in (False, True):
        for values, bound, order in zip(lanes, *_best(stacked, upper)):
            tightest = (min if upper else max)(values)
            assert _best(values, upper) == (tightest, values.index(tightest) + 1) == (bound, order)
    decoys = tuple(0.1 * j for j in range(1, len(lanes[0])))
    engine = _ScenarioEngine(ScenarioSpec("custom", decoy_mus=decoys))
    for orders in (stacked, *lanes):
        (q1, q_src), (b1, b_src) = _best(orders[:-1]), _best(orders[:-1], upper=True)
        state = {"q1": q1, "q_src": q_src, "b1": b1, "b_src": b_src}
        trial_order = lambda *_: (orders[-1], orders[-1])  # noqa: E731
        trial = lambda self, state, mu: (mu, None, None, None)  # noqa: E731
        with mock.patch.object(_ScenarioEngine, "_order_k_bounds", trial_order):
            with mock.patch.object(_ScenarioEngine, "_trial", trial):
                stepped = engine._bounds(state, 0.6)
        (q1, q_src), (b1, b_src) = _best(orders), _best(orders, upper=True)
        assert all(map(np.array_equal, stepped, (q1, b1, q_src, b_src)))


def test_engine_ratio_estimator_matches_legacy_form():
    # the k3-ma engine's q1 is the library's Ma ratio estimator on the model stats
    spec = ScenarioSpec("k3-ma")
    engine = _ScenarioEngine(spec)
    length, mu = 120.0, 0.47
    q1, *_ = engine._bounds(engine._distance_state(length), mu)

    estimation = replace(STANDARD_FIBER, pD=0.0)
    grid = IntensityGrid((0.1, 0.2, mu))
    alpha = alpha_of_distance(length, estimation)
    stats = model_stats(grid, alpha, estimation)
    assert float(q1) == pytest.approx(ma_q1_lower(grid.mus, stats.p[0], stats.p[1:4]), rel=1e-11)


def test_engine_vector_path_equals_scalar_path():
    for name in ("k2", "k3-ma", "k3-wang", "k3-ours", "k4", "universal"):
        spec = ScenarioSpec(name, direction="reverse", dark_mode="pd-equals-p0")
        engine = _ScenarioEngine(spec)
        state = engine._distance_state(150.0)
        mus = np.linspace(spec.signal_lower + 0.05, 1.5, 7)
        # bounds without a trial-signal part keep the distance's shape
        q_vec, b_vec = (np.broadcast_to(v, mus.shape) for v in engine._bounds(state, mus)[:2])
        rate_vec = engine.rate(state, mus)
        for idx, mu in enumerate(mus):
            q_s, b_s, _, _ = engine._bounds(state, float(mu))
            assert float(q_vec[idx]) == pytest.approx(float(q_s), rel=1e-13)
            assert float(b_vec[idx]) == pytest.approx(float(b_s), rel=1e-13)
            assert rate_vec[idx] == pytest.approx(engine.rate(state, float(mu)), rel=1e-12)


@pytest.mark.parametrize("direction", ["forward", "reverse"])
@pytest.mark.parametrize("dark_mode", ["pd-zero", "pd-equals-p0", "explicit"])
def test_universal_engine_rate_is_library_universal_upper(direction, dark_mode):
    # the lossless channel's alpha + p0 exceeds 1 at 0 km, where both clamp q1
    lossless = replace(STANDARD_FIBER, theta=1.0, a0=0.0, p0=1e-3)
    dark_rate = 1e-7 if dark_mode == "explicit" else None
    for channel in (STANDARD_FIBER, lossless):
        spec = ScenarioSpec("universal", direction, dark_mode, channel, dark_rate=dark_rate)
        engine = _ScenarioEngine(spec)
        params = spec.resolved_channel()
        for length in (0.0, 120.0, 210.0):
            alpha = alpha_of_distance(length, params)
            for mu in (0.2, 0.55, 1.3):
                expected = universal_upper(mu, alpha, params, direction)
                assert engine.rate(engine._distance_state(length), mu) == expected


def test_decoy_estimates_never_beat_perfect_knowledge():
    # at equal signal intensity the decoy-estimated rate cannot exceed the
    # perfectly estimated one (soundness of the bounds through the rate);
    # the tiny custom decoys probe the vacuum weight 1 - e^(-mu) for cancellation
    universal = _ScenarioEngine(ScenarioSpec("universal"))
    specs = [ScenarioSpec(name) for name in ("k2", "k3-wang", "k3-ours", "k4")]
    specs += [ScenarioSpec("custom", decoy_mus=(d,)) for d in (1e-10, 1e-12, 1e-16, 1e-20)]
    for spec in specs:
        engine = _ScenarioEngine(spec)
        for length in (50.0, 150.0, 215.0):
            for mu in (0.4, 0.6, 1.0):
                decoy = engine.rate(engine._distance_state(length), mu)
                perfect = universal.rate(universal._distance_state(length), mu)
                assert decoy <= perfect + 1e-12


def test_run_scenario_rows_and_refinement():
    spec = ScenarioSpec("k2")
    result = run_scenario(spec, (218.0, 226.0, 1.0))
    lengths = [row.L_km for row in result.rows]
    assert lengths == sorted(lengths)
    for row in result.rows:
        assert row.rate == max(row.rate_signed, 0.0)
        assert 0.0 <= row.q1_min <= 1.0
        assert row.q1_source_j == 2 and row.b1_source_j == 1
    assert result.achievable_km == pytest.approx(222.86, abs=0.05)


def test_run_scenario_range_edges():
    spec = ScenarioSpec("k2")
    with pytest.raises(ConfigurationError):
        run_scenario(spec, (0.0, 10.0, 0.0))
    with pytest.raises(ConfigurationError):
        run_scenario(spec, (10.0, 0.0, 1.0))
    # the range is read by the rule of ScenarioSpec's numbers: no strings or bools
    for l_range in ((0, True, 1), ("0", "10", "5"), ("a", 1, 1), (0.0, 10.0), (0.0, None, 1.0)):
        with pytest.raises(ConfigurationError, match="three numbers"):
            run_scenario(spec, l_range)
    # still positive at the end of a short range: no crossing to report
    short = run_scenario(spec, (0.0, 10.0, 5.0))
    assert short.achievable_km is None
    # never positive across the range
    far = run_scenario(spec, (235.0, 238.0, 1.0))
    assert far.achievable_km == 0.0


def test_beyond_range_is_none_in_both_apis():
    spec = ScenarioSpec("k2")
    assert run_scenario(spec, (0.0, 100.0, 1.0)).achievable_km is None


def test_sweep_bisects_its_own_scan(monkeypatch):
    calls, sweeps, refinements = [], [], []
    find_zero, sweep, refined = scenarios.find_zero_distance, _ScenarioEngine.sweep, scenarios._refined

    def counted(envelope, lengths, values):
        def spy(length_km):
            calls.append(length_km)
            return envelope(length_km)

        return find_zero(spy, lengths, values)

    def lanes(self, lengths):
        rows, answered = sweep(self, lengths)
        sweeps.append((list(lengths), list(answered)))
        return rows, answered

    def refinement(rate_fn, grid, grid_max, *args):
        refinements.append(np.shape(grid_max[0]))
        return refined(rate_fn, grid, grid_max, *args)

    monkeypatch.setattr(scenarios, "find_zero_distance", counted)
    monkeypatch.setattr(_ScenarioEngine, "sweep", lanes)
    monkeypatch.setattr(scenarios, "_refined", refinement)
    result = run_scenario(ScenarioSpec("k2"), (218.0, 226.0, 1.0))
    # the 9 scan rows and the 63 midpoints of the first six bisection levels
    # of their last sign change are the lanes of one golden section; the 7
    # bisection steps each read the envelope at one distance strictly inside
    # that sign change, the first six at a lane's
    levels = scenarios._BISECTION_LANE_LEVELS
    candidates = _bisection_midpoints(222.0, 223.0, levels)
    assert levels == 6 and len(candidates) == 63
    assert sweeps == [([row.L_km for row in result.rows], candidates)]
    assert refinements == [(9 + 63,)]
    assert len(result.rows) == 9
    assert len(calls) == 7
    assert all(222.0 < length < 223.0 for length in calls)
    assert [length in candidates for length in calls] == [True] * 6 + [False]


@pytest.mark.parametrize("dark_mode", DARK_MODES)
@pytest.mark.parametrize("direction", ["forward", "reverse"])
@pytest.mark.parametrize("name", [name for name in SCENARIO_NAMES if name != "custom"])
def test_envelope_is_the_row_rate(monkeypatch, name, direction, dark_mode):
    # the bisection's envelope at a distance that no lane answered is the
    # one-distance row's signed rate, bit for bit
    envelopes = []

    def spied(envelope, lengths, values):
        envelopes.append(envelope)
        return find_zero_distance(envelope, lengths, values)

    monkeypatch.setattr(scenarios, "find_zero_distance", spied)
    dark_rate = 0.5 * STANDARD_FIBER.p0 if dark_mode == "explicit" else None
    spec = ScenarioSpec(name, direction, dark_mode, dark_rate=dark_rate)
    run_scenario(spec, (0.0, 250.0, 50.0))
    (envelope,) = envelopes
    engine = _ScenarioEngine(spec)
    for length in (0.0, 97.3, 180.0, 241.5):
        assert envelope(length).hex() == engine.optimized(length).rate_signed.hex()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.101, 0.18), min_size=1, max_size=10),
    st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6),
)
def test_trial_omega_is_the_series_over_decoys_and_signal(gaps, trials):
    # the engine keeps the decoys' recurrence columns from one trial signal to
    # the next; each Omega is the series over all the points, to the bit
    engine = _ScenarioEngine(ScenarioSpec("custom", decoy_mus=itertools.accumulate(gaps)))
    lanes = np.array(trials)
    for mu in (*trials, np.float64(trials[0]), lanes, lanes[:, None]):
        omega, series = engine.trial_omega(mu), h_series((*engine.decoys, mu))
        assert type(omega) is type(series)
        assert np.shape(omega) == np.shape(series)
        assert np.array_equal(omega, series)


def test_chunked_sweep_equals_one_block(monkeypatch):
    # the element cap only splits the work: one distance per grid chunk and
    # four per golden-section block give the rows of a single block
    spec = ScenarioSpec("k4", direction="reverse", dark_mode="pd-equals-p0")
    whole = run_scenario(spec, (100.0, 240.0, 10.0))
    monkeypatch.setattr(scenarios, "_EVAL_ELEMENTS", 4)
    chunked = run_scenario(spec, (100.0, 240.0, 10.0))
    assert repr(chunked.rows) == repr(whole.rows)
    assert chunked.achievable_km == whole.achievable_km


def test_universal_optimum_stays_below_one():
    spec = ScenarioSpec("universal", direction="reverse", dark_mode="pd-equals-p0")
    result = run_scenario(spec, (0.0, 220.0, 20.0))
    for row in result.rows:
        assert row.optimal_mu <= 1.0 + 1e-6
        assert row.q1_source_j == 0 and row.b1_source_j == 0


def test_optimal_intensity_ordering_across_estimators():
    # tighter estimation lets the sender push the signal harder; the k4 and
    # universal optima are nearly indistinguishable
    mus = {}
    for name in ("k2", "k3-wang", "k3-ours", "k4", "universal"):
        engine = _ScenarioEngine(ScenarioSpec(name, direction="reverse", dark_mode="pd-equals-p0"))
        mus[name] = engine.optimized(150.0).optimal_mu
    assert mus["k2"] <= mus["k3-wang"] <= mus["k3-ours"] <= mus["k4"] + 1e-9
    assert abs(mus["k4"] - mus["universal"]) <= 2e-3


def test_ma_scenario_uses_signal_rate():
    spec = ScenarioSpec("k3-ma")
    engine = _ScenarioEngine(spec)
    state = engine._distance_state(100.0)
    q_a, *_ = engine._bounds(state, 0.4)
    q_b, *_ = engine._bounds(state, 0.8)
    assert float(q_a) != pytest.approx(float(q_b), rel=1e-6)
    row = engine.optimized(100.0)
    assert row.q1_source_j == -1 and row.b1_source_j == 1


@st.composite
def lane_cases(draw, names=SCENARIO_NAMES):
    """A scenario from ``names`` on a drawn channel and a short scan of distances."""
    p0 = draw(st.sampled_from([0.0, 4e-7]) | st.floats(1e-8, 1e-3))
    channel = ChannelParams(
        theta=draw(st.floats(0.05, 1.0)),
        # a0 = 4000 dB underflows the transmission to 0 at every distance
        a0=draw(st.floats(0.0, 10.0) | st.just(4000.0)),
        a1=draw(st.floats(0.1, 0.3)),
        p0=p0,
        pD=0.0,
        s=draw(st.floats(0.0, 0.5)),
    )
    dark_mode = draw(st.sampled_from(DARK_MODES))
    dark_rate = draw(st.floats(0.0, p0)) if dark_mode == "explicit" else None
    name = draw(st.sampled_from(names))
    decoys = None
    if name == "custom":
        k = draw(st.integers(1, 6))
        gaps = draw(st.lists(st.floats(0.1, 0.3), min_size=k, max_size=k))
        decoys = list(itertools.accumulate(gaps))
        assume(decoys[-1] + 0.1 < DEFAULT_MU_CAP)
    spec = ScenarioSpec(
        name,
        direction=draw(st.sampled_from(["forward", "reverse"])),
        dark_mode=dark_mode,
        channel=channel,
        decoy_mus=decoys,
        dark_rate=dark_rate,
    )
    l_min = draw(st.floats(0.0, 250.0))
    step = draw(st.floats(0.5, 40.0))
    return spec, (l_min, l_min + step * draw(st.integers(0, 3)), step)


@settings(max_examples=25, deadline=None)
@given(lane_cases())
def test_lane_rows_equal_one_distance_rows(case):
    # every lane of the sweep does the float operations of a one-distance optimization
    spec, l_range = case
    engine = _ScenarioEngine(spec)
    for row in run_scenario(spec, l_range).rows:
        one = engine.optimized(row.L_km)
        assert row == one
        assert repr(row) == repr(one)


# Brent's search ends with its best point within 2 tol1 of an interior
# maximum, tol1 = sqrt(2.2e-16) mu + tol / 3 < 4e-7 here, so its rate falls
# short by at most |R''| (2 tol1)^2 / 2.  A lane that stops at its lower edge
# has a rate there not below the rate one tolerance inside, so a unimodal
# maximum lies within tol of the edge, short by at most |R''| tol^2 / 2.  The
# terms of the rate are of the order of the signal's counting rate p(mu) and
# so is mu^2 R'': either loss is ~1e-12 p, and rounding in the rate is
# ~1e-16 p.  1e-9 p covers both with room to spare and stays over 100 times
# below the shortfall of 1.7e-7 to 6.6e-5 of a search that stops a tolerance
# inside its lower edge (test_lower_edge_optimum_is_reached).
_SCAN_RTOL = 1e-9
_PRESETS = tuple(name for name in SCENARIO_NAMES if name != "custom")
_NOISY_FIBER = replace(STANDARD_FIBER, s=0.135, p0=9.8e-4)


def _beats_dense_scan(engine, row, lo, hi, points=20001) -> bool:
    """Whether the row's rate is within the tolerance of the best on an even scan of [lo, hi]."""
    state = engine._distance_state(np.asarray([row.L_km]))
    best = np.max(engine.rate(state, np.linspace(lo, hi, points)[:, None]))
    p_signal = counting_rate(row.optimal_mu, state["alpha"][0], engine.params)
    return best <= row.rate_signed + _SCAN_RTOL * p_signal


@settings(max_examples=25, deadline=None)
@given(lane_cases(names=tuple(name for name in SCENARIO_NAMES if name != "k3-ma")))
def test_optimum_beats_dense_scan(case):
    # the search assumes a unimodal rate; a dense scan of the search range
    # finds nothing better.  The range is closed at signal_lower, which the
    # search evaluates, so the scan starts just above it; at mu_cap the search
    # stops up to a tolerance inside.  k3-ma is not drawn: its rate can have
    # two modes (test_k3_ma_optimum_is_global).
    spec, l_range = case
    engine = _ScenarioEngine(spec)
    lo, hi = spec.signal_lower + 1e-9, DEFAULT_MU_CAP - DEFAULT_MU_TOL
    for row in run_scenario(spec, l_range).rows:
        assert _beats_dense_scan(engine, row, lo, hi), row


def test_k3_ma_optimum_is_global():
    # on this noisy channel the ratio estimator's q1 runs to -inf at the lower
    # edge mu1 + mu2, so the rate falls from the edge, dips where q1 is too
    # small to pay for the error bound, and peaks again near mu = 0.317.  At
    # 70-79 km forward the inner peak is 0.2-2% below the edge's rate (1.3%
    # here), and the best grid point is the second, so the lane's bracket
    # holds the inner peak only: the search keeps the edge's rate too
    spec = ScenarioSpec("k3-ma", channel=_NOISY_FIBER)
    row = run_scenario(spec, (75.0, 75.0, 1.0)).rows[0]
    lo, hi = spec.signal_lower + DEFAULT_MU_TOL, DEFAULT_MU_CAP - DEFAULT_MU_TOL
    assert _beats_dense_scan(_ScenarioEngine(spec), row, lo, hi)


@pytest.mark.parametrize("name", _PRESETS)
def test_lower_edge_optimum_is_reached(name):
    # at 115.7 km on this noisy channel every preset's rate falls from
    # signal_lower, which for k3-ma is the ratio estimator's singular point
    # mu1 + mu2.  A search that stops 6.6e-7 inside is short by ~2e-6
    # relative, so the row sits on the edge (for k3-ma the first float above)
    spec = ScenarioSpec(name, channel=_NOISY_FIBER)
    row = run_scenario(spec, (115.7, 115.7, 1.0)).rows[0]
    edge = math.nextafter(spec.signal_lower, 1.0) if name == "k3-ma" else spec.signal_lower
    assert row.optimal_mu == edge
    lo = spec.signal_lower + 1e-9
    assert _beats_dense_scan(_ScenarioEngine(spec), row, lo, lo + 1e-4)


@settings(max_examples=10, deadline=None)
@given(lane_cases())
def test_grid_rates_are_scalar_rates(case):
    # a grid point's rate is one scalar rate, in the one-distance grid and in
    # a lane chunk of the sweep
    spec, (l_min, l_max, step) = case
    engine = _ScenarioEngine(spec)
    lengths = np.arange(l_min, l_max + 0.5 * step, step)
    with mock.patch.object(scenarios, "_EVAL_ELEMENTS", 1):  # one lane per chunk
        lanes = engine._grid_rates(engine._distance_state(lengths), engine.grid)
    for length, lane in zip(lengths.tolist(), lanes, strict=True):
        state = engine._distance_state(length)
        scalar = np.array([engine.rate(state, float(g)) for g in engine.grid])
        assert np.array_equal(scalar, engine._grid_rates(state, engine.grid))
        assert np.array_equal(scalar, lane)


def _lane_grid(case):
    """(engine, lengths, lane state, the lanes' full coarse-grid rates) of a ``lane_cases`` case."""
    spec, (l_min, l_max, step) = case
    engine = _ScenarioEngine(spec)
    lengths = np.arange(l_min, l_max + 0.5 * step, step)
    state = engine._distance_state(lengths)
    return engine, lengths, state, engine._grid_rates(state, engine.grid)


# corners of the envelope: nothing transmitted with p0 = 0 (zero credit and
# the 0/0 floor of s(mu)), s = 1/2, where hbar(s(mu)) = 1, and a lossless
# channel, whose model yields 1 - (1 - alpha)^n + p0 pass 1 near alpha = 1
_DARK_FREE = replace(STANDARD_FIBER, a0=4000.0, p0=0.0)
_HALF_ERROR = replace(STANDARD_FIBER, p0=0.0, s=0.5)
_LOSSLESS = replace(STANDARD_FIBER, theta=1.0, a0=0.0, a1=0.2, p0=1e-3)
_CORNER_CASES = [
    (ScenarioSpec("k3-ma", channel=_DARK_FREE), (0.0, 100.0, 50.0)),
    (ScenarioSpec("k3-ma", "reverse", "pd-equals-p0", _HALF_ERROR), (0.0, 100.0, 50.0)),
    (ScenarioSpec("k4", "reverse", "pd-equals-p0", _NOISY_FIBER), (60.0, 120.0, 30.0)),
    (ScenarioSpec("k3-ours", channel=_LOSSLESS), (0.0, 0.09, 0.03)),  # order 1 passes alpha + p0
    (ScenarioSpec("k3-ours", channel=_LOSSLESS), (1.0, 4.0, 1.5)),  # the trial's order 3 does
    (ScenarioSpec("k4", "reverse", "pd-equals-p0", _LOSSLESS), (0.0, 0.09, 0.03)),
    (ScenarioSpec("custom", decoy_mus=(0.2, 0.5, 0.8)), (0.0, 200.0, 100.0)),
    # a one-point grid above the first band, which then holds that point
    (ScenarioSpec("custom", decoy_mus=(1.7, 1.85), signal_lower=1.995), (0.0, 200.0, 100.0)),
]


def _corner_examples(test):
    for case in _CORNER_CASES:
        test = example(case)(test)
    return test


@settings(max_examples=25, deadline=None)
@given(lane_cases())
@_corner_examples
def test_decoy_grid_rates_never_beat_perfect_knowledge(case):
    # what the sweep's pruning rests on.  At every coarse-grid signal of every
    # lane a decoy q1 at most alpha + p0 gives a rate at most the universal
    # one, up to rounding far below the rate's terms (of the order of p(mu)).
    # A q1 above alpha + p0 stays below the engine's ceiling for it.
    engine, lengths, state, decoy = _lane_grid(case)
    spec, grid = engine.spec, engine.grid
    dark_rate = spec.dark_rate
    universal = _ScenarioEngine(
        ScenarioSpec("universal", spec.direction, spec.dark_mode, spec.channel, dark_rate=dark_rate)
    )
    perfect = universal.rate(universal._distance_state(lengths), grid[:, None]).T
    p_signal = counting_rate(grid[:, None], state["alpha"], engine.params).T
    q1 = np.broadcast_to(engine._bounds(state, grid[:, None])[0], grid.shape + lengths.shape).T
    physical = q1 <= (state["alpha"] + engine.p0)[:, None]
    assert np.all((decoy <= perfect + 1e-12 * p_signal) | ~physical)
    reach = engine._q1_reach(state, grid)
    assert np.all(q1 <= reach + 1e-12 * reach)


@settings(max_examples=25, deadline=None)
@given(lane_cases())
@_corner_examples
def test_box_bound_covers_every_grid_rate_in_its_box(case):
    # a box of up to _BOX_POINTS grid signals, bounded from its two ends, lies
    # above every rate of every lane in it: checked on every run of grid points
    engine, _, state, values = _lane_grid(case)
    grid = engine.grid
    for width in range(1, min(scenarios._BOX_POINTS, grid.size) + 1):
        runs = np.lib.stride_tricks.sliding_window_view(values, width, axis=1).max(axis=-1)
        lows, highs = grid[: grid.size - width + 1], grid[width - 1 :]
        ceilings = _universal_box_bound(
            state["alpha"][:, None],
            engine._q1_reach(state, highs),
            lows,
            highs,
            engine.params,
            engine.spec.direction,
        )
        assert np.all(runs <= ceilings), width


def _pruned_grid(engine, lengths):
    """The lanes of ``engine.sweep(lengths)``, their grid maxima and each (lane, signal) rate read.

    The lanes are the scan's distances, then the bisection midpoints that
    the sweep answered, as the sweep joins them.  Spies number each lane,
    record every ``_grid_rates`` evaluation and the one ``_pruned_grid_max``
    pass; the rates read NaN where none was made.
    """
    grid_rates, distance_state = engine._grid_rates, engine._distance_state
    pruned_grid_max = engine._pruned_grid_max
    numbered, evaluations, passes = [], [], []

    def numbered_state(lengths):
        # sliced and joined with the lanes, so each evaluation names its own
        first = sum(map(len, numbered))
        numbered.append(np.arange(first, first + len(lengths)))
        return {**distance_state(lengths), "lane": numbered[-1]}

    def rates_spy(state, grid, columns=slice(None)):
        values = grid_rates(state, grid, columns)
        evaluations.append((state["lane"][:, None], np.arange(grid.size)[columns], values))
        return values

    def pass_spy(state, band_max):
        passes.append(pruned_grid_max(state, band_max))
        return passes[-1]

    with mock.patch.multiple(
        engine, _grid_rates=rates_spy, _distance_state=numbered_state, _pruned_grid_max=pass_spy
    ):
        _, answered = engine.sweep(list(lengths))
    lanes = np.concatenate((lengths, list(answered)))
    assert np.array_equal(np.concatenate(numbered), np.arange(lanes.size))
    seen = np.full((lanes.size, engine.grid.size), np.nan)
    for lane, columns, values in evaluations:
        assert np.all(np.isnan(seen[lane, columns]))  # no element twice
        seen[lane, columns] = values
    (first_max,) = passes  # one pass of boxes over all lanes
    return lanes, first_max, seen


@settings(max_examples=25, deadline=None)
@given(lane_cases())
@_corner_examples
@example((ScenarioSpec("k2"), (200.0, 240.0, 10.0)))  # scan and bisection lanes
@example((ScenarioSpec("k3-ma", "reverse", "pd-equals-p0"), (215.0, 235.0, 5.0)))
def test_pruned_grid_keeps_every_lane_optimum(case):
    # a sweep reads its grid pruned, its scan's and bisection's lanes in one
    # pass: every point it evaluates has the full grid's bits, and every
    # point it skips lies strictly below its lane's best, so the first
    # maximum and its value are the full grid's
    spec, (l_min, l_max, step) = case
    engine = _ScenarioEngine(spec)
    lengths = np.arange(l_min, l_max + 0.5 * step, step)
    lanes, (index, value), seen = _pruned_grid(engine, lengths)
    full = engine._grid_rates(engine._distance_state(lanes), engine.grid)
    evaluated = ~np.isnan(seen)
    best = np.max(full, axis=1)
    assert np.array_equal(seen[evaluated], full[evaluated])
    assert np.all(evaluated | (full < best[:, None]))
    first, first_value = _first_max(full)
    assert np.array_equal(index, first)
    assert value.tobytes() == first_value.tobytes()


@pytest.mark.parametrize("name", _PRESETS)
def test_sweep_prunes_most_of_its_grid(name):
    # over 0-250 km on the standard fiber the envelope skips over half of the
    # grid of the scan and the 63 bisection lanes
    lanes, _, seen = _pruned_grid(_ScenarioEngine(ScenarioSpec(name)), np.arange(0.0, 251.0))
    assert lanes.size == 251 + 63
    assert np.mean(np.isnan(seen)) > 0.5


def _default_sweeps():
    """The distinct sweeps of a default ``figures`` call: one spec per ``_sweep_key``."""
    specs = {}
    for direction, dark_mode, names in cli._FIGURE_SETS:
        for name in names:
            spec = ScenarioSpec(name, direction, dark_mode)
            specs.setdefault(scenarios._sweep_key(spec), spec)
    return list(specs.values())


@pytest.mark.parametrize("offset", [0.0, 0.347, 0.625])
def test_band_predicts_the_full_grids_bracket(offset):
    # the sweep predicts the bisection's bracket from the band alone; on the
    # default sweeps, and scans off the whole kilometre, the full grid
    # predicts the same row
    specs = _default_sweeps()
    assert len(specs) == 11
    for spec in specs:
        engine = _ScenarioEngine(spec)
        state = engine._distance_state(np.arange(0.0, 251.0) + offset)
        band = engine._band_max(state)[1]
        full = np.max(engine._grid_rates(state, engine.grid), axis=1)
        predicted = scenarios._predicted_row(band)
        assert predicted is not None
        assert predicted == scenarios._predicted_row(full)


def _counted_optimizations(monkeypatch) -> list:
    """The arguments of every later ``optimize_signal_intensity`` call of ``scenarios``."""
    optimize, calls = scenarios.optimize_signal_intensity, []

    def counted(*args, **kwargs):
        calls.append(args)
        return optimize(*args, **kwargs)

    monkeypatch.setattr(scenarios, "optimize_signal_intensity", counted)
    return calls


def test_missed_band_prediction_keeps_every_byte(monkeypatch):
    # a band of one grid point predicts some brackets wrong; those sweeps'
    # bisections then optimize at every step, and every row and achievable
    # distance stays as without lanes
    calls, misses = _counted_optimizations(monkeypatch), []
    for direction, name in itertools.product(("forward", "reverse"), _PRESETS):
        spec = ScenarioSpec(name, direction, "pd-equals-p0")
        reference = _without_lanes(spec, (0.0, 250.0, 1.0))
        first_signal = float(_ScenarioEngine(spec).grid[0])
        calls.clear()
        with mock.patch.object(scenarios, "_FIRST_BAND_MU", first_signal):
            result = run_scenario(spec)
        assert result.rows == reference.rows
        assert repr(result.achievable_km) == repr(reference.achievable_km)
        misses.append(len(calls) == 7)  # all seven steps of a 1 km bracket
    assert any(misses)


_AGGREGATES = tuple(name for name, (_, kind) in scenarios._SCENARIOS.items() if kind == "aggregate")


def _trial_bounds_by_exact_omega(engine, lengths) -> list[int]:
    """Check ``_trial_bounds`` at every coarse-grid signal against the exact Omega's bounds.

    On the lanes of ``lengths`` (one signal across them) and on each
    length's one-distance state (float signals), the trial bounds must be
    those of ``order_bounds`` with the exact ``trial_omega(mu)``, bit for
    bit.  Returns how many calls summed the series, one count per state,
    the lanes first.
    """
    series = engine.trial_omega
    states = [engine._distance_state(np.asarray(lengths))]
    states += [engine._distance_state(length) for length in lengths]
    exact = []
    for state in states:
        spy = mock.Mock(wraps=series, first_term=series.first_term)
        for mu in engine.grid.tolist():
            trial = engine._trial(state, np.full(len(lengths), mu) if state is states[0] else mu)
            with mock.patch.object(engine, "trial_omega", spy):
                got = engine._trial_bounds(state, trial, None)
            mu, signal = trial[:2]
            c, d = engine._inputs(signal, mu)
            points = engine.decoys + (mu,)
            c, d = [*state["c"], c], [*state["d"], d]
            q_k, b_k = order_bounds(_beta_row(points), math.prod(points), c, d, series(mu), 1.0)
            q1, b1 = state["q1"], state["b1"]
            q_new, b_new = q_k > q1, b_k < b1
            expected = (_pick(q_new, q_k, q1), _pick(b_new, b_k, b1), q_new, b_new)
            for value, want in zip(got, expected, strict=True):
                assert repr(np.asarray(value).tolist()) == repr(np.asarray(want).tolist())
        exact.append(spy.call_count)
    return exact


@settings(max_examples=25, deadline=None)
@given(lane_cases(names=_AGGREGATES))
@example((ScenarioSpec("k3-ours", channel=_LOSSLESS), (75.0, 125.0, 25.0)))
@example((ScenarioSpec("k3-ours", channel=_LOSSLESS), (0.0, 0.09, 0.03)))
def test_omega_floor_keeps_the_exact_trial_bounds(case):
    # the trial order's saturated bound is first formed with Omega's first
    # term, a float floor of the series; it is summed only where that bound
    # could still win, so every trial bound is the exact Omega's
    spec, (l_min, l_max, step) = case
    _trial_bounds_by_exact_omega(_ScenarioEngine(spec), np.arange(l_min, l_max + 0.5 * step, step))


def test_omega_floor_takes_both_paths():
    # on the lossless channel k3-ours' saturated trial q (order 3) beats the
    # decoy orders at some signals, so the series is summed there on floats
    # and on lanes.  On the standard fiber past 100 km, where the sweeps'
    # crossings lie, the floor settles every signal of every preset
    lossless = _ScenarioEngine(ScenarioSpec("k3-ours", channel=_LOSSLESS))
    lanes, *floats = _trial_bounds_by_exact_omega(lossless, [75.0, 100.0, 125.0])
    signals = lossless.grid.size
    assert 0 < lanes < signals and 0 < sum(floats) < len(floats) * signals
    for name in ("k2", "k3-ours", "k4"):
        engine = _ScenarioEngine(ScenarioSpec(name))
        assert _trial_bounds_by_exact_omega(engine, [125.0, 250.0]) == [0, 0, 0]


@st.composite
def dark_variants(draw):
    """A preset scenario on a drawn channel in every dark mode and direction, and a short scan."""
    p0 = draw(st.sampled_from([0.0, 4e-7]) | st.floats(1e-8, 1e-3))
    s, a1 = draw(st.floats(0.0, 0.5)), draw(st.floats(0.1, 0.3))
    channel = replace(STANDARD_FIBER, p0=p0, s=s, a1=a1)
    dark_rate = draw(st.sampled_from([0.0, p0]) | st.floats(0.0, p0))
    name = draw(st.sampled_from(_PRESETS))
    specs = [
        ScenarioSpec(name, d, mode, channel, dark_rate=dark_rate if mode == "explicit" else None)
        for d in ("forward", "reverse")
        for mode in DARK_MODES
    ]
    l_min, step = draw(st.floats(0.0, 250.0)), draw(st.floats(1.0, 40.0))
    return specs, (l_min, l_min + 2 * step, step)


@settings(max_examples=20, deadline=None)
@given(dark_variants())
def test_equal_sweep_keys_give_equal_sweeps(case):
    # figures sweeps once per key, so specs with one key must sweep alike bit
    # for bit; forward pd-zero and pd-equals-p0 always share a key, and a
    # reverse key keeps the dark rate
    specs, l_range = case
    keys = {}
    for spec in specs:
        keys.setdefault(scenarios._sweep_key(spec), []).append(spec)
    assert len(keys) < len(specs)
    for first, *repeats in keys.values():
        expected = run_scenario(first, l_range) if repeats else None
        for spec in repeats:
            result = run_scenario(spec, l_range)
            assert repr(result.rows) == repr(expected.rows)
            assert repr(result.achievable_km) == repr(expected.achievable_km)
    reverse = [spec for spec in specs if spec.direction == "reverse"]
    for a, b in itertools.combinations(reverse, 2):
        same_key = scenarios._sweep_key(a) == scenarios._sweep_key(b)
        assert same_key == (a.dark_rate_effective == b.dark_rate_effective)


@pytest.mark.parametrize(
    "spec",
    [ScenarioSpec(name) for name in _PRESETS]
    + [ScenarioSpec("custom", decoy_mus=(0.1, 0.25, 0.4, 0.6, 0.85, 1.1), signal_lower=1.3)]
    # Ma's search starts at mu1 + mu2, one float above this floor
    + [pytest.param(ScenarioSpec("k3-ma", signal_lower=0.3), id="k3-ma-floor")],
    ids=lambda spec: spec.name,
)
def test_grid_terms_are_fresh_terms(spec):
    # the aggregation's kept trial row and Omega are those of the grid both
    # searches scan, from the engine's lower end
    engine = _ScenarioEngine(spec)
    assert np.array_equal(engine.grid, _coarse_grid(engine.lower, DEFAULT_MU_CAP))
    if spec.estimator_kind != "aggregate":
        assert engine.grid_terms is None
        return
    engine.rate(engine._distance_state(120.0), 0.77)  # a later trial leaves them as they were
    row, omega = engine.grid_terms
    fresh = _beta_row(spec.decoy_mus + (engine.grid,))
    assert len(row) == len(fresh) == len(spec.decoy_mus) + 1
    assert all(np.array_equal(kept, new) for kept, new in zip(row, fresh))
    assert np.array_equal(omega, h_series((*spec.decoy_mus, engine.grid)))


@pytest.mark.parametrize("name", _PRESETS)
def test_settled_bisection_equals_optimized_bisection(monkeypatch, name):
    # a step answered by a lane of the sweep builds no distance state and
    # calls no optimizer; every later step builds one distance state and
    # calls the optimizer once.  The bisection ends where it ends on the
    # optimized rate alone.  The noisy channel is never positive, so there the
    # scan alone decides (0.0).
    distance_state = _ScenarioEngine._distance_state
    optimizations, states, bisections = _counted_optimizations(monkeypatch), [], []

    def built(self, lengths):
        states.append(lengths)
        return distance_state(self, lengths)

    def spied(envelope, lengths, values):
        steps = []
        bisections.append(steps)

        def step(length_km):
            before = len(optimizations), len(states)
            rate = envelope(length_km)
            steps.append((len(optimizations) - before[0], len(states) - before[1], rate))
            return rate

        return find_zero_distance(step, lengths, values)

    monkeypatch.setattr(_ScenarioEngine, "_distance_state", built)
    monkeypatch.setattr(scenarios, "find_zero_distance", spied)
    configs = itertools.product(("forward", "reverse"), DARK_MODES, (STANDARD_FIBER, _NOISY_FIBER))
    for direction, dark_mode, channel in configs:
        dark_rate = 0.5 * channel.p0 if dark_mode == "explicit" else None
        spec = ScenarioSpec(name, direction, dark_mode, channel, dark_rate=dark_rate)
        for offset in (0.0, 0.347, 0.625):
            result = run_scenario(spec, (200.0 + offset, 250.0 + offset, 2.5))
            lengths = [row.L_km for row in result.rows]
            signed = [row.rate_signed for row in result.rows]
            engine = _ScenarioEngine(spec)
            optimized = lambda length: engine.optimized(length).rate_signed  # noqa: E731
            reference = find_zero_distance(optimized, lengths, signed)
            assert repr(result.achievable_km) == repr(reference)
            if channel is _NOISY_FIBER:
                assert result.achievable_km == 0.0
            else:
                assert lengths[0] < result.achievable_km < lengths[-1]
    # a 2.5 km bracket bisects in 8 levels: 6 answered by lanes, then 2 steps
    levels = scenarios._BISECTION_LANE_LEVELS
    runs = [steps for steps in bisections if steps]  # the standard fiber's
    assert len(runs) == 2 * len(DARK_MODES) * 3
    assert all(len(run) == 8 for run in runs)
    assert all(calls == built_states == 0 for run in runs for calls, built_states, _ in run[:levels])
    later = [step for run in runs for step in run[levels:]]
    assert all(calls == built_states == 1 for calls, built_states, _ in later)


def _without_lanes(spec, l_range):
    with mock.patch.object(scenarios, "_BISECTION_LANE_LEVELS", 0):
        return run_scenario(spec, l_range)


# a window of distances around every preset's sign change on each channel
_BISECTION_WINDOWS = ((STANDARD_FIBER, 195.0), (_NOISY_FIBER, 0.0), (_LOSSLESS, 70.0))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_PRESETS),
    st.sampled_from(["forward", "reverse"]),
    st.sampled_from(DARK_MODES),
    st.sampled_from(_BISECTION_WINDOWS),
    st.sampled_from([0.5, 1.0, 2.5, 7.0]),
    st.floats(0.0, 1.0),
)
def test_lane_answered_bisection_equals_sequential_bisection(
    name, direction, dark_mode, window, step, offset
):
    # the midpoints answered by lanes of the sweep leave every row and the
    # achievable distance as the one-distance steps give them
    channel, l_min = window
    dark_rate = 0.5 * channel.p0 if dark_mode == "explicit" else None
    spec = ScenarioSpec(name, direction, dark_mode, channel, dark_rate=dark_rate)
    l_range = (l_min + offset * step, l_min + 50.0 + offset * step, step)
    result, reference = run_scenario(spec, l_range), _without_lanes(spec, l_range)
    assert result.rows == reference.rows
    assert repr(result.achievable_km) == repr(reference.achievable_km)


@pytest.mark.parametrize("name", _PRESETS)
def test_wrong_bracket_prediction_falls_back(monkeypatch, name):
    # lanes on another bracket answer none of the bisection's steps, which
    # each build the state of their own distance and optimize it once, and
    # the result stays the sequential bisection's
    distance_state, predicted = _ScenarioEngine._distance_state, scenarios._predicted_row
    states, steps = [], []

    def built(self, lengths):
        if np.ndim(lengths) == 0:  # one distance; a sweep builds arrays
            states.append(lengths)
        return distance_state(self, lengths)

    def spied(envelope, lengths, values):
        def step(length_km):
            steps.append(length_km)
            return envelope(length_km)

        return find_zero_distance(step, lengths, values)

    spec, l_range = ScenarioSpec(name), (190.0, 240.0, 1.0)
    reference = _without_lanes(spec, l_range)
    calls = _counted_optimizations(monkeypatch)
    monkeypatch.setattr(_ScenarioEngine, "_distance_state", built)
    monkeypatch.setattr(scenarios, "find_zero_distance", spied)
    for shift in (-1, -5, 1):
        monkeypatch.setattr(scenarios, "_predicted_row", lambda rates: predicted(rates) + shift)
        calls.clear(), states.clear(), steps.clear()
        result = run_scenario(spec, l_range)
        assert result.rows == reference.rows
        assert repr(result.achievable_km) == repr(reference.achievable_km)
        assert len(steps) == 7 and states == steps and len(calls) == 7


def test_default_scan_bisects_with_one_sequential_step(monkeypatch):
    # the first six of the seven bisection levels of a 1 km scan are lanes
    # of its sweep, so only the last step optimizes one distance
    calls = _counted_optimizations(monkeypatch)
    result = run_scenario(ScenarioSpec("k2"))
    assert len(result.rows) == 251
    assert 222.0 < result.achievable_km < 223.0
    assert len(calls) == 1


@pytest.mark.parametrize("l_range", [(0.0, 1.0, 1e-9), (0.0, 1e6, 1.0)])
def test_too_many_distances_are_refused(l_range):
    # counted before np.arange allocates anything; the second scan holds one
    # distance more than the limit
    with pytest.raises(ConfigurationError, match="too long: more than 1000000 distances"):
        run_scenario(ScenarioSpec("k2"), l_range)
