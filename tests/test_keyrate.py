import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoy_akg import (
    STANDARD_FIBER,
    ChannelParams,
    RateInputs,
    akg_rate,
    alpha_of_distance,
    binary_entropy_bar,
    counting_rate,
    error_rate,
    find_zero_distance,
    optimize_signal_intensity,
    single_photon_credit,
    universal_upper,
)
from decoy_akg.keyrate import _brent_max, _coarse_grid, _first_max, _refined
from decoy_akg.reference import optimal_mu_derivative_check


def test_entropy_endpoints_and_saturation():
    assert binary_entropy_bar(0.0) == 0.0
    assert binary_entropy_bar(0.5) == 1.0
    assert binary_entropy_bar(0.75) == 1.0
    assert binary_entropy_bar(1.0) == 1.0
    # continuity at the saturation point
    assert binary_entropy_bar(0.5 - 1e-9) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        binary_entropy_bar(-0.01)
    with pytest.raises(ValueError):
        binary_entropy_bar(1.01)
    arr = binary_entropy_bar(np.array([0.0, 0.25, 0.6]))
    assert arr.shape == (3,)
    assert arr[2] == 1.0


def test_single_photon_credit_conventions():
    assert single_photon_credit(0.0, 0.1) == 0.0
    assert single_photon_credit(-1e-9, 0.0) == 0.0
    assert single_photon_credit(1e-6, 5e-7) == 0.0  # ratio 1/2 saturates
    assert single_photon_credit(1e-6, 2e-6) == 0.0  # overshooting bound is clamped
    credit = single_photon_credit(1e-6, 3e-8)
    assert credit == pytest.approx(1e-6 * (1.0 - binary_entropy_bar(0.03)), rel=1e-12)
    # b1/q1 overflows a float here; the ratio saturates at 1 without a warning
    assert single_photon_credit(5e-324, 1.0) == 0.0
    assert single_photon_credit(1e-300, 1e10) == 0.0


# every way a caller may pass one number; a list comes back as an array
_INPUT_KINDS = {
    "float": float,
    "np.float64": np.float64,
    "0-d array": np.array,
    "list": lambda v: [v],
    "1-d element": lambda v: np.array([v])[0],
}


def test_entropy_rejects_non_finite_input():
    for make in _INPUT_KINDS.values():
        for bad in (math.nan, math.inf, -math.inf, -0.01, 1.01, -5e-324, math.nextafter(1.0, 2.0)):
            with pytest.raises(ValueError, match=r"in \[0, 1\]"):
                binary_entropy_bar(make(bad))
    with pytest.raises(ValueError):
        binary_entropy_bar(np.array([0.1, math.nan]))
    assert math.copysign(1.0, binary_entropy_bar(-0.0)) == 1.0  # -0.0 in, +0.0 out


def test_entropy_and_credit_of_empty_arrays():
    for empty in (np.array([]), np.zeros((0, 3))):
        assert binary_entropy_bar(empty).shape == empty.shape
        assert single_photon_credit(empty, empty).shape == empty.shape


def test_single_photon_credit_rejects_non_finite_input():
    bad = (
        (math.nan, 0.01), (math.inf, 0.01), (-math.inf, 0.01),
        (1e-6, math.nan), (1e-6, math.inf), (1e-6, -math.inf),
    )
    for make in _INPUT_KINDS.values():
        for args in bad:
            with pytest.raises(ValueError, match="finite q1 and b1"):
                single_photon_credit(*map(make, args))
    with pytest.raises(ValueError):
        single_photon_credit(np.array([1e-6, math.nan]), np.array([1e-8, 1e-8]))


def _assert_matches_element(result, kind, expected):
    if kind == "list":
        assert isinstance(result, np.ndarray) and result.tolist() == [expected]
    else:
        assert type(result) is float and result == expected


def _inputs(**overrides):
    base = dict(
        mu_signal=0.5,
        q1=4e-6,
        b1=1.5e-7,
        q0=4e-7,
        p_signal=2.4e-6,
        s_signal=0.1,
        pD=0.0,
    )
    base.update(overrides)
    return RateInputs(**base)


def test_rate_without_single_photon_credit_is_nonpositive():
    inputs = _inputs(q1=0.0, q0=0.0, pD=0.0)
    rate = akg_rate(inputs, "forward")
    expected = -0.5 * inputs.p_signal * binary_entropy_bar(inputs.s_signal)
    assert rate == pytest.approx(expected, rel=1e-12)
    assert rate <= 0.0


def test_direction_gap_identity():
    # reverse - forward = (pD - e^-mu (q0 + pD)) / 2, whatever the bounds say
    for pD in (0.0, 2e-7):
        inputs = _inputs(pD=pD)
        gap = akg_rate(inputs, "reverse") - akg_rate(inputs, "forward")
        expected = 0.5 * (pD - math.exp(-inputs.mu_signal) * (inputs.q0 + pD))
        assert gap == pytest.approx(expected, rel=1e-12, abs=1e-20)
    with pytest.raises(ValueError):
        akg_rate(_inputs(), "sideways")


def test_array_inputs_match_scalar_rates():
    fields = dict(
        mu_signal=np.array([0.3, 0.5, 0.9]),
        q1=np.array([4e-6, 0.0, 2e-6]),
        b1=np.array([1.5e-7, 1e-8, 1.5e-6]),
        q0=np.array([4e-7, 4e-7, 0.0]),
        p_signal=np.array([1.4e-6, 2.4e-6, 3.9e-6]),
        s_signal=np.array([0.1, 0.05, 0.6]),
        pD=np.array([0.0, 2e-7, 4e-7]),
    )
    for direction in ("forward", "reverse"):
        rates = akg_rate(RateInputs(**fields), direction)
        assert rates.shape == (3,)
        for i in range(3):
            scalar = akg_rate(RateInputs(**{k: float(v[i]) for k, v in fields.items()}), direction)
            assert type(scalar) is float
            assert rates[i] == scalar
    # the two functions inside it, on every kind of one-number input
    xs = [0.0, -0.0, 5e-324, 1e-300, 1e-9, 0.03, 0.25, 0.5 - 1e-9, 0.5, 0.75, 1.0]
    xs += [math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0)]
    xs += np.linspace(0.0, 1.0, 37).tolist()
    entropies = binary_entropy_bar(np.array(xs))
    pairs = [
        (0.0, 0.1), (-1e-9, 0.0), (1e-6, 5e-7), (1e-6, 2e-6), (1e-6, 3e-8), (1e-6, -1e-9),
        (4e-6, 1.5e-7), (0.3, 0.01), (1.0, 1.0), (5e-324, 1.0), (1e-300, 1e10), (1e10, 1e-300),
    ]
    credits = single_photon_credit(*(np.array(v) for v in zip(*pairs)))
    for kind, make in _INPUT_KINDS.items():
        for x, expected in zip(xs, entropies.tolist()):
            _assert_matches_element(binary_entropy_bar(make(x)), kind, expected)
        for (q1, b1), expected in zip(pairs, credits.tolist()):
            _assert_matches_element(single_photon_credit(make(q1), make(b1)), kind, expected)
    # an array without a zero skips the masks (no np.where) and one with a zero
    # keeps them; either way each element has the float path's bits
    positive_xs = [x for x in xs if x > 0.0]
    positive_pairs = [(q1, b1) for q1, b1 in pairs if q1 > 0.0 and b1 > 0.0]
    for values, masked in ((xs, True), (positive_xs, False)):
        result, used = _masks(binary_entropy_bar, np.array(values))
        assert used == masked
        assert [v.hex() for v in result.tolist()] == [binary_entropy_bar(x).hex() for x in values]
    for values, masked in ((pairs, True), (positive_pairs, False)):
        result, used = _masks(single_photon_credit, *(np.array(v) for v in zip(*values)))
        assert used == masked
        floats = [single_photon_credit(q1, b1).hex() for q1, b1 in values]
        assert [v.hex() for v in result.tolist()] == floats
    # lanes against a column of signals, as the engine broadcasts them
    q1s = np.array([q1 for q1, _ in positive_pairs])
    b1s = np.array([b1 for _, b1 in positive_pairs])
    result, used = _masks(single_photon_credit, q1s[:, None], b1s)
    assert not used
    floats = [[single_photon_credit(q1, b1).hex() for b1 in b1s.tolist()] for q1 in q1s.tolist()]
    assert [[v.hex() for v in row] for row in result.tolist()] == floats


def _masks(fn, *args):
    """(``fn(*args)``, whether it called ``np.where``)."""
    with mock.patch.object(np, "where", wraps=np.where) as where:
        return fn(*args), where.called


def test_clean_channel_reduction():
    # with p0 = pD = 0 both directions reduce to
    # (mu e^-mu alpha (1 - h(s)) - (1 - e^(-alpha mu)) h(s)) / 2
    params = ChannelParams(theta=0.1, a0=5.0, a1=0.17, p0=0.0, pD=0.0, s=0.03)
    alpha, mu = 1e-3, 0.6
    inputs = RateInputs(
        mu_signal=mu,
        q1=alpha,
        b1=params.s * alpha,
        q0=0.0,
        p_signal=float(counting_rate(mu, alpha, params)),
        s_signal=float(error_rate(mu, alpha, params)),
        pD=0.0,
    )
    h = binary_entropy_bar(params.s)
    expected = 0.5 * (
        mu * math.exp(-mu) * alpha * (1.0 - h) - (1.0 - math.exp(-alpha * mu)) * h
    )
    for direction in ("forward", "reverse"):
        assert akg_rate(inputs, direction) == pytest.approx(expected, rel=1e-12)


def test_weak_channel_factorization():
    # for small alpha the clean-channel rate factorizes as
    # alpha * mu (e^-mu - (1 + e^-mu) h(s)) / 2
    params = ChannelParams(theta=0.1, a0=5.0, a1=0.17, p0=0.0, pD=0.0, s=0.03)
    alpha, mu = 1e-8, 0.5
    inputs = RateInputs(
        mu_signal=mu,
        q1=alpha,
        b1=params.s * alpha,
        q0=0.0,
        p_signal=float(counting_rate(mu, alpha, params)),
        s_signal=float(error_rate(mu, alpha, params)),
        pD=0.0,
    )
    h = binary_entropy_bar(params.s)
    approx = alpha * mu * (math.exp(-mu) - (1.0 + math.exp(-mu)) * h) / 2.0
    assert akg_rate(inputs, "forward") == pytest.approx(approx, rel=1e-6)


def test_universal_upper_is_definitional_substitution():
    # every click is the channel's during estimation: pD enters only q0 and pD
    params = ChannelParams(theta=0.1, a0=5.0, a1=0.17, p0=4e-7, pD=1e-7, s=0.03)
    alpha, mu = 2e-5, 0.45
    for direction in ("forward", "reverse"):
        via_inputs = akg_rate(
            RateInputs(
                mu_signal=mu,
                q1=alpha + params.p0,
                b1=params.s * alpha + 0.5 * params.p0,
                q0=params.p0 - params.pD,
                p_signal=float(counting_rate(mu, alpha, params)),
                s_signal=float(error_rate(mu, alpha, params)),
                pD=params.pD,
            ),
            direction,
        )
        assert universal_upper(mu, alpha, params, direction) == pytest.approx(
            via_inputs, rel=1e-14
        )


def test_optimizer_finds_analytic_maximum():
    mu, value = optimize_signal_intensity(lambda m: m * math.exp(-m), mu_lower=0.05)
    assert mu == pytest.approx(1.0, abs=1e-4)
    assert value == pytest.approx(math.exp(-1.0), rel=1e-8)


def test_optimizer_scale_invariance_and_vector_path():
    def rate(m):
        return -((m - 0.7) ** 2)

    mu1, _ = optimize_signal_intensity(rate, 0.1)
    mu2, _ = optimize_signal_intensity(lambda m: 5.0 * rate(m), 0.1)
    assert mu1 == pytest.approx(mu2, abs=1e-6)
    mu3, _ = optimize_signal_intensity(rate, 0.1, vector_fn=lambda ms: -((ms - 0.7) ** 2))
    assert mu3 == pytest.approx(mu1, abs=1e-6)


def test_optimizer_returns_best_even_when_negative():
    mu, value = optimize_signal_intensity(lambda m: -1.0 - (m - 0.4) ** 2, 0.1)
    assert value < 0.0
    assert mu == pytest.approx(0.4, abs=1e-4)
    with pytest.raises(ValueError):
        optimize_signal_intensity(lambda m: m, mu_lower=-0.1)
    for mu_cap in (0.5, 0.4):  # an empty search range
        with pytest.raises(ValueError, match="mu_cap must exceed mu_lower"):
            optimize_signal_intensity(lambda m: m, mu_lower=0.5, mu_cap=mu_cap)


def _plateau(x, peak, cap):
    """-(x - peak)^2 capped at ``cap``: a float for a float, an array for an array."""
    rate = -(x - peak) * (x - peak)
    return np.minimum(rate, cap) if isinstance(rate, np.ndarray) else min(rate, cap)


_CAPS = st.sampled_from([math.inf, -0.0625]) | st.floats(-1.0, -1e-6)
_TOLS = st.sampled_from([1e-6, 1e-4, 0.05]) | st.floats(1e-9, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 2.0),
    st.sampled_from([0.0, 1e-6]) | st.floats(0.0, 2.0),
    _TOLS,
    st.floats(-1.0, 3.0),
    _CAPS,
    st.booleans(),
    st.booleans(),
)
@example(0.3, 0.01, 1e-6, 0.0, math.inf, True, False)  # stops at the edge
@example(0.3, 0.01, 1e-6, 0.3 + 4e-7, math.inf, True, False)  # peaks within tol of it
@example(0.3, 0.01, 1e-6, 0.5, -0.0625, True, True)  # a flat rate: the edge wins a tie
def test_brent_in_floats_is_its_one_lane_array(lo, width, tol, peak, cap, at_edge, singular):
    # two float bracket ends run the search in floats with the bits of a
    # one-element lane; the cap draws flat tops and, below the bracket's
    # rates, functions that are flat everywhere
    hi, edge = lo + width, lo if at_edge else lo - 0.5
    fn = lambda x: _plateau(x, peak, cap)  # noqa: E731
    mu, rate = _brent_max(fn, lo, hi, tol, edge, singular)
    lane_mu, lane_rate = _brent_max(fn, np.array([lo]), np.array([hi]), tol, edge, singular)
    assert type(mu) is float and type(rate) is float
    assert (mu.hex(), rate.hex()) == (float(lane_mu[0]).hex(), float(lane_rate[0]).hex())


@st.composite
def brent_lanes(draw):
    """A tolerance, an edge, whether it is singular, and up to six lanes (lo, hi, peak, cap).

    Some lanes start at the edge and some are already narrower than the tolerance.
    """
    tol = draw(_TOLS)
    lanes = []
    for _ in range(draw(st.integers(1, 6))):
        lo = draw(st.floats(0.0, 2.0))
        width = draw(st.sampled_from([0.0, 0.5 * tol, tol]) | st.floats(0.0, 2.0))
        lanes.append((lo, lo + width, draw(st.floats(-1.0, 3.0)), draw(_CAPS)))
    lows = [lo for lo, *_ in lanes]
    edge = draw(st.sampled_from(lows) | st.just(min(lows) - 0.5))
    for i in draw(st.sets(st.integers(0, len(lanes) - 1))):  # more lanes at the edge
        lanes[i] = (edge, *lanes[i][1:])
    return tol, edge, draw(st.booleans()), [(lo, max(lo, hi), *f) for lo, hi, *f in lanes]


@settings(max_examples=200, deadline=None)
@given(brent_lanes())
@example(
    (1e-6, 0.3, False, [(0.3, 0.3, 0.5, math.inf), (0.2, 1.7, 0.9, math.inf), (0.4, 0.41, 0.0, -1.0)])
)
@example(
    (1e-4, 0.1, False, [(0.1, 1.1, 0.6, math.inf), (0.5, 0.9, 0.7, -0.5), (0.1, 0.2, 0.0, math.inf)])
)
@example(
    (1e-6, 0.3, True, [(0.3, 0.31, 0.3, math.inf), (0.3, 0.31, 0.4, math.inf), (0.5, 0.6, 0.9, -1.0)])
)
def test_brent_lanes_are_one_lane_runs(case):
    # lanes stopped at the edge, lanes that start done, and lanes that finish
    # at different passes leave every other lane's search as it would run
    # alone: the masked steps keep each lane's bits
    tol, edge, singular, lanes = case
    lo, hi, peak, cap = (np.array(column) for column in zip(*lanes))
    # every lane evaluates inside its bracket or at the edge points, done or not
    low, high = np.minimum(lo, edge), np.maximum(hi, edge + tol)

    def rate_fn(x):
        assert ((low <= x) & (x <= high)).all()
        return _plateau(x, peak, cap)

    mu, rate = _brent_max(rate_fn, lo, hi, tol, edge, singular)
    for i, (lo_i, hi_i, peak_i, cap_i) in enumerate(lanes):
        one = _brent_max(lambda x: _plateau(x, peak_i, cap_i), lo_i, hi_i, tol, edge, singular)
        assert (mu[i].hex(), rate[i].hex()) == (one[0].hex(), one[1].hex()), i


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), _TOLS, st.floats(-1.0, 3.0), _CAPS)
@example(0.31, 0.02, 1e-6, 0.3, -0.0625)
def test_brent_takes_fminbound_steps(lo, width, tol, peak, cap):
    # off the edge, the search evaluates the points that SciPy's bounded
    # Brent evaluates minimizing -rate, in the same order, to the bit
    optimize = pytest.importorskip("scipy.optimize")
    hi = lo + width
    ours, scipys = [], []

    def rate(x):
        ours.append(float(x).hex())
        return _plateau(x, peak, cap)

    def loss(x):
        scipys.append(float(x).hex())
        return -_plateau(float(x), peak, cap)

    mu, best = _brent_max(rate, lo, hi, tol, lo - 1.0)
    options = {"xatol": tol}
    result = optimize.minimize_scalar(loss, bounds=(lo, hi), method="bounded", options=options)
    assert ours == scipys
    assert (mu, best) == (float(result.x), -float(result.fun))


def test_brent_flat_and_linear_rates_divide_by_no_zero():
    # a flat or straight rate puts three points on a line: the parabola's q is
    # zero, which rejects the fit before anything divides by it.  Lanes form
    # every lane's fit, so they divide only where one is accepted
    lo, hi = np.array([0.3, 0.3, 0.3, 0.5]), np.array([1.3, 1.3, 1.3, 0.6])
    slope = np.array([0.0, 1.0, -1.0, 0.5])
    with np.errstate(all="raise"):
        mu, rate = _brent_max(lambda x: slope * x, lo, hi, 1e-6, 0.2)
    for i in range(4):
        one = _brent_max(lambda x: float(slope[i]) * x, float(lo[i]), float(hi[i]), 1e-6, 0.2)
        assert (mu[i], rate[i]) == one
    assert hi[1] - 1e-6 < mu[1] < hi[1] and lo[2] < mu[2] < lo[2] + 1e-6


def test_brent_stops_at_a_lower_edge_that_is_not_lower():
    # a lane whose bracket starts at the edge is done in its first call when
    # the edge is not below the point one tolerance inside; a lane that rises
    # from the edge runs its search, and the lanes of a singular edge keep the
    # first float above it where that is better than their search
    calls = []

    def falling(x):
        calls.append(np.shape(x))
        return -x

    assert _brent_max(falling, np.array([0.3]), np.array([0.32]), 1e-6, 0.3) == (0.3, -0.3)
    assert calls == [(3, 1)]
    calls.clear()
    assert _brent_max(falling, 0.3, 0.32, 1e-6, 0.3) == (0.3, -0.3)
    assert calls == [(), ()]
    mu, _ = _brent_max(lambda x: -((x - 0.31) ** 2), 0.3, 0.32, 1e-6, 0.3)
    assert abs(mu - 0.31) < 1e-6
    # a spike at the singular edge beside an inner peak at 0.317, higher or lower

    def two_modes(spike):
        return lambda x: np.maximum(spike - 1e6 * (x - 0.3), -((x - 0.317) ** 2))

    lo, hi = np.array([0.3, 0.31]), np.array([0.32, 0.33])
    mu, _ = _brent_max(two_modes(1.0), lo, hi, 1e-6, 0.3, singular=True)
    assert mu.tolist() == [math.nextafter(0.3, 1.0)] * 2
    mu, _ = _brent_max(two_modes(-1.0), lo, hi, 1e-6, 0.3, singular=True)
    assert all(abs(m - 0.317) < 1e-6 for m in mu.tolist())


@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize(
    "lower, peaks, expected",
    [
        # grid maxima at the first point (a rate falling from the edge), the
        # last (one rising to the cap), inside, and at the first again
        (0.3, [0.1, 2.5, 0.777, 0.305], [0.3, 2.0, 0.777, 0.305]),
        # the one-point grid [1.9995]: every bracket is [lower, cap]
        (1.999, [1.0, 2.5, 1.9995], [1.999, 2.0, 1.9995]),
    ],
)
def test_refined_brackets_each_grid_maximum_by_its_neighbours(lower, peaks, expected, singular):
    # a grid point's bracket runs between its neighbours, the first point's
    # from the range's lower end, whose edge check then runs, and the last
    # point's to its cap; every lane has the bits of its one-float run
    tol, cap = 1e-6, 2.0
    grid = _coarse_grid(lower, cap)
    peak = np.array(peaks)
    index, value = _first_max(_plateau(grid, peak[:, None], math.inf))
    assert index.tolist() == ([0, 169, 47, 0] if grid.size > 1 else [0, 0, 0])
    ends = np.concatenate(([lower], grid, [cap]))
    low, high = ends[index], ends[index + 2]
    edge_points = (lower, lower + tol, math.nextafter(lower, math.inf))

    def rate_fn(x):
        # inside each lane's bracket, or at the edge points that every lane evaluates
        assert (((low <= x) & (x <= high)) | np.isin(x, edge_points)).all()
        return _plateau(x, peak, math.inf)

    mu, rate = _refined(rate_fn, grid, (index, value), lower, cap, tol, singular)
    for i, peak_i in enumerate(peaks):
        fn = lambda x: _plateau(x, peak_i, math.inf)  # noqa: E731
        one = _refined(fn, grid, (index[i], value[i]), lower, cap, tol, singular)
        assert (mu[i].hex(), rate[i].hex()) == (float(one[0]).hex(), float(one[1]).hex()), i
    edge = math.nextafter(lower, math.inf) if singular else lower
    assert mu[0] == edge  # a falling rate stops at the lower end
    assert abs(mu - np.array(expected))[1:].max() < tol


def _scan(envelope, lengths):
    return find_zero_distance(envelope, lengths, [envelope(L) for L in lengths])


_TIED = [0.5, -0.0, 0.0, -np.inf, 0.5, 0.25]


@pytest.mark.parametrize(
    "values",
    [
        np.array(_TIED),
        np.array([-0.0, 0.0, -0.0]),  # a tie of the two zeros: the first, with its sign
        np.array([-np.inf, -np.inf]),
        np.array([_TIED, _TIED[::-1], [-0.0, 0.0, -np.inf, -np.inf, 0.0, -0.0]]),
        np.array([[_TIED, _TIED[::-1]], [[0.0, -0.0] * 3, [-np.inf] * 6], [[-0.0] * 6] * 2]),
        np.array(_TIED)[::-1],  # a strided view
        np.asfortranarray([_TIED, _TIED[::-1]]),
    ],
)
def test_first_max_is_argmax_with_its_elements_bits(values):
    index, value = _first_max(values)
    expected = np.argmax(values, axis=-1)
    assert np.shape(index) == np.shape(value) == expected.shape
    assert np.array_equal(index, expected)
    for lane in np.ndindex(expected.shape):
        element = values[lane][expected[lane]]
        assert np.asarray(value)[lane].tobytes() == element.tobytes()


def test_zero_distance_bisection():
    assert _scan(lambda L: 100.0 - L, np.arange(0.0, 241.0).tolist()) == pytest.approx(
        100.0, abs=0.01
    )
    assert _scan(lambda L: -1.0, np.arange(0.0, 51.0).tolist()) == 0.0
    assert _scan(lambda L: 1.0, np.arange(0.0, 51.0).tolist()) is None


def test_zero_distance_bisection_ends_where_floats_run_out():
    # near 3.8e16 km adjacent floats lie 8 km apart, wider than DISTANCE_TOL_KM:
    # the bisection must stop once no float is left strictly inside its bracket
    crossing = 3.829057519841232e16
    calls = []

    def step(length):
        calls.append(length)
        if len(calls) > 200:
            raise AssertionError("the bisection does not end")
        return 1.0 if length <= crossing else -1.0

    result = _scan(step, [3.8e16, 3.9e16])
    assert abs(result - crossing) <= 2 * math.ulp(crossing)
    assert len(calls) < 60


@st.composite
def distance_scans(draw, max_points=12):
    """Increasing scan lengths with envelope values of any sign, zeros included."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    lengths = [draw(st.floats(min_value=0.0, max_value=200.0))]
    gaps = st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=n - 1, max_size=n - 1)
    for gap in draw(gaps):
        lengths.append(lengths[-1] + gap)
    values = st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=1.0))
    return lengths, draw(st.lists(values, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(distance_scans(), st.floats(min_value=0.1, max_value=10.0))
def test_zero_distance_decides_from_the_scan(scan, frequency):
    lengths, values = scan
    calls = []

    def envelope(length):
        calls.append(length)
        return math.sin(frequency * length)

    result = find_zero_distance(envelope, lengths, values)
    positive = [i for i, v in enumerate(values) if v > 0.0]
    assert (result == 0.0) == (not positive)
    assert (result is None) == (values[-1] > 0.0)
    if result:
        lo, hi = lengths[positive[-1]], lengths[positive[-1] + 1]
        assert lo < result < hi
        # only bisection points strictly inside the bracket, never a scan length
        assert all(lo < length < hi for length in calls)
    else:
        assert calls == []


def test_derivative_check_report():
    # the optimum stays at or below mu = 1 for any dark rate, which the
    # reverse pd-equals-p0 universal sweep relies on
    alphas = [alpha_of_distance(L, STANDARD_FIBER) for L in (0.0, 60.0, 120.0, 200.0, 250.0)]
    for pd in (0.0, 1e-7, STANDARD_FIBER.p0):
        report = optimal_mu_derivative_check(replace(STANDARD_FIBER, pD=pd), alphas)
        assert report.all_nonpositive, pd
        assert len(report.rows) == len(alphas)
        text = report.to_text()
        assert "OK" in text and len(text.splitlines()) == len(alphas) + 2
    # a tolerance no derivative can meet reports the violation
    report = optimal_mu_derivative_check(STANDARD_FIBER, alphas, tolerance=-1.0)
    assert not report.all_nonpositive
    assert report.to_text().endswith("all non-positive within -1: VIOLATION")


def test_universal_rate_decreases_past_one():
    # sampled monotone tail on [1, 2] for a few channel strengths
    params = STANDARD_FIBER
    for L in (0.0, 100.0, 200.0):
        alpha = alpha_of_distance(L, params)
        mus = np.linspace(1.0, 2.0, 11)
        for direction in ("forward", "reverse"):
            values = [universal_upper(float(m), alpha, params, direction) for m in mus]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
