import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    optimal_mu_derivative_check,
    optimize_signal_intensity,
    single_photon_credit,
    universal_upper,
)
from decoy_akg.keyrate import _golden_section_max


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
        for bad in (math.nan, math.inf, -math.inf, -0.01, 1.01):
            with pytest.raises(ValueError, match=r"in \[0, 1\]"):
                binary_entropy_bar(make(bad))
    with pytest.raises(ValueError):
        binary_entropy_bar(np.array([0.1, math.nan]))
    assert math.copysign(1.0, binary_entropy_bar(-0.0)) == 1.0  # -0.0 in, +0.0 out


def test_single_photon_credit_rejects_non_finite_input():
    bad = ((math.nan, 0.01), (math.inf, 0.01), (-math.inf, 0.01), (1e-6, math.nan), (1e-6, math.inf))
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
    params = ChannelParams(theta=0.1, a0=5.0, a1=0.17, p0=4e-7, pD=1e-7, s=0.03)
    alpha, mu = 2e-5, 0.45
    for direction in ("forward", "reverse"):
        via_inputs = akg_rate(
            RateInputs(
                mu_signal=mu,
                q1=alpha + params.p0 - params.pD,
                b1=params.s * alpha + 0.5 * (params.p0 - params.pD),
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


def test_universal_upper_estimation_dark_rate_knob():
    params = ChannelParams(theta=0.1, a0=5.0, a1=0.17, p0=4e-7, pD=4e-7, s=0.03)
    alpha = 3.4e-6
    literal = universal_upper(0.4, alpha, params, "reverse")
    inclusive = universal_upper(0.4, alpha, params, "reverse", estimation_dark_rate=0.0)
    # attributing every click to the channel raises the estimated yield
    assert inclusive != pytest.approx(literal, rel=1e-6)


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


def _plateau(x, peak, cap):
    """-(x - peak)^2 capped at ``cap``: a float for a float, an array for an array."""
    rate = -(x - peak) * (x - peak)
    return np.minimum(rate, cap) if isinstance(rate, np.ndarray) else min(rate, cap)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
    st.sampled_from([1e-6, 1e-4, 0.05]) | st.floats(1e-9, 1.0),
    st.floats(-1.0, 3.0),
    st.sampled_from([math.inf, -0.0625]) | st.floats(-1.0, -1e-6),
)
def test_golden_section_in_floats_is_its_one_lane_array(lo, width, tol, peak, cap):
    # two float bracket ends run the search in floats with the bits of a
    # one-element lane; the cap draws flat tops and, below the bracket's
    # rates, functions that are flat everywhere
    hi = lo + width
    fn = lambda x: _plateau(x, peak, cap)  # noqa: E731
    mu, rate = _golden_section_max(fn, lo, hi, tol)
    lane_mu, lane_rate = _golden_section_max(fn, np.array([lo]), np.array([hi]), tol)
    assert type(mu) is float and type(rate) is float
    assert (mu.hex(), rate.hex()) == (float(lane_mu[0]).hex(), float(lane_rate[0]).hex())


def _scan(envelope, lengths):
    return find_zero_distance(envelope, lengths, [envelope(L) for L in lengths])


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
    params = STANDARD_FIBER
    alphas = [alpha_of_distance(L, params) for L in (0.0, 60.0, 120.0, 200.0, 250.0)]
    report = optimal_mu_derivative_check(params, alphas)
    assert report.all_nonpositive
    assert len(report.rows) == len(alphas)
    text = report.to_text()
    assert "OK" in text and len(text.splitlines()) == len(alphas) + 2


def test_universal_rate_decreases_past_one():
    # sampled monotone tail on [1, 2] for a few channel strengths
    params = STANDARD_FIBER
    for L in (0.0, 100.0, 200.0):
        alpha = alpha_of_distance(L, params)
        mus = np.linspace(1.0, 2.0, 11)
        for direction in ("forward", "reverse"):
            values = [universal_upper(float(m), alpha, params, direction) for m in mus]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
