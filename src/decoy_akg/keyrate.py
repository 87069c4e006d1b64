"""Asymptotic key-generation rates, intensity optimization, root finding.

Per transmitted pulse, with signal intensity mu, single-photon yield bound
q1, error-product bound b1, vacuum yield q0 (dark counts excluded) and the
signal pulse's own counting/error rates p_mu, s_mu:

    forward:  (1/2) [ mu e^-mu q1 (1 - hbar(b1/q1)) + e^-mu (q0 + pD)
                      - p_mu eta(s_mu) ]
    reverse:  (1/2) [ mu e^-mu q1 (1 - hbar(b1/q1)) + pD - p_mu eta(s_mu) ]

where hbar is the binary entropy saturated at 1 above 1/2 and eta is the
error-correction penalty (Shannon-limit codes: eta = hbar).  The two
directions differ only in how vacuum and dark events are credited:
reverse - forward = (pD - e^-mu (q0 + pD)) / 2.

The universal upper bound substitutes the perfectly estimated channel
parameters q1 = alpha + p0, b1 = s alpha + p0/2, clamped to [0, 1]: every
click is the channel's during estimation (the scenarios module's convention).
Its optimal signal intensity never exceeds 1 (the derivative at mu = 1 is
non-positive for any admissible parameter set).  The intensity searches stop
at DEFAULT_MU_CAP = 2.0, above that proven optimum; the decoy estimators have
no such proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bounds import _clamp, _pick
from .channel import ChannelParams, _model_rates, _transmitted

DEFAULT_MU_CAP = 2.0
DEFAULT_COARSE_STEP = 0.01
DEFAULT_MU_TOL = 1e-6
DISTANCE_TOL_KM = 0.01
# SciPy fminbound's constants: the golden section's smaller part, its sqrt(eps)
# and its default cap on evaluations
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_MAX_EVALS = 500
# margin of the box bound, relative to its terms.  A rate's terms are of the
# order of the signal's counting rate p(mu), and rounding in them is about
# 1e-16 p; a float order bound lies within 4.3e-13 relative of its exact
# value up to k = 10 (against 60-digit mpmath).  1e-9 covers both.
_ENVELOPE_RTOL = 1e-9

Direction = str  # one of DIRECTIONS
DIRECTIONS = ("forward", "reverse")


def _check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")


def _entropy(p):
    """h(p) = -p log2 p - (1 - p) log2(1 - p) for p in (0, 1/2], a float or an array."""
    q = 1.0 - p
    return -p * np.log2(p) - q * np.log2(q)


def binary_entropy_bar(x):
    """Binary entropy saturated at its maximum: h(x) for x <= 1/2, else 1.

    Accepts scalars or arrays in [0, 1]; continuous at 1/2.  Values outside
    [0, 1] and NaN are rejected (the caller must clamp an error ratio above
    1, as the bound formulas may overshoot on noisy input).  A float (numpy's
    too) takes a float path with the array path's ufuncs, so the same bits.
    """
    if isinstance(x, float):
        if not 0.0 <= x <= 1.0:
            raise ValueError("binary_entropy_bar requires finite arguments in [0, 1]")
        # h(1/2) = 1 exactly, which is also the saturated value above 1/2
        return float(_entropy(min(x, 0.5))) if x > 0.0 else 0.0
    arr = np.asarray(x, dtype=float)
    low = arr.min() if arr.size else 1.0  # an empty array has nothing to check or mask
    # NaN fails both comparisons
    if arr.size and not (low >= 0.0 and arr.max() <= 1.0):
        raise ValueError("binary_entropy_bar requires finite arguments in [0, 1]")
    if low > 0.0:  # no zero to mask: np.where(True, x, y) is x
        result = _entropy(np.minimum(arr, 0.5))
    else:
        positive = arr > 0.0
        result = np.where(positive, _entropy(np.where(positive, np.minimum(arr, 0.5), 0.5)), 0.0)
    return float(result) if np.ndim(x) == 0 else result


def _credit(q, b):
    """q (1 - hbar(b/q)) for q > 0 and 0 <= b <= q, a float or an array."""
    return q * (1.0 - binary_entropy_bar(b / q))


def single_photon_credit(q1, b1):
    """q1 (1 - hbar(b1/q1)) with the conservative conventions.

    A non-positive yield bound contributes nothing; an error ratio at or
    above 1/2 saturates the entropy and likewise zeroes the term; b1 is
    capped at q1 before dividing, so b1/q1 cannot overflow.  Array-friendly,
    with a float path for two floats; non-finite input raises ValueError.
    """
    if isinstance(q1, float) and isinstance(b1, float):
        if not (math.isfinite(q1) and math.isfinite(b1)):
            raise ValueError("single_photon_credit requires finite q1 and b1")
        safe_q = q1 if q1 > 0.0 else 1.0
        credit = _credit(safe_q, _clamp(b1, safe_q))
        return float(credit) if q1 > 0.0 else 0.0
    q = np.asarray(q1, dtype=float)
    b = np.asarray(b1, dtype=float)
    if not (np.isfinite(q).all() and np.isfinite(b).all()):
        raise ValueError("single_photon_credit requires finite q1 and b1")
    if q.size and q.min() > 0.0:  # no yield to mask: np.where(True, x, y) is x
        credit = _credit(q, _clamp(b, q))
    else:
        positive = q > 0.0
        safe_q = np.where(positive, q, 1.0)
        credit = np.where(positive, _credit(safe_q, _clamp(b, safe_q)), 0.0)
    return float(credit) if np.ndim(q1) == 0 and np.ndim(b1) == 0 else credit


@dataclass(frozen=True)
class RateInputs:
    """Everything the per-pulse rate formulas consume.

    q0 is the vacuum counting rate with dark counts excluded (estimated as
    p0 - pD); p_signal/s_signal are the signal pulse's own rates.  Any field
    may be a numpy array, e.g. one entry per trial signal intensity.
    """

    mu_signal: float
    q1: float
    b1: float
    q0: float
    p_signal: float
    s_signal: float
    pD: float = 0.0


def akg_rate(inputs: RateInputs, direction: Direction = "forward"):
    """Signed key rate (bits per pulse); negative values mean no key.

    Error correction is charged at the Shannon limit, eta = hbar.  The
    fields of ``inputs`` may be numpy arrays that broadcast together; the
    rate is a float for scalar inputs and an array otherwise.
    """
    return _rate(
        inputs.mu_signal,
        inputs.q1,
        inputs.b1,
        inputs.q0,
        inputs.p_signal,
        inputs.s_signal,
        inputs.pD,
        direction,
    )


def _rate(mu, q1, b1, q0, p_signal, s_signal, p_dark, direction: Direction):
    """The key-rate formula of :func:`akg_rate` on its unpacked inputs."""
    _check_direction(direction)
    decay = np.exp(-mu)
    credit = single_photon_credit(q1, b1)
    penalty = p_signal * binary_entropy_bar(s_signal)
    vacuum_term = decay * (q0 + p_dark) if direction == "forward" else p_dark
    rate = 0.5 * (mu * decay * credit + vacuum_term - penalty)
    return float(rate) if np.ndim(rate) == 0 else rate


def _model_rate(mu, q1, b1, p_signal, s_signal, params: ChannelParams, direction: Direction):
    """:func:`_rate` of bounds q1, b1 clamped to [0, 1] and the signal's own p(mu), s(mu).

    The vacuum yield is q0 = p0 - pD and the dark rate pD, both of ``params``.
    """
    q0, p_dark = params.p0 - params.pD, params.pD
    return _rate(mu, _clamp(q1, 1.0), _clamp(b1, 1.0), q0, p_signal, s_signal, p_dark, direction)


def _universal_bounds(alpha, params: ChannelParams):
    """(q1, b1) = (alpha + p0, s alpha + p0/2): the channel's own, every click the channel's."""
    return alpha + params.p0, params.s * alpha + 0.5 * params.p0


def _universal_box_bound(alpha, q1, lows, highs, params: ChannelParams, direction: Direction):
    """A ceiling on a rate for mu in [lows, highs] whose q1 is at most ``q1`` (broadcast).

    0.5 [max(mu e^-mu) C + V(low) - p(low) hbar(s(high))] plus ``_ENVELOPE_RTOL``
    of the terms, with C the clamped credit of ``q1`` and the universal b1,
    which every sound b1 is above; V, the vacuum term, falls with mu, p(mu)
    rises and s(mu) falls toward s <= 1/2.
    """
    b1 = _universal_bounds(alpha, params)[1]
    credit = single_photon_credit(_clamp(q1, 1.0), _clamp(b1, 1.0))
    # mu e^-mu rises to its peak 1/e at mu = 1 and falls after it
    peak = np.where(highs < 1.0, highs, np.maximum(lows, 1.0))
    p_low = _model_rates(_transmitted(alpha, lows), params)[0]
    s_high = _model_rates(_transmitted(alpha, highs), params)[1]
    # the vacuum term as _model_rate builds it: e^-mu ((p0 - pD) + pD) forward, pD reverse
    forward = direction == "forward"
    vacuum = np.exp(-lows) * ((params.p0 - params.pD) + params.pD) if forward else params.pD
    gain = peak * np.exp(-peak) * credit + vacuum
    penalty = p_low * binary_entropy_bar(s_high)
    return 0.5 * ((1.0 + _ENVELOPE_RTOL) * gain - (1.0 - _ENVELOPE_RTOL) * penalty)


def universal_upper(
    mu: float, alpha: float, params: ChannelParams, direction: Direction = "forward"
) -> float:
    """Key rate with perfectly known channel parameters (no decoy slack).

    :func:`_model_rate` of :func:`_universal_bounds` and the model p(mu),
    s(mu); the universal scenario's engine rate, bit for bit.
    """
    q1, b1 = _universal_bounds(alpha, params)
    p_signal, s_signal = _model_rates(_transmitted(alpha, np.asarray(mu, dtype=float)), params)
    return _model_rate(mu, q1, b1, float(p_signal), float(s_signal), params, direction)


def _brent_steps(fn: Callable, a, b, xf, fx, tol: float, active):
    """SciPy ``fminbound``'s steps on the brackets [a, b] from the evaluated point xf, maximizing.

    Brent's bounded search (*Algorithms for Minimization without
    Derivatives*, 1973, ch. 5): a step to the vertex of the parabola through
    the three best points when it is less than half the step before last
    and stays inside the bracket, a golden-section step into the larger part
    otherwise, and each step at least tol1 = sqrt(2.2e-16) |xf| + tol / 3
    long.  It ends once both bracket ends lie within 2 tol1 of xf.  The
    comparisons are ``fminbound``'s on -fn, so the steps are its steps.

    Floats run in floats; arrays run as lanes, each with its own mask, so a
    lane that is done keeps its state (and evaluates its best point) while
    the others go on, and every lane takes the steps of its one-lane run.
    Lanes not in ``active`` are done from the start.  Returns (xf, fx).
    """
    lanes = isinstance(a, np.ndarray)
    pair = np.stack if lanes else tuple
    # (point, rate) of the best, second best and previous second best, SciPy's
    # (xf, fx), (nfc, fnfc) and (fulc, ffulc); lanes stack each as (2, lanes)
    best = second = third = pair((xf, fx))
    e = rat = 0.0  # the steps before last and last
    for _ in range(_MAX_EVALS - 1):
        (xf, fx), (nfc, fnfc), (fulc, ffulc) = best, second, third
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + tol / 3.0
        tol2 = 2.0 * tol1
        to_mid = xm - xf
        active = active & (abs(to_mid) > tol2 - 0.5 * (b - a))
        if not (active.any() if lanes else active):
            break
        # the parabola through the three points: its step is p / q
        to_nfc, to_fulc, to_a, to_b = xf - nfc, xf - fulc, a - xf, b - xf
        r = to_nfc * (fx - ffulc)
        q = to_fulc * (fx - fnfc)
        p = to_fulc * q - to_nfc * r
        q = 2.0 * (q - r)
        p = _pick(q > 0.0, -p, p)
        q = abs(q)
        e_size = abs(e)
        # a fit has q > 0, so only a fit divides by q
        fits = (e_size > tol1) & (abs(p) < 0.5 * q * e_size) & (p > q * to_a) & (p < q * to_b)
        step = (p + 0.0) / _pick(fits, q, 1.0)
        x = xf + step
        near = (x - a < tol2) | (b - x < tol2)  # then tol1 toward the midpoint
        step = _pick(near, _pick(to_mid >= 0.0, tol1, -tol1), step)
        golden = _pick(to_mid <= 0.0, to_a, to_b)
        e, rat = _pick(fits, rat, golden), _pick(fits, step, _GOLDEN_MEAN * golden)
        # abs(rat) and tol1 are never -0.0 or NaN, so their maximum is the pick of the larger
        size = np.maximum(abs(rat), tol1) if lanes else max(abs(rat), tol1)
        x = xf + _pick(rat >= 0.0, size, -size)
        if lanes:  # a lane that is done evaluates its best point, inside its bracket
            x = np.where(active, x, xf)
        fu = fn(x)
        up = active & (fu >= fx)
        down = active ^ up
        # the worse of x and xf becomes the bracket's end on its side; a lane
        # that is done evaluated xf, so neither end moves
        right = x >= xf
        end = _pick(up, xf, x)
        a, b = _pick(up == right, end, a), _pick(down == right, end, b)
        to_second = down & ((fu >= fnfc) | (nfc == xf))
        to_third = (down ^ to_second) & ((fu >= ffulc) | (fulc == xf) | (fulc == nfc))
        new = pair((x, fu))
        best, second, third = (
            _pick(up, new, best),
            _pick(up, best, _pick(to_second, new, second)),
            _pick(up | to_second, second, _pick(to_third, new, third)),
        )
    xf, fx = best
    return xf, fx


def _brent_max(fn: Callable, lo, hi, tol: float, edge: float, singular: bool = False):
    """Maxima of ``fn`` on every bracket [lo, hi] at once: an edge check, then Brent's steps.

    ``edge`` is the search's lower end.  A lane whose bracket starts there
    first evaluates ``edge`` and ``edge + tol``.  If the edge is not lower,
    a unimodal rate peaks within ``tol`` of it, and the lane is done there.
    With ``singular`` the rate is undefined at ``edge`` and may have a
    second mode beside it: every lane evaluates the first float above
    ``edge``, runs its search, and keeps the better of the two.

    ``lo`` and ``hi`` are arrays of brackets, one per lane, or two floats
    for one lane, which then runs in floats and calls ``fn`` with one float
    at a time.  Lanes evaluate Brent's first point and the edge points in
    one call, on a stack of shape (2 or 3, lanes), since rates are
    elementwise.
    """
    x0 = lo + _GOLDEN_MEAN * (hi - lo)
    point = math.nextafter(edge, math.inf) if singular else edge
    if isinstance(lo, np.ndarray):
        trials = (point,) if singular else (point, point + tol)
        rates = fn(np.stack((x0, *(np.full_like(x0, t) for t in trials))))
        f_edge = rates[1]
        done = np.zeros_like(lo, dtype=bool) if singular else (lo == edge) & (f_edge >= rates[2])
        mu, rate = _brent_steps(fn, lo, hi, x0, rates[0], tol, ~done)
    else:
        checked = singular or lo == edge
        f_edge = fn(point) if checked else -math.inf
        done = not singular and checked and f_edge >= fn(point + tol)
        if done:
            return point, f_edge
        mu, rate = _brent_steps(fn, lo, hi, x0, fn(x0), tol, True)
    use_edge = f_edge >= rate if singular else done
    return _pick(use_edge, point, mu), _pick(use_edge, f_edge, rate)


def _coarse_grid(mu_lower: float, mu_cap: float) -> np.ndarray:
    """The coarse scan of (mu_lower, mu_cap], one coarse step apart; its midpoint if none fits."""
    step = DEFAULT_COARSE_STEP
    grid = np.arange(mu_lower + step, mu_cap + 0.5 * step, step)
    return grid if grid.size else np.array([0.5 * (mu_lower + mu_cap)])


def _first_max(values):
    """(index, value) of the first maximum along the last axis of ``values``: ``np.argmax``'s.

    The value is read by index, so it has that element's bits.
    """
    values = np.asarray(values)
    best = np.argmax(values, axis=-1)
    rows = values.reshape(-1, values.shape[-1])
    return best, rows[np.arange(rows.shape[0]), best.ravel()].reshape(best.shape)


def _refined(
    rate_fn: Callable,
    grid: np.ndarray,
    grid_max,
    mu_lower: float,
    mu_cap: float,
    tol: float,
    singular_lower: bool,
):
    """Each lane's optimum from its first maximum (index, rate) on ``grid``, shape ``lanes``.

    A grid point's bracket runs between its neighbours; the first point's
    starts at ``mu_lower``, so :func:`_brent_max` checks that edge, and the
    last point's ends at ``mu_cap``.  Brent's search runs on every bracket
    at once, in floats for one lane (``lanes`` = ()), and a lane keeps its
    grid point where the bracket's interior is lower (flat regions).
    """
    best, best_rate = grid_max
    ends = np.concatenate(([mu_lower], grid, [mu_cap]))  # grid[i]'s bracket: ends[i], ends[i + 2]
    lo, hi = ends[best], ends[best + 2]
    if np.ndim(best) == 0:  # one lane: the search runs in floats
        lo, hi = float(lo), float(hi)
    mu_opt, rate_opt = _brent_max(rate_fn, lo, hi, tol, mu_lower, singular_lower)
    flat = best_rate > rate_opt
    return _pick(flat, grid[best], mu_opt), _pick(flat, best_rate, rate_opt)


def optimize_signal_intensity(
    rate_fn: Callable[[float], float],
    mu_lower: float,
    mu_cap: float = DEFAULT_MU_CAP,
    tol: float = DEFAULT_MU_TOL,
    vector_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    *,
    singular_lower: bool = False,
) -> tuple[float, float]:
    """Maximize a rate over signal intensities in [mu_lower, mu_cap].

    A coarse grid scan (step ``DEFAULT_COARSE_STEP``) finds the first
    maximum, and :func:`_refined` searches its bracket; ``vector_fn``, when
    given, evaluates the whole grid in one call.  If the maximum is the
    first grid point, the search first evaluates ``mu_lower`` and
    ``mu_lower + tol`` and is done at ``mu_lower`` if that is not lower.
    Otherwise Brent's bounded search (SciPy's ``fminbound`` steps, to
    ``tol``) refines the bracket, calling ``rate_fn`` with one float at a
    time.  The search assumes a rate with one mode.

    ``singular_lower`` is for a rate that is undefined at ``mu_lower`` and
    may have a second mode beside it (Ma's ratio estimator at mu1 + mu2):
    the range is then open at ``mu_lower``, the search evaluates the first
    float above it as well, and keeps the better.

    The best point is returned even when the rate is negative everywhere,
    which distance root finding relies on.
    """
    if mu_lower <= 0.0:
        raise ValueError("mu_lower must be positive")
    if mu_cap <= mu_lower:
        raise ValueError("mu_cap must exceed mu_lower")
    if vector_fn is None:
        vector_fn = lambda grid: np.array([rate_fn(m) for m in grid])  # noqa: E731
    grid = _coarse_grid(mu_lower, mu_cap)
    grid_max = _first_max(vector_fn(grid))
    mu_opt, rate_opt = _refined(rate_fn, grid, grid_max, mu_lower, mu_cap, tol, singular_lower)
    return float(mu_opt), float(rate_opt)


def _midpoint(lo: float, hi: float) -> Optional[float]:
    """The bisection's next distance in the bracket [lo, hi], or None where it stops.

    It stops once the bracket is no wider than ``DISTANCE_TOL_KM`` or holds
    no float strictly inside (far out, floats are over 0.01 apart).
    """
    if not hi - lo > DISTANCE_TOL_KM:
        return None
    mid = 0.5 * (lo + hi)
    return mid if lo < mid < hi else None


def _bisection_midpoints(lo: float, hi: float, levels: int) -> list[float]:
    """Every distance that the first ``levels`` steps of bisecting [lo, hi] may evaluate.

    Level n holds up to 2^(n-1) midpoints, formed with :func:`find_zero_distance`'s
    float operations and stop rules, so its steps evaluate only these,
    whatever signs they read.
    """
    brackets, midpoints = [(float(lo), float(hi))], []
    for _ in range(levels):
        halves = []
        for low, high in brackets:
            mid = _midpoint(low, high)
            if mid is not None:
                midpoints.append(mid)
                halves += [(low, mid), (mid, high)]
        brackets = halves
    return midpoints


def find_zero_distance(
    envelope: Callable[[float], float],
    lengths: Sequence[float],
    values: Sequence[float],
) -> Optional[float]:
    """Largest distance with a positive envelope value, to ``DISTANCE_TOL_KM``.

    ``values`` are the envelope at the increasing ``lengths`` of a finished
    scan.  Returns 0.0 when no value is positive and None when the last one
    is (beyond range: the caller should widen the scan); otherwise bisects
    the last positive-to-nonpositive bracket, calling ``envelope`` only
    strictly inside it, until the bracket is narrower than the tolerance or
    holds no float between its ends.
    """
    positive = [i for i, v in enumerate(values) if v > 0.0]
    if not positive:
        return 0.0
    last_pos = positive[-1]
    if last_pos == len(values) - 1:
        return None
    lo, hi = float(lengths[last_pos]), float(lengths[last_pos + 1])
    while (mid := _midpoint(lo, hi)) is not None:
        if envelope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
