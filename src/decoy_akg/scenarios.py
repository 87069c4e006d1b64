"""Named estimation scenarios and distance sweeps.

Each scenario fixes a set of decoy intensities, an estimator for the
single-photon bounds, and an error-correction direction, then maximizes the
key rate over the signal intensity at every distance:

* ``k2``        -- one decoy (0.1); order-2 bounds on (0.1, mu_signal).
* ``k3-ma``     -- decoys (0.1, 0.2); three-intensity ratio estimator for
                   q^1 with the order-1 error bound.
* ``k3-wang``   -- decoys (0.1, 0.2); order-2 yield and order-1 error
                   bounds, signal intensity excluded from estimation.
* ``k3-ours``   -- decoys (0.1, 0.2); full aggregation over orders 1..3
                   with the signal as third intensity.
* ``k4``        -- decoys (0.1, 0.2, 0.3); aggregation over orders 1..4.
* ``universal`` -- perfectly known channel parameters (no decoy slack).
* ``custom``    -- user-supplied decoys, aggregated like k3-ours/k4.

Estimation convention: the bound formulas are evaluated with a zero dark
rate, i.e. every click (including dark counts) is attributed to the channel
during parameter estimation.  The configured dark rate enters only the
additive vacuum/dark credit of the rate formula (and is what separates the
forward and reverse directions).  The forward rate reads it only through
e^(-mu) (q0 + pD) with q0 = p0 - pD, which is e^(-mu) p0 bit for bit at
pD = 0 and at pD = p0, so those two dark modes give one forward sweep; the
reverse rate reads pD itself.  The reference comparison tables are
defined under this convention; propagating the dark rate into the
estimators instead would shift the reverse achievable distances by several
kilometres.

A sound estimate cannot beat perfect knowledge of the channel, so a sweep
skips coarse-grid points under that envelope: ``keyrate._universal_box_bound``
bounds the rate over a box of grid signals from its ends, with a margin of
1e-9 of its terms, far above rounding.  A skipped point lies strictly below
its lane's best.  Each lane keeps only its first maximum's index and rate,
which a later box replaces where its own is strictly greater, so every row
and output byte is the full grid's.

A trial order's bound counts only where it beats the decoy prefixes', and
its Omega enters only the saturated side (q for an odd order, b for an
even one).  So the engine sums the trial Omega series only where that side,
formed with the series' first term, a float floor of its sum, could still
win; elsewhere the exact bound loses as well, and every byte stands.

The achievable distance bisects the scan's last sign change, and a sweep
answers its first ``_BISECTION_LANE_LEVELS`` levels itself.  After the
grid's band (its signals up to ``_FIRST_BAND_MU``) it predicts the bracket:
the last row with a positive best band rate has a positive optimum.  The
midpoints that bisecting that bracket can reach join the scan as extra
lanes, with their own band; one pass of pruned boxes and one intensity
search then serve all lanes.  Each lane has the bits of a one-distance
optimization, ``settled_rate`` has the optimum's sign, and the bisection
reads only signs, so no byte moves.  A step at any other distance (a wrong
prediction, a deeper level, a scan of several blocks) calls
``settled_rate`` as before.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .bounds import _best, _clamp, _pick, ma_q1_lower, order_bounds
from .channel import STANDARD_FIBER, ChannelParams, _model_rates, _transmitted, alpha_of_distance
from .divided_diff import _PrefixSeries, _number, h_series
from .expansion import DEFAULT_MIN_SPACING, IntensityGrid, _beta_row
from .keyrate import (
    DEFAULT_MU_CAP,
    DEFAULT_MU_TOL,
    DIRECTIONS,
    _bisection_midpoints,
    _coarse_grid,
    _first_max,
    _model_rate,
    _refined,
    _universal_bounds,
    _universal_box_bound,
    find_zero_distance,
    optimize_signal_intensity,
)
# unused: perfbench/spans.py wraps both names here and raises MissingEntryPoint without them
from .keyrate import binary_entropy_bar, single_photon_credit  # noqa: F401

# name: (preset decoys, or None for user-supplied ones; estimator kind)
_SCENARIOS = {
    "k2": ((0.1,), "aggregate"),
    "k3-ma": ((0.1, 0.2), "ma"),
    "k3-wang": ((0.1, 0.2), "wang"),
    "k3-ours": ((0.1, 0.2), "aggregate"),
    "k4": ((0.1, 0.2, 0.3), "aggregate"),
    "universal": ((), "universal"),
    "custom": (None, "aggregate"),
}
SCENARIO_NAMES = tuple(_SCENARIOS)
DARK_MODES = ("pd-zero", "pd-equals-p0", "explicit")

# most trial signals in one rate evaluation of a sweep, which bounds its
# temporaries: the coarse grid is evaluated for as many distances as fit,
# and the intensity search optimizes at most this many distances at once.
# CPU ms of one default figures call by this size (2-CPU Linux host, Python
# 3.11, numpy 2.4.6, median of 9): 2048 -> 90.2, 4096 -> 84.9, 8192 -> 81.5,
# 16384 -> 82.1, one chunk per sweep -> 87.6
_EVAL_ELEMENTS = 8192
# a sweep's grid runs on every lane up to this signal, then in boxes of this
# many points where the envelope reaches a lane's best.  CPU time of the 11
# default figures grids over the full grid's (2-CPU host, min of 25, 2-5
# runs): boxes of 20 -> 0.53-0.62, of 10 -> 0.58-0.64, of 5 -> 0.69-0.76; a
# band up to 0.4, 0.5 or 0.7 instead of 0.6 reads within that spread.  The
# band's maxima also predict the bisection's bracket (``_predicted_row``)
_FIRST_BAND_MU = 0.6
_BOX_POINTS = 20
# most distances in one scan, and in all scans of one command (`run` sweeps
# each scenario, `figures` 11 distinct ones).  A `run` of one scenario peaks
# about 450 bytes higher per distance (80000 against 20000 distances of k4,
# k3-ma and universal: 430-445 bytes), `figures` about 7.1 KB over its 11
# sweeps, so a full budget stays near 0.5-0.7 GB
_MAX_DISTANCES = 1_000_000
# bisection levels whose midpoints a sweep optimizes as extra lanes of its
# intensity search: 2^n - 1 lanes that answer the first n steps of a correctly
# predicted bracket.  A 1 km scan bisects in 7 levels.  Default figures
# ops_per_s at depth 6 over depth 0 (2-CPU Linux host, 20 s runs): +13-18%, and
# +22% at depth 7; but depth 7 leaves the default figures call no fallback
# optimization, which the traced benchmark must reach
_BISECTION_LANE_LEVELS = 6

# source_j codes for estimators that are not an aggregation order
SOURCE_EXACT = 0  # universal scenario: parameters known, nothing estimated
SOURCE_MA = -1  # three-intensity ratio estimator


class ConfigurationError(ValueError):
    """Scenario or sweep configuration is invalid."""


@dataclass(frozen=True)
class ScenarioSpec:
    """A runnable scenario: estimator, decoys, direction and dark handling.

    A preset name supplies its decoys, ``custom`` needs them given (stored sorted).
    """

    name: str
    direction: str = "forward"
    dark_mode: str = "pd-zero"
    channel: ChannelParams = STANDARD_FIBER
    decoy_mus: Optional[tuple[float, ...]] = None  # None: the preset's decoys
    signal_lower: Optional[float] = None  # None: one spacing above the decoys
    dark_rate: Optional[float] = None  # only for dark_mode == "explicit"

    def __post_init__(self):
        for key in ("decoy_mus", "signal_lower", "dark_rate"):
            value = getattr(self, key)
            if value is None:
                continue
            try:
                # a string of decoys fails on its first character
                value = tuple(sorted(map(_number, value))) if key == "decoy_mus" else _number(value)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"{key} must be numeric, got {value!r}") from exc
            object.__setattr__(self, key, value)
        if self.name not in SCENARIO_NAMES:
            raise ConfigurationError(f"unknown scenario {self.name!r}; choose from {SCENARIO_NAMES}")
        preset = _SCENARIOS[self.name][0]
        if self.decoy_mus is None:
            object.__setattr__(self, "decoy_mus", preset)
        if preset is not None and self.decoy_mus != preset:
            raise ConfigurationError(f"scenario {self.name!r} has decoys {preset}; use 'custom'")
        if preset is None and not self.decoy_mus:
            raise ConfigurationError(
                "custom scenarios need at least one decoy intensity (plus the implicit vacuum)"
            )
        if self.signal_lower is None:
            # the universal bound has no decoys to stay above
            lower = self.decoy_mus[-1] + DEFAULT_MIN_SPACING if self.decoy_mus else 0.01
            object.__setattr__(self, "signal_lower", lower)
        if self.direction not in DIRECTIONS:
            raise ConfigurationError("direction must be 'forward' or 'reverse'")
        if self.dark_mode not in DARK_MODES:
            raise ConfigurationError(f"dark_mode must be one of {DARK_MODES}")
        if self.dark_mode == "explicit":
            if self.dark_rate is None:
                raise ConfigurationError("dark_mode 'explicit' needs a dark_rate value")
            if not 0.0 <= self.dark_rate <= self.channel.p0:
                raise ConfigurationError("explicit dark rate must lie in [0, p0]")
        elif self.dark_rate is not None:
            raise ConfigurationError("a dark_rate value needs dark_mode 'explicit'")
        if self.channel.pD != 0.0:
            raise ConfigurationError(
                f"channel dark rate pD = {self.channel.pD} would be ignored; keep pD = 0 and "
                "set the dark rate with dark_mode/dark_rate (--dark-mode, --dark-rate)"
            )
        try:
            # the signal search starts one intensity spacing above the decoys
            IntensityGrid((*self.decoy_mus, self.signal_lower))
        except ValueError as exc:
            raise ConfigurationError(
                f"decoys {self.decoy_mus} with signal_lower {self.signal_lower}: {exc}"
            ) from exc
        if not 0.0 < self.signal_lower < DEFAULT_MU_CAP:
            raise ConfigurationError(
                f"signal_lower must lie in (0, {DEFAULT_MU_CAP}), the intensity search range"
            )
        # a floor one float below mu1 + mu2 is their decimal sum (0.3 < 0.1 + 0.2):
        # rounding the decoys and their sum moves the float sum less than 1.4
        # units in its last place off the decimal one, rounding the floor half a
        # unit, so the two lie at most one float apart.  The search then starts
        # just above mu1 + mu2 (the engine's ``lower``).
        if self.name == "k3-ma" and math.nextafter(sum(self.decoy_mus), 0.0) > self.signal_lower:
            raise ConfigurationError("the ratio estimator needs mu1 + mu2 <= signal_lower")

    @property
    def estimator_kind(self) -> str:
        return _SCENARIOS[self.name][1]

    @property
    def dark_rate_effective(self) -> float:
        if self.dark_mode == "pd-zero":
            return 0.0
        if self.dark_mode == "pd-equals-p0":
            return self.channel.p0
        return self.dark_rate

    def resolved_channel(self) -> ChannelParams:
        return replace(self.channel, pD=self.dark_rate_effective)


class SweepRow(NamedTuple):
    L_km: float
    optimal_mu: float
    rate: float  # clamped at zero
    rate_signed: float
    q1_min: float
    b1_max: float
    q1_source_j: int
    b1_source_j: int


@dataclass(frozen=True)
class SweepResult:
    spec: ScenarioSpec
    rows: tuple[SweepRow, ...] = field(repr=False)
    achievable_km: Optional[float] = None


class _ScenarioEngine:
    """Per-scenario evaluator: per-distance model inputs and the estimator choice.

    The estimation dark rate is zero by convention (module docstring), so the
    inputs of the library's order bounds reduce to c_i = p_i - e^(-mu_i) p0
    and d_i = s_i p_i - e^(-mu_i) p0 / 2 on the model statistics.

    A state holds these inputs at one distance or, as arrays with one lane
    per distance, at many; a trial signal is a float, or an array that
    broadcasts against the lanes.  An aggregation's trial beta row and Omega
    depend on the signal alone, so the engine keeps them for its coarse grid,
    and the row, intensity product and Omega of each decoy prefix for every
    distance.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.params = spec.resolved_channel()
        self.decoys = spec.decoy_mus
        self.kind = spec.estimator_kind
        self.p0 = self.params.p0
        self.s = self.params.s
        self.decoy_array = np.asarray(self.decoys, dtype=float)
        prefixes = [self.decoys[:j] for j in range(1, len(self.decoys) + 1)]
        self.prefix_terms = [
            (_beta_row(points), math.prod(points), h_series(points)) for points in prefixes
        ]
        # Omega over the decoys and a trial signal; keeps the decoys' recurrence columns
        self.trial_omega = _PrefixSeries(self.decoys)
        # the intensity search's lower end.  Ma's ratio estimator is undefined at
        # mu1 + mu2, which a floor may lie below by the sum's rounding, so its
        # search is open there (``optimize_signal_intensity``'s singular_lower)
        self.singular = self.kind == "ma"
        self.lower = spec.signal_lower
        if self.singular:
            self.lower = max(self.lower, sum(self.decoys))
        # the coarse grid that every intensity search of this engine scans: a
        # sweep's band, boxes and brackets, and each one-distance optimization
        self.grid = _coarse_grid(self.lower, DEFAULT_MU_CAP)
        self.grid_terms = None
        if self.kind == "aggregate":
            self.grid_terms = (_beta_row(self.decoys + (self.grid,)), self.trial_omega(self.grid))

    # -- per-distance state ------------------------------------------------

    def _inputs(self, signal, mu):
        """(c, d) at intensities mu that transmit ``signal``, dark-inclusive (p_dark = 0)."""
        vacuum = self.p0 * -np.expm1(-mu)  # 1 - e^(-mu) cancels for small decoys
        return signal + vacuum, self.s * signal + 0.5 * vacuum

    def _distance_state(self, lengths) -> dict:
        """Inputs and signal-free bounds at ``lengths``: one distance, or a 1-d array of lanes.

        ``q1``/``b1`` and their sources ``q_src``/``b_src`` lack only the trial
        signal's part; Ma's q1 is all trial signal, so its state has none.
        """
        shape = np.shape(lengths)
        alpha = np.reshape(
            [alpha_of_distance(float(length), self.params) for length in np.ravel(lengths)], shape
        )
        decoys = self.decoy_array.reshape((-1,) + (1,) * len(shape))  # the lanes across
        signal = _transmitted(alpha, decoys)
        c, d = self._inputs(signal, decoys)
        one = not shape  # one distance runs on Python floats, the bits of the array elements
        if one:
            alpha, c, d = float(alpha), c.tolist(), d.tolist()
        state = {"alpha": alpha, "c": c, "d": d}
        if self.kind == "universal":
            q1, b1 = _universal_bounds(alpha, self.params)
            state.update(q1=q1, b1=b1, q_src=SOURCE_EXACT, b_src=SOURCE_EXACT)
            return state
        orders = [
            order_bounds(row, prod, c, d, omega, 1.0) for row, prod, omega in self.prefix_terms
        ]
        q_prefix, b_prefix = ((list if one else np.array)(v) for v in zip(*orders))
        state.update(q_prefix=q_prefix, b_prefix=b_prefix, b1=b_prefix[0], b_src=1)
        if self.kind == "wang":
            state.update(q1=q_prefix[1], q_src=2)
        elif self.kind == "ma":
            ma_p = _model_rates(signal, self.params)[0]
            state.update(q_src=SOURCE_MA, ma_p=ma_p.tolist() if one else ma_p)
        else:
            (q1, q_src), (b1, b_src) = _best(q_prefix), _best(b_prefix, upper=True)
            state.update(q1=q1, q_src=q_src, b1=b1, b_src=b_src)
        return state

    @staticmethod
    def _lanes(state: dict, lanes: slice) -> dict:
        # a source code shared by every lane stays one number
        return {key: value[..., lanes] if np.ndim(value) else value for key, value in state.items()}

    @staticmethod
    def _joined(state: dict, extra: dict) -> dict:
        """The lanes of ``state`` followed by those of ``extra``, a state of the same engine."""
        return {
            key: np.concatenate((value, extra[key]), axis=-1) if np.ndim(value) else value
            for key, value in state.items()
        }

    # -- estimator evaluation ----------------------------------------------

    def _trial(self, state: dict, mu):
        """(mu, 1 - e^(-alpha mu), p(mu), s(mu)): one transmission per trial signal.

        A float becomes numpy's, which the library exponentiates with np.exp.
        """
        if isinstance(mu, float):
            mu = np.float64(mu)
        signal = _transmitted(state["alpha"], mu)
        return (mu, signal, *_model_rates(signal, self.params))

    def _order_k_bounds(self, state: dict, mu, signal, terms):
        """Order-k bounds with the trial signal as the k-th intensity, or a pair that loses.

        ``terms`` is its beta row and Omega, or None to compute them here.
        Omega enters only the saturation term, on q for odd k and on b for
        even k, so the pair is first formed with Omega's float floor
        ``trial_omega.first_term``: that q is at least, that b at most, the
        exact one.  The series is summed only if, on some lane, that bound
        still beats the state's q1 (b1), or either is NaN.  Otherwise the
        exact bound loses too, and ``_trial_bounds`` keeps the state's bound
        and source, so no byte moves.
        """
        c, d = self._inputs(signal, mu)
        points = self.decoys + (mu,)
        c, d, product = [*state["c"], c], [*state["d"], d], math.prod(points)
        if terms:
            row, omega = terms
            return order_bounds(row, product, c, d, omega, 1.0)
        row = _beta_row(points)
        q, b = order_bounds(row, product, c, d, self.trial_omega.first_term, 1.0)
        lost = q <= state["q1"] if len(points) % 2 else b >= state["b1"]
        if not (lost.all() if isinstance(lost, np.ndarray) else lost):
            q, b = order_bounds(row, product, c, d, self.trial_omega(mu), 1.0)
        return q, b

    def _bounds(self, state: dict, mu):
        """(q1, b1, q1's source, b1's source) for trial signal mu (scalar or array)."""
        q1, b1, q_new, b_new = self._trial_bounds(state, self._trial(state, mu), None)
        k = len(self.decoys) + 1
        return q1, b1, _pick(q_new, k, state["q_src"]), _pick(b_new, k, state["b_src"])

    def _trial_bounds(self, state: dict, trial, terms):
        """(q1, b1, order k's q won, order k's b won) for a ``_trial`` tuple.

        ``terms`` is the trial's grid terms if known.  Adds Ma's q1 or an
        aggregation's order-k pair to the state's bounds; as in
        ``bounds._best``, only a strictly tighter order-k bound wins.
        """
        mu, signal, p_signal, _ = trial
        q1, b1, q_new, b_new = state.get("q1"), state["b1"], False, False
        if self.kind == "ma":
            q1 = ma_q1_lower(self.decoys + (mu,), self.p0, (*state["ma_p"], p_signal))
        elif self.kind == "aggregate":
            q_k, b_k = self._order_k_bounds(state, mu, signal, terms)
            q_new, b_new = q_k > q1, b_k < b1
            q1, b1 = _pick(q_new, q_k, q1), _pick(b_new, b_k, b1)
        return q1, b1, q_new, b_new

    # -- rate evaluation -----------------------------------------------------

    def rate(self, state: dict, mu, terms=None):
        """Signed key rate at trial signal mu (scalar or array) via ``keyrate._model_rate``.

        ``terms`` is the trial's beta row and Omega, when the caller holds them.
        """
        trial = self._trial(state, mu)
        q1, b1, _, _ = self._trial_bounds(state, trial, terms)
        _, _, p_signal, s_signal = trial
        return _model_rate(mu, q1, b1, p_signal, s_signal, self.params, self.spec.direction)

    def _grid_rates(self, state: dict, grid: np.ndarray, columns=slice(None)) -> np.ndarray:
        """Rates of every lane on the coarse grid's ``columns``, shape (*lanes, columns).

        The engine's grid reads its kept terms; lanes go in chunks, each with every column.
        """
        terms = self.grid_terms if np.array_equal(grid, self.grid) else None
        grid = grid[columns]
        if terms:
            terms = ([beta_i[columns] for beta_i in terms[0]], terms[1][columns])
        if np.ndim(state["alpha"]) == 0:  # one distance
            return self.rate(state, grid, terms)
        if terms:
            terms = ([beta_i[:, None] for beta_i in terms[0]], terms[1][:, None])
        per_chunk = max(1, _EVAL_ELEMENTS // grid.size)
        chunks = [
            self.rate(self._lanes(state, slice(start, start + per_chunk)), grid[:, None], terms)
            for start in range(0, state["alpha"].size, per_chunk)
        ]
        return np.concatenate(chunks, axis=1).T

    def _q1_reach(self, state: dict, highs):
        """A ceiling on the lanes' q1 for trial signals up to ``highs``, shape (lanes, highs).

        The model's yields 1 - (1 - alpha)^n + p0 pass the order bounds' cap 1
        by up to p0, so an odd order j can pass alpha + p0 by p0 mu_1..mu_j
        Omega_(j+1); the state's q1 holds the decoy prefixes' own.
        """
        alpha = state["alpha"][:, None]
        reach = alpha + self.p0
        if "q1" in state:
            reach = np.maximum(reach, state["q1"][:, None])
        if self.kind == "aggregate" and len(self.decoys) % 2 == 0:  # the trial order is odd
            saturation = math.prod(self.decoys) * highs * self.trial_omega(highs)
            reach = np.maximum(reach, alpha + self.p0 + self.p0 * saturation)
        return reach

    def _band_max(self, state: dict):
        """Each lane's first maximum, (index, rate), on the engine grid's band: every lane runs it.

        The band is the columns up to ``_FIRST_BAND_MU``, at least one.
        """
        return _first_max(self._grid_rates(state, self.grid, slice(0, _band_size(self.grid))))

    def _pruned_grid_max(self, state: dict, band_max):
        """Each lane's first maximum on the engine's grid, (index, rate), from its band and boxes.

        ``band_max`` is ``_band_max`` of the lanes; each box of ``_BOX_POINTS``
        after the band runs only on the lanes where its bound reaches the best
        rate so far.  A box takes over a lane's maximum only where its own is
        strictly greater, ``np.argmax``'s first-occurrence rule, so the pair
        is ``keyrate._first_max`` of the full grid (a rate is never NaN: the
        credit and the entropy reject one).  The lanes are all of a sweep's,
        scan and bisection alike, so each sweep bounds its boxes once.
        """
        grid = self.grid
        starts = np.arange(_band_size(grid), grid.size, _BOX_POINTS)
        ends = np.minimum(starts + _BOX_POINTS, grid.size)
        highs = grid[ends - 1]
        q1 = self._q1_reach(state, highs)
        ceilings = _universal_box_bound(
            state["alpha"][:, None], q1, grid[starts], highs, self.params, self.spec.direction
        )
        index, best = band_max
        for start, end, ceiling in zip(starts, ends, ceilings.T):
            live = np.flatnonzero(~(ceiling < best))  # a NaN ceiling skips nothing
            if live.size:
                lanes = slice(live[0], live[-1] + 1)  # the lanes between: views of the state
                box_index, box_best = _first_max(
                    self._grid_rates(self._lanes(state, lanes), grid, slice(start, end))
                )
                better = box_best > best[lanes]
                np.copyto(index[lanes], start + box_index, where=better)
                np.copyto(best[lanes], box_best, where=better)
        return index, best

    def _rows(self, lengths, state: dict, mu, rate) -> list[SweepRow]:
        """Rows at the optimal signals ``mu`` and rates, in the lanes' shape."""
        q1, b1, q_src, b_src = self._bounds(state, mu)
        shape = np.shape(mu)
        signals, signed, *bounds = (
            np.broadcast_to(v, shape).ravel().tolist()
            for v in (mu, rate, _clamp(q1, 1.0), _clamp(b1, 1.0), q_src, b_src)
        )
        clamped = [max(r, 0.0) for r in signed]
        columns = zip(lengths, signals, clamped, signed, *bounds, strict=True)
        return list(map(SweepRow._make, columns))

    def _optimum(self, state: dict):
        """(optimal signal, signed rate) at a distance state, via ``optimize_signal_intensity``."""
        return optimize_signal_intensity(
            partial(self.rate, state),
            self.lower,
            vector_fn=partial(self._grid_rates, state),
            singular_lower=self.singular,
        )

    def optimized(self, length_km: float) -> SweepRow:
        """The row at one distance, with the bounds and their sources."""
        state = self._distance_state(length_km)
        return self._rows([length_km], state, *self._optimum(state))[0]

    def settled_rate(self, length_km: float, mu_hint: float) -> float:
        """The rate at the grid signal nearest ``mu_hint`` if positive, else the optimum's.

        The search returns at least its best grid rate, so a positive grid
        rate gives the optimum's sign, all that the bisection reads.  Both
        rates read one distance state.  Bisection steps that the sweep's
        lanes answered (``sweep``) do not come here.
        """
        state = self._distance_state(length_km)
        mu = float(self.grid[np.argmin(np.abs(self.grid - mu_hint))])
        rate = self.rate(state, mu)
        return rate if rate > 0.0 else self._optimum(state)[1]

    def sweep(self, lengths: list[float]):
        """The rows at every distance, optimized at once with one lane each, and lane-answered steps.

        Returns the rows and a dict from distance to optimized signed rate
        for the midpoints of the first ``_BISECTION_LANE_LEVELS`` bisection
        levels of the predicted bracket (``_predicted_row``, read off the
        scan's band).  They join the scan's lanes with their own distance
        state and band, and all lanes share one pass of pruned boxes and one
        ``keyrate._refined`` search, both on the engine's grid, which the
        one-distance optimization scans too; every lane keeps its own grid
        maximum and searches its own bracket, so each has that one-distance
        optimization's bits.
        A scan longer than one block of ``_EVAL_ELEMENTS`` answers none.
        """
        rows, answered = [], {}
        for start in range(0, len(lengths), _EVAL_ELEMENTS):
            block = lengths[start : start + _EVAL_ELEMENTS]
            state = self._distance_state(np.asarray(block))
            lanes, band_max = state, self._band_max(state)
            row = _predicted_row(band_max[1]) if len(block) == len(lengths) else None
            midpoints = []
            if row is not None:
                midpoints = _bisection_midpoints(*block[row : row + 2], _BISECTION_LANE_LEVELS)
            if midpoints:
                extra = self._distance_state(np.asarray(midpoints))
                lanes = self._joined(state, extra)
                band_max = [np.concatenate(pair) for pair in zip(band_max, self._band_max(extra))]
            mu, rate = _refined(
                partial(self.rate, lanes),
                self.grid,
                self._pruned_grid_max(lanes, band_max),
                self.lower,
                DEFAULT_MU_CAP,
                DEFAULT_MU_TOL,
                self.singular,
            )
            size = len(block)
            rows += self._rows(block, state, mu[:size], rate[:size])
            answered.update(zip(midpoints, rate[size:].tolist()))
        return rows, answered


def _predicted_row(band_rates: np.ndarray) -> Optional[int]:
    """The scan row predicted to open the bisection's bracket, or None if no row follows it.

    ``band_rates`` are the rows' best rates on the grid's band.  The last
    row with a positive one has a positive optimum, since the search returns
    at least its best grid rate; the prediction is that no later row's
    optimum is positive.  If one is, the bisection runs on another bracket
    and its steps fall back to ``settled_rate``: a miss costs only time.
    """
    positive = np.flatnonzero(band_rates > 0.0)
    if positive.size and positive[-1] + 1 < band_rates.size:
        return int(positive[-1])
    return None


def _band_size(grid: np.ndarray) -> int:
    """How many first grid signals every lane evaluates: up to ``_FIRST_BAND_MU``, at least one."""
    return max(1, int(np.searchsorted(grid, _FIRST_BAND_MU, side="right")))


def _sweep_key(spec: ScenarioSpec) -> tuple:
    """What an engine for ``spec`` reads: equal keys give bit-equal ``run_scenario`` results.

    The dark rate reaches only ``keyrate._rate``'s vacuum term, as the float
    (p0 - pD) + pD of ``keyrate._model_rate``'s inputs forward and as pD reverse.
    """
    params = spec.resolved_channel()
    dark = (params.p0 - params.pD) + params.pD if spec.direction == "forward" else params.pD
    return (spec.name, spec.decoy_mus, spec.signal_lower, spec.direction, spec.channel, dark)


def _checked_range(l_range, sweeps: int = 1) -> tuple[float, float, float]:
    """``l_range`` = (min_km, max_km, step_km) as numbers, for ``sweeps`` scans of it.

    The scans may hold at most ``_MAX_DISTANCES`` distances in all, counted
    before anything is allocated; a command of several sweeps checks its
    whole scan before the first one starts.
    """
    try:
        l_min, l_max, step = (_number(v) for v in l_range)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"distance range must be three numbers, got {l_range!r}") from exc
    if not all(math.isfinite(v) for v in (l_min, l_max, step)):
        raise ConfigurationError("distance range and step must be finite")
    if l_min < 0.0:
        raise ConfigurationError("distances must be non-negative")
    if step <= 0.0:
        raise ConfigurationError("distance step must be positive")
    if l_max < l_min:
        raise ConfigurationError("l_max must not be below l_min")
    # np.arange's length, counted before anything is allocated
    count = (l_max + 0.5 * step - l_min) / step
    if count * sweeps > _MAX_DISTANCES:
        scans = f" over {sweeps} sweeps" if sweeps > 1 else ""
        raise ConfigurationError(
            f"distance scan is too long: more than {_MAX_DISTANCES} distances{scans} "
            "(each distance of a sweep holds about 0.5 KB until the output is written)"
        )
    return l_min, l_max, step


def run_scenario(
    spec: ScenarioSpec, l_range: tuple[float, float, float] = (0.0, 250.0, 1.0)
) -> SweepResult:
    """Sweep distances, optimizing the signal intensity at each point.

    ``l_range`` is (min_km, max_km, step_km), of at most ``_MAX_DISTANCES``
    distances.  All distances of the scan are optimized together, as lanes
    of one array.  The rows are the scan that ``find_zero_distance`` turns
    into the achievable distance: bisected inside the last sign change of
    the optimized rate, None when the rate is still positive at max_km
    (range too short) and 0.0 when it is never positive.  A bisection step
    at a midpoint that the sweep optimized as a lane reads that lane's rate;
    any other step reads ``settled_rate``, which has the same sign.
    """
    l_min, l_max, step = _checked_range(l_range)
    lengths = np.arange(l_min, l_max + 0.5 * step, step).tolist()
    engine = _ScenarioEngine(spec)
    rows, answered = engine.sweep(lengths)
    rows = tuple(rows)
    signed = [row.rate_signed for row in rows]

    def envelope(length_km: float) -> float:
        if length_km in answered:
            return answered[length_km]
        # the optimal signal of the scan row just below hints at a positive grid rate
        return engine.settled_rate(length_km, rows[bisect_left(lengths, length_km) - 1].optimal_mu)

    achievable = find_zero_distance(envelope, lengths, signed)
    return SweepResult(spec=spec, rows=rows, achievable_km=achievable)
