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
forward and reverse directions).  The reference comparison tables are
defined under this convention; propagating the dark rate into the
estimators instead would shift the reverse achievable distances by several
kilometres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from .bounds import ma_q1_lower, order_bounds
from .channel import STANDARD_FIBER, ChannelParams, alpha_of_distance, counting_rate, error_rate
from .divided_diff import _PrefixSeries, h_series
from .expansion import DEFAULT_MIN_SPACING, IntensityGrid
from .keyrate import (
    DEFAULT_MU_CAP,
    DIRECTIONS,
    RateInputs,
    akg_rate,
    find_zero_distance,
    optimize_lanes,
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
# and the golden section optimizes at most this many distances at once
_EVAL_ELEMENTS = 4096

# source_j codes for estimators that are not an aggregation order
SOURCE_EXACT = 0  # universal scenario: parameters known, nothing estimated
SOURCE_MA = -1  # three-intensity ratio estimator


class ConfigurationError(ValueError):
    """Scenario or sweep configuration is invalid."""


def _clamp_unit(x):
    """x clamped to [0, 1] by ufuncs: np.clip's bits (-0.0 and NaN kept) at a scalar's cost."""
    return np.minimum(1.0, np.maximum(0.0, x))


def _number(value) -> float:
    """``float(value)``, refusing strings and bools, which float() would read as numbers."""
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


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
        if self.name == "k3-ma" and sum(self.decoy_mus) > self.signal_lower:
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


@dataclass(frozen=True)
class SweepRow:
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
    broadcasts against the lanes.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.params = spec.resolved_channel()
        self.decoys = spec.decoy_mus
        self.kind = spec.estimator_kind
        self.p0 = self.params.p0
        self.s = self.params.s
        self.pD = self.params.pD
        self.decoy_array = np.asarray(self.decoys, dtype=float)
        self.prefix_omegas = [h_series(self.decoys[:j]) for j in range(1, len(self.decoys) + 1)]
        # Omega over the decoys and a trial signal; keeps the decoys' recurrence columns
        self.trial_omega = _PrefixSeries(self.decoys)

    # -- per-distance state ------------------------------------------------

    def _inputs(self, alpha, mu):
        """(1 - e^(-alpha mu), c, d) at intensities mu, dark-inclusive (p_dark = 0)."""
        signal = -np.expm1(-alpha * mu)
        vacuum = self.p0 * -np.expm1(-mu)  # 1 - e^(-mu) cancels for small decoys
        return signal, signal + vacuum, self.s * signal + 0.5 * vacuum

    def _distance_state(self, lengths) -> dict:
        """Inputs and signal-free bounds at ``lengths``: one distance, or a 1-d array of lanes.

        ``q1``/``b1`` and their sources ``q_src``/``b_src`` lack only the trial
        signal's part; Ma's q1 is all trial signal, so its state has none.
        """
        shape = np.shape(lengths)
        alpha = np.reshape(
            [alpha_of_distance(float(length), self.params) for length in np.ravel(lengths)], shape
        )
        column = (-1,) + (1,) * len(shape)  # one row per decoy, the lanes across
        signal, c, d = self._inputs(alpha, self.decoy_array.reshape(column))
        state = {"alpha": alpha, "c": c, "d": d}
        if self.kind == "universal":
            q1, b1 = alpha + self.p0, self.s * alpha + 0.5 * self.p0
            state.update(q1=q1, b1=b1, q_src=SOURCE_EXACT, b_src=SOURCE_EXACT)
            return state
        orders = [
            order_bounds(self.decoys[:j], c[:j], d[:j], omega, 1.0)
            for j, omega in enumerate(self.prefix_omegas, start=1)
        ]
        q_prefix, b_prefix = (np.array(v) for v in zip(*orders))
        state.update(q_prefix=q_prefix, b_prefix=b_prefix, b1=b_prefix[0], b_src=1)
        if self.kind == "wang":
            state.update(q1=q_prefix[1], q_src=2)
        elif self.kind == "ma":
            state.update(q_src=SOURCE_MA, ma_p=signal + self.p0)
        else:
            state.update(q1=np.max(q_prefix, axis=0), q_src=np.argmax(q_prefix, axis=0) + 1)
            state.update(b1=np.min(b_prefix, axis=0), b_src=np.argmin(b_prefix, axis=0) + 1)
        return state

    @staticmethod
    def _lanes(state: dict, lanes: slice) -> dict:
        # a source code shared by every lane stays one number
        return {key: value[..., lanes] if np.ndim(value) else value for key, value in state.items()}

    # -- estimator evaluation ----------------------------------------------

    def _order_k_bounds(self, state: dict, mu):
        """Order-k bounds with the trial signal as the k-th intensity."""
        _, c, d = self._inputs(state["alpha"], mu)
        points = self.decoys + (mu,)
        return order_bounds(points, [*state["c"], c], [*state["d"], d], self.trial_omega(mu), 1.0)

    def _bounds(self, state: dict, mu, diagnostics: bool = False):
        """(q1, b1[, source indices]) for trial signal mu (scalar or array).

        Adds Ma's q1 or an aggregation's order-k pair to the state's bounds;
        a prefix order wins a tie.
        """
        if isinstance(mu, float):
            # a numpy trial signal, which the library exponentiates with np.exp
            mu = np.float64(mu)
        q1, b1, q_src, b_src = (state.get(key) for key in ("q1", "b1", "q_src", "b_src"))
        if self.kind == "ma":
            p3 = counting_rate(mu, state["alpha"], self.params)
            q1 = ma_q1_lower(self.decoys + (mu,), self.p0, (*state["ma_p"], p3))
        elif self.kind == "aggregate":
            q_k, b_k = self._order_k_bounds(state, mu)
            if diagnostics:
                k = len(self.decoys) + 1
                q_src, b_src = np.where(q_k > q1, k, q_src), np.where(b_k < b1, k, b_src)
            q1, b1 = np.maximum(q1, q_k), np.minimum(b1, b_k)
        return (q1, b1, q_src, b_src) if diagnostics else (q1, b1)

    # -- rate evaluation -----------------------------------------------------

    def rate(self, state: dict, mu):
        """Signed key rate at trial signal mu (scalar or array) via ``akg_rate``."""
        q1, b1 = self._bounds(state, mu)
        alpha = state["alpha"]
        inputs = RateInputs(
            mu_signal=mu,
            q1=_clamp_unit(q1),
            b1=_clamp_unit(b1),
            q0=self.p0 - self.pD,
            p_signal=counting_rate(mu, alpha, self.params),
            s_signal=error_rate(mu, alpha, self.params),
            pD=self.pD,
        )
        return akg_rate(inputs, self.spec.direction)

    def _grid_rates(self, state: dict, grid: np.ndarray) -> np.ndarray:
        """Rates of every lane on the coarse grid, shape (lanes, grid.size)."""
        per_chunk = max(1, _EVAL_ELEMENTS // grid.size)
        chunks = [
            self.rate(self._lanes(state, slice(start, start + per_chunk)), grid[:, None])
            for start in range(0, state["alpha"].size, per_chunk)
        ]
        return np.concatenate(chunks, axis=1).T

    def _rows(self, lengths, state: dict, mu, rate) -> list[SweepRow]:
        """Rows at the optimal signals ``mu`` and rates, in the lanes' shape."""
        q1, b1, q_src, b_src = self._bounds(state, mu, diagnostics=True)
        columns = (
            np.broadcast_to(v, np.shape(mu)).ravel().tolist()
            for v in (mu, rate, _clamp_unit(q1), _clamp_unit(b1), q_src, b_src)
        )
        return [
            SweepRow(length, m, max(r, 0.0), r, q, b, q_j, b_j)
            for length, m, r, q, b, q_j, b_j in zip(lengths, *columns, strict=True)
        ]

    def _optimum(self, length_km: float):
        """(state, optimal signal, signed rate) at one distance, via ``optimize_signal_intensity``."""
        state = self._distance_state(length_km)
        rate_fn = partial(self.rate, state)
        return state, *optimize_signal_intensity(rate_fn, self.spec.signal_lower, vector_fn=rate_fn)

    def optimized(self, length_km: float) -> SweepRow:
        """The row at one distance, with the bounds' diagnostics."""
        state, mu_opt, rate_opt = self._optimum(length_km)
        return self._rows([length_km], state, mu_opt, rate_opt)[0]

    def optimized_rate(self, length_km: float) -> float:
        """The signed optimal rate at one distance: the envelope that the bisection reads."""
        return self._optimum(length_km)[2]

    def sweep(self, lengths: list[float]) -> list[SweepRow]:
        """The rows at every distance, optimized at once with one lane each."""
        rows = []
        for start in range(0, len(lengths), _EVAL_ELEMENTS):
            block = lengths[start : start + _EVAL_ELEMENTS]
            state = self._distance_state(np.asarray(block))
            mu, rate = optimize_lanes(
                partial(self.rate, state), partial(self._grid_rates, state), self.spec.signal_lower
            )
            rows += self._rows(block, state, mu, rate)
        return rows


def run_scenario(
    spec: ScenarioSpec, l_range: tuple[float, float, float] = (0.0, 250.0, 1.0)
) -> SweepResult:
    """Sweep distances, optimizing the signal intensity at each point.

    ``l_range`` is (min_km, max_km, step_km).  All distances of the scan are
    optimized together, as lanes of one array.  The rows are the scan that
    ``find_zero_distance`` turns into the achievable distance: bisected
    inside the last sign change of the optimized rate, None when the rate
    is still positive at max_km (range too short) and 0.0 when it is never
    positive.
    """
    l_min, l_max, step = (float(v) for v in l_range)
    if not all(math.isfinite(v) for v in (l_min, l_max, step)):
        raise ConfigurationError("distance range and step must be finite")
    if l_min < 0.0:
        raise ConfigurationError("distances must be non-negative")
    if step <= 0.0:
        raise ConfigurationError("distance step must be positive")
    if l_max < l_min:
        raise ConfigurationError("l_max must not be below l_min")
    try:
        lengths = np.arange(l_min, l_max + 0.5 * step, step).tolist()
    except (ValueError, MemoryError) as exc:  # more distances than an array can hold
        raise ConfigurationError(f"distance scan is too long: {exc}") from exc
    engine = _ScenarioEngine(spec)
    rows = tuple(engine.sweep(lengths))
    signed = [row.rate_signed for row in rows]
    achievable = find_zero_distance(engine.optimized_rate, lengths, signed)
    return SweepResult(spec=spec, rows=rows, achievable_km=achievable)
