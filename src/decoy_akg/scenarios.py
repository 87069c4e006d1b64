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
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional

import numpy as np

from .bounds import ma_q1_lower, order_bounds
from .channel import STANDARD_FIBER, ChannelParams, alpha_of_distance, counting_rate, error_rate
from .divided_diff import h_series
from .keyrate import (
    DEFAULT_MU_CAP,
    RateInputs,
    akg_rate,
    find_zero_distance,
    optimize_signal_intensity,
)
# unused: perfbench/spans.py wraps both names here and raises MissingEntryPoint without them
from .keyrate import binary_entropy_bar, single_photon_credit  # noqa: F401

SCENARIO_NAMES = ("k2", "k3-ma", "k3-wang", "k3-ours", "k4", "universal", "custom")
DARK_MODES = ("pd-zero", "pd-equals-p0", "explicit")
MIN_DECOY_WIDTH = 0.1

# source_j codes for estimators that are not an aggregation order
SOURCE_EXACT = 0  # universal scenario: parameters known, nothing estimated
SOURCE_MA = -1  # three-intensity ratio estimator

_PRESET_DECOYS = {
    "k2": (0.1,),
    "k3-ma": (0.1, 0.2),
    "k3-wang": (0.1, 0.2),
    "k3-ours": (0.1, 0.2),
    "k4": (0.1, 0.2, 0.3),
    "universal": (),
}


class ConfigurationError(ValueError):
    """Scenario or sweep configuration is invalid."""


@dataclass(frozen=True)
class ScenarioSpec:
    """A runnable scenario: estimator, decoys, direction and dark handling."""

    name: str
    direction: str = "forward"
    dark_mode: str = "pd-zero"
    channel: ChannelParams = STANDARD_FIBER
    decoy_mus: tuple[float, ...] = ()
    signal_lower: float = 0.0
    dark_rate: Optional[float] = None  # only for dark_mode == "explicit"

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ConfigurationError(f"unknown scenario {self.name!r}; choose from {SCENARIO_NAMES}")
        if self.direction not in ("forward", "reverse"):
            raise ConfigurationError("direction must be 'forward' or 'reverse'")
        if self.dark_mode not in DARK_MODES:
            raise ConfigurationError(f"dark_mode must be one of {DARK_MODES}")
        if self.dark_mode == "explicit":
            if self.dark_rate is None:
                raise ConfigurationError("dark_mode 'explicit' needs a dark_rate value")
            if not 0.0 <= self.dark_rate <= self.channel.p0:
                raise ConfigurationError("explicit dark rate must lie in [0, p0]")
        if self.name != "universal" and not self.decoy_mus:
            raise ConfigurationError(
                "at least one decoy intensity (plus the implicit vacuum) is required"
            )
        mus = self.decoy_mus
        if not all(0.0 < m < math.inf for m in mus):
            raise ConfigurationError("decoy intensities must be positive and finite")
        for lo, hi in zip(mus, mus[1:]):
            if hi - lo < MIN_DECOY_WIDTH - 1e-12:
                raise ConfigurationError(
                    f"decoy intensities {lo} and {hi} are closer than the minimum width "
                    f"{MIN_DECOY_WIDTH}; estimates from nearly equal intensities are unstable"
                )
        if mus and self.signal_lower < mus[-1] + MIN_DECOY_WIDTH - 1e-12:
            raise ConfigurationError(
                f"signal intensity search must start at least {MIN_DECOY_WIDTH} above the "
                f"largest decoy ({mus[-1]}); got lower bound {self.signal_lower}"
            )
        if not 0.0 < self.signal_lower < DEFAULT_MU_CAP:
            raise ConfigurationError(
                f"signal_lower must lie in (0, {DEFAULT_MU_CAP}), the intensity search range"
            )
        if self.name == "k3-ma":
            m1, m2 = self.decoy_mus
            if not (m1 + m2 <= self.signal_lower and m1 + m2 < 1.0):
                raise ConfigurationError(
                    "the three-intensity ratio estimator needs mu1 + mu2 <= signal and "
                    "mu1 + mu2 < 1"
                )

    @property
    def estimator_kind(self) -> str:
        if self.name == "universal":
            return "universal"
        if self.name == "k3-wang":
            return "wang"
        if self.name == "k3-ma":
            return "ma"
        return "aggregate"

    @property
    def dark_rate_effective(self) -> float:
        if self.dark_mode == "pd-zero":
            return 0.0
        if self.dark_mode == "pd-equals-p0":
            return self.channel.p0
        return float(self.dark_rate)

    def resolved_channel(self) -> ChannelParams:
        return self.channel.with_dark_rate(self.dark_rate_effective)


def scenario(
    name: str,
    direction: str = "forward",
    dark_mode: str = "pd-zero",
    channel: ChannelParams = STANDARD_FIBER,
    decoys: Optional[Iterable[float]] = None,
    signal_lower: Optional[float] = None,
    dark_rate: Optional[float] = None,
) -> ScenarioSpec:
    """Build a ScenarioSpec, filling in the preset decoys for named scenarios."""
    if name == "custom":
        if decoys is None:
            raise ConfigurationError("custom scenarios need explicit decoy intensities")
        decoy_mus = tuple(sorted(float(m) for m in decoys))
    else:
        if name not in _PRESET_DECOYS:
            raise ConfigurationError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
        decoy_mus = _PRESET_DECOYS[name]
    if signal_lower is None:
        if name == "universal":
            signal_lower = 0.01
        else:
            signal_lower = (decoy_mus[-1] if decoy_mus else 0.0) + MIN_DECOY_WIDTH
    return ScenarioSpec(
        name=name,
        direction=direction,
        dark_mode=dark_mode,
        channel=channel,
        decoy_mus=decoy_mus,
        signal_lower=float(signal_lower),
        dark_rate=dark_rate,
    )


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
        self.decoy_vacuum = self.p0 * (1.0 - np.exp(-self.decoy_array))
        self.prefix_omegas = [h_series(self.decoys[:j]) for j in range(1, len(self.decoys) + 1)]

    # -- per-distance state ------------------------------------------------

    def _distance_state(self, length_km: float) -> dict:
        alpha = alpha_of_distance(length_km, self.params)
        signal_part = -np.expm1(-alpha * self.decoy_array)
        # estimation inputs with the dark-inclusive convention (p_dark = 0)
        c = (signal_part + self.decoy_vacuum).tolist()
        d = (self.s * signal_part + 0.5 * self.decoy_vacuum).tolist()
        state = {"alpha": alpha, "c": c, "d": d}
        if self.kind != "universal":
            orders = [
                order_bounds(self.decoys[:j], c[:j], d[:j], omega, 1.0)
                for j, omega in enumerate(self.prefix_omegas, start=1)
            ]
            state["q_prefix"], state["b_prefix"] = zip(*orders)
        if self.kind == "ma":
            state["ma_p"] = (signal_part + self.p0).tolist()
        return state

    # -- estimator evaluation ----------------------------------------------

    def _order_k_bounds(self, state: dict, mu):
        """Order-k bounds with the trial signal as the k-th intensity."""
        signal = -np.expm1(-state["alpha"] * mu)
        vacuum = self.p0 * (1.0 - np.exp(-mu))
        points = self.decoys + (mu,)
        return order_bounds(
            points,
            state["c"] + [signal + vacuum],
            state["d"] + [self.s * signal + 0.5 * vacuum],
            h_series(points),
            1.0,
        )

    def _bounds(self, state: dict, mu, diagnostics: bool = False):
        """(q1, b1[, source indices]) for trial signal mu (scalar or array)."""
        if isinstance(mu, float):
            # a numpy trial signal, which the library exponentiates with np.exp
            mu = np.float64(mu)
        alpha = state["alpha"]
        zero = 0.0 * mu  # broadcasts mu-independent bounds to mu's shape
        if self.kind == "universal":
            q1 = alpha + self.p0 + zero
            b1 = self.s * alpha + 0.5 * self.p0 + zero
            sources = (SOURCE_EXACT, SOURCE_EXACT)
        elif self.kind == "wang":
            q1 = state["q_prefix"][1] + zero
            b1 = state["b_prefix"][0] + zero
            sources = (2, 1)
        elif self.kind == "ma":
            p3 = -np.expm1(-alpha * mu) + self.p0
            q1 = ma_q1_lower(self.decoys + (mu,), self.p0, (*state["ma_p"], p3))
            b1 = state["b_prefix"][0] + zero
            sources = (SOURCE_MA, 1)
        else:
            # aggregation over orders 1..k with the signal as k-th intensity
            q_k, b_k = self._order_k_bounds(state, mu)
            q_all = [v + zero for v in state["q_prefix"]] + [q_k]
            b_all = [v + zero for v in state["b_prefix"]] + [b_k]
            q1 = np.maximum.reduce(q_all)
            b1 = np.minimum.reduce(b_all)
            if diagnostics:
                sources = (
                    int(np.argmax([float(v) for v in q_all])) + 1,
                    int(np.argmin([float(v) for v in b_all])) + 1,
                )
        return (q1, b1, *sources) if diagnostics else (q1, b1)

    # -- rate evaluation -----------------------------------------------------

    def rate(self, state: dict, mu):
        """Signed key rate at trial signal mu (scalar or array) via ``akg_rate``."""
        q1, b1 = self._bounds(state, mu)
        alpha = state["alpha"]
        inputs = RateInputs(
            mu_signal=mu,
            q1=np.clip(q1, 0.0, 1.0),
            b1=np.clip(b1, 0.0, 1.0),
            q0=self.p0 - self.pD,
            p_signal=counting_rate(mu, alpha, self.params),
            s_signal=error_rate(mu, alpha, self.params),
            pD=self.pD,
        )
        return akg_rate(inputs, self.spec.direction)

    def rate_at(self, length_km: float, mu: float) -> float:
        return self.rate(self._distance_state(length_km), mu)

    def optimized(self, length_km: float) -> SweepRow:
        state = self._distance_state(length_km)
        rate_fn = partial(self.rate, state)
        mu_opt, rate_opt = optimize_signal_intensity(
            rate_fn, self.spec.signal_lower, vector_fn=rate_fn
        )
        q1, b1, q_src, b_src = self._bounds(state, mu_opt, diagnostics=True)
        return SweepRow(
            L_km=length_km,
            optimal_mu=mu_opt,
            rate=max(rate_opt, 0.0),
            rate_signed=rate_opt,
            q1_min=float(np.clip(q1, 0.0, 1.0)),
            b1_max=float(np.clip(b1, 0.0, 1.0)),
            q1_source_j=q_src,
            b1_source_j=b_src,
        )

    def envelope(self, length_km: float) -> float:
        return self.optimized(length_km).rate_signed


def run_scenario(
    spec: ScenarioSpec,
    l_range: tuple[float, float, float] = (0.0, 250.0, 1.0),
    refine_distance: bool = True,
) -> SweepResult:
    """Sweep distances, optimizing the signal intensity at each point.

    ``l_range`` is (min_km, max_km, step_km).  The achievable distance is
    refined by bisection when the optimized rate changes sign inside the
    range; it is None when the rate is still positive at max_km (range too
    short) and 0.0 when it is never positive.
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
    engine = _ScenarioEngine(spec)
    lengths = np.arange(l_min, l_max + 0.5 * step, step)
    rows = tuple(engine.optimized(float(length)) for length in lengths)
    achievable: Optional[float] = None
    signed = [row.rate_signed for row in rows]
    if all(v <= 0.0 for v in signed):
        achievable = 0.0
    elif signed[-1] > 0.0:
        achievable = None
    else:
        last_pos = max(i for i, v in enumerate(signed) if v > 0.0)
        if refine_distance:
            achievable = find_zero_distance(
                engine.envelope,
                l_min=float(lengths[last_pos]),
                l_max=float(lengths[last_pos + 1]),
                coarse_step=float(lengths[last_pos + 1] - lengths[last_pos]),
            )
        else:
            achievable = float(lengths[last_pos])
    return SweepResult(spec=spec, rows=rows, achievable_km=achievable)


def achievable_distance(
    spec: ScenarioSpec,
    l_min: float = 0.0,
    l_max: float = 240.0,
    coarse_step: float = 1.0,
    tol_km: float = 0.01,
) -> Optional[float]:
    """Largest distance with positive optimized rate (1 km scan + bisection).

    Like ``run_scenario``'s ``achievable_km``: 0.0 when the rate is never
    positive and None when it is still positive at ``l_max`` (beyond range).
    """
    engine = _ScenarioEngine(spec)
    return find_zero_distance(
        engine.envelope, l_min=l_min, l_max=l_max, coarse_step=coarse_step, tol_km=tol_km
    )
