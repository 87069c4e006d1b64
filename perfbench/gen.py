"""Seeded input generators for the benchmark workloads.

Every input is derived from the workload seed alone, with numpy's PCG64
generator and plain float arithmetic, so one seed always yields the same
bytes.  Nothing here calls into ``decoy_akg``: the program under test only
receives the generated numbers.  The standard-fiber constants and the
constraint-matrix construction are restated from the paper's definitions for
that reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# Standard fiber: 10% detector efficiency, 5 dB detector loss, 0.17 dB/km,
# vacuum counting rate 4e-7, 3% intrinsic error.
FIBER_THETA = 0.1
FIBER_A0 = 5.0
FIBER_A1 = 0.17
FIBER_P0 = 4.0e-7
FIBER_S = 0.03

# The generated grids keep this spacing or more; the program is told a looser
# floor so that float rounding in the cumulative sums never trips its check.
GRID_SPACING = 0.1
GRID_SPACING_FLOOR = 0.05
MAX_K = 10
VERIFY_DARK_RATES = (0.0, 1e-6, 1e-4)
# The LP oracle drifts past criterion 8's 1e-8 from k = 7 on (ROADMAP item
# 5), so the timed verify stream stops at k = 6, where no operation fails;
# the drift is counted on a separate fixed set of k = 7..10 instances.
VERIFY_MAX_K = 6


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def figures_offset(seed: int) -> float:
    """Sub-kilometre shift of the 0-250 km distance grid, in [0, 1)."""
    return round(float(_rng(seed, 0).uniform(0.0, 1.0)), 3)


def balanced_ks(rng: np.random.Generator, k_min: int, k_max: int) -> Iterator[int]:
    """Endless k values in k_min..k_max, each block of (k_max - k_min + 1) a shuffled permutation.

    Every k appears equally often in each block, so a run's mix of k, which
    sets most of its cost, varies little from seed to seed.
    """
    ks = np.arange(k_min, k_max + 1)
    while True:
        yield from (int(k) for k in rng.permutation(ks))


def draw_grid(rng: np.random.Generator, k: int, mu_max: float) -> tuple[float, ...]:
    """k increasing intensities in (0, mu_max], at least GRID_SPACING apart."""
    start = float(rng.uniform(0.05, 0.25))
    widest = min(0.3, (mu_max - start) / max(k - 1, 1))
    gaps = rng.uniform(GRID_SPACING, widest, size=k - 1)
    mus = start + np.concatenate([[0.0], np.cumsum(gaps)])
    return tuple(float(m) for m in mus)


# One estimate sweep mirrors one CLI scenario sweep: 0-250 km at 1 km.
SWEEP_BLOCKS = 251


@dataclass(frozen=True)
class Block:
    """One observed-statistics block for the ``estimate`` workload.

    ``grid_id`` changes whenever a new sweep, and with it a new intensity
    grid, starts; consecutive blocks with the same id share the grid and
    hence its expansion table.  ``channel`` is (theta, a0, a1, p0, pD, s).
    """

    grid_id: int
    mus: tuple[float, ...]
    channel: tuple[float, float, float, float, float, float]
    length_km: float
    direction: str


def estimate_blocks(seed: int) -> Iterator[Block]:
    """Endless seeded stream of sweeps of SWEEP_BLOCKS blocks each.

    Like a ``decoy-akg run`` sweep, a sweep keeps one intensity grid and one
    channel and steps the distance by 1 km from a sub-km offset, so one
    block in SWEEP_BLOCKS starts a new grid.
    """
    rng = _rng(seed, 1)
    grid_id = 0
    for k in balanced_ks(rng, 1, MAX_K):
        mus = draw_grid(rng, k, mu_max=2.0)
        theta = min(1.0, FIBER_THETA * float(rng.uniform(0.5, 1.5)))
        a0 = FIBER_A0 * float(rng.uniform(0.8, 1.2))
        a1 = FIBER_A1 * float(rng.uniform(0.85, 1.15))
        p0 = FIBER_P0 * 10.0 ** float(rng.uniform(-0.5, 0.5))
        s = FIBER_S * float(rng.uniform(0.5, 1.5))
        p_dark = p0 if rng.random() < 0.5 else 0.0
        direction = "forward" if rng.random() < 0.5 else "reverse"
        offset = float(rng.uniform(0.0, 1.0))
        for step in range(SWEEP_BLOCKS):
            channel = (theta, a0, a1, p0, p_dark, s)
            yield Block(grid_id, mus, channel, offset + step, direction)
        grid_id += 1


def omega_next(points: tuple[float, ...]) -> float:
    """Omega_(m+1) over m points: sum_{n>m} h_(n-m-1)(points) / n!.

    All terms are positive.  Beyond n = m+4 each term is at most half the
    previous one, so stopping once a term drops below 1e-18 of the sum
    leaves a tail under twice that.
    """
    m = len(points)
    hh = [1.0] * (m + 1)  # hh[l] = h_d(points[:l]) at the current degree d
    total = 0.0
    n = m + 1
    factorial = float(math.factorial(n))
    while True:
        term = hh[m] / factorial
        total += term
        if n > m + 4 and term < 1e-18 * total:
            return total
        n += 1
        factorial *= n
        new = [0.0] * (m + 1)
        for l in range(1, m + 1):
            new[l] = new[l - 1] + points[l - 1] * hh[l]
        hh = new


def constraint_matrix(mus: tuple[float, ...]) -> np.ndarray:
    """(2k+1) x (2k+2) counting-rate coefficients: vacuum, single photon, x blocks.

    x[i, j] = mu_i^2 prod_{t<j}(mu_i - mu_t) e^(-mu_i) Omega_(j+1), j <= i,
    repeated for the conjugate basis.
    """
    k = len(mus)
    omegas = [omega_next(mus[:j]) for j in range(1, k + 1)]
    y = [math.exp(-m) for m in mus]
    p = np.zeros((2 * k + 1, 2 * k + 2))
    p[0, 0] = 1.0
    for basis in (0, 1):
        for i in range(k):
            row = 1 + i + basis * k
            p[row, 0] = y[i]
            p[row, 1] = mus[i] * y[i]
            for j in range(i + 1):
                prod = 1.0
                for t in range(j):
                    prod *= mus[i] - mus[t]
                p[row, 2 + basis * k + j] = mus[i] ** 2 * prod * y[i] * omegas[j]
    return p


@dataclass(frozen=True)
class Instance:
    """One feasible observed-statistics instance for the ``verify`` workload.

    ``p``/``s`` are forward-generated from a uniform draw ``q`` inside the box
    constraints, so the constraint system has a solution and every bound must
    hold for it.  ``matrix`` is the harness's own constraint matrix.
    """

    mus: tuple[float, ...]
    p: tuple[float, ...]
    s: tuple[float, ...]
    p_dark: float
    matrix: np.ndarray

    @property
    def k(self) -> int:
        return len(self.mus)


def verify_instances(seed: int) -> Iterator[Instance]:
    """Endless seeded stream of feasible instances, k balanced over 1..VERIFY_MAX_K."""
    return _instances(_rng(seed, 2), 1, VERIFY_MAX_K)


def drift_instances(seed: int) -> Iterator[Instance]:
    """Endless seeded stream of feasible instances, k balanced over VERIFY_MAX_K+1..MAX_K."""
    return _instances(_rng(seed, 3), VERIFY_MAX_K + 1, MAX_K)


def _instances(rng: np.random.Generator, k_min: int, k_max: int) -> Iterator[Instance]:
    for k in balanced_ks(rng, k_min, k_max):
        p_dark = float(VERIFY_DARK_RATES[int(rng.integers(0, len(VERIFY_DARK_RATES)))])
        mus = draw_grid(rng, k, mu_max=1.5)
        matrix = constraint_matrix(mus)
        q = rng.uniform(0.0, 1.0 - p_dark, size=2 * k + 2)
        p = matrix @ q + p_dark
        r = rng.uniform(0.0, 1.0, size=k + 1)
        b = q[1 : k + 2] * r
        exp_neg = np.exp(-np.asarray(mus))
        sp = matrix[1 : k + 1, 1 : k + 2] @ b + 0.5 * (exp_neg * (p[0] - p_dark) + p_dark)
        s = sp / p[1 : k + 1]
        yield Instance(
            mus,
            tuple(float(v) for v in p),
            tuple(float(v) for v in s),
            p_dark,
            matrix,
        )
