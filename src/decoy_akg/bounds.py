"""Closed-form single-photon bounds and their linear-program oracle.

Observed per-intensity counting rates p_i and error rates s_i constrain the
single-photon yield q^1 and error product b^1 = q^1 r^1 through the convex
Fock-mixture expansion: p_i = sum_j P[i, j] q^j + p_dark with every q^j in
[0, 1 - p_dark], and an analogous system for s_i p_i.  Because the
coefficient block is lower triangular, relaxing all box constraints except
the one on q^(1+j) yields a closed-form order-j lower bound

    q_j_min = sum_{i<=j} beta(j, i) (p_i - p_dark - e^(-mu_i)(p_0 - p_dark))
              - [j odd] (1 - p_dark) mu_1..mu_j Omega_(j+1)

with beta(j, i) = (-1)^(j-1) mu_1..mu_j e^(mu_i) / (mu_i^2 prod_{t!=i}
(mu_i - mu_t)), and a mirrored order-j upper bound b_j_max.  The best
estimates are the max of the q bounds over both measurement bases and the
min of the b bounds.  An LP over the full boxed system, which reads the
constraint matrix rather than the beta rows, is their independent oracle:
``linprog`` solves it on its line of solutions and checks the point it finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divided_diff import _number
from .expansion import ExpansionTable, IntensityGrid, _beta_row, _exp


class InfeasibleStatsError(RuntimeError):
    """The observed rates are inconsistent with the constraint system."""


def _floats_within(values: tuple, low: float) -> bool:
    """Whether every one of ``values`` is a float in [low, 1]; a NaN is not."""
    for v in values:
        if type(v) is not float or not low <= v <= 1.0:
            return False
    return True


@dataclass(frozen=True)
class ObservedStats:
    """Per-intensity counting and error rates.

    ``p`` has 2k+1 entries: p[0] is the vacuum-pulse counting rate, p[1..k]
    the rates of the k intensities in the key basis and p[k+1..2k] those in
    the conjugate basis.  ``s`` holds the k key-basis error rates.  All
    rates are probabilities per pulse including dark counts.  Every p_i
    must reach the dark floor p_dark; a rate below it raises
    :class:`InfeasibleStatsError`.
    """

    p: tuple[float, ...]
    s: tuple[float, ...]
    p_dark: float = 0.0

    def __init__(self, p: Sequence[float], s: Sequence[float], p_dark: float = 0.0):
        p, s = tuple(p), tuple(s)
        # float rates in range, with p at or above the dark floor, take one pass per field;
        # anything else is read through _number and checked, and a refusal worded, below
        usual = type(p_dark) is float and 0.0 <= p_dark <= 1.0
        usual = usual and _floats_within(p, p_dark) and _floats_within(s, 0.0)
        if not usual:
            p, s, p_dark = tuple(map(_number, p)), tuple(map(_number, s)), _number(p_dark)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "p_dark", p_dark)
        if len(p) % 2 != 1 or len(p) < 3:
            raise ValueError("p must hold the vacuum rate plus 2k per-basis rates")
        if len(s) != self.k:
            raise ValueError("s must hold one error rate per intensity")
        if usual:
            return
        for name, values in (("p", p), ("s", s), ("p_dark", (p_dark,))):
            for v in values:
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"{name} entries must lie in [0, 1]; got {v}")
        if min(p) < p_dark:
            raise InfeasibleStatsError(
                f"counting rates must reach the dark floor p_dark={p_dark}; got {min(p)}"
            )

    @property
    def k(self) -> int:
        return (len(self.p) - 1) // 2

    @classmethod
    def symmetric(
        cls, p0: float, p_basis: Sequence[float], s_basis: Sequence[float], p_dark: float = 0.0
    ) -> "ObservedStats":
        """Stats with identical counting rates in both bases."""
        p_basis = tuple(p_basis)
        return cls((p0, *p_basis, *p_basis), s_basis, p_dark)


@dataclass(frozen=True)
class BoundResult:
    """Aggregated single-photon bounds for one set of observed stats.

    ``q_j_min[j-1]`` and ``b_j_max[j-1]`` are the order-j bounds of the key
    basis and ``q_kj_min[j-1]`` the order-j q bound of the conjugate basis.
    ``q1_min``/``b1_max`` are the best of them clamped to [0, 1 - p_dark],
    ``q1_min_raw``/``b1_max_raw`` the best unclamped.  ``q1_source_j`` is the
    order that achieved the max (values k+1..2k denote the conjugate-basis
    variant), ``b1_source_j`` the order achieving the min.
    """

    q_j_min: tuple[float, ...]
    q_kj_min: tuple[float, ...]
    b_j_max: tuple[float, ...]
    q1_min: float
    b1_max: float
    q1_min_raw: float
    b1_max_raw: float
    q1_source_j: int
    b1_source_j: int


def order_bounds(row, product, c, d, omega, cap):
    """Order-j bounds (q_j_min, b_j_max) over the first j = len(row) intensities.

    ``row`` is their beta row beta(j, 1..j) and ``product`` = mu_1..mu_j.
    ``c[i]`` = p_i - p_dark - e^(-mu_i)(p_0 - p_dark) and ``d[i]`` = s_i p_i -
    (p_dark + e^(-mu_i)(p_0 - p_dark))/2 are the observed inputs; only their
    first j entries are read, so every order can take the same lists.
    ``omega`` is Omega_(j+1) over the j intensities and ``cap`` = 1 - p_dark
    the box of every unknown.  Odd orders put the saturation term cap
    mu_1..mu_j Omega_(j+1) on q, even orders on b.  The last intensity (with
    its row entry, product, c, d and omega) may be a numpy trial signal; the
    bounds broadcast over it.
    """
    q = b = 0.0
    for beta_i, c_i, d_i in zip(row, c, d):  # the row comes first, so it ends the loop
        q += beta_i * c_i
        b += beta_i * d_i
    saturation = cap * product * omega
    if len(row) % 2 == 1:
        q -= saturation
    else:
        b += saturation
    return q, b


def _pick(cond, x, y):
    """``np.where(cond, x, y)`` for an array ``cond``, a plain choice for one truth value."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _best(bounds, upper: bool = False):
    """(tightest bound, its order from 1): the max of lower ``bounds``, the min of upper ones.

    A list of floats runs in floats, an array per lane along its first (orders) axis.
    Only a strictly tighter bound wins, so the lowest order wins a tie.
    """
    if isinstance(bounds, list):
        j = (min if upper else max)(range(len(bounds)), key=bounds.__getitem__)
        return bounds[j], j + 1
    if upper:
        return np.min(bounds, axis=0), np.argmin(bounds, axis=0) + 1
    return np.max(bounds, axis=0), np.argmax(bounds, axis=0) + 1


def _clamp(x, cap: float):
    """``x`` clamped to [0, cap], NaN kept: by ufuncs for an array, else in floats."""
    if isinstance(x, np.ndarray):
        return np.minimum(cap, np.maximum(0.0, x))
    return min(max(x, 0.0), cap)


def _check_order(j: int, k: int) -> None:
    if not 1 <= j <= k:
        raise ValueError(f"order j={j} must satisfy 1 <= j <= k (k={k})")


def _check_inputs(stats: ObservedStats, grid: IntensityGrid, table: ExpansionTable) -> None:
    """Stats, grid and table must describe the same intensities."""
    if stats.k != grid.k:
        raise ValueError("stats and grid disagree on the number of intensities")
    if table.grid.mus != grid.mus:
        raise ValueError(f"table built for intensities {table.grid.mus}, not {grid.mus}")


def _observed_inputs(stats: ObservedStats, table: ExpansionTable, *offsets: int):
    """Per-intensity inputs of :func:`order_bounds`: one c per basis offset, then d.

    The vacuum weights e^(-mu_i) are the table's decays.
    """
    pd = stats.p_dark
    vacuum = [decay * (stats.p[0] - pd) for decay in table.decays]
    cs = [
        [stats.p[offset + i] - pd - v for i, v in enumerate(vacuum, start=1)] for offset in offsets
    ]
    d = [s_i * p_i - 0.5 * (pd + v) for s_i, p_i, v in zip(stats.s, stats.p[1:], vacuum)]
    return (*cs, d)


def ma_q1_lower(mus, p0, p):
    """Three-intensity ratio lower bound on q^1, without dark-count correction.

    ``mus`` = (mu_1, mu_2, mu_3) with mu_1 + mu_2 < mu_3 and mu_1 + mu_2 < 1,
    ``p`` their counting rates and ``p0`` the vacuum rate.  mu_3 (with p_3)
    may be a numpy trial signal, over which the bound broadcasts.
    """
    (mu1, mu2, mu3), (p1, p2, p3) = mus, p
    numer = mu3 * (
        p2 * math.exp(mu2)
        - p1 * math.exp(mu1)
        - (mu2**2 - mu1**2) / (mu3 * mu3) * (p3 * _exp(mu3) - p0)
    )
    return numer / (mu2 * mu3 - mu3 * mu1 - mu2**2 + mu1**2)


def aggregate(stats: ObservedStats, grid: IntensityGrid, table: ExpansionTable) -> BoundResult:
    """Best available bounds: max of the q lower bounds, min of the b uppers.

    The q bounds of both bases participate (orders 1..k each); the error
    system only constrains the key basis, whose bounds the conjugate basis
    shares when their counting rates are equal (a tie goes to the key basis).
    Reported values are clamped to the physical range [0, 1 - p_dark].
    """
    _check_inputs(stats, grid, table)
    cap = 1.0 - stats.p_dark
    # equal rates give the key basis's inputs and bounds, bit for bit
    conjugate = stats.p[1 : grid.k + 1] != stats.p[grid.k + 1 :]
    offsets = (0, grid.k) if conjugate else (0,)
    c_x, *c_plus, d = _observed_inputs(stats, table, *offsets)
    q_x, b_all = [], []
    q_plus = [] if conjugate else q_x
    product = 1  # mu_1..mu_j, multiplied in math.prod's order
    for row, omega, mu in zip(table.beta_rows, table.omegas, grid.mus):
        product *= mu
        q_j, b_j = order_bounds(row, product, c_x, d, omega, cap)
        q_x.append(q_j)
        b_all.append(b_j)
        if conjugate:
            q_plus.append(order_bounds(row, product, c_plus[0], d, omega, cap)[0])

    q_raw, q_source = _best(q_x + q_plus)
    b_raw, b_source = _best(b_all, upper=True)
    return BoundResult(
        q_j_min=tuple(q_x),
        q_kj_min=tuple(q_plus),
        b_j_max=tuple(b_all),
        q1_min=_clamp(q_raw, cap),
        b1_max=_clamp(b_raw, cap),
        q1_min_raw=q_raw,
        b1_max_raw=b_raw,
        q1_source_j=q_source,
        b1_source_j=b_source,
    )


def _forward_substitution(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solution u of ``matrix @ u = rhs``, two columns, for a lower-triangular ``matrix``.

    Row i gives u[i] once u[:i] is known; the sums run in Python floats, left to right.
    """
    u: list[tuple[float, float]] = []
    for i, (row, (first, second)) in enumerate(zip(matrix.tolist(), rhs.tolist())):
        for entry, (known_first, known_second) in zip(row, u):
            first -= entry * known_first
            second -= entry * known_second
        u.append((first / row[i], second / row[i]))
    return np.array(u)


# the tolerance of scipy.optimize.linprog's result check for its default tol 1e-9: sqrt(tol) * 10
_LP_CHECK_TOL = math.sqrt(1e-9) * 10


def _check_point(x, a_eq, b_eq, lower, upper) -> None:
    """Raise ``InfeasibleStatsError`` unless ``x`` meets its bounds and equalities.

    Both hold within ``_LP_CHECK_TOL``, the equalities by the residual b_eq -
    a_eq @ x; a NaN in ``x`` fails both.  The solve's own rounding stays far
    inside the tolerance, so this catches a solve that breaks its contract.
    """
    violation = float(np.max(np.maximum(lower - x, x - upper), initial=0.0))
    residual = float(np.max(np.abs(b_eq - a_eq @ x)))
    tol = _LP_CHECK_TOL
    if violation <= tol and residual <= tol:
        return
    raise InfeasibleStatsError(
        f"the solve's point misses the constraints: largest bound violation {violation:.3e}, "
        f"largest equality residual {residual:.3e}, tolerance {tol:.3e}"
    )


def linprog(a_eq, b_eq, objective: int, sign: float, cap: float, boxed=None) -> float:
    """min of sign * x[objective] over a_eq x = b_eq with every x in [0, cap], or only x[boxed].

    The objective's unknown is the parameter t, and the other columns must
    form a square lower-triangular matrix with a non-zero diagonal, or
    ``ValueError`` is raised.  Forward substitution on them writes every
    unknown as a + t d, each bound cuts out an interval of t, and ``sign``
    picks an end.  An empty interval, a fixed unknown outside its bounds, an
    infinite end and a point that fails ``_check_point`` raise
    ``InfeasibleStatsError``.  The benchmark's trace wraps this one function
    to count and time the oracle's solves.
    """
    rows, n = a_eq.shape
    others = np.delete(np.arange(n), objective)
    square = a_eq[:, others]
    if n != rows + 1 or np.any(np.triu(square, 1)) or not np.all(np.diagonal(square)):
        raise ValueError(
            "the columns besides the objective's must form a square lower-triangular matrix "
            "with a non-zero diagonal"
        )
    # the solutions a + t d: a is the one at t = 0, d its change per unit of t
    a, d = np.zeros(n), np.zeros(n)
    d[objective] = 1.0
    rhs = np.column_stack((b_eq, -a_eq[:, objective]))
    a[others], d[others] = _forward_substitution(square, rhs).T
    lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
    box = slice(None) if boxed is None else boxed
    lower[box], upper[box] = 0.0, cap
    moving = d != 0.0
    stuck = ~moving & ((a < lower) | (a > upper))
    if np.any(stuck):
        j = int(np.flatnonzero(stuck)[0])
        raise InfeasibleStatsError(
            f"constraint system infeasible: x[{j}] = {float(a[j])!r} on every solution, "
            "outside its bounds"
        )
    # each moving unknown's bounds, mapped to t, in either order
    ends = np.array([lower[moving] - a[moving], upper[moving] - a[moving]]) / d[moving]
    t_low = float(np.max(ends.min(axis=0)))
    t_high = float(np.min(ends.max(axis=0)))
    if t_low > t_high:
        raise InfeasibleStatsError(
            f"constraint system infeasible: the bounds leave no t: [{t_low!r}, {t_high!r}]"
        )
    t = t_low if sign > 0 else t_high
    if math.isinf(t):
        raise InfeasibleStatsError("the objective falls without bound along the solutions")
    _check_point(a + t * d, a_eq, b_eq, lower, upper)
    return sign * t


def _q_system(stats: ObservedStats, grid: IntensityGrid, table: ExpansionTable):
    _check_inputs(stats, grid, table)
    return table.constraint.p, np.asarray(stats.p) - stats.p_dark


def _b_system(stats: ObservedStats, grid: IntensityGrid, table: ExpansionTable):
    _check_inputs(stats, grid, table)
    # the rhs s_i p_i - (p_dark + e^(-mu_i)(p_0 - p_dark))/2 is the d of order_bounds
    matrix = table.constraint
    _, rhs = _observed_inputs(stats, table, 0)
    return np.column_stack([matrix.z, matrix.x]), np.array(rhs)  # unknowns b^1..b^(k+1)


def lp_oracle_q1_min(stats: ObservedStats, grid: IntensityGrid, table: ExpansionTable) -> float:
    """Brute-force minimum of q^1 over the fully boxed constraint system.

    Independent verification route for ``aggregate().q1_min`` (the clamped
    value, since the box keeps q^1 itself within [0, 1 - p_dark]).  Raises
    ``InfeasibleStatsError`` for inconsistent stats, e.g. rates below the
    dark floor.
    """
    a_eq, rhs = _q_system(stats, grid, table)
    return linprog(a_eq, rhs, objective=1, sign=1.0, cap=1.0 - stats.p_dark)


def lp_oracle_b1_max(stats: ObservedStats, grid: IntensityGrid, table: ExpansionTable) -> float:
    """Brute-force maximum of b^1 over the boxed error-rate system."""
    a_eq, rhs = _b_system(stats, grid, table)
    return -linprog(a_eq, rhs, objective=0, sign=-1.0, cap=1.0 - stats.p_dark)


def lp_oracle_q_j_min(
    j: int,
    stats: ObservedStats,
    grid: IntensityGrid,
    table: ExpansionTable,
    plus_basis: bool = False,
) -> float:
    """LP value of the order-j relaxed program: only q^(1+j) is boxed.

    All other unknowns are free, matching the program whose closed form is
    ``aggregate(...).q_j_min[j-1]`` (``q_kj_min[j-1]`` when ``plus_basis``);
    the optimum may be negative.
    """
    _check_order(j, grid.k)
    a_eq, rhs = _q_system(stats, grid, table)
    column = 1 + j + (stats.k if plus_basis else 0)
    return linprog(a_eq, rhs, objective=1, sign=1.0, cap=1.0 - stats.p_dark, boxed=column)


def lp_oracle_b_j_max(
    j: int, stats: ObservedStats, grid: IntensityGrid, table: ExpansionTable
) -> float:
    """LP value of the order-j relaxed error program: only b^(1+j) is boxed.

    Its closed form is ``aggregate(...).b_j_max[j-1]``.
    """
    _check_order(j, grid.k)
    a_eq, rhs = _b_system(stats, grid, table)
    return -linprog(a_eq, rhs, objective=0, sign=-1.0, cap=1.0 - stats.p_dark, boxed=j)
