"""Convex expansion of phase-randomized coherent states.

A phase-randomized coherent pulse of intensity mu is the Poissonian Fock
mixture sum_n e^(-mu) mu^n/n! |n><n|.  Given increasing intensities
mu_1 < ... < mu_k, each of the k mixtures can be written as a convex
combination of the vacuum, the single-photon state, and k basis states
rho_2 .. rho_(k+1), where rho_i is supported on photon numbers n >= i with
weights gamma(i, n) / (Omega_i * n!):

    gamma(i, n) = sum_{j<i} mu_j^(n-2) / prod_{t != j} (mu_j - mu_t)
    Omega_i     = sum_{n>=i} gamma(i, n) / n!

gamma(i, n) is the (i-1)-point divided difference of x^(n-2), hence
non-negative, and the expansion coefficients reproduce the Poisson weights
exactly.  This module builds those coefficients, the normalizers Omega_i,
and the structural matrices used by the counting-rate constraint system.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .divided_diff import (
    PointSet,
    _number,
    _vandermonde,
    divided_difference_recurrence,
    h_series,
)

DEFAULT_N_MAX = 64
DEFAULT_MIN_SPACING = 0.1


@dataclass(frozen=True)
class IntensityGrid:
    """Strictly increasing, positive and finite pulse intensities (mean photon numbers).

    The largest intensity is the signal, the one producing raw key bits.
    ``min_spacing`` (positive and finite) is the smallest allowed width
    mu_(i+1) - mu_i; estimates from nearly equal intensities are fragile, so
    a floor is enforced at construction.
    """

    mus: tuple[float, ...]
    min_spacing: float = DEFAULT_MIN_SPACING

    def __init__(self, mus, min_spacing: float = DEFAULT_MIN_SPACING):
        values = tuple(_number(m) for m in mus)
        object.__setattr__(self, "mus", values)
        object.__setattr__(self, "min_spacing", _number(min_spacing))
        if not 0.0 < self.min_spacing < math.inf:
            raise ValueError(f"min_spacing must be positive and finite; got {self.min_spacing}")
        if not values:
            raise ValueError("at least one intensity is required")
        if not all(0.0 < m < math.inf for m in values):
            raise ValueError(f"intensities must be positive and finite; got {values}")
        if not all(m * m >= sys.float_info.min for m in values):  # _beta_row divides by mu^2
            raise ValueError(
                f"intensities must be at least {math.sqrt(sys.float_info.min):.3g}, "
                f"whose square is a normal float; got {values}"
            )
        for lo, hi in zip(values, values[1:]):
            if hi - lo < self.min_spacing - 1e-12:
                raise ValueError(
                    f"intensities {lo} and {hi} violate the minimum spacing {self.min_spacing}"
                )

    @property
    def k(self) -> int:
        return len(self.mus)

    @property
    def signal(self) -> float:
        return self.mus[-1]


def _check_basis_index(i: int, k: int, n: float = math.inf) -> None:
    if not 2 <= i <= k + 1:
        raise ValueError(f"basis index i={i} must satisfy 2 <= i <= k+1 (k={k})")
    if n < i:
        raise ValueError(f"rho_{i} has support only on photon numbers n >= {i}")


def gamma_coefficient(i: int, n: int, grid: IntensityGrid) -> float:
    """Weight gamma(i, n) of |n><n| in the un-normalized basis state rho_i.

    Equals the divided difference of x^(n-2) over mu_1..mu_(i-1); evaluated
    through the Newton recurrence, which behaves better than the literal sum
    of reciprocal products when intensities cluster.  Support starts at
    n = i, so n < i is rejected.
    """
    _check_basis_index(i, grid.k, n)
    return divided_difference_recurrence(lambda x: x ** (n - 2), PointSet(grid.mus[: i - 1]))


def omega(i: int, grid: IntensityGrid) -> float:
    """Normalizer Omega_i = sum_{n>=i} gamma(i, n)/n!.

    The summand gamma(i, n) equals the complete homogeneous symmetric sum
    h_(n-i)(mu_1..mu_(i-1)) (the power-function closed form), so Omega_i is
    the positive-term series :func:`~decoy_akg.divided_diff.h_series` over
    the first i-1 intensities.
    """
    _check_basis_index(i, grid.k)
    return h_series(grid.mus[: i - 1])


def _exp(x):
    """e^x: math.exp for a fixed intensity, np.exp for a numpy trial signal."""
    return np.exp(x) if isinstance(x, (np.ndarray, np.generic)) else math.exp(x)


def _beta_row(points) -> list:
    """beta(j, 1..j) over the j = len(points) intensities of an order-j solve.

    beta(j, i) = (-1)^(j-1) mu_1..mu_j e^(mu_i) / (mu_i^2 prod_{t!=i}(mu_i -
    mu_t)) inverts the lower-triangular expansion system.  The last point may
    be a numpy trial signal, over which the row broadcasts.
    """
    j = len(points)
    prod = math.prod(points)
    sign = -1.0 if j % 2 == 0 else 1.0
    row = []
    for i, mu_i in enumerate(points):
        # a numpy scalar squares like an array element (x * x); its ** is C pow, an ulp off
        denom = mu_i * mu_i if isinstance(mu_i, np.generic) else mu_i**2
        for t, mu_t in enumerate(points):
            if t != i:
                denom *= mu_i - mu_t
        row.append(sign * (prod * _exp(mu_i)) / denom)
    return row


@dataclass(frozen=True)
class ExpansionTable:
    """Expansion coefficients for one intensity grid, truncated at DEFAULT_N_MAX.

    ``omegas[i-2]`` holds Omega_i for i = 2..k+1, so ``omegas[j-1]`` is the
    Omega_(j+1) of the order-j bounds; ``gammas[(i, n)]`` holds
    gamma(i, n) for i <= n <= DEFAULT_N_MAX, with the bits of
    :func:`gamma_coefficient` from one point set per i; ``constraint`` is the
    grid's counting-rate system, which the LP oracle reads.  ``beta_rows[j-1]`` is
    the inversion row beta(j, 1..j) of order j and ``decays[i-1]`` the vacuum
    weight e^(-mu_i); neither depends on observed rates, so the bounds of
    every stats block on the grid read them from here.
    """

    grid: IntensityGrid
    omegas: tuple[float, ...]
    gammas: dict[tuple[int, int], float] = field(repr=False)
    constraint: ConstraintMatrix = field(repr=False)
    beta_rows: tuple[tuple[float, ...], ...] = field(repr=False)
    decays: tuple[float, ...] = field(repr=False)

    @classmethod
    def build(cls, grid: IntensityGrid) -> "ExpansionTable":
        mus = grid.mus
        omegas = tuple(omega(i, grid) for i in range(2, grid.k + 2))
        gammas: dict[tuple[int, int], float] = {}
        for i in range(2, grid.k + 2):
            points = PointSet(mus[: i - 1])  # gamma_coefficient's points, built once per i
            for n in range(i, DEFAULT_N_MAX + 1):
                gammas[(i, n)] = divided_difference_recurrence(lambda x: x ** (n - 2), points)
        beta_rows = tuple(tuple(_beta_row(mus[:j])) for j in range(1, grid.k + 1))
        decays = tuple(math.exp(-mu) for mu in mus)  # constraint.y's np.exp may differ by an ulp
        return cls(grid, omegas, gammas, constraint_matrix(mus, omegas), beta_rows, decays)


@dataclass(frozen=True)
class ConstraintMatrix:
    """Coefficient matrix of the counting-rate constraint system.

    ``p`` has 2k+1 rows (row 0: vacuum pulse; rows 1..k: one basis; rows
    k+1..2k: the conjugate basis) and 2k+2 columns ordered (vacuum,
    single-photon, k basis states per basis).  Blocks: y_i = e^(-mu_i),
    z_i = mu_i e^(-mu_i), and the lower-triangular x with

        x[i, j] = mu_i^2 prod_{t<j}(mu_i - mu_t) e^(-mu_i) Omega_(j+1),  j <= i.
    """

    p: np.ndarray
    y: np.ndarray
    z: np.ndarray
    x: np.ndarray


class DecoyMatrices(NamedTuple):
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    c_inverse: np.ndarray
    constraint: ConstraintMatrix


def _difference_products(mus) -> np.ndarray:
    """Lower-triangular a[i, l] = prod_{t<l}(mu_(i+1) - mu_t), 1-based t and l."""
    k = len(mus)
    a = np.zeros((k, k))
    for i in range(k):
        prod = 1.0
        for l in range(i + 1):
            a[i, l] = prod
            prod *= mus[i] - mus[l]
    return a


def constraint_matrix(mus, omegas) -> ConstraintMatrix:
    """Counting-rate coefficient matrix over increasing intensities ``mus``.

    ``omegas[j-1]`` is Omega_(j+1) over the first j intensities.
    """
    k = len(mus)
    y = np.exp(-np.asarray(mus))
    z = np.asarray(mus) * y
    squares = np.array([mu**2 for mu in mus])  # Python's pow; numpy's square can differ by an ulp
    x = squares[:, None] * _difference_products(mus) * y[:, None] * np.asarray(omegas)

    p = np.zeros((2 * k + 1, 2 * k + 2))
    p[0, 0] = 1.0
    p[1 : k + 1, 0] = y
    p[1 : k + 1, 1] = z
    p[1 : k + 1, 2 : k + 2] = x
    p[k + 1 :, 0] = y
    p[k + 1 :, 1] = z
    p[k + 1 :, k + 2 :] = x
    return ConstraintMatrix(p=p, y=y, z=z, x=x)


def build_matrices(grid: IntensityGrid) -> DecoyMatrices:
    """Structural matrices of the expansion and their closed-form inverses.

    * ``a``: lower-triangular with a[i, l] = prod_{t<l}(mu_(i+1) - mu_t),
    * ``b``: its inverse, b[l, i] = 1/prod_{t<=l, t!=i}(mu_(i+1) - mu_t),
    * ``c``: ``a`` with its last column replaced by a leading 1/mu column,
    * ``c_inverse``: closed-form inverse of ``c`` built from the rows of
      ``b`` and signed products of trailing intensities,
    * ``constraint``: the full counting-rate coefficient matrix.

    ``b @ a`` and ``c_inverse @ c`` are identities up to rounding; tests pin
    the deviation below 1e-10.
    """
    mus = grid.mus
    k = grid.k
    a = _difference_products(mus)

    b = np.zeros((k, k))
    for l in range(1, k + 1):
        for i in range(l):
            b[l - 1, i] = 1.0 / _vandermonde(mus[:l], i)

    c = np.column_stack([1.0 / np.asarray(mus), a[:, :-1]])

    c_inv = np.zeros((k, k))
    for i in range(1, k + 1):
        row = np.zeros(k) if i == 1 else b[i - 2].copy()
        tail_product = math.prod(mus[i - 1 :])
        sign = -1.0 if (k + i) % 2 else 1.0
        c_inv[i - 1] = row + sign * tail_product * b[k - 1]

    omegas = tuple(omega(i, grid) for i in range(2, k + 2))
    constraint = constraint_matrix(mus, omegas)
    return DecoyMatrices(a=a, b=b, c=c, c_inverse=c_inv, constraint=constraint)
