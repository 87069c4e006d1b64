"""End-to-end acceptance suite.

Every test prints one PASS/FAIL line (visible under ``pytest -s`` or in the
captured output of a failing run) and enforces its tolerance with asserts.
Reference values are the published comparison tables for the standard fiber
parameter set; distances carry a +-0.5 km tolerance.
"""

import math
import time

import numpy as np

from decoy_akg import (
    STANDARD_FIBER,
    IntensityGrid,
    ScenarioSpec,
    aggregate,
    alpha_of_distance,
    build_matrices,
    gamma_coefficient,
    lp_oracle_b1_max,
    lp_oracle_q1_min,
    omega,
    run_scenario,
)
from decoy_akg.reference import (
    epsilon,
    epsilon_beta_form,
    epsilon_simplex_mc,
    omega_closed_form,
    optimal_mu_derivative_check,
    reconstruct_poisson,
)
from conftest import feasible_instance, random_grid

DISTANCE_TOL_KM = 0.5

FORWARD_DARK_FREE = {
    "k2": 222.8,
    "k3-ma": 215.2,
    "k3-wang": 223.2,
    "k3-ours": 224.5,
    "k4": 224.8,
    "universal": 225.2,
}
FORWARD_DARK_EQUALS_P0 = {
    "k2": 223.0,
    "k3-wang": 223.5,
    "k3-ours": 224.5,
    "k4": 224.8,
    "universal": 225.2,
}
REVERSE_DARK_EQUALS_P0 = {
    "k2": 230.7,
    "k3-wang": 231.3,
    "k3-ours": 232.5,
    "k4": 233.2,
    "universal": 233.3,
}


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:2d}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _distance_table(direction: str, dark_mode: str, expected: dict) -> dict:
    got = {}
    for name in expected:
        spec = ScenarioSpec(name, direction=direction, dark_mode=dark_mode)
        got[name] = run_scenario(spec, (0.0, 240.0, 1.0)).achievable_km
    return got


def _check_distances(criterion: int, label: str, expected: dict, got: dict, extra_ok=True, extra=""):
    deviations = {name: got[name] - expected[name] for name in expected}
    ok = all(abs(d) <= DISTANCE_TOL_KM for d in deviations.values()) and extra_ok
    detail = ", ".join(
        f"{name}={got[name]:.2f} (ref {expected[name]}, {dev:+.2f})"
        for name, dev in deviations.items()
    )
    _report(criterion, ok, f"{label}: {detail}{extra}")


def test_criterion_1_forward_dark_free_distances():
    start = time.perf_counter()
    got = _distance_table("forward", "pd-zero", FORWARD_DARK_FREE)
    elapsed = time.perf_counter() - start
    _check_distances(
        1,
        "forward, dark-free",
        FORWARD_DARK_FREE,
        got,
        extra_ok=elapsed < 60.0,
        extra=f"; sweep took {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_forward_dark_equals_vacuum_distances():
    got = _distance_table("forward", "pd-equals-p0", FORWARD_DARK_EQUALS_P0)
    _check_distances(2, "forward, pD=p0", FORWARD_DARK_EQUALS_P0, got)


def test_criterion_3_reverse_dark_equals_vacuum_distances():
    got = _distance_table("reverse", "pd-equals-p0", REVERSE_DARK_EQUALS_P0)
    order = ["k2", "k3-wang", "k3-ours", "k4", "universal"]
    values = [got[name] for name in order]
    ordered = all(b >= a for a, b in zip(values, values[1:]))
    # three intensities nearly saturate: the remaining headroom above k=3 is
    # smaller than the step from k=2 to k=3
    saturation = (got["universal"] - got["k3-ours"]) < (got["k3-ours"] - got["k2"])
    _check_distances(
        3,
        "reverse, pD=p0",
        REVERSE_DARK_EQUALS_P0,
        got,
        extra_ok=ordered and saturation,
        extra=f"; ordered={ordered}, k3-saturation={saturation}",
    )


def test_criterion_4_matrix_identity_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(1, 9):
        for _ in range(50):
            grid = random_grid(rng, k, mu_max=2.0)
            mats = build_matrices(grid)
            eye = np.eye(k)
            worst = max(worst, float(np.abs(mats.b @ mats.a - eye).max()))
            worst = max(worst, float(np.abs(mats.c_inverse @ mats.c - eye).max()))
    _report(4, worst <= 1e-10, f"50 grids per k=1..8; worst identity deviation {worst:.2e}")


def test_criterion_5_positivity_and_reconstruction():
    rng = np.random.default_rng(7)
    min_gamma = math.inf
    worst_rel = 0.0
    for k in range(1, 7):
        for _ in range(6):
            grid = random_grid(rng, k, mu_max=2.0)
            for i in range(2, k + 2):
                for n in range(i, 41):
                    min_gamma = min(min_gamma, gamma_coefficient(i, n, grid))
            for idx in range(1, k + 1):
                mu = grid.mus[idx - 1]
                coeffs = reconstruct_poisson(idx, grid, n_max=40)
                for n, value in enumerate(coeffs):
                    exact = math.exp(-mu) * mu**n / math.factorial(n)
                    worst_rel = max(worst_rel, abs(value - exact) / exact)
    ok = min_gamma >= 0.0 and worst_rel <= 1e-9
    _report(
        5,
        ok,
        f"min gamma {min_gamma:.2e}; worst Poisson reconstruction rel dev {worst_rel:.2e} "
        f"(n<=40, k<=6)",
    )


def test_criterion_6_omega_closed_forms():
    worst_omega = 0.0
    grids = (
        IntensityGrid((0.1, 0.2, 0.3, 0.4)),
        IntensityGrid((0.05, 0.18, 0.40, 0.95), min_spacing=0.05),
        IntensityGrid((0.2, 0.35, 0.62, 1.4), min_spacing=0.05),
    )
    for grid in grids:
        for i in (2, 3, 4, 5):
            series = omega(i, grid)
            closed = omega_closed_form(i, grid)
            worst_omega = max(worst_omega, abs(series - closed) / max(1.0, abs(series)))
    worst_product = 0.0
    for grid in grids:
        for j in range(1, 5):
            product = math.prod(grid.mus[:j]) * omega(j + 1, grid)
            deviation = abs(epsilon(j, 1.0, grid) - product) / max(1.0, product)
            worst_product = max(worst_product, deviation)
    ok = worst_omega <= 1e-10 and worst_product <= 1e-10
    _report(
        6,
        ok,
        f"Omega_2..5 series vs closed forms dev {worst_omega:.2e}; "
        f"eps(1) vs intensity-product identity dev {worst_product:.2e}",
    )


def test_criterion_7_epsilon_cross_representations():
    grid = IntensityGrid((0.1, 0.2, 0.3, 0.45), min_spacing=0.05)
    rng = np.random.default_rng(11)
    worst_pair = 0.0
    for j in range(1, 5):
        for alpha in (1e-6, 1e-3, 0.04, 0.37, 1.0):
            series = epsilon(j, alpha, grid)
            finite = epsilon_beta_form(j, alpha, grid)
            worst_pair = max(worst_pair, abs(series - finite) / max(1.0, abs(series)))
    mc_ok = True
    mc_detail = []
    for j in range(1, 5):
        alpha = float(rng.uniform(0.01, 0.8))
        est = epsilon_simplex_mc(j, alpha, grid, samples=10**6, seed=100 + j)
        target = epsilon(j, alpha, grid)
        deviation = abs(est.estimate - target)
        mc_detail.append(f"j={j}:{deviation:.1e}@{est.standard_error:.1e}se")
        # absolute floor covers j=1, where the 0-simplex integral is
        # deterministic and the standard error is identically zero
        if deviation > 3.0 * est.standard_error + 1e-13:
            mc_ok = False
    ok = worst_pair <= 1e-12 and mc_ok
    _report(
        7,
        ok,
        f"series vs finite-sum dev {worst_pair:.2e} (tol 1e-12); "
        f"Monte-Carlo pulls at 1e6 samples: {', '.join(mc_detail)} (tol 3se)",
    )


def test_criterion_8_lp_oracle_equivalence():
    rng = np.random.default_rng(2718)
    worst = 0.0
    checked = 0
    for k in range(1, 11):
        for _ in range(100):
            p_dark = float(rng.choice([0.0, 1e-6, 1e-4]))
            grid, table, stats, _, _ = feasible_instance(rng, k, p_dark)
            agg = aggregate(stats, grid, table)
            worst = max(worst, abs(lp_oracle_q1_min(stats, grid, table) - agg.q1_min))
            worst = max(worst, abs(lp_oracle_b1_max(stats, grid, table) - agg.b1_max))
            checked += 1
    _report(
        8,
        worst <= 1e-8,
        f"{checked} random feasible instances (100 per k=1..10); "
        f"worst closed-form vs LP deviation {worst:.2e} (tol 1e-8)",
    )


def test_criterion_9_bound_selection_on_reference_channel():
    expected = {"k2": (2, 1), "k3-ours": (2, 3), "k4": (4, 3)}
    seen: dict[str, set] = {}
    ok = True
    for name, sources in expected.items():
        result = run_scenario(ScenarioSpec(name), (0.0, 220.0, 10.0))
        seen[name] = {(row.q1_source_j, row.b1_source_j) for row in result.rows}
        if seen[name] != {sources}:
            ok = False
    detail = "; ".join(
        f"{name}: selected {sorted(seen[name])}, expected {[expected[name]]}" for name in expected
    )
    _report(9, ok, detail)


def test_criterion_10_optimal_intensity_property():
    params = STANDARD_FIBER
    alphas = [alpha_of_distance(float(L), params) for L in range(0, 251, 10)]
    report = optimal_mu_derivative_check(params, alphas, tolerance=1e-12)
    worst_mu = 0.0
    for direction, dark_mode in (("forward", "pd-zero"), ("reverse", "pd-equals-p0")):
        spec = ScenarioSpec("universal", direction=direction, dark_mode=dark_mode)
        result = run_scenario(spec, (0.0, 220.0, 20.0))
        worst_mu = max(worst_mu, max(row.optimal_mu for row in result.rows))
    ok = report.all_nonpositive and worst_mu <= 1.0 + 1e-6
    _report(
        10,
        ok,
        f"dI/dmu at mu=1 non-positive across L=0..250: {report.all_nonpositive}; "
        f"largest reported optimal mu {worst_mu:.4f} (<= 1)",
    )
