"""Tests of the benchmark harness itself.

Run from the root of a checkout with

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the package suite's default
collection.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

PROG = run.load_program()
SPEC = run.load_spec()


def _run_cli(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    untraced = _run_cli("--workload", "estimate", "--seed", "3", "--seconds", "1", "--trace", "0")
    traced = _run_cli("--workload", "estimate", "--seed", "3", "--seconds", "1", "--trace", "1")
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] is True
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [entry["name"] for entry in SPEC[section]]
        for entry in SPEC[section]:
            assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    assert all(v["value"] > 0 for v in untraced["metrics"].values())


def test_checkout_without_package_fails_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _digest(items) -> str:
    return hashlib.sha256(pickle.dumps([vars(item) for item in items])).hexdigest()


GENERATORS = {
    "estimate": gen.estimate_blocks,
    "verify": gen.verify_instances,
    "drift": gen.drift_instances,
}


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_seeds_reproduce_identical_inputs(workload):
    make = GENERATORS[workload]
    first = _digest(islice(make(7), 300))
    assert _digest(islice(make(7), 300)) == first
    assert _digest(islice(make(8), 300)) != first
    code = (
        f"import sys, hashlib, pickle; sys.path.insert(0, {str(BENCH_DIR)!r}); import gen; "
        f"from itertools import islice; "
        f"items = [vars(x) for x in islice(gen.{make.__name__}(7), 300)]; "
        f"print(hashlib.sha256(pickle.dumps(items)).hexdigest())"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    assert fresh.stdout.split()[-1] == first


def test_figures_offset_is_seeded_and_sub_km():
    offsets = [gen.figures_offset(seed) for seed in range(50)]
    assert offsets == [gen.figures_offset(seed) for seed in range(50)]
    assert all(0.0 <= x < 1.0 for x in offsets)
    assert len(set(offsets)) > 40


def test_verify_and_drift_instances_split_k():
    assert {inst.k for inst in islice(gen.verify_instances(5), 300)} == set(range(1, gen.VERIFY_MAX_K + 1))
    assert {inst.k for inst in islice(gen.drift_instances(5), 300)} == set(
        range(gen.VERIFY_MAX_K + 1, gen.MAX_K + 1)
    )


def test_lp_drift_is_counted_apart():
    drift = workloads.lp_drift(PROG, 1, 12)
    assert drift.attempted == 12 and drift.problems == []
    assert set(drift.by_k) <= set(range(gen.VERIFY_MAX_K + 1, gen.MAX_K + 1))
    assert drift.failed == sum(drift.failure_kinds.values())


def test_generated_instances_are_feasible_and_match_program_matrix():
    for inst in [*islice(gen.verify_instances(5), 30), *islice(gen.drift_instances(5), 10)]:
        grid = PROG.expansion.IntensityGrid(inst.mus, min_spacing=gen.GRID_SPACING_FLOOR)
        program_matrix = PROG.expansion.build_matrices(grid).constraint.p
        assert abs(program_matrix - inst.matrix).max() <= workloads.MATRIX_ATOL
        assert all(inst.p_dark <= p <= 1.0 for p in inst.p)
        assert all(0.0 <= s <= 1.0 for s in inst.s)


def _attribute_snapshot() -> dict:
    owners = {name: getattr(PROG, name) for name in workloads.LAYERS}
    owners["ExpansionTable"] = PROG.expansion.ExpansionTable
    return {
        (owner_name, attr): value
        for owner_name, owner in owners.items()
        for attr, value in vars(owner).items()
    }


def _assert_restored(before: dict) -> None:
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_wrappers_restore_module_attributes():
    before = _attribute_snapshot()
    tracer = spans.Tracer()
    with spans.installed(tracer, vars(PROG)):
        assert PROG.bounds.aggregate is not before[("bounds", "aggregate")]
        assert vars(PROG.expansion.ExpansionTable)["build"] is not before[("ExpansionTable", "build")]
    _assert_restored(before)

    workloads.paired_loop(PROG, "verify", islice(gen.verify_instances(1), 10), tracer, vars(PROG))
    _assert_restored(before)
    assert tracer.summary()["bounds.linprog"]["calls"] == 20

    with pytest.raises(ZeroDivisionError):
        with spans.installed(spans.Tracer(), vars(PROG)):
            1 / 0
    _assert_restored(before)


def test_missing_entry_point_fails_loudly_and_restores(monkeypatch):
    before = _attribute_snapshot()
    monkeypatch.delattr(PROG.bounds, "linprog")
    with pytest.raises(spans.MissingEntryPoint, match="linprog"):
        with spans.installed(spans.Tracer(), vars(PROG)):
            pass
    monkeypatch.undo()
    _assert_restored(before)


def test_covered_metrics_are_benchmark_metrics():
    names = {entry["name"] for entry in SPEC["per_layer"]}
    assert set(run.COVERED) == set(run.WORKLOADS)
    for covered in list(run.COVERED.values()) + [run.COVERED_BY_ALL]:
        assert set(covered) <= names


def test_estimate_sweeps_keep_grid_and_channel():
    blocks = list(islice(gen.estimate_blocks(3), 2 * gen.SWEEP_BLOCKS))
    first, second = blocks[: gen.SWEEP_BLOCKS], blocks[gen.SWEEP_BLOCKS :]
    for sweep in (first, second):
        assert len({(b.grid_id, b.mus, b.channel, b.direction) for b in sweep}) == 1
        lengths = [b.length_km for b in sweep]
        assert lengths[-1] - lengths[0] == pytest.approx(250.0)
        assert 0.0 <= lengths[0] < 1.0
    assert first[0].grid_id != second[0].grid_id


def test_traced_figures_match_untraced_and_published_tables(tmp_path):
    offset = gen.figures_offset(2)
    plain = workloads.figures_pass(PROG, offset, tmp_path, 1, l_step=50.0)
    tracer = spans.Tracer()
    with spans.installed(tracer, vars(PROG)):
        traced = workloads.figures_pass(PROG, offset, tmp_path, 1, wall=True, l_step=50.0)
    assert plain.problems == [] and traced.problems == []
    assert plain.outputs == traced.outputs
    assert plain.ops == traced.ops == 16 * 6
    assert len(plain.latencies_s) == 16 and traced.latencies_s == []
    summary = tracer.summary()
    assert summary["scenarios.run_scenario"]["calls"] == 16
    assert summary["keyrate.optimize"]["calls"] >= plain.ops
    assert summary["keyrate.bisect_eval"]["calls"] > 0


def test_traced_estimate_and_verify_match_untraced():
    for workload, limit in (("estimate", 200), ("verify", 40)):
        items = islice(workloads.input_stream(workload, 4), limit)
        tracer = spans.Tracer()
        plain, traced = workloads.paired_loop(PROG, workload, items, tracer, vars(PROG))
        assert plain.problems == [] and traced.problems == []
        assert plain.attempted == traced.attempted == limit
        assert plain.outputs == traced.outputs
        assert plain.failed == traced.failed
        assert max(tracer.op) == limit - 1


def test_verify_counts_lp_deviation_and_false_infeasible_as_failures():
    inst = next(gen.verify_instances(1))
    result = workloads.Pass()
    workloads.check_verify(inst, inst.matrix, (0.5, 0.1, 0.5, 0.1), result)
    workloads.check_verify(inst, inst.matrix, (0.5, 0.1, 0.5 - 2e-8, 0.1), result)
    workloads.check_verify(inst, inst.matrix, (0.5, 0.1, None, None), result)
    assert result.failed == 2
    assert result.failure_kinds == {"lp_mismatches": 1, "lp_false_infeasible": 1}
    assert result.by_k[inst.k] == [3, 2]
    assert result.problems == []


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    outer_stats = summary["outer"]
    assert outer_stats["self_s"] == pytest.approx(
        outer_stats["total_s"] - summary["inner"]["total_s"], abs=1e-12
    )
    assert list(tracer.parent) == [-1, 0, 0]


def test_speed_probe_clock_excludes_probes_and_restores_the_timer():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(interval_s=0.002)
    with probe:
        start = probe.clock()
        wall0 = time.perf_counter()
        while time.perf_counter() - wall0 < 0.1:
            sum(range(1000))
        end = probe.clock()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.took) > 3 and min(probe.took) > 0
    assert end - start < 0.1 - 0.5 * sum(probe.took[1:-1])
    (scaled,) = probe.scaled([(start, end)])
    ratio = scaled / ((end - start) * speed.REFERENCE_S)
    assert 1.0 / max(probe.took) <= ratio <= 1.0 / min(probe.took)
