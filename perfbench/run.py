#!/usr/bin/env python3
"""Benchmark for decoy-akg: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures|estimate|verify --seed N \
        --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout and nothing is
installed.  BLAS threads are pinned to 1; everything runs in this process
and one thread, except the fresh interpreters that time set-up.

--trace 0  measures the workload for ``--seconds`` (figures: at least two
           calls) and reports every end-to-end metric of BENCHMARK.json,
           times in process CPU seconds at the reference host speed of
           speed.py.  A verify run then also counts the LP oracle's drift on
           a fixed set of k = 7..10 instances, untimed and apart from its
           failed operations.
--trace 1  runs a fixed input set twice, untraced and then traced, asserts
           that both give identical outputs, writes the spans to
           perfbench/out/spans-<workload>.json and reports every per-layer
           metric plus the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A failed correctness check prints the
object with "correct": false and exits with status 1.  An entry point that
the wrappers or the set-up probe need but no longer find also exits with
status 1, without a result.  A checkout without the package exits with
status 2 and prints no result.  See METRICS.md for the metric definitions
and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("figures", "estimate", "verify")
SETUP_PROCESSES = 10
IMPORT_PROCESSES = 3
FIGURES_MIN_CALLS = 2
# fixed input counts for traced runs, so per-layer totals compare across commits
TRACE_ESTIMATE_BLOCKS = 16 * gen.SWEEP_BLOCKS
TRACE_VERIFY_INSTANCES = 600
# k = 7..10 instances on which verify runs count the LP oracle's drift
DRIFT_INSTANCES = 200

# Per-layer metrics that each workload's traced run must see above 0.  A 0
# means that the layer is no longer reached through the wrapped entry
# points, so the metric would read as a gain while measuring nothing.
# Outcome counts (edge optima, LP failures, HiGHS iterations) may be 0.
COVERED = {
    "figures": (
        "keyrate.golden_evals",
        "keyrate.golden_eval_s",
        "keyrate.grid_evals",
        "keyrate.grid_eval_s",
        "keyrate.optimize_calls",
        "keyrate.bisect_evals",
        "keyrate.bisect_s",
        "keyrate.entropy_calls",
        "keyrate.entropy_s",
        "keyrate.credit_calls",
        "keyrate.credit_s",
        "keyrate.evals_per_row",
        "scenarios.run_scenario_self_s",
        "cli.emit_s",
    ),
    "estimate": (
        "expansion.build_calls",
        "expansion.build_s",
        "divided_diff.recurrence_calls",
        "divided_diff.recurrence_s",
        "expansion.omega_calls",
        "channel.model_stats_s",
        "bounds.aggregate_s",
        "keyrate.akg_rate_s",
    ),
    "verify": ("bounds.lp_calls", "bounds.lp_s", "expansion.build_matrices_s"),
}
COVERED_BY_ALL = tuple(f"{layer}.import_s" for layer in workloads.LAYERS)

# CPU seconds, so that the host descheduling the child does not count, at the
# reference speed of the kernel timed around them (speed.py), so that the
# host's drifting speed does not either.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[2])
import speed
kernel_s = [speed.time_kernel() for _ in range(5)]
c0 = time.process_time()
sys.path.insert(0, sys.argv[1])
import decoy_akg
from decoy_akg import cli
cli._build_parser()
took = time.process_time() - c0
kernel_s += [speed.time_kernel() for _ in range(5)]
print(repr(speed.at_reference(took, kernel_s)))
"""


class MissingProgram(RuntimeError):
    """The checkout does not hold the package sources."""


def load_program(src: Path = SRC) -> SimpleNamespace:
    """Import the seven layers from ``src`` of this checkout, never from elsewhere."""
    package_dir = src / "decoy_akg"
    if not (package_dir / "__init__.py").is_file():
        raise MissingProgram(f"no package sources at {package_dir}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    modules = {}
    for layer in workloads.LAYERS:
        module = importlib.import_module(f"decoy_akg.{layer}")
        if Path(module.__file__).resolve().parent != package_dir.resolve():
            raise MissingProgram(f"decoy_akg.{layer} was imported from {module.__file__}")
        modules[layer] = module
    return SimpleNamespace(**modules)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def measure_setup_s(processes: int) -> list[float]:
    """CPU seconds for `import decoy_akg` plus the CLI parser at the reference speed.

    One fresh interpreter per sample.
    """
    samples = []
    for _ in range(processes):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
            env=_child_env(),
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def measure_import_s(processes: int = IMPORT_PROCESSES) -> dict[str, float]:
    """Median cumulative import seconds per layer from `python -X importtime`."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import decoy_akg.cli"
    per_layer: dict[str, list[float]] = {}
    for _ in range(processes):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
            env=_child_env(),
        )
        seen = {}
        for line in done.stderr.splitlines():
            # "import time:  self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name.startswith("decoy_akg."):
                seen[name.split(".", 1)[1]] = int(parts[1]) * 1e-6
        for layer, seconds in seen.items():
            per_layer.setdefault(layer, []).append(seconds)
    return {layer: statistics.median(values) for layer, values in per_layer.items()}


def percentile_ms(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples) * 1e3, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one run ---------------------------------------------------------------


def run_untraced(prog, workload: str, seed: int, seconds: float, work_dir: Path):
    """End-to-end pass; returns (Pass, metrics without setup_s)."""
    if workload == "figures":
        result = workloads.figures_pass(
            prog, gen.figures_offset(seed), work_dir, FIGURES_MIN_CALLS, seconds=seconds
        )
    else:
        stream = workloads.input_stream(workload, seed)
        result = workloads.closed_loop(prog, workload, stream, seconds=seconds)
    metrics = {
        "ops_per_s": result.ops / result.busy_s,
        "op_ms_p50": percentile_ms(result.latencies_s, 50),
        "op_ms_p99": percentile_ms(result.latencies_s, 99),
        "peak_rss_mb": peak_rss_mb(),
    }
    return result, metrics


def run_traced(prog, workload: str, seed: int, work_dir: Path):
    """Untraced, then traced pass over the same inputs.

    Returns (untraced Pass, traced Pass, tracer, overhead seconds, problems).
    """
    tracer = spans.Tracer()
    modules = vars(prog)
    if workload == "figures":
        offset = gen.figures_offset(seed)
        plain = workloads.figures_pass(prog, offset, work_dir, 1, wall=True)
        with spans.installed(tracer, modules):
            traced = workloads.figures_pass(prog, offset, work_dir, 1, wall=True)
    else:
        limit = TRACE_ESTIMATE_BLOCKS if workload == "estimate" else TRACE_VERIFY_INSTANCES
        items = islice(workloads.input_stream(workload, seed), limit)
        plain, traced = workloads.paired_loop(prog, workload, items, tracer, modules)
    problems = plain.problems + traced.problems
    if plain.outputs != traced.outputs:
        problems.append(f"{workload}: traced outputs differ from untraced outputs")
    return plain, traced, tracer, traced.busy_s - plain.busy_s, problems


def layer_metrics(
    workload: str, plain, traced, tracer, overhead_s: float, import_s: dict, drift
) -> dict[str, float]:
    """Every per-layer metric, in the units BENCHMARK.json gives them."""
    stats = tracer.summary()

    def calls(name: str) -> int:
        return stats.get(name, {}).get("calls", 0)

    def total(name: str) -> float:
        return stats.get(name, {}).get("total_s", 0.0)

    counters = tracer.counters
    rows = traced.ops if workload == "figures" else 0
    rate_evals = calls("keyrate.golden_eval") + calls("keyrate.grid_eval")
    values = {
        "keyrate.golden_evals": calls("keyrate.golden_eval"),
        "keyrate.golden_eval_s": total("keyrate.golden_eval"),
        "keyrate.grid_evals": calls("keyrate.grid_eval"),
        "keyrate.grid_eval_s": total("keyrate.grid_eval"),
        "keyrate.optimize_calls": calls("keyrate.optimize"),
        "keyrate.bisect_evals": calls("keyrate.bisect_eval"),
        "keyrate.bisect_s": total("keyrate.bisect_eval"),
        "keyrate.entropy_calls": calls("keyrate.entropy"),
        "keyrate.entropy_s": total("keyrate.entropy"),
        "keyrate.credit_calls": calls("keyrate.credit"),
        "keyrate.credit_s": total("keyrate.credit"),
        "keyrate.evals_per_row": rate_evals / rows if rows else 0.0,
        "keyrate.edge_optima": counters["keyrate.edge_optima"],
        "scenarios.run_scenario_self_s": stats.get("scenarios.run_scenario", {}).get("self_s", 0.0),
        "cli.emit_s": total("cli.emit"),
        "expansion.build_calls": calls("expansion.build"),
        "expansion.build_s": total("expansion.build"),
        "divided_diff.recurrence_calls": calls("divided_diff.recurrence"),
        "divided_diff.recurrence_s": total("divided_diff.recurrence"),
        "expansion.omega_calls": calls("expansion.omega"),
        "channel.model_stats_s": total("channel.model_stats"),
        "bounds.aggregate_s": total("bounds.aggregate"),
        "keyrate.akg_rate_s": total("keyrate.akg_rate"),
        "bounds.lp_calls": calls("bounds.linprog"),
        "bounds.lp_s": total("bounds.linprog"),
        "bounds.highs_iterations": counters["bounds.highs_iterations"],
        "expansion.build_matrices_s": total("expansion.build_matrices"),
        "bounds.lp_mismatches": drift.failure_kinds.get("lp_mismatches", 0),
        "bounds.lp_false_infeasible": drift.failure_kinds.get("lp_false_infeasible", 0),
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_s / plain.busy_s,
        "trace.spans": len(tracer.start),
    }
    for layer in workloads.LAYERS:
        values[f"{layer}.import_s"] = import_s.get(layer, 0.0)
    return values


def failure_split(label: str, result) -> str:
    """One line of a verify pass's failures by k and by kind."""
    split = ", ".join(f"k={k}: {f}/{a}" for k, (a, f) in sorted(result.by_k.items()))
    kinds = ", ".join(f"{kind} {n}" for kind, n in sorted(result.failure_kinds.items()))
    return f"  {label} by k: {split}; by kind: {kinds or 'none'}"


def report(
    spec_metrics: list[dict],
    values: dict,
    correct: bool,
    attempted: int,
    failed: int,
    notes: list[str],
) -> str:
    """Print a readable table, then return the one-line JSON result."""
    for note in notes:
        print(note)
    metrics = {}
    for entry in spec_metrics:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<32} {value!r:>24} {entry['unit']}")
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        prog = load_program()
    except (MissingProgram, OSError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
            work_dir = Path(tmp)
            if args.trace == 0:
                # half the set-up samples before the workload and half after, so that
                # their median spans the whole run rather than the host's speed at its start
                setup = measure_setup_s(SETUP_PROCESSES // 2)
                result, values = run_untraced(prog, args.workload, args.seed, args.seconds, work_dir)
                setup += measure_setup_s(SETUP_PROCESSES - SETUP_PROCESSES // 2)
                values["setup_s"] = statistics.median(setup)
                problems = result.problems
                attempted, failed = result.attempted, result.failed
                notes = [
                    f"workload {args.workload} seed {args.seed}: {result.attempted} ops attempted, "
                    f"{result.failed} failed (failed_share {result.failed / result.attempted!r}), "
                    f"{result.ops} ops in {result.busy_s:.3f} s busy",
                    f"  latency samples: {len(result.latencies_s)}; setup samples: {len(setup)}",
                ]
                if args.workload == "verify":
                    drift = workloads.lp_drift(prog, args.seed, DRIFT_INSTANCES)
                    problems = problems + drift.problems
                    notes += [
                        failure_split("failed", result),
                        f"  LP oracle drift (ROADMAP item 5), untimed and not counted as failed: "
                        f"{drift.failed} of {drift.attempted} k=7..10 instances "
                        f"(share {drift.failed / drift.attempted!r})",
                        failure_split("drift", drift),
                    ]
                metric_spec = spec["end_to_end"]
            else:
                import_s = measure_import_s()
                plain, traced, tracer, overhead_s, problems = run_traced(
                    prog, args.workload, args.seed, work_dir
                )
                tracer.write(
                    OUT_DIR / f"spans-{args.workload}.json",
                    {"workload": args.workload, "seed": args.seed},
                )
                drift = workloads.Pass()
                if args.workload == "verify":
                    drift = workloads.lp_drift(prog, args.seed, DRIFT_INSTANCES)
                    problems += drift.problems
                values = layer_metrics(
                    args.workload, plain, traced, tracer, overhead_s, import_s, drift
                )
                problems += [
                    f"{name} reads 0 on {args.workload}: its layer is no longer measured"
                    for name in COVERED[args.workload] + COVERED_BY_ALL
                    if not values[name] > 0
                ]
                attempted, failed = plain.attempted, plain.failed
                notes = [
                    f"workload {args.workload} seed {args.seed} traced: {plain.attempted} ops, "
                    f"{len(tracer.start)} spans, overhead {overhead_s:.3f} s "
                    f"({overhead_s / plain.busy_s:.1%} of {plain.busy_s:.3f} s)",
                ]
                metric_spec = spec["per_layer"]
    except (spans.MissingEntryPoint, subprocess.CalledProcessError) as exc:
        print(f"CHECK FAILED: {exc}\n{getattr(exc, 'stderr', '') or ''}", file=sys.stderr)
        return 1
    for text in problems:
        print(f"CHECK FAILED: {text}", file=sys.stderr)
    line = report(metric_spec, values, not problems, attempted, failed, notes)
    print(line)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
