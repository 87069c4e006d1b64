"""The three benchmark workloads and the checks on their outputs.

figures   in-process ``decoy-akg figures`` on the standard fiber: 16 scenario
          sweeps of 251 distances (op = one optimized row, 4016 per call).
estimate  observed-statistics blocks through model_stats -> aggregate ->
          akg_rate, in sweeps of 251 distances that share one intensity
          grid (op = one block; a sweep's first block also builds its table).
verify    feasible instances through build_matrices, ExpansionTable.build,
          aggregate and both LP oracles (op = one instance).

Each workload is a closed loop in one thread: the next operation starts when
the previous one has returned.  Only the program calls are timed; generating
inputs and checking outputs is not.  End-to-end passes time each call in
process CPU seconds at the reference host speed (``speed.SpeedProbe``): on a
shared virtual machine wall time is set by the host descheduling the guest,
and CPU time by the host's drifting speed, not by the program.  Traced runs
time both of their passes in wall seconds, which only their overhead figure
uses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from array import array
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

import gen
import spans
import speed

LAYERS = ("divided_diff", "expansion", "bounds", "channel", "keyrate", "scenarios", "cli")

# Published achievable distances (km) for the standard fiber, by figure set.
PUBLISHED = {
    "forward_pd-zero": {
        "k2": 222.8,
        "k3-ma": 215.2,
        "k3-wang": 223.2,
        "k3-ours": 224.5,
        "k4": 224.8,
        "universal": 225.2,
    },
    "forward_pd-equals-p0": {
        "k2": 223.0,
        "k3-wang": 223.5,
        "k3-ours": 224.5,
        "k4": 224.8,
        "universal": 225.2,
    },
    "reverse_pd-equals-p0": {
        "k2": 230.7,
        "k3-wang": 231.3,
        "k3-ours": 232.5,
        "k4": 233.2,
        "universal": 233.3,
    },
}
DISTANCE_TOL_KM = 0.5
LP_TOL = 1e-8  # acceptance criterion 8: closed form vs LP oracle
MATRIX_ATOL = 1e-12  # program's constraint matrix vs the generator's; entries lie in [0, 1]
SOUNDNESS_RTOL = 1e-9
SWEEP_SPAN = "scenarios.run_scenario"


@dataclass
class Pass:
    """What one pass over a workload's inputs produced."""

    attempted: int = 0
    failed: int = 0
    # untraced: CPU seconds at the reference speed; traced: wall seconds, no latencies
    latencies_s: Sequence[float] = field(default_factory=list)
    busy_s: float = 0.0
    ops: int = 0  # operations in the ops_per_s sense; figures counts rows, not calls
    outputs: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    failure_kinds: dict[str, int] = field(default_factory=dict)
    by_k: dict[int, list[int]] = field(default_factory=dict)  # k -> [attempted, failed]

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


# -- figures ---------------------------------------------------------------


def figures_argv(offset: float, out_dir: Path, l_step: float = 1.0) -> list[str]:
    return [
        "figures",
        "--out",
        str(out_dir),
        "--l-min",
        repr(offset),
        "--l-max",
        repr(250.0 + offset),
        "--l-step",
        repr(l_step),
    ]


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _check_figures_output(out_dir: Path, expected_rows: int, result: Pass) -> int:
    rows = 0
    for tag, published in PUBLISHED.items():
        combined = out_dir / f"rates_{tag}" / "combined.csv"
        table = out_dir / f"distances_{tag}.csv"
        if not combined.is_file() or not table.is_file():
            result.problem(f"figures: missing output for {tag}")
            continue
        rows += len(combined.read_text().splitlines()) - 1
        got = {}
        for line in table.read_text().splitlines()[1:]:
            name, _, value = line.partition(",")
            got[name] = float(value) if value else None
        for name, ref in published.items():
            value = got.get(name)
            if value is None or not abs(value - ref) <= DISTANCE_TOL_KM:
                result.problem(f"figures: {tag} {name} distance {value} km, published {ref} km")
    if rows != expected_rows:
        result.problem(f"figures: {rows} rows written, expected {expected_rows}")
    return rows


def figures_pass(
    prog,
    offset: float,
    work_dir: Path,
    min_calls: int,
    seconds: float = 0.0,
    wall: bool = False,
    l_step: float = 1.0,
) -> Pass:
    """Call ``cli.main(['figures', ...])`` until ``seconds`` pass, at least ``min_calls`` times.

    Every call uses the same seeded distance grid, so all must write
    byte-identical files.  By default every call, and every sweep with a
    tracer that wraps only ``cli.run_scenario``, is timed on the clock of a
    speed probe.  With ``wall`` the calls are timed in wall seconds and
    sweeps are not recorded; traced runs use that for both passes and install
    the full set of wrappers around the traced one.
    """
    result = Pass()
    probe = speed.SpeedProbe()
    sweeps = spans.Tracer(clock=probe.clock)
    clock = perf_counter if wall else probe.clock
    calls = []
    # the CLI's sweep grid is arange(l_min, l_max + step/2, step)
    sweep_rows = len(np.arange(offset, 250.0 + offset + 0.5 * l_step, l_step))
    expected_rows = 16 * sweep_rows
    digests = []
    started = perf_counter()
    with contextlib.nullcontext() if wall else probe:
        while len(digests) < min_calls or perf_counter() - started < seconds:
            out_dir = work_dir / f"call{len(digests)}"
            with contextlib.ExitStack() as stack:
                stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
                if not wall:
                    stack.enter_context(spans.installed(sweeps, vars(prog), only={SWEEP_SPAN}))
                t0 = clock()
                code = prog.cli.main(figures_argv(offset, out_dir, l_step))
                calls.append((t0, clock()))
            result.attempted += 1
            if code != 0:
                result.failed += 1
                result.problem(f"figures: cli.main exit code {code}")
            result.ops += _check_figures_output(out_dir, expected_rows, result)
            digests.append(_tree_digest(out_dir))
            shutil.rmtree(out_dir)
    if wall:
        result.busy_s = sum(end - start for start, end in calls)
    else:
        result.busy_s = sum(probe.scaled(calls))
        result.latencies_s = [s / sweep_rows for s in probe.scaled(sweeps.intervals(SWEEP_SPAN))]
    if len(set(digests)) != 1:
        result.problem("figures: repeated calls on the same grid wrote different bytes")
    result.outputs = digests[:1]
    return result


# -- estimate --------------------------------------------------------------


def estimate_op(prog, block: gen.Block, cache: list):
    """One block: (re)build the grid's table if new, then stats, bounds, rate."""
    if cache[0] != block.grid_id:
        grid = prog.expansion.IntensityGrid(block.mus, min_spacing=gen.GRID_SPACING_FLOOR)
        cache[:] = [block.grid_id, grid, prog.expansion.ExpansionTable.build(grid)]
    _, grid, table = cache
    theta, a0, a1, p0, p_dark, s = block.channel
    params = prog.channel.ChannelParams(theta=theta, a0=a0, a1=a1, p0=p0, pD=p_dark, s=s)
    alpha = prog.channel.alpha_of_distance(block.length_km, params)
    stats = prog.channel.model_stats(grid, alpha, params)
    bound = prog.bounds.aggregate(stats, grid, table)
    k = grid.k
    inputs = prog.keyrate.RateInputs(
        mu_signal=grid.signal,
        q1=bound.q1_min,
        b1=bound.b1_max,
        q0=p0 - p_dark,
        p_signal=stats.p[k],
        s_signal=stats.s[k - 1],
        pD=p_dark,
    )
    rate = prog.keyrate.akg_rate(inputs, block.direction)
    return (alpha, bound.q1_min, bound.b1_max, rate)


def check_estimate(block: gen.Block, output, result: Pass) -> None:
    """Finite outputs; q1_min below and b1_max above the model's true values."""
    alpha, q1_min, b1_max, rate = output
    _, _, _, p0, p_dark, s = block.channel
    true_q1 = alpha + p0 - p_dark
    true_b1 = s * alpha + 0.5 * (p0 - p_dark)
    if not all(math.isfinite(v) for v in output):
        result.problem(f"estimate: non-finite output {output} for {block}")
    elif q1_min > true_q1 * (1.0 + SOUNDNESS_RTOL):
        result.problem(f"estimate: q1_min {q1_min!r} above true q1 {true_q1!r} for {block}")
    elif b1_max < true_b1 * (1.0 - SOUNDNESS_RTOL):
        result.problem(f"estimate: b1_max {b1_max!r} below true b1 {true_b1!r} for {block}")


# -- verify ----------------------------------------------------------------


def verify_op(prog, inst: gen.Instance):
    """One instance: matrices, table, closed-form bounds and both LP oracles.

    Returns (program constraint matrix, outputs); outputs is (q1_min, b1_max,
    lp_q1, lp_b1), with None for the LP values when the oracle reported the
    (feasible) system infeasible.
    """
    expansion, bounds = prog.expansion, prog.bounds
    grid = expansion.IntensityGrid(inst.mus, min_spacing=gen.GRID_SPACING_FLOOR)
    matrices = expansion.build_matrices(grid)
    table = expansion.ExpansionTable.build(grid)
    stats = bounds.ObservedStats(inst.p, inst.s, inst.p_dark)
    agg = bounds.aggregate(stats, grid, table)
    try:
        lp_q1 = bounds.lp_oracle_q1_min(stats, grid, table)
        lp_b1 = bounds.lp_oracle_b1_max(stats, grid, table)
    except bounds.InfeasibleStatsError:
        return matrices.constraint.p, (agg.q1_min, agg.b1_max, None, None)
    return matrices.constraint.p, (agg.q1_min, agg.b1_max, lp_q1, lp_b1)


def check_verify(inst: gen.Instance, matrix, output, result: Pass) -> None:
    """Count LP deviations above criterion 8's bound and false infeasibles as failures."""
    if matrix.shape != inst.matrix.shape or np.max(np.abs(matrix - inst.matrix)) > MATRIX_ATOL:
        result.problem(f"verify: build_matrices disagrees with the generator for mus={inst.mus}")
    q1_min, b1_max, lp_q1, lp_b1 = output
    counts = result.by_k.setdefault(inst.k, [0, 0])
    counts[0] += 1
    if lp_q1 is None:
        kind = "lp_false_infeasible"
    elif max(abs(lp_q1 - q1_min), abs(lp_b1 - b1_max)) > LP_TOL:
        kind = "lp_mismatches"
    else:
        return
    counts[1] += 1
    result.failed += 1
    result.failure_kinds[kind] = result.failure_kinds.get(kind, 0) + 1


def lp_drift(prog, seed: int, count: int) -> Pass:
    """The LP oracle's drift on the first ``count`` k = 7..10 instances, untimed.

    This is ROADMAP item 5's known defect: ``failed`` and ``failure_kinds``
    count it here, apart from the verify workload's own operations.
    """
    result = Pass()
    for inst in islice(gen.drift_instances(seed), count):
        matrix, output = verify_op(prog, inst)
        result.attempted += 1
        check_verify(inst, matrix, output, result)
    return result


# -- shared closed loop ----------------------------------------------------


def input_stream(workload: str, seed: int) -> Iterator:
    """The endless seeded inputs of the estimate or verify workload."""
    return {"estimate": gen.estimate_blocks, "verify": gen.verify_instances}[workload](seed)


def make_op(prog, workload: str):
    """(run_op, check, key) for the estimate or verify workload.

    Each ``run_op`` keeps its own grid cache, so two of them replay one input
    sequence independently.  ``key`` picks the part of an output that traced
    and untraced passes must agree on.
    """
    if workload == "estimate":
        cache: list = [None, None, None]
        return (lambda block: estimate_op(prog, block, cache)), check_estimate, (lambda out: out)

    def check(inst, pair, result):
        check_verify(inst, pair[0], pair[1], result)

    return (lambda inst: verify_op(prog, inst)), check, (lambda pair: pair[1])


def timed_op(run_op: Callable, item, check: Callable, result: Pass, key=None, clock=perf_counter):
    """Run one op, check its output and return its (start, end) on ``clock``."""
    t0 = clock()
    output = run_op(item)
    t1 = clock()
    result.attempted += 1
    result.ops += 1
    check(item, output, result)
    if key is not None:
        result.outputs.append(key(output))
    return t0, t1


def closed_loop(prog, workload: str, inputs: Iterable, seconds: Optional[float] = None) -> Pass:
    """Run ops one after another until ``seconds`` of wall time pass or the inputs end."""
    run_op, check, _ = make_op(prog, workload)
    result = Pass()
    probe = speed.SpeedProbe()
    # flat arrays, so that memory does not grow with the number of ops a host fits in
    starts, ends = array("d"), array("d")
    deadline = None if seconds is None else perf_counter() + seconds
    with probe:
        for item in inputs:
            start, end = timed_op(run_op, item, check, result, clock=probe.clock)
            starts.append(start)
            ends.append(end)
            if deadline is not None and perf_counter() >= deadline:
                break
    result.latencies_s = probe.scaled(zip(starts, ends))
    result.busy_s = sum(result.latencies_s)
    return result


def paired_loop(prog, workload: str, items: Iterable, tracer: spans.Tracer, modules: dict):
    """Each input untraced, then traced; returns the (untraced, traced) passes.

    Alternating op by op exposes both passes to the same host speed, so their
    difference measures the tracing overhead rather than the host's drift.
    The wrappers are installed only around each traced op.
    """
    plain_op, check, key = make_op(prog, workload)
    traced_op, _, _ = make_op(prog, workload)
    plain, traced = Pass(), Pass()
    for index, item in enumerate(items):
        start, end = timed_op(plain_op, item, check, plain, key)
        plain.busy_s += end - start
        tracer.current_op = index
        with spans.installed(tracer, modules):
            start, end = timed_op(traced_op, item, check, traced, key)
        traced.busy_s += end - start
    return plain, traced
