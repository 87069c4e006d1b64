"""In-memory span recorder and the wrappers that attach it to ``decoy_akg``.

The benchmark measures each layer from outside: for a traced run it replaces
public module attributes (for example ``decoy_akg.scenarios.
optimize_signal_intensity``) with wrappers that record a span around the call
and pass arguments and results through unchanged.  ``installed`` puts every
wrapper in place and restores the original attributes on exit, also when
the workload raises.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span or -1, and ``op`` the id of the benchmark operation that was
running.  A span's self time is its duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np


class Tracer:
    """Span and counter store for one traced pass.

    Spans are timed with ``clock``: wall time by default, or for example
    ``time.process_time`` for CPU time.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.origin = clock()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` recorded around every call."""
        name_id = self._name_id(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        duration = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.int64)
        covered = np.zeros(duration.size)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        width = len(self.names)
        counts = np.bincount(names, minlength=width)
        totals = np.bincount(names, weights=duration, minlength=width)
        selfs = np.bincount(names, weights=duration - covered, minlength=width)
        return {
            name: {"calls": int(counts[i]), "total_s": float(totals[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)
        }

    def intervals(self, name: str) -> list[tuple[float, float]]:
        """(start, end) of every span named ``name``, in recording order."""
        if name not in self._ids:
            return []
        name_id = self._ids[name]
        return [(s, e) for n, s, e in zip(self.name, self.start, self.end) if n == name_id]

    def write(self, path: Path, meta: dict) -> None:
        """Write every span, columnar, with times relative to the tracer's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta)
        doc.update(
            names=self.names,
            name=self.name.tolist(),
            start=(np.frombuffer(self.start, dtype=float) - self.origin).tolist(),
            end=(np.frombuffer(self.end, dtype=float) - self.origin).tolist(),
            parent=self.parent.tolist(),
            op=self.op.tolist(),
            counters=dict(self.counters),
        )
        path.write_text(json.dumps(doc))


class MissingEntryPoint(RuntimeError):
    """A wrapped entry point is gone, so the metrics it feeds would read 0."""


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable[[object], object]) -> None:
        original = vars(owner).get(attr)
        if original is None:
            raise MissingEntryPoint(
                f"{getattr(owner, '__name__', owner)}.{attr} no longer exists; "
                "update perfbench/spans.py so that its layer metrics stay measured"
            )
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _optimize_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Spans for the optimizer, its scalar (golden-section) and grid evaluations.

    Also counts optima within ten search tolerances of either bracket edge.
    """
    signature = inspect.signature(fn)
    traced_fn = tracer.wrap(name, fn)

    @functools.wraps(fn)
    def optimize(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        if bound.arguments.get("rate_fn") is not None:
            bound.arguments["rate_fn"] = tracer.wrap("keyrate.golden_eval", bound.arguments["rate_fn"])
        if bound.arguments.get("vector_fn") is not None:
            bound.arguments["vector_fn"] = tracer.wrap("keyrate.grid_eval", bound.arguments["vector_fn"])
        result = traced_fn(*bound.args, **bound.kwargs)
        bound.apply_defaults()
        edge = 10.0 * bound.arguments["tol"]
        mu = result[0]
        if mu - bound.arguments["mu_lower"] <= edge or bound.arguments["mu_cap"] - mu <= edge:
            tracer.counters["keyrate.edge_optima"] += 1
        return result

    return optimize


def _find_zero_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """A span for each envelope evaluation that distance root finding makes."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def find_zero(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments["envelope"] = tracer.wrap(name, bound.arguments["envelope"])
        return fn(*bound.args, **bound.kwargs)

    return find_zero


def _linprog_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Span for each HiGHS solve; adds the solver's iteration count."""
    traced_fn = tracer.wrap(name, fn)

    @functools.wraps(fn)
    def linprog(*args, **kwargs):
        result = traced_fn(*args, **kwargs)
        tracer.counters["bounds.highs_iterations"] += int(getattr(result, "nit", 0) or 0)
        return result

    return linprog


def _run_scenario_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Span per scenario sweep; each sweep is one op id."""
    traced_fn = tracer.wrap(name, fn)

    @functools.wraps(fn)
    def run_scenario(*args, **kwargs):
        tracer.current_op += 1
        return traced_fn(*args, **kwargs)

    return run_scenario


def _build_wrapper(tracer: Tracer, name: str, original: classmethod) -> classmethod:
    return classmethod(tracer.wrap(name, original.__func__))


def _plain_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    return tracer.wrap(name, fn)


# (layer, owner attribute or None for the module itself, attribute, span name, wrapper)
TARGETS = (
    ("scenarios", None, "binary_entropy_bar", "keyrate.entropy", _plain_wrapper),
    ("keyrate", None, "binary_entropy_bar", "keyrate.entropy", _plain_wrapper),
    ("scenarios", None, "single_photon_credit", "keyrate.credit", _plain_wrapper),
    ("keyrate", None, "single_photon_credit", "keyrate.credit", _plain_wrapper),
    ("keyrate", None, "akg_rate", "keyrate.akg_rate", _plain_wrapper),
    ("scenarios", None, "optimize_signal_intensity", "keyrate.optimize", _optimize_wrapper),
    ("scenarios", None, "find_zero_distance", "keyrate.bisect_eval", _find_zero_wrapper),
    ("cli", None, "run_scenario", "scenarios.run_scenario", _run_scenario_wrapper),
    ("cli", None, "emit", "cli.emit", _plain_wrapper),
    ("cli", None, "_emit_distance_table", "cli.emit", _plain_wrapper),
    ("cli", None, "_emit_intensity_profile", "cli.emit", _plain_wrapper),
    ("expansion", None, "divided_difference_recurrence", "divided_diff.recurrence", _plain_wrapper),
    ("expansion", None, "omega", "expansion.omega", _plain_wrapper),
    ("expansion", None, "build_matrices", "expansion.build_matrices", _plain_wrapper),
    ("expansion", "ExpansionTable", "build", "expansion.build", _build_wrapper),
    ("channel", None, "model_stats", "channel.model_stats", _plain_wrapper),
    ("bounds", None, "aggregate", "bounds.aggregate", _plain_wrapper),
    ("bounds", None, "linprog", "bounds.linprog", _linprog_wrapper),
)


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict[str, object], only=None) -> Iterator[None]:
    """Attach ``tracer`` to the ``decoy_akg`` modules for the ``with`` body.

    ``modules`` maps short layer names ('cli', 'scenarios', ...) to the
    imported modules; ``only``, if given, is the set of span names to
    install.  A missing entry point raises ``MissingEntryPoint``.  Every
    replaced attribute is restored on exit.
    """
    patches = _Patches()
    try:
        for layer, owner, attr, name, wrapper in TARGETS:
            if only is not None and name not in only:
                continue
            target = modules[layer] if owner is None else vars(modules[layer]).get(owner)
            if target is None:
                raise MissingEntryPoint(f"decoy_akg.{layer}.{owner} no longer exists")
            patches.replace(target, attr, functools.partial(wrapper, tracer, name))
        yield
    finally:
        patches.restore()
