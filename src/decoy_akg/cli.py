"""Command-line front end: scenario sweeps and plot-ready data files.

``decoy-akg run`` sweeps one or more scenarios over a distance range and
writes one data file per scenario plus a combined file.  ``decoy-akg
figures`` regenerates the standard comparison datasets (rate and optimal
intensity versus distance for every scenario set) together with the three
achievable-distance tables in one invocation.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .bounds import InfeasibleStatsError
from .channel import STANDARD_FIBER, ChannelParams
from .keyrate import DIRECTIONS
from .scenarios import (
    DARK_MODES,
    SCENARIO_NAMES,
    ConfigurationError,
    ScenarioSpec,
    SweepResult,
    _checked_range,
    _sweep_key,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CSV_HEADER = (
    "scenario,L_km,optimal_mu,rate_bits_per_pulse,rate_signed,"
    "q1_min,b1_max,q1_min_source_j,b1_max_source_j"
)

_PARAM_KEYS = tuple(f.name for f in fields(ChannelParams))

# output format: (column separator, file suffix)
_FORMATS = {"csv": (",", ".csv"), "gnuplot-data": (" ", ".dat")}


def _fmt(value: float) -> str:
    return format(value, ".12g")


def load_params_file(path: Path) -> ChannelParams:
    """Read channel parameters from a ``key = value`` file.

    Recognized keys: theta, a0, a1, p0, pD, s, each at most once.  Missing
    keys keep the standard-fiber defaults; '#' starts a comment.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc})") from exc
    values, set_on = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PARAM_KEYS:
            raise ConfigurationError(
                f"{path}:{lineno}: unknown parameter {key!r}; known keys: {', '.join(_PARAM_KEYS)}"
            )
        if key in set_on:
            raise ConfigurationError(f"{path}:{lineno}: {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = float(value.strip())
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
    try:
        return replace(STANDARD_FIBER, **values)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _describe(spec: ScenarioSpec) -> str:
    ch = spec.channel
    decoys = ",".join(_fmt(m) for m in spec.decoy_mus) or "none"
    return (
        f"scenario={spec.name} direction={spec.direction} dark_mode={spec.dark_mode} "
        f"dark_rate={_fmt(spec.dark_rate_effective)} decoys={decoys} "
        f"signal_lower={_fmt(spec.signal_lower)} | channel: theta={_fmt(ch.theta)} "
        f"a0={_fmt(ch.a0)} a1={_fmt(ch.a1)} p0={_fmt(ch.p0)} s={_fmt(ch.s)}"
    )


def _rows_lines(result: SweepResult, sep: str) -> list[str]:
    # "%.12g" % x is _fmt(x) and "%d" % j is str(j).  A positive signed rate
    # is its clamped rate, the same float, so one text serves both
    template = sep.join(("%s", "%.12g", "%.12g", "%s", "%s", "%.12g", "%.12g", "%d", "%d"))
    name, lines = result.spec.name, []
    for row in result.rows:
        distance, mu, rate, signed, q1, b1, q_j, b_j = row
        text = "%.12g" % signed
        rate_text = text if signed > 0.0 else "%.12g" % rate
        lines.append(template % (name, distance, mu, rate_text, text, q1, b1, q_j, b_j))
    return lines


def emit(
    results: Sequence[SweepResult],
    fmt: str,
    out_dir: Path,
    lines: Optional[Sequence[list[str]]] = None,
) -> list[Path]:
    """Write one file per scenario plus a combined file; returns the paths.

    ``fmt`` is 'csv' or 'gnuplot-data'.  gnuplot data uses whitespace
    separated columns with one blank-line-separated block per scenario.
    ``lines``, if given, holds each result's rows as ``_rows_lines`` formats
    them for ``fmt``.  Output is deterministic for identical inputs.
    """
    if not results:
        raise ConfigurationError("nothing to emit: no sweep results")
    if fmt not in _FORMATS:
        raise ConfigurationError(f"unknown output format {fmt!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    sep, suffix = _FORMATS[fmt]
    header = CSV_HEADER.replace(",", sep)
    written = []
    combined = [header if fmt == "csv" else f"# {header}"]
    for index, result in enumerate(results):
        spec = result.spec
        rows = lines[index] if lines is not None else _rows_lines(result, sep)
        path = out_dir / f"{spec.name}_{spec.direction}_{spec.dark_mode}{suffix}"
        path.write_text("\n".join([f"# {_describe(spec)}", header, *rows]) + "\n")
        written.append(path)
        if fmt == "gnuplot-data":
            if index:
                combined.append("")  # block separator
            combined.append(f"# {_describe(spec)}")
        combined.extend(rows)
    path = out_dir / f"combined{suffix}"
    path.write_text("\n".join(combined) + "\n")
    written.append(path)
    return written


def _emit_distance_table(results: Iterable[SweepResult], path: Path) -> None:
    lines = ["scenario,achievable_km"]
    for result in results:
        value = "" if result.achievable_km is None else _fmt(result.achievable_km)
        lines.append(f"{result.spec.name},{value}")
    path.write_text("\n".join(lines) + "\n")


def _emit_intensity_profile(lines: Iterable[list[str]], sep: str, path: Path) -> None:
    """Write each row's scenario, distance and optimal signal, cut from its output line.

    ``lines`` holds each result's rows as ``_rows_lines`` formats them with
    ``sep``; no scenario name holds a separator.
    """
    profile = ["scenario,L_km,optimal_mu"]
    profile += [",".join(line.split(sep, 3)[:3]) for rows in lines for line in rows]
    path.write_text("\n".join(profile) + "\n")


def _print_reach(label: str, result: SweepResult) -> None:
    reach = result.achievable_km
    reach_text = "beyond range" if reach is None else f"{reach:.2f} km"
    print(f"{label}: achievable distance {reach_text}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoy-akg",
        description="Decoy-intensity key-rate sweeps over fiber distance",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # the options of both commands
    shared.add_argument("--out", type=Path, default=Path("results"))
    shared.add_argument("--l-min", type=float, default=0.0)
    shared.add_argument("--l-max", type=float, default=250.0)
    shared.add_argument("--l-step", type=float, default=1.0)
    shared.add_argument("--format", choices=tuple(_FORMATS), default="csv")
    shared.add_argument("--params-file", type=Path, default=None)

    run_p = sub.add_parser("run", parents=[shared], help="sweep scenarios over a distance range")
    run_p.add_argument(
        "--scenario",
        default="k3-ours",
        help=f"comma-separated scenario names from {SCENARIO_NAMES}",
    )
    run_p.add_argument("--direction", choices=DIRECTIONS, default="forward")
    run_p.add_argument("--dark-mode", choices=DARK_MODES, default="pd-zero")
    run_p.add_argument("--dark-rate", type=float, default=None, help="for --dark-mode explicit")
    run_p.add_argument(
        "--decoys", default=None, help="comma-separated decoy intensities (scenario=custom)"
    )
    run_p.add_argument(
        "--signal-lower", type=float, default=None, help="lower limit of the signal search"
    )
    sub.add_parser(
        "figures", parents=[shared], help="regenerate all comparison datasets and distance tables"
    )
    return parser


def _cmd_run(args) -> int:
    channel = load_params_file(args.params_file) if args.params_file else STANDARD_FIBER
    decoys = None
    if args.decoys is not None:
        try:
            decoys = [float(v) for v in args.decoys.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigurationError(f"--decoys: {exc}") from exc
    names = [n for n in (n.strip() for n in args.scenario.split(",")) if n]
    if not names:
        raise ConfigurationError("no scenario names given")
    if len(set(names)) < len(names):
        raise ConfigurationError("a scenario listed twice would overwrite its own files")
    if decoys is not None and "custom" not in names:
        raise ConfigurationError("--decoys applies only to the 'custom' scenario")
    specs = [
        ScenarioSpec(
            name,
            direction=args.direction,
            dark_mode=args.dark_mode,
            channel=channel,
            decoy_mus=decoys if name == "custom" else None,
            signal_lower=args.signal_lower,
            dark_rate=args.dark_rate,
        )
        for name in names
    ]
    l_range = (args.l_min, args.l_max, args.l_step)
    _checked_range(l_range, len(specs))
    results = [run_scenario(spec, l_range) for spec in specs]
    paths = emit(results, args.format, args.out)
    for result in results:
        _print_reach(f"{result.spec.name} ({result.spec.direction})", result)
    print(f"wrote {len(paths)} files to {args.out}")
    return EXIT_OK


_FIGURE_SETS = (
    ("forward", "pd-zero", ("k3-ma", "k2", "k3-wang", "k3-ours", "k4", "universal")),
    ("forward", "pd-equals-p0", ("k2", "k3-wang", "k3-ours", "k4", "universal")),
    ("reverse", "pd-equals-p0", ("k2", "k3-wang", "k3-ours", "k4", "universal")),
)


def _cmd_figures(args) -> int:
    channel = load_params_file(args.params_file) if args.params_file else STANDARD_FIBER
    figure_sets = [
        (direction, dark_mode, [ScenarioSpec(n, direction, dark_mode, channel) for n in names])
        for direction, dark_mode, names in _FIGURE_SETS
    ]
    l_range = (args.l_min, args.l_max, args.l_step)
    _checked_range(l_range, len({_sweep_key(spec) for *_, specs in figure_sets for spec in specs}))
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    sep = _FORMATS[args.format][0]
    # sweep key -> (result, its formatted rows): a spec whose engine reads what
    # an earlier one read (the forward pD = p0 set) reuses both under its own
    # spec; the rows read only the spec's name, which the key holds
    sweeps: dict[tuple, tuple[SweepResult, list[str]]] = {}
    for direction, dark_mode, specs in figure_sets:
        results, lines = [], []
        for spec in specs:
            key = _sweep_key(spec)
            if key not in sweeps:
                result = run_scenario(spec, l_range)
                sweeps[key] = (result, _rows_lines(result, sep))
            result, rows = sweeps[key]
            results.append(replace(result, spec=spec))
            lines.append(rows)
        tag = f"{direction}_{dark_mode}"
        emit(results, args.format, out / f"rates_{tag}", lines)
        _emit_distance_table(results, out / f"distances_{tag}.csv")
        if direction == "reverse":
            _emit_intensity_profile(lines, sep, out / f"optimal_intensity_{tag}.csv")
        for result in results:
            _print_reach(f"[{tag}] {result.spec.name}", result)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_figures(args)
    except (ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:  # a sweep too large for memory, after its scan was allocated
        print("configuration error: out of memory; shorten the distance scan", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleStatsError, RuntimeError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
