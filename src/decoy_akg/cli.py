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
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

from .bounds import InfeasibleStatsError
from .channel import STANDARD_FIBER, ChannelParams
from .scenarios import (
    DARK_MODES,
    SCENARIO_NAMES,
    ConfigurationError,
    ScenarioSpec,
    SweepResult,
    run_scenario,
    scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CSV_HEADER = (
    "scenario,L_km,optimal_mu,rate_bits_per_pulse,rate_signed,"
    "q1_min,b1_max,q1_min_source_j,b1_max_source_j"
)

_PARAM_KEYS = ("theta", "a0", "a1", "p0", "pD", "s")


def _fmt(value: float) -> str:
    return format(value, ".12g")


def load_params_file(path: Path) -> ChannelParams:
    """Read channel parameters from a ``key = value`` file.

    Recognized keys: theta, a0, a1, p0, pD, s.  Missing keys keep the
    standard-fiber defaults; '#' starts a comment.
    """
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
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
    lines = []
    for row in result.rows:
        fields = (
            result.spec.name,
            _fmt(row.L_km),
            _fmt(row.optimal_mu),
            _fmt(row.rate),
            _fmt(row.rate_signed),
            _fmt(row.q1_min),
            _fmt(row.b1_max),
            str(row.q1_source_j),
            str(row.b1_source_j),
        )
        lines.append(sep.join(fields))
    return lines


def emit(results: Sequence[SweepResult], fmt: str, out_dir: Path) -> list[Path]:
    """Write one file per scenario plus a combined file; returns the paths.

    ``fmt`` is 'csv' or 'gnuplot-data'.  gnuplot data uses whitespace
    separated columns with one blank-line-separated block per scenario.
    Output is deterministic for identical inputs.
    """
    if not results:
        raise ConfigurationError("nothing to emit: no sweep results")
    if fmt not in ("csv", "gnuplot-data"):
        raise ConfigurationError(f"unknown output format {fmt!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    sep = "," if fmt == "csv" else " "
    suffix = ".csv" if fmt == "csv" else ".dat"
    header = CSV_HEADER if fmt == "csv" else CSV_HEADER.replace(",", " ")
    written = []

    def scenario_file(result: SweepResult) -> list[str]:
        lines = [f"# {_describe(result.spec)}", header]
        lines.extend(_rows_lines(result, sep))
        return lines

    for result in results:
        tag = f"{result.spec.name}_{result.spec.direction}_{result.spec.dark_mode}"
        path = out_dir / f"{tag}{suffix}"
        path.write_text("\n".join(scenario_file(result)) + "\n")
        written.append(path)

    combined = [header if fmt == "csv" else f"# {header}"]
    for index, result in enumerate(results):
        if fmt == "gnuplot-data":
            if index:
                combined.append("")  # block separator
            combined.append(f"# {_describe(result.spec)}")
        combined.extend(_rows_lines(result, sep))
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


def _emit_intensity_profile(results: Iterable[SweepResult], path: Path) -> None:
    lines = ["scenario,L_km,optimal_mu"]
    for result in results:
        for row in result.rows:
            lines.append(f"{result.spec.name},{_fmt(row.L_km)},{_fmt(row.optimal_mu)}")
    path.write_text("\n".join(lines) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoy-akg",
        description="Decoy-intensity key-rate sweeps over fiber distance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="sweep scenarios over a distance range")
    run_p.add_argument(
        "--scenario",
        default="k3-ours",
        help=f"comma-separated scenario names from {SCENARIO_NAMES}",
    )
    run_p.add_argument("--direction", choices=("forward", "reverse"), default="forward")
    run_p.add_argument("--dark-mode", choices=DARK_MODES, default="pd-zero")
    run_p.add_argument("--dark-rate", type=float, default=None, help="for --dark-mode explicit")
    run_p.add_argument("--l-min", type=float, default=0.0)
    run_p.add_argument("--l-max", type=float, default=250.0)
    run_p.add_argument("--l-step", type=float, default=1.0)
    run_p.add_argument("--format", choices=("csv", "gnuplot-data"), default="csv")
    run_p.add_argument("--out", type=Path, default=Path("results"))
    run_p.add_argument("--params-file", type=Path, default=None)
    run_p.add_argument(
        "--decoys", default=None, help="comma-separated decoy intensities (scenario=custom)"
    )
    run_p.add_argument(
        "--signal-lower", type=float, default=None, help="lower limit of the signal search"
    )

    fig_p = sub.add_parser(
        "figures", help="regenerate all comparison datasets and distance tables"
    )
    fig_p.add_argument("--out", type=Path, default=Path("results"))
    fig_p.add_argument("--l-min", type=float, default=0.0)
    fig_p.add_argument("--l-max", type=float, default=250.0)
    fig_p.add_argument("--l-step", type=float, default=1.0)
    fig_p.add_argument("--format", choices=("csv", "gnuplot-data"), default="csv")
    fig_p.add_argument("--params-file", type=Path, default=None)
    return parser


def _cmd_run(args) -> int:
    channel = load_params_file(args.params_file) if args.params_file else STANDARD_FIBER
    decoys = None
    if args.decoys is not None:
        try:
            decoys = [float(v) for v in args.decoys.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigurationError(f"--decoys: {exc}") from exc
    specs = []
    for name in (n.strip() for n in args.scenario.split(",")):
        if not name:
            continue
        specs.append(
            scenario(
                name,
                direction=args.direction,
                dark_mode=args.dark_mode,
                channel=channel,
                decoys=decoys if name == "custom" else None,
                signal_lower=args.signal_lower,
                dark_rate=args.dark_rate,
            )
        )
    if not specs:
        raise ConfigurationError("no scenario names given")
    if args.l_max < args.l_min:
        raise ConfigurationError("--l-max must not be below --l-min")
    results = [run_scenario(spec, (args.l_min, args.l_max, args.l_step)) for spec in specs]
    paths = emit(results, args.format, args.out)
    for result in results:
        reach = result.achievable_km
        reach_text = "beyond range" if reach is None else f"{reach:.2f} km"
        print(f"{result.spec.name} ({result.spec.direction}): achievable distance {reach_text}")
    print(f"wrote {len(paths)} files to {args.out}")
    return EXIT_OK


_FIGURE_SETS = (
    ("forward", "pd-zero", ("k3-ma", "k2", "k3-wang", "k3-ours", "k4", "universal")),
    ("forward", "pd-equals-p0", ("k2", "k3-wang", "k3-ours", "k4", "universal")),
    ("reverse", "pd-equals-p0", ("k2", "k3-wang", "k3-ours", "k4", "universal")),
)


def _cmd_figures(args) -> int:
    channel = load_params_file(args.params_file) if args.params_file else STANDARD_FIBER
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    for direction, dark_mode, names in _FIGURE_SETS:
        specs = [scenario(n, direction=direction, dark_mode=dark_mode, channel=channel) for n in names]
        results = [run_scenario(spec, (args.l_min, args.l_max, args.l_step)) for spec in specs]
        tag = f"{direction}_{dark_mode}"
        emit(results, args.format, out / f"rates_{tag}")
        _emit_distance_table(results, out / f"distances_{tag}.csv")
        if direction == "reverse":
            _emit_intensity_profile(results, out / f"optimal_intensity_{tag}.csv")
        for result in results:
            reach = result.achievable_km
            reach_text = "beyond range" if reach is None else f"{reach:.2f} km"
            print(f"[{tag}] {result.spec.name}: achievable distance {reach_text}")
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
    except (InfeasibleStatsError, RuntimeError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
