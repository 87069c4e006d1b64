import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoy_akg import cli
from decoy_akg.scenarios import (
    DARK_MODES,
    SCENARIO_NAMES,
    ConfigurationError,
    ScenarioSpec,
    SweepResult,
    _MAX_DISTANCES,
)
from decoy_akg.cli import CSV_HEADER, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, load_params_file, main


def _run(args):
    return main([str(a) for a in args])


def test_run_writes_schema_and_is_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = [
        "run",
        "--scenario", "k2",
        "--l-min", "220",
        "--l-max", "224",
        "--l-step", "2",
        "--out",
    ]
    assert _run(args + [out_a]) == EXIT_OK
    assert _run(args + [out_b]) == EXIT_OK
    scenario_file = out_a / "k2_forward_pd-zero.csv"
    combined = out_a / "combined.csv"
    assert scenario_file.exists() and combined.exists()
    lines = scenario_file.read_text().splitlines()
    assert lines[0].startswith("# scenario=k2")
    assert "theta=" in lines[0]
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + 3  # three distances
    first = lines[2].split(",")
    assert first[0] == "k2" and first[1] == "220"
    assert first[7] == "2" and first[8] == "1"  # source-j diagnostics
    # byte-identical re-run
    for name in ("k2_forward_pd-zero.csv", "combined.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_start_does_not_load_scipy(tmp_path):
    # SciPy serves only the LP oracle and decoy_akg.reference only the tests and
    # scripts; neither starting the CLI nor a figures run may load them
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import decoy_akg.cli; "
        "decoy_akg.cli._build_parser(); "
        "assert decoy_akg.cli.main(['figures', '--l-step', '50', '--out', sys.argv[2]]) == 0; "
        "print(sorted(m for m in sys.modules if m in ('scipy', 'decoy_akg.reference') "
        "or m.startswith('scipy.')))"
    )
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code, str(src), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"  # after the tables figures prints


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], EXIT_OK),
        (["figures", "--format", "xml"], EXIT_CONFIG),  # refused by the parser
    ],
)
def test_module_entry_point_exit_codes(tmp_path, argv, code):
    # python -m decoy_akg is the console script: same exit codes, no traceback
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "decoy_akg", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,  # where the default --out would go
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == EXIT_OK:
        assert done.stdout.startswith("usage:")


def test_scan_too_large_to_allocate_is_config_error(tmp_path):
    # 2.5e8 distances would need 2 GB.  The distance count refuses them before
    # anything is allocated, so the 1.5 GB address-space limit is never
    # reached: a configuration error, not a traceback
    pytest.importorskip("resource")  # POSIX only
    code = (
        "import resource, sys; sys.path.insert(0, sys.argv[1]); "
        "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000)); "
        "from decoy_akg import cli; "
        "sys.exit(cli.main(['run', '--scenario', 'k2', '--l-step', '1e-6', '--out', sys.argv[2]]))"
    )
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code, str(src), str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert done.stderr.startswith("configuration error: distance scan is too long")
    assert "Traceback" not in done.stderr


def test_sweep_out_of_memory_is_config_error(tmp_path):
    # 500,001 distances pass the distance count, and their scan fits in 32 MB
    # above the imported process; under that address-space cap the sweep runs
    # out of memory (in its first block's coarse grid, seen with numpy 2.4),
    # which cli.main reports as exit 2 and not as a traceback
    pytest.importorskip("resource")  # POSIX only
    if not Path("/proc/self/statm").exists():
        pytest.skip("needs /proc/self/statm to read the process's size")
    assert 500_001 < _MAX_DISTANCES
    code = (
        "import resource, sys; sys.path.insert(0, sys.argv[1]); "
        "from decoy_akg import cli; "
        "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize(); "
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
        "resource.setrlimit(resource.RLIMIT_AS, (size + 32 * 2**20, hard)); "
        "sys.exit(cli.main(['run', '--scenario', 'k2', '--l-step', '5e-4', '--out', sys.argv[2]]))"
    )
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code, str(src), str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert done.stderr == "configuration error: out of memory; shorten the distance scan\n"


def test_run_multiple_scenarios_combined(tmp_path):
    args = [
        "run",
        "--scenario", "k2,universal",
        "--l-min", "200", "--l-max", "200", "--l-step", "1",
        "--out", tmp_path,
    ]
    assert _run(args) == EXIT_OK
    combined = (tmp_path / "combined.csv").read_text().splitlines()
    assert combined[0] == CSV_HEADER
    names = {line.split(",")[0] for line in combined[1:]}
    assert names == {"k2", "universal"}


def test_gnuplot_format_blocks(tmp_path):
    args = [
        "run",
        "--scenario", "k2,universal",
        "--l-min", "200", "--l-max", "201", "--l-step", "1",
        "--format", "gnuplot-data",
        "--out", tmp_path,
    ]
    assert _run(args) == EXIT_OK
    data = (tmp_path / "combined.dat").read_text()
    blocks = [b for b in data.split("\n\n") if b.strip()]
    assert len(blocks) == 2  # one block per scenario
    assert (tmp_path / "k2_forward_pd-zero.dat").exists()
    # emit refuses an empty result list and a format it cannot write
    result = SweepResult(ScenarioSpec("k2"), rows=())
    for results, fmt, message in (([], "csv", "no sweep results"), ([result], "xml", "format")):
        with pytest.raises(ConfigurationError, match=message):
            cli.emit(results, fmt, tmp_path / "refused")
    assert not (tmp_path / "refused").exists()


def test_custom_scenario_requires_decoys(tmp_path):
    assert _run(["run", "--scenario", "custom", "--out", tmp_path]) == EXIT_CONFIG


def test_bad_decoy_spacing_is_config_error(tmp_path):
    args = ["run", "--scenario", "custom", "--decoys", "0.1,0.15", "--out", tmp_path]
    assert _run(args) == EXIT_CONFIG


def test_empty_range_is_config_error(tmp_path):
    args = ["run", "--scenario", "k2", "--l-min", "10", "--l-max", "0", "--out", tmp_path]
    assert _run(args) == EXIT_CONFIG
    assert not (tmp_path / "combined.csv").exists()


def test_non_utf8_params_file_is_config_error(tmp_path, capsys):
    params_file = tmp_path / "latin.cfg"
    params_file.write_bytes(b"theta = 0.1\n\xff\xfe = 2\n")
    args = ["run", "--scenario", "k2", "--l-max", "1", "--params-file", params_file]
    assert _run(args + ["--out", tmp_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


def test_params_file_roundtrip(tmp_path):
    params_file = tmp_path / "channel.cfg"
    params_file.write_text(
        """
        # alternative fiber
        a1 = 0.21
        p0 = 1e-6
        s = 0.025
        """
    )
    params = load_params_file(params_file)
    assert params.a1 == 0.21
    assert params.p0 == 1e-6
    assert params.s == 0.025
    assert params.theta == 0.1  # default preserved
    bad = tmp_path / "bad.cfg"
    bad.write_text("wavelength = 1550\n")
    assert _run(["run", "--scenario", "k2", "--params-file", bad, "--out", tmp_path]) == EXIT_CONFIG
    twice = tmp_path / "twice.cfg"
    twice.write_text("a1 = 0.17\np0 = 1e-6\na1 = 0.2\n")
    with pytest.raises(ConfigurationError, match="twice.cfg:3: 'a1' already set on line 1"):
        load_params_file(twice)
    assert _run(["run", "--scenario", "k2", "--params-file", twice, "--out", tmp_path]) == EXIT_CONFIG
    malformed = tmp_path / "malformed.cfg"
    for text, message in (("a1 0.2\n", ":1: expected 'key = value'"), ("s = low\n", "float")):
        malformed.write_text(text)
        with pytest.raises(ConfigurationError, match=message):
            load_params_file(malformed)


@pytest.mark.parametrize("command", [["run", "--scenario", "k2"], ["figures"]])
def test_params_file_dark_rate_is_config_error(tmp_path, capsys, command):
    # the dark rate comes from --dark-mode/--dark-rate; a pD in the file would be ignored
    params_file = tmp_path / "dark.cfg"
    params_file.write_text("pD = 2e-7\n")
    args = command + ["--l-max", "1", "--params-file", params_file, "--out", tmp_path / "out"]
    assert _run(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--dark-mode" in err and "Traceback" not in err


def test_figures_command_writes_datasets(tmp_path):
    args = ["figures", "--l-min", "200", "--l-max", "210", "--l-step", "5", "--out", tmp_path]
    assert _run(args) == EXIT_OK
    for tag in ("forward_pd-zero", "forward_pd-equals-p0", "reverse_pd-equals-p0"):
        assert (tmp_path / f"rates_{tag}" / "combined.csv").exists()
        table = (tmp_path / f"distances_{tag}.csv").read_text().splitlines()
        assert table[0] == "scenario,achievable_km"
        assert len(table) >= 6
    profile = (tmp_path / "optimal_intensity_reverse_pd-equals-p0.csv").read_text().splitlines()
    assert profile[0] == "scenario,L_km,optimal_mu"


def test_figures_sweeps_each_sweep_key_once(tmp_path, monkeypatch):
    # the forward pD = p0 set reads what the dark-free set reads: its five
    # sweeps are the dark-free ones, written under their own headers
    calls, run_scenario = [], cli.run_scenario

    def spy(spec, l_range):
        calls.append(spec)
        return run_scenario(spec, l_range)

    monkeypatch.setattr(cli, "run_scenario", spy)
    assert _run(["figures", "--l-step", "50", "--out", tmp_path]) == EXIT_OK
    assert len(calls) == 11
    assert len(list(tmp_path.glob("rates_*/*_*_*.csv"))) == 16
    assert not any(s.direction == "forward" and s.dark_mode == "pd-equals-p0" for s in calls)
    assert sum(1 for path in tmp_path.rglob("*") if path.is_file()) == 23
    for path in (tmp_path / "rates_forward_pd-equals-p0").glob("*_forward_pd-equals-p0.csv"):
        header, *rows = path.read_text().splitlines()
        assert "dark_mode=pd-equals-p0 dark_rate=4e-07 " in header
        twin = tmp_path / "rates_forward_pd-zero" / path.name.replace("pd-equals-p0", "pd-zero")
        assert rows == twin.read_text().splitlines()[1:]


def test_figures_formats_each_sweep_once(tmp_path, monkeypatch):
    # a figures call formats the rows of each of its 11 distinct sweeps once
    # and hands them to emit; each call formats its own (no memo across calls),
    # and the files are those of emit formatting all 16 results itself
    calls, rows_lines, emit = [], cli._rows_lines, cli.emit

    def spy(result, sep):
        calls.append(result.spec)
        return rows_lines(result, sep)

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    monkeypatch.setattr(cli, "_rows_lines", spy)
    for count, out in ((11, "reused"), (22, "again")):
        assert _run(["figures", "--l-step", "50", "--out", tmp_path / out]) == EXIT_OK
        assert len(calls) == count
    monkeypatch.setattr(cli, "emit", lambda results, fmt, out, lines: emit(results, fmt, out))
    assert _run(["figures", "--l-step", "50", "--out", tmp_path / "formatted"]) == EXIT_OK
    assert len(calls) == 22 + 11 + 16  # the 11 sweeps, then emit all 16 results again
    reused = tree(tmp_path / "reused")
    assert len(reused) == 23
    assert reused == tree(tmp_path / "again") == tree(tmp_path / "formatted")
    # the distance tables and the intensity profile do not depend on the format:
    # both cut the profile from their row lines, whose fields differ only in the separator
    argv = ["figures", "--l-step", "50", "--format", "gnuplot-data", "--out", tmp_path / "gnuplot"]
    assert _run(argv) == EXIT_OK
    gnuplot = tree(tmp_path / "gnuplot")
    tables = [path for path in reused if path.parent == Path(".")]
    assert len(tables) == 4
    assert all(gnuplot[path] == reused[path] for path in tables)


def test_non_finite_loss_in_params_file_is_config_error(tmp_path):
    for value in ("nan", "inf"):
        params_file = tmp_path / f"{value}.cfg"
        params_file.write_text(f"a1 = {value}\n")
        args = ["run", "--scenario", "k2", "--l-max", "1", "--params-file", params_file]
        assert _run(args + ["--out", tmp_path]) == EXIT_CONFIG


def test_channel_without_clicks_gives_zero_rates(tmp_path):
    # p0 = 0 and a transmission that underflows to 0: no clicks at all
    params_file = tmp_path / "dark.cfg"
    params_file.write_text("p0 = 0\na0 = 4000\n")
    names = "k2,k3-ma,k4,universal"
    args = ["run", "--scenario", names, "--l-max", "1", "--params-file", params_file, "--out", tmp_path]
    assert _run(args) == EXIT_OK
    rows = (tmp_path / "combined.csv").read_text().splitlines()[1:]
    assert len(rows) == 8
    assert all(row.split(",")[3] == "0" for row in rows)


def test_crossing_beyond_float_resolution_ends(tmp_path):
    # with a1 = 1e-15 dB/km the universal rate turns at about 3.8e16 km, where
    # floats lie 8 km apart; the bisection must end there instead of spinning
    params_file = tmp_path / "far.cfg"
    params_file.write_text("a1 = 1e-15\n")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from decoy_akg import cli; sys.exit(cli.main(sys.argv[2:]))"
    )
    src = Path(cli.__file__).resolve().parents[1]
    argv = ["run", "--scenario", "universal", "--params-file", params_file, "--l-max", "1e17"]
    argv += ["--l-step", "1e15", "--out", tmp_path / "out"]
    done = subprocess.run(
        [sys.executable, "-c", code, str(src), *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    reach = float(done.stdout.split("achievable distance ")[1].split(" km")[0])
    assert reach == pytest.approx(3.829e16, rel=1e-3)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "k2", "--l-min", "-5", "--l-max", "1"],
        ["figures", "--l-min", "-3", "--l-max", "0"],
        ["run", "--scenario", "k2", "--l-step", "nan"],
        ["run", "--scenario", "k2", "--l-max", "inf"],
        ["run", "--scenario", "k2", "--l-max", "1e300"],
        ["run", "--scenario", "custom", "--decoys", "0.1,abc"],
        ["run", "--scenario", "k2", "--signal-lower", "nan"],
        ["run", "--scenario", "custom", "--decoys", "0.1,nan", "--signal-lower", "0.5"],
        # an intensity whose square is not a normal float
        ["run", "--scenario", "custom", "--decoys", "1e-160", "--l-max", "1"],
        ["run", "--scenario", "custom", "--decoys", "1e-300", "--l-max", "1"],
        ["run", "--scenario", "universal", "--signal-lower", "1e-160", "--l-max", "1"],
        # inputs that would be silently ignored: a dark rate without the explicit
        # mode, decoys without a custom scenario, a name whose file is written twice
        ["run", "--scenario", "k2", "--dark-rate", "1e-7", "--l-max", "1"],
        ["run", "--scenario", "k2,k4", "--decoys", "0.1,0.3", "--l-max", "1"],
        ["run", "--scenario", "k2,k2", "--l-max", "1"],
        # a billion distances, refused before any is allocated
        ["run", "--scenario", "k2", "--l-max", "1", "--l-step", "1e-9"],
        # scans each within the limit whose command is not: 833,334 distances in
        # each of the 11 figures sweeps (about 6 GB), 500,001 in each of 2 scenarios
        ["figures", "--l-step", "0.0003"],
        ["run", "--scenario", "k2,k4", "--l-step", "0.0005"],
    ],
)
def test_bad_range_or_decoys_is_config_error(tmp_path, capsys, monkeypatch, argv):
    def sweep(spec, l_range):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(cli, "run_scenario", sweep)  # every case is refused before the first
    assert _run(argv + ["--out", tmp_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    if "--l-step" in argv and float(argv[argv.index("--l-step") + 1]) < 1e-3:
        assert err.startswith("configuration error: distance scan is too long")


def test_value_error_in_sweep_is_numeric_failure(tmp_path, capsys, monkeypatch):
    def failing_sweep(spec, l_range):
        raise ValueError("unexpected")

    monkeypatch.setattr(cli, "run_scenario", failing_sweep)
    assert _run(["run", "--scenario", "k2", "--l-max", "1", "--out", tmp_path]) == EXIT_NUMERIC
    assert capsys.readouterr().err == "numerical failure: unexpected\n"


def test_memory_error_in_sweep_is_config_error(tmp_path, capsys, monkeypatch):
    # running out of memory during the sweep, not only while allocating the scan
    def failing_sweep(spec, l_range):
        raise MemoryError

    monkeypatch.setattr(cli, "run_scenario", failing_sweep)
    assert _run(["run", "--scenario", "k2", "--l-max", "1", "--out", tmp_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "configuration error: out of memory; shorten the distance scan\n"


_ODD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 1e-300, 1e300])


def _number(values):
    return st.one_of(values, _ODD_FLOATS).map(repr) | st.sampled_from(["abc", "", "1e", "0x1p-3"])


@st.composite
def _distance_range(draw):
    """A scan of at most 20 distances, or one bad value among l_min, l_max, l_step."""
    l_min = draw(st.floats(0.0, 300.0))
    step = draw(st.floats(0.5, 50.0))
    values = [l_min, l_min + step * draw(st.integers(0, 19)), step]
    if draw(st.booleans()):
        index = draw(st.integers(0, 2))
        values[index] = draw(_ODD_FLOATS | st.just(values[index] - 2.0 * step))
    return [f"--{flag}={value!r}" for flag, value in zip(("l-min", "l-max", "l-step"), values)]


_PARAM_LINE = st.tuples(
    st.sampled_from(cli._PARAM_KEYS + ("theta ", "eta", "")),
    _number(st.floats(0.0, 1.0)),
).map(lambda kv: f"{kv[0]} = {kv[1]}")
_PARAMS_FILE = st.one_of(
    st.lists(_PARAM_LINE | st.sampled_from(["# comment", "p0", "==", ""]), max_size=4).map(
        lambda lines: "\n".join(lines).encode()
    ),
    st.binary(max_size=40),
)


@st.composite
def _run_argv(draw):
    names = draw(st.lists(st.sampled_from(SCENARIO_NAMES + ("nope", " k2", "")), max_size=3))
    argv = ["run", "--scenario", ",".join(names)]
    argv += draw(_distance_range())
    options = {
        "--direction": st.sampled_from(["forward", "reverse", "sideways"]),
        "--dark-mode": st.sampled_from(DARK_MODES + ("bogus",)),
        "--dark-rate": _number(st.floats(0.0, 1e-6)),
        "--decoys": st.lists(_number(st.floats(0.05, 2.5)), min_size=1, max_size=4).map(",".join),
        "--signal-lower": _number(st.floats(0.05, 2.5)),
        "--format": st.sampled_from(["csv", "gnuplot-data"]),
    }
    for flag, values in options.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    params = draw(st.none() | _PARAMS_FILE)
    return argv, params


@st.composite
def _figures_argv(draw):
    argv = ["figures"] + draw(_distance_range())
    if draw(st.booleans()):
        argv.append(f"--format={draw(st.sampled_from(['csv', 'gnuplot-data', 'json']))}")
    return argv, draw(st.none() | _PARAMS_FILE)


def _assert_exits_cleanly(argv, params):
    # any argv and params file: exit 0, 2 or 3 and no traceback
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv + ["--out", str(Path(tmp) / "out")]
        if params is not None:
            path = Path(tmp) / "channel.txt"
            path.write_bytes(params)
            argv += ["--params-file", str(path)]
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()


@settings(max_examples=40, deadline=None)
@given(_run_argv())
def test_run_fuzz_exits_cleanly(case):
    _assert_exits_cleanly(*case)


@settings(max_examples=25, deadline=None)
@given(_figures_argv())
def test_figures_fuzz_exits_cleanly(case):
    # each drawn scan has at most 20 distances, so 11 sweeps of it stay cheap
    _assert_exits_cleanly(*case)
