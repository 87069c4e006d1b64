import contextlib
import io
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoy_akg import cli
from decoy_akg.scenarios import DARK_MODES, SCENARIO_NAMES
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


def test_cli_start_does_not_load_scipy():
    # SciPy serves only the LP oracle; importing the CLI must not pay for it
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import decoy_akg.cli; "
        "decoy_akg.cli._build_parser(); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


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
        # inputs that would be silently ignored: a dark rate without the explicit
        # mode, decoys without a custom scenario, a name whose file is written twice
        ["run", "--scenario", "k2", "--dark-rate", "1e-7", "--l-max", "1"],
        ["run", "--scenario", "k2,k4", "--decoys", "0.1,0.3", "--l-max", "1"],
        ["run", "--scenario", "k2,k2", "--l-max", "1"],
    ],
)
def test_bad_range_or_decoys_is_config_error(tmp_path, capsys, argv):
    assert _run(argv + ["--out", tmp_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


def test_value_error_in_sweep_is_numeric_failure(tmp_path, capsys, monkeypatch):
    def failing_sweep(spec, l_range):
        raise ValueError("unexpected")

    monkeypatch.setattr(cli, "run_scenario", failing_sweep)
    assert _run(["run", "--scenario", "k2", "--l-max", "1", "--out", tmp_path]) == EXIT_NUMERIC
    assert capsys.readouterr().err == "numerical failure: unexpected\n"


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
    # each drawn scan has at most 20 distances, so 16 sweeps of it stay cheap
    _assert_exits_cleanly(*case)
