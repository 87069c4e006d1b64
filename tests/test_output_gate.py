"""Output gate: the default ``decoy-akg figures`` tree against a committed manifest.

The manifest holds every file's SHA-256 and line count and the three
achievable-distance tables in full, together with the numeric environment
it was made on (the numpy version and the exact bits of a few libm and numpy
transcendental values).  On that environment every byte must match.  On
another one the bytes may legitimately move in the last printed digit, so
the byte check reports itself as not run, and the file list, the line counts
and the distance tables (to within 2 x DISTANCE_TOL_KM) are still checked.

An output-moving change regenerates the manifest with

    PYTHONPATH=src python tests/test_output_gate.py

and lists the moved files.
"""

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from decoy_akg.cli import EXIT_OK, main
from decoy_akg.keyrate import DISTANCE_TOL_KM

MANIFEST = Path(__file__).with_name("figures_manifest.json")

# inputs spread over the ranges the pipeline feeds these functions
_PROBE_INPUTS = (1e-12, 3.7e-6, 0.0123, 0.1, 0.347, 0.625, 1.3, 2.75, 17.5, 46.0)


def numeric_environment() -> dict:
    """The numpy version and the exact bits of a few transcendental values."""
    x = np.array(_PROBE_INPUTS)
    probes = {
        "math.exp(-x)": [math.exp(-v) for v in _PROBE_INPUTS],
        "np.exp(-x)": np.exp(-x).tolist(),
        "np.expm1(-x)": np.expm1(-x).tolist(),
        "np.log2(x)": np.log2(x).tolist(),
        "np.power(x, 2.5)": np.power(x, 2.5).tolist(),
    }
    return {
        "numpy": np.__version__,
        "probes": {name: [v.hex() for v in values] for name, values in probes.items()},
    }


def figures_tree(out: Path) -> dict:
    """Run the default ``figures`` into ``out``; the manifest of what it wrote."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["figures", "--out", str(out)]) == EXIT_OK
    files, distances = {}, {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = path.relative_to(out).as_posix()
        data = path.read_bytes()
        files[name] = {"sha256": hashlib.sha256(data).hexdigest(), "lines": data.count(b"\n")}
        if name.startswith("distances_"):
            rows = [line.split(",") for line in data.decode().splitlines()[1:]]
            distances[name] = {scenario: km for scenario, km in rows}
    return {"environment": numeric_environment(), "files": files, "distances": distances}


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    """(committed manifest, manifest of a fresh run)."""
    committed = json.loads(MANIFEST.read_text())
    return committed, figures_tree(tmp_path_factory.mktemp("figures"))


def test_figures_tree_shape_and_distances(trees):
    # holds on every environment
    committed, fresh = trees
    assert list(fresh["files"]) == list(committed["files"])
    for name, entry in committed["files"].items():
        assert fresh["files"][name]["lines"] == entry["lines"], name
    for name, table in committed["distances"].items():
        got = fresh["distances"][name]
        assert list(got) == list(table), name
        for scenario, km in table.items():
            if km == "":  # beyond range
                assert got[scenario] == "", (name, scenario)
            else:
                assert float(got[scenario]) == pytest.approx(
                    float(km), abs=2 * DISTANCE_TOL_KM
                ), (name, scenario)


def test_figures_tree_bytes(trees):
    committed, fresh = trees
    if fresh["environment"] != committed["environment"]:
        pytest.skip(
            "byte check NOT run: the numeric environment differs from the manifest's "
            f"(numpy {fresh['environment']['numpy']} against {committed['environment']['numpy']}, "
            "or the probe bits); only the shape and distance checks ran"
        )
    moved = [
        name
        for name, entry in committed["files"].items()
        if fresh["files"][name]["sha256"] != entry["sha256"]
    ]
    assert moved == [], f"figures output moved in {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = figures_tree(Path(tmp))
    previous = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {"files": {}}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    for name, entry in manifest["files"].items():
        if previous["files"].get(name, {}).get("sha256") != entry["sha256"]:
            print(f"moved: {name}")
