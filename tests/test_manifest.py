"""Every command's outputs on every shipped config (the ``command_runs``
fixture) against the committed manifest; ``output_manifest`` says what the
manifest holds and how to rewrite it."""

import json

import numpy as np

from hardyheat.cli import _write_csv, _write_json
from output_manifest import MANIFEST, differences, file_entry, versions


def test_outputs_match_the_manifest(command_runs):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert versions() == {key: manifest[key] for key in versions()}, (
        f"the manifest was made on {manifest['python']} / numpy {manifest['numpy']}; "
        "outputs are compared byte for byte, so rewrite it on this stack with "
        "`PYTHONPATH=src python tests/output_manifest.py` and review its diff")
    moved = differences(manifest, command_runs[0])
    assert moved == [], "\n".join(moved)


def _run(tmp_path, coefficient, payload, version="x"):
    """A one-run manifest of a trajectory.csv and a frequency.json."""
    rows = np.array([[0.0, 1.0, 0.5, 0.25], [-1.0, 0.5, coefficient, 0.125]])
    _write_csv(tmp_path / "trajectory.csv", ["tau", "t", "c_0", "c_1"], rows, {"version": version})
    _write_json(tmp_path / "frequency.json", payload, {"version": "x"})
    files = {name: file_entry(tmp_path / name) for name in ("trajectory.csv", "frequency.json")}
    return {"runs": {"cfg simulate": {"exit": 0, "stdout": "", "stderr": "", "files": files}}}


def test_a_moved_file_is_named_with_its_largest_difference(tmp_path):
    old = _run(tmp_path, 0.3, {"fit": {"gamma_hat": 1.0}})
    assert differences(old, old) == []
    # one coefficient off in its last bit, and a new key next to an unmoved one
    new = _run(tmp_path, np.nextafter(0.3, 1.0), {"fit": {"gamma_hat": 1.0}, "ratio": 2.0})
    assert differences(old, new) == [
        "cfg simulate frequency.json: bytes moved; no number moved; new numbers ['ratio']",
        "cfg simulate trajectory.csv: bytes moved; largest numeric difference "
        "5.551e-17 at c_0[last]",
    ]
    # a changed meta line moves the bytes and no number
    assert differences(old, _run(tmp_path, 0.3, {"fit": {"gamma_hat": 1.0}}, version="y")) == [
        "cfg simulate trajectory.csv: bytes moved; no number moved"]
