"""The output manifest: what every command writes on every shipped config.

For each (config, command) pair the manifest holds the exit code, the
sha256 of stdout and of stderr, and for each file the command writes its
sha256 and its numbers.  The configs are the default, the five
``configs/*.ini`` and the four ``perfbench/workloads/*.ini``.  The five
commands run in process with ``--seed 1``, in the order spectrum,
simulate, beta, verify, quadcheck, into one directory per config, so
``beta`` reads back the trajectory ``simulate`` wrote.  The numbers of a
file are every numeric leaf of a JSON file, keyed by its path, and the
first row, last row and column sums of a CSV file, keyed by column: they
say by how much a moved file moved.  The manifest also names the Python
and numpy versions it was made on; float outputs are compared byte for
byte, so on other versions it does not apply.

Rewrite tests/data/output_manifest.json from the repository root with

    PYTHONPATH=src python tests/output_manifest.py

A change that moves an output rewrites the manifest, and the manifest's
diff lists what moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from hardyheat.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "output_manifest.json"
COMMANDS = ("spectrum", "simulate", "beta", "verify", "quadcheck")
CONFIGS = ["default"] + [path.relative_to(ROOT).as_posix() for path in
                         sorted(ROOT.glob("configs/*.ini"))
                         + sorted(ROOT.glob("perfbench/workloads/*.ini"))]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_numbers(value, where: str, out: dict) -> dict:
    if isinstance(value, dict):
        for key, item in value.items():
            _json_numbers(item, f"{where}/{key}" if where else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _json_numbers(item, f"{where}[{i}]", out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[where] = value
    return out


def _csv_numbers(text: str) -> dict:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    out = {}
    for k, name in enumerate(columns):
        if rows:
            out[f"{name}[first]"] = rows[0][k]
            out[f"{name}[last]"] = rows[-1][k]
            out[f"sum({name})"] = math.fsum(row[k] for row in rows)
    return out


def file_entry(path: Path) -> dict:
    """sha256 and numbers of one output file."""
    data = path.read_bytes()
    text = data.decode("utf-8")
    numbers = (_json_numbers(json.loads(text), "", {}) if path.suffix == ".json"
               else _csv_numbers(text))
    return {"sha256": _sha256(data), "numbers": numbers}


def _snapshot(outdir: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


def collect(workdir: Path) -> dict:
    """Run every command on every config under ``workdir``; the manifest."""
    runs = {}
    for i, config in enumerate(CONFIGS):
        outdir = workdir / str(i)
        outdir.mkdir()
        args = ["--out", str(outdir), "--seed", "1"]
        if config != "default":
            args += ["--config", str(ROOT / config)]
        before = {}
        for command in COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([command, *args])
            after = _snapshot(outdir)
            runs[f"{config} {command}"] = {
                "exit": code,
                "stdout": _sha256(stdout.getvalue().encode("utf-8")),
                "stderr": _sha256(stderr.getvalue().encode("utf-8")),
                "files": {name: file_entry(outdir / name) for name, data in after.items()
                          if before.get(name) != data},
            }
            before = after
    return {**versions(), "runs": runs}


def _number_moves(old: dict, new: dict) -> str:
    """The largest difference over the keys both hold, and the keys only
    one holds."""
    diffs = [(abs(new[key] - old[key]), key) for key in old if key in new]
    parts = []
    if diffs:
        diff, key = max(diffs)
        parts.append(f"largest numeric difference {diff:.3e} at {key}" if diff > 0.0
                     else "no number moved")
    for label, keys in (("new", new.keys() - old.keys()), ("gone", old.keys() - new.keys())):
        if keys:
            parts.append(f"{label} numbers {sorted(keys)}")
    return "; ".join(parts)


def differences(old: dict, new: dict) -> list:
    """One line per moved exit code, stream or file of ``new`` against the
    manifest ``old``; empty when every output is byte-identical."""
    lines = []
    for run in sorted(old["runs"].keys() | new["runs"].keys()):
        if run not in new["runs"] or run not in old["runs"]:
            lines.append(f"{run}: {'not run' if run not in new['runs'] else 'not in manifest'}")
            continue
        was, now = old["runs"][run], new["runs"][run]
        for key in ("exit", "stdout", "stderr"):
            if was[key] != now[key]:
                lines.append(f"{run}: {key} moved ({was[key]} -> {now[key]})")
        for name in sorted(was["files"].keys() | now["files"].keys()):
            if name not in now["files"] or name not in was["files"]:
                lines.append(f"{run} {name}: "
                             f"{'not written' if name not in now['files'] else 'new file'}")
            elif was["files"][name]["sha256"] != now["files"][name]["sha256"]:
                moves = _number_moves(was["files"][name]["numbers"],
                                      now["files"][name]["numbers"])
                lines.append(f"{run} {name}: bytes moved; {moves or 'holds no numbers'}")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fresh = collect(Path(tmp))
    if MANIFEST.exists():
        for line in differences(json.loads(MANIFEST.read_text(encoding="utf-8")), fresh):
            print(line)
    MANIFEST.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST.relative_to(ROOT)}: {len(fresh['runs'])} runs", file=sys.stderr)
