"""Tooling ratchets: the benchmark's per-layer tables name package functions
that must exist, scipy use in the package only shrinks, importing the CLI
loads no ``scipy.interpolate``, and ``verify`` samples each member once per
rule and time."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

from hardyheat import inequalities
from hardyheat.cli import main
from hardyheat.config import RunConfig

PERFBENCH = Path(__file__).parents[1] / "perfbench"
SRC = Path(__file__).parents[1] / "src" / "hardyheat"
# bucket kept for a function that was removed; dropping it is a benchmark change
DEAD_BUCKETS = {"evolve.forcing_coefficients_scaled"}


def _dict_keys(path: Path, name: str) -> list:
    """String keys of the module-level dict literal ``name`` in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"{name} not found in {path}")


def _resolves(dotted: str) -> bool:
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"hardyheat.{module}")
    for attr in attrs:
        if attr.startswith("_") or not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return callable(obj)


def test_perfbench_names_resolve_to_public_callables():
    names = (_dict_keys(PERFBENCH / "run.py", "BUCKETS")
             + _dict_keys(PERFBENCH / "run.py", "COUNTED")
             + _dict_keys(PERFBENCH / "tracer.py", "LABELS"))
    assert len(names) > 20
    unresolved = {name for name in names if not _resolves(name)}
    assert unresolved <= DEAD_BUCKETS, sorted(unresolved - DEAD_BUCKETS)


# scipy names the package may import; a numpy replacement removes its name
SCIPY_ALLOWED = {"eigh_tridiagonal", "gammaln", "roots_jacobi", "least_squares", "eigh"}


def _scipy_use(path: Path):
    """(scipy names imported, call sites of roots_jacobi) in a source file."""
    names, jacobi_calls = set(), 0
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.startswith("scipy"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "roots_jacobi"):
            jacobi_calls += 1
    return names, jacobi_calls


def test_scipy_imports_only_shrink():
    use = {path.name: _scipy_use(path) for path in sorted(SRC.glob("*.py"))}
    imported = set().union(*(names for names, _ in use.values()))
    assert imported <= SCIPY_ALLOWED, sorted(imported - SCIPY_ALLOWED)
    assert not use["angular.py"][0]
    # one polar Gauss rule: quadrature.polar_rule
    assert sum(calls for _, calls in use.values()) == 1


def test_cli_import_leaves_out_scipy_interpolate():
    code = "import sys, hardyheat.cli; print('scipy.interpolate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_verify_samples_each_member_once_per_rule_and_time(tmp_path, monkeypatch):
    calls = {"sweep": 0, "sample": 0}
    sweep, sample = inequalities.sweep, inequalities._sample

    def counted_sweep(*args, **kwargs):
        calls["sweep"] += 1
        return sweep(*args, **kwargs)

    def counted_sample(*args, **kwargs):
        calls["sample"] += 1
        return sample(*args, **kwargs)

    monkeypatch.setattr(inequalities, "sweep", counted_sweep)
    monkeypatch.setattr(inequalities, "_sample", counted_sample)
    cfg = RunConfig()
    cfg.sweep_dims, cfg.sweep_count, cfg.directory = (3,), 10, str(tmp_path)
    path = tmp_path / "run.ini"
    path.write_text(cfg.to_text())
    assert main(["verify", "--config", str(path)]) == 0
    # per member: plain rule at t and at t = 1, singular twin at t; plus
    # the closed-form Sobolev check on the centred bump
    assert calls == {"sweep": 1, "sample": 3 * 10 + 1}
