"""The benchmark's per-layer tables name package functions that must exist."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"
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
