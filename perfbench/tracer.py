"""Run one hardyheat CLI command with every public package function traced.

    python3 perfbench/tracer.py SPANS.json -- <hardyheat cli arguments>

The package is never edited: after import, every public function and
public method defined in a ``hardyheat`` module is replaced by a wrapper
that records a span (name, start, end, parent id).  Every binding of the
original is patched, including names imported into other modules
(``from .quadrature import integrate_G``) and module-level tables such as
``cli.COMMANDS``.  Spans stay in memory and are written to SPANS.json when
the command ends; the process then exits with the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

PACKAGE = "hardyheat"


def _sweep_label(args, kwargs, result):
    family = kwargs.get("family", args[1] if len(args) > 1 else None)
    inequality = kwargs.get("inequality", args[0] if args else None)
    return {"inequality": inequality, "N": family.N, "members": family.count}


# Functions whose arguments or result carry a count the benchmark reports.
LABELS = {
    "inequalities.sweep": _sweep_label,
    "angular.solve_angular": lambda a, k, r: {"L": int(r.truncation_degree)},
    "ou_basis.enumerate_modes": lambda a, k, r: {"modes": int(r.size)},
    "ou_basis.build_collocation": lambda a, k, r: {"nodes": int(r.Phi.shape[1])},
    "almgren.frequency_trace": lambda a, k, r: {"rows": int(len(r.t))},
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent]
        self.labels: dict[int, dict] = {}
        self.current = -1
        self.originals: dict[int, object] = {}  # id(original) -> wrapper
        self.cached: dict[str, object] = {}

    def wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        label = LABELS.get(name)
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name_id, clock(), 0, self.current]
            spans.append(span)
            self.current = sid
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.current = span[3]
            if label is not None:
                self.labels[sid] = label(args, kwargs, result)
            return result

        self.originals[id(fn)] = traced
        return traced

    def install(self) -> list[str]:
        """Wrap the package; return the bindings that still hold an original."""
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if hasattr(obj, "cache_info"):
                    self.cached[f"{short}.{attr}"] = obj
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(short, obj)
                elif callable(obj):
                    self.wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in self.originals:
                    setattr(mod, attr, self.originals[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if id(val) in self.originals:
                            obj[key] = self.originals[id(val)]
        return self.unpatched(modules)

    def _wrap_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    def unpatched(self, modules) -> list[str]:
        """Module-level names and table entries that escaped the patch."""
        missed = []
        for mod in modules:
            for attr, obj in vars(mod).items():
                values = obj.items() if isinstance(obj, dict) else [(None, obj)]
                for key, val in values:
                    if id(val) in self.originals and self.originals[id(val)] is not val:
                        missed.append(f"{mod.__name__}.{attr}" + (f"[{key!r}]" if key else ""))
        return missed

    def dump(self, path: str, exit_code: int, unpatched: list[str]) -> None:
        cache = {}
        for name, fn in self.cached.items():
            info = fn.cache_info()
            cache[name] = {"hits": info.hits, "misses": info.misses}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "names": self.names,
                "spans": self.spans,
                "labels": {str(k): v for k, v in self.labels.items()},
                "cache": cache,
                "unpatched": unpatched,
                "exit_code": exit_code,
            }))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <hardyheat cli arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    unpatched = tracer.install()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        tracer.dump(spans_path, code, unpatched)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
