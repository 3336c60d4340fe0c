"""Tooling ratchets: the benchmark's per-layer tables name package functions
that must exist, every config key is read and the README's config tables
list each with its default, every code name of the README's library layout
is defined, every stored field is read, every defaulted parameter is passed
by some src call, every package function is run by some command, the
package imports no scipy and its commands load none and no numpy.ma, the
package reads no numpy.random and no command loads it or OpenSSL (neither
``hashlib`` nor ``_hashlib``: their SHA-256 is CPython's own, equal to
OpenSSL's), and ``verify`` evaluates no test function at a node: every
sweep is closed form."""

import ast
import dataclasses
import hashlib
import importlib
import inspect
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hardyheat
from hardyheat import config, inequalities
from hardyheat.cli import main
from hardyheat.config import RunConfig

PERFBENCH = Path(__file__).parents[1] / "perfbench"
SRC = Path(__file__).parents[1] / "src" / "hardyheat"
# buckets kept for functions that were removed; dropping one is a benchmark change
DEAD_BUCKETS = {"evolve.forcing_coefficients_scaled", "almgren.check_scaling",
                "angular.eval_psi", "angular.real_sph_grad_block",
                "angular.eval_grad_psi_block", "ou_basis.eval_V", "ou_basis.eval_grad_V",
                "inequalities.coercivity_infimum", "inequalities.hardy_mode_consistency",
                "quadrature.zonal_rule", "ou_basis.hardy_matrix",
                "ou_basis.potential_coupling_matrix"}
# package functions no command enters on the shipped configs, and why each stays
UNREACHED = {
    "errors.AccuracyError.__init__": "runs when a gate fails; no shipped config fails one",
    "inequalities.power_integrals": "the power family, which ROADMAP item 2 puts into verify",
}


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


def test_every_config_key_is_read():
    # a key that is parsed and validated but never read does nothing: every
    # RunConfig field must be read as cfg.<field> outside the class itself
    read = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if path.name == "config.py" and isinstance(node, ast.ClassDef) \
                    and node.name == "RunConfig":
                continue
            read |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
                     and isinstance(sub.value, ast.Name) and sub.value.id == "cfg"}
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    assert fields - read == set()


def test_readme_config_tables_list_every_key_with_its_default():
    # each `### [section]` table of the README lists that section's keys in
    # order, each default cell as the config text writes it
    from hardyheat.config import _fmt

    lines = (SRC.parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    tables = {}
    for i, line in enumerate(lines):
        if line.startswith("### `[") and line.endswith("]`"):
            rows = []
            for row in lines[i + 3:]:
                if not row.startswith("| `"):
                    break
                rows.append([cell.strip().strip("`") for cell in row.split("|")[1:3]])
            tables[line[6:-2]] = rows
    assert list(tables) == list(RunConfig._SECTIONS)
    default = RunConfig()
    for section, keys in RunConfig._SECTIONS.items():
        assert [key for key, _ in tables[section]] == list(keys), section
        for key, cell in tables[section]:
            if key == "tau_min":  # the one default written as its formula, log(1e-3)
                assert cell.startswith("log(") and cell.endswith(")")
                assert math.log(float(cell[4:-1])) == default.tau_min
            else:
                assert cell == _fmt(getattr(default, key)), key


ORACLES = [Path(__file__).parent / f"{name}.py"
           for name in ("mode_oracle", "sweep_oracle", "kummer")]
CODE_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _defined_names() -> set:
    """Every module, function, class and module- or class-level assignment
    of the package and the tests' oracle modules, bare and as
    ``Class.member`` or ``module.name``; and the CLI command names."""
    from hardyheat.cli import COMMANDS

    names = set(COMMANDS)
    for path in sorted(SRC.glob("*.py")) + ORACLES:
        names.add(path.stem)
        scopes = [(path.stem, ast.parse(path.read_text(encoding="utf-8")).body)]
        while scopes:
            owner, body = scopes.pop()
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    found = [node.name]
                    if isinstance(node, ast.ClassDef):
                        scopes.append((node.name, node.body))
                else:
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target] if isinstance(node, ast.AnnAssign) else [])
                    found = [t.id for t in targets if isinstance(t, ast.Name)]
                names |= set(found) | {f"{owner}.{name}" for name in found}
    return names


def _unresolved_layout_names(readme: str) -> list:
    """Backticked code names of the README's `## Library layout` table that
    no definition in src or in the oracle modules carries; file paths,
    config syntax and string literals are not code names."""
    table = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    names = [tok for tok in re.findall(r"`([^`]+)`", table) if CODE_NAME.fullmatch(tok)]
    defined = _defined_names()
    return [name for name in names if name not in defined]


def test_readme_library_layout_names_resolve():
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    assert _unresolved_layout_names(readme) == []
    # a name that left the package fails the ratchet, dotted or bare
    row = "| `cli`, `config` |"
    stale = readme.replace(row, row[:-1] + "`PerturbationSpec.linear`, "
                                            "`forcing_coefficients_scaled` |")
    assert _unresolved_layout_names(stale) == ["PerturbationSpec.linear",
                                               "forcing_coefficients_scaled"]


# a stored field that no src line reads, and why it stays
UNREAD_FIELDS = {
    "AccuracyError.suggestion": "the replacement parameter (a dtau) a library caller "
                                "retries with",
}


def test_every_stored_field_is_read():
    # a value that is stored and never read does nothing: every dataclass
    # field and every attribute an __init__ assigns to self must be loaded
    # somewhere in src, as .name or as getattr(x, "name")
    stored, loaded = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                is_dataclass = any(
                    "dataclass" in ast.unparse(deco) for deco in node.decorator_list)
                for stmt in node.body:
                    if is_dataclass and isinstance(stmt, ast.AnnAssign):
                        stored.add(f"{node.name}.{stmt.target.id}")
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                        stored |= {f"{node.name}.{sub.attr}" for sub in ast.walk(stmt)
                                   if isinstance(sub, ast.Attribute)
                                   and isinstance(sub.ctx, ast.Store)
                                   and isinstance(sub.value, ast.Name)
                                   and sub.value.id == "self"}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "getattr" and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant):
                loaded.add(node.args[1].value)
    assert len(stored) > 40
    unread = {name for name in stored if name.partition(".")[2] not in loaded}
    assert unread == set(UNREAD_FIELDS)


# a defaulted parameter of a public function that no src call passes, and why it stays
UNPASSED = {
    "cli.main.argv": "the console entry point takes sys.argv; tests pass their own",
}


def _defaulted_parameters(body, prefix: str) -> dict:
    """module.qualname.param -> (function name, param, positional index or
    None) for every defaulted parameter of the public functions and methods
    in ``body``; a method's index does not count self."""
    out = {}
    for node in body:
        if isinstance(node, ast.ClassDef):
            out |= _defaulted_parameters(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            bound = prefix.count(".") > 1 and "staticmethod" not in {
                ast.unparse(deco) for deco in node.decorator_list}
            for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                    len(positional) - len(args.defaults)):
                out[f"{prefix}{node.name}.{arg.arg}"] = (node.name, arg.arg, i - bound)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out[f"{prefix}{node.name}.{arg.arg}"] = (node.name, arg.arg, None)
    return out


def test_every_defaulted_parameter_is_passed():
    # a default that no src call overrides is a knob only tests turn: each
    # must be passed somewhere in src, by keyword in any call or by position
    # to a call of its function's name, unless UNPASSED says why it stays
    params, calls = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        params |= _defaulted_parameters(tree.body, f"{path.stem}.")
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert len(params) > 10

    def passed(name, param, index):
        for call in calls:
            func = getattr(call.func, "id", getattr(call.func, "attr", None))
            n_positional = sum(not isinstance(a, ast.Starred) for a in call.args)
            if any(k.arg == param for k in call.keywords) or (
                    func == name and index is not None and n_positional > index):
                return True
        return False

    assert {key for key, spec in params.items() if not passed(*spec)} == set(UNPASSED)


def _package_functions(pkg: Path) -> set:
    """module.qualname of every named function and method in the package."""
    out = set()
    for path in sorted(pkg.glob("*.py")):
        todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while todo:
            for const in todo.pop().co_consts:
                if isinstance(const, types.CodeType):
                    todo.append(const)
                    # class bodies, comprehensions and lambdas are code objects too
                    if const.co_flags & inspect.CO_NEWLOCALS and const.co_name[0] != "<":
                        out.add(f"{path.stem}.{const.co_qualname}")
    return out


def test_every_package_function_is_run_by_a_command(command_runs):
    # every command on the default config, the shipped configs and the
    # benchmark workloads, in process; what none of them enters is dead
    # code unless UNREACHED says why it stays
    manifest, codes = command_runs
    assert len(manifest["runs"]) == 50
    assert {run["exit"] for run in manifest["runs"].values()} == {0}
    pkg = Path(hardyheat.__file__).parent
    entered = {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in codes
               if Path(code.co_filename).parent == pkg}
    assert _package_functions(pkg) - entered == set(UNREACHED)


def test_package_imports_no_scipy():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), path.name


def test_package_reads_no_numpy_random():
    # verify draws its members from random.Random; np.random is an attribute
    # read, which an import check alone would miss
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            assert not any(n.split(".")[:2] in (["numpy", "random"], ["np", "random"])
                           for n in names), (path.name, node.lineno)


LOADED_MODULES = """
import sys
from hardyheat.cli import main
for cmd in sys.argv[2:]:
    assert main([cmd, "--config", sys.argv[1]]) == 0, cmd
print(" ".join(sorted(sys.modules)))
"""


def _modules_after(tmp_path, *commands, perturbation="linear_bounded:0.1") -> list:
    """The modules loaded after running ``commands`` in one fresh process."""
    cfg = RunConfig()
    cfg.perturbation, cfg.gamma_max, cfg.radial_nodes = perturbation, 1.0, 16
    cfg.tau_min, cfg.dtau, cfg.directory = math.log(1e-6), 0.01, str(tmp_path)
    cfg.sweep_count = 10
    path = tmp_path / "run.ini"
    path.write_text(cfg.to_text())
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", LOADED_MODULES, str(path), *commands], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.splitlines()[-1].split()


def _openssl(modules) -> list:
    # import hashlib maps about 3.6 MB of OpenSSL
    return [m for m in modules if m in ("hashlib", "_hashlib")]


def test_commands_load_no_scipy(tmp_path):
    modules = _modules_after(tmp_path, "spectrum", "simulate", "beta", "quadcheck")
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
    assert _openssl(modules) == []


@pytest.mark.parametrize("perturbation", ("none", "semilinear:0.05:2.0"))
def test_simulate_and_beta_load_no_scipy_or_numpy_ma(tmp_path, perturbation):
    # the unperturbed flow (no collocation) and the semilinear march on the
    # radial rule, each with beta reading its rows back from trajectory.csv
    modules = _modules_after(tmp_path, "simulate", "beta", perturbation=perturbation)
    assert "hardyheat.evolve" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"
            or m == "numpy.ma" or m.startswith("numpy.ma.")] == []
    assert _openssl(modules) == []


def test_verify_loads_no_numpy_random_or_openssl(tmp_path):
    # numpy.random maps nine extension modules and OpenSSL (secrets -> hmac
    # -> _hashlib); verify's members come from random.Random instead
    modules = _modules_after(tmp_path, "verify")
    assert [m for m in modules if m.split(".")[:2] == ["numpy", "random"]
            or m in ("secrets", "hmac")] == []
    assert _openssl(modules) == []


def test_commands_load_no_numpy_ma(tmp_path):
    # numpy.ma costs 10-18 ms of import in every command that loads it
    modules = _modules_after(tmp_path, "spectrum", "simulate", "beta", "verify")
    assert "numpy" in modules
    assert [m for m in modules if m == "numpy.ma" or m.startswith("numpy.ma.")] == []


@pytest.mark.parametrize("size", (0, 3, 64 * 1024 + 17))
def test_package_sha256_is_openssl_sha256(size):
    # OpenSSL's digest is the independent oracle, whole and fed in pieces
    data = bytes((7 * k + 3) % 256 for k in range(size))
    assert config._sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    pieces = config._sha256()
    for k in range(0, size, 1000):
        pieces.update(data[k:k + 1000])
    assert pieces.hexdigest() == hashlib.sha256(data).hexdigest()


def test_inequalities_take_only_sphere_area_from_quadrature():
    # the sweeps are closed forms: no cubature rule reaches inequalities
    imported = set()
    for node in ast.walk(ast.parse((SRC / "inequalities.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module}.{a.name}" if node.module else a.name
                         for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert {name for name in imported if "quadrature" in name.split(".")} == {
        "quadrature.sphere_area"}


def test_gaussian_bump_is_its_fields_alone():
    # verify's bumps are closed forms only: the package's GaussianBump holds
    # its fields and no callable, so no sweep can evaluate one at a point
    # (tests/sweep_oracle.py does, as a PointBump)
    fields = {field.name for field in dataclasses.fields(inequalities.GaussianBump)}
    assert fields == {"b", "w", "axis"}
    own = {name for name, value in vars(inequalities.GaussianBump).items()
           if callable(value) and not name.startswith("__")}
    assert own == set()


def _counted_verify(tmp_path, monkeypatch, **settings) -> int:
    """Sweeps of one ``verify`` run over 10 members in N = 3."""
    calls = []
    sweep = inequalities.sweep

    def counted_sweep(*args, **kwargs):
        calls.append(args[0])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(inequalities, "sweep", counted_sweep)
    cfg = RunConfig()
    cfg.sweep_dims, cfg.sweep_count, cfg.directory = (3,), 10, str(tmp_path)
    for key, value in settings.items():
        setattr(cfg, key, value)
    path = tmp_path / "run.ini"
    path.write_text(cfg.to_text())
    assert main(["verify", "--config", str(path)]) == 0
    return len(calls)


def test_constant_potential_verify_samples_no_node(tmp_path, monkeypatch):
    # bumps under a constant potential: the four inequalities in one sweep,
    # the centred Sobolev check included
    for potential in ("constant:0.0", "constant:0.1"):
        assert _counted_verify(tmp_path, monkeypatch, potential=potential) == 1


def test_harmonic_table_verify_samples_no_node(tmp_path, monkeypatch):
    # the four closed-form sweeps, then the N = 3 anisotropic sweep under the
    # harmonic-table potential, also in closed form
    assert _counted_verify(tmp_path, monkeypatch, angular_truncation=16,
                           potential="harmonic_table:1,0,0.15;2,0,0.05") == 2
