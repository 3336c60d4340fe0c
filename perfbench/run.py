"""hardyheat benchmark: CLI workloads timed end to end, and per layer when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
./src, so nothing is installed.  Each hardyheat command runs as a user runs
it, in a fresh process, one at a time, with the installed OpenBLAS at its
default thread count.  A run times the set-up (interpreter start, package
import, config parse) several times, then repeats the workload's command
sequence (a session) until --seconds have passed, at least twice, and
reports medians.  Every session's outputs are checked against the
reference values in perfbench/reference.json and against the first
session's bytes.

With --trace 1 the run alternates untraced sessions with sessions whose
commands run under perfbench/tracer.py, and reports per-layer metrics from
the recorded spans instead of the end-to-end ones.  Work files, the span
files and result.json go to .perfbench_runs/ in the checkout.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_runs")
TRACER = os.path.join(BENCH, "tracer.py")

# workload -> (config under perfbench/workloads, command sequence)
WORKLOADS = {
    "bounded_h": ("bounded_h.ini", ("simulate", "beta")),
    "aniso_auto": ("aniso_auto.ini", ("spectrum", "simulate", "beta")),
    "semilinear": ("semilinear.ini", ("simulate", "beta")),
    "verify": ("verify.ini", ("verify",)),
}
OUTPUTS = {
    "spectrum": ("spectrum.json",),
    "simulate": ("trajectory.csv", "trajectory.json", "frequency.csv", "frequency.json"),
    "beta": ("beta.json", "reconstruction.csv"),
    "verify": ("verify.json",),
}
MIN_SESSIONS = 2
SETUP_REPS = 3
RUN_LIMIT_S = 165.0  # a run must end within 180 s
SETUP_SNIPPET = (
    "import sys; import hardyheat.cli; from hardyheat.config import RunConfig; "
    "RunConfig.from_file(sys.argv[1]).validate()"
)
NOTES_SNIPPET = r"""
import ctypes, json, numpy, scipy
notes = {"numpy": numpy.__version__, "scipy": scipy.__version__,
         "openblas": None, "openblas_threads": None}
libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}
for path in sorted(libs):
    lib = ctypes.CDLL(path)
    for suffix in ("", "64_"):
        prefix = "scipy_openblas" if "scipy_openblas" in path else "openblas"
        threads = getattr(lib, prefix + "_get_num_threads" + suffix, None)
        config = getattr(lib, prefix + "_get_config" + suffix, None)
        if threads is not None and config is not None:
            config.restype = ctypes.c_char_p
            notes["openblas"] = config().decode()
            notes["openblas_threads"] = threads()
print(json.dumps(notes))
"""

with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


class RunTimeout(Exception):
    """The run would overrun its time limit."""


def run_process(argv, log_path, deadline):
    """Run argv in a fresh process from the checkout root.

    Returns (wall seconds, exit code, peak RSS in MB).  The process is killed
    when the run's deadline passes.
    """
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise RunTimeout(argv[1:3])
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.perf_counter() >= deadline:
        raise RunTimeout(argv[1:3])
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_outputs(workload, out_dir):
    """Check one session's outputs against reference.json.

    Returns ({command: [problems]}, accuracy figures).
    """
    ref = REFERENCE[workload]
    problems = defaultdict(list)
    accuracy = {}

    def load(cmd, name):
        try:
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError) as exc:
            problems[cmd].append(f"{name} unreadable: {exc}")
            return None

    for cmd in WORKLOADS[workload][1]:
        if cmd == "spectrum" and (doc := load(cmd, "spectrum.json")):
            if doc["angular"]["L"] != ref["L_final"]:
                problems[cmd].append(f"L = {doc['angular']['L']}, expected {ref['L_final']}")
            if len(doc["basis"]["modes"]) != ref["modes"]:
                problems[cmd].append(f"{len(doc['basis']['modes'])} modes, expected {ref['modes']}")
        elif cmd == "simulate" and (doc := load(cmd, "frequency.json")):
            fit = doc["fit"]
            if fit["gamma_hat"] != ref["gamma"] or not fit["snapped"]:
                problems[cmd].append(f"gamma_hat {fit['gamma_hat']} (snapped {fit['snapped']}), "
                                     f"expected {ref['gamma']} snapped")
            accuracy["hprime_residual"] = doc["hprime_residual"]
            if not math.isfinite(doc["hprime_residual"]):
                problems[cmd].append("H' = 2D residual is not finite")
        elif cmd == "beta" and (doc := load(cmd, "beta.json")):
            if doc["gamma"] != ref["gamma"]:
                problems[cmd].append(f"gamma {doc['gamma']}, expected {ref['gamma']}")
            gap = doc["integral_vs_direct"]
            accuracy["beta_route_gap"] = gap
            if not gap < ref["route_gap_max"]:
                problems[cmd].append(f"integral_vs_direct {gap} >= {ref['route_gap_max']}")
            got = doc["beta"]["beta"]
            if set(got) != set(ref["beta"]):
                problems[cmd].append(f"beta keys {sorted(got)}, expected {sorted(ref['beta'])}")
            for key, want in ref["beta"].items():
                if key in got and not abs(got[key] - want) <= ref["beta_rel_tol"] * abs(want):
                    problems[cmd].append(f"beta[{key}] = {got[key]}, reference {want}")
        elif cmd == "verify" and (doc := load(cmd, "verify.json")):
            sweeps = doc["sweeps"]
            if len(sweeps) != ref["sweeps"]:
                problems[cmd].append(f"{len(sweeps)} sweeps, expected {ref['sweeps']}")
            for sw in sweeps:
                gap = sw.get("min_relative_gap", sw.get("sup_ratio"))
                if not math.isfinite(gap) or sw.get("min_relative_gap", 0.0) < ref["gap_floor"]:
                    problems[cmd].append(f"{sw['inequality']} N={sw['N']}: {gap}")
    return problems, accuracy


def inspect_outputs(workload, out_dir):
    """Check a session's outputs and fingerprint them.

    Returns ({command: [problems]}, accuracy figures, {file: sha256},
    {command: bytes written}).
    """
    problems, accuracy = check_outputs(workload, out_dir)
    digests, sizes = {}, {}
    for cmd in WORKLOADS[workload][1]:
        sizes[cmd] = 0
        for name in OUTPUTS[cmd]:
            path = os.path.join(out_dir, name)
            if os.path.isfile(path):
                sizes[cmd] += os.path.getsize(path)
                digests[name] = file_digest(path)
            else:
                problems[cmd].append(f"{name} missing")
    return problems, accuracy, digests, sizes


def byte_mismatches(first, digests):
    """{command: [problems]} for output files whose bytes differ from `first`."""
    problems = defaultdict(list)
    for cmd, names in OUTPUTS.items():
        for name in names:
            if name in digests and name in first and digests[name] != first[name]:
                problems[cmd].append(f"{name} differs from session 1")
    return problems


class Session:
    """One pass over a workload's commands, checked and, if traced, spanned.

    The outputs stay in <run_dir>/out until the next session starts.
    """

    def __init__(self, workload, seed, run_dir, index, traced, deadline):
        config, commands = WORKLOADS[workload]
        cfg = os.path.join(BENCH, "workloads", config)
        out_dir = os.path.join(run_dir, "out")  # same path every session: it is in the config hash
        shutil.rmtree(out_dir, ignore_errors=True)
        self.commands = []
        self.failures = defaultdict(list)
        start = time.perf_counter()
        for cmd in commands:
            cli = [cmd, "--config", cfg, "--out", os.path.relpath(out_dir, ROOT),
                   "--seed", str(seed)]
            spans = os.path.join(run_dir, f"spans-{index}-{cmd}.json") if traced else None
            argv = ([sys.executable, TRACER, spans, "--"] + cli if traced
                    else [sys.executable, "-m", "hardyheat.cli"] + cli)
            wall, code, rss = run_process(argv, os.path.join(run_dir, "commands.log"), deadline)
            self.commands.append({"command": cmd, "wall": wall, "rss_mb": rss, "spans": spans})
            if code != 0:
                self.failures[cmd].append(f"exit code {code}")
        self.wall = time.perf_counter() - start
        problems, self.accuracy, self.digests, sizes = inspect_outputs(workload, out_dir)
        for entry in self.commands:
            entry["bytes"] = sizes[entry["command"]]
        self.add_failures(problems)

    def add_failures(self, problems):
        for cmd, why in problems.items():
            if why:
                self.failures[cmd].extend(why)


# -- per-layer metrics from spans ---------------------------------------------

# Self time of a span goes to its function's bucket here, else to the bucket
# of its parent when the parent is in the same module, else to the module's
# default bucket.
BUCKETS = {
    "angular.assemble_angular": "angular.assemble_s",
    "angular.real_sph_block": "angular.sph_eval_s",
    "angular.real_sph_grad_block": "angular.sph_eval_s",
    "angular.eval_psi_block": "angular.sph_eval_s",
    "angular.eval_psi": "angular.sph_eval_s",
    "angular.eval_grad_psi_block": "angular.sph_eval_s",
    "ou_basis.build_collocation": "ou_basis.collocation_s",
    "ou_basis.eval_V": "ou_basis.collocation_s",
    "ou_basis.eval_grad_V": "ou_basis.collocation_s",
    "ou_basis.potential_coupling_matrix": "ou_basis.coupling_s",
    "ou_basis.hardy_matrix": "ou_basis.coupling_s",
    "ou_basis.Collocation.project": "ou_basis.project_s",
    "ou_basis.Collocation.reconstruct": "ou_basis.reconstruct_s",
    "evolve.forcing_coefficients": "evolve.forcing_s",
    "evolve.forcing_coefficients_scaled": "evolve.forcing_s",
    "evolve.check_h_admissible": "evolve.admissibility_s",
    "almgren.check_scaling": "almgren.scaling_s",
    "almgren.run_diagnostics": "almgren.diagnostics_s",
    "almgren.empirical_forcing_allowance": "almgren.diagnostics_s",
    "inequalities.coercivity_bound_constant": "inequalities.coercivity_s",
    "inequalities.coercivity_infimum": "inequalities.coercivity_s",
    "inequalities.hardy_mode_consistency": "inequalities.coercivity_s",
    "quadrature.laguerre_rule": "quadrature.rule_build_s",
    "quadrature.product_rule": "quadrature.rule_build_s",
    "quadrature.zonal_rule": "quadrature.rule_build_s",
}
DEFAULT_BUCKET = {
    "angular": "angular.solve_s",
    "ou_basis": "ou_basis.enumerate_s",
    "evolve": "evolve.integrate_s",
    "almgren": "almgren.trace_s",
    "asymptotics": "asymptotics.extract_s",
    "inequalities": "inequalities.other_s",
    "quadrature": "quadrature.integrate_s",
    "specfun": "specfun.eval_s",
    "config": "config.parse_s",
    "cli": "cli.self_s",
}
SIZES = {"L": "angular.L_final", "modes": "ou_basis.modes",
         "nodes": "ou_basis.nodes", "rows": "almgren.rows"}
COUNTED = {"evolve.forcing_coefficients": "evolve.forcing_calls",
           "angular.assemble_angular": "angular.galerkin_solves",
           "asymptotics.beta_integral": "asymptotics.beta_integral_calls"}


def command_layers(entry):
    """Spans of one traced command, reduced.

    Returns (totals to sum over commands, sizes to take the largest of,
    shares of this command's wall time, forcing durations in us, unpatched
    bindings).
    """
    with open(entry["spans"], encoding="utf-8") as fh:
        data = json.load(fh)
    names, spans, labels = data["names"], data["spans"], data["labels"]
    layer = [names[s[0]].partition(".")[0] for s in spans]
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    bucket = [""] * len(spans)
    totals = defaultdict(float)
    sizes = {}
    covered = angular = forcing = full_sweeps = 0
    forcing_us = []
    for sid, (nid, start, end, parent) in enumerate(spans):
        name, dur = names[nid], end - start
        label = labels.get(str(sid), {})
        if name == "inequalities.sweep":
            kind = "full" if label["N"] == 3 else "zonal"  # N = 3 uses the full cubature
            bucket[sid] = f"inequalities.sweep_s.{label['inequality']}|inequalities.{kind}_sweep_s"
            totals["inequalities.members"] += label["members"]
            full_sweeps += dur if kind == "full" else 0
        elif name in BUCKETS:
            bucket[sid] = BUCKETS[name]
        elif parent >= 0 and layer[parent] == layer[sid]:
            bucket[sid] = bucket[parent]
        else:
            bucket[sid] = DEFAULT_BUCKET.get(layer[sid], f"{layer[sid]}.self_s")
        for key in bucket[sid].split("|"):
            totals[key] += (dur - child[sid]) / 1e9
        if name in COUNTED:
            totals[COUNTED[name]] += 1
        if name == "evolve.forcing_coefficients":
            forcing += dur
            forcing_us.append(dur / 1e3)
        if parent < 0:
            covered += dur
        if layer[sid] == "angular" and (parent < 0 or layer[parent] != "angular"):
            angular += dur
        for key, metric in SIZES.items():
            if key in label:
                sizes[metric] = max(sizes.get(metric, 0), label[key])
        totals["rows_traced"] += label.get("rows", 0)
    for info in data["cache"].values():
        totals["cache_hits"] += info["hits"]
        totals["cache_calls"] += info["hits"] + info["misses"]
    wall = entry["wall"]
    totals["cli.unattributed_s"] += wall - covered / 1e9
    totals["cli.bytes_written"] += entry["bytes"]
    totals["trace.spans"] += len(spans)
    shares = {"angular.command_share": angular / 1e9 / wall}
    if entry["command"] == "simulate":
        shares["evolve.forcing_share"] = forcing / 1e9 / wall
    if entry["command"] == "verify":
        shares["inequalities.full_sweep_share"] = full_sweeps / 1e9 / wall
    return totals, sizes, shares, forcing_us, data["unpatched"]


def percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def session_layers(session):
    """Per-layer metrics of one traced session, and its unpatched bindings."""
    m = defaultdict(float)
    forcing_us, unpatched, command_shares = [], set(), []
    for entry in session.commands:
        if not os.path.isfile(entry["spans"]):
            continue  # the command failed before writing spans; counted already
        totals, sizes, shares, durations, missed = command_layers(entry)
        for key, val in totals.items():
            m[key] += val
        for key, val in sizes.items():
            m[key] = max(m[key], val)
        command_shares.append(shares.pop("angular.command_share"))
        m.update(shares)
        forcing_us += durations
        unpatched.update(missed)
    m["angular.command_share"] = min(command_shares, default=0.0)
    m["evolve.forcing_us_p50"] = percentile(forcing_us, 0.50)
    m["evolve.forcing_us_p99"] = percentile(forcing_us, 0.99)
    rows, calls = m.pop("rows_traced", 0), m.pop("cache_calls", 0)
    m["evolve.calls_per_row"] = m["evolve.forcing_calls"] / rows if rows else 0.0
    m["quadrature.rule_cache_hit_ratio"] = m.pop("cache_hits", 0) / calls if calls else 0.0
    return dict(m), unpatched


# -- the run ------------------------------------------------------------------

def machine_notes(run_dir, deadline):
    notes = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "measured": ("wall time of each hardyheat CLI command in its own fresh process, "
                     "commands run one at a time from one benchmark process, OpenBLAS at its "
                     "default thread count; medians over the sessions of this run; on a "
                     "shared machine wall times can swing by 15% between runs"),
    }
    log = os.path.join(run_dir, "notes.log")
    wall, code, _ = run_process([sys.executable, "-c", NOTES_SNIPPET], log, deadline)
    with open(log, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    if code == 0 and lines:
        notes.update(json.loads(lines[-1]))
    notes["git_sha"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        notes["git_sha"] = proc.stdout.strip() or None
    tree = hashlib.sha256()
    pkg = os.path.join(SRC, "hardyheat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                tree.update(name.encode() + b"\0" + fh.read())
    notes["src_sha256"] = tree.hexdigest()[:16]
    return notes


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hardyheat", "cli.py")):
        print(f"hardyheat sources not found under {SRC}", file=sys.stderr)
        return 2
    begin = time.perf_counter()
    deadline = begin + RUN_LIMIT_S
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    notes = machine_notes(run_dir, deadline)
    config = os.path.join(BENCH, "workloads", WORKLOADS[args.workload][0])
    setup_log = os.path.join(run_dir, "setup.log")
    setup = []
    untraced, traced = [], []
    timed_out = False
    try:
        for rep in range(SETUP_REPS + 1):  # the first one warms the file cache
            wall, code, _ = run_process([sys.executable, "-c", SETUP_SNIPPET, config],
                                        setup_log, deadline)
            if code != 0:
                print(f"set-up failed with exit code {code}; see {setup_log}", file=sys.stderr)
                return 3
            if rep:
                setup.append(wall)
        start = time.perf_counter()
        min_done = 1 if args.trace else MIN_SESSIONS  # traced: pairs of sessions
        while True:
            done, elapsed = len(untraced), time.perf_counter() - start
            if done >= min_done and elapsed >= args.seconds:
                break
            if done and time.perf_counter() + 1.5 * elapsed / done > deadline:
                break  # one more would likely overrun the run limit
            untraced.append(Session(args.workload, args.seed, run_dir, len(untraced), False, deadline))
            if args.trace:
                traced.append(Session(args.workload, args.seed, run_dir, len(traced), True, deadline))
    except RunTimeout as exc:
        timed_out = True
        print(f"run limit of {RUN_LIMIT_S} s reached during {exc}", file=sys.stderr)
    sessions = untraced + traced
    for s in sessions[1:]:
        s.add_failures(byte_mismatches(sessions[0].digests, s.digests))
    attempted = sum(len(s.commands) for s in sessions) + (1 if timed_out else 0)
    failed = sum(len(s.failures) for s in sessions) + (1 if timed_out else 0)
    for i, s in enumerate(sessions):
        for cmd, why in s.failures.items():
            print(f"FAILED session {i} {cmd}: {'; '.join(why)}", file=sys.stderr)

    cmd_walls = defaultdict(list)
    for s in untraced:
        for entry in s.commands:
            cmd_walls[entry["command"]].append(entry["wall"])
    report = {
        "setup_s": (median(setup), "s", f"median of {len(setup)} set-ups"),
        "session_s": (median([s.wall for s in untraced]), "s", f"median of {len(untraced)} sessions"),
        "peak_rss_mb": (max((e["rss_mb"] for s in untraced for e in s.commands), default=0.0),
                        "MB", "largest command RSS"),
    }
    for cmd in WORKLOADS[args.workload][1]:
        report[f"{cmd}_s"] = (median(cmd_walls[cmd]), "s", f"median of {len(cmd_walls[cmd])}")
    report["failure_rate"] = (failed / attempted if attempted else 1.0, "ratio",
                              f"{failed} of {attempted} commands")
    for key in ("beta_route_gap", "hprime_residual"):
        if untraced and key in untraced[0].accuracy:
            report[key] = (untraced[0].accuracy[key], "1", "deterministic")

    names = [m["name"] for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"] + BENCHMARK["end_to_end"]}
    values = {key: val for key, (val, _, _) in report.items()}
    if args.trace and traced:
        layers, unpatched = [], set()
        for s in traced:
            metrics, missed = session_layers(s)
            layers.append(metrics)
            unpatched.update(missed)
        for key in {k for m in layers for k in m}:
            values[key] = median([m.get(key, 0.0) for m in layers])
        for cmd in ("spectrum", "simulate", "beta", "verify"):
            values[f"cli.{cmd}_s"] = median(cmd_walls.get(cmd, []))
        values["trace.overhead_s"] = median([s.wall for s in traced]) - median([s.wall for s in untraced])
        for key in ("beta_route_gap", "hprime_residual"):
            layer = "asymptotics" if key == "beta_route_gap" else "almgren"
            values[f"{layer}.{key}"] = values.get(key, 0.0)
        for key in sorted(values):
            if "." in key:
                report[key] = (values[key], units.get(key, ""), f"median of {len(layers)} traced sessions")
        if unpatched:
            print(f"unpatched bindings: {sorted(unpatched)}", file=sys.stderr)
            failed += 1

    notes["loadavg_end"] = list(os.getloadavg())
    notes["run_s"] = time.perf_counter() - begin
    print(json.dumps({"machine": notes}, sort_keys=True))
    for key, (val, unit, how) in report.items():
        print(f"{args.workload:>10}  {key:<40} {val:>14.6g} {unit:<6} {how}")
    result = {
        "correct": failed == 0 and bool(sessions),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": units[name]} for name in names},
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"machine": notes, "report": report, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
