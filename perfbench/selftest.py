"""Self-tests of the benchmark itself, not of hardyheat.

    python3 perfbench/selftest.py

Run it from the root of a source checkout; it takes about four minutes on
two CPUs and must not share the machine with a benchmark run.  It checks:

1. tampering: after a clean semilinear session, an altered beta value and
   an altered byte of trajectory.csv are each counted as a failed command;
2. bindings: the tracer leaves no original function bound in any package
   module or module-level table, and the check that says so does report a
   binding that is put back by hand;
3. counts and coverage: each workload runs traced twice; its counts repeat
   exactly and equal the expected values, and every layer the README's
   table names for the workload records spans with nonzero self time;
4. seeds: the verify workload passes on a second seed;
5. dominant layers on the full-size inputs (configs/bounded_h.ini, the
   aniso_auto config, and verify with the default 1,000 members): forcing
   is at least 90% of bounded_h simulate, angular at least half of each
   aniso_auto command, and the N = 3 sweeps at least 90% of verify.

Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import sys
import time

import run

FAILED = []

# Counts per session of each workload's own config.  The march makes
# 4 + 8 forcing calls per coarse step (RK4, then the step-halving rerun)
# and one more per stored row: 13 n + 1 per command for n steps, so
# 17,967 on the 1,383 rows of bounded_h and 35,933 on the 2,765 rows of
# semilinear.
EXPECTED = {
    "bounded_h": {"evolve.forcing_calls": 2 * 17967, "almgren.rows": 1383,
                  "ou_basis.modes": 10, "ou_basis.nodes": 8064,
                  "asymptotics.beta_integral_calls": 9},
    "semilinear": {"evolve.forcing_calls": 2 * 35933, "almgren.rows": 2765,
                   "ou_basis.modes": 10, "ou_basis.nodes": 16128,
                   "asymptotics.beta_integral_calls": 9},
    "aniso_auto": {"angular.galerkin_solves": 3 * 2, "angular.L_final": 32,
                   "ou_basis.modes": 16, "asymptotics.beta_integral_calls": 9},
    "verify": {"inequalities.members": 12 * 250},
}
# Layers the README's table names for each workload.
LAYERS = {
    "bounded_h": ("ou_basis", "evolve", "almgren", "asymptotics", "cli"),
    "semilinear": ("ou_basis", "evolve", "asymptotics", "cli"),
    "aniso_auto": ("angular", "ou_basis", "asymptotics", "inequalities", "cli"),
    "verify": ("inequalities", "quadrature", "cli"),
}


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        FAILED.append(what)


def work_dir(name):
    path = os.path.join(run.WORK, "selftest", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def deadline():
    return time.perf_counter() + run.RUN_LIMIT_S


def test_tampering():
    run_dir = work_dir("tamper")
    session = run.Session("semilinear", 1, run_dir, 0, False, deadline())
    check(not session.failures, f"clean semilinear session has no failures {dict(session.failures)}")
    out = os.path.join(run_dir, "out")

    beta_path = os.path.join(out, "beta.json")
    with open(beta_path, "rb") as fh:
        original = fh.read()
    doc = json.loads(original)
    doc["beta"]["beta"]["0,1"] *= 1.0 + 1e-5
    with open(beta_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    problems, _, digests, _ = run.inspect_outputs("semilinear", out)
    check(sorted(cmd for cmd, why in problems.items() if why) == ["beta"],
          f"a beta value off by 1e-5 relative fails the beta command: {dict(problems)}")
    with open(beta_path, "wb") as fh:
        fh.write(original)

    traj_path = os.path.join(out, "trajectory.csv")
    with open(traj_path, "rb") as fh:
        data = bytearray(fh.read())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")  # last digit of the last row
    with open(traj_path, "wb") as fh:
        fh.write(data)
    _, _, digests, _ = run.inspect_outputs("semilinear", out)
    problems = run.byte_mismatches(session.digests, digests)
    check(sorted(problems) == ["simulate"],
          f"one altered byte of trajectory.csv fails the simulate command: {dict(problems)}")


def test_bindings():
    sys.path.insert(0, run.SRC)
    sys.path.insert(0, run.BENCH)
    tracer_mod = importlib.import_module("tracer")
    tracer = tracer_mod.Tracer()
    check(tracer.install() == [], "the tracer patches every binding of every wrapped function")
    cli = importlib.import_module("hardyheat.cli")
    quadrature = importlib.import_module("hardyheat.quadrature")
    wrapped = cli.integrate_G
    cli.integrate_G = wrapped.__wrapped__
    cli.COMMANDS["verify"] = cli.COMMANDS["verify"].__wrapped__
    modules = [m for name, m in sys.modules.items() if name.startswith("hardyheat")]
    missed = tracer.unpatched(modules)
    check(sorted(missed) == ["hardyheat.cli.COMMANDS['verify']", "hardyheat.cli.integrate_G"],
          f"the binding check reports originals put back by hand: {missed}")
    check(quadrature.integrate_G is wrapped, "the defining module keeps its wrapper")


def test_counts_and_coverage():
    for workload, expected in EXPECTED.items():
        run_dir = work_dir(f"counts-{workload}")
        metrics = []
        for index in range(2):
            session = run.Session(workload, 1, run_dir, index, True, deadline())
            check(not session.failures, f"{workload} traced session {index} has no failures")
            layers, unpatched = run.session_layers(session)
            check(not unpatched, f"{workload} traced session {index} leaves no binding unpatched")
            metrics.append(layers)
            if index == 0:
                for layer in LAYERS[workload]:
                    spans = 0
                    for entry in session.commands:
                        with open(entry["spans"], encoding="utf-8") as fh:
                            data = json.load(fh)
                        spans += sum(1 for s in data["spans"]
                                     if data["names"][s[0]].startswith(layer + "."))
                    self_s = sum(v for k, v in layers.items()
                                 if k.startswith(layer + ".") and k.endswith("_s")
                                 and k != "cli.unattributed_s")
                    check(spans > 0 and self_s > 0,
                          f"{workload}: layer {layer} records {spans} spans, {self_s:.4f} s self time")
        counts = {k for k, unit in ((m["name"], m["unit"]) for m in run.BENCHMARK["per_layer"])
                  if unit == "count"}
        repeat = {k: (metrics[0].get(k), metrics[1].get(k)) for k in counts
                  if metrics[0].get(k) != metrics[1].get(k)}
        check(not repeat, f"{workload}: every count repeats exactly across two runs {repeat}")
        wrong = {k: (metrics[0].get(k), v) for k, v in expected.items() if metrics[0].get(k) != v}
        check(not wrong, f"{workload}: counts equal the expected values {expected} {wrong}")


def test_second_seed():
    for seed in (1, 2):
        session = run.Session("verify", seed, work_dir(f"verify-seed{seed}"), 0, False, deadline())
        check(not session.failures, f"verify passes on seed {seed} {dict(session.failures)}")


def traced_command(run_dir, name, cli_args):
    spans = os.path.join(run_dir, f"spans-{name}.json")
    argv = [sys.executable, run.TRACER, spans, "--"] + cli_args
    wall, code, _ = run.run_process(argv, os.path.join(run_dir, "commands.log"), deadline())
    check(code == 0, f"full-size {name} exits 0")
    entry = {"command": cli_args[0], "wall": wall, "spans": spans, "bytes": 0}
    totals, sizes, shares, _, _ = run.command_layers(entry)
    return {**totals, **sizes, **shares}


def test_full_size_dominance():
    run_dir = work_dir("full")
    out = os.path.relpath(os.path.join(run_dir, "out"), run.ROOT)
    bounded = traced_command(run_dir, "bounded_h-simulate", [
        "simulate", "--config", os.path.join(run.ROOT, "configs", "bounded_h.ini"), "--out", out])
    check(bounded["evolve.forcing_calls"] == 35933 and bounded["almgren.rows"] == 2765,
          f"configs/bounded_h.ini makes {bounded['evolve.forcing_calls']:.0f} forcing calls "
          f"on {bounded['almgren.rows']} rows (expected 35,933 on 2,765)")
    check(bounded["evolve.forcing_share"] >= 0.9,
          f"forcing is {bounded['evolve.forcing_share']:.1%} of bounded_h simulate (>= 90%)")
    aniso = os.path.join(run.BENCH, "workloads", "aniso_auto.ini")
    for cmd in run.WORKLOADS["aniso_auto"][1]:
        layers = traced_command(run_dir, f"aniso_auto-{cmd}", [cmd, "--config", aniso, "--out", out])
        check(layers["angular.command_share"] >= 0.5,
              f"angular is {layers['angular.command_share']:.1%} of aniso_auto {cmd} (>= 50%)")
    verify = traced_command(run_dir, "verify-default", ["verify", "--out", out, "--seed", "1"])
    check(verify["inequalities.members"] == 12000,
          f"default verify evaluates {verify['inequalities.members']:.0f} members (expected 12,000)")
    check(verify["inequalities.full_sweep_share"] >= 0.9,
          f"N = 3 sweeps are {verify['inequalities.full_sweep_share']:.1%} of default verify (>= 90%)")


def main():
    if not os.path.isfile(os.path.join(run.SRC, "hardyheat", "cli.py")):
        print(f"hardyheat sources not found under {run.SRC}", file=sys.stderr)
        return 2
    for test in (test_tampering, test_bindings, test_counts_and_coverage,
                 test_second_seed, test_full_size_dominance):
        test()
    print(f"{len(FAILED)} check(s) failed" if FAILED else "all checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
