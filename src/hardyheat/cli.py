"""Batch front-end: spectrum | simulate | beta | verify | quadcheck.

Every output file carries a metadata header (config hash, basis hash,
package version); numeric CSV fields use shortest round-trip decimals, so
identical config + seed reproduces byte-identical outputs.

Exit codes: 0 success, 2 configuration error, 3 accuracy/invariant
failure, 4 positivity rejection.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import almgren, angular, asymptotics, evolve, inequalities, ou_basis
from .config import RunConfig, _sha256, parse_initial, parse_perturbation, parse_potential
from .errors import (
    AccuracyError,
    ConfigurationError,
    HardyHeatError,
    PositivityError,
)
from .quadrature import sphere_area

# the quadcheck gate on a rule's radial moments, relative
MOMENT_TOL = 1e-11


def _fmt(v) -> str:
    return repr(float(v))


def _write_csv(path, columns, rows, meta) -> str:
    """Write the file; returns the sha256 of its bytes, hashed as written.

    A column whose every entry is +0.0 (all bits zero) is written as the
    cell "0.0", its repr, fixed in the line's template: the exact zeros of
    a wide basis cost no repr each.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, len(columns))  # no rows: (0, n)
    zero = ~np.any(rows.view(np.int64), axis=0)
    line = ",".join("0.0" if z else "{}" for z in zero) + "\n"
    digest = _sha256()

    def put(text):
        data = text.encode("utf-8")
        fh.write(data)
        digest.update(data)

    with open(path, "wb") as fh:
        for key, val in meta.items():
            put(f"# {key} = {val}\n")
        put(",".join(columns) + "\n")
        for row in rows[:, ~zero]:  # row by row: no list of every value
            put(line.format(*map(repr, row.tolist())))
    return digest.hexdigest()


def _read_csv(path):
    """(rows, sha256) of a :func:`_write_csv` file in one pass: every line is
    hashed and only the numeric rows, past the meta lines and the header, go
    to the parser; they come back exactly (the fields are round-trip
    decimals), without a Python float per field."""
    digest = _sha256()

    def unmeta(fh):
        for data in fh:
            digest.update(data)
            if not data.startswith(b"#"):
                yield data.decode("utf-8")

    with open(path, "rb") as fh:
        rows = np.loadtxt(unmeta(fh), delimiter=",", skiprows=1, ndmin=2)
    return rows, digest.hexdigest()


def _write_json(path, payload, meta):
    """Strict JSON (RFC 8259): a NaN or infinite value raises ValueError
    instead of writing a token other parsers reject, before the file opens."""
    text = json.dumps({"meta": meta, **payload}, indent=1, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _meta(cfg, basis=None):
    meta = {"config_hash": cfg.content_hash(), "version": __version__}
    if basis is not None:
        meta["basis_hash"] = basis.content_hash()
    return meta


def _spectrum_and_basis(cfg):
    pot = parse_potential(cfg)
    L = cfg.angular_truncation if cfg.angular_truncation > 0 else None
    spec = angular.solve_angular(pot, L=L, K=cfg.angular_count, N=cfg.dimension)
    basis = ou_basis.enumerate_modes(spec, cfg.gamma_max)
    return spec, basis


def _stored_rows(cfg, outdir, basis, pert):
    """The coefficient rows of the trajectory.csv that ``simulate`` wrote to
    outdir for this run.

    Raises ValueError naming the first mismatch: trajectory.json must carry
    this run's config hash, basis hash, version and step, ``rows_sha256``
    must be the sha256 of the trajectory.csv bytes, a perturbed run's
    ``halving_error`` must pass evolve.HALVING_TOL and the tau column must
    be this run's grid.
    """
    with open(os.path.join(outdir, "trajectory.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    taus, step = evolve.tau_grid(cfg.tau_min, cfg.dtau)
    meta = doc.get("meta") if isinstance(doc, dict) else None
    if not isinstance(meta, dict):
        raise ValueError("trajectory.json has no meta")
    for key, want in dict(_meta(cfg, basis), dtau=step).items():
        if meta.get(key) != want:
            raise ValueError(f"{key} {meta.get(key)!r} is not {want!r}")
    rows, digest = _read_csv(os.path.join(outdir, "trajectory.csv"))
    if doc.get("rows_sha256") != digest:
        raise ValueError("rows_sha256 does not match trajectory.csv")
    err = doc.get("halving_error")
    if pert.kind != "none" and not (isinstance(err, float) and err <= evolve.HALVING_TOL):
        raise ValueError(f"halving_error {err!r} does not pass {evolve.HALVING_TOL}")
    if rows.shape != (len(taus), basis.size + 2) or not np.array_equal(rows[:, 0], taus):
        raise ValueError("the rows are not this run's tau grid")
    return rows[:, 2:]


def _trajectory(cfg, basis, reuse_dir=None):
    """Integrate the flow, or rebuild it from the trajectory.csv in reuse_dir
    when that file is valid for this run (see :func:`_stored_rows`); either
    way on rules of ``radial_nodes`` radial nodes.
    """
    pert = parse_perturbation(cfg)
    c0 = parse_initial(cfg, basis)
    if reuse_dir is not None:
        try:
            coeffs = _stored_rows(cfg, reuse_dir, basis, pert)
        except (OSError, ValueError) as exc:
            print(f"trajectory.csv not reused ({exc}); integrating", file=sys.stderr)
        else:
            print("trajectory rebuilt from trajectory.csv", file=sys.stderr)
            return evolve.trajectory_from_rows(basis, coeffs, pert, cfg.tau_min, cfg.dtau,
                                               cfg.radial_nodes)
    return evolve.integrate_backward(basis, c0, cfg.tau_min, cfg.dtau, pert,
                                     n_r=cfg.radial_nodes)


def cmd_spectrum(cfg, outdir) -> int:
    spec, basis = _spectrum_and_basis(cfg)
    table = {}
    for g in sorted(set(round(float(x), 9) for x in basis.gammas)):
        count, J = ou_basis.multiplicity(g, basis)
        table[_fmt(g)] = {"multiplicity": count, "J": [list(mk) for mk in J]}
    _write_json(
        os.path.join(outdir, "spectrum.json"),
        {
            "angular": spec.to_jsonable(),
            "basis": basis.to_jsonable(),
            "multiplicity_table": table,
            "positivity_margin": angular.check_positivity(spec)[1],
        },
        _meta(cfg, basis),
    )
    print(f"spectrum: {basis.size} modes up to gamma_max={cfg.gamma_max}")
    return 0


def cmd_simulate(cfg, outdir) -> int:
    spec, basis = _spectrum_and_basis(cfg)
    traj = _trajectory(cfg, basis)
    trace = almgren.frequency_trace(traj, cfg.fit_decades)
    hprime = almgren.check_Hprime(trace)
    c1 = inequalities.coercivity_bound_constant(spec)
    report = almgren.run_diagnostics(traj, trace, coercivity_constant=c1)
    shares = traj.truncation_shares()
    rule = traj.rule
    meta = _meta(cfg, basis)
    meta["dtau"] = traj.dtau
    meta["perturbation"] = traj.perturbation.label
    K = basis.size
    rows_sha256 = _write_csv(
        os.path.join(outdir, "trajectory.csv"),
        ["tau", "t"] + [f"c_{k}" for k in range(K)],
        np.column_stack([traj.tau, traj.t, traj.coeffs]),
        meta,
    )
    _write_json(
        os.path.join(outdir, "trajectory.json"),
        {"basis_hash": meta["basis_hash"], "dtau": traj.dtau,
         "perturbation": traj.perturbation.label,
         "tau_min": cfg.tau_min, "modes": K, "rows_sha256": rows_sha256,
         "halving_error": traj.halving_error},
        meta,
    )
    _write_csv(
        os.path.join(outdir, "frequency.csv"),
        ["t", "H", "D", "N", "nu1"],
        np.column_stack([trace.t, trace.H, trace.D, trace.N, trace.nu1]),
        meta,
    )
    _write_json(
        os.path.join(outdir, "frequency.json"),
        {
            "fit": trace.to_jsonable(),
            "K1_hat": report["K1_hat"],
            "hprime_residual": hprime,
            "diagnostics": report,
            "truncation_ratio": float(shares[-1]),
            "truncation_ratio_max": float(shares.max()),
            "collocation_gram_residual": None if rule is None else rule.gram_residual,
            "collocation_rule": _rule_kind(rule),
            "collocation_nodes": 0 if rule is None else len(rule.weights),
            "halving_error": traj.halving_error,
            "halving_tol": None if rule is None else evolve.HALVING_TOL,
            "admissibility_ratio": traj.admissibility_ratio,
        },
        meta,
    )
    print(f"simulate: gamma_hat={trace.gamma_hat} (snapped={trace.snapped}), "
          f"H'=2D residual {hprime:.3e}")
    return 0


def cmd_beta(cfg, outdir) -> int:
    _, basis = _spectrum_and_basis(cfg)
    traj = _trajectory(cfg, basis, reuse_dir=outdir)
    trace = almgren.frequency_trace(traj, cfg.fit_decades)
    if not trace.snapped:
        raise AccuracyError(
            f"gamma_hat = {trace.gamma_raw} did not snap to the spectrum "
            "(within 1e-6); deepen tau_min before extracting beta"
        )
    gamma = trace.gamma_hat
    _, J0 = ou_basis.multiplicity(gamma, basis)
    spread, tables = asymptotics.lambda_independence(traj, cfg.lambda_grid, J0, gamma)
    table = tables[0]  # at the smallest Lambda
    direct = asymptotics.beta_direct(traj, None, J0, gamma)
    agreement = max(
        abs(table.beta[mk] - direct[mk][2]) for mk in table.J0
    )
    # Lambda-independence holds on some unquantified (0, Lambda_0); report
    # the empirical grid range where the table stays within tolerance
    scale = max(abs(v) for v in table.beta.values()) or 1.0
    lambda_ok = [
        lam for lam, tb in zip(sorted(cfg.lambda_grid), tables)
        if max(abs(tb.beta[mk] - table.beta[mk]) for mk in J0) <= 1e-5 * scale
    ]
    meta = _meta(cfg, basis)
    rows = []
    for lam in cfg.recon_lambdas:
        errH, errL = asymptotics.reconstruction_error(traj, table, lam, cfg.recon_tau)
        rows.append([lam, errH, errL])
    _write_csv(os.path.join(outdir, "reconstruction.csv"),
               ["lambda", "errH", "errL"], rows, meta)
    _write_json(
        os.path.join(outdir, "beta.json"),
        {
            "beta": table.to_jsonable(),
            "direct_limits": {f"{m},{k}": direct[(m, k)][2] for (m, k) in table.J0},
            "integral_vs_direct": agreement,
            "gamma": gamma,
            "empirical_lambda_range": [min(lambda_ok), max(lambda_ok)] if lambda_ok else None,
        },
        meta,
    )
    print(f"beta: gamma={gamma}, |J0|={len(table.J0)}, "
          f"Lambda-variation {spread:.3e}, direct-agreement {agreement:.3e}")
    return 0


def cmd_verify(cfg, outdir) -> int:
    pot = parse_potential(cfg)
    # a table passes the positivity gate before any sweep, whatever sweep_dims holds
    if not pot.is_constant:
        spec3 = angular.solve_angular(pot, L=cfg.angular_truncation or None,
                                      K=cfg.angular_count, N=3)
        angular.require_positivity(spec3)
    reports = []
    seed = cfg.seed
    for N in cfg.sweep_dims:
        fam = inequalities.TestFamily("bumps", int(N), cfg.sweep_count, seed)
        seed += 1
        lam = pot.value if pot.is_constant else 0.0
        spec_const = angular.solve_angular(
            angular.AngularPotential.constant(lam), K=8, N=int(N)
        )
        reports += inequalities.sweep(inequalities.INEQUALITIES, fam, t=cfg.sweep_t,
                                      spec=spec_const)
    if not pot.is_constant and 3 in tuple(int(x) for x in cfg.sweep_dims):
        fam = inequalities.TestFamily("bumps", 3, cfg.sweep_count, seed)
        reports += inequalities.sweep(("hardy_anisotropic",), fam, t=cfg.sweep_t, spec=spec3)
    _write_json(os.path.join(outdir, "verify.json"),
                {"sweeps": reports}, _meta(cfg))
    worst = min(
        (r["min_relative_gap"] for r in reports if "min_relative_gap" in r),
        default=math.inf,
    )
    print(f"verify: {len(reports)} sweeps, worst relative gap {worst:.3e}")
    return 0


def _rule_kind(rule) -> str:
    """The name frequency.json and quadcheck.json give a run's rule."""
    if rule is None:
        return "none"
    return "product" if isinstance(rule, ou_basis.Collocation) else "matched"


def cmd_quadcheck(cfg, outdir) -> int:
    """Check the rule this config's run forces on, chosen by the march's own
    ``evolve._check_inputs``; an unperturbed run forces on none, so there
    the matched blocks of the initial data, the rule they would take under
    a linear h.  Its radial moments of degree 2 and 3 (degrees 0 and 1 are
    checked when a rule is built) go against closed forms in s = r^2/4:
    sum_j Gamma(a_j + 1 + d) over the blocks' exponents
    a_j = N/2 - 1 - alpha_j, or 2^{N-1} |S^{N-1}| Gamma(N/2 + d) for the
    product rule.
    """
    _, basis = _spectrum_and_basis(cfg)
    c0 = parse_initial(cfg, basis)[None]
    rule, _ = evolve._check_inputs(basis, parse_perturbation(cfg), c0, cfg.radial_nodes)
    if rule is None:
        rule = ou_basis.matched_blocks(basis, c0, cfg.radial_nodes)
    N = basis.N
    if isinstance(rule, ou_basis.Collocation):
        s = np.sum(rule.rule.points ** 2, axis=1) / 4.0
        exact = lambda d: 2.0 ** (N - 1) * sphere_area(N) * math.gamma(N / 2.0 + d)
    else:
        s = rule.radii ** 2 / 4.0
        alphas = {basis.modes[k].j: basis.modes[k].alpha_j for k in rule.live}.values()
        exact = lambda d: sum(math.gamma(N / 2.0 + d - alpha) for alpha in alphas)
    moments = {f"moment{d}_rel_err": abs(float(rule.weights @ s ** d) / exact(d) - 1.0)
               for d in (2, 3)}
    ok = max(moments.values()) < MOMENT_TOL
    kind = _rule_kind(rule)
    _write_json(os.path.join(outdir, "quadcheck.json"),
                {"rule": kind, "nodes": len(rule.weights), "gram_residual": rule.gram_residual,
                 "gram_tol": ou_basis.RULE_GRAM_TOL, **moments, "moment_tol": MOMENT_TOL,
                 "ok": ok}, _meta(cfg, basis))
    print(f"quadcheck: {kind} rule of {len(rule.weights)} nodes {'ok' if ok else 'FAILED'}")
    if not ok:
        raise AccuracyError("quadrature moment checks failed; see quadcheck.json")
    return 0


COMMANDS = {
    "spectrum": cmd_spectrum,
    "simulate": cmd_simulate,
    "beta": cmd_beta,
    "verify": cmd_verify,
    "quadcheck": cmd_quadcheck,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hardyheat",
        description="Numerical laboratory for self-similar heat flows with "
                    "inverse-square potentials",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="path to an INI run config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.directory = args.out
        cfg.validate()
        os.makedirs(cfg.directory, exist_ok=True)
        return COMMANDS[args.command](cfg, cfg.directory)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PositivityError as exc:
        print(f"positivity rejection: {exc}", file=sys.stderr)
        return 4
    except HardyHeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
