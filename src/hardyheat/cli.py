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
from .config import RunConfig, parse_initial, parse_perturbation, parse_potential
from .errors import (
    AccuracyError,
    ConfigurationError,
    HardyHeatError,
    PositivityError,
)
from .quadrature import integrate_G, integrate_G_stable, laguerre_rule, product_rule


def _fmt(v) -> str:
    return repr(float(v))


def _write_csv(path, columns, rows, meta):
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in meta.items():
            fh.write(f"# {key} = {val}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, payload, meta):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, **payload}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _meta(cfg, basis=None):
    meta = {"config_hash": cfg.content_hash(), "version": __version__}
    if basis is not None:
        meta["basis_hash"] = basis.content_hash()
    return meta


def _spectrum_and_basis(cfg):
    pot = parse_potential(cfg)
    L = cfg.angular_truncation if cfg.angular_truncation > 0 else None
    spec = angular.solve_angular(pot, L=L, K=cfg.angular_count, N=cfg.dimension)
    ok, margin = angular.check_positivity(spec)
    if not ok:
        raise PositivityError(
            f"mu_1 = {spec.eigenvalues[0]} violates mu_1 > -(N-2)^2/4 "
            f"(margin {margin}); the quadratic form is not positive definite",
            margin=margin,
        )
    basis = ou_basis.enumerate_modes(
        spec, cfg.gamma_max, cfg.max_modes if cfg.max_modes > 0 else None
    )
    return spec, basis


def _trajectory(cfg, spec, basis):
    col = ou_basis.build_collocation(basis, n_r=cfg.radial_nodes)
    pert = parse_perturbation(cfg)
    if pert.kind == "linear":
        c_h = cfg.h_const if cfg.h_const > 0 else abs(pert.eps) or pert.C_h
        ok, failures = evolve.check_h_admissible(pert.h, c_h, cfg.h_eps, col)
        if not ok:
            raise ConfigurationError(
                f"perturbing potential violates the admissibility bound at "
                f"{len(failures)}+ sampled nodes, e.g. {failures[0]}"
            )
    c0 = parse_initial(cfg, basis)
    traj = evolve.integrate_backward(basis, c0, cfg.tau_min, cfg.dtau, pert, col)
    return traj


def cmd_spectrum(cfg, outdir) -> int:
    spec, basis = _spectrum_and_basis(cfg)
    table = {}
    for g in sorted(set(round(float(x), 9) for x in basis.gammas)):
        count, J = ou_basis.multiplicity(g, spec)
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
    traj = _trajectory(cfg, spec, basis)
    trace = almgren.frequency_trace(traj, cfg.fit_decades)
    hprime = almgren.check_Hprime(trace)
    scaling = {repr(l): almgren.check_scaling(traj, l) for l in cfg.scaling_lambdas}
    c1 = inequalities.coercivity_bound_constant(basis)
    report = almgren.run_diagnostics(traj, trace, coercivity_constant=c1)
    meta = _meta(cfg, basis)
    meta["dtau"] = traj.dtau
    meta["perturbation"] = traj.perturbation.label
    K = basis.size
    _write_csv(
        os.path.join(outdir, "trajectory.csv"),
        ["tau", "t"] + [f"c_{k}" for k in range(K)],
        [[traj.tau[i], math.exp(traj.tau[i])] + list(traj.coeffs[i])
         for i in range(traj.size)],
        meta,
    )
    _write_json(
        os.path.join(outdir, "trajectory.json"),
        {"basis_hash": basis.content_hash(), "dtau": traj.dtau,
         "perturbation": traj.perturbation.label,
         "tau_min": cfg.tau_min, "modes": K},
        meta,
    )
    _write_csv(
        os.path.join(outdir, "frequency.csv"),
        ["t", "H", "D", "N", "nu1"],
        list(zip(trace.t, trace.H, trace.D, trace.N, trace.nu1)),
        meta,
    )
    K1_hat, _ = almgren.check_H_powerlaw(trace, trace.gamma_hat)
    _write_json(
        os.path.join(outdir, "frequency.json"),
        {
            "fit": trace.to_jsonable(),
            "K1_hat": K1_hat,
            "hprime_residual": hprime,
            "scaling_deviation": scaling,
            "diagnostics": report,
            "truncation_ratio": traj.truncation_ratio(),
            "collocation_gram_residual": traj.collocation.gram_residual,
            "halving_error": traj.metadata.get("halving_error"),
            "halving_tol": traj.metadata.get("halving_tol"),
        },
        meta,
    )
    print(f"simulate: gamma_hat={trace.gamma_hat} (snapped={trace.snapped}), "
          f"H'=2D residual {hprime:.3e}")
    return 0


def cmd_beta(cfg, outdir) -> int:
    spec, basis = _spectrum_and_basis(cfg)
    traj = _trajectory(cfg, spec, basis)
    trace = almgren.frequency_trace(traj, cfg.fit_decades)
    if not trace.snapped:
        raise AccuracyError(
            f"gamma_hat = {trace.gamma_raw} did not snap to the spectrum "
            "(within 1e-6); deepen tau_min before extracting beta"
        )
    gamma = trace.gamma_hat
    _, J0 = ou_basis.multiplicity(gamma, spec)
    spread, table = asymptotics.lambda_independence(traj, cfg.lambda_grid, J0, gamma)
    direct = asymptotics.beta_direct(traj, None, J0, gamma)
    agreement = max(
        abs(table.beta[mk] - direct[mk][2]) for mk in table.J0
    )
    # Lambda-independence holds on some unquantified (0, Lambda_0); report
    # the empirical grid range where the table stays within tolerance
    ref = asymptotics.beta_integral(traj, min(cfg.lambda_grid), J0, gamma)
    scale = max(abs(v) for v in ref.beta.values()) or 1.0
    lambda_ok = [
        lam for lam in sorted(cfg.lambda_grid)
        if max(abs(asymptotics.beta_integral(traj, lam, J0, gamma).beta[mk]
                   - ref.beta[mk]) for mk in J0) <= 1e-5 * scale
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
    reports = []
    seed = cfg.seed
    for N in cfg.sweep_dims:
        fam = inequalities.TestFamily("bumps", int(N), cfg.sweep_count, seed)
        seed += 1
        lam = pot.value if pot.is_constant else 0.0
        spec_const = angular.solve_angular(
            angular.AngularPotential.constant(lam), K=8, N=int(N)
        )
        for iq in ("hardy_parabolic", "hardy_anisotropic", "x2_bound", "sobolev"):
            reports.append(
                inequalities.sweep(iq, fam, t=cfg.sweep_t, spec=spec_const)
            )
    if not pot.is_constant and 3 in tuple(int(x) for x in cfg.sweep_dims):
        spec3 = angular.solve_angular(pot, L=cfg.angular_truncation or None,
                                      K=cfg.angular_count, N=3)
        fam = inequalities.TestFamily("bumps", 3, cfg.sweep_count, seed)
        reports.append(
            inequalities.sweep("hardy_anisotropic", fam, t=cfg.sweep_t, spec=spec3)
        )
    _write_json(os.path.join(outdir, "verify.json"),
                {"sweeps": reports}, _meta(cfg))
    worst = min(
        (r["min_relative_gap"] for r in reports if "min_relative_gap" in r),
        default=math.inf,
    )
    print(f"verify: {len(reports)} sweeps, worst relative gap {worst:.3e}")
    return 0


def cmd_quadcheck(cfg, outdir) -> int:
    checks = {}
    # generalized Laguerre mass and moment exactness
    for a_gl in (0.0, 0.5, -0.5, 1.5):
        rule = laguerre_rule(a_gl, 16)
        mass_err = abs(rule.weights.sum() - math.gamma(a_gl + 1.0)) / math.gamma(a_gl + 1.0)
        mom3 = float(rule.weights @ rule.nodes**3)
        exact3 = math.gamma(a_gl + 4.0)
        checks[f"laguerre_a={a_gl}"] = {
            "mass_rel_err": mass_err,
            "moment3_rel_err": abs(mom3 - exact3) / exact3,
        }
    # product-rule mass and t-invariance
    for N in (3, 4, 5):
        rule = product_rule(int(N), 32, 10, 20)
        one = lambda x: np.ones(len(x))
        m1 = integrate_G(one, 1.0, rule)
        m2 = integrate_G(one, 0.37, rule)
        exact = (2.0 * math.sqrt(math.pi)) ** N
        checks[f"product_N={N}"] = {
            "mass_rel_err": abs(m1 - exact) / exact,
            "t_invariance": abs(m1 - m2) / exact,
        }
    # |x|^2 moment, N = 3: 2 N t (2 sqrt(pi))^N at t = 1
    rule3 = product_rule(3, 32, 10, 20)
    sq = integrate_G(lambda x: np.sum(x * x, axis=1), 1.0, rule3)
    checks["moment_x2_N3"] = {
        "rel_err": abs(sq - 48.0 * math.pi**1.5) / (48.0 * math.pi**1.5)
    }
    # doubling stability of a generic smooth integrand
    val = integrate_G_stable(
        lambda x: np.exp(-0.5 * np.sum(x * x, axis=1)) * (1.0 + x[:, 0] ** 2),
        1.0, 3, n_r=16,
    )
    checks["doubling_stable"] = {"value": val}
    ok = all(
        err < 1e-11
        for entry in checks.values()
        for key, err in entry.items()
        if key != "value"
    )
    _write_json(os.path.join(outdir, "quadcheck.json"),
                {"checks": checks, "ok": ok}, _meta(cfg))
    print(f"quadcheck: {'ok' if ok else 'FAILED'}")
    if not ok:
        raise AccuracyError("quadrature self-checks failed; see quadcheck.json")
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
