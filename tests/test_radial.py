"""The matched blocks: runs that keep a span.

Under a constant potential the semilinear term maps radial functions to
radial functions, so a semilinear run on the degree-0 modes (the j = 1
block) is marched on that block's matched n_r-node radial rule.  These
tests hold it against the product rule, check the fallbacks and the route
of stored rows, check the semilinear workload against the closed form of
its Bernoulli ODE and a Hardy potential's run against a rule of its
integrand's own exponent.  A radial linear h keeps every angular block, so
a linear run marches the data's j-blocks alone, each on its matched radial
rule, and builds no collocation; the unperturbed flow forces nothing, so it
builds none either.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hardyheat import almgren as al
from hardyheat import angular as ang
from hardyheat import asymptotics as asym
from hardyheat import cli
from hardyheat import evolve as ev
from hardyheat import inequalities as ineq
from hardyheat import ou_basis as ou
from hardyheat import quadrature as quad
from hardyheat.config import RunConfig, parse_initial, parse_perturbation
from mode_oracle import IntegrandExponentRule, nodal_linear_march, product_route, radial_h

ROOT = Path(__file__).resolve().parents[1]


def _config(path, **overrides):
    cfg = RunConfig.from_file(str(ROOT / path))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def _run(tmp_path, cfg, *commands):
    cfg.directory = str(tmp_path)
    path = tmp_path / "run.ini"
    path.write_text(cfg.to_text())
    for cmd in commands:
        assert cli.main([cmd, "--config", str(path)]) == 0, cmd
    return json.loads((tmp_path / "frequency.json").read_text())


SEMILINEAR = "perfbench/workloads/semilinear.ini"
# each case: the config and overrides of a run whose data and forcing keep
# the radial span
RADIAL_CASES = {
    "semilinear": (SEMILINEAR, {}),
    "two_radial_modes": (SEMILINEAR, {"initial": "modes:0=1.0,4=0.5"}),
    "bounded_h": ("perfbench/workloads/bounded_h.ini", {}),
}


def _beta(cfg, traj):
    trace = al.frequency_trace(traj, cfg.fit_decades)
    assert trace.snapped
    _, J0 = ou.multiplicity(trace.gamma_hat, traj.basis)
    _, tables = asym.lambda_independence(traj, cfg.lambda_grid, J0, trace.gamma_hat)
    return tables[0].beta


@pytest.fixture(scope="module", params=sorted(RADIAL_CASES))
def reduced_and_full(request):
    """(cfg, the CLI's trajectory, the same run on the product rule:
    the semilinear march, or a linear h at every node by the tests' nodal
    oracle)."""
    path, overrides = RADIAL_CASES[request.param]
    cfg = _config(path, **overrides)
    _, basis = cli._spectrum_and_basis(cfg)
    reduced = cli._trajectory(cfg, basis)
    pert, c0 = parse_perturbation(cfg), parse_initial(cfg, basis)
    if pert.kind == "linear":
        product = ou.build_collocation(basis, n_r=cfg.radial_nodes)
        full = nodal_linear_march(basis, product, radial_h(pert.h_radial), c0, reduced.tau)
    else:
        with product_route():
            full = ev.integrate_backward(basis, c0, cfg.tau_min, cfg.dtau, pert,
                                         n_r=cfg.radial_nodes)
    return cfg, reduced, full


def test_reduced_run_matches_the_product_rule(reduced_and_full):
    # measured: rows within 5.4e-19 (semilinear) and 2.6e-18 (bounded_h),
    # beta bit for bit; at a = 0 the radial block is matched by the product
    # rule's own radial rule
    cfg, reduced, full = reduced_and_full
    assert len(full.rule.rule.angular_dirs) > 1
    assert isinstance(reduced.rule, ou.MatchedBlocks)
    assert len(reduced.rule.weights) == cfg.radial_nodes
    assert not np.any(reduced.coeffs[:, ~ou.radial_modes(reduced.basis)])
    assert np.max(np.abs(reduced.coeffs - full.coeffs)) <= 1e-15
    beta, beta_full = _beta(cfg, reduced), _beta(cfg, full)
    assert beta.keys() == beta_full.keys()
    for mk, value in beta_full.items():
        assert abs(beta[mk] - value) <= 1e-14 * abs(value)


def test_radial_simulate_forces_on_the_matched_block(tmp_path, monkeypatch):
    # every call forces on the 16-node matched block and takes the 2 live
    # radial modes of the K = 10 basis, not all K
    calls = []
    counted = ev.forcing_coefficients
    monkeypatch.setattr(
        ev, "forcing_coefficients",
        lambda c, pert, col, *a, **k: calls.append((type(col), len(col.weights), len(c)))
        or counted(c, pert, col, *a, **k),
    )
    cfg = _config(SEMILINEAR, tau_min=math.log(1e-2), dtau=0.01, radial_nodes=16)
    doc = _run(tmp_path, cfg, "simulate")
    assert (doc["collocation_rule"], doc["collocation_nodes"]) == ("matched", 16)
    n = math.ceil(-cfg.tau_min / cfg.dtau - 1e-12)
    assert len(calls) == 4 * n + 4 * math.ceil(n / 2) + 2
    assert set(calls) == {(ou.MatchedBlocks, 16, 2)}


# runs outside the radial span: (config, overrides)
PRODUCT_CASES = {
    "non_radial_mode_in_c0": (SEMILINEAR, {"initial": "modes:0=1.0,1=0.5"}),
    "anisotropic_potential": ("configs/anisotropic.ini",
                              {"perturbation": "semilinear:0.05:2.0"}),
    "unperturbed": (SEMILINEAR, {"perturbation": "none"}),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_fallbacks_take_the_product_rule(name, tmp_path):
    path, overrides = PRODUCT_CASES[name]
    cfg = _config(path, tau_min=math.log(1e-2), dtau=0.01, **overrides)
    _, basis = cli._spectrum_and_basis(cfg)
    # the unperturbed data stay radial, but it forces nothing, so it takes no rule at all
    assert ev.radial_invariant(basis, parse_initial(cfg, basis)) == (name == "unperturbed")
    doc = _run(tmp_path, cfg, "simulate")
    if name == "unperturbed":
        assert (doc["collocation_rule"], doc["collocation_nodes"],
                doc["collocation_gram_residual"]) == ("none", 0, None)
    else:
        assert doc["collocation_rule"] == "product"
        assert doc["collocation_nodes"] > cfg.radial_nodes


def _counted(monkeypatch, module, name, calls):
    """Count the calls of ``module.name`` in ``calls[name]``, wherever the
    package imported it by name."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    for holder in (cli, ev, ou, quad, ineq):
        if getattr(holder, name, None) is real:
            monkeypatch.setattr(holder, name, counted)


@pytest.mark.parametrize("perturbation", ("none", "semilinear:0.05:2.0"))
def test_collocations_built_per_command(perturbation, tmp_path, monkeypatch):
    # the unperturbed flow reads no rule, so it builds none; a perturbed run
    # on the radial span builds one matched block per command and no
    # collocation or product rule, and beta's rows come back from
    # trajectory.csv with one forcing call each
    calls = {"matched_blocks": 0, "build_collocation": 0, "product_rule": 0,
             "forcing_coefficients": 0}
    _counted(monkeypatch, ou, "matched_blocks", calls)
    _counted(monkeypatch, ou, "build_collocation", calls)
    _counted(monkeypatch, quad, "product_rule", calls)
    _counted(monkeypatch, ev, "forcing_coefficients", calls)
    cfg = _config(SEMILINEAR, perturbation=perturbation, tau_min=math.log(1e-3),
                  dtau=0.01, radial_nodes=16)
    n = math.ceil(-cfg.tau_min / cfg.dtau - 1e-12)
    perturbed = perturbation != "none"
    for command, forcing in (("simulate", 4 * n + 4 * math.ceil(n / 2) + 2),
                             ("beta", n + 1)):
        _run(tmp_path, cfg, command)
        assert calls == {"matched_blocks": int(perturbed), "build_collocation": 0,
                         "product_rule": 0,
                         "forcing_coefficients": forcing if perturbed else 0}, command
        calls.update(dict.fromkeys(calls, 0))


@pytest.mark.parametrize("name", ("radial_data", "non_radial_data", "anisotropic"))
def test_linear_run_marches_only_the_data_j_blocks(name, tmp_path, monkeypatch):
    # a linear h is radial, so it builds no collocation, evaluates no
    # eigenfunction and marches the j-blocks of the data alone, each on its
    # matched rule; every other mode stays exactly 0 (the shared product
    # rule's march left up to 3.1e-18 there on the anisotropic basis)
    path, overrides = {
        "radial_data": ("perfbench/workloads/bounded_h.ini", {}),
        "non_radial_data": ("perfbench/workloads/bounded_h.ini",
                            {"initial": "modes:0=1.0,1=0.5"}),
        "anisotropic": ("configs/anisotropic.ini", {"perturbation": "linear_bounded:0.1"}),
    }[name]
    cfg = _config(path, tau_min=math.log(1e-2), dtau=0.01, **overrides)
    _, basis = cli._spectrum_and_basis(cfg)
    calls = {"build_collocation": 0, "eval_psi_block": 0}
    _counted(monkeypatch, ou, "build_collocation", calls)
    psi = ang.eval_psi_block
    monkeypatch.setattr(ang, "eval_psi_block", lambda *a: calls.update(eval_psi_block=1) or psi(*a))
    doc = _run(tmp_path, cfg, "simulate")
    traj = cli._trajectory(cfg, basis)
    assert calls == {"build_collocation": 0, "eval_psi_block": 0}
    js = np.array([m.j for m in basis.modes])
    data_js = set(js[parse_initial(cfg, basis) != 0.0].tolist())
    live = np.isin(js, sorted(data_js))
    assert isinstance(traj.rule, ou.MatchedBlocks)
    assert sorted(traj.rule.live) == list(np.flatnonzero(live))
    assert np.all(traj.coeffs[1:, live] != traj.coeffs[0, live])  # the h moves every live mode
    assert not np.any(traj.coeffs[:, ~live]) and not np.any(traj.forcing[:, ~live])
    assert (doc["collocation_rule"], doc["collocation_nodes"]) == (
        "matched", cfg.radial_nodes * len(data_js))
    assert doc["collocation_gram_residual"] == traj.rule.gram_residual < 1e-14


def test_stored_rows_take_the_rule_of_their_span(basis0):
    # trajectory_from_rows checks the span on every row: rows marched on the
    # matched block come back on it with the march's forcing bit for bit, and
    # one stored row off the span, or a potential that is not constant,
    # sends the whole run to the product rule
    semi = ev.PerturbationSpec.semilinear(0.05, 2.0, 3)
    c0 = np.zeros(basis0.size)
    c0[0] = 1.0
    tau_min = math.log(0.5)
    traj = ev.integrate_backward(basis0, c0, tau_min, 0.01, semi, n_r=16)
    assert isinstance(traj.rule, ou.MatchedBlocks) and len(traj.rule.weights) == 16
    back = ev.trajectory_from_rows(basis0, traj.coeffs, semi, tau_min, 0.01, 16)
    assert isinstance(back.rule, ou.MatchedBlocks)
    assert np.array_equal(back.rule.live, traj.rule.live)
    assert np.array_equal(back.forcing, traj.forcing)
    rows = traj.coeffs.copy()
    rows[-1, np.flatnonzero(~ou.radial_modes(basis0))[-1]] = 1e-300
    aniso = dataclasses.replace(basis0, spectrum=dataclasses.replace(
        basis0.spectrum, potential=ang.AngularPotential.harmonic_table([(1, 0, 0.1)])))
    for run in (ev.trajectory_from_rows(basis0, rows, semi, tau_min, 0.01, 16),
                ev.integrate_backward(aniso, c0, tau_min, 0.01, semi, n_r=16),
                ev.trajectory_from_rows(aniso, traj.coeffs, semi, tau_min, 0.01, 16)):
        assert isinstance(run.rule, ou.Collocation) and len(run.rule.rule.angular_dirs) > 1
        assert np.max(np.abs(run.forcing - traj.forcing)) <= 1e-15


@pytest.mark.parametrize("N", (3, 4, 5))
def test_radial_rule_in_every_dimension(N):
    # l > 0 modes have no nodal table for N > 3, but the matched block needs
    # none: the ground mode follows its Bernoulli ODE, the rest stay zero
    spec = ang.solve_angular(ang.AngularPotential.constant(0.0), K=40, N=N)
    basis = ou.enumerate_modes(spec, 1.0)
    assert basis.max_degree() > 0
    p, eps = 1.5, 0.05
    pert = ev.PerturbationSpec.semilinear(eps, p, N)
    c0 = np.zeros(basis.size)
    c0[0] = 1.0
    traj = ev.integrate_backward(basis, c0, math.log(0.5), 0.01, pert)
    assert isinstance(traj.rule, ou.MatchedBlocks) and traj.rule.gram_residual < 1e-13
    assert list(traj.rule.live) == list(np.flatnonzero(ou.radial_modes(basis)))
    kappa = eps * ((4.0 * math.pi) ** (-N / 4.0)) ** (p - 1.0)
    exact = (1.0 + (p - 1.0) * kappa * (traj.t - 1.0)) ** (1.0 / (1.0 - p))
    np.testing.assert_allclose(traj.coeffs[:, 0], exact, rtol=1e-12, atol=0.0)
    assert not np.any(traj.coeffs[:, ~ou.radial_modes(basis)])


def test_hardy_potential_semilinear_run_on_the_matched_block(tmp_path, monkeypatch):
    # a = 0.2 gives alpha_1 = 0.276: the block's matched rule is exact for
    # its Gram (the shared exponent N/2 - 1 read 1.5e-3 and failed its 1e-4
    # gate), and beta is held to the rule of the integrand's own exponent
    # N/2 - 1 - 3 alpha_1/2, which reads 1.0090741080433072 at every n_r
    # from 16 to 256.  The matched block's beta drifts algebraically in n_r:
    # measured 4.0e-5, 9.1e-6 and 2.0e-6 relative at n_r = 16, 64 and 256
    cfg = _config(SEMILINEAR, potential="constant:0.2")
    freq = _run(tmp_path, cfg, "simulate", "beta")
    assert (freq["collocation_rule"], freq["collocation_nodes"]) == ("matched", cfg.radial_nodes)
    assert freq["collocation_gram_residual"] <= 1e-14
    beta = json.loads((tmp_path / "beta.json").read_text())["beta"]["beta"]
    _, basis = cli._spectrum_and_basis(cfg)
    pert, c0 = parse_perturbation(cfg), parse_initial(cfg, basis)
    # the oracle rule forces in place of the run's matched block
    monkeypatch.setattr(ev, "matched_blocks",
                        lambda basis, rows, n_r: IntegrandExponentRule(basis, pert.p, n_r))
    oracle = [_beta(cfg, ev.integrate_backward(
        basis, c0, cfg.tau_min, cfg.dtau, pert, n_r=n_r))
        for n_r in (16, cfg.radial_nodes)]
    assert list(beta) == ["0,1"] and list(oracle[0]) == [(0, 1)]
    exact = oracle[1][(0, 1)]
    assert abs(oracle[0][(0, 1)] - exact) <= 1e-13 * exact
    assert abs(beta["0,1"] - exact) <= 2e-5 * exact


def test_semilinear_workload_bernoulli_beta(tmp_path):
    # a = 0, c0 = V_0: dc/dtau = -e^tau kappa |c|^{p-1} c with
    # kappa = eps V_0^{p-1}, so beta = [c0^{1-p} - (p-1) kappa]^{1/(1-p)}
    cfg = _config(SEMILINEAR)
    pert = parse_perturbation(cfg)
    N, p = cfg.dimension, pert.p
    kappa = pert.eps * ((4.0 * math.pi) ** (-N / 4.0)) ** (p - 1.0)
    _, basis = cli._spectrum_and_basis(cfg)
    c0 = parse_initial(cfg, basis)
    assert np.count_nonzero(c0) == 1 and c0[0] > 0.0
    exact = (c0[0] ** (1.0 - p) - (p - 1.0) * kappa) ** (1.0 / (1.0 - p))
    freq = _run(tmp_path, cfg, "simulate", "beta")
    doc = json.loads((tmp_path / "beta.json").read_text())
    assert doc["gamma"] == 0.0 and list(doc["beta"]["beta"]) == ["0,1"]
    # measured: 4.4e-15 (integral), 6.7e-11 (direct), |delta_hat - 1| 6e-8
    assert abs(doc["beta"]["beta"]["0,1"] - exact) <= 1e-12 * exact
    assert abs(doc["direct_limits"]["0,1"] - exact) <= 1e-9 * exact
    assert abs(freq["fit"]["delta_hat"] - 1.0) < 1e-6
