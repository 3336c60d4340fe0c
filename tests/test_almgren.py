import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.optimize import least_squares

from hardyheat import almgren as al
from hardyheat import evolve as ev
from hardyheat import inequalities as ineq
from hardyheat import ou_basis as ou
from hardyheat.errors import AccuracyError, InvariantViolationError
from mode_oracle import closed_form_reference


def _mode(basis, gamma):
    return next(i for i, m in enumerate(basis.modes) if abs(m.gamma - gamma) < 1e-12)


@pytest.fixture(scope="module")
def traj_pure(basis0, tau_small):
    k = _mode(basis0, 0.5)
    c0 = ev.build_initial(basis0, [(k, 1.0)])
    return ev.integrate_backward(basis0, c0, tau_small, 0.005,
                                 ev.PerturbationSpec.none()), k


@pytest.fixture(scope="module")
def traj_mix(basis0):
    c0 = ev.build_initial(basis0, [(_mode(basis0, 0.0), 1.0),
                                   (_mode(basis0, 0.5), 1.0)])
    return ev.integrate_backward(basis0, c0, math.log(1e-4), 0.005,
                                 ev.PerturbationSpec.none())


@pytest.fixture(scope="module")
def traj_exp(basis0, tau_small):
    k = _mode(basis0, 0.0)
    pert = ev.PerturbationSpec.linear_constant(0.1)
    c0 = closed_form_reference(basis0, ("exp_linear", k, 0.1), 1.0)
    return ev.integrate_backward(basis0, c0, tau_small, 0.005, pert)


@pytest.fixture(scope="module")
def traj_dense(basis0):
    # every mode populated, so a reordered row sum changes the last bits;
    # dtau = 0.005 because the 2 dtau check at 0.01 fails (see below)
    return _dense_run(basis0, 0.005)


def _dense_run(basis0, dtau):
    c0 = np.random.default_rng(5).normal(size=basis0.size)
    return ev.integrate_backward(basis0, c0, math.log(0.1), dtau,
                                 ev.PerturbationSpec.linear_bounded(0.1))


def test_dense_run_at_coarse_step_fails_the_gate(basis0):
    # the 2 dtau march at dtau = 0.01 misses the kept rows by about 1.2e-8
    with pytest.raises(AccuracyError, match="step-halving disagreement") as info:
        _dense_run(basis0, 0.01)
    step = ev.tau_grid(math.log(0.1), 0.01)[1]
    assert info.value.suggestion == f"dtau <= {step / 4.0}"


def test_compute_HDN_pure_mode(traj_pure):
    traj, k = traj_pure
    # H = t^{2 gamma}, N = gamma for all t (change-of-variables oracle)
    H, _, Nv, _ = al.compute_HDN(traj)
    for i in (0, traj.size // 3, traj.size - 1):
        t = math.exp(traj.tau[i])
        np.testing.assert_allclose(H[i], t**1.0, rtol=1e-13)
        np.testing.assert_allclose(Nv[i], 0.5, atol=1e-13)


def test_compute_HDN_mixture(traj_mix):
    # orthogonality algebra: N(t) = 0.5 t / (1 + t); N(1) = 0.25
    i1 = traj_mix.row_at_t(1.0)
    Nv = al.compute_HDN(traj_mix)[2][i1]
    np.testing.assert_allclose(Nv, 0.25, rtol=1e-13)
    tr = al.frequency_trace(traj_mix)
    np.testing.assert_allclose(tr.N, 0.5 * tr.t / (1.0 + tr.t), atol=1e-8)


def test_compute_HDN_exp_linear(traj_exp):
    # H = e^{-2 eps t} t^{2 gamma}, N = gamma - eps t
    tr = al.frequency_trace(traj_exp)
    np.testing.assert_allclose(tr.N, -0.1 * tr.t, atol=1e-10)
    i = traj_exp.row_at_t(0.5)
    t = math.exp(traj_exp.tau[i])
    Nv = al.compute_HDN(traj_exp)[2][i]
    np.testing.assert_allclose(Nv, -0.1 * t, atol=1e-12)
    np.testing.assert_allclose(-0.1 * 0.5, -0.05)


@pytest.mark.parametrize("name", ["traj_exp", "traj_mix", "traj_dense"])
def test_compute_HDN_matches_rowwise(name, request):
    # the array expressions reproduce the per-row spectral identities bit for bit
    traj = request.getfixturevalue(name)
    g = traj.basis.gammas
    ref = []
    for c, f, tau in zip(traj.coeffs, traj.forcing, traj.tau):
        t = math.exp(tau)
        H = c @ c
        tD = g @ (c * c) - t * (f @ c)
        cp = (g * c - t * f) / t
        perp = cp - ((cp @ c) / H) * c
        ref.append((H, tD / t, tD / H, 2.0 * t * (perp @ perp) / H))
    np.testing.assert_array_equal(traj.t, [math.exp(tau) for tau in traj.tau])
    for got, want in zip(al.compute_HDN(traj), np.array(ref).T):
        np.testing.assert_array_equal(got, want)


def test_trace_drops_underflowed_rows(traj_mix):
    coeffs = traj_mix.coeffs.copy()
    coeffs[-40:] *= 1e-160  # H ~ 1e-320 <= H_FLOOR
    coeffs[-10:] = 0.0      # H = 0 exactly
    traj = ev.Trajectory(traj_mix.basis, traj_mix.rule, traj_mix.tau, coeffs,
                         traj_mix.forcing, traj_mix.perturbation, traj_mix.dtau)
    tr = al.frequency_trace(traj)
    assert "trace truncated: H underflowed on 40 rows" in tr.warnings
    np.testing.assert_array_equal(tr.t, traj.t[-41::-1])
    assert np.all(tr.H > al.H_FLOOR) and np.all(np.isfinite(tr.N))
    full = al.frequency_trace(traj_mix)
    for got, want in ((tr.H, full.H), (tr.D, full.D), (tr.N, full.N), (tr.nu1, full.nu1)):
        np.testing.assert_array_equal(got, want[40:])
    traj.coeffs[:] = 0.0
    with pytest.raises(InvariantViolationError, match="every stored row"):
        al.frequency_trace(traj)


def test_frequency_trace_fits(traj_pure, traj_mix, traj_exp, basis0, tau_small):
    tr_p = al.frequency_trace(traj_pure[0])
    assert tr_p.gamma_hat == 0.5 and abs(tr_p.fit_C) < 1e-10
    tr_m = al.frequency_trace(traj_mix)
    assert abs(tr_m.gamma_raw) < 1e-6 and tr_m.gamma_hat == 0.0
    assert abs(tr_m.delta_hat - 1.0) < 0.05  # next-gap exponent 2(g2 - g1) = 1
    # exp_linear at gamma = 0.5: gamma_hat = 0.5, delta ~ 1
    k = _mode(basis0, 0.5)
    pert = ev.PerturbationSpec.linear_constant(0.1)
    c0 = closed_form_reference(basis0, ("exp_linear", k, 0.1), 1.0)
    traj = ev.integrate_backward(basis0, c0, math.log(1e-4), 0.005, pert)
    tr = al.frequency_trace(traj)
    assert tr.gamma_hat == 0.5 and abs(tr.gamma_raw - 0.5) < 1e-6
    assert abs(tr.delta_hat - 1.0) < 0.05


def _least_squares_fit(t, Nval):
    """The bounded trust-region fit of N ~ g + C t^d as an oracle."""
    g0 = float(Nval[0])
    sol = least_squares(lambda p: p[0] + p[1] * t ** p[2] - Nval,
                        x0=[g0, (Nval[-1] - g0) / t[-1], 1.0],
                        bounds=([-np.inf, -np.inf, al.DELTA_BOUNDS[0]],
                                [np.inf, np.inf, al.DELTA_BOUNDS[1]]),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return sol.x


def _exact_residual(t, Nval, params):
    """Root-mean-square residual of (g, C, d) in 40-digit arithmetic, so
    that two fits closer than double rounding still compare."""
    g, C, d = (mpmath.mpf(float(p)) for p in params)
    with mpmath.workdps(40):
        return math.sqrt(sum((g + C * mpmath.mpf(x) ** d - y) ** 2
                             for x, y in zip(t.tolist(), Nval.tolist())) / len(t))


# the smallest decade of N(t) that simulate fits on these runs
FIT_WINDOWS = json.loads((Path(__file__).parent / "data" / "fit_windows.json").read_text())


def _fit_cases():
    t6, t3 = np.geomspace(1e-6, 1e-5, 200), np.geomspace(1e-2, 1e-1, 100)
    noise = 1.0 + 1e-9 * np.random.default_rng(0).standard_normal(200)
    cases = {f"exact d={d}": (t6, 0.5 + 0.3 * t6**d) for d in (0.05, 0.3, 1.0)}
    cases.update({f"noisy d={d}": (t6, 0.5 + 0.3 * t6**d * noise) for d in (0.05, 0.3, 1.0)})
    cases["d = 1.7, C < 0"] = (t3, -1.2 - 2.0 * t3**1.7)
    cases["d below the range"] = (t6, 0.5 + 0.3 * t6**0.01)
    cases["d above the range"] = (t3, 0.5 + 0.3 * t3**4.5)
    for name, window in FIT_WINDOWS.items():
        cases[name] = (np.array(window["t"]), np.array(window["N"]))
    return cases


@pytest.mark.parametrize("name, data", _fit_cases().items())
def test_fit_limit_matches_least_squares(name, data):
    t, Nval = data
    g, C, d, resid = al._fit_limit(t, Nval)
    ref = _least_squares_fit(t, Nval)
    # measured: |d - d_ref| <= 6.7e-12, |C/C_ref - 1| <= 8.1e-11 and
    # |g - g_ref| <= 8.8e-12 max|N|.  Where d sits at the upper bound,
    # least_squares stops with C off by 2.3e-7 and a larger residual.
    c_tol = 1e-6 if name == "d above the range" else 1e-9
    assert abs(d - ref[2]) <= 1e-10
    assert abs(C - ref[1]) <= c_tol * abs(ref[1])
    assert abs(g - ref[0]) <= 1e-10 * np.max(np.abs(Nval))
    assert al.DELTA_BOUNDS[0] <= d <= al.DELTA_BOUNDS[1]
    # The exact residual is no larger, up to the rounding of the reported g
    # to one double, which costs at most ulp(g)^2 in the mean square.  That
    # allowance matters only where the residual is within a few ulps of g:
    # the "noisy d=1.0" case (residual 1.3e-15 at g = 0.5) uses 90% of it.
    ours, theirs = _exact_residual(t, Nval, (g, C, d)), _exact_residual(t, Nval, ref)
    assert ours**2 <= theirs**2 * (1 + 2e-12) + np.spacing(g) ** 2
    # the reported residual is evaluated in double: good to an ulp of N
    assert resid == pytest.approx(ours, rel=1e-6, abs=np.spacing(np.max(np.abs(Nval))))


@pytest.mark.parametrize("name, data", _fit_cases().items())
def test_scan_residuals_equal_the_pointwise_projection(name, data):
    # one (80, n) call of the shared fit core against one scalar-d call per
    # point, and against the residual _projected returns; the delta scan's
    # blocks of it against the pointwise squared residual sums
    t, Nval = data
    log_t, grid = np.log(t), np.linspace(*al.DELTA_BOUNDS, 80)
    scan = al._linear_fit(log_t, Nval, grid[:, None])
    for i, d in enumerate(grid):
        for row, ref in zip(scan, al._linear_fit(log_t, Nval, d)):
            np.testing.assert_array_equal(row[i].view(np.int64), ref.view(np.int64))
        np.testing.assert_array_equal(scan[3][i].view(np.int64),
                                      al._projected(log_t, Nval, d)[2].view(np.int64))
    pointwise = np.array([np.sum(al._projected(log_t, Nval, d)[2] ** 2) for d in grid])
    np.testing.assert_array_equal(al._scan(log_t, Nval, grid).view(np.int64),
                                  pointwise.view(np.int64))


def test_fit_limit_bounds_and_constant():
    t6, t3 = np.geomspace(1e-6, 1e-5, 200), np.geomspace(1e-2, 1e-1, 100)
    assert al._fit_limit(t6, 0.5 + 0.3 * t6**0.01)[2] == al.DELTA_BOUNDS[0]
    assert al._fit_limit(t3, 0.5 + 0.3 * t3**4.5)[2] == al.DELTA_BOUNDS[1]
    g, C, d, resid = al._fit_limit(t6, np.full(200, 0.25))
    assert (g, C, resid) == (0.25, 0.0, 0.0) and math.isnan(d)


def test_fit_limit_exp_linear_delta_is_one():
    # N(t) = gamma + C t exactly; least_squares left |d - 1| at 2.0e-12
    window = FIT_WINDOWS["exp_linear"]
    d = al._fit_limit(np.array(window["t"]), np.array(window["N"]))[2]
    assert abs(d - 1.0) <= 1e-14


def test_check_Hprime_pure_and_exp(traj_pure, basis0):
    # gamma = 1/2 makes the nonuniform central stencil exact
    tr = al.frequency_trace(traj_pure[0])
    assert al.check_Hprime(tr) < 1e-8
    # exp_linear needs a fine step for the 1e-8 target
    k = _mode(basis0, 0.0)
    pert = ev.PerturbationSpec.linear_constant(0.1)
    c0 = closed_form_reference(basis0, ("exp_linear", k, 0.1), 1.0)
    traj = ev.integrate_backward(basis0, c0, math.log(0.5), 0.00025, pert)
    assert al.check_Hprime(al.frequency_trace(traj)) < 1e-8


def test_check_Hprime_second_order(basis0):
    # residual divides by ~4 under dtau halving
    k = _mode(basis0, 0.0)
    pert = ev.PerturbationSpec.linear_constant(0.2)
    c0 = closed_form_reference(basis0, ("exp_linear", k, 0.2), 1.0)
    resid = {}
    for dtau in (0.008, 0.004):
        traj = ev.integrate_backward(basis0, c0, math.log(0.25), dtau, pert)
        resid[dtau] = al.check_Hprime(al.frequency_trace(traj))
    order = math.log2(resid[0.008] / resid[0.004])
    assert abs(order - 2.0) < 0.1


def test_check_Hprime_exact_for_quadratics():
    # H = a + b t^2 on the geometric t grid of tau_grid: the three-point
    # stencil is exact, while (H+ - H-)/(t+ - t-) is off by b (h2 - h1),
    # about dtau^2/2 = 5e-5 relative to H' = 2 b t
    taus, _ = ev.tau_grid(math.log(0.1), 0.01)
    t = np.exp(taus[::-1])
    a, b = 0.5, 2.0
    trace = SimpleNamespace(t=t, H=a + b * t * t, D=b * t)
    assert al.check_Hprime(trace) < 1e-9


def test_frequency_closed_forms_at_rescaled_times(traj_mix, traj_exp):
    # the values N(lambda^2) of the scaling law N_lambda(1) = N(lambda^2):
    # mixture at lambda = 0.5, N(0.25) = 0.1
    i = traj_mix.row_at_t(0.25)
    t = math.exp(traj_mix.tau[i])
    Nv = al.compute_HDN(traj_mix)[2][i]
    np.testing.assert_allclose(Nv, 0.5 * t / (1.0 + t), rtol=1e-12)
    np.testing.assert_allclose(0.5 * 0.25 / 1.25, 0.1)  # the frozen value
    # exp_linear at lambda = 0.3: N(0.09) = gamma - 0.09 eps
    i = traj_exp.row_at_t(0.09)
    t = math.exp(traj_exp.tau[i])
    np.testing.assert_allclose(al.compute_HDN(traj_exp)[2][i], -0.1 * t, atol=1e-12)


def test_nu1_values(traj_pure, traj_exp, traj_mix):
    traj, _ = traj_pure
    assert abs(al.compute_HDN(traj)[3][traj.size // 2]) < 1e-10      # Schwarz equality
    assert abs(al.compute_HDN(traj_exp)[3][traj_exp.size // 2]) < 1e-10  # v_t parallel to v
    i1 = traj_mix.row_at_t(1.0)
    np.testing.assert_allclose(al.compute_HDN(traj_mix)[3][i1], 0.125, rtol=1e-12)


def test_nu1_spectral_formula(traj_mix):
    # spectral algebra oracle: 2t [ (sum g^2 c^2)(sum c^2) - (sum g c^2)^2 ] / H^2
    i = traj_mix.row_at_t(0.5)
    c = traj_mix.coeffs[i]
    g = traj_mix.basis.gammas
    t = math.exp(traj_mix.tau[i])
    H = c @ c
    expect = 2.0 * (g**2 * c**2).sum() * H - 2.0 * ((g * c**2).sum()) ** 2
    expect /= t * H * H  # c' = gamma c / t, so one t cancels
    np.testing.assert_allclose(al.compute_HDN(traj_mix)[3][i], expect, rtol=1e-11)


@pytest.mark.parametrize("pert", [ev.PerturbationSpec.linear_bounded(0.1),
                                  ev.PerturbationSpec.semilinear(0.05, 2.0, 3)],
                         ids=["linear_bounded", "semilinear"])
def test_nu1_against_finite_difference_v_t(spec0, pert):
    # independent v_t: central differences of the stored c in tau (v_t =
    # c_tau / t) through the same projection; the gap is O(dtau^2)
    basis = ou.enumerate_modes(spec0, 1.0)
    c0 = np.zeros(basis.size)
    c0[0], c0[3] = 1.0, 0.5
    err = {}
    for dtau in (0.01, 0.005):
        traj = ev.integrate_backward(basis, c0, math.log(1e-2), dtau, pert, n_r=16)
        C, t = traj.coeffs[1:-1], traj.t[1:-1]
        cp = (traj.coeffs[:-2] - traj.coeffs[2:]) / (2.0 * traj.dtau * t[:, None])
        H = np.vecdot(C, C)
        perp = cp - (np.vecdot(cp, C) / H)[:, None] * C
        nu1 = al.compute_HDN(traj)[3]
        fd = 2.0 * t * np.vecdot(perp, perp) / H
        err[dtau] = np.max(np.abs(fd - nu1[1:-1])) / np.max(nu1)
    assert err[0.01] < 1e-4
    assert abs(math.log2(err[0.01] / err[0.005]) - 2.0) < 0.1


def test_check_H_powerlaw(traj_pure, traj_mix, traj_exp):
    tr = al.frequency_trace(traj_pure[0])
    K1, pos = al.check_H_powerlaw(tr, 0.5)
    np.testing.assert_allclose(K1, 1.0, rtol=1e-12)
    assert pos
    tr_m = al.frequency_trace(traj_mix)
    K1m, posm = al.check_H_powerlaw(tr_m, 0.0)
    np.testing.assert_allclose(K1m, 2.0, rtol=1e-10)  # bounded above by sum c^2
    assert posm
    tr_e = al.frequency_trace(traj_exp)
    K1e, pose = al.check_H_powerlaw(tr_e, 0.0)
    ratio = tr_e.H / tr_e.t**0.0
    assert pose and np.all(ratio <= 1.0 + 1e-12) and np.all(ratio >= math.exp(-0.2) - 1e-12)


def test_run_diagnostics_unperturbed(traj_mix, basis0):
    c1 = ineq.coercivity_bound_constant(basis0.spectrum)
    report = al.run_diagnostics(traj_mix, al.frequency_trace(traj_mix),
                                coercivity_constant=c1)
    assert report["N_monotone"] and report["gamma_hat"] == 0.0
    np.testing.assert_allclose(report["coercivity_bound"], 0.0, atol=1e-12)


def test_run_diagnostics_perturbed(traj_exp, basis0):
    c1 = ineq.coercivity_bound_constant(basis0.spectrum)
    report = al.run_diagnostics(traj_exp, al.frequency_trace(traj_exp),
                                coercivity_constant=c1)
    # forcing allowance ~ max |t <hv, v>| / H = eps * t_max = 0.1
    np.testing.assert_allclose(report["forcing_allowance"], 0.1, rtol=1e-10)


def test_forcing_share_gate(traj_exp, basis0):
    # h = eps is constant, so t <F, c> = eps t H on every row up to the rule's
    # Gram residual: the share ratio sits at 1, the vacuous coercivity bound
    # is met with equality at t = 1, and a forcing 1e-5 too large fails
    c1 = ineq.coercivity_bound_constant(basis0.spectrum)
    trace = al.frequency_trace(traj_exp)
    report = al.run_diagnostics(traj_exp, trace, coercivity_constant=c1)
    assert abs(report["forcing_share_ratio"] - 1.0) < 1e-14
    assert abs(report["coercivity_margin"]) < 1e-15
    broken = replace(traj_exp, forcing=traj_exp.forcing * (1.0 + 1e-5))
    with pytest.raises(InvariantViolationError, match=r"forcing share .* row \d+ .* is 1\.00001"):
        al.run_diagnostics(broken, trace, coercivity_constant=c1)


def test_monotonicity_violation_detection(traj_exp, basis0):
    # the perturbed trace is decreasing; asking for the unperturbed
    # invariant must fail loudly
    c1 = ineq.coercivity_bound_constant(basis0.spectrum)
    tr = al.frequency_trace(traj_exp)
    fake = ev.PerturbationSpec.none()
    real = traj_exp.perturbation
    traj_exp.perturbation = fake
    try:
        with pytest.raises(InvariantViolationError):
            al.run_diagnostics(traj_exp, tr, coercivity_constant=c1)
    finally:
        traj_exp.perturbation = real


def test_trace_csv_shape(traj_mix):
    tr = al.frequency_trace(traj_mix)
    assert len(tr.t) == traj_mix.size
    assert np.all(np.diff(tr.t) > 0)
    assert np.all(tr.H > 0)
    d = tr.to_jsonable()
    assert "gamma_hat" in d and "delta_hat" in d and "fit_residual" in d
