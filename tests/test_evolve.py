import contextlib
import dataclasses
import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyheat import angular as ang
from hardyheat import evolve as ev
from hardyheat import ou_basis as ou
from hardyheat.errors import AccuracyError, ConfigurationError, QuadratureError
from mode_oracle import (admissibility_at_points, closed_form_reference, nodal_linear_forcing,
                         nodal_linear_march, product_route, radial_h)


def test_build_initial_mode_list(basis0):
    c = ev.build_initial(basis0, [(3, 1.0)])
    assert c[3] == 1.0 and np.count_nonzero(c) == 1
    c2 = ev.build_initial(basis0, [(0, 1.0), (2, 2.0)])
    assert c2[0] == 1.0 and c2[2] == 2.0
    with pytest.raises(ConfigurationError, match="mode index 0 given twice"):
        ev.build_initial(basis0, [(0, 1.0), (2, 2.0), (0, -1.0)])


@pytest.mark.parametrize("side", ["below", "above"])
def test_mode_index_outside_basis_rejected(basis0, side):
    # -1 used to set the last mode silently, K to raise IndexError; 0 and
    # K - 1 are the edges that pass
    edge, k = (0, -1) if side == "below" else (basis0.size - 1, basis0.size)
    assert ev.build_initial(basis0, [(edge, 1.0)])[edge] == 1.0
    assert closed_form_reference(basis0, ("pure", edge), 0.5)[edge] > 0.0
    for family in (("pure", k), ("mixture", [(0, 1.0), (k, 1.0)]), ("exp_linear", k, 0.1)):
        with pytest.raises(ConfigurationError, match="mode index"):
            closed_form_reference(basis0, family, 0.5)
    with pytest.raises(ConfigurationError, match="mode index"):
        ev.build_initial(basis0, [(k, 1.0)])


def test_build_initial_projection_vs_doubled_oracle(basis0, col0):
    # per-coefficient agreement with a doubled-resolution cubature oracle
    v = lambda x: np.exp(-np.sum(x * x, axis=1) / 8.0)
    c = col0.project(v(col0.rule.points))
    col2 = ou.build_collocation(basis0, n_r=96)
    c_oracle = col2.project(v(col2.rule.points))
    np.testing.assert_allclose(c, c_oracle, atol=1e-11)
    # and on a gamma <= 4 basis, for a gentler Gaussian
    spec = ang.solve_angular(ang.AngularPotential.constant(0.0), K=100, N=3)
    basis = ou.enumerate_modes(spec, 4.0)
    col = ou.build_collocation(basis, n_r=48)
    v2 = lambda x: np.exp(-np.sum(x * x, axis=1) / 20.0)
    c2 = col.project(v2(col.rule.points))
    col2b = ou.build_collocation(basis, n_r=96)
    np.testing.assert_allclose(c2, col2b.project(v2(col2b.rule.points)), atol=1e-11)


def test_build_initial_orthonormal_combination(basis0, col0):
    vals = col0.Phi[1] + 2.0 * col0.Phi[4]
    c3 = col0.project(vals)
    expect = np.zeros(basis0.size)
    expect[1], expect[4] = 1.0, 2.0
    np.testing.assert_allclose(c3, expect, atol=1e-10)


def test_rhs_unperturbed_diagonal(basis0):
    # the unperturbed right-hand side is Gamma c: each row is c0 t^gamma, mode
    # by mode, and the flow stores no forcing and builds no collocation
    rng = np.random.default_rng(0)
    c = rng.normal(size=basis0.size)
    traj = ev.integrate_backward(basis0, c, -0.3, 0.01, ev.PerturbationSpec.none())
    np.testing.assert_allclose(traj.coeffs, c * traj.t[:, None] ** basis0.gammas,
                               rtol=1e-14)
    assert not np.any(traj.forcing) and traj.rule is None


def _all_blocks(basis, n_r=64):
    """The matched blocks of every mode of the basis."""
    return ou.matched_blocks(basis, np.ones((1, basis.size)), n_r)


def _forcing(pert, t, c, blocks):
    """M(t) c on the live modes of blocks, 0 on the others."""
    F = np.zeros_like(c)
    F[blocks.live] = ev.linear_forcing_matrices([t], pert, blocks)[0] @ c[blocks.live]
    return F


def test_rhs_constant_h_identity_coupling(basis0, col0):
    # <eps v, V_k> = eps c_k by orthonormality, on the matrix route and on
    # the nodal oracle
    eps, t = 0.1, math.exp(-0.7)
    c = np.random.default_rng(1).normal(size=basis0.size)
    pert = ev.PerturbationSpec.linear_constant(eps)
    np.testing.assert_allclose(_forcing(pert, t, c, _all_blocks(basis0)), eps * c, atol=1e-12)
    np.testing.assert_allclose(nodal_linear_forcing(radial_h(pert.h_radial), t, c, col0),
                               eps * c, atol=1e-12)


def test_rhs_semilinear_parity(basis0, col0):
    # constant-v nonlinearity projects only onto even (l even) modes
    pert = ev.PerturbationSpec.semilinear(0.5, 2.0, 3)
    c = np.zeros(basis0.size)
    c[0] = 1.0
    F = ev.forcing_coefficients(c, pert, col0)
    odd = [k for k, m in enumerate(basis0.modes) if m.degree % 2 == 1]
    assert np.max(np.abs(F[odd])) < 1e-13
    assert abs(F[0]) > 1e-3


@pytest.fixture(scope="module")
def basis_aniso():
    # configs/anisotropic.ini: fractional radial exponents and mixed
    # harmonics, where the shared-node product rule is not exact
    from hardyheat.config import RunConfig, parse_potential

    cfg = RunConfig.from_file(
        os.path.join(os.path.dirname(__file__), "..", "configs", "anisotropic.ini")
    )
    spec = ang.solve_angular(parse_potential(cfg), L=cfg.angular_truncation,
                             K=cfg.angular_count, N=cfg.dimension)
    return ou.enumerate_modes(spec, cfg.gamma_max)


@pytest.mark.parametrize("which", ["a0", "aniso"])
def test_radial_forcing_matrix_matches_nodal(which, basis0, col0, basis_aniso):
    # the matched blocks against h at every node of the product rule (the
    # tests' nodal oracle) on the same n_r.  On the a = 0 basis (the
    # configs/bounded_h.ini basis) the radial block shares the product
    # rule's radial rule, so it matches to rounding at every t, and so does
    # every block where h(sqrt(t) r) is nearly constant (t <= 0.02); at t = 1
    # the pole of 0.1 / (1 + r^2) at s = -1/4 leaves the product rule's
    # s^l-weighted integrands of degree l > 0 off by up to 3.0e-6 relative
    # (measured).  On the anisotropic basis the product rule itself is off
    # by its Gram residual (1.5e-6).
    basis = basis0 if which == "a0" else basis_aniso
    col = col0 if which == "a0" else ou.build_collocation(basis, n_r=48)
    blocks = _all_blocks(basis, 48)
    rng = np.random.default_rng(3)
    for pert, constant in ((ev.PerturbationSpec.linear_bounded(0.1), False),
                           (ev.PerturbationSpec.linear_constant(-0.3), True)):
        for t in (1.0, 0.02, 1e-6):
            c = rng.normal(size=basis.size)
            nodal = nodal_linear_forcing(radial_h(pert.h_radial), t, c, col)
            F = _forcing(pert, t, c, blocks)
            if which == "aniso":
                bound = 4.0 * col.gram_residual
            else:
                bound = 1e-14 if constant or t < 1.0 else 1e-5
            assert np.max(np.abs(F - nodal)) <= bound * np.max(np.abs(nodal)), (pert.label, t)
            if which == "a0":  # the radial block alone: the same rule at every t
                c[~ou.radial_modes(basis)] = 0.0
                nodal = nodal_linear_forcing(radial_h(pert.h_radial), t, c, col)
                F = _forcing(pert, t, c, blocks)
                assert np.max(np.abs(F - nodal)) <= 1e-14 * np.max(np.abs(nodal))


def test_linear_constant_matrix_is_scaled_identity(basis0, basis_aniso):
    # orthonormality: <eps V_l, V_k> = eps delta_kl, whatever t, to rounding
    # on each block's matched rule, on the a = 0 basis and on the
    # anisotropic one, where the shared product rule was off by 1.5e-6
    for basis in (basis0, basis_aniso):
        blocks = _all_blocks(basis)
        assert sorted(blocks.live) == list(range(basis.size))
        M = ev.linear_forcing_matrices([1.0, 1e-4], ev.PerturbationSpec.linear_constant(0.7),
                                       blocks)
        assert np.max(np.abs(M - 0.7 * np.eye(basis.size))) <= 1e-14
        assert blocks.gram_residual <= 1e-14


def test_matched_blocks_gram_gate(basis0):
    # T diag(w) T^T - I, the M of h = 1, is gated at 1e-4: two nodes cannot
    # integrate the radial block's degree-4 products (its residual is O(1)),
    # and a linear run refuses them before marching, as the product rule's
    # gate refuses a collocation; three nodes are exact again
    c0 = np.zeros(basis0.size)
    c0[0] = 1.0
    with pytest.raises(QuadratureError, match="raise radial_nodes"):
        ou.matched_blocks(basis0, c0[None], 2)
    pert = ev.PerturbationSpec.linear_bounded(0.1)
    with pytest.raises(QuadratureError, match="raise radial_nodes"):
        ev.integrate_backward(basis0, c0, math.log(0.5), 0.01, pert, n_r=2)
    assert ou.matched_blocks(basis0, c0[None], 3).gram_residual < 1e-13
    with pytest.raises(QuadratureError, match="raise radial_nodes"):
        ou.build_collocation(basis0, n_r=2)


def test_matched_blocks_match_adaptive_radial_quadrature(basis_aniso):
    # each entry of M against scipy's adaptive quad of
    # int f_p f_q h(sqrt(t) r, t) r^2 e^{-r^2/4} dr on the anisotropic
    # basis; entries between two angular indices are exactly 0.  At t = 1
    # the pole of 0.1 / (1 + r^2) at s = -1/4 bounds the rule's geometric
    # convergence: measured 2.4e-8 at n_r = 64 and 3.2e-11 at n_r = 128
    import warnings
    from scipy.integrate import quad

    from hardyheat.ou_basis import _radial_rows

    basis, K = basis_aniso, basis_aniso.size
    js = np.array([m.j for m in basis.modes])
    by_nr = {n_r: _all_blocks(basis, n_r) for n_r in (64, 128)}
    bounds = {1.0: {64: 5e-8, 128: 1e-10}, 1e-3: {64: 1e-15, 128: 1e-15}}
    for pert in (ev.PerturbationSpec.linear_bounded(0.1),
                 ev.PerturbationSpec.linear_constant(-0.3)):
        for t, bound in bounds.items():
            ref = np.zeros((K, K))
            for p, q in zip(*np.nonzero(np.triu(js[:, None] == js[None, :]))):
                modes = [basis.modes[p], basis.modes[q]]
                def f(r):
                    h = pert.h_radial(np.array([math.sqrt(t) * r]), np.array([t]))[0]
                    return np.prod(_radial_rows(modes, 3, np.array([r]))) * r * r \
                        * math.exp(-r * r / 4.0) * h
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # quad's round-off notice
                    ref[p, q] = ref[q, p] = quad(f, 0.0, np.inf, epsabs=1e-16,
                                                 epsrel=1e-14, limit=200)[0]
            for n_r, blocks in by_nr.items():
                M = np.zeros((K, K))
                M[np.ix_(blocks.live, blocks.live)] = ev.linear_forcing_matrices(
                    [t], pert, blocks)[0]
                assert not np.any(M[js[:, None] != js[None, :]])
                assert np.max(np.abs(M - ref)) <= bound[n_r], (pert.label, t, n_r)


def test_pure_mode_power_law(basis0, tau_small):
    k = basis0.mode_index(1, 0)  # use gamma = 0.5 mode below
    k05 = next(i for i, m in enumerate(basis0.modes) if abs(m.gamma - 0.5) < 1e-12)
    c0 = ev.build_initial(basis0, [(k05, 1.0)])
    traj = ev.integrate_backward(basis0, c0, tau_small, 0.005,
                                 ev.PerturbationSpec.none())
    i = traj.row_at_t(0.25)
    t = math.exp(traj.tau[i])
    np.testing.assert_allclose(traj.coeffs[i, k05], t**0.5, rtol=1e-14)
    # off-diagonal leakage is exactly zero
    others = np.delete(np.arange(basis0.size), k05)
    assert np.max(np.abs(traj.coeffs[:, others])) == 0.0


def test_exp_linear_closed_form(basis0, tau_small):
    # c(t) = e^{-0.1 t}, c(0.5) ~ 0.951229 (= e^{-0.05})
    k0 = basis0.mode_index(1, 0)
    pert = ev.PerturbationSpec.linear_constant(0.1)
    c0 = closed_form_reference(basis0, ("exp_linear", k0, 0.1), 1.0)
    traj = ev.integrate_backward(basis0, c0, tau_small, 0.005, pert)
    i = traj.row_at_t(0.5)
    t = math.exp(traj.tau[i])
    np.testing.assert_allclose(traj.coeffs[i, k0], math.exp(-0.1 * t), atol=1e-10)
    np.testing.assert_allclose(math.exp(-0.05), 0.951229424500714, rtol=1e-14)
    # sup error against the family over the whole trace
    sup = max(
        np.max(np.abs(traj.coeffs[i] - closed_form_reference(
            basis0, ("exp_linear", k0, 0.1), math.exp(traj.tau[i]))))
        for i in range(traj.size)
    )
    assert sup < 1e-8


def test_mixture_diagonal_flow(basis0, tau_small):
    k0 = basis0.mode_index(1, 0)
    k05 = next(i for i, m in enumerate(basis0.modes) if abs(m.gamma - 0.5) < 1e-12)
    c0 = ev.build_initial(basis0, [(k0, 1.0), (k05, 1.0)])
    traj = ev.integrate_backward(basis0, c0, tau_small, 0.005,
                                 ev.PerturbationSpec.none())
    for i in (0, traj.size // 2, traj.size - 1):
        t = math.exp(traj.tau[i])
        np.testing.assert_allclose(traj.coeffs[i, k0], 1.0, rtol=1e-14)
        np.testing.assert_allclose(traj.coeffs[i, k05], math.sqrt(t), rtol=1e-13)


def test_closed_form_reference_values(basis0):
    k0 = basis0.mode_index(1, 0)
    k1 = basis0.mode_index(1, 1)  # gamma = 1
    assert closed_form_reference(basis0, ("pure", k0), 1.0)[k0] == 1.0
    c = closed_form_reference(basis0, ("mixture", [(k0, 2.0), (k1, 3.0)]), 0.1)
    np.testing.assert_allclose([c[k0], c[k1]], [2.0, 0.3], rtol=1e-14)
    k05 = next(i for i, m in enumerate(basis0.modes) if abs(m.gamma - 0.5) < 1e-12)
    val = closed_form_reference(basis0, ("exp_linear", k05, 0.2), 0.25)[k05]
    np.testing.assert_allclose(val, math.exp(-0.05) * 0.5, rtol=1e-14)
    np.testing.assert_allclose(val, 0.475614712250357, rtol=1e-14)


def test_family_initial_data_are_the_closed_forms_at_t1(basis0):
    # parse_initial builds each family by build_initial, bit for bit the
    # oracle's closed form at t = 1
    from hardyheat.config import RunConfig, parse_initial

    cfg = RunConfig()
    for spec, family in (("family:pure:4", ("pure", 4)),
                         ("family:mixture:0=2.0,5=-0.5", ("mixture", [(0, 2.0), (5, -0.5)])),
                         ("family:exp_linear:3:0.3", ("exp_linear", 3, 0.3))):
        cfg.initial = spec
        np.testing.assert_array_equal(parse_initial(cfg, basis0),
                                      closed_form_reference(basis0, family, 1.0))


def test_exp_linear_against_independent_rk4():
    # independent scalar RK4 at dtau ~ 1e-4 confirms the family
    gamma, eps = 0.5, 0.2
    f = lambda tau, c: (gamma - eps * math.exp(tau)) * c
    c = math.exp(-eps)  # value at t = 1
    tau_end = math.log(0.25)
    n = round(-tau_end / 1e-4)
    h = tau_end / n
    tau = 0.0
    for _ in range(n):
        k1 = f(tau, c)
        k2 = f(tau + h / 2, c + h / 2 * k1)
        k3 = f(tau + h / 2, c + h / 2 * k2)
        k4 = f(tau + h, c + h * k3)
        c += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        tau += h
    np.testing.assert_allclose(c, math.exp(-eps * 0.25) * 0.25**gamma, atol=1e-12)


_BERNOULLI_CASES = [(N, p) for N in (3, 4, 5) for p in (1.5, 2.0, 3.0)
                    if p < (N + 2) / (N - 2)]


@pytest.mark.parametrize("N, p", _BERNOULLI_CASES)
def test_semilinear_ground_mode_bernoulli(N, p):
    # a = 0: V_0 = (4 pi)^{-N/4} is constant, so its span is invariant and
    # dc/dtau = -e^tau kappa |c|^{p-1} c with kappa = eps V_0^{p-1}, i.e.
    # c(t)^{1-p} = c0^{1-p} + (p-1) kappa (t-1) for c0 > 0, odd in c0; on the
    # matched block, and in N = 3 on the product rule too
    spec = ang.solve_angular(ang.AngularPotential.constant(0.0), K=N + 1, N=N)
    basis = ou.enumerate_modes(spec, 0.0)
    assert basis.size == 1 and basis.max_degree() == 0
    routes = [contextlib.nullcontext] + ([product_route] if N == 3 else [])
    eps = 0.05  # the semilinear workload's
    kappa = eps * ((4.0 * math.pi) ** (-N / 4.0)) ** (p - 1.0)
    pert = ev.PerturbationSpec.semilinear(eps, p, N)
    for c0, route in itertools.product((1.0, -1.0), routes):
        with route():
            traj = ev.integrate_backward(basis, np.array([c0]), math.log(0.5), 0.01, pert,
                                         n_r=8)
        assert isinstance(traj.rule, ou.Collocation) == (route is product_route)
        exact = c0 * (1.0 + (p - 1.0) * kappa * (traj.t - 1.0)) ** (1.0 / (1.0 - p))
        assert abs(exact[-1] - c0) > 1e-4  # the forcing moves the rows
        np.testing.assert_allclose(traj.coeffs[:, 0], exact, rtol=1e-12, atol=0.0)


def test_linearity_of_linear_flow(basis0):
    pert = ev.PerturbationSpec.linear_bounded(0.1)
    k0, k1 = 0, 2
    tau_min = math.log(0.05)
    run = lambda c0: ev.integrate_backward(basis0, c0, tau_min, 0.01, pert).coeffs
    e0, e1 = np.zeros(basis0.size), np.zeros(basis0.size)
    e0[k0], e1[k1] = 1.0, 1.0
    combo = run(2.0 * e0 + 3.0 * e1)
    np.testing.assert_allclose(combo, 2.0 * run(e0) + 3.0 * run(e1), atol=1e-11)


_STORED_FORCING_CASES = {
    "linear_bounded": ev.PerturbationSpec.linear_bounded(0.1),  # K x K route
    "semilinear": ev.PerturbationSpec.semilinear(0.05, 2.0, 3),
}


@pytest.mark.parametrize("name", sorted(_STORED_FORCING_CASES))
def test_stored_forcing_is_the_rowwise_forcing(name, basis0, monkeypatch):
    # the march keeps its first-stage forcing: no post-march pass, and each
    # row's F is the one a direct call at (t_i, c_i) returns, bit for bit;
    # the check marches every second row and ends on the last, for odd n too.
    # The semilinear term is called at every RK4 stage; a linear h makes no
    # call and builds M at the three stage times of each step and at the last
    # row, on the live modes of its matched blocks, which stored rows rebuild
    pert = _STORED_FORCING_CASES[name]
    radial = pert.kind == "linear"
    c0 = np.zeros(basis0.size)
    c0[0], c0[3] = 1.0, 0.5
    counted, build = ev.forcing_coefficients, ev.linear_forcing_matrices
    marches = {"_march_rk4": ev._march_rk4, "_march_linear": ev._march_linear}
    for tau_min, n in ((math.log(0.5), 70), (-0.705, 71)):
        calls, grids, times = [], [], []
        monkeypatch.setattr(ev, "forcing_coefficients",
                            lambda *a, **k: calls.append(1) or counted(*a, **k))
        monkeypatch.setattr(ev, "linear_forcing_matrices",
                            lambda ts, *a, **k: times.append(len(ts)) or build(ts, *a, **k))
        for fname, march in marches.items():
            monkeypatch.setattr(ev, fname, lambda taus, *a, march=march, fname=fname:
                                grids.append((fname, taus)) or march(taus, *a))
        traj = ev.integrate_backward(basis0, c0, tau_min, 0.01, pert)
        assert traj.size - 1 == n
        steps = n + math.ceil(n / 2)
        assert len(calls) == (0 if radial else 4 * steps + 2)
        assert sum(times) == (3 * steps + 2 if radial else 0)
        assert 0.0 < traj.halving_error <= ev.HALVING_TOL
        (fine_name, fine), (coarse_name, coarse) = grids
        assert fine_name == coarse_name == ("_march_linear" if radial else "_march_rk4")
        np.testing.assert_array_equal(fine, traj.tau)
        np.testing.assert_array_equal(coarse, traj.tau[sorted({*range(0, n + 1, 2), n})])
        monkeypatch.undo()
        # a linear h forces through its single-time M, the semilinear term by
        # one call on the product rule, whose live modes are every mode
        rowwise = np.array([_forcing(pert, t, c, traj.rule) if radial
                            else ev.forcing_coefficients(c, pert, traj.rule)
                            for t, c in zip(traj.t, traj.coeffs)])
        assert np.any(rowwise)
        np.testing.assert_array_equal(traj.forcing, rowwise)
        # the rows alone rebuild the same trajectory
        rebuilt = ev.trajectory_from_rows(basis0, traj.coeffs, pert, tau_min, 0.01)
        np.testing.assert_array_equal(rebuilt.tau, traj.tau)
        np.testing.assert_array_equal(rebuilt.t, traj.t)
        np.testing.assert_array_equal(rebuilt.forcing, traj.forcing)
        np.testing.assert_array_equal(rebuilt.rule.live, traj.rule.live)


@pytest.mark.parametrize("name", ["linear_bounded", "linear_constant"])
def test_step_matrix_march_matches_nodal_march(name, basis0, col0):
    # the same h evaluated at every node and RK4 stage (the tests' nodal
    # oracle, fine and coarse marches alike) on the same n_r: the two differ
    # by round-off only where the rules integrate alike, a constant h on
    # every block and any h on the radial block, whose matched rule is the
    # product rule's radial rule
    pert = getattr(ev.PerturbationSpec, name)(0.1)
    h = radial_h(pert.h_radial)
    c0 = np.zeros(basis0.size)
    picks = (0, 3, 7) if name == "linear_constant" else np.flatnonzero(ou.radial_modes(basis0))
    c0[list(picks)] = 1.0, 0.5, -0.25
    for tau_min in (math.log(0.5), -0.705):
        fast = ev.integrate_backward(basis0, c0, tau_min, 0.01, pert, n_r=48)
        taus, _ = ev.tau_grid(tau_min, 0.01)
        slow = nodal_linear_march(basis0, col0, h, c0, taus)
        n = slow.size - 1
        rows2 = [*range(0, n, 2), n]
        coarse = nodal_linear_march(basis0, col0, h, c0, taus[rows2])
        halving_error = np.max(np.abs(coarse.coeffs - slow.coeffs[rows2]))
        assert np.max(np.abs(slow.coeffs[-1] - c0)) > 1e-3  # the flow moves the rows
        scale = np.max(np.abs(slow.coeffs))
        assert np.max(np.abs(fast.coeffs - slow.coeffs)) <= 1e-15 * scale
        assert np.max(np.abs(fast.forcing - slow.forcing)) <= 1e-15 * scale
        assert abs(fast.halving_error - halving_error) <= 1e-15 * scale


@settings(max_examples=25, deadline=None)
@given(taus=st.lists(st.floats(ev.TAU_FLOOR, 0.0), min_size=1, max_size=40),
       cut=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_stacked_forcing_matrices_are_the_single_time_ones(taus, cut, seed, basis0):
    # the bitwise identities behind the stored forcing: each slice of a
    # stacked build is the single-time M whatever else shares the call, the
    # stacked product (M @ C[..., None])[..., 0] is M_i @ c_i row by row, and
    # the forcing of stored rows is that product on the live modes
    ts = np.array([math.exp(tau) for tau in taus])
    blocks = _all_blocks(basis0, 48)
    c = np.random.default_rng(seed).normal(size=(len(ts), basis0.size))
    live = c[:, blocks.live]
    for pert in (ev.PerturbationSpec.linear_bounded(0.1),
                 ev.PerturbationSpec.linear_constant(-0.3)):
        M = ev.linear_forcing_matrices(ts, pert, blocks)
        parts = [ev.linear_forcing_matrices(part, pert, blocks)
                 for part in (ts[:cut], ts[cut:]) if len(part)]
        np.testing.assert_array_equal(np.concatenate(parts), M)
        F = np.zeros_like(c)
        F[:, blocks.live] = (M @ live[..., None])[..., 0]
        for i, t in enumerate(ts):
            single = ev.linear_forcing_matrices([t], pert, blocks)[0]
            np.testing.assert_array_equal(M[i], single)
            np.testing.assert_array_equal(F[i, blocks.live], single @ live[i])
        np.testing.assert_array_equal(ev._row_forcing(ts, live, pert, blocks), F[:, blocks.live])


def test_backward_stability_nonincreasing(basis0, tau_small):
    rng = np.random.default_rng(2)
    c0 = rng.normal(size=basis0.size)
    traj = ev.integrate_backward(basis0, c0, tau_small, 0.005,
                                 ev.PerturbationSpec.none())
    mags = np.abs(traj.coeffs)  # tau descending: |c_k| must not increase
    assert np.all(np.diff(mags, axis=0) <= 1e-15)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_halving_gate(basis0):
    # a violently stiff semilinear forcing cannot pass the 1e-8 agreement
    pert = ev.PerturbationSpec.semilinear(40.0, 3.0, 3)
    c0 = np.zeros(basis0.size)
    c0[0] = 2.0
    with pytest.raises(AccuracyError):
        ev.integrate_backward(basis0, c0, math.log(0.05), 0.01, pert)


def test_parameter_validation(basis0):
    c0 = np.zeros(basis0.size)
    c0[0] = 1.0
    with pytest.raises(ConfigurationError):
        ev.integrate_backward(basis0, c0, math.log(0.5), 0.02,
                              ev.PerturbationSpec.none())
    with pytest.raises(ConfigurationError):
        ev.integrate_backward(basis0, c0, math.log(1e-7), 0.01,
                              ev.PerturbationSpec.none())
    with pytest.raises(ConfigurationError, match="tau_min"):
        ev.integrate_backward(basis0, c0, 0.5, 0.01, ev.PerturbationSpec.none())
    with pytest.raises(ConfigurationError, match="eps_h"):
        ev.integrate_backward(basis0, c0, math.log(0.5), 0.01,
                              ev.PerturbationSpec.linear_constant(0.1, eps_h=2.5))
    with pytest.raises(ConfigurationError):
        ev.PerturbationSpec.semilinear(0.1, 6.0, 3)


def test_check_h_admissible(basis0):
    radii = _all_blocks(basis0, 48).radii
    ok, fails, ratio = ev.check_h_admissible(lambda r, t: np.full(np.shape(r), 0.3), 0.3, 1.0,
                                             radii)
    assert ok and not fails
    # |h| = C_h sits below C_h (1 + r^{-1}) everywhere, closest at the
    # outermost node at t = 1; an h on the bound reaches ratio 1
    r_max = float(np.max(radii))
    assert ratio <= 1.0 and ratio == pytest.approx(1.0 / (1.0 + 1.0 / r_max), rel=1e-14)
    ok, _, ratio = ev.check_h_admissible(lambda r, t: 0.3 * (1.0 + 1.0 / r), 0.3, 1.0, radii)
    assert ok and ratio == pytest.approx(1.0, rel=1e-14)
    ok, _, _ = ev.check_h_admissible(lambda r, t: 1.0 / r, 1.0, 1.0, radii)
    assert ok  # exact form of the bound
    ok, fails, ratio = ev.check_h_admissible(lambda r, t: 1.0 / (r * r), 1.0, 1.5, radii)
    assert not ok and fails  # |x|^{-2} beats the bound at small nodes
    assert ratio >= (1.0 - 1e-14) * max(f[2] / f[3] for f in fails) > 1.0


def test_admissibility_on_radii_matches_every_node(basis_aniso):
    # a radial h and its bound take one value on each sphere, so the radii of
    # the matched rules give the worst ratio that every point of their
    # spheres gives: bit for bit on the unit axis e1, and to rounding of the
    # norms on the directions of a product rule
    from hardyheat import cli
    from hardyheat.config import RunConfig, parse_initial, parse_perturbation
    from hardyheat.quadrature import product_rule

    cfg = RunConfig.from_file(os.path.join(os.path.dirname(__file__), "..", "perfbench",
                                           "workloads", "bounded_h.ini"))
    _, basis = cli._spectrum_and_basis(cfg)
    workload, c0 = parse_perturbation(cfg), parse_initial(cfg, basis)
    radii = ou.matched_blocks(basis, c0[None], cfg.radial_nodes).radii
    assert len(radii) == cfg.radial_nodes  # the radial block alone
    axis = radii[:, None] * np.eye(3)[0]
    aniso_radii = _all_blocks(basis_aniso).radii
    dirs = product_rule(3, 4, 6, 12).angular_dirs
    spheres = (aniso_radii[:, None, None] * dirs).reshape(-1, 3)
    aging = ev.PerturbationSpec("linear", h_radial=lambda r, t: 0.1 / (1.0 + r * r + t),
                                C_h=0.1)
    for pert in (workload, aging):
        args = (pert.h_radial, pert.C_h, pert.eps_h)
        ok, fails, worst = ev.check_h_admissible(*args, radii)
        assert ok and not fails and 0.0 < worst < 1.0
        assert worst == admissibility_at_points(radial_h(pert.h_radial), *args[1:], axis)
        ok, _, worst = ev.check_h_admissible(*args, aniso_radii)
        oracle = admissibility_at_points(radial_h(pert.h_radial), *args[1:], spheres)
        assert ok and abs(worst - oracle) <= 1e-15 * oracle
    # an inverse-square h fails, and each failure names a radius
    ok, fails, worst = ev.check_h_admissible(lambda r, t: 1.0 / (r * r), 1.0, 1.5, radii)
    assert not ok and worst == admissibility_at_points(
        lambda x, t: 1.0 / np.sum(x * x, axis=1), 1.0, 1.5, axis) > 1.0
    for t, i, h, bound in fails:
        r = math.sqrt(t) * radii[i]
        assert (h, bound) == pytest.approx((1.0 / (r * r), 1.0 + r ** -0.5), rel=1e-15)


def test_integrate_backward_rejects_inadmissible_h(basis0):
    c0 = np.zeros(basis0.size)
    c0[0] = 1.0
    inverse_square = ev.PerturbationSpec("linear", h_radial=lambda r, t: 1.0 / (r * r),
                                         C_h=1.0, eps_h=1.5)
    too_large = dataclasses.replace(ev.PerturbationSpec.linear_constant(0.5), C_h=0.1)
    for pert in (inverse_square, too_large):
        with pytest.raises(ConfigurationError, match="admissibility bound"):
            ev.integrate_backward(basis0, c0, math.log(0.5), 0.01, pert)


def test_trajectory_from_rows_unperturbed_and_gates(basis0):
    c0 = np.zeros(basis0.size)
    c0[0], c0[3] = 1.0, 0.5
    none = ev.PerturbationSpec.none()
    traj = ev.integrate_backward(basis0, c0, math.log(0.5), 0.01, none)
    assert not np.any(traj.forcing) and traj.rule is None
    np.testing.assert_allclose(traj.coeffs / np.exp(np.outer(traj.tau, basis0.gammas)),
                               np.tile(c0, (traj.size, 1)), rtol=1e-15)
    # its rows alone rebuild it, with zero forcing and no collocation
    rebuilt = ev.trajectory_from_rows(basis0, traj.coeffs, none, math.log(0.5), 0.01)
    np.testing.assert_array_equal(rebuilt.tau, traj.tau)
    np.testing.assert_array_equal(rebuilt.coeffs, traj.coeffs)
    assert rebuilt.dtau == traj.dtau
    assert not np.any(rebuilt.forcing) and rebuilt.rule is None
    # the input gates of integrate_backward hold for given rows too
    too_large = dataclasses.replace(ev.PerturbationSpec.linear_constant(0.5), C_h=0.1)
    with pytest.raises(ConfigurationError, match="admissibility bound"):
        ev.trajectory_from_rows(basis0, traj.coeffs, too_large, math.log(0.5), 0.01)
    with pytest.raises(ConfigurationError, match="dtau"):
        ev.trajectory_from_rows(basis0, traj.coeffs, none, math.log(0.5), 0.02)
    with pytest.raises(ConfigurationError, match="tau_min"):
        ev.trajectory_from_rows(basis0, traj.coeffs, none, -math.log(0.5), 0.01)
    # one row per point of tau_grid(tau_min, dtau), each of the basis size
    for rows, dtau in ((traj.coeffs, 0.005), (traj.coeffs[:-1], 0.01),
                       (traj.coeffs[:, :-1], 0.01)):
        with pytest.raises(ConfigurationError, match="rows for a grid"):
            ev.trajectory_from_rows(basis0, rows, none, math.log(0.5), dtau)


def test_truncation_flag(basis0):
    # unperturbed runs at both ends: all mass in the last mode is all in
    # the top shell, the ground mode has none there
    for k, share in ((basis0.size - 1, 1.0), (0, 0.0)):
        c0 = np.zeros(basis0.size)
        c0[k] = 1.0
        traj = ev.integrate_backward(basis0, c0, math.log(1e-3), 0.01,
                                     ev.PerturbationSpec.none())
        assert traj.truncation_shares()[-1] == share
    # the flag reads the whole top shell, not the mode that sorts last: the
    # shell's first (radial) mode carries the top-gamma mass here
    top = np.flatnonzero(basis0.gammas == basis0.gammas.max())
    assert top[0] != basis0.size - 1
    c0 = np.zeros(basis0.size)
    c0[0], c0[top[0]] = 1.0, 1.0
    traj = ev.integrate_backward(basis0, c0, math.log(1e-2), 0.01,
                                 ev.PerturbationSpec.none())
    shares = traj.truncation_shares()
    tg = traj.t ** basis0.gammas.max()
    np.testing.assert_allclose(shares, tg / np.sqrt(1.0 + tg * tg), rtol=1e-14, atol=0.0)
    assert shares.max() == shares[0] == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_metadata(basis0, tau_small):
    # each run keeps the gate values it measured, and None for the others
    c0 = np.zeros(basis0.size)
    c0[0] = 1.0
    both = {"halving_error", "admissibility_ratio"}
    for pert, measured in ((ev.PerturbationSpec.none(), set()),
                           (ev.PerturbationSpec.semilinear(0.05, 2.0, 3), {"halving_error"}),
                           (ev.PerturbationSpec.linear_bounded(0.1), both)):
        traj = ev.integrate_backward(basis0, c0, tau_small, 0.01, pert)
        for key in both:
            assert (getattr(traj, key) is None) == (key not in measured), (pert.label, key)
        if measured:
            assert 0.0 < traj.halving_error <= ev.HALVING_TOL
        if "admissibility_ratio" in measured:
            assert 0.0 < traj.admissibility_ratio <= 1.0
        # rows read back are gated again but not marched
        rebuilt = ev.trajectory_from_rows(basis0, traj.coeffs, pert, tau_small, 0.01)
        assert rebuilt.halving_error is None
        assert rebuilt.admissibility_ratio == traj.admissibility_ratio


def test_semilinear_end_to_end(spec0):
    # case-II pipeline: snap, beta route agreement
    from hardyheat import almgren as al
    from hardyheat import asymptotics as asym
    from hardyheat import ou_basis as ou

    basis0 = ou.enumerate_modes(spec0, 1.0)
    pert = ev.PerturbationSpec.semilinear(0.05, 2.0, 3)
    assert pert.delta_tilde(3) == 1.0 and pert.delta_theory(3) == 0.5
    c0 = ev.build_initial(basis0, [(0, 1.0)])
    traj = ev.integrate_backward(basis0, c0, math.log(1e-5), 0.01, pert)
    tr = al.frequency_trace(traj)
    assert tr.snapped and tr.gamma_hat == 0.0
    _, J0 = ou.multiplicity(0.0, basis0.spectrum)
    spread, (table, *_) = asym.lambda_independence(traj, [0.1, 0.2, 0.3], J0, 0.0)
    assert spread < 1e-8
    direct = asym.beta_direct(traj, None, J0, 0.0)
    assert abs(table.beta[(0, 1)] - direct[(0, 1)][2]) < 1e-6
