"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every
tolerance is pinned here, not calibrated elsewhere.
"""

import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from hardyheat import almgren as al
from hardyheat import angular as ang
from hardyheat import asymptotics as asym
from hardyheat import evolve as ev
from hardyheat import inequalities as ineq
from hardyheat import ou_basis as ou
from mode_oracle import (closed_form_reference, nodal_linear_march, potential_values,
                         zonal_quadratic)


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL ({time.perf_counter() - start:.2f} s)")
        raise
    print(f"ACCEPTANCE {label}: PASS ({time.perf_counter() - start:.2f} s)")


def _mode(basis, gamma, which=0):
    hits = [i for i, m in enumerate(basis.modes) if abs(m.gamma - gamma) < 1e-12]
    return hits[which]


def test_c1_spectrum_ladder():
    with criterion("c1 spectrum ladder"):
        spec = ang.solve_angular(ang.AngularPotential.constant(0.0), K=36, N=3)
        basis = ou.enumerate_modes(spec, 2.0)
        counts = Counter(round(float(g), 12) for g in basis.gammas)
        assert sorted(counts) == [0.0, 0.5, 1.0, 1.5, 2.0]
        for g in counts:
            assert counts[g] == math.comb(int(2 * g) + 2, 2)  # {1, 3, 6, 10, 15}
        # eigenvalue error < 1e-12 against the exact half-integer ladder
        for m in basis.modes:
            assert abs(m.gamma - round(2 * m.gamma) / 2.0) < 1e-12


def test_c2_basis_certification():
    with criterion("c2 basis certification (every mode up to gamma 2.5, a=0 and a=0.1)"):
        for lam in (0.0, 0.1):
            spec = ang.solve_angular(ang.AngularPotential.constant(lam), K=49, N=3)
            basis = ou.enumerate_modes(spec, 2.5)
            assert basis.size == 56
            assert basis.gram_residual < 1e-8
            assert basis.bilinear_residual < 1e-6


def test_c3_pure_mode_frequency(basis0):
    with criterion("c3 pure-mode frequency N(t) = gamma to 1e-8"):
        picks = [_mode(basis0, 0.0), _mode(basis0, 0.5, 0), _mode(basis0, 0.5, 1),
                 _mode(basis0, 1.0), _mode(basis0, 2.0)]
        assert len({round(basis0.gammas[k], 9) for k in picks}) >= 3
        for k in picks:
            c0 = ev.build_initial(basis0, [(k, 1.0)])
            traj = ev.integrate_backward(basis0, c0, math.log(1e-3), 0.01,
                                         ev.PerturbationSpec.none())
            trace = al.frequency_trace(traj)
            assert np.max(np.abs(trace.N - basis0.gammas[k])) < 1e-8


def test_c4_mixture_limit(basis0):
    with criterion("c4 mixture limit: N = 0.5t/(1+t), gamma_hat, delta_hat"):
        c0 = ev.build_initial(basis0, [(_mode(basis0, 0.0), 1.0),
                                       (_mode(basis0, 0.5), 1.0)])
        traj = ev.integrate_backward(basis0, c0, math.log(1e-4), 0.005,
                                     ev.PerturbationSpec.none())
        trace = al.frequency_trace(traj)
        assert np.max(np.abs(trace.N - 0.5 * trace.t / (1.0 + trace.t))) < 1e-8
        assert abs(trace.gamma_raw - 0.0) < 1e-6
        assert abs(trace.delta_hat - 1.0) < 0.05


def test_c5_exact_perturbed_family(spec0):
    with criterion("c5 exp_linear family: simulator, frequency, beta"):
        # gamma <= 1 covers the three modes; the smaller basis keeps the
        # 9 deep runs inside the stated budget
        basis0 = ou.enumerate_modes(spec0, 1.0)
        tau_lo = math.log(1e-3)
        for eps in (0.05, 0.1, 0.2):
            pert = ev.PerturbationSpec.linear_constant(eps)
            for gamma in (0.0, 0.5, 1.0):
                k = _mode(basis0, gamma)
                c0 = closed_form_reference(basis0, ("exp_linear", k, eps), 1.0)
                traj = ev.integrate_backward(basis0, c0, math.log(1e-6), 0.01,
                                             pert)
                # simulator vs closed form over tau in [log 1e-3, 0]
                sup = 0.0
                for i in range(traj.size):
                    if traj.tau[i] < tau_lo - 1e-12:
                        continue
                    t = math.exp(traj.tau[i])
                    exact = closed_form_reference(basis0, ("exp_linear", k, eps), t)
                    sup = max(sup, float(np.max(np.abs(traj.coeffs[i] - exact))))
                assert sup < 1e-8
                # N(t) = gamma - eps t rowwise
                trace = al.frequency_trace(traj)
                assert np.max(np.abs(trace.N - (gamma - eps * trace.t))) < 1e-8
                # beta = 1 for every Lambda; Lambda-independence
                _, J0 = ou.multiplicity(gamma, basis0.spectrum)
                spread, (table, *_) = asym.lambda_independence(
                    traj, [0.1, 0.2, 0.3, 0.4], J0, gamma)
                mk = next(mk for mk in table.J0
                          if basis0.mode_index(j=mk[1], n=mk[0]) == k)
                for lam in (0.1, 0.2, 0.3, 0.4):
                    tb = asym.beta_integral(traj, lam, J0, gamma)
                    assert abs(tb.beta[mk] - 1.0) < 1e-6
                assert spread < 1e-8


def _radial_h(profile):
    """Linear spec for h(x, t) = profile(|x|, t), |h| <= 0.1."""
    return ev.PerturbationSpec("linear", h_radial=profile, C_h=0.1)


def _tilted_h(x, t):
    """A non-radial h with |h| <= 0.15, marched by the tests' nodal oracle."""
    r2 = np.sum(x * x, axis=-1)
    return 0.1 * (1.0 + 0.5 * x[..., 0] / np.sqrt(1.0 + r2)) / (1.0 + r2 + t)


def test_c6_scaling_identity(spec0):
    # u_lambda(x, t) = k u(lambda x, lambda^2 t) solves the problem with
    # h_lambda(x, t) = lambda^2 h(lambda x, lambda^2 t) (k = 1), or the same
    # semilinear term with k = lambda^{2/(p-1)}; in self-similar variables
    # that is c_B(t) = k c_A(lambda^2 t).  B is marched on its own from
    # k c_A(lambda^2) and compared with A's rows m, m + 1, ...
    with criterion("c6 scaling law: rescaled march = k c(lambda^2 t), N to 1e-9"):
        basis = ou.enumerate_modes(spec0, 1.0)
        radial = np.flatnonzero(ou.radial_modes(basis))
        runs = {  # data kind: c0; a radial h, and the semilinear term on
            # radial data, march the data's matched j-blocks, the semilinear
            # term on mixed data the product collocation
            "radial": ev.build_initial(basis, [(radial[0], 1.0), (radial[1], 0.5)]),
            "mixed": ev.build_initial(basis, [(radial[0], 1.0), (_mode(basis, 0.5), 0.5)]),
        }
        col = ou.build_collocation(basis, n_r=16)  # the nodal oracle's rule
        dtau, m = 0.01, 40
        taus, _ = ev.tau_grid(-160 * dtau, dtau)
        lam2 = math.exp(taus[m])  # lambda^2 on the grid
        lam = math.sqrt(lam2)
        profile = lambda r, t: 0.1 / (1.0 + r * r + t)
        radial_b = _radial_h(lambda r, t: lam2 * profile(lam * r, lam2 * t))
        p = 3.0
        semi = ev.PerturbationSpec.semilinear(0.05, p, 3)

        def march(pert, n_r=64):  # (c0, tau_min) -> the package's trajectory
            return lambda c0, tau_min: ev.integrate_backward(basis, c0, tau_min, dtau, pert,
                                                             n_r=n_r)

        def nodal(h):  # the same, for an h of any shape, on the nodal oracle
            return lambda c0, tau_min: nodal_linear_march(
                basis, col, h, c0, ev.tau_grid(tau_min, dtau)[0])

        cases = (  # (data, problem A, problem B, k)
            ("radial", march(_radial_h(profile)), march(radial_b), 1.0),
            ("mixed", march(_radial_h(profile)), march(radial_b), 1.0),
            ("mixed", nodal(_tilted_h),
             nodal(lambda x, t: lam2 * _tilted_h(lam * x, lam2 * t)), 1.0),
            ("radial", march(semi), march(semi), lam ** (2.0 / (p - 1.0))),
            ("mixed", march(semi, 16), march(semi, 16), lam ** (2.0 / (p - 1.0))),
        )
        for data, run_a, run_b, k in cases:
            a = run_a(runs[data], taus[-1])
            b = run_b(k * a.coeffs[m], taus[-1] - taus[m])
            want = k * a.coeffs[m:]
            assert b.size == len(want) == 121
            np.testing.assert_allclose(lam2 * b.t, a.t[m:], rtol=1e-14)
            rel = np.max(np.abs(b.coeffs - want), axis=1) / np.max(np.abs(want), axis=1)
            assert np.max(rel) < 1e-12, (data, a.perturbation.label, np.max(rel))
            N_a, N_b = al.compute_HDN(a)[2], al.compute_HDN(b)[2]
            assert np.max(np.abs(N_b - N_a[m:])) < 1e-9, (data, a.perturbation.label)


def test_c7_reconstruction_convergence(basis0):
    with criterion("c7 reconstruction error rates along lambda"):
        k0, k05 = _mode(basis0, 0.0), _mode(basis0, 0.5)
        _, J0 = ou.multiplicity(0.0, basis0.spectrum)
        c0 = ev.build_initial(basis0, [(k0, 1.0), (k05, 1.0)])
        traj = ev.integrate_backward(basis0, c0, math.log(1e-3), 0.005,
                                     ev.PerturbationSpec.none())
        tb = asym.beta_integral(traj, 0.3, J0, 0.0)
        errs = [asym.reconstruction_error(traj, tb, lam, 0.25)[1]
                for lam in (0.5, 0.25, 0.125)]
        assert errs[0] > errs[1] > errs[2]
        for e_big, e_small in zip(errs, errs[1:]):
            order = math.log2(e_big / e_small)
            assert abs(order - 2.0 * (0.5 - 0.0)) < 0.15  # 2(g2 - g1) +/- 15%
        # pure modes reconstruct to < 1e-10
        _, J05 = ou.multiplicity(0.5, basis0.spectrum)
        cp = ev.build_initial(basis0, [(k05, 1.0)])
        pure = ev.integrate_backward(basis0, cp, math.log(1e-3), 0.005,
                                     ev.PerturbationSpec.none())
        tbp = asym.beta_integral(pure, 0.3, J05, 0.5)
        for lam in (0.5, 0.25, 0.125):
            errH, errL = asym.reconstruction_error(pure, tbp, lam, 0.25)
            assert errH < 1e-10 and errL < 1e-10


def test_c8_inequality_sweeps():
    with criterion("c8 randomized inequality sweeps, 1000 members each"):
        seed = 20260810
        for N in (3, 4, 5):
            fam = ineq.TestFamily("bumps", N, 1000, seed)
            spec_c = ang.solve_angular(ang.AngularPotential.constant(0.15),
                                       K=8, N=N)
            for rep in ineq.sweep(ineq.INEQUALITIES, fam, t=0.7, spec=spec_c):
                if "min_relative_gap" in rep:
                    assert rep["min_relative_gap"] > -1e-10
            seed += 1
        # N = 3 anisotropic potential 0.15 c + 0.05 c^2, c the polar cosine,
        # as its exact harmonic table
        pot = zonal_quadratic(0.0, 0.15, 0.05)
        dirs = np.random.default_rng(seed).normal(size=(500, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        c = dirs[:, 0]
        assert np.max(np.abs(potential_values(pot, dirs) - (0.15 * c + 0.05 * c * c))) <= 1e-15
        spec3 = ang.solve_angular(pot, L=16, K=16)
        fam3 = ineq.TestFamily("bumps", 3, 1000, seed)
        [rep] = ineq.sweep(("hardy_anisotropic",), fam3, t=0.7, spec=spec3)
        assert rep["min_relative_gap"] > -1e-10


def test_c9_identities(basis0):
    with criterion("c9 H' = 2D order 2.0, nu1 >= -1e-10, H > 0"):
        # measured order under dtau halving on the curved exp_linear family
        k = _mode(basis0, 0.0)
        pert = ev.PerturbationSpec.linear_constant(0.2)
        c0 = closed_form_reference(basis0, ("exp_linear", k, 0.2), 1.0)
        resid = {}
        for dtau in (0.008, 0.004):
            traj = ev.integrate_backward(basis0, c0, math.log(0.25), dtau, pert)
            resid[dtau] = al.check_Hprime(al.frequency_trace(traj))
        order = math.log2(resid[0.008] / resid[0.004])
        assert abs(order - 2.0) < 0.1
        # nu1 and H positivity on every row of a family of traces
        runs = []
        runs.append(ev.integrate_backward(
            basis0, ev.build_initial(basis0, [(k, 1.0)]), math.log(1e-3), 0.005,
            ev.PerturbationSpec.none()))
        runs.append(ev.integrate_backward(
            basis0,
            ev.build_initial(basis0, [(k, 1.0), (_mode(basis0, 0.5), 1.0)]),
            math.log(1e-3), 0.005, ev.PerturbationSpec.none()))
        runs.append(ev.integrate_backward(basis0, c0, math.log(1e-3), 0.005,
                                          pert))
        for traj in runs:
            trace = al.frequency_trace(traj)
            assert np.all(trace.nu1 >= -1e-10)
            assert np.all(trace.H > 0.0)


def test_c10_simulated_admissible_perturbation(basis0):
    with criterion("c10 bounded-h run: snap, beta agreement, reruns"):
        pert = ev.PerturbationSpec.linear_bounded(0.1)
        k = _mode(basis0, 0.0)
        c0 = ev.build_initial(basis0, [(k, 1.0)])
        tau_min = math.log(1e-6)

        def run(dtau, n_r):
            traj = ev.integrate_backward(basis0, c0, tau_min, dtau, pert, n_r=n_r)
            trace = al.frequency_trace(traj)
            c1 = ineq.coercivity_bound_constant(basis0.spectrum)
            al.run_diagnostics(traj, trace, coercivity_constant=c1)
            assert abs(trace.gamma_raw - trace.gamma_hat) < 1e-5  # snaps
            _, J0 = ou.multiplicity(trace.gamma_hat, basis0.spectrum)
            spread, (table, *_) = asym.lambda_independence(
                traj, [0.1, 0.2, 0.3, 0.4], J0, trace.gamma_hat)
            assert spread < 1e-5  # Lambda-independence on the bounded-h run
            direct = asym.beta_direct(traj, None, J0, trace.gamma_hat)
            agree = max(abs(table.beta[mk] - direct[mk][2]) for mk in table.J0)
            assert agree < 1e-4
            assert al.check_Hprime(trace) < 1e-2  # O(dtau^2) scale
            return trace.gamma_hat, table

        gamma_a, table_a = run(0.01, 48)
        assert gamma_a == 0.0
        # dtau/2 and n_r x 2 reruns reproduce the extraction
        gamma_b, table_b = run(0.005, 48)
        gamma_c, table_c = run(0.01, 96)
        assert gamma_b == gamma_a and gamma_c == gamma_a
        for mk in table_a.J0:
            assert abs(table_b.beta[mk] - table_a.beta[mk]) < 1e-6
            assert abs(table_c.beta[mk] - table_a.beta[mk]) < 1e-6
