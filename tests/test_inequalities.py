import math

import numpy as np
import pytest

from hardyheat import angular as ang
from hardyheat import inequalities as ineq
from hardyheat import ou_basis as ou
from hardyheat import quadrature as quad
from hardyheat.errors import ConfigurationError


class Constant:
    def value(self, x):
        return np.ones(len(x))

    def grad(self, x):
        return np.zeros_like(x)


def test_hardy_parabolic_constant_oracle():
    # LHS = 4 pi^{3/2}, RHS = 8 pi^{3/2} from 1-D Gaussian integrals
    gap, _ = ineq.member_gap("hardy_parabolic", Constant(), 1.0, ineq.rule_pair(3))
    np.testing.assert_allclose(gap, 4.0 * math.pi**1.5, rtol=1e-12)


@pytest.mark.parametrize("N", [3, 4])
def test_hardy_parabolic_scaling_relation(N):
    # gap(u(./sqrt(tau)), t tau) = gap(u, t)/tau exactly at quadrature level,
    # on the full rule (N = 3) and on the zonal one (N = 4)
    axis = np.zeros(N)
    axis[-1] = 1.0
    bump = ineq.GaussianBump(0.5, 0.8, axis)
    rules = ineq.rule_pair(N)
    g1, _ = ineq.member_gap("hardy_parabolic", bump, 1.0, rules)
    tau = 2.2
    g2, _ = ineq.member_gap("hardy_parabolic", ineq.RescaledFunction(bump, tau), tau, rules)
    np.testing.assert_allclose(g2, g1 / tau, rtol=1e-12)


def test_zonal_rules_match_full_rules():
    # the zonal reduction of every integral, singular twin included, against
    # the full cubature on an N = 3 bump with an oblique axis
    axis = np.array([0.3, -0.5, 0.8])
    bump = ineq.GaussianBump(0.6, 0.9, axis / np.linalg.norm(axis))
    full = ineq.rule_pair(3)
    zonal = (quad.zonal_rule(3, 48, 28), quad.zonal_rule(3, 48, 28, a_gl=-0.5))
    pot = ang.AngularPotential.constant(0.1)
    for t in (1.0, 0.4):
        If = ineq._integrals(bump, t, full, potential=pot)
        Iz = ineq._integrals(bump, t, zonal, potential=pot)
        for name in ("u2", "grad2", "u2_over_r2", "r2u2", "a_u2_over_r2"):
            np.testing.assert_allclose(getattr(Iz, name), getattr(If, name),
                                       rtol=1e-12, err_msg=name)


def test_x2_bound_constant_oracle():
    # (1/16) * 48 pi^{3/2} = 3 pi^{3/2} vs (3/4) * 8 pi^{3/2} = 6 pi^{3/2}
    gap, _ = ineq.member_gap("x2_bound", Constant(), 1.0, ineq.rule_pair(3))
    np.testing.assert_allclose(gap, 3.0 * math.pi**1.5, rtol=1e-12)


def test_x2_bound_near_equality_probe():
    probe = ineq.PolyGaussian((1.0, 0.0, 0.0, 0.0, 0.3, 0.3, 0.3, 0, 0, 0), 1.0 / 8.0)
    gap, _ = ineq.member_gap("x2_bound", probe, 1.0, ineq.rule_pair(3))
    assert gap > 0.0


def test_sobolev_s2_ratio_below_one():
    r = ineq.sobolev_ratio(Constant(), 2.0, 1.0, 3)
    assert r <= 1.0 + 1e-12


def test_sobolev_scaling_invariance_exact():
    bump = ineq.GaussianBump(0.7, 0.9, np.array([0.0, 1.0, 0.0]))
    # verify_scaling=True raises on any 1e-10 deviation
    ineq.sobolev_ratio(bump, 2.5, 0.7, 3, verify_scaling=True)


def test_sobolev_family_sup_stable_under_doubling():
    sups = []
    for count in (150, 300):
        fam = ineq.TestFamily("bumps", 3, count, 99)
        rep = ineq.sweep("sobolev", fam, t=0.7)
        sups.append(rep["sup_ratio"])
    assert abs(sups[1] - sups[0]) < 0.5 * sups[0]


def test_anisotropic_reduces_to_parabolic_at_zero(spec0):
    # a = 0: mu_1 = 0 and the bound is a rearranged parabolic Hardy
    gap, _ = ineq.member_gap("hardy_anisotropic", Constant(), 1.0, ineq.rule_pair(3), spec0)
    assert gap > 0.0


def test_anisotropic_ground_mode_near_extremal(basis0, spec0):
    # B(V~, V~) = 0 and the mode is radial-extremal: small positive gap
    member = ineq.BasisModeFunction(basis0, 0)
    gap, _ = ineq.member_gap("hardy_anisotropic", member, 1.0, ineq.rule_pair(3), spec0)
    assert 0.0 < gap < 0.2
    np.testing.assert_allclose(gap, 0.125, atol=5e-3)


def test_constant_potential_gap_is_lambda_free():
    # for a = lambda the two sides shift identically: the gap cannot move
    gaps = [
        ineq.member_gap(
            "hardy_anisotropic", Constant(), 1.0, ineq.rule_pair(3),
            ang.solve_angular(ang.AngularPotential.constant(lam), K=4, N=3),
        )[0]
        for lam in (0.0, 0.1, 0.2)
    ]
    np.testing.assert_allclose(gaps, gaps[0], rtol=1e-12)


def test_anisotropic_gap_monotone_trend():
    # zonal potential lam * cos(polar) against a bump sitting where a > 0:
    # the potential side grows faster than mu_1 drops, tightening the gap
    bump = ineq.GaussianBump(0.8, 0.8, np.array([1.0, 0.0, 0.0]))
    gaps = []
    for lam in (0.0, 0.1, 0.2, 0.3):
        pot = ang.AngularPotential.zonal(lambda c, s=lam: s * c)
        spec = ang.solve_angular(pot, L=12, K=4)
        gaps.append(ineq.member_gap("hardy_anisotropic", bump, 1.0, ineq.rule_pair(3), spec)[0])
    assert all(np.diff(gaps) < 0)


def test_mode_family_sweep(basis0, spec0):
    fam = ineq.TestFamily("modes", 3, basis0.size, 0)
    rep = ineq.sweep("hardy_parabolic", fam, t=1.0, basis=basis0)
    assert rep["min_relative_gap"] > -1e-10


def test_randomized_sweeps_no_violation():
    for N in (3, 4, 5):
        fam = ineq.TestFamily("bumps", N, 150, 60 + N)
        for iq in ("hardy_parabolic", "x2_bound"):
            rep = ineq.sweep(iq, fam, t=0.7)
            assert rep["min_relative_gap"] > -1e-10
    famp = ineq.TestFamily("polygauss", 3, 150, 66)
    assert ineq.sweep("hardy_parabolic", famp, t=0.4)["min_relative_gap"] > -1e-10


def test_family_reproducibility():
    f1 = list(ineq.TestFamily("bumps", 3, 5, 7).members())
    f2 = list(ineq.TestFamily("bumps", 3, 5, 7).members())
    for a, b in zip(f1, f2):
        assert a.b == b.b and a.w == b.w and np.array_equal(a.axis, b.axis)


def test_zonal_family_requires_bumps():
    with pytest.raises(ConfigurationError):
        ineq.sweep("hardy_parabolic", ineq.TestFamily("polygauss", 4, 5, 1))


def test_coercivity_infimum_zero_potential(basis0):
    np.testing.assert_allclose(ineq.coercivity_infimum(basis0), 1.0, rtol=1e-12)
    np.testing.assert_allclose(ineq.coercivity_bound_constant(basis0), 0.25,
                               rtol=1e-12)


def test_coercivity_degenerates_toward_hardy_constant():
    vals = []
    for lam in (0.1, 0.2, 0.24):
        spec = ang.solve_angular(ang.AngularPotential.constant(lam), K=40, N=3)
        basis = ou.enumerate_modes(spec, 2.0)
        vals.append(ineq.coercivity_infimum(basis))
    assert vals[0] > vals[1] > vals[2] > 0.0
    assert vals[2] < 0.1  # approaching 0 as lambda -> (N-2)^2/4


def test_coercivity_monotone_in_K(spec01):
    basis = ou.enumerate_modes(spec01, 2.0)
    prev = math.inf
    for K in (4, 8, 16, basis.size):
        val = ineq.coercivity_infimum(basis, K)
        assert val <= prev + 1e-14
        prev = val


def test_sweep_report_fields():
    rep = ineq.sweep("hardy_parabolic", ineq.TestFamily("bumps", 4, 20, 3), t=0.5)
    assert {"inequality", "family", "N", "count", "seed", "t",
            "min_relative_gap", "argmin"} <= set(rep)
