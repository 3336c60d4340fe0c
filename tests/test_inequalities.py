import math

from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh

from hardyheat import angular as ang
from hardyheat import inequalities as ineq
from hardyheat import ou_basis as ou
from hardyheat import quadrature as quad
from hardyheat.config import RunConfig, parse_potential
from hardyheat.errors import ConfigurationError, InvariantViolationError, PositivityError


class Constant:
    def value(self, x):
        return np.ones(len(x))

    def value_grad(self, x):
        return self.value(x), np.zeros_like(x)


class RescaledFunction:
    """u(x / sqrt(tau)) for the t-scaling invariance checks, on either rule."""

    def __init__(self, member, tau):
        self.member = member
        self.tau = tau

    def value(self, x):
        return self.member.value(x / math.sqrt(self.tau))

    def value_grad(self, x):
        u, g = self.member.value_grad(x / math.sqrt(self.tau))
        return u, g / math.sqrt(self.tau)

    def about_e1(self):
        return RescaledFunction(self.member.about_e1(), self.tau)


def gap_of(name, member, t, rules, spec=None):
    return ineq.member_values((name,), member, t, rules, spec)[name][0]


def test_hardy_parabolic_constant_oracle():
    # LHS = 4 pi^{3/2}, RHS = 8 pi^{3/2} from 1-D Gaussian integrals
    gap = gap_of("hardy_parabolic", Constant(), 1.0, ineq.rule_pair(3))
    np.testing.assert_allclose(gap, 4.0 * math.pi**1.5, rtol=1e-12)


@pytest.mark.parametrize("N", [3, 4])
def test_hardy_parabolic_scaling_relation(N):
    # gap(u(./sqrt(tau)), t tau) = gap(u, t)/tau exactly at quadrature level,
    # on the full rule (N = 3) and on the zonal one (N = 4)
    axis = np.zeros(N)
    axis[-1] = 1.0
    bump = ineq.GaussianBump(0.5, 0.8, axis)
    rules = ineq.rule_pair(N, zonal=N != 3)
    g1 = gap_of("hardy_parabolic", bump, 1.0, rules)
    tau = 2.2
    g2 = gap_of("hardy_parabolic", RescaledFunction(bump, tau), tau, rules)
    np.testing.assert_allclose(g2, g1 / tau, rtol=1e-12)


def test_zonal_rules_match_full_rules():
    # every value of the zonal reduction, singular twin and nodal potential
    # term included, against the full cubature on an N = 3 bump with an
    # oblique axis; measured within 5.1e-16 relative
    axis = np.array([0.3, -0.5, 0.8])
    bump = ineq.GaussianBump(0.6, 0.9, axis / np.linalg.norm(axis))
    full, zonal = ineq.rule_pair(3, zonal=False), ineq.rule_pair(3, zonal=True)
    assert not any(rule.zonal for rule in full) and all(rule.zonal for rule in zonal)
    spec = ang.solve_angular(ang.AngularPotential.constant(0.1), K=4, N=3)
    for t in (1.0, 0.4):
        vf = ineq.member_values(ineq.INEQUALITIES, bump, t, full, spec)
        vz = ineq.member_values(ineq.INEQUALITIES, bump, t, zonal, spec)
        assert list(vf) == list(vz) and set(vf) == set(ineq.INEQUALITIES)
        for name in ineq.INEQUALITIES:
            np.testing.assert_allclose(vz[name], vf[name], rtol=1e-12, err_msg=name)
    # a member that is not zonal about its own axis has no place on a zonal rule
    poly = ineq.PolyGaussian((1.0, 0.2, 0.0, 0.3, 0.4, 0.0, 0.1, 0.0, 0.0, 0.2), 0.125)
    with pytest.raises(ConfigurationError, match="not zonal"):
        ineq.member_values(("hardy_parabolic",), poly, 1.0, zonal)


def _sweep_values(bump, rules, spec):
    """The four values a sweep keeps of one member: three relative gaps and
    the Sobolev quotient."""
    values = ineq.member_values(ineq.INEQUALITIES, bump, 0.7, rules, spec)
    return [v if name == "sobolev" else v[0] / v[1] for name, v in values.items()]


def test_zonal_sweep_rule_converged_in_angle():
    # the four values of 200 shipped N = 3 bumps at t = 0.7 on the sweep's
    # zonal pair against a 128-node polar rule; measured within 4.4e-16
    # over 1,000 members (the 14 x 28 product pair misses these by 1.3e-8)
    fine = (quad.zonal_rule(3, 48, 128), quad.zonal_rule(3, 48, 128, a_gl=-0.5))
    rules = ineq.rule_pair(3, zonal=True)
    assert all(np.array_equal(f.radial_weights, r.radial_weights) for f, r in zip(fine, rules))
    spec = ang.solve_angular(ang.AngularPotential.constant(0.15), K=8, N=3)
    for bump in ineq.TestFamily("bumps", 3, 200, 1).members():
        np.testing.assert_allclose(_sweep_values(bump, rules, spec),
                                   _sweep_values(bump, fine, spec), rtol=0.0, atol=1e-14,
                                   err_msg=repr(bump))


def test_full_rule_pair_is_three_dimensional_only():
    for N in (4, 11):
        with pytest.raises(ConfigurationError, match="N = 3 only"):
            ineq.rule_pair(N)


POTENTIALS = {"constant": ang.AngularPotential.constant(0.1),
              "cos": ang.AngularPotential.zonal(lambda c: 0.1 * c)}


@pytest.mark.parametrize("kind, potential, zonal", [
    ("bumps", None, True), ("bumps", "constant", True), ("bumps", "cos", False),
    ("polygauss", None, False), ("modes", None, False)])
def test_sweep_rule_choice(kind, potential, zonal, basis0, monkeypatch):
    # the rule pair follows the family and the potential, in every N
    chosen, rule_pair = [], ineq.rule_pair
    monkeypatch.setattr(ineq, "rule_pair",
                        lambda N, n_r, z: chosen.append((N, z)) or rule_pair(N, n_r, z))
    names = ("hardy_parabolic",) if potential is None else ("hardy_anisotropic",)
    for N in (3, 4, 5):
        spec = None if potential is None else ang.solve_angular(
            POTENTIALS[potential], L=8, K=4, N=N if potential == "constant" else 3)
        fam = ineq.TestFamily(kind, N, 2, 1)
        if N == 3 or zonal:
            ineq.sweep(names, fam, spec=spec, basis=basis0)
        else:
            with pytest.raises(ConfigurationError, match="N = 3 only"):
                ineq.sweep(names, fam, spec=spec, basis=basis0)
    assert chosen == [(N, zonal) for N in (3, 4, 5)]


def test_x2_bound_constant_oracle():
    # (1/16) * 48 pi^{3/2} = 3 pi^{3/2} vs (3/4) * 8 pi^{3/2} = 6 pi^{3/2}
    gap = gap_of("x2_bound", Constant(), 1.0, ineq.rule_pair(3))
    np.testing.assert_allclose(gap, 3.0 * math.pi**1.5, rtol=1e-12)


def test_x2_bound_near_equality_probe():
    probe = ineq.PolyGaussian((1.0, 0.0, 0.0, 0.0, 0.3, 0.3, 0.3, 0, 0, 0), 1.0 / 8.0)
    gap = gap_of("x2_bound", probe, 1.0, ineq.rule_pair(3))
    assert gap > 0.0


def test_sobolev_s2_ratio_below_one():
    r = ineq.member_values(("sobolev",), Constant(), 1.0, ineq.rule_pair(3), s=2.0)
    assert r["sobolev"] <= 1.0 + 1e-12


def test_sobolev_scaling_invariance_exact():
    bump = ineq.GaussianBump(0.7, 0.9, np.array([0.0, 1.0, 0.0]))
    rules, tau = ineq.rule_pair(3), 2.7
    r1 = ineq.member_values(("sobolev",), bump, 0.7, rules)["sobolev"]
    r2 = ineq.member_values(("sobolev",), RescaledFunction(bump, tau), 0.7 * tau,
                            rules)["sobolev"]
    np.testing.assert_allclose(r2, r1, rtol=1e-10)


@pytest.mark.parametrize("N", [3, 4, 5, 10])
def test_sobolev_closed_form_check(N):
    # the sweep's closed-form check on the centred bump holds to 1e-10 on
    # the default rule at every t, and a 16-node rule trips it
    fam = ineq.TestFamily("bumps", N, 1, 0)
    for t in (0.01, 0.7, 50.0):
        ineq.sweep(("sobolev",), fam, t=t)
    with pytest.raises(InvariantViolationError, match="closed form"):
        ineq.sweep(("sobolev",), fam, n_r=16)


def test_sobolev_exponent_range():
    # s = 2.5 needs N <= 10; the other inequalities take any N
    bump = ineq.GaussianBump(0.5, 0.8, np.eye(11)[0])
    rules = ineq.rule_pair(11, 8, zonal=True)
    assert set(ineq.member_values(("x2_bound",), bump, 0.7, rules)) == {"x2_bound"}
    with pytest.raises(ConfigurationError, match="outside"):
        ineq.member_values(("x2_bound", "sobolev"), bump, 0.7, rules)


def test_sobolev_family_sup_stable_under_doubling():
    sups = []
    for count in (150, 300):
        fam = ineq.TestFamily("bumps", 3, count, 99)
        [rep] = ineq.sweep(("sobolev",), fam, t=0.7)
        sups.append(rep["sup_ratio"])
    assert abs(sups[1] - sups[0]) < 0.5 * sups[0]


def test_anisotropic_reduces_to_parabolic_at_zero(spec0):
    # a = 0: mu_1 = 0 and the bound is a rearranged parabolic Hardy
    gap = gap_of("hardy_anisotropic", Constant(), 1.0, ineq.rule_pair(3), spec0)
    assert gap > 0.0


def test_anisotropic_ground_mode_near_extremal(basis0, spec0):
    # B(V~, V~) = 0 and the mode is radial-extremal: small positive gap
    member = ineq.BasisModeFunction(basis0, 0)
    assert repr(member) == "BasisModeFunction(j=1, n=0)"
    gap = gap_of("hardy_anisotropic", member, 1.0, ineq.rule_pair(3), spec0)
    assert 0.0 < gap < 0.2
    np.testing.assert_allclose(gap, 0.125, atol=5e-3)


def test_constant_potential_gap_is_lambda_free():
    # for a = lambda the two sides shift identically: the gap cannot move
    gaps = [
        gap_of("hardy_anisotropic", Constant(), 1.0, ineq.rule_pair(3),
               ang.solve_angular(ang.AngularPotential.constant(lam), K=4, N=3))
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
        gaps.append(gap_of("hardy_anisotropic", bump, 1.0, ineq.rule_pair(3), spec))
    assert all(np.diff(gaps) < 0)


def test_mode_family_sweep(basis0, spec0):
    fam = ineq.TestFamily("modes", 3, basis0.size, 0)
    [rep] = ineq.sweep(("hardy_parabolic",), fam, t=1.0, basis=basis0)
    assert rep["min_relative_gap"] > -1e-10


def test_randomized_sweeps_no_violation():
    for N in (3, 4, 5):
        fam = ineq.TestFamily("bumps", N, 150, 60 + N)
        for rep in ineq.sweep(("hardy_parabolic", "x2_bound"), fam, t=0.7):
            assert rep["min_relative_gap"] > -1e-10
    famp = ineq.TestFamily("polygauss", 3, 150, 66)
    [rep] = ineq.sweep(("hardy_parabolic",), famp, t=0.4)
    assert rep["min_relative_gap"] > -1e-10


def test_family_reproducibility():
    f1 = list(ineq.TestFamily("bumps", 3, 5, 7).members())
    f2 = list(ineq.TestFamily("bumps", 3, 5, 7).members())
    for a, b in zip(f1, f2):
        assert a.b == b.b and a.w == b.w and np.array_equal(a.axis, b.axis)


def test_zonal_family_requires_bumps():
    with pytest.raises(ConfigurationError):
        ineq.sweep(("hardy_parabolic",), ineq.TestFamily("polygauss", 4, 5, 1))


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


def test_coercivity_matches_generalized_eigh(basis0, spec01):
    # the scaled symmetric solve against scipy's generalized eigh(A, M);
    # measured within 4.6e-16 relative
    cfg = RunConfig.from_file(str(Path(__file__).parents[1] / "configs" / "anisotropic.ini"))
    aniso = ang.solve_angular(parse_potential(cfg), L=cfg.angular_truncation,
                              K=cfg.angular_count, N=3)
    for basis in (basis0, ou.enumerate_modes(spec01, 2.0), ou.enumerate_modes(aniso, 1.5)):
        for K in (1, 4, None):
            n = basis.size if K is None else K
            A = np.diag(basis.gammas[:n] + (basis.N - 2) / 4.0)
            E = np.diag(basis.gammas[:n]) + ou.potential_coupling_matrix(basis)[:n, :n]
            for shift, got in (((basis.N - 2) / 4.0, ineq.coercivity_infimum(basis, K)),
                               (1.0, ineq._coercivity(basis, K, 1.0))):
                want = eigh(A, E + shift * np.eye(n), eigvals_only=True)[0]
                assert abs(got - want) <= 1e-13 * abs(want), (basis.size, K, shift)


def test_sweep_report_fields():
    [rep] = ineq.sweep(("hardy_parabolic",), ineq.TestFamily("bumps", 4, 20, 3), t=0.5)
    assert {"inequality", "family", "N", "count", "seed", "t",
            "min_relative_gap", "argmin"} <= set(rep)


@pytest.mark.parametrize("kind, N", [("bumps", 3), ("bumps", 4), ("polygauss", 3),
                                     ("modes", 3)])
def test_one_pass_equals_single_sweeps(kind, N, basis0):
    # bump sweeps with "sobolev" also run the closed-form Sobolev check;
    # mode members are slow to evaluate and take no Sobolev quotient
    names = ineq.INEQUALITIES if kind == "bumps" else ("hardy_parabolic", "hardy_anisotropic",
                                                       "x2_bound")
    fam = ineq.TestFamily(kind, N, 6 if kind == "modes" else 60, 5)
    spec = ang.solve_angular(ang.AngularPotential.constant(0.15), K=8, N=N)
    if kind == "modes":
        spec = basis0.spectrum
    one_pass = ineq.sweep(names, fam, t=0.6, spec=spec, basis=basis0)
    single = [ineq.sweep((iq,), fam, t=0.6, spec=spec, basis=basis0)[0] for iq in names]
    assert one_pass == single
    assert [rep["inequality"] for rep in one_pass] == list(names)


def test_sweep_rejects_before_first_member(monkeypatch):
    calls = []
    monkeypatch.setattr(ineq, "_sample", lambda *a, **k: calls.append(a))
    fam = ineq.TestFamily("bumps", 3, 5, 1)
    with pytest.raises(ConfigurationError, match="unknown inequality"):
        ineq.sweep(("hardy_parabolic", "hardy_parabolc"), fam)
    bad = ang.solve_angular(ang.AngularPotential.constant(0.3), K=4, N=3)
    with pytest.raises(PositivityError):
        ineq.sweep(ineq.INEQUALITIES, fam, spec=bad)
    assert calls == []
