import math
import random
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from hardyheat import angular as ang
from hardyheat import inequalities as ineq
from hardyheat import ou_basis as ou
from hardyheat import quadrature as quad
from hardyheat.config import RunConfig, parse_potential
from hardyheat.errors import ConfigurationError, InvariantViolationError, PositivityError

import sweep_oracle as oracle
from mode_oracle import coercivity_infimum, zonal_quadratic


class Constant:
    def value(self, x):
        return np.ones(len(x))

    def value_grad(self, x):
        return self.value(x), np.zeros_like(x)


class RescaledFunction:
    """u(x / sqrt(tau)) for the t-scaling invariance checks, on either rule."""

    def __init__(self, member, tau):
        self.member = oracle.point_function(member)
        self.tau = tau

    def value(self, x):
        return self.member.value(x / math.sqrt(self.tau))

    def value_grad(self, x):
        u, g = self.member.value_grad(x / math.sqrt(self.tau))
        return u, g / math.sqrt(self.tau)


def gap_of(name, member, t, rules, spec=None):
    return oracle.member_values((name,), member, t, rules, spec)[name][0]


def zonal_pair(N, n_r=48, n_polar=28):
    """The plain and singular-twin zonal rules: exact for integrands zonal
    about e1, such as a bump on the axis e1."""
    return oracle.zonal_rule(N, n_r, n_polar), oracle.zonal_rule(N, n_r, n_polar, a_gl=N / 2.0 - 2.0)


def on_e1(bump):
    return ineq.GaussianBump(bump.b, bump.w, np.eye(len(bump.axis))[0])


def test_hardy_parabolic_constant_oracle():
    # LHS = 4 pi^{3/2}, RHS = 8 pi^{3/2} from 1-D Gaussian integrals
    gap = gap_of("hardy_parabolic", Constant(), 1.0, oracle.rule_pair(3))
    np.testing.assert_allclose(gap, 4.0 * math.pi**1.5, rtol=1e-12)


@pytest.mark.parametrize("N", [3, 4])
def test_hardy_parabolic_scaling_relation(N):
    # gap(u(./sqrt(tau)), t tau) = gap(u, t)/tau exactly at quadrature level,
    # on the full rule (N = 3) and on the zonal one (N = 4), and in closed
    # form, where u(./sqrt(tau)) is the bump of center and width times sqrt(tau)
    bump = ineq.GaussianBump(0.5, 0.8, np.eye(N)[0])
    rules = oracle.rule_pair(N) if N == 3 else zonal_pair(N)
    g1 = gap_of("hardy_parabolic", bump, 1.0, rules)
    tau = 2.2
    g2 = gap_of("hardy_parabolic", RescaledFunction(bump, tau), tau, rules)
    np.testing.assert_allclose(g2, g1 / tau, rtol=1e-12)
    closed = [ineq._values(("hardy_parabolic",), ineq.bump_integrals(b, w, t, N), t, N, None,
                           ineq.SOBOLEV_EXPONENT)["hardy_parabolic"][0]
              for b, w, t in ((0.5, 0.8, 1.0), (0.5 * math.sqrt(tau), 0.8 * math.sqrt(tau), tau))]
    np.testing.assert_allclose(closed[1], closed[0] / tau, rtol=1e-12)


def test_zonal_rules_match_full_rules():
    # every value of the zonal reduction, singular twin and nodal potential
    # term included, on the same bump about e1, against the full cubature on
    # an N = 3 bump with an oblique axis; measured within 5.1e-16 relative
    axis = np.array([0.3, -0.5, 0.8])
    bump = ineq.GaussianBump(0.6, 0.9, axis / np.linalg.norm(axis))
    spec = ang.solve_angular(ang.AngularPotential.constant(0.1), K=4, N=3)
    for t in (1.0, 0.4):
        vf = oracle.member_values(ineq.INEQUALITIES, bump, t, oracle.rule_pair(3), spec)
        vz = oracle.member_values(ineq.INEQUALITIES, on_e1(bump), t, zonal_pair(3), spec)
        assert list(vf) == list(vz) and set(vf) == set(ineq.INEQUALITIES)
        for name in ineq.INEQUALITIES:
            np.testing.assert_allclose(vz[name], vf[name], rtol=1e-12, err_msg=name)


def _sweep_values(bump, rules, spec):
    """The four values a sweep keeps of one member: three relative gaps and
    the Sobolev quotient."""
    values = oracle.member_values(ineq.INEQUALITIES, bump, 0.7, rules, spec)
    return [v if name == "sobolev" else v[0] / v[1] for name, v in values.items()]


def test_zonal_sweep_rule_converged_in_angle():
    # the four values of 200 shipped N = 3 bumps, moved onto e1, at t = 0.7
    # on the 28-node zonal pair against a 128-node polar rule; measured
    # within 4.4e-16 over 1,000 members
    fine = zonal_pair(3, n_polar=128)
    rules = zonal_pair(3)
    assert all(np.array_equal(f.radial.weights, r.radial.weights) for f, r in zip(fine, rules))
    spec = ang.solve_angular(ang.AngularPotential.constant(0.15), K=8, N=3)
    for bump in map(on_e1, ineq.TestFamily("bumps", 3, 200, 1).members()):
        np.testing.assert_allclose(_sweep_values(bump, rules, spec),
                                   _sweep_values(bump, fine, spec), rtol=0.0, atol=1e-14,
                                   err_msg=repr(bump))


def test_full_rule_pair_is_three_dimensional_only():
    for N in (4, 11):
        with pytest.raises(ConfigurationError, match="N = 3 only"):
            oracle.rule_pair(N)


POTENTIALS = {"constant": ang.AngularPotential.constant(0.1),
              "table": ang.AngularPotential.harmonic_table([(1, 0, 0.1), (2, 1, 0.05)])}


@pytest.mark.parametrize("kind, potential, closed", [
    ("bumps", None, True), ("bumps", "constant", True), ("bumps", "table", True),
    ("polygauss", None, False), ("modes", None, False)])
def test_sweep_rule_choice(kind, potential, closed):
    # the sweep has one path, closed forms (a GaussianBump has no point
    # evaluator in the package; test_tooling holds it to its fields): bumps
    # under an absent or constant potential in any N, or a harmonic table
    # in N = 3 (its spectrum's N); the quadrature-only families raise in
    # every N
    names = ("hardy_parabolic",) if potential is None else ("hardy_anisotropic",)
    for N in (3, 4, 5):
        spec = None if potential is None else ang.solve_angular(
            POTENTIALS[potential], L=8, K=4, N=N if potential == "constant" else 3)
        fam = ineq.TestFamily(kind, N, 2, 1)
        if closed and (N == 3 or potential != "table"):
            [rep] = ineq.sweep(names, fam, spec=spec)
            assert rep["count"] == 2 and rep["min_relative_gap"] > 0.0
        else:
            with pytest.raises(ConfigurationError):
                ineq.sweep(names, fam, spec=spec)


def test_x2_bound_constant_oracle():
    # (1/16) * 48 pi^{3/2} = 3 pi^{3/2} vs (3/4) * 8 pi^{3/2} = 6 pi^{3/2}
    gap = gap_of("x2_bound", Constant(), 1.0, oracle.rule_pair(3))
    np.testing.assert_allclose(gap, 3.0 * math.pi**1.5, rtol=1e-12)


def test_x2_bound_near_equality_probe():
    probe = oracle.PolyGaussian((1.0, 0.0, 0.0, 0.0, 0.3, 0.3, 0.3, 0, 0, 0), 1.0 / 8.0)
    gap = gap_of("x2_bound", probe, 1.0, oracle.rule_pair(3))
    assert gap > 0.0


def test_sobolev_s2_ratio_below_one():
    r = oracle.member_values(("sobolev",), Constant(), 1.0, oracle.rule_pair(3), s=2.0)
    assert r["sobolev"] <= 1.0 + 1e-12


def test_sobolev_scaling_invariance_exact():
    bump = ineq.GaussianBump(0.7, 0.9, np.array([0.0, 1.0, 0.0]))
    rules, tau = oracle.rule_pair(3), 2.7
    r1 = oracle.member_values(("sobolev",), bump, 0.7, rules)["sobolev"]
    r2 = oracle.member_values(("sobolev",), RescaledFunction(bump, tau), 0.7 * tau,
                            rules)["sobolev"]
    np.testing.assert_allclose(r2, r1, rtol=1e-10)


@pytest.mark.parametrize("N", [3, 4, 5, 10])
def test_sobolev_closed_form_check(N, monkeypatch):
    # the sweep's check on the centred bump holds to 1e-10 at every t on
    # the bumps' closed forms, and a closed-form quotient off by 1e-9 trips
    # it; in N = 3 the cubature oracle holds the same quotient to the
    # closed form on its default rule, and a 16-node rule misses it
    fam = ineq.TestFamily("bumps", N, 1, 0)
    for t in (0.01, 0.7, 50.0):
        ineq.sweep(("sobolev",), fam, t=t)
        if N == 3:
            centred = ineq.GaussianBump(0.0, math.sqrt(2.0 * t), np.eye(3)[0])
            closed = ineq._values(("sobolev",), ineq.bump_integrals(0.0, math.sqrt(2.0 * t), t, 3),
                                  t, 3, None, ineq.SOBOLEV_EXPONENT)["sobolev"]
            for n_r, held in ((48, True), (16, False)):
                got = oracle.member_values(("sobolev",), centred, t,
                                           oracle.rule_pair(3, n_r))["sobolev"]
                assert (abs(got - closed) <= ineq.GAP_SLACK * closed) == held, (t, n_r)
    bump_integrals = ineq.bump_integrals

    def off(*args):
        out = bump_integrals(*args)
        return dict(out, sob=out["sob"] * (1.0 + 1e-9))

    monkeypatch.setattr(ineq, "bump_integrals", off)
    with pytest.raises(InvariantViolationError, match="closed form"):
        ineq.sweep(("sobolev",), fam)


def test_sobolev_exponent_range():
    # s = 2.5 needs N <= 10; the other inequalities take any N
    fam = ineq.TestFamily("bumps", 11, 3, 0)
    [rep] = ineq.sweep(("x2_bound",), fam)
    assert rep["min_relative_gap"] > 0.0
    with pytest.raises(ConfigurationError, match="outside"):
        ineq.sweep(("x2_bound", "sobolev"), fam)
    bump = ineq.GaussianBump(0.5, 0.8, np.eye(3)[0])
    with pytest.raises(ConfigurationError, match="outside"):
        oracle.member_values(("x2_bound", "sobolev"), bump, 0.7, oracle.rule_pair(3), s=6.5)


def test_sobolev_family_sup_stable_under_doubling():
    sups = []
    for count in (150, 300):
        fam = ineq.TestFamily("bumps", 3, count, 99)
        [rep] = ineq.sweep(("sobolev",), fam, t=0.7)
        sups.append(rep["sup_ratio"])
    assert abs(sups[1] - sups[0]) < 0.5 * sups[0]


def test_anisotropic_reduces_to_parabolic_at_zero(spec0):
    # a = 0: mu_1 = 0 and the bound is a rearranged parabolic Hardy
    gap = gap_of("hardy_anisotropic", Constant(), 1.0, oracle.rule_pair(3), spec0)
    assert gap > 0.0


def test_anisotropic_ground_mode_near_extremal(basis0, spec0):
    # B(V~, V~) = 0 and the mode is radial-extremal: small positive gap
    member = oracle.BasisModeFunction(basis0, 0)
    assert repr(member) == "BasisModeFunction(j=1, n=0)"
    gap = gap_of("hardy_anisotropic", member, 1.0, oracle.rule_pair(3), spec0)
    assert 0.0 < gap < 0.2
    np.testing.assert_allclose(gap, 0.125, atol=5e-3)


def test_constant_potential_gap_is_lambda_free():
    # for a = lambda the two sides shift identically: the gap cannot move
    gaps = [
        gap_of("hardy_anisotropic", Constant(), 1.0, oracle.rule_pair(3),
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
        spec = ang.solve_angular(zonal_quadratic(0.0, lam, 0.0), L=12, K=4)
        gaps.append(gap_of("hardy_anisotropic", bump, 1.0, oracle.rule_pair(3), spec))
    assert all(np.diff(gaps) < 0)


def test_mode_family_sweep(basis0, spec0):
    fam = ineq.TestFamily("modes", 3, basis0.size, 0)
    values = oracle.sweep_values(("hardy_parabolic",), fam, t=1.0, basis=basis0)
    assert oracle.min_relative_gap(values, "hardy_parabolic") > -1e-10


def test_randomized_sweeps_no_violation():
    for N in (3, 4, 5):
        fam = ineq.TestFamily("bumps", N, 150, 60 + N)
        for rep in ineq.sweep(("hardy_parabolic", "x2_bound"), fam, t=0.7):
            assert rep["min_relative_gap"] > -1e-10
    famp = ineq.TestFamily("polygauss", 3, 150, 66)
    values = oracle.sweep_values(("hardy_parabolic",), famp, t=0.4)
    assert oracle.min_relative_gap(values, "hardy_parabolic") > -1e-10


def test_family_reproducibility():
    f1 = list(ineq.TestFamily("bumps", 3, 5, 7).members())
    f2 = list(ineq.TestFamily("bumps", 3, 5, 7).members())
    for a, b in zip(f1, f2):
        assert a.b == b.b and a.w == b.w and np.array_equal(a.axis, b.axis)


def _log_uniform(u, lo, hi):
    return math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u())


def test_family_members_are_the_documented_random_stream():
    # bit for bit, each draw recomputed from random.Random(1).random(),
    # whose stream Python keeps across versions (its first value pinned too):
    # b and w log-uniform, then one Box-Muller pair per axis component, the
    # axis divided by its hypot; eps and kappa log-uniform
    assert random.Random(1).random() == 0.13436424411240122
    u = random.Random(1).random
    for member in ineq.TestFamily("bumps", 3, 3, 1).members():
        b, w = _log_uniform(u, 1e-3, 2.0), _log_uniform(u, 0.5, 1.5)
        z = [math.sqrt(-2.0 * math.log(1.0 - u())) * math.cos(2.0 * math.pi * u())
             for _ in range(3)]
        assert (member.b, member.w) == (b, w)
        assert member.axis.tolist() == [c / math.hypot(*z) for c in z]
    u = random.Random(1).random
    for member in ineq.TestFamily("power", 4, 3, 1).members():
        eps, kappa = _log_uniform(u, 1e-3, 0.1), _log_uniform(u, 1e-4, 1.0)
        assert (member.beta, member.kappa) == (1.0 - eps, kappa)


def _assert_mean(samples, mean):
    """Each column's mean within 4 standard errors of ``mean``."""
    samples = np.asarray(samples)
    se = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    assert np.all(np.abs(samples.mean(axis=0) - mean) <= 4.0 * se), (samples.mean(axis=0), se)


@pytest.mark.parametrize("N", [3, 5])
def test_family_members_have_their_distributions(N):
    # 20,000 members of each kind: unit axes, uniform on the sphere (mean 0,
    # axis_k^2 of mean 1/N, axis_k^4 of mean 3/(N(N+2))), and log-uniform
    # b, w, eps and kappa inside their intervals, their logs centred on the
    # intervals' midpoints
    bumps = list(ineq.TestFamily("bumps", N, 20_000, 1).members())
    axes = np.array([m.axis for m in bumps])
    assert np.max(np.abs(np.linalg.norm(axes, axis=1) - 1.0)) <= 1e-15
    _assert_mean(axes, 0.0)
    _assert_mean(axes**2 - 1.0 / N, 0.0)
    # any exchangeable axis gives 1/N above; the fourth moment is the sphere's
    _assert_mean(axes**4 - 3.0 / (N * (N + 2)), 0.0)
    powers = list(ineq.TestFamily("power", N, 20_000, 1).members())
    # eps = (N-2)/2 - beta, exact but for beta's one rounding (2e-16)
    for lo, hi, values in ((1e-3, 2.0, [m.b for m in bumps]), (0.5, 1.5, [m.w for m in bumps]),
                           (1e-3, 0.1, [(N - 2) / 2.0 - m.beta for m in powers]),
                           (1e-4, 1.0, [m.kappa for m in powers])):
        values = np.array(values)
        assert np.all((values >= lo) & (values <= hi)), (lo, hi)
        _assert_mean(np.log(values), (math.log(lo) + math.log(hi)) / 2.0)


def test_zonal_family_requires_bumps():
    with pytest.raises(ConfigurationError):
        ineq.sweep(("hardy_parabolic",), ineq.TestFamily("polygauss", 4, 5, 1))


def test_coercivity_infimum_zero_potential(basis0):
    np.testing.assert_allclose(coercivity_infimum(basis0), 1.0, rtol=1e-12)
    assert ineq.coercivity_bound_constant(basis0.spectrum) == 0.25
    # at a = 0 the root is min((N-2)/4, 1), exactly.  Every block of the
    # Galerkin quotient is diagonal there, so its minimum over a basis is
    # min_k (gamma_k + (N-2)/4) / (gamma_k + 1): at the ground mode, the root,
    # below N = 6; at the top of the window above it, 1.125 and 13/12 in
    # N = 7 against the root 1 (Rayleigh-Ritz bounds from above)
    for N, gamma_max, root, galerkin in ((4, 2.0, 0.5, 0.5), (5, 2.0, 0.75, 0.75),
                                         (7, 1.0, 1.0, 1.125), (7, 2.0, 1.0, 13.0 / 12.0)):
        # the angular count that certifies the window: every degree up to
        # 2 gamma_max, and one harmonic of the next
        K = sum(ang.harmonic_multiplicity(l, N) for l in range(int(2 * gamma_max) + 1)) + 1
        basis = ou.enumerate_modes(
            ang.solve_angular(ang.AngularPotential.constant(0.0), K=K, N=N), gamma_max)
        closed = np.min((basis.gammas + (N - 2) / 4.0) / (basis.gammas + 1.0))
        assert closed == galerkin
        assert ineq.coercivity_bound_constant(basis.spectrum) == root
        got = coercivity_infimum(basis, shift=1.0)
        assert abs(got - closed) <= 4.0 * np.spacing(closed), (N, gamma_max, got)
        np.testing.assert_allclose(coercivity_infimum(basis), 1.0, rtol=1e-12)


def test_coercivity_degenerates_toward_hardy_constant():
    vals = []
    for lam in (0.1, 0.2, 0.24):
        spec = ang.solve_angular(ang.AngularPotential.constant(lam), K=40, N=3)
        basis = ou.enumerate_modes(spec, 2.0)
        vals.append(coercivity_infimum(basis))
    assert vals[0] > vals[1] > vals[2] > 0.0
    assert vals[2] < 0.1  # approaching 0 as lambda -> (N-2)^2/4


def _mp_root(N: int, a: float):
    """The largest q in [0, 1) of the root's predicate for a constant a, by
    bisection in 40-digit arithmetic: (1 - q) h^2 - a >= 0 and
    sqrt((1 - q)((1 - q) h^2 - a)) >= q (2 - h), h = (N-2)/2; 1 when every
    q < 1 passes."""
    mp.mp.dps = 40
    h, a = mp.mpf(N - 2) / 2, mp.mpf(a)

    def allowed(q):
        e = (1 - q) * h * h - a
        return e >= 0 and mp.sqrt((1 - q) * e) >= q * (2 - h)

    lo, hi = mp.mpf(0), mp.mpf(1)
    for _ in range(140):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if allowed(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("N, a", [(3, 0.2), (3, 0.1), (3, 0.24), (3, -0.5), (4, 0.5),
                                  (4, 0.9), (5, 1.0), (5, -1.0), (7, 0.5), (7, 0.0),
                                  (10, 2.0), (10, -3.0)])
def test_coercivity_root_matches_mpmath(N, a):
    # in N >= 6, 2 - h <= 0 and the sqrt's domain binds: 1 - a/h^2 for a > 0
    # (0.92 and 0.875 here), else every q < 1 passes and the root is 1
    spec = ang.solve_angular(ang.AngularPotential.constant(a), K=1, N=N)
    want = _mp_root(N, a)
    if N >= 6:
        assert abs(want - (1 - mp.mpf(a) / ((N - 2) / 2) ** 2 if a > 0 else 1)) < 1e-35
    got = ineq.coercivity_bound_constant(spec)
    assert abs(got - want) <= np.finfo(float).eps, (got, want)
    assert (got == 1.0) == (want == 1)  # exactly 1 when every q < 1 passes


def _anisotropic_config_spectrum(count: int):
    cfg = RunConfig.from_file(str(Path(__file__).parents[1] / "configs" / "anisotropic.ini"))
    return ang.solve_angular(parse_potential(cfg), L=cfg.angular_truncation, K=count, N=3)


def test_coercivity_falls_as_gamma_max_rises():
    # the Galerkin quotient over a basis is a minimum over the span of its
    # modes, nested as gamma_max rises: by Rayleigh-Ritz it stays at or
    # above the root and falls toward it.  The constant's pins are the
    # dense solves'; the table's are known to 10 digits, and 0.2493909172
    # at the shipped gamma_max = 1.5 lies 1.85e-5 over its root
    cases = [(ang.solve_angular(ang.AngularPotential.constant(0.2), K=400, N=3), 0.1,
              (1, 2, 4, 8), (0.1025646080398807, 0.1023587919917522, 0.1021351011049211,
                             0.1019132801922601), 1e-15),
             (_anisotropic_config_spectrum(100), 0.2493724273,
              (1.5, 2, 3, 4), (0.2493909172, 0.2493907235, 0.2493879891, 0.2493862072), 1e-10)]
    for spec, root, gamma_maxes, want, atol in cases:
        assert ineq.coercivity_bound_constant(spec) == pytest.approx(root, abs=atol)
        got = [coercivity_infimum(ou.enumerate_modes(spec, g), shift=1.0) for g in gamma_maxes]
        assert all(a > b for a, b in zip(got, got[1:])) and got[-1] > root, got
        np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)


def test_coercivity_matches_generalized_eigh(basis0, spec01):
    # scipy's dense generalized eigh(A, E + I) over every mode bounds the
    # root from above, and meets it where the ground mode attains the
    # infimum: at a = 0 (and N < 6) the root (N-2)/4 is R(V_0)
    aniso = _anisotropic_config_spectrum(36)
    for basis, gap in ((basis0, 1e-15), (ou.enumerate_modes(spec01, 2.0), 1e-3),
                       (ou.enumerate_modes(aniso, 1.5), 1e-4)):
        galerkin = coercivity_infimum(basis, shift=1.0)
        root = ineq.coercivity_bound_constant(basis.spectrum)
        assert root <= galerkin <= root + gap, (basis.size, root, galerkin)


def test_table_root_solves_the_ground_equation():
    # at the root q the OU ground eigenvalue under a/(1-q), from a full
    # Galerkin solve of the scaled table over every block, is (q - c)/(1 - q)
    spec = _anisotropic_config_spectrum(36)
    q = ineq.coercivity_bound_constant(spec)
    scaled = ang.AngularPotential.harmonic_table(
        [(l, m, c / (1.0 - q)) for l, m, c in spec.potential.table])
    mu1 = ang.solve_angular(scaled, L=spec.truncation_degree, K=4).eigenvalues[0]
    ground = (math.sqrt(0.25 + mu1) - 0.5) / 2.0
    assert abs(ground - (q - 0.25) / (1.0 - q)) < 1e-14


def test_ground_block_holds_the_ground_eigenvalue():
    # a cos(2 phi) entry splits the orders into four groups (even and odd,
    # cosine and sine); the block holding Y_00 carries the smallest
    # eigenvalue of -Lap_S - s a over all of them, (1 - q) mu_1(s) at s = 1/(1-q)
    table = ang.AngularPotential.harmonic_table([(1, 0, 0.15), (2, 0, 0.05), (2, 2, 0.1)])
    spec = ang.solve_angular(table, L=16, K=4)
    blocks = ang.assemble_angular(table, 16)
    assert len(blocks) == 4
    lap = ang.laplacian_diagonal(16)
    ground = ineq._scaled_ground(spec)
    assert ground(0.0) == pytest.approx(spec.eigenvalues[0], abs=1e-13)
    for s in np.linspace(1.0, 20.0, 12):
        mu1 = min(np.linalg.eigvalsh((1.0 - s) * np.diag(lap[idx]) + s * B)[0]
                  for idx, B in blocks)
        q = 1.0 - 1.0 / s
        assert ground(q) == pytest.approx((1.0 - q) * mu1, rel=1e-12, abs=1e-13), s


@pytest.mark.parametrize("a", (0.0, 0.2))
def test_basis_matrices_stay_below_one_K_by_K_array(a):
    # K = 969 modes at gamma_max = 8: the certification works block by
    # block, so it does not peak at one dense K x K float64 array (7.2 MiB;
    # dense builds peaked at 29.8 and 37.4 MiB here), and the coercivity
    # constant needs no basis
    spec = ang.solve_angular(ang.AngularPotential.constant(a), K=400, N=3)
    tracemalloc.start()
    try:
        basis = ou.enumerate_modes(spec, 8.0)
        enumerate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ineq.coercivity_bound_constant(basis.spectrum)
        coercivity_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.size == 969
    assert max(enumerate_peak, coercivity_peak) < 969 * 969 * 8, (enumerate_peak,
                                                                   coercivity_peak)


def test_sweep_report_fields():
    [rep] = ineq.sweep(("hardy_parabolic",), ineq.TestFamily("bumps", 4, 20, 3), t=0.5)
    assert {"inequality", "family", "N", "count", "seed", "t",
            "min_relative_gap", "argmin"} <= set(rep)


@pytest.mark.parametrize("kind, N", [("bumps", 3), ("bumps", 4), ("polygauss", 3),
                                     ("modes", 3)])
def test_one_pass_equals_single_sweeps(kind, N, basis0):
    # bump sweeps with "sobolev" also run the closed-form Sobolev check;
    # polygauss and mode members take the cubature oracle, and mode members
    # are slow to evaluate and take no Sobolev quotient
    names = ineq.INEQUALITIES if kind == "bumps" else ("hardy_parabolic", "hardy_anisotropic",
                                                       "x2_bound")
    fam = ineq.TestFamily(kind, N, 6 if kind == "modes" else 60, 5)
    spec = ang.solve_angular(ang.AngularPotential.constant(0.15), K=8, N=N)
    if kind == "modes":
        spec = basis0.spectrum
    if kind == "bumps":
        one_pass = ineq.sweep(names, fam, t=0.6, spec=spec)
        single = [ineq.sweep((iq,), fam, t=0.6, spec=spec)[0] for iq in names]
        assert one_pass == single
        assert [rep["inequality"] for rep in one_pass] == list(names)
        return
    one_pass = oracle.sweep_values(names, fam, t=0.6, spec=spec, basis=basis0)
    assert list(one_pass) == list(names)
    for iq in names:
        single = oracle.sweep_values((iq,), fam, t=0.6, spec=spec, basis=basis0)[iq]
        np.testing.assert_array_equal(one_pass[iq], single, err_msg=iq)


def test_sweep_rejects_before_first_member(monkeypatch):
    # no closed-form integral before the rejection
    calls = []
    monkeypatch.setattr(ineq, "bump_integrals", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(ineq, "bump_table_hardy", lambda *a, **k: calls.append(a))
    fam = ineq.TestFamily("bumps", 3, 5, 1)
    with pytest.raises(ConfigurationError, match="unknown inequality"):
        ineq.sweep(("hardy_parabolic", "hardy_parabolc"), fam)
    bad = ang.solve_angular(ang.AngularPotential.constant(0.3), K=4, N=3)
    with pytest.raises(PositivityError):
        ineq.sweep(ineq.INEQUALITIES, fam, spec=bad)
    # no closed form: a quadrature-only family, and a harmonic table (N = 3
    # only) under an N = 4 family
    table = ang.solve_angular(POTENTIALS["table"], L=8, K=4, N=3)
    for names, family, spec in ((ineq.INEQUALITIES, ineq.TestFamily("polygauss", 3, 5, 1), table),
                                (("hardy_anisotropic",), ineq.TestFamily("bumps", 4, 5, 1), table)):
        with pytest.raises(ConfigurationError):
            ineq.sweep(names, family, spec=spec)
    assert calls == []


def test_sweep_rejects_gaps_that_measure_nothing():
    # at t = 1e300 every closed-form integral of the bumps at t underflows to
    # 0: gap 0 at scale 0, which returned min_relative_gap = inf (x2_bound
    # integrates at t = 1)
    fam = ineq.TestFamily("bumps", 3, 5, 1)
    spec = ang.solve_angular(ang.AngularPotential.constant(0.1), K=4, N=3)
    for name in ("hardy_parabolic", "hardy_anisotropic"):
        with pytest.raises(InvariantViolationError, match=f"{name} measures nothing"):
            ineq.sweep((name,), fam, t=1e300, spec=spec)
    for gap, scale in ((math.nan, 1.0), (math.inf, 1.0), (0.5, math.inf), (0.0, 0.0)):
        with pytest.raises(InvariantViolationError, match="measures nothing"):
            ineq._gate(("x2_bound",), {"x2_bound": (np.array([1.0, gap]),
                                                    np.array([1.0, scale]))})


CLOSED_KEYS = ("u2", "grad2", "hardy", "a_hardy", "sob", "u2_1", "grad2_1", "r2u2_1")


@pytest.mark.parametrize("N", [3, 4, 5])
def test_closed_forms_match_rules(N):
    # every closed-form integral of the shipped bumps of width w >= 1 at
    # t = 0.7 against the zonal pair (the bump moved onto e1) and, in N = 3,
    # the full pair at its own axis; measured within 1.6e-13 relative over
    # 400 members per N (the worst are N = 5's t = 1 integrals).  Narrower
    # bumps are not converged on these rules: w < 0.6 misses by up to 4.5e-5
    # (u2), 2.2e-4 (grad2), 4.9e-6 (hardy), 7.8e-4 (sob) and 7.1e-3 (t = 1)
    lam = 0.15
    spec = ang.solve_angular(ang.AngularPotential.constant(lam), K=4, N=N)
    members = [m for m in ineq.TestFamily("bumps", N, 400, 1).members() if m.w >= 1.0]
    assert len(members) > 100
    closed = ineq.bump_integrals([m.b for m in members], [m.w for m in members], 0.7, N)
    closed["a_hardy"] = lam * closed["hardy"]
    pairs = [(zonal_pair(N), on_e1)] + ([(oracle.rule_pair(3), lambda m: m)] if N == 3 else [])
    for rules, place in pairs:
        for i, member in enumerate(members):
            got = oracle._rule_integrals(set(ineq.INEQUALITIES), place(member), 0.7, rules,
                                       spec, ineq.SOBOLEV_EXPONENT)
            for key in CLOSED_KEYS:
                assert abs(got[key] - closed[key][i]) <= 1e-12 * closed[key][i], (key, member)


def _angular_grid(n_polar=40, n_az=80):
    """Gauss-Legendre in cos(polar angle) times the uniform azimuth rule on
    S^2 (polar axis e1): directions and weights, exact for harmonics of
    degree < 80."""
    c, wc = np.polynomial.legendre.leggauss(n_polar)
    phi = 2.0 * math.pi * np.arange(n_az) / n_az
    C, P = np.meshgrid(c, phi, indexing="ij")
    S = np.sqrt(1.0 - C * C)
    dirs = np.stack([C, S * np.cos(P), S * np.sin(P)], axis=-1).reshape(-1, 3)
    return dirs, np.repeat(wc, n_az) * (2.0 * math.pi / n_az)


def test_table_hardy_matches_radial_quadrature():
    # the Funk-Hecke closed form of a_hardy, degree by degree (l = 0..4, the
    # orders -l, 0 and l), against adaptive radial quadrature of the angular
    # sum over a 40 x 80 rule, for b of both signs (a bump about -e), narrow
    # and wide; measured within 1.9e-15 of hardy over these 156 cases
    from scipy.integrate import quad as radial_quad

    t, axis = 0.7, np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98)
    dirs, weights = _angular_grid()
    Y = ang.real_sph_block(4, dirs)
    for b, w in ((0.8, 0.7), (-0.8, 0.7), (1.9, 0.55), (-1.9, 0.55), (0.3, 1.4), (-0.3, 1.4)):
        hardy = ineq.bump_integrals(b, w, t, 3)["hardy"]
        for l in range(5):
            for m in sorted({-l, 0, l}):
                got = ineq.bump_table_hardy(((l, m, 1.0),), [b], [w], axis[None], t)[0]
                a = Y[ang.sph_index(l, m)] * weights
                proj = dirs @ axis

                def f(r):  # int a u^2 dtheta times r^2 G / r^2
                    d2 = r * r - 2.0 * r * b * proj + b * b
                    return a @ np.exp(-d2 / w**2) * t**-1.5 * math.exp(-r * r / (4.0 * t))

                want = sum(radial_quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                           for lo, hi in ((0.0, 1.0), (1.0, math.inf)))
                assert abs(got - want) <= 1e-13 * hardy, (b, w, l, m, got, want)


def test_table_hardy_sums_its_degrees():
    # a table is the sum of its entries, and its degree-0 entry is c Y_00
    # times the closed-form hardy of every bump
    members = list(ineq.TestFamily("bumps", 3, 50, 4).members())
    b, w = [m.b for m in members], [m.w for m in members]
    axes = np.array([m.axis for m in members])
    table = ((0, 0, 0.3), (1, -1, 0.2), (2, 1, -0.1), (3, 0, 0.05))
    whole = ineq.bump_table_hardy(table, b, w, axes, 0.7)
    parts = sum(ineq.bump_table_hardy((entry,), b, w, axes, 0.7) for entry in table)
    np.testing.assert_allclose(whole, parts, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(ineq.bump_table_hardy(table[:1], b, w, axes, 0.7),
                               0.3 / math.sqrt(4.0 * math.pi)
                               * ineq.bump_integrals(b, w, 0.7, 3)["hardy"], rtol=1e-14)


def test_table_hardy_holds_one_pass_of_harmonics():
    # the harmonics of a degree-32 table are built angular.DIRS_PER_PASS
    # axes at a time: one table over all 8,192 axes, with its Legendre table,
    # peaked at 156 MB under tracemalloc, the passes at 20 MB
    import tracemalloc

    rng = np.random.default_rng(7)
    axes = rng.normal(size=(8192, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    b, w = rng.uniform(-2.0, 2.0, 8192), rng.uniform(0.5, 1.5, 8192)
    tracemalloc.start()
    try:
        ineq.bump_table_hardy(((0, 0, 0.3), (32, 5, 0.01)), b, w, axes, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak


@pytest.mark.parametrize("beta, kappa", [(0.2, 0.0), (0.2, 0.3), (0.05, 1.5)])
def test_power_integrals_match_radial_quadrature(beta, kappa):
    # the J(p) closed forms of |x|^{-beta} e^{-kappa |x|^2} against adaptive
    # radial quadrature of u^2, u^2/r^2 and u'^2 times r^{N-1} G in N = 3, 4
    from scipy.integrate import quad as radial_quad

    t = 0.7
    for N in (3, 4):
        closed = ineq.power_integrals(np.array([beta]), np.array([kappa]), t, N)
        u = lambda r: r**-beta * math.exp(-kappa * r * r)
        du = lambda r: (-beta / r - 2.0 * kappa * r) * u(r)
        weight = lambda r: quad.sphere_area(N) * t ** (-N / 2.0) * r ** (N - 1) * math.exp(
            -r * r / (4.0 * t))
        for key, f in (("u2", lambda r: u(r) ** 2), ("hardy", lambda r: (u(r) / r) ** 2),
                       ("grad2", lambda r: du(r) ** 2)):
            want = sum(radial_quad(lambda r: f(r) * weight(r), lo, hi, epsabs=0.0,
                                   epsrel=1e-13, limit=200)[0]
                       for lo, hi in ((0.0, 1.0), (1.0, math.inf)))
            np.testing.assert_allclose(closed[key][0], want, rtol=1e-10, err_msg=(key, N))


HARDY = ("hardy_parabolic", "hardy_anisotropic")


@pytest.mark.parametrize("N", [3, 4, 5])
def test_power_family_sees_a_scaled_hardy_constant(N, monkeypatch):
    # the near-extremal family passes both Hardy gates at the sharp constant
    # and trips each once the constant is 1 + 1e-3 times too large
    fam = ineq.TestFamily("power", N, 200, 7)
    spec = ang.solve_angular(ang.AngularPotential.constant(0.1), K=4, N=N)
    reports = ineq.sweep(HARDY, fam, spec=spec)
    assert all(0.0 < rep["min_relative_gap"] < 1e-4 for rep in reports)
    assert all(rep["argmin"].startswith("member #") for rep in reports)
    sharp = ineq.hardy_constant
    monkeypatch.setattr(ineq, "hardy_constant", lambda n: (1.0 + 1e-3) * sharp(n))
    for name in HARDY:
        with pytest.raises(InvariantViolationError, match=f"{name} violated"):
            ineq.sweep((name,), fam, spec=spec)


def test_power_family_at_kappa_zero():
    # at kappa = 0 the parabolic right side is 1 + eps^2 / ((N-2)^2/4) times
    # the left, eps = (N-2)/2 - beta
    for N in (3, 4, 5):
        eps = np.array([1e-3, 1e-2, 0.3])
        ints = ineq.power_integrals((N - 2) / 2.0 - eps, np.zeros(3), 0.7, N)
        gap, scale = ineq._values(("hardy_parabolic",), ints, 0.7, N, None,
                                  2.5)["hardy_parabolic"]
        excess = eps**2 / ineq.hardy_constant(N)
        np.testing.assert_allclose(gap / scale, excess / (1.0 + excess), rtol=1e-9)


def test_power_family_is_closed_form_hardy_only():
    fam = ineq.TestFamily("power", 3, 5, 1)
    table = ang.solve_angular(POTENTIALS["table"], L=8, K=4, N=3)
    for names, spec in ((("x2_bound",), None), (("sobolev",), None),
                        (("hardy_anisotropic",), table)):
        with pytest.raises(ConfigurationError, match="power family"):
            ineq.sweep(names, fam, spec=spec)
