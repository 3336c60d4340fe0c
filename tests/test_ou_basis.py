import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hardyheat import angular as ang
from hardyheat import ou_basis as ou
from hardyheat.config import RunConfig, parse_potential
from hardyheat.errors import (
    ConfigurationError,
    DegeneracyAmbiguityError,
    TruncationError,
)
from hardyheat.quadrature import laguerre_rule, product_rule
from kummer import closed_form_norm2
from mode_oracle import (SingularPointError, certification_matrices, coupling_matrix,
                         eval_grad_V, eval_V, hardy_matrix, hardy_mode_consistency,
                         kummer_factors, potential_pairing, potential_values, radii,
                         spectrum_multiplicity)
from sweep_oracle import integrate_G, shifted_product_rule


def kummer_scale(mode, N=3):
    """The closed-form norm of r^{-alpha} M(-n, N/2 - alpha, r^2/4) psi: a
    normalized mode's value times it is the unnormalized one."""
    return math.sqrt(closed_form_norm2(mode.n, mode.alpha_j, N))


def test_halfinteger_ladder_and_multiplicities(basis0):
    counts = Counter(round(float(g), 9) for g in basis0.gammas)
    assert dict(counts) == {0.0: 1, 0.5: 3, 1.0: 6, 1.5: 10, 2.0: 15}
    # oracle: number of 3-D multi-indices with |beta| = 2 gamma
    for g, m in counts.items():
        assert m == math.comb(int(2 * g) + 2, 2)


def test_certification_residuals(basis0):
    assert basis0.gram_residual < 1e-8
    assert basis0.bilinear_residual < 1e-6


def test_norms_against_closed_form(basis0):
    # the modes carry their closed-form normalization, so the quadrature
    # Gram diagonal is 1
    gram, _ = certification_matrices(basis0.spectrum, basis0.modes)
    np.testing.assert_allclose(np.diag(gram), 1.0, rtol=0.0, atol=1e-13)


def test_constant_tower_shift():
    # l = 0 tower: gamma shifts by -(sqrt(1/4) - sqrt(1/4 - lam))/2
    lam = 0.05
    spec = ang.solve_angular(ang.AngularPotential.constant(lam), K=36, N=3)
    basis = ou.enumerate_modes(spec, 1.5)
    shift = (math.sqrt(0.25) - math.sqrt(0.25 - lam)) / 2.0
    tower = sorted(m.gamma for m in basis.modes if m.j == 1)
    np.testing.assert_allclose(tower, [n - shift for n in range(len(tower))],
                               rtol=1e-12)


def test_multiplicity_gamma_zero(basis0):
    count, J = ou.multiplicity(0.0, basis0)
    assert count == 1 and J == [(0, 1)]


def test_multiplicity_gamma_one(basis0):
    # enumeration oracle: 1 from (m=1, l=0) plus 5 from (m=0, l=2)
    count, J = ou.multiplicity(1.0, basis0)
    assert count == 6
    ks = sorted(k for _, k in J)
    assert ks == [1, 5, 6, 7, 8, 9]


def test_multiplicity_perturbed_off_halfintegers(spec01):
    count, J = ou.multiplicity(0.5, ou.enumerate_modes(spec01, 2.0))
    assert count == 0 and J == []


def _config_basis(name: str) -> ou.OUBasis:
    cfg = RunConfig.from_file(str(Path(__file__).parents[1] / "configs" / name))
    spec = ang.solve_angular(parse_potential(cfg), L=cfg.angular_truncation,
                             K=cfg.angular_count, N=cfg.dimension)
    return ou.enumerate_modes(spec, cfg.gamma_max)


def test_multiplicity_matches_the_spectrum_oracle(basis0, spec01):
    # at every distinct eigenvalue of each basis, the modes within INT_TOL
    # are the (m, k) the spectrum-side count finds, in the same order
    bases = [basis0, ou.enumerate_modes(spec01, 2.0), _config_basis("anisotropic.ini")]
    for N in (4, 5):
        K = sum(ang.harmonic_multiplicity(l, N) for l in range(5)) + 1
        for a in (0.0, 0.2):
            spec = ang.solve_angular(ang.AngularPotential.constant(a), K=K, N=N)
            bases.append(ou.enumerate_modes(spec, 2.0))
    for basis in bases:
        # J is sorted by k whatever the order of the modes
        backward = ou.OUBasis(basis.spectrum, basis.modes[::-1], 0.0, 0.0)
        for g in sorted(set(basis.gammas.tolist())):
            count, J = ou.multiplicity(g, basis)
            assert (count, J) == spectrum_multiplicity(g, basis.spectrum), (basis.N, g)
            assert count >= 1 and ou.multiplicity(g, backward) == (count, J)


def test_multiplicity_ambiguity_band():
    # fabricate a spectrum whose alpha sits 1e-8 off an integer condition:
    # its ground mode's gamma = -alpha/2 is -5e-9, inside (1e-9, 1e-6) of 0
    mu = -1e-8  # alpha ~ -mu
    spec = ang.AngularSpectrum(
        N=3,
        potential=ang.AngularPotential.constant(0.0),
        eigenvalues=np.array([mu, 40.0]),
        eigenvectors=None,
        degrees=np.array([0, 5]),
        truncation_degree=5,
        residual_bound=0.0,
    )
    basis = ou.enumerate_modes(spec, 1.0)
    assert [(m.n, m.j) for m in basis.modes] == [(0, 1), (1, 1)]
    for gamma in (0.0, 1.0):
        with pytest.raises(DegeneracyAmbiguityError, match=r"mode \(n=\d, j=1\) .* band"):
            ou.multiplicity(gamma, basis)
        with pytest.raises(DegeneracyAmbiguityError):
            spectrum_multiplicity(gamma, spec)


def test_coverage_certification_error(spec0):
    # -alpha_K/2 = 3 for K = 36 (l = 5); gamma_max beyond that must fail
    with pytest.raises(TruncationError):
        ou.enumerate_modes(spec0, 3.5)


def test_eval_ground_mode_constant(basis0, spec0):
    mode = basis0.modes[basis0.mode_index(1, 0)]
    x = np.array([[0.3, -0.2, 0.9], [2.0, 0.0, 0.0], [0.01, 0.02, -0.03]])
    np.testing.assert_allclose(
        eval_V(spec0, [mode], x)[0] * kummer_scale(mode),
        1.0 / math.sqrt(4.0 * math.pi), rtol=1e-14,
    )


def test_eval_first_radial_mode(basis0, spec0):
    # V(x) = (1 - |x|^2/6) / sqrt(4 pi), from P(t) = 1 - (2/3) t at t = |x|^2/4
    mode = basis0.modes[basis0.mode_index(1, 1)]
    x = np.array([[0.5, 0.2, 0.1], [1.0, 1.0, 1.0], [0.0, 3.0, 0.0]])
    r2 = np.sum(x * x, axis=1)
    np.testing.assert_allclose(
        eval_V(spec0, [mode], x)[0] * kummer_scale(mode),
        (1.0 - r2 / 6.0) / math.sqrt(4.0 * math.pi), rtol=1e-13,
    )


def test_eval_rotation_invariance_radial_modes(basis0, spec0):
    mode = basis0.modes[basis0.mode_index(1, 2)]
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    x = rng.normal(size=(10, 3))
    np.testing.assert_allclose(
        eval_V(spec0, [mode], x), eval_V(spec0, [mode], x @ q.T), rtol=1e-12
    )


def test_eval_at_origin_limits(basis0, spec0):
    # alpha < 0 (l >= 1): limit 0; alpha = 0 ground: constant
    x0 = np.zeros((1, 3))
    l1 = next(m for m in basis0.modes if m.degree == 1)
    assert eval_V(spec0, [l1], x0)[0, 0] == 0.0
    g = basis0.modes[basis0.mode_index(1, 0)]
    np.testing.assert_allclose(
        eval_V(spec0, [g], x0)[0, 0] * kummer_scale(g), 1.0 / math.sqrt(4 * math.pi)
    )
    # an l > 0 mode with alpha = 0 has no limit there, and no gradient does
    with pytest.raises(SingularPointError):
        eval_V(spec0, [replace(l1, alpha_j=0.0)], x0)
    with pytest.raises(SingularPointError):
        eval_grad_V(spec0, [g], x0)


def test_eval_origin_singular_alpha_positive():
    spec = ang.solve_angular(ang.AngularPotential.constant(0.1), K=36, N=3)
    basis = ou.enumerate_modes(spec, 1.0)
    mode = basis.modes[0]
    assert mode.alpha_j > 0
    with pytest.raises(SingularPointError):
        eval_V(spec, [mode], np.zeros((1, 3)))


def test_eval_subset_equals_rows_of_all_modes_call():
    pot = ang.AngularPotential.harmonic_table([(2, 1, 0.1), (3, -2, 0.2)])
    spec = ang.solve_angular(pot, L=12, K=16)
    basis = ou.enumerate_modes(spec, 1.0)
    x = np.random.default_rng(3).normal(size=(40, 3))
    values = eval_V(spec, basis.modes, x)
    all_values, all_grads = eval_grad_V(spec, basis.modes, x)
    assert values.shape == (basis.size, 40) and all_grads.shape == (basis.size, 40, 3)
    np.testing.assert_allclose(all_values, values, rtol=0, atol=1e-15)
    idx = [7, 0, basis.size - 1, 3]
    subset = [basis.modes[i] for i in idx]
    np.testing.assert_array_equal(eval_V(spec, subset, x), values[idx])
    sub_values, sub_grads = eval_grad_V(spec, subset, x)
    np.testing.assert_array_equal(sub_values, all_values[idx])
    np.testing.assert_array_equal(sub_grads, all_grads[idx])


def test_eval_l_positive_mode_off_n3_raises():
    # an N = 4 constant spectrum carries no eigenvectors: only psi_1 is
    # evaluable, and any l > 0 mode must raise rather than return NaN rows
    spec = ang.solve_angular(ang.AngularPotential.constant(0.0), K=14, N=4)
    basis = ou.enumerate_modes(spec, 0.5)
    ground = basis.modes[basis.mode_index(1, 0)]
    l1 = next(m for m in basis.modes if m.degree == 1)
    x = np.random.default_rng(5).normal(size=(6, 4))
    v, g = eval_grad_V(spec, [ground], x)
    np.testing.assert_allclose(v * kummer_scale(ground, 4), 1.0 / math.sqrt(2.0 * math.pi**2),
                               rtol=1e-14)
    np.testing.assert_array_equal(g, 0.0)
    for evaluate in (eval_V, eval_grad_V):
        with pytest.raises(ConfigurationError):
            evaluate(spec, [ground, l1], x)


def test_inner_products(basis0):
    gram, _ = certification_matrices(basis0.spectrum, basis0.modes)
    i0 = basis0.mode_index(1, 0)
    i1 = basis0.mode_index(1, 1)
    np.testing.assert_allclose(gram[i0, i0], 1.0, rtol=1e-12)
    # same angular index, different radial index: quadrature-exact zero
    assert abs(gram[i0, i1]) < 1e-12
    # different angular index: analytic zero, so no block pairs the two
    j1 = next(i for i, m in enumerate(basis0.modes) if m.degree == 1)
    blocks = ou.certification_blocks(basis0.spectrum, basis0.modes)
    assert not any(i0 in idx and j1 in idx for idx, _, _ in blocks)
    assert sorted(np.concatenate([idx for idx, _, _ in blocks])) == list(range(basis0.size))


def test_bilinear_weak_eigen_relation(basis0):
    _, bilinear = certification_matrices(basis0.spectrum, basis0.modes)
    i0 = basis0.mode_index(1, 0)
    i1 = basis0.mode_index(1, 1)
    assert abs(bilinear[i0, i0]) < 1e-14          # gamma = 0
    np.testing.assert_allclose(bilinear[i1, i1], 1.0, rtol=1e-12)
    assert abs(bilinear[i0, i1]) < 1e-12          # self-adjointness


def test_weak_eigen_relation_all_pairs_perturbed(spec01):
    basis = ou.enumerate_modes(spec01, 2.0)
    _, bilinear = certification_matrices(spec01, basis.modes)
    for p in range(basis.size):
        for q in range(p, basis.size):
            expected = basis.gammas[q] if p == q else 0.0
            assert abs(bilinear[p, q] - expected) < 1e-10


def test_certification_matrices_match_pairwise_quadrature(spec01):
    # reference: one matched Gauss-Laguerre rule per pair, sized from that
    # pair's degrees, over Kummer's series divided by the closed-form norms
    basis = ou.enumerate_modes(spec01, 2.0)
    gram, bilinear = certification_matrices(spec01, basis.modes)
    mu = spec01.eigenvalues
    for p, mp in enumerate(basis.modes):
        for q, mq in enumerate(basis.modes):
            if mp.j != mq.j:
                assert gram[p, q] == bilinear[p, q] == 0.0
                continue
            a2 = mp.alpha_j + mq.alpha_j
            size = max(8, mp.n + mq.n + 2)
            rule = laguerre_rule(1.5 - 1.0 - a2 / 2.0, size)
            P, _ = kummer_factors([mp, mq], 3, rule.nodes)
            raw = 2.0 ** (3 - 1 - a2) * float(rule.weights @ (P[0] * P[1]))
            assert abs(gram[p, q] - raw) < 1e-14
            rule = laguerre_rule(1.5 - 2.0 - a2 / 2.0, size + 1)
            P, Q = kummer_factors([mp, mq], 3, rule.nodes)
            vals = Q[0] * Q[1] + mu[mp.j - 1] * P[0] * P[1]
            raw = 2.0 ** (3 - 3 - a2) * float(rule.weights @ vals)
            assert abs(bilinear[p, q] - raw) < 1e-13


@pytest.mark.parametrize("alpha", (0.0, 9.385026740700853e-4))
def test_certification_through_radial_degree_32(alpha):
    # radial-only modes n = 0..32 at a = 0 and at the anisotropic ground
    # block of configs/anisotropic.ini; power coefficients summed by Horner
    # read a Gram residual of 1.1e-2 and a bilinear one of 0.135 here, the
    # Laguerre table 3.6e-15 and 2.2e-13
    mu = alpha * alpha - alpha  # alpha = 1/2 - sqrt(1/4 + mu) in N = 3
    spec = ang.AngularSpectrum(N=3, potential=ang.AngularPotential.constant(0.0),
                               eigenvalues=np.array([mu]), eigenvectors=None,
                               degrees=np.array([0]), truncation_degree=0, residual_bound=0.0)
    modes = [ou.OUMode(1, n, alpha, n - alpha / 2.0, 0) for n in range(33)]
    gram, bilinear = certification_matrices(spec, modes)
    assert np.max(np.abs(gram - np.eye(33))) <= 1e-13
    assert np.max(np.abs(bilinear - np.diag([m.gamma for m in modes]))) <= 1e-11


def test_gram_gate_sees_a_normalization_error(spec0, monkeypatch):
    # the modes are normalized in closed form, so a table row off by 1e-6
    # reaches the Gram diagonal and the gate
    table = ou.laguerre_table

    def skewed(a, n_max, s):
        rows, D = table(a, n_max, s)
        rows[n_max], D[n_max] = rows[n_max] * (1.0 + 1e-6), D[n_max] * (1.0 + 1e-6)
        return rows, D

    ou.enumerate_modes(spec0, 2.0)
    monkeypatch.setattr(ou, "laguerre_table", skewed)
    with pytest.raises(TruncationError, match="Gram residual"):
        ou.enumerate_modes(spec0, 2.0)


def test_gram_gate_reads_every_block(spec0, monkeypatch):
    # the skew of the test above in the degree-4 blocks alone (exponent
    # N/2 - 1 - alpha_j = 4.5), which come last in mode order
    table = ou.laguerre_table

    def skewed(a, n_max, s):
        rows, D = table(a, n_max, s)
        if a > 4.0:
            rows[n_max], D[n_max] = rows[n_max] * (1.0 + 1e-6), D[n_max] * (1.0 + 1e-6)
        return rows, D

    monkeypatch.setattr(ou, "laguerre_table", skewed)
    with pytest.raises(TruncationError, match="Gram residual"):
        ou.enumerate_modes(spec0, 2.0)


def test_certification_residuals_are_the_dense_maxima(basis0, spec01):
    # the maxima over the blocks are those over the dense upper triangles,
    # whose zeros between blocks never set them
    for basis in (basis0, ou.enumerate_modes(spec01, 2.0)):
        gram, bilinear = certification_matrices(basis.spectrum, basis.modes)
        assert basis.gram_residual == np.max(np.triu(np.abs(gram - np.eye(basis.size))))
        assert basis.bilinear_residual == np.max(
            np.triu(np.abs(bilinear - np.diag(basis.gammas))))


def test_hardy_mode_consistency(basis0, spec01):
    assert hardy_mode_consistency(basis0) <= 1e-12
    basis01 = ou.enumerate_modes(spec01, 2.0)
    assert hardy_mode_consistency(basis01) <= 1e-12


@pytest.mark.parametrize(
    "N, a",
    # a = 0.3 with N = 3 is past the Hardy constant 1/4 and fails positivity
    [(N, a) for N in (3, 4, 5) for a in (0.0, 0.1, 0.3) if a < (N - 2) ** 2 / 4.0],
)
def test_hardy_matrix_ground_diagonal_closed_form(N, a):
    # n = 0, b = N/2 - alpha: int r^{N-3-2 alpha} e^{-r^2/4} / int r^{N-1-2 alpha}
    # e^{-r^2/4} = Gamma(b - 1) / (4 Gamma(b)) = 1 / (2 (N - 2 - 2 alpha))
    spec = ang.solve_angular(ang.AngularPotential.constant(a), K={3: 36, 4: 50, 5: 70}[N], N=N)
    basis = ou.enumerate_modes(spec, 1.0)
    ground = [i for i, m in enumerate(basis.modes) if m.n == 0]
    closed = [1.0 / (2.0 * (N - 2 - 2 * basis.modes[i].alpha_j)) for i in ground]
    np.testing.assert_allclose(np.diag(hardy_matrix(basis))[ground], closed,
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("a", (0.1, 0.2))
def test_potential_coupling_constant_is_scaled_hardy(a):
    # the same constant as a Y_00 table entry takes the Galerkin route: S
    # from the eigenpairs and every (j, j') radial block
    const = ou.enumerate_modes(
        ang.solve_angular(ang.AngularPotential.constant(a), K=36, N=3), 1.5)
    table = ou.enumerate_modes(ang.solve_angular(
        ang.AngularPotential.harmonic_table([(0, 0, a * math.sqrt(4.0 * math.pi))]),
        L=8, K=36), 1.5)
    hardy = hardy_matrix(const)
    np.testing.assert_array_equal(coupling_matrix(const), a * hardy)
    order = {(m.j, m.n): i for i, m in enumerate(const.modes)}
    assert sorted(order) == sorted((m.j, m.n) for m in table.modes)
    perm = [order[(m.j, m.n)] for m in table.modes]
    np.testing.assert_allclose(coupling_matrix(table),
                               a * hardy[np.ix_(perm, perm)], rtol=0.0, atol=1e-13)


def test_potential_coupling_vs_nodal_quadrature():
    # independent route on the configs/anisotropic.ini basis: cubature of
    # a/|x|^2 V_p V_q G on the a_GL = N/2 - 2 product rule
    cfg = RunConfig.from_file(str(Path(__file__).parents[1] / "configs" / "anisotropic.ini"))
    pot = parse_potential(cfg)
    spec = ang.solve_angular(pot, L=cfg.angular_truncation, K=cfg.angular_count)
    basis = ou.enumerate_modes(spec, cfg.gamma_max)
    rule = shifted_product_rule(3, 48, 18, 26, 3 / 2.0 - 2.0)
    V = eval_V(spec, basis.modes, rule.points)
    avals = np.tile(potential_values(pot, rule.angular_dirs), rule.radial.count)
    nodal = (V * (rule.weights * avals / radii(rule)**2)) @ V.T
    gram_residual = np.max(np.abs((V * rule.weights) @ V.T - np.eye(basis.size)))
    # the fractional exponents converge only algebraically on the shared
    # nodes; the |x|^-2 integrand is one power of |x|^2/4 more singular than
    # the Gram one and its error is 30-70 times the Gram residual for
    # n_r = 32..96 (1.8e-6 here)
    tol = 100.0 * gram_residual
    coupling = coupling_matrix(basis)
    assert np.max(np.abs(coupling)) > 10.0 * tol  # the check can see the coupling
    assert np.max(np.abs(nodal - coupling)) < tol
    # the pairings between the groups of angular indices that S connects
    # are exact zeros, and the cubature finds them zero too
    S = potential_pairing(spec)
    labels = sorted({m.j for m in basis.modes})
    pairs = [(j, k) for j in labels for k in labels if S[j - 1, k - 1] != 0.0]
    group = np.zeros(basis.size, dtype=int)
    for g, members in enumerate(ang.connected_groups(pairs, labels)):
        group[[m.j in members for m in basis.modes]] = g
    between = group[:, None] != group[None]
    assert group.max() > 0 and np.all(coupling[between] == 0.0)
    assert np.max(np.abs(nodal[between])) < tol


def test_collocation_gram(basis0, col0):
    G = (col0.Phi * col0.weights) @ col0.Phi.T
    assert np.max(np.abs(G - np.eye(basis0.size))) < 1e-10


def test_gradient_finite_difference(basis0, spec0):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 3)) + np.array([0.3, 0.1, 0.2])
    eps = 1e-6
    modes = [basis0.modes[k] for k in (0, 4, 11)]
    _, g = eval_grad_V(spec0, modes, x)
    for d in range(3):
        dp, dm = x.copy(), x.copy()
        dp[:, d] += eps
        dm[:, d] -= eps
        fd = (eval_V(spec0, modes, dp) - eval_V(spec0, modes, dm)) / (2 * eps)
        np.testing.assert_allclose(g[..., d], fd, atol=2e-9)


def test_gradient_energy_identity(basis0, spec0, col0):
    # int |grad V~|^2 G = B(V~, V~) + int (a/|x|^2) V~^2 G; here a = 0
    ks = [1, 5, 12]
    _, g = eval_grad_V(spec0, [basis0.modes[k] for k in ks], col0.rule.points)
    energy = np.sum(g * g, axis=-1) @ col0.weights
    np.testing.assert_allclose(energy, basis0.gammas[ks], rtol=1e-10, atol=1e-12)


def test_enumeration_deterministic_order(basis0):
    keys = [(m.gamma, m.j, m.n) for m in basis0.modes]
    assert keys == sorted(keys)


def test_basis_json_and_hash(basis0):
    d = basis0.to_jsonable()
    assert len(d["modes"]) == basis0.size
    assert set(d["modes"][0]) == {"j", "n", "alpha", "gamma"}
    assert len(basis0.content_hash()) == 16


def test_norm_Ht_ground_mode_is_one(basis0, spec0):
    # gradient vanishes only for the constant mode: ||V~||_H = ||V~||_L = 1
    mode = basis0.modes[basis0.mode_index(1, 0)]

    def integrand(x):  # t |grad V|^2 + V^2 at t = 1
        v, g = eval_grad_V(spec0, [mode], x)
        return np.sum(g[0] * g[0], axis=-1) + v[0] ** 2

    val = math.sqrt(integrate_G(integrand, 1.0, product_rule(3, 32, 12, 24)))
    np.testing.assert_allclose(val, 1.0, rtol=1e-12)


def test_anisotropic_ground_level_vs_perturbation_theory():
    # second-order shift of mu_1 for a = c1 Y10 + c2 Y20:
    # mu_1 ~ -sum_l |c_l|^2 / (4 pi l(l+1)), third-order corrections ~ c^3
    pot = ang.AngularPotential.harmonic_table([(1, 0, 0.15), (2, 0, 0.05)])
    spec = ang.solve_angular(pot, L=16, K=16)
    pt2 = -(0.15**2 / (4 * math.pi * 2) + 0.05**2 / (4 * math.pi * 6))
    assert abs(spec.eigenvalues[0] - pt2) < 2e-5


def test_bilinear_reduction_vs_nodal_gradient_oracle():
    # independent route: cubature of grad V_p . grad V_q - a/|x|^2 V_p V_q
    pot = ang.AngularPotential.harmonic_table([(1, 0, 0.15), (2, 0, 0.05)])
    spec = ang.solve_angular(pot, L=16, K=36)
    basis = ou.enumerate_modes(spec, 1.5)
    col = ou.build_collocation(basis, n_r=96)
    _, grads = eval_grad_V(spec, basis.modes[:5], col.rule.points)
    hrule = shifted_product_rule(3, 96, 18, 26, -0.5)
    avals = np.tile(potential_values(pot, hrule.angular_dirs), hrule.radial.count)
    r2 = radii(hrule)**2
    V = eval_V(spec, basis.modes[:5], hrule.points)
    _, bilinear = certification_matrices(spec, basis.modes)
    for p, q in ((0, 0), (0, 3), (2, 2), (1, 4)):
        grad_term = col.weights @ np.sum(grads[p] * grads[q], axis=-1)
        nodal = grad_term - hrule.weights @ (avals * V[p] * V[q] / r2)
        # the nodal route converges only algebraically for fractional
        # exponents; 1e-4 is its accuracy here, not the reduction's
        assert abs(nodal - bilinear[p, q]) < 1e-4
