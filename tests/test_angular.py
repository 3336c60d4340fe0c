import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lpmv

from hardyheat import angular as ang
from hardyheat.config import RunConfig, parse_potential
from hardyheat.errors import ConfigurationError
from hardyheat.quadrature import _angular_nodes
from mode_oracle import (lpmv_harmonics, lpmv_norm, potential_pairing, potential_values,
                         real_sph_grad_block, zonal_quadratic)


# -- test-only oracle: the dense 2-D-grid Galerkin on the lpmv harmonics

def _dense_grid_galerkin(pot, L):
    table_L = max((l for l, _, _ in pot.table), default=0)
    dirs, w = _angular_nodes(3, 2 * L + max(8, table_L), 4 * L + 2 * table_L + 18)
    Y = lpmv_harmonics(L, dirs)
    A = (Y * (w * potential_values(pot, dirs))) @ Y.T
    return np.diag(ang.laplacian_diagonal(L)) - 0.5 * (A + A.T)


ORACLE_POTENTIALS = {
    "zonal_quadratic": lambda: zonal_quadratic(0.0, 0.3, -0.1),
    "zonal_table": lambda: ang.AngularPotential.harmonic_table(
        [(1, 0, 0.15), (2, 0, 0.05)]),
    "table_even_orders": lambda: ang.AngularPotential.harmonic_table(
        [(1, 0, 0.4), (2, 2, 0.25)]),
    "table_sin_cos": lambda: ang.AngularPotential.harmonic_table(
        [(2, 1, 0.1), (3, -2, 0.2)]),
}


def _anisotropic_config_spectrum():
    cfg = RunConfig.from_file(
        os.path.join(os.path.dirname(__file__), "..", "configs", "anisotropic.ini")
    )
    return ang.solve_angular(parse_potential(cfg), L=cfg.angular_truncation,
                             K=cfg.angular_count, N=cfg.dimension)


def _dense(pot, L):
    """The block-diagonal Galerkin matrix scattered into (L+1)^2 x (L+1)^2."""
    M = np.zeros((ang.basis_size(L), ang.basis_size(L)))
    for idx, B in ang.assemble_angular(pot, L):
        M[np.ix_(idx, idx)] = B
    return M


ZERO = ang.AngularPotential.harmonic_table([])


def test_spectrum_keeps_the_galerkin_block_of_y00():
    # the block of the solve's own assembly that holds Y_00, bit for bit, at
    # the config's L = 16 and at L = 32, where its angular_truncation = 0
    # twin (perfbench's aniso_auto) auto-doubles to; analytic spectra keep none
    fixed = _anisotropic_config_spectrum()
    auto = ang.solve_angular(fixed.potential, K=len(fixed.eigenvalues))
    assert (fixed.truncation_degree, auto.truncation_degree) == (16, 32)
    for spec in (fixed, auto):
        idx, B = spec.ground_block
        [(want_idx, want)] = [(i, M) for i, M in ang.assemble_angular(
            spec.potential, spec.truncation_degree) if 0 in i]
        assert np.array_equal(idx, want_idx)
        assert B.shape == want.shape and B.tobytes() == want.tobytes()
    for N in (3, 4, 5):
        assert ang.solve_angular(ang.AngularPotential.constant(0.1), K=8, N=N).ground_block is None


def test_assemble_zero_potential_diagonal():
    M = _dense(ZERO, 2)
    np.testing.assert_allclose(np.diag(M), [0, 2, 2, 2, 6, 6, 6, 6, 6], atol=1e-14)
    assert np.max(np.abs(M - np.diag(np.diag(M)))) == 0.0


def test_assemble_constant_is_shift():
    # the table of a = 0.7 shifts the matrix by -0.7, and its Galerkin
    # spectrum is the analytic one of the constant 0.7
    table = zonal_quadratic(0.7, 0.0, 0.0)
    M0, Ml = _dense(ZERO, 4), _dense(table, 4)
    np.testing.assert_allclose(Ml, M0 - 0.7 * np.eye(len(M0)), atol=1e-14)
    analytic = ang.solve_angular(ang.AngularPotential.constant(0.7), K=9, N=3)
    np.testing.assert_allclose(ang.solve_angular(table, L=4, K=9).eigenvalues,
                               analytic.eigenvalues, rtol=0, atol=1e-14)


def test_assemble_harmonic_table_constant_term():
    # a = c Y_00 acts as the constant c / sqrt(4 pi)
    c = 0.5
    M0 = _dense(ZERO, 3)
    Mht = _dense(ang.AngularPotential.harmonic_table([(0, 0, c)]), 3)
    shift = c / math.sqrt(4.0 * math.pi)
    np.testing.assert_allclose(Mht, M0 - shift * np.eye(len(M0)), atol=1e-13)


def test_solve_zero_potential_sphere_spectrum():
    # mu_l(0) = l(l + N - 2), multiplicity 2l+1 at N = 3
    spec = ang.solve_angular(ang.AngularPotential.constant(0.0), K=9, N=3)
    np.testing.assert_allclose(spec.eigenvalues, [0, 2, 2, 2, 6, 6, 6, 6, 6],
                               atol=1e-12)
    assert spec.residual_bound == 0.0


def test_solve_constant_shift():
    spec = ang.solve_angular(ang.AngularPotential.constant(0.1), K=4, N=3)
    np.testing.assert_allclose(spec.eigenvalues[0], -0.1, atol=1e-14)


def test_galerkin_matches_analytic_for_harmonic_table():
    pot = ang.AngularPotential.harmonic_table([(1, 0, 0.3), (2, 1, 0.1)])
    s16 = ang.solve_angular(pot, L=16, K=6)
    s32 = ang.solve_angular(pot, L=32, K=6)
    np.testing.assert_allclose(s16.eigenvalues, s32.eigenvalues, atol=1e-9)


def test_zonal_cos_polar_oracle():
    # a = cos(polar angle); oracle: the same Galerkin at L = 48
    pot = zonal_quadratic(0.0, 1.0, 0.0)
    s24 = ang.solve_angular(pot, L=24, K=4)
    s48 = ang.solve_angular(pot, L=48, K=4)
    assert abs(s24.eigenvalues[0] - s48.eigenvalues[0]) < 1e-9


def test_interlacing_in_truncation():
    # nested Galerkin spaces: mu_k(L) non-increasing in L
    pot = ang.AngularPotential.harmonic_table([(1, 0, 0.4), (2, 2, 0.25)])
    prev = None
    for L in (8, 12, 16, 24):
        vals = ang.solve_angular(pot, L=L, K=6).eigenvalues
        if prev is not None:
            assert np.all(vals <= prev + 1e-12)
        prev = vals


def test_weyl_perturbation_bound():
    fn = lambda c: 0.3 * c - 0.1 * c**2
    spec = ang.solve_angular(zonal_quadratic(0.0, 0.3, -0.1), L=16, K=9)
    mu0 = np.array([0, 2, 2, 2, 6, 6, 6, 6, 6], dtype=float)
    # sup |a| on a dense polar grid
    sup = float(np.max(np.abs(fn(np.cos(np.linspace(0.0, math.pi, 4001))))))
    assert np.all(np.abs(spec.eigenvalues - mu0) <= sup + 1e-10)


def test_check_positivity():
    s0 = ang.solve_angular(ang.AngularPotential.constant(0.0), K=4, N=3)
    ok, margin = ang.check_positivity(s0)
    assert ok and abs(margin - 0.25) < 1e-14
    s3 = ang.solve_angular(ang.AngularPotential.constant(0.3), K=4, N=3)
    ok, margin = ang.check_positivity(s3)
    assert not ok and abs(margin + 0.05) < 1e-14
    # N = 5 threshold: lambda < (N-2)^2/4 = 2.25
    for lam, expect in ((2.2, True), (2.3, False)):
        s5 = ang.solve_angular(ang.AngularPotential.constant(lam), K=4, N=5)
        assert ang.check_positivity(s5)[0] is expect


def test_eval_psi_constant_mode():
    spec = ang.solve_angular(ang.AngularPotential.constant(0.0), K=9, N=3)
    dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, 0.0, 0.8]])
    np.testing.assert_allclose(ang.eval_psi_block(spec, dirs)[0],
                               1.0 / math.sqrt(4.0 * math.pi), rtol=1e-14)


def test_psi_orthonormality_under_quadrature():
    pot = zonal_quadratic(0.0, 0.2, 0.0)
    spec = ang.solve_angular(pot, L=16, K=9)
    dirs, w = _angular_nodes(3, 24, 48)
    Y = ang.eval_psi_block(spec, dirs)
    G = (Y * w) @ Y.T
    assert np.max(np.abs(G - np.eye(9))) < 1e-10


def test_degree_one_subspace_recovered():
    # a = 0 eigenfunctions k = 2..4 span the degree-1 harmonics
    spec = ang.solve_angular(ang.AngularPotential.constant(0.0), K=4, N=3)
    dirs, w = _angular_nodes(3, 16, 32)
    Y1 = ang.real_sph_block(1, dirs)[1:4]
    psi = ang.eval_psi_block(spec, dirs)[1:4]
    # projector onto span(Y1) reproduces each psi
    for row in psi:
        proj = sum((row * w) @ y * y for y in Y1)
        np.testing.assert_allclose(proj, row, atol=1e-12)


def test_multiplicities_general_N():
    assert [ang.harmonic_multiplicity(l, 3) for l in range(5)] == [1, 3, 5, 7, 9]
    assert [ang.harmonic_multiplicity(l, 4) for l in range(4)] == [1, 4, 9, 16]
    assert [ang.harmonic_multiplicity(l, 5) for l in range(4)] == [1, 5, 14, 30]


def test_constant_spectrum_higher_N():
    spec = ang.solve_angular(ang.AngularPotential.constant(0.3), K=7, N=5)
    np.testing.assert_allclose(spec.eigenvalues,
                               [-0.3, 3.7, 3.7, 3.7, 3.7, 3.7, 9.7], atol=1e-13)
    assert list(spec.degrees) == [0, 1, 1, 1, 1, 1, 2]


def test_kind_dimension_compatibility():
    pot = ang.AngularPotential.harmonic_table([(1, 0, 0.1)])
    with pytest.raises(ConfigurationError, match="requires N=3"):
        ang.solve_angular(pot, L=8, K=4, N=4)
    with pytest.raises(ConfigurationError, match="L must be >= 2"):
        ang.assemble_angular(pot, 1)
    # a constant's spectrum is analytic; the Galerkin must not assemble a = 0
    with pytest.raises(ConfigurationError, match="constant potential"):
        ang.assemble_angular(ang.AngularPotential.constant(0.3), 8)


def test_spectrum_json_dump():
    spec = ang.solve_angular(ang.AngularPotential.constant(0.0), K=4, N=3)
    d = spec.to_jsonable()
    assert set(d) == {"N", "L", "eigenvalues", "residual_bound"}
    assert d["N"] == 3


def test_surface_gradient_identity():
    # |grad_S Y_{1,0}|^2 + l(l+1) Y^2 integrates to 2 l(l+1) ... spot check
    # via the eigenvalue identity int |grad_S Y|^2 = l(l+1) for normalized Y
    dirs, w = _angular_nodes(3, 20, 40)
    for l, m in ((1, 0), (2, 1), (3, -2)):
        g = real_sph_grad_block(l, dirs)[ang.sph_index(l, m)]
        val = w @ np.sum(g * g, axis=-1)
        np.testing.assert_allclose(val, l * (l + 1), rtol=1e-12)


def test_auto_doubling_truncation():
    pot = zonal_quadratic(0.0, 0.3, 0.0)
    auto = ang.solve_angular(pot, L=None, K=6)
    fixed = ang.solve_angular(pot, L=2 * auto.truncation_degree, K=6)
    np.testing.assert_allclose(auto.eigenvalues, fixed.eigenvalues, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(l=st.integers(0, 64), frac=st.floats(0.0, 1.0),
       x=st.floats(-1.0, 1.0, allow_nan=False))
def test_legendre_recurrence_matches_lpmv(l, frac, x):
    m = min(l, int(frac * (l + 1)))
    P = ang._legendre_table(l, np.array([x]))
    ref = lpmv_norm(l, m) * lpmv(m, l, x)
    assert abs(P[l, m, 0] - ref) <= 1e-12 * max(1.0, np.max(np.abs(P)))


@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
def test_block_assembly_matches_dense_grid(name):
    pot = ORACLE_POTENTIALS[name]()
    idx = np.concatenate([i for i, _ in ang.assemble_angular(pot, 8)])
    assert sorted(idx) == list(range(ang.basis_size(8)))  # the blocks tile the basis
    assert np.max(np.abs(_dense(pot, 8) - _dense_grid_galerkin(pot, 8))) < 1e-13


@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
def test_block_eigenvalues_match_dense_eigh(name):
    pot = ORACLE_POTENTIALS[name]()
    spec = ang.solve_angular(pot, L=16, K=16)
    dense = np.linalg.eigvalsh(_dense(pot, 16))[:16]
    np.testing.assert_allclose(spec.eigenvalues, dense, rtol=0, atol=1e-12)


def test_anisotropic_config_blocks_match_dense_eigh():
    spec = _anisotropic_config_spectrum()
    dense = np.linalg.eigvalsh(_dense(spec.potential, spec.truncation_degree))
    assert abs(spec.eigenvalues[0] - dense[0]) < 1e-14
    np.testing.assert_allclose(spec.eigenvalues, dense[:len(spec.eigenvalues)], rtol=0, atol=1e-12)


def test_potential_pairing_matches_grid_quadrature():
    # the 48 x 96 product grid integrates a psi_j psi_k exactly at L = 16
    spec = _anisotropic_config_spectrum()
    dirs, w = _angular_nodes(3, 48, 96)
    psi = ang.eval_psi_block(spec, dirs)
    S_grid = (psi * (w * potential_values(spec.potential, dirs))) @ psi.T
    assert np.max(np.abs(potential_pairing(spec) - S_grid)) < 1e-12


def test_surface_gradient_matches_finite_differences():
    # directional derivatives along the sphere, which fix the sign of each
    # gradient component (the energy identity above is blind to it)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    t = rng.normal(size=(30, 3))
    t -= np.sum(t * x, axis=1)[:, None] * x
    t /= np.linalg.norm(t, axis=1)[:, None]
    h = 1e-5

    def on_sphere(p):
        return p / np.linalg.norm(p, axis=1)[:, None]

    fd = (ang.real_sph_block(6, on_sphere(x + h * t))
          - ang.real_sph_block(6, on_sphere(x - h * t))) / (2 * h)
    grad = np.einsum("pmd,md->pm", real_sph_grad_block(6, x), t)
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-7)
