import math

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln, roots_genlaguerre, roots_jacobi, roots_legendre

from hardyheat import quadrature as quad
from hardyheat.errors import QuadratureError
from mode_oracle import radii
from sweep_oracle import integrate_G, zonal_rule


def test_laguerre_single_node():
    # forced by the first two moments of e^{-s}
    rule = quad.laguerre_rule(0.0, 1)
    np.testing.assert_allclose(rule.nodes, [1.0], rtol=1e-14)
    np.testing.assert_allclose(rule.weights, [1.0], rtol=1e-14)


def test_laguerre_weight_sum_gamma():
    rule = quad.laguerre_rule(0.5, 8)
    np.testing.assert_allclose(rule.weights.sum(), math.gamma(1.5), rtol=1e-12)


def test_laguerre_cubic_moment_exact():
    rule = quad.laguerre_rule(0.0, 4)
    np.testing.assert_allclose(rule.weights @ rule.nodes**3, 6.0, rtol=1e-13)


def test_laguerre_against_scipy():
    for a_gl, n in ((0.0, 12), (0.5, 20), (-0.5, 9), (2.3, 16)):
        rule = quad.laguerre_rule(a_gl, n)
        x, w = roots_genlaguerre(n, a_gl)
        np.testing.assert_allclose(rule.nodes, x, rtol=1e-10)
        np.testing.assert_allclose(rule.weights, w, rtol=1e-8)


def test_laguerre_polynomial_exactness_degree():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a_gl = rng.uniform(-0.8, 3.0)
        deg = 2 * n - 1
        coeffs = rng.normal(size=deg + 1)
        rule = quad.laguerre_rule(a_gl, n)
        approx = rule.weights @ np.polyval(coeffs[::-1], rule.nodes)
        exact = sum(c * math.gamma(a_gl + 1 + k) / math.gamma(a_gl + 1)
                    for k, c in enumerate(coeffs)) * math.gamma(a_gl + 1)
        np.testing.assert_allclose(approx, exact, rtol=1e-11, atol=1e-11)


@settings(deadline=None, max_examples=300)
@given(a=st.floats(min_value=-1.0, max_value=6.0, exclude_min=True),
       nk=st.integers(1, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2 * n - 1))))
def test_laguerre_exactness_property(a, nk):
    # n nodes integrate s^k s^a e^{-s} exactly for k <= 2n - 1
    n, k = nk
    rule = quad.laguerre_rule(a, n)
    exact = math.gamma(a + k + 1.0)
    assert abs(float(rule.weights @ rule.nodes**k) - exact) <= 1e-12 * exact


def test_laguerre_invariants():
    rule = quad.laguerre_rule(1.2, 32)
    assert np.all(rule.weights > 0)
    assert np.all(np.diff(rule.nodes) > 0)


def test_laguerre_bad_exponent():
    with pytest.raises(QuadratureError):
        quad.laguerre_rule(-1.0, 4)


def test_integrate_constant_mass():
    rule = quad.product_rule(3, 32, 12, 24)
    val = integrate_G(lambda x: np.ones(len(x)), 1.0, rule)
    np.testing.assert_allclose(val, 8.0 * math.pi**1.5, rtol=1e-13)


def test_integrate_t_invariance():
    # int |x|^2 G(., t) = 6 t (2 sqrt(pi))^3, so the moment over t is the
    # same at every t; the constant 1 would be too, whatever t did to the nodes
    rule = quad.product_rule(3, 32, 12, 24)
    sq = lambda x: np.sum(x * x, axis=1)
    v1 = integrate_G(sq, 1.0, rule)
    v2 = integrate_G(sq, 0.37, rule)
    np.testing.assert_allclose(v2 / 0.37, v1, rtol=1e-14)


def test_integrate_x_squared_moment():
    # per-axis Gaussian moment: 3 * 4 sqrt(pi) * (2 sqrt(pi))^2 = 48 pi^{3/2}
    rule = quad.product_rule(3, 32, 12, 24)
    val = integrate_G(lambda x: np.sum(x * x, axis=1), 1.0, rule)
    np.testing.assert_allclose(val, 48.0 * math.pi**1.5, rtol=1e-13)


def test_integrate_mass_higher_dims():
    for N in (4, 5):
        rule = quad.product_rule(N, 24, 10, 20)
        val = integrate_G(lambda x: np.ones(len(x)), 1.0, rule)
        np.testing.assert_allclose(val, (2.0 * math.sqrt(math.pi)) ** N, rtol=1e-12)


def test_matched_rule_fractional_power_exact():
    # int r^{-beta} (r^2/4)^k e^{-r^2/4} r^{N-1} dr = 2^{N-1-beta} Gamma(N/2 + k - beta/2)
    N, beta, k = 3, 0.7, 3
    a_gl = N / 2.0 - 1.0 - beta / 2.0 + k
    rule = quad.laguerre_rule(N / 2.0 - 1.0 - beta / 2.0, k + 1)
    val = 2.0 ** (N - 1 - beta) * (rule.weights @ rule.nodes**k)
    exact = 2.0 ** (N - 1 - beta) * math.gamma(N / 2.0 + k - beta / 2.0)
    np.testing.assert_allclose(val, exact, rtol=1e-13)
    assert a_gl > -1.0


def test_doubling_stability_converges():
    # e^{-c|x|^2} is not polynomial in s = r^2/4, so the radial rule is not
    # exact: doubling n_r from 16 must settle to 1e-10 well before 1024, on
    # the closed form int e^{-c|x|^2} G(x,1) dx = (pi/(c+1/4))^{3/2}
    # (per axis int e^{-(c+1/4) x^2} dx = sqrt(pi/(c+1/4)))
    f = lambda x: np.exp(-0.3 * np.sum(x * x, axis=1))
    n_r = 16
    prev = integrate_G(f, 1.0, quad.product_rule(3, n_r, 16, 32))
    while True:
        n_r *= 2
        assert n_r <= 1024
        cur = integrate_G(f, 1.0, quad.product_rule(3, n_r, 16, 32))
        if abs(cur - prev) <= 1e-10 * abs(cur):
            break
        prev = cur
    exact = (math.pi / 0.55) ** 1.5
    np.testing.assert_allclose(cur, exact, rtol=1e-10)


def _scipy_polar(N, n):
    expo = (N - 3) / 2.0
    return roots_legendre(n) if expo == 0.0 else roots_jacobi(n, expo, expo)


@pytest.mark.parametrize("N", (3, 4, 5, 6))
def test_polar_rule_matches_scipy(N):
    # n reaches 136, the polar rule of an L = 64 Galerkin solve.  The bounds
    # are scipy's own error (up to 5.7e-12 at n <= 72 and 5.4e-11 at
    # n <= 136 against the 8e-14 of test_gauss_rules_against_mpmath); the
    # nodes agree to 2 ulps of 1, and without the Newton polish to 8.
    for n in range(1, 137):
        c, w = quad.polar_rule(N, n)
        x, wx = _scipy_polar(N, n)
        assert np.max(np.abs(c - x)) <= 2.5e-16, n
        assert np.max(np.abs(w - wx) / wx) <= (1e-11 if n <= 72 else 1e-10), n


ROOT = Path(__file__).resolve().parents[1]
# Records every (a_GL, n_r) Laguerre rule that the shipped configs and
# workloads build outside the march: spectrum and basis certification,
# collocation, the matched blocks of the initial data (exponents
# N/2 - 1 - alpha_j) and the rules of a one-member verify (quadcheck checks
# the collocation or matched blocks above and builds no rule of its own).  A
# fresh process, so no rule comes from a cache.
SHIPPED_RULES = """
import json, sys, tempfile
from hardyheat import quadrature
seen, build = set(), quadrature._laguerre_cached
quadrature._laguerre_cached = lambda a, n: seen.add((a, n)) or build(a, n)
from hardyheat import cli, ou_basis
from hardyheat.config import RunConfig, parse_initial
for path in [None] + sys.argv[1:]:
    cfg = RunConfig.from_file(path) if path else RunConfig()
    spec, basis = cli._spectrum_and_basis(cfg)
    ou_basis.build_collocation(basis, n_r=cfg.radial_nodes)
    ou_basis.matched_blocks(basis, parse_initial(cfg, basis)[None], cfg.radial_nodes)
    cfg.sweep_count = 1
    cli.cmd_verify(cfg, tempfile.mkdtemp())
print(json.dumps(sorted(seen)))
"""


def test_laguerre_matches_stev_on_shipped_rules():
    configs = sorted(map(str, (ROOT / "configs").glob("*.ini")))
    configs += sorted(map(str, (ROOT / "perfbench" / "workloads").glob("*.ini")))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", SHIPPED_RULES, *configs], env=env,
                         capture_output=True, text=True, check=True)
    pairs = json.loads(out.stdout.splitlines()[-1])
    assert len(pairs) > 40  # 44 on the shipped configs
    for a_gl, n in pairs + [[0.5, 96], [0.5, 128]]:
        rule = quad.laguerre_rule(a_gl, n)
        i = np.arange(1, n)
        x, vecs = eigh_tridiagonal(2.0 * np.arange(n) + a_gl + 1.0,
                                   np.sqrt(i * (i + a_gl)), lapack_driver="stev")
        w = math.gamma(a_gl + 1.0) * vecs[0] ** 2
        keep = w > 0.0
        assert rule.count == np.count_nonzero(keep), (a_gl, n)
        x, w = x[keep], w[keep]
        # stev's nodes carry an absolute error ~ eps * 4n, up to 4.1e-12
        # relative at the smallest node; weights agree to 3.4e-12
        assert np.max(np.abs(rule.nodes - x) / x) <= 1e-11, (a_gl, n)
        big = w > 1e-280
        assert np.max(np.abs(rule.weights[big] - w[big]) / w[big]) <= 1e-11, (a_gl, n)


def _mp_gauss_rule(diag, off2, mu0, nodes):
    """Nodes (Newton from ``nodes``) and weights mu0 / sum_k p_k^2 of the
    orthonormal recurrence with diagonal ``diag`` and squared off-diagonal
    ``off2``, in 30-digit arithmetic."""
    off = [mpmath.sqrt(b2) for b2 in off2] + [mpmath.mpf(1)]
    out_x, out_w = [], []
    for x in nodes:
        x = mpmath.mpf(float(x))
        for _ in range(3):
            p_prev, p, dp_prev, dp, total = 0, mpmath.mpf(1), 0, 0, 0
            b_prev = 0
            for a_k, b_k in zip(diag, off):
                total += p * p
                p_prev, p, dp_prev, dp = (p, ((x - a_k) * p - b_prev * p_prev) / b_k,
                                          dp, (p + (x - a_k) * dp - b_prev * dp_prev) / b_k)
                b_prev = b_k
            x -= p / dp
        out_x.append(float(x))
        out_w.append(float(mu0 / total))
    return np.array(out_x), np.array(out_w)


def test_gauss_rules_against_mpmath():
    # weights from the recurrence's eigenvector sum are within 8e-14 here;
    # 1 / (p_{n-1} p_n') is off by 3.2e-12 (polar, n = 72) and 1.9e-12
    # (Laguerre, n = 64), and scipy's rules by 2.8e-12 and 1.8e-13
    with mpmath.workdps(30):
        for N in (3, 4, 5, 6):
            n, alpha = 72, mpmath.mpf(N - 2) / 2
            c, w = quad.polar_rule(N, n)
            off2 = [k * (k + 2 * alpha - 1) / (4 * (k + alpha) * (k + alpha - 1))
                    for k in range(1, n)]
            mu0 = 2 ** (N - 2) * mpmath.gamma(alpha + 0.5) ** 2 / mpmath.gamma(N - 1)
            x_ref, w_ref = _mp_gauss_rule([0] * n, off2, mu0, c)
            assert np.max(np.abs(c - x_ref)) <= 2.5e-16, N
            assert np.max(np.abs(w - w_ref) / w_ref) <= 3e-13, N
        for a_gl in (-0.5, 0.5):
            n, a = 64, mpmath.mpf(a_gl)
            rule = quad.laguerre_rule(a_gl, n)
            x_ref, w_ref = _mp_gauss_rule([2 * k + a + 1 for k in range(n)],
                                          [k * (k + a) for k in range(1, n)],
                                          mpmath.gamma(a + 1), rule.nodes)
            assert np.max(np.abs(rule.nodes - x_ref) / x_ref) <= 1e-13, a_gl
            big = w_ref > 1e-280
            assert np.max(np.abs(rule.weights[big] - w_ref[big]) / w_ref[big]) <= 3e-13, a_gl


@settings(deadline=None, max_examples=60)
@given(N=st.sampled_from((4, 5, 6)), n=st.integers(1, 40), data=st.data())
def test_polar_rule_even_moments_property(N, n, data):
    # int_{-1}^1 c^{2k} (1 - c^2)^{(N-3)/2} dc = B(k + 1/2, (N-1)/2), exact
    # for 2k <= 2n - 1.  Raising a node to the power 2k multiplies its
    # rounding error by 2k, so the bound is a fixed number of ulps per power.
    k = data.draw(st.integers(0, n - 1))
    c, w = quad.polar_rule(N, n)
    exact = math.exp(gammaln(k + 0.5) + gammaln((N - 1) / 2.0) - gammaln(k + N / 2.0))
    eps = np.finfo(float).eps
    assert abs(w @ c ** (2 * k) - exact) <= 32 * (2 * k + 1) * eps * exact


def _angular_nodes_by_polar_loop(N, n_polar, n_az):
    """The S^{N-1} rule built one polar node at a time, as a reference."""
    if N == 2:
        phi = 2.0 * math.pi * np.arange(n_az) / n_az
        return np.stack([np.cos(phi), np.sin(phi)], axis=1), np.full(n_az, 2.0 * math.pi / n_az)
    c, wc = quad.polar_rule(N, n_polar)
    sub_dirs, sub_w = _angular_nodes_by_polar_loop(N - 1, n_polar, n_az)
    s = np.sqrt(1.0 - c**2)
    dirs = np.empty((n_polar * len(sub_w), N))
    w = np.empty(n_polar * len(sub_w))
    for i in range(n_polar):
        block = slice(i * len(sub_w), (i + 1) * len(sub_w))
        dirs[block, 0] = c[i]
        dirs[block, 1:] = s[i] * sub_dirs
        w[block] = wc[i] * sub_w
    return dirs, w


@pytest.mark.parametrize("N", (3, 4, 5, 6))
def test_angular_nodes_match_polar_loop(N):
    dirs, w = quad._angular_nodes(N, 7, 11)
    ref_dirs, ref_w = _angular_nodes_by_polar_loop(N, 7, 11)
    np.testing.assert_array_equal(dirs, ref_dirs)
    np.testing.assert_array_equal(w, ref_w)


def test_angular_weight_sums():
    for N in (3, 4, 5):
        _, w = quad._angular_nodes(N, 12, 24)
        np.testing.assert_allclose(w.sum(), quad.sphere_area(N), rtol=1e-13)


def test_zonal_matches_full_rule():
    # an integrand zonal about an axis, exp(-|x - b e|^2 / w^2), on the full
    # rule about e3 and on the zonal rule about e1
    def squared_bump(x, axis, b=0.8, w=0.9):
        d = x - b * axis
        return np.exp(-np.sum(d * d, axis=-1) / w**2)

    full = quad.product_rule(3, 40, 14, 28)
    i_full = full.weights @ squared_bump(full.points, np.array([0.0, 0.0, 1.0]))
    zr = zonal_rule(3, 40, 24)
    i_zonal = zr.weights @ squared_bump(zr.points, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(i_full, i_zonal, rtol=1e-12)


def test_zonal_hardy_exponent():
    # 1/r^2 weighted mass: int G/|x|^2 = 4 pi^{3/2} at N=3, t=1
    zr = zonal_rule(3, 32, 16, a_gl=-0.5)
    np.testing.assert_allclose(zr.weights @ (1.0 / radii(zr)**2), 4.0 * math.pi**1.5,
                               rtol=1e-12)
