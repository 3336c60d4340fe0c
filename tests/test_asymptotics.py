import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from hardyheat import asymptotics as asym
from hardyheat import evolve as ev
from hardyheat import ou_basis as ou
from hardyheat.errors import ResolutionError
from mode_oracle import closed_form_reference


def _mode(basis, gamma):
    return next(i for i, m in enumerate(basis.modes) if abs(m.gamma - gamma) < 1e-12)


@pytest.fixture(scope="module")
def deep_exp(basis0):
    """exp_linear eps = 0.1 on the ground mode, integrated to t = 1e-6."""
    k = _mode(basis0, 0.0)
    pert = ev.PerturbationSpec.linear_constant(0.1)
    c0 = closed_form_reference(basis0, ("exp_linear", k, 0.1), 1.0)
    return ev.integrate_backward(basis0, c0, math.log(1e-6), 0.005, pert)


@pytest.fixture(scope="module")
def J0_ground(spec0):
    _, J0 = ou.multiplicity(0.0, spec0)
    return J0


@pytest.mark.parametrize("n", range(1, 8))
def test_simpson_exact_for_cubics(n):
    # composite Simpson, ending with a 3/8 panel at odd n, is exact for
    # cubics; the single panel is the trapezoid, exact for linear data
    p = Polynomial([2.0, -1.0, 3.0, -0.5] if n > 1 else [2.0, -1.0])
    h = 0.3
    x = 1.0 + h * np.arange(n + 1)
    P = p.integ()
    np.testing.assert_allclose(asym._simpson(p(x), h), P(x[-1]) - P(x[0]), rtol=1e-14)


def test_beta_integral_exp_linear_is_one(deep_exp, J0_ground):
    # closed-form algebra: beta = e^{-eps L^2} + eps int_0^{L^2} e^{-eps s} ds = 1,
    # at Lambdas leaving both even and odd Simpson panel counts
    parities = set()
    for lam in np.linspace(0.1, 0.4, 8):
        parities.add((deep_exp.size - 1 - deep_exp.row_at_t(lam * lam)) % 2)
        tb = asym.beta_integral(deep_exp, lam, J0_ground, 0.0)
        np.testing.assert_allclose(tb.beta[(0, 1)], 1.0, rtol=0.0, atol=2e-13)
    assert parities == {0, 1}


def test_lambda_independence_exp_linear(deep_exp, J0_ground):
    spread, (table, *_) = asym.lambda_independence(deep_exp, [0.1, 0.2, 0.3, 0.4],
                                                   J0_ground, 0.0)
    assert spread < 1e-8
    assert table.variation_over_Lambda == spread
    assert max(abs(v) for v in table.beta.values()) > 0  # non-triviality


def test_beta_unperturbed_mixture(basis0, J0_ground, tau_small):
    k0, k05 = _mode(basis0, 0.0), _mode(basis0, 0.5)
    c0 = ev.build_initial(basis0, [(k0, 1.0), (k05, 2.0)])
    traj = ev.integrate_backward(basis0, c0, tau_small, 0.005,
                                 ev.PerturbationSpec.none())
    tb = asym.beta_integral(traj, 0.3, J0_ground, 0.0)
    # minimal-mode coefficient passes through bit-for-bit (xi == 0)
    assert tb.beta[(0, 1)] == 1.0
    spread, _ = asym.lambda_independence(traj, [0.1, 0.2, 0.3], J0_ground, 0.0)
    assert spread == 0.0


def test_beta_pure_mode_bit_exact(basis0, tau_small):
    k05 = _mode(basis0, 0.5)
    _, J05 = ou.multiplicity(0.5, basis0.spectrum)
    c0 = ev.build_initial(basis0, [(k05, 2.0)])  # power of two
    traj = ev.integrate_backward(basis0, c0, tau_small, 0.005,
                                 ev.PerturbationSpec.none())
    tb = asym.beta_integral(traj, 0.25, J05, 0.5)
    vals = [tb.beta[mk] for mk in tb.J0]
    assert 2.0 in vals and all(v in (0.0, 2.0) for v in vals)


def test_beta_unperturbed_returns_the_initial_coefficient(basis0, tau_small):
    # on a gamma = 0.5 mode of the unperturbed flow both routes return c0 bit
    # for bit, also at rows where (c0 e^{gamma tau}) / e^{gamma tau} misses it
    k = _mode(basis0, 0.5)
    mk = (basis0.modes[k].n, basis0.modes[k].j)
    _, J05 = ou.multiplicity(0.5, basis0.spectrum)
    c0 = ev.build_initial(basis0, [(k, 0.7)])  # not dyadic
    traj = ev.integrate_backward(basis0, c0, tau_small, 0.005,
                                 ev.PerturbationSpec.none())
    rows = [12, 37]
    E = np.exp(np.outer(traj.tau, basis0.gammas))
    assert all(traj.coeffs[i, k] / E[i, k] != 0.7 for i in rows)
    lams = [math.sqrt(traj.t[i]) for i in rows]
    for i, lam in zip(rows, lams):
        tb = asym.beta_integral(traj, lam, J05, 0.5)
        assert traj.row_at_t(tb.lambda_used**2) == i and tb.beta[mk] == 0.7
    _, seq, limit = asym.beta_direct(traj, lams, J05, 0.5)[mk]
    assert list(seq) == [0.7, 0.7] and limit == 0.7


def test_beta_direct_sequences(deep_exp, basis0, J0_ground, tau_small):
    out = asym.beta_direct(deep_exp, [0.025, 0.05, 0.1, 0.2], J0_ground, 0.0)
    lams, seq, limit = out[(0, 1)]
    np.testing.assert_allclose(seq, np.exp(-0.1 * lams**2), atol=1e-9)
    assert abs(limit - 1.0) < 1e-6
    # unperturbed mixture: constant sequence on the minimal mode
    k0, k05 = _mode(basis0, 0.0), _mode(basis0, 0.5)
    c0 = ev.build_initial(basis0, [(k0, 0.7), (k05, 1.0)])
    traj = ev.integrate_backward(basis0, c0, tau_small, 0.005,
                                 ev.PerturbationSpec.none())
    outm = asym.beta_direct(traj, [0.1, 0.2, 0.4], J0_ground, 0.0)
    lams, seq, limit = outm[(0, 1)]
    np.testing.assert_allclose(seq, 0.7, rtol=1e-13)
    # above-minimal mode decays like lambda^{2(g' - g)}
    _, J05 = ou.multiplicity(0.5, basis0.spectrum)
    out05 = asym.beta_direct(traj, [0.1, 0.2, 0.4], J05, 0.0)
    lams2, seq2, _ = out05[(0, 1) if (0, 1) in out05 else list(out05)[0]]
    # here gamma used is 0.0 but the k05 coefficient scales as lambda^{+1}
    k05_seq = np.asarray([traj.coeffs[traj.row_at_t(l * l), k05] for l in lams2])
    np.testing.assert_allclose(k05_seq, np.asarray(lams2), rtol=1e-2)


def test_integral_vs_direct_agreement(deep_exp, J0_ground):
    tb = asym.beta_integral(deep_exp, 0.3, J0_ground, 0.0)
    direct = asym.beta_direct(deep_exp, None, J0_ground, 0.0)
    assert abs(tb.beta[(0, 1)] - direct[(0, 1)][2]) < 1e-6


def test_resolution_error_for_shallow_trace(basis0, J0_ground, tau_small):
    k = _mode(basis0, 0.0)
    pert = ev.PerturbationSpec.linear_constant(0.1)
    c0 = closed_form_reference(basis0, ("exp_linear", k, 0.1), 1.0)
    shallow = ev.integrate_backward(basis0, c0, tau_small, 0.005, pert)
    with pytest.raises(ResolutionError):
        asym.beta_integral(shallow, 0.3, J0_ground, 0.0)


def test_reconstruction_pure_mode(basis0, tau_small):
    k05 = _mode(basis0, 0.5)
    _, J05 = ou.multiplicity(0.5, basis0.spectrum)
    c0 = ev.build_initial(basis0, [(k05, 1.0)])
    traj = ev.integrate_backward(basis0, c0, tau_small, 0.005,
                                 ev.PerturbationSpec.none())
    tb = asym.beta_integral(traj, 0.3, J05, 0.5)
    for lam in (0.5, 0.25, 0.125):
        errH, errL = asym.reconstruction_error(traj, tb, lam, 0.25)
        assert errH < 1e-10 and errL < 1e-10


def test_reconstruction_mixture_rates(basis0, J0_ground, tau_small):
    k0, k05 = _mode(basis0, 0.0), _mode(basis0, 0.5)
    c0 = ev.build_initial(basis0, [(k0, 1.0), (k05, 1.0)])
    traj = ev.integrate_backward(basis0, c0, tau_small, 0.005,
                                 ev.PerturbationSpec.none())
    tb = asym.beta_integral(traj, 0.3, J0_ground, 0.0)
    errs = [asym.reconstruction_error(traj, tb, lam, 0.25)[1]
            for lam in (0.5, 0.25, 0.125)]
    # remainder dominated by the next mode: errL(lam/2)/errL(lam) ~ 2^{-2(g2-g1)}
    np.testing.assert_allclose(errs[1] / errs[0], 0.5, rtol=2e-3)
    np.testing.assert_allclose(errs[2] / errs[1], 0.5, rtol=2e-3)
    assert errs[0] > errs[1] > errs[2]  # monotone along the decreasing grid


def test_reconstruction_exp_linear_quadratic_rate(deep_exp, J0_ground):
    tb = asym.beta_integral(deep_exp, 0.3, J0_ground, 0.0)
    errs = [asym.reconstruction_error(deep_exp, tb, lam, 0.25)[1]
            for lam in (0.5, 0.25, 0.125)]
    # errL driven by |e^{-eps lam^2 t} - 1| = O(lam^2): halving quarters it
    np.testing.assert_allclose(errs[1] / errs[0], 0.25, rtol=0.05)
    np.testing.assert_allclose(errs[2] / errs[1], 0.25, rtol=0.05)


def test_beta_table_json(deep_exp, J0_ground):
    tb = asym.beta_integral(deep_exp, 0.2, J0_ground, 0.0)
    d = tb.to_jsonable()
    assert d["gamma"] == 0.0 and d["J0"] == [[0, 1]]
    assert "0,1" in d["beta"]
