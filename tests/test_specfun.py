import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hyp1f1

from hardyheat import specfun as sf
from kummer import kummer_m, pochhammer
from mode_oracle import derivative
from hardyheat.errors import AccuracyError, PositivityError, QuadratureError


def test_pochhammer_empty_product():
    assert pochhammer(7.3, 0) == 1.0


def test_pochhammer_zero_factor():
    assert pochhammer(-2.0, 3) == 0.0


def test_pochhammer_direct_product():
    # oracle: 3 * 4
    assert pochhammer(3.0, 2) == 12.0


def test_pochhammer_recurrence_randomized():
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = rng.uniform(-5.0, 5.0)
        i = int(rng.integers(0, 12))
        np.testing.assert_allclose(
            pochhammer(s, i + 1), pochhammer(s, i) * (s + i), rtol=1e-13
        )


def test_kummer_at_zero():
    assert kummer_m(3.7, 1.5, 0.0) == 1.0


def test_kummer_c_zero():
    assert kummer_m(0.0, 2.5, 7.0) == 1.0


def test_kummer_two_term_polynomial():
    # 1 + (-1/1.5)*2 = -1/3
    np.testing.assert_allclose(kummer_m(-1.0, 1.5, 2.0), -1.0 / 3.0, rtol=1e-14)


def test_kummer_rejects_nonpositive_integer_b():
    with pytest.raises(ValueError):
        kummer_m(0.5, -2.0, 1.0)
    with pytest.raises(ValueError):
        kummer_m(0.5, 0.0, 1.0)


def test_kummer_nonconvergence_diagnostic():
    with pytest.raises(QuadratureError):
        kummer_m(0.5, 1.5, 5.0e4)


def test_kummer_against_scipy():
    from scipy.special import hyp1f1

    rng = np.random.default_rng(5)
    for _ in range(50):
        c = rng.uniform(-3.0, 3.0)
        b = rng.uniform(0.3, 4.0)
        t = rng.uniform(0.0, 20.0)
        np.testing.assert_allclose(kummer_m(c, b, t), hyp1f1(c, b, t),
                                   rtol=1e-10, atol=1e-12)


def test_alpha_examples():
    assert sf.alpha_from_mu(0.0, 3) == 0.0
    assert sf.alpha_from_mu(2.0, 3) == -1.0


def test_alpha_near_boundary_accepted():
    a = sf.alpha_from_mu(-0.25 + 1e-12, 3)
    np.testing.assert_allclose(a, 0.5 - 1e-6, atol=2e-7)


def test_alpha_boundary_rejected():
    with pytest.raises(PositivityError):
        sf.alpha_from_mu(-0.25, 3)
    with pytest.raises(PositivityError):
        sf.alpha_from_mu(-3.0, 3)


def test_alpha_strictly_decreasing():
    rng = np.random.default_rng(3)
    for N in (3, 4, 5):
        mus = np.sort(rng.uniform(-((N - 2) ** 2) / 4 + 1e-6, 50.0, size=60))
        vals = [sf.alpha_from_mu(m, N) for m in mus]
        assert np.all(np.diff(vals) < 0)


def test_gamma_mk():
    assert sf.gamma_mk(0, 0.0) == 0.0
    assert sf.gamma_mk(1, -1.0) == 1.5  # half-integer ladder at a = 0
    np.testing.assert_allclose(sf.gamma_mk(2, 0.2), 1.9, rtol=1e-15)


def test_p_poly_degree_zero():
    p = sf.p_poly(0, 0.37, 3)
    assert p.coeffs == (1.0,)


def test_p_poly_degree_one():
    np.testing.assert_allclose(sf.p_poly(1, -1.0, 3).coeffs, (1.0, -0.4), rtol=1e-15)
    np.testing.assert_allclose(sf.p_poly(1, 0.0, 3).coeffs, (1.0, -2.0 / 3.0),
                               rtol=1e-15)


def test_p_poly_value_at_zero_and_degree():
    p = sf.p_poly(5, -0.7, 4)
    assert p.degree == 5
    assert p(0.0) == 1.0


def test_p_poly_sign_alternation():
    rng = np.random.default_rng(7)
    for _ in range(40):
        N = int(rng.integers(3, 6))
        alpha = rng.uniform(-4.0, (N - 2) / 2.0 - 1e-3)
        n = int(rng.integers(1, 9))
        coeffs = sf.p_poly(n, alpha, N).coeffs
        signs = np.sign(coeffs)
        assert np.all(signs == [(-1.0) ** i for i in range(n + 1)])


def test_kummer_matches_p_poly():
    rng = np.random.default_rng(13)
    for m in range(7):
        for _ in range(6):
            N = int(rng.integers(3, 6))
            alpha = rng.uniform(-3.0, (N - 2) / 2.0 - 1e-3)
            t = rng.uniform(0.0, 10.0)
            b = N / 2.0 - alpha
            poly = sf.p_poly(m, alpha, N)
            np.testing.assert_allclose(
                kummer_m(-float(m), b, t), poly(t), rtol=1e-12, atol=1e-14
            )


@st.composite
def _p_poly_args(draw):
    N = draw(st.sampled_from((3, 4, 5)))
    # positivity mu > -(N-2)^2/4 is alpha < (N-2)/2
    alpha = draw(st.floats(min_value=-8.0, max_value=(N - 2) / 2.0, exclude_max=True))
    return draw(st.integers(0, 12)), alpha, N, draw(st.floats(min_value=0.0, max_value=20.0))


@settings(deadline=None, max_examples=300)
@given(args=_p_poly_args())
def test_p_poly_is_terminating_kummer_property(args):
    n, alpha, N, s = args
    p = sf.p_poly(n, alpha, N)
    b = N / 2.0 - alpha
    # the terms alternate in sign, so the error scale is the largest term
    scale = max(abs(c) * s**i for i, c in enumerate(p.coeffs))
    assert abs(p(s) - kummer_m(-float(n), b, s)) <= 1e-13 * scale
    assert abs(p(s) - hyp1f1(-n, b, s)) <= 1e-13 * scale


def test_polynomial_horner_and_derivative():
    p = sf.Polynomial((2.0, -1.0, 3.0))
    t = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(p(t), 2.0 - t + 3.0 * t * t)
    np.testing.assert_allclose(derivative(p)(t), -1.0 + 6.0 * t)
    assert math.isfinite(p(1e8))


@pytest.mark.parametrize("c", [1.5, 2.0, 2.5, 5.0])
def test_hyp1f1_one_matches_scipy(c):
    # the alpha = 1 case, 1F1(1; c; -z), against scipy over the z the bump
    # sweeps reach (below b^2/w^2 = 16); measured within 5.6e-15 at c = 1.5,
    # where scipy itself is 4.1e-15 off a 40-digit mpmath value
    z = np.linspace(0.0, 15.0, 1501)
    np.testing.assert_allclose(sf.hyp1f1_minus(1.0, c, z), hyp1f1(1.0, c, -z),
                               rtol=1e-14, atol=0.0)
    assert sf.hyp1f1_minus(1.0, c, 0.0) == 1.0


# the anisotropic sweep's (1 + l/2, l + 3/2) for l = 0..4, then other alpha in (0, c)
@pytest.mark.parametrize("alpha, c", [(1.0, 1.5), (1.5, 2.5), (2.0, 3.5), (2.5, 4.5),
                                      (3.0, 5.5), (0.5, 1.5), (0.25, 0.5), (3.5, 4.0)])
def test_hyp1f1_minus_matches_scipy(alpha, c):
    # against scipy where the sweeps reach (z < 16), and against 30-digit
    # mpmath over the whole domain [0, 700), where scipy is itself up to
    # 1.7e-14 off mpmath near z = 20-40; measured within 4.3e-15 of scipy
    # and 7.5e-15 of mpmath
    import mpmath

    z = np.linspace(0.0, 16.0, 321)
    np.testing.assert_allclose(sf.hyp1f1_minus(alpha, c, z), hyp1f1(alpha, c, -z),
                               rtol=1e-14, atol=0.0)
    z = np.concatenate([np.linspace(0.0, 40.0, 81), np.linspace(40.0, 699.9, 67)[1:]])
    with mpmath.workdps(30):
        want = [float(mpmath.hyp1f1(alpha, c, -x)) for x in z]
    np.testing.assert_allclose(sf.hyp1f1_minus(alpha, c, z), want, rtol=1e-14, atol=0.0)
    assert sf.hyp1f1_minus(alpha, c, 0.0) == 1.0


@pytest.mark.parametrize("alpha, c", [(0.0, 1.5), (1.5, 1.5), (2.0, 1.5), (-1.0, 2.0)])
def test_hyp1f1_minus_rejects_alpha_outside_zero_c(alpha, c):
    with pytest.raises(ValueError, match="0 < alpha < c"):
        sf.hyp1f1_minus(alpha, c, 1.0)


@pytest.mark.parametrize("z", (math.nan, math.inf, -1.0, 700.0, [1.0, math.nan]))
def test_hyp1f1_one_rejects_z_outside_its_range(z):
    # a NaN z looped forever (k >= 2 * nan is never true): bound the call
    def stuck(signum, frame):
        raise TimeoutError("hyp1f1_minus did not return")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(5)
    try:
        with pytest.raises(AccuracyError, match="0 <= z < 700"):
            sf.hyp1f1_minus(1.0, 1.5, z)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
