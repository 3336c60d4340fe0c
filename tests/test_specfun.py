import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hyp1f1

from hardyheat import specfun as sf
from hardyheat.quadrature import laguerre_rule
from kummer import closed_form_norm2, kummer_m, pochhammer
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


# the radial block of configs/anisotropic.ini: a = N/2 - 1 - alpha_1 with
# alpha_1 = 9.385e-4, a fractional exponent
A_ANISO = 0.4990614973259299


def _l_at_zero(n, a):
    """l_n(0) = sqrt(Gamma(n + a + 1) / n!) / Gamma(a + 1)."""
    return math.exp(0.5 * (math.lgamma(n + a + 1.0) - math.lgamma(n + 1.0))
                    - math.lgamma(a + 1.0))


def _envelope(n_max, a, s):
    """l_n(0) e^{s/2}, which bounds |l_n(s)| for a >= 0 (Szego 7.21.3); shape
    (n_max + 1, len(s))."""
    return np.array([_l_at_zero(n, a) for n in range(n_max + 1)])[:, None] * np.exp(s / 2.0)


def _mp_points(a):
    # the origin, two small points and the nodes of a 34-point matched rule,
    # which reach s = 120
    return np.concatenate([[0.0, 1e-3, 0.3], laguerre_rule(a, 34).nodes])


def test_laguerre_table_degree_zero():
    s = np.array([0.0, 0.7, 30.0])
    table, D = sf.laguerre_table(0.37, 0, s)
    assert table.shape == D.shape == (1, 3)
    np.testing.assert_allclose(table[0], 1.0 / math.sqrt(math.gamma(1.37)), rtol=1e-15)
    assert np.all(D == 0.0)


def test_laguerre_table_degree_one():
    # l_1 = (1 + a - s) / sqrt(Gamma(a + 2)) and s l_1' = -s / sqrt(Gamma(a + 2))
    s = np.array([0.0, 0.5, 2.5, 9.0])
    for a in (0.5, 1.5, A_ANISO):
        table, D = sf.laguerre_table(a, 1, s)
        c = 1.0 / math.sqrt(math.gamma(a + 2.0))
        np.testing.assert_allclose(table[1], (1.0 + a - s) * c, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(D[1], -s * c, rtol=1e-15, atol=1e-15)


def test_laguerre_table_value_at_zero_and_degree():
    table, D = sf.laguerre_table(2.3, 5, np.zeros(2))
    assert table.shape == (6, 2)
    np.testing.assert_allclose(table[:, 0], [_l_at_zero(n, 2.3) for n in range(6)],
                               rtol=1e-14)
    # s l' vanishes at s = 0
    np.testing.assert_allclose(D, 0.0, rtol=0.0, atol=1e-14)


def test_laguerre_table_sign_pattern():
    # positive at s = 0, as M(-n, a + 1, 0) = 1, and (-1)^n past the largest
    # zero (below 4n + 2a + 3), where the leading term s^n rules
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = rng.uniform(0.0, 8.0)
        n = int(rng.integers(1, 9))
        table, _ = sf.laguerre_table(a, n, np.array([0.0, 5.0 * n + 2.0 * a + 5.0]))
        assert np.all(table[:, 0] > 0.0)
        assert np.all(np.sign(table[:, 1]) == [(-1.0) ** k for k in range(n + 1)])


def test_laguerre_table_against_mpmath():
    # 30-digit mpmath laguerre, orthonormalized, through degree 32; measured
    # within 2.3e-14 of the envelope l_n(0) e^{s/2}
    import mpmath

    for a in (0.5, 1.5, A_ANISO):
        s = _mp_points(a)
        table, _ = sf.laguerre_table(a, 32, s)
        with mpmath.workdps(30):
            want = [[float(mpmath.sqrt(mpmath.factorial(n) / mpmath.gamma(n + a + 1))
                           * mpmath.laguerre(n, a, x)) for x in s] for n in range(33)]
        assert np.max(np.abs(table - want) / _envelope(32, a, s)) <= 1e-13, a


def test_laguerre_table_derivative_against_mpmath():
    # D = s l' against mpmath's numerical derivative at 30 digits through
    # degree 32, relative to (2n + a + 1) l_n(0) e^{s/2}, which bounds
    # n l_n - sqrt(n (n + a)) l_{n-1}; measured within 1.2e-15
    import mpmath

    for a in (0.5, 1.5, A_ANISO):
        s = _mp_points(a)
        _, D = sf.laguerre_table(a, 32, s)
        with mpmath.workdps(30):
            want = [[float(x * mpmath.sqrt(mpmath.factorial(n) / mpmath.gamma(n + a + 1))
                           * mpmath.diff(lambda y: mpmath.laguerre(n, a, y), x))
                     for x in s] for n in range(33)]
        scale = (2.0 * np.arange(33) + a + 1.0)[:, None] * _envelope(32, a, s)
        assert np.max(np.abs(D - want) / scale) <= 1e-13, a


def _kummer_norm(n, alpha, N):
    """The L2(s^{b-1} e^-s) norm of M(-n, b, s), b = N/2 - alpha: closed_form_norm2
    without its 2^{N-1-2 alpha} from the change of variable s = r^2/4."""
    return math.sqrt(closed_form_norm2(n, alpha, N) / 2.0 ** (N - 1 - 2 * alpha))


def _kummer_laguerre(n, alpha, N, s):
    """Kummer's series M(-n, b, s) over its closed-form norm: the oracle of
    l_n of exponent b - 1."""
    return kummer_m(-float(n), N / 2.0 - alpha, s) / _kummer_norm(n, alpha, N)


def test_kummer_matches_laguerre_table():
    rng = np.random.default_rng(13)
    for m in range(7):
        for _ in range(6):
            N = int(rng.integers(3, 6))
            alpha = rng.uniform(-3.0, (N - 2) / 2.0 - 1e-3)
            t = rng.uniform(0.0, 10.0)
            table, _ = sf.laguerre_table(N / 2.0 - 1.0 - alpha, m, t)
            np.testing.assert_allclose(
                _kummer_laguerre(m, alpha, N, t), table[m], rtol=1e-12, atol=1e-14
            )


@st.composite
def _laguerre_args(draw):
    N = draw(st.sampled_from((3, 4, 5)))
    # positivity mu > -(N-2)^2/4 is alpha < (N-2)/2
    alpha = draw(st.floats(min_value=-8.0, max_value=(N - 2) / 2.0, exclude_max=True))
    return draw(st.integers(0, 12)), alpha, N, draw(st.floats(min_value=0.0, max_value=20.0))


@settings(deadline=None, max_examples=300)
@given(args=_laguerre_args())
def test_laguerre_table_is_terminating_kummer_property(args):
    n, alpha, N, s = args
    b = N / 2.0 - alpha
    table, _ = sf.laguerre_table(b - 1.0, n, s)
    norm = _kummer_norm(n, alpha, N)
    # Kummer's terms alternate in sign, so the oracle's error scale is its
    # largest term, over the norm
    scale = max(abs(pochhammer(-n, i) / (pochhammer(b, i) * math.factorial(i))) * s**i
                for i in range(n + 1)) / norm
    assert abs(table[n] - _kummer_laguerre(n, alpha, N, s)) <= 1e-13 * scale
    assert abs(table[n] - hyp1f1(-n, b, s) / norm) <= 1e-13 * scale


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
