"""Scalar special functions behind the explicit eigenbasis.

The radial factor of each singular self-similar eigenfunction is the
terminating Kummer series M(-n, N/2 - alpha, s) = n! / (a + 1)_n L_n^{(a)}(s),
a generalized Laguerre polynomial of exponent a = N/2 - 1 - alpha, which
:func:`laguerre_table` evaluates orthonormally by its recurrence; together
with it come the exponent map

    alpha(mu) = (N-2)/2 - sqrt(((N-2)/2)^2 + mu)

and the eigenvalue ladder gamma = m - alpha/2.  The inequality sweeps take
the non-terminating 1F1(alpha; c; -z) of :func:`hyp1f1_minus`: alpha = 1
for the inverse-square moment of a bump, alpha = 1 + l/2 for its degree-l
anisotropic part.  Everything here is pure and stateless.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, PositivityError


def alpha_from_mu(mu: float, N: int) -> float:
    """Singularity exponent alpha = (N-2)/2 - sqrt(((N-2)/2)^2 + mu).

    Requires the positivity condition mu > -(N-2)^2/4 (strict); the
    exact boundary is rejected as outside the admissible range.
    """
    if N < 3:
        raise ValueError("dimension must be >= 3")
    half = (N - 2) / 2.0
    disc = half * half + mu
    if disc <= 0.0:
        raise PositivityError(
            f"mu={mu} violates mu > -(N-2)^2/4 = {-half * half} (N={N})"
        )
    return half - math.sqrt(disc)


def gamma_mk(m: int, alpha_k: float) -> float:
    """Eigenvalue gamma = m - alpha_k/2 of the radial ladder."""
    if m < 0:
        raise ValueError("radial index must be non-negative")
    return m - alpha_k / 2.0


def laguerre_table(a: float, n_max: int, s):
    """(l, D): the orthonormal Laguerre polynomials
    l_n = sqrt(n! / Gamma(n + a + 1)) L_n^{(a)} for n = 0..n_max at the
    points s, rows in n, and D = s dl_n/ds.

    Built by the three-term recurrence
    sqrt((n+1)(n+a+1)) l_{n+1} = (2n + a + 1 - s) l_n - sqrt(n(n+a)) l_{n-1}
    and s L_n' = n L_n - (n + a) L_{n-1} (Abramowitz & Stegun, ch. 22),
    with no cancelling power sum.  l_n(0) > 0, and
    int_0^inf s^a e^-s l_m l_n ds = [m = n] for a > -1.
    """
    s = np.asarray(s, dtype=float)
    table, D = np.empty((n_max + 1,) + s.shape), np.empty((n_max + 1,) + s.shape)
    table[0], prev = 1.0 / math.sqrt(math.gamma(a + 1.0)), np.zeros(s.shape)
    for n in range(n_max + 1):
        b = math.sqrt(n * (n + a))
        D[n] = n * table[n] - b * prev
        if n < n_max:
            table[n + 1] = (((2 * n + a + 1.0) - s) * table[n] - b * prev) \
                / math.sqrt((n + 1) * (n + a + 1.0))
        prev = table[n]
    return table, D


def hyp1f1_minus(alpha: float, c: float, z):
    """Kummer's 1F1(alpha; c; -z) for 0 < alpha < c and 0 <= z < 700, elementwise.

    Kummer's transformation (Abramowitz & Stegun 13.1.27) turns it into
    e^{-z} sum_k (c - alpha)_k / (c)_k z^k / k!, a Poisson(z) mean of
    (c - alpha)_k / (c)_k: positive terms, so no cancellation.  Each term is
    summed as (c - alpha) / (c - alpha + k) times q_k = (c - alpha + 1)_k / (c)_k,
    so at alpha = 1, where q_k = 1, it is the series of 1 / (c - 1 + k).
    Past k = 2z each term is at most half the one before, and the sum stops
    once every term is below 2^-56 of its sum.  e^{-z} underflows for
    z > 745.  A z outside [0, 700), NaN included, raises AccuracyError.
    """
    if not 0.0 < alpha < c:
        raise ValueError(f"need 0 < alpha < c, got alpha = {alpha}, c = {c}")
    z = np.asarray(z, dtype=float)
    ok = (z >= 0.0) & (z < 700.0)  # False on NaN, where the loop would never end
    if not np.all(ok):
        raise AccuracyError(f"1F1(alpha; c; -z) is summed for 0 <= z < 700 only, "
                            f"got z = {z[~ok].flat[0]}")
    d = c - alpha
    p = np.exp(-z)  # the Poisson(z) probability of k
    q = 1.0
    total = p / d
    k, z_max = 0, float(np.max(z, initial=0.0))
    while True:
        k += 1
        p = p * z / k
        q = q * (d + k) / (d + k + (alpha - 1.0))  # exactly 1 at alpha = 1
        term = p * q / (d + k)
        total = total + term
        if k >= 2.0 * z_max and np.all(term <= 2.0**-56 * total):
            return d * total
