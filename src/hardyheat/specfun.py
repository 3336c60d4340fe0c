"""Scalar special functions behind the explicit eigenbasis.

The singular self-similar eigenfunctions are built from the terminating
Kummer confluent hypergeometric series M(-n, N/2 - alpha, t), that is the
polynomials

    P(t) = sum_{i=0}^{n} (-n)_i / ((N/2 - alpha)_i) * t^i / i!,

together with the exponent map

    alpha(mu) = (N-2)/2 - sqrt(((N-2)/2)^2 + mu)

and the eigenvalue ladder gamma = m - alpha/2.  The inequality sweeps take
the non-terminating 1F1(alpha; c; -z) of :func:`hyp1f1_minus`: alpha = 1
for the inverse-square moment of a bump, alpha = 1 + l/2 for its degree-l
anisotropic part.  Everything here is pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, PositivityError


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial; coeffs[i] multiplies t**i."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("empty coefficient list")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError("non-finite coefficient")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t):
        """Horner evaluation; accepts scalars or numpy arrays."""
        t = np.asarray(t, dtype=float)
        acc = np.full(t.shape, self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * t + c
        return acc if acc.shape else float(acc)


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


def p_poly(n: int, alpha_j: float, N: int) -> Polynomial:
    """Degree-n polynomial with coefficients (-n)_i / ((N/2-alpha_j)_i i!).

    This is the terminating Kummer series M(-n, N/2-alpha_j, t); P(0)=1.
    Requires N/2 - alpha_j > 0 (automatic when alpha_j < (N-2)/2).
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    b = N / 2.0 - alpha_j
    if b <= 0.0:
        raise ValueError(f"need N/2 - alpha_j > 0, got {b}")
    coeffs = []
    num = 1.0  # (-n)_i
    den = 1.0  # (b)_i * i!
    for i in range(n + 1):
        coeffs.append(num / den)
        num *= (-n) + i
        den *= (b + i) * (i + 1)
    return Polynomial(tuple(coeffs))


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
