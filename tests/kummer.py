"""Kummer's series, Pochhammer symbols and the closed-form mode norm: test
oracles for ``specfun.laguerre_table``.

The package evaluates each radial factor as the orthonormal Laguerre
polynomial l_n of exponent a = N/2 - 1 - alpha by its three-term
recurrence.  These reference implementations sum the Kummer series
M(-n, a + 1, s) directly and divide by its norm from Laguerre
orthogonality (:func:`closed_form_norm2`), so the tests can compare the two.
"""

from __future__ import annotations

import math

from hardyheat.errors import QuadratureError

# Kummer series controls: the tests only evaluate |t| <= O(100), where the
# series is benign.  Accuracy degrades for large t (unused).
KUMMER_RTOL = 1e-15
KUMMER_MAX_TERMS = 10_000
# c within this distance of a non-positive integer is treated as the
# exact polynomial case (the eigenvalue condition makes -c integer
# exactly in all in-scope uses).
NONPOS_INT_TOL = 1e-12


def pochhammer(s: float, i: int) -> float:
    """Rising factorial (s)_i = prod_{j=0}^{i-1} (s + j), with (s)_0 = 1."""
    if i < 0:
        raise ValueError("pochhammer index must be non-negative")
    out = 1.0
    for j in range(i):
        out *= s + j
    return out


def _near_nonpositive_integer(c: float) -> int | None:
    """Index -c if c is within NONPOS_INT_TOL of a non-positive integer."""
    if c > NONPOS_INT_TOL:
        return None
    n = round(-c)
    if abs(c + n) <= NONPOS_INT_TOL:
        return int(n)
    return None


def kummer_m(c: float, b: float, t: float) -> float:
    """Kummer series M(c, b, t) = sum_n (c)_n/(b)_n * t^n/n!.

    Terminates exactly after -c terms when c is a non-positive integer
    (within NONPOS_INT_TOL); otherwise sums until the term drops below
    KUMMER_RTOL relative to the partial sum, with a hard cap.
    """
    if _near_nonpositive_integer(b) is not None:
        raise ValueError(f"b={b} is a non-positive integer; series undefined")
    n_exact = _near_nonpositive_integer(c)

    total = 1.0
    term = 1.0
    n = 0
    while True:
        if n_exact is not None and n >= n_exact:
            return total
        if n >= KUMMER_MAX_TERMS:
            raise QuadratureError(
                f"Kummer series did not converge within {KUMMER_MAX_TERMS} terms "
                f"(c={c}, b={b}, t={t}); last term magnitude {abs(term):.3e}"
            )
        term *= (c + n) / (b + n) * t / (n + 1)
        total += term
        n += 1
        if n_exact is None and abs(term) < KUMMER_RTOL * abs(total):
            return total


def closed_form_norm2(n: int, alpha: float, N: int) -> float:
    """int r^{N-1-2 alpha} M(-n, b, r^2/4)^2 e^{-r^2/4} dr for b = N/2 - alpha, the
    squared norm of the mode r^{-alpha} M(-n, b, r^2/4) psi: by Laguerre
    orthogonality 2^{N-1-2 alpha} n! Gamma(b)^2 / Gamma(n + b)."""
    b = N / 2.0 - alpha
    return 2.0 ** (N - 1 - 2 * alpha) * math.exp(
        math.lgamma(n + 1) + 2 * math.lgamma(b) - math.lgamma(n + b))
