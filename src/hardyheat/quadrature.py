"""Gaussian-weight cubature on R^N against the heat kernel.

All norms in this project are taken against G(x,t) = t^{-N/2} exp(-|x|^2/4t).
The radial direction uses generalized Gauss-Laguerre rules in the variable
s = r^2/4, exploiting

    int_0^inf r^{N-1} e^{-r^2/4} f(r) dr
        = 2^{N-1} int_0^inf s^{N/2-1} e^{-s} f(2 sqrt(s)) ds,

so a rule with exponent a_GL = N/2 - 1 - beta/2 is *exact* for integrands
r^{-beta} * (polynomial in r^2/4), which is what basis-pair inner products
look like.  The angular factor chains :func:`polar_rule` (Gauss-Legendre on
S^2, Gauss-Gegenbauer on S^{N-1}) down to a trapezoid rule in azimuth, in a
:class:`ProductRule`.  Time enters only through the node scaling
x = sqrt(t) * 2 sqrt(s) * theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import QuadratureError


def sphere_area(N: int) -> float:
    """Surface measure of S^{N-1}: 2 pi^{N/2} / Gamma(N/2)."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


@dataclass(frozen=True)
class RadialRule:
    """Generalized Gauss-Laguerre rule in the substituted variable s = r^2/4.

    Sum(weights * g(nodes)) approximates int_0^inf s^a_gl e^-s g(s) ds (a_gl of
    :func:`laguerre_rule`), exactly for polynomial g of degree <= 2*count - 1.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        return len(self.nodes)

    @property
    def nodes_r(self) -> np.ndarray:
        """Nodes mapped back to the radial variable r = 2 sqrt(s)."""
        return 2.0 * np.sqrt(self.nodes)


def _recurrence(x, diag, off):
    """(p_n, p_n', sum_{k<n} p_k^2, scale) at x for the orthonormal
    polynomials of the Jacobi matrix (diag, off), p_n taken with a positive
    leading coefficient.  Each step divides by a power of two per node
    (exact), so the far tail neither overflows nor loses bits: the true
    values are p_n 2^scale, p_n' 2^scale and the sum times 4^scale.
    """
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    total = np.zeros_like(x)
    scale = np.zeros(x.shape, dtype=int)
    b_prev = 0.0
    for k, a_k in enumerate(diag):
        total += p * p
        b_next = off[k] if k < len(off) else 1.0
        p_prev, p, dp_prev, dp = (
            p, ((x - a_k) * p - b_prev * p_prev) / b_next,
            dp, (p + (x - a_k) * dp - b_prev * dp_prev) / b_next,
        )
        b_prev = b_next
        _, e = np.frexp(np.abs(p) + np.abs(p_prev))
        p_prev, p, dp_prev, dp = (np.ldexp(v, -e) for v in (p_prev, p, dp_prev, dp))
        total = np.ldexp(total, -2 * e)
        scale += e
    return p, dp, total, scale


def _gauss_rule(diag, off, mu0: float, symmetric: bool):
    """Golub-Welsch Gauss rule (nodes ascending, weights summing to mu0) of
    the Jacobi matrix with diagonal ``diag`` and off-diagonal ``off``.

    Nodes are the eigenvalues of the Jacobi matrix, polished by one Newton
    step on p_n.  Weights are mu0 v_0^2 for the eigenvector
    v = (p_0, ..., p_{n-1}) / norm, that is 1 / sum_{k<n} p_k^2 at the
    polished nodes, normalised in base 2: far-tail weights underflow to 0
    exactly as mu0 v_0^2 would.  ``symmetric`` averages the rule with its
    mirror image (an even weight on [-1, 1]).
    """
    diag, off = np.asarray(diag, dtype=float), np.asarray(off, dtype=float)
    try:
        x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise QuadratureError(f"Jacobi-matrix eigensolve failed: {exc}") from exc
    p, dp, _, _ = _recurrence(x, diag, off)
    x = x - p / dp
    _, _, total, scale = _recurrence(x, diag, off)
    m, e = np.frexp(1.0 / total)
    e = e - 2 * scale
    e -= e.max()
    m_sum, e_sum = np.frexp(np.sum(np.ldexp(m, e)))
    w = np.ldexp(m / m_sum, e - e_sum)
    if symmetric:
        x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    return x, mu0 * w


@lru_cache(maxsize=512)
def _laguerre_cached(a_gl: float, n_r: int):
    # the generalized Laguerre recurrence: diagonal 2i + a + 1,
    # off-diagonal sqrt(i(i + a))
    i = np.arange(1, n_r)
    mu0 = math.gamma(a_gl + 1.0)
    nodes, weights = _gauss_rule(2.0 * np.arange(n_r) + a_gl + 1.0,
                                 np.sqrt(i * (i + a_gl)), mu0, symmetric=False)
    # far-tail weights below the double floor contribute nothing; drop them
    keep = weights > 0.0
    nodes, weights = nodes[keep], weights[keep]
    if len(nodes) == 0:
        raise QuadratureError("all Gauss-Laguerre weights underflowed")
    if np.any(np.diff(nodes) <= 0.0):
        raise QuadratureError("Gauss-Laguerre nodes not strictly increasing")
    # the weights sum to Gamma(a + 1) by construction; the first moment
    # Gamma(a + 2) checks nodes and weights together
    first = math.gamma(a_gl + 2.0)
    if abs(weights @ nodes - first) > 1e-12 * first:
        raise QuadratureError(
            f"Gauss-Laguerre first moment off: {weights @ nodes} vs Gamma={first}"
        )
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def laguerre_rule(a_gl: float, n_r: int) -> RadialRule:
    """Generalized Gauss-Laguerre rule for weight s^a_gl e^{-s} on (0, inf).

    Parameters
    ----------
    a_gl : float
        Weight exponent, must be > -1.
    n_r : int
        Number of nodes; the rule is exact for polynomial degree 2*n_r - 1.
    """
    if a_gl <= -1.0:
        raise QuadratureError(f"Gauss-Laguerre exponent must be > -1, got {a_gl}")
    if n_r < 1:
        raise QuadratureError("need at least one radial node")
    nodes, weights = _laguerre_cached(float(a_gl), int(n_r))
    return RadialRule(nodes, weights)


def polar_rule(N: int, n: int):
    """(nodes, weights) of the n-point Gauss rule in c = cos(polar angle) on
    S^{N-1}, for the weight (1 - c^2)^((N-3)/2) of its surface measure."""
    # Gegenbauer recurrence with alpha = (N - 2)/2 (Legendre at N = 3); the
    # weight's mass is 2^{2 alpha} B(alpha + 1/2, alpha + 1/2)
    alpha = (N - 2) / 2.0
    k = np.arange(1, n)
    off = np.sqrt(k * (k + 2.0 * alpha - 1.0) / (4.0 * (k + alpha) * (k + alpha - 1.0)))
    mu0 = 2.0 ** (N - 2) * math.gamma((N - 1) / 2.0) ** 2 / math.gamma(N - 1.0)
    return _gauss_rule(np.zeros(n), off, mu0, symmetric=True)


def _angular_nodes(N: int, n_polar: int, n_az: int):
    """Node directions and weights on S^{N-1}; weights sum to its area.

    N = 2 is the trapezoid rule in azimuth; above, each :func:`polar_rule`
    node c (outermost) scales the S^{N-2} rule by sqrt(1 - c^2).
    """
    if N == 2:
        phi = 2.0 * math.pi * np.arange(n_az) / n_az
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        w = np.full(n_az, 2.0 * math.pi / n_az)
        return dirs, w
    c, wc = polar_rule(N, n_polar)
    sub_dirs, sub_w = _angular_nodes(N - 1, n_polar, n_az)
    s = np.sqrt(1.0 - c**2)
    dirs = np.column_stack([np.repeat(c, len(sub_w)),
                            (s[:, None, None] * sub_dirs).reshape(-1, N - 1)])
    return dirs, (wc[:, None] * sub_w).ravel()


@dataclass(frozen=True)
class ProductRule:
    """Radial x angular cubature for integrals against G(x, t).

    ``points`` are the t = 1 node coordinates x = 2 sqrt(s) theta; at time t
    the nodes are sqrt(t) * points (the t_scale convention).  ``weights``
    already include the 2^{N-1} radial Jacobian, so

        int f(x) G(x,t) dx  ~=  sum(weights * f(sqrt(t) * points)).

    The weights factor into radial and angular weights (up to rounding),
    radial node i outermost.
    """

    N: int
    radial: RadialRule
    angular_dirs: np.ndarray
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def _check_unit_mass(rule: ProductRule) -> None:
    total = rule.weights.sum()
    exact = (2.0 * math.sqrt(math.pi)) ** rule.N
    if abs(total - exact) > 1e-12 * exact:
        raise QuadratureError(
            f"product rule mass check failed: {total} vs (2 sqrt(pi))^N = {exact}"
        )


def _radial_x_angular(N: int, n_r: int, dirs, aw) -> ProductRule:
    """The Gauss-Laguerre rule of exponent N/2 - 1 in s = r^2/4, which
    absorbs the surface Jacobian's s^{N/2-1}, times the angular rule
    (dirs, aw)."""
    radial = laguerre_rule(N / 2.0 - 1.0, n_r)
    n_eff = radial.count  # underflowed tail nodes may have been dropped
    n_ang = len(aw)
    points = np.repeat(radial.nodes_r, n_ang)[:, None] * np.tile(dirs, (n_eff, 1))
    weights = 2.0 ** (N - 1) * np.repeat(radial.weights, n_ang) * np.tile(aw, n_eff)
    points.setflags(write=False)
    weights.setflags(write=False)
    rule = ProductRule(N, radial, dirs, points, weights)
    _check_unit_mass(rule)
    return rule


@lru_cache(maxsize=64)
def product_rule(N: int, n_r: int, n_polar: int, n_az: int) -> ProductRule:
    """Build the full cubature on R^N for the heat-kernel weight.

    The radial exponent N/2 - 1 matches the plain surface Jacobian;
    matched-exponent rules for singular basis pairs are built separately
    via :func:`laguerre_rule`.
    """
    if N < 2:
        raise QuadratureError("dimension must be >= 2")
    return _radial_x_angular(N, n_r, *_angular_nodes(N, n_polar, n_az))

