"""Explicit eigenbasis of L = -Lap + x/2 . grad - a(x/|x|)/|x|^2.

Each mode is V_{n,j}(x) = |x|^{-alpha_j} P_{j,n}(|x|^2/4) psi_j(x/|x|) with
eigenvalue gamma = n - alpha_j/2.  All mode-pair integrals reduce, via the
L^2(S^{N-1}) orthonormality of the psi_j, to radial integrals of the form

    int_0^inf r^{-beta} (poly in r^2/4) e^{-r^2/4} r^{N-1} dr
        = 2^{N-1-beta} int_0^inf s^{N/2-1-beta/2} (poly) e^-s ds,

which a generalized Gauss-Laguerre rule with matched exponent evaluates
exactly.  The weak eigen-equation B(V_p, V_q) = gamma_q <V_p, V_q> is the
certification target: the bilinear form separates as

    B(V_A, V_B) = delta_{j_A j_B} [ int f_A' f_B' r^{N-1} e^{-r^2/4} dr
                                    + mu_j int f_A f_B r^{N-3} e^{-r^2/4} dr ].
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import angular as ang
from .errors import (
    ConfigurationError,
    DegeneracyAmbiguityError,
    PositivityError,
    QuadratureError,
    SingularNodeError,
    TruncationError,
)
from .quadrature import ProductRule, laguerre_rule, product_rule
from .specfun import Polynomial, alpha_from_mu, gamma_mk, p_poly

# eq-of-integers detection for the multiplicity count: inside INT_TOL the
# value is an integer, inside the (INT_TOL, INT_AMBIG) band it is refused.
INT_TOL = 1e-9
INT_AMBIG = 1e-6

GRAM_TOL = 1e-8
BILINEAR_TOL = 1e-6


@dataclass(frozen=True)
class OUMode:
    """One eigenfunction V_{n,j} with its normalization constant."""

    j: int                # angular index, 1-based
    n: int                # radial index
    alpha_j: float
    gamma: float
    poly: Polynomial
    norm_L: float
    degree: int           # (dominant) harmonic degree of psi_j

    def radial_profile(self, r):
        """f(r) = r^{-alpha} P(r^2/4) of the unnormalized mode."""
        r = np.asarray(r, dtype=float)
        return r ** (-self.alpha_j) * self.poly(r * r / 4.0)

    def radial_profile_derivative(self, r):
        """f'(r) = r^{-alpha-1} (-alpha P + 2 s P')(r^2/4)."""
        r = np.asarray(r, dtype=float)
        s = r * r / 4.0
        q = -self.alpha_j * self.poly(s) + 2.0 * s * self.poly.derivative()(s)
        return r ** (-self.alpha_j - 1.0) * q


def _pair_rule_size(mode_a: OUMode, mode_b: OUMode) -> int:
    return max(8, mode_a.poly.degree + mode_b.poly.degree + 2)


def _radial_pair_integral(a_gl: float, poly_vals, n_r: int) -> float:
    rule = laguerre_rule(a_gl, n_r)
    return float(rule.weights @ poly_vals(rule.nodes))


def _q_poly(mode: OUMode) -> Polynomial:
    """Q = -alpha P + 2 s P', the polynomial factor of r^{alpha+1} f'."""
    p = mode.poly
    dp = p.derivative()
    coeffs = [-mode.alpha_j * c for c in p.coeffs]
    for i, c in enumerate(dp.coeffs):
        if i + 1 < len(coeffs):
            coeffs[i + 1] += 2.0 * c
        else:
            coeffs.append(2.0 * c)
    return Polynomial(tuple(coeffs))


def raw_inner_L(mode_a: OUMode, mode_b: OUMode, N: int) -> float:
    """<V_A, V_B> in the Gaussian L^2 norm, for unnormalized modes."""
    if mode_a.j != mode_b.j:
        return 0.0  # psi-orthogonality, analytic reduction
    alpha2 = mode_a.alpha_j + mode_b.alpha_j
    a_gl = N / 2.0 - 1.0 - alpha2 / 2.0
    val = _radial_pair_integral(
        a_gl,
        lambda s: mode_a.poly(s) * mode_b.poly(s),
        _pair_rule_size(mode_a, mode_b),
    )
    return 2.0 ** (N - 1 - alpha2) * val


def raw_bilinear_B(mode_a: OUMode, mode_b: OUMode, N: int, mu_j: float) -> float:
    """B(V_A, V_B) for unnormalized modes via the angular reduction."""
    if mode_a.j != mode_b.j:
        return 0.0
    alpha2 = mode_a.alpha_j + mode_b.alpha_j
    a_gl = N / 2.0 - 2.0 - alpha2 / 2.0
    qa, qb = _q_poly(mode_a), _q_poly(mode_b)
    n_r = _pair_rule_size(mode_a, mode_b) + 1
    val = _radial_pair_integral(
        a_gl,
        lambda s: qa(s) * qb(s) + mu_j * mode_a.poly(s) * mode_b.poly(s),
        n_r,
    )
    return 2.0 ** (N - 3 - alpha2) * val


def raw_hardy_pair(mode_a: OUMode, mode_b: OUMode, N: int) -> float:
    """<V_A, V_B / |x|^2> in the Gaussian L^2 pairing (same reduction)."""
    if mode_a.j != mode_b.j:
        return 0.0
    return _hardy_radial(mode_a, mode_b, N)


def _hardy_radial(mode_a: OUMode, mode_b: OUMode, N: int) -> float:
    """Radial factor int f_A f_B r^{N-3} e^{-r^2/4} dr of the |x|^-2 pairing."""
    alpha2 = mode_a.alpha_j + mode_b.alpha_j
    a_gl = N / 2.0 - 2.0 - alpha2 / 2.0
    val = _radial_pair_integral(
        a_gl,
        lambda s: mode_a.poly(s) * mode_b.poly(s),
        _pair_rule_size(mode_a, mode_b),
    )
    return 2.0 ** (N - 3 - alpha2) * val


@dataclass
class OUBasis:
    """Sorted mode family with certification residuals.

    Modes are ordered by (gamma, j, n); Gram and weak-eigenvalue residuals
    are computed over every pair at build time and must sit inside the
    certification tolerances.
    """

    spectrum: ang.AngularSpectrum
    modes: list
    gram_residual: float
    bilinear_residual: float
    gammas: np.ndarray = field(init=False)

    def __post_init__(self):
        self.gammas = np.asarray([m.gamma for m in self.modes])

    @property
    def N(self) -> int:
        return self.spectrum.N

    @property
    def size(self) -> int:
        return len(self.modes)

    def mode_index(self, j: int, n: int) -> int:
        for i, m in enumerate(self.modes):
            if m.j == j and m.n == n:
                return i
        raise ConfigurationError(f"mode (n={n}, j={j}) not in basis")

    def max_degree(self) -> int:
        return max(m.degree for m in self.modes)

    def to_jsonable(self) -> dict:
        return {
            "N": self.N,
            "modes": [
                {
                    "j": m.j,
                    "n": m.n,
                    "alpha": m.alpha_j,
                    "gamma": m.gamma,
                    "poly": list(m.poly.coeffs),
                    "norm": m.norm_L,
                }
                for m in self.modes
            ],
            "gram_residual": self.gram_residual,
            "bilinear_residual": self.bilinear_residual,
        }

    def content_hash(self) -> str:
        payload = json.dumps(self.to_jsonable(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _alphas(spectrum: ang.AngularSpectrum) -> np.ndarray:
    return np.asarray(
        [alpha_from_mu(float(mu), spectrum.N) for mu in spectrum.eigenvalues]
    )


def _certify_coverage(spectrum: ang.AngularSpectrum, gamma_max: float, alphas) -> None:
    # any j beyond the computed window has mu_j >= mu_K, hence a smaller
    # alpha_j; it cannot reach gamma <= gamma_max even at n = 0 once
    # -alpha_K/2 exceeds gamma_max.
    if -alphas[-1] / 2.0 <= gamma_max:
        raise TruncationError(
            f"angular spectrum too short to certify completeness up to "
            f"gamma_max={gamma_max}: -alpha_K/2 = {-alphas[-1] / 2.0} must exceed it; "
            "increase the angular eigenvalue count"
        )


def enumerate_modes(
    spectrum: ang.AngularSpectrum,
    gamma_max: float,
    max_modes: int | None = None,
) -> OUBasis:
    """All modes with gamma = n - alpha_j/2 <= gamma_max, certified complete.

    Requires the positivity gate and a spectrum long enough that the last
    angular eigenvalue already sits above the gamma_max window.
    """
    ok, margin = ang.check_positivity(spectrum)
    if not ok:
        raise PositivityError(
            f"quadratic form not positive definite: margin {margin}", margin=margin
        )
    alphas = _alphas(spectrum)
    _certify_coverage(spectrum, gamma_max, alphas)
    N = spectrum.N
    modes = []
    for j0, alpha in enumerate(alphas):
        j = j0 + 1
        n_top = math.floor(gamma_max + alpha / 2.0 + 1e-12)
        for n in range(0, n_top + 1):
            gamma = gamma_mk(n, alpha)
            if gamma > gamma_max + 1e-12:
                continue
            poly = p_poly(n, alpha, N)
            mode = OUMode(j, n, float(alpha), float(gamma), poly, 1.0,
                          int(spectrum.degrees[j0]))
            norm2 = raw_inner_L(mode, mode, N)
            if norm2 <= 0.0:
                raise TruncationError(f"non-positive norm for mode (n={n}, j={j})")
            modes.append(
                OUMode(j, n, float(alpha), float(gamma), poly, math.sqrt(norm2),
                       int(spectrum.degrees[j0]))
            )
    modes.sort(key=lambda m: (m.gamma, m.j, m.n))
    if max_modes is not None:
        modes = modes[:max_modes]
    gram_res, bil_res = _certify(modes, spectrum)
    basis = OUBasis(spectrum, modes, gram_res, bil_res)
    return basis


def _certify(modes, spectrum: ang.AngularSpectrum):
    """Max Gram and weak-eigenvalue residuals over all normalized pairs."""
    N = spectrum.N
    gram_res = 0.0
    bil_res = 0.0
    for p, mp in enumerate(modes):
        for q in range(p, len(modes)):
            mq = modes[q]
            if mp.j != mq.j:
                continue  # exact zeros by angular orthogonality
            mu_j = float(spectrum.eigenvalues[mp.j - 1])
            scale = 1.0 / (mp.norm_L * mq.norm_L)
            inner = raw_inner_L(mp, mq, N) * scale
            bil = raw_bilinear_B(mp, mq, N, mu_j) * scale
            delta = 1.0 if p == q else 0.0
            gram_res = max(gram_res, abs(inner - delta))
            bil_res = max(bil_res, abs(bil - mq.gamma * delta))
    if gram_res >= GRAM_TOL:
        raise TruncationError(f"basis Gram residual {gram_res} exceeds {GRAM_TOL}")
    if bil_res >= BILINEAR_TOL:
        raise TruncationError(
            f"weak eigen-equation residual {bil_res} exceeds {BILINEAR_TOL}"
        )
    return gram_res, bil_res


def multiplicity(gamma: float, spectrum: ang.AngularSpectrum):
    """Count and index set J = {(m, k) : m - alpha_k/2 = gamma}.

    The integer test uses INT_TOL; distances inside (INT_TOL, INT_AMBIG)
    raise DegeneracyAmbiguityError rather than silently misclassifying.
    """
    alphas = _alphas(spectrum)
    _certify_coverage(spectrum, gamma, alphas)
    J = []
    for k0, alpha in enumerate(alphas):
        m_real = gamma + alpha / 2.0
        if m_real < -INT_AMBIG:
            continue
        m = round(m_real)
        dist = abs(m_real - m)
        if dist <= INT_TOL:
            if m >= 0:
                J.append((int(m), k0 + 1))
        elif dist < INT_AMBIG:
            raise DegeneracyAmbiguityError(
                f"gamma + alpha_{k0 + 1}/2 = {m_real} sits {dist} from an integer, "
                f"inside the ambiguity band ({INT_TOL}, {INT_AMBIG})"
            )
    return len(J), J


def eval_V(mode: OUMode, x: np.ndarray, spectrum: ang.AngularSpectrum,
           normalized: bool = True) -> np.ndarray:
    """Evaluate the mode at points x (shape (..., N)); x = 0 handled by limit."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(x, axis=-1)
    out = np.empty(len(x))
    at_origin = r == 0.0
    if np.any(at_origin):
        if mode.alpha_j > 0.0:
            raise SingularNodeError(
                f"mode with alpha={mode.alpha_j} > 0 is singular at x = 0"
            )
        if mode.alpha_j < 0.0:
            out[at_origin] = 0.0
        else:
            if mode.degree != 0:
                raise SingularNodeError("direction undefined at x = 0 for l > 0 mode")
            psi0 = ang.eval_psi(spectrum, mode.j, np.eye(spectrum.N)[:1])[0]
            out[at_origin] = mode.poly(0.0) * psi0
    good = ~at_origin
    if np.any(good):
        dirs = x[good] / r[good, None]
        psi = ang.eval_psi(spectrum, mode.j, dirs)
        out[good] = mode.radial_profile(r[good]) * psi
    if normalized:
        out = out / mode.norm_L
    return out


def eval_grad_V(mode: OUMode, x: np.ndarray, spectrum: ang.AngularSpectrum,
                normalized: bool = True) -> np.ndarray:
    """Gradient of the mode at points away from the origin; shape (..., N)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(x, axis=-1)
    if np.any(r == 0.0):
        raise SingularNodeError("gradient undefined at x = 0")
    dirs = x / r[:, None]
    psi = ang.eval_psi(spectrum, mode.j, dirs)
    radial_part = mode.radial_profile_derivative(r)[:, None] * psi[:, None] * dirs
    if mode.degree == 0 and spectrum.eigenvectors is None:
        ang_part = 0.0
    else:
        grad_psi = ang.eval_grad_psi(spectrum, mode.j, dirs)
        s = r * r / 4.0
        ang_part = (r ** (-mode.alpha_j - 1.0) * mode.poly(s))[:, None] * grad_psi
    out = radial_part + ang_part
    if normalized:
        out = out / mode.norm_L
    return out


def inner_L(basis: OUBasis, p: int, q: int) -> float:
    """<V_tilde_p, V_tilde_q> for normalized basis modes (indices into basis)."""
    mp, mq = basis.modes[p], basis.modes[q]
    return raw_inner_L(mp, mq, basis.N) / (mp.norm_L * mq.norm_L)


def bilinear_B(basis: OUBasis, p: int, q: int) -> float:
    """B(V_tilde_p, V_tilde_q) via the separated angular reduction."""
    mp, mq = basis.modes[p], basis.modes[q]
    if mp.j != mq.j:
        return 0.0
    mu_j = float(basis.spectrum.eigenvalues[mp.j - 1])
    return raw_bilinear_B(mp, mq, basis.N, mu_j) / (mp.norm_L * mq.norm_L)


def hardy_weight(basis: OUBasis, p: int, q: int) -> float:
    """<V_tilde_p, V_tilde_q/|x|^2>, the inverse-square pairing matrix entry."""
    mp, mq = basis.modes[p], basis.modes[q]
    return raw_hardy_pair(mp, mq, basis.N) / (mp.norm_L * mq.norm_L)


def hardy_matrix(basis: OUBasis) -> np.ndarray:
    """Matrix of <V_tilde_p, V_tilde_q / |x|^2> pairings (diagonal in j)."""
    K = basis.size
    R = np.zeros((K, K))
    for p in range(K):
        for q in range(p, K):
            R[p, q] = R[q, p] = hardy_weight(basis, p, q)
    return R


def potential_coupling_matrix(basis: OUBasis) -> np.ndarray:
    """Matrix of int a/|x|^2 V_p V_q G dx over normalized modes.

    Separates into (angular pairing int a psi_jp psi_jq, taken from the
    Galerkin eigenpairs) x (matched radial integral); constant potentials
    reduce to a * hardy_matrix.
    """
    spec = basis.spectrum
    if spec.potential.is_constant:
        return spec.potential.value * hardy_matrix(basis)
    S = ang.potential_pairing(spec)
    K = basis.size
    C = np.zeros((K, K))
    for p in range(K):
        mp = basis.modes[p]
        for q in range(p, K):
            mq = basis.modes[q]
            val = _hardy_radial(mp, mq, basis.N) * S[mp.j - 1, mq.j - 1]
            C[p, q] = C[q, p] = val / (mp.norm_L * mq.norm_L)
    return C


@dataclass(frozen=True)
class Collocation:
    """Cubature nodes plus the basis value matrix Phi[k, m] = V_tilde_k(x_m).

    Projections <g, V_tilde_k> are Phi @ (weights * g(points)); nodal
    reconstruction is Phi.T @ c.  Points are the t = 1 nodes; at time t the
    physical points are sqrt(t) * points.  ``gram_residual`` measures how
    well the shared-node rule reproduces the orthonormality: exact (1e-14)
    for integer singular exponents, algebraic (~1e-6 at n_r = 64) for the
    fractional exponents of anisotropic potentials.

    Each row of Phi is outer(radial_table[k], psi_{j_k}) over (radial node,
    direction); ``angular_gram[k, l]`` is the angular quadrature of
    psi_{j_k} psi_{j_l}.  Multiplying by a radial function therefore acts
    on coefficients as the K x K matrix
    (radial_table diag(radial_weights g) radial_table^T) o angular_gram.
    """

    rule: ProductRule
    Phi: np.ndarray
    radial_table: np.ndarray
    angular_gram: np.ndarray
    gram_residual: float = 0.0

    @property
    def points(self) -> np.ndarray:
        return self.rule.points

    @property
    def weights(self) -> np.ndarray:
        return self.rule.weights

    def project(self, values: np.ndarray) -> np.ndarray:
        return self.Phi @ (self.weights * values)

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        return self.Phi.T @ coeffs


def build_collocation(basis: OUBasis, n_r: int = 64) -> Collocation:
    """Nodal table of the basis on the product rule.

    The angular sizes track the largest harmonic degree in the basis so
    that mode-pair products integrate exactly.
    """
    spec = basis.spectrum
    if spec.N != 3 and basis.max_degree() > 0:
        raise ConfigurationError(
            "nodal collocation with anisotropic modes requires N = 3"
        )
    lmax = basis.max_degree()
    rule = product_rule(spec.N, n_r, 2 * lmax + 10, 4 * lmax + 10)
    n_ang = len(rule.angular_weights)
    n_rad = rule.radial.count
    psi = ang.eval_psi_block(spec, rule.angular_dirs)
    r = rule.radial.nodes_r
    K = basis.size
    radial_table = np.empty((K, n_rad))
    Phi = np.empty((K, n_rad * n_ang))
    for k, mode in enumerate(basis.modes):
        radial_table[k] = mode.radial_profile(r) / mode.norm_L
        Phi[k] = np.outer(radial_table[k], psi[mode.j - 1]).ravel()
    psi_k = psi[[mode.j - 1 for mode in basis.modes]]
    angular_gram = (psi_k * rule.angular_weights) @ psi_k.T
    gram = (Phi * rule.weights) @ Phi.T
    gram_residual = float(np.max(np.abs(gram - np.eye(K))))
    if gram_residual > 1e-4:
        raise QuadratureError(
            f"collocation Gram residual {gram_residual:.3e}: the shared-node "
            "rule cannot represent this basis; raise n_r"
        )
    return Collocation(rule, Phi, radial_table, angular_gram, gram_residual)
