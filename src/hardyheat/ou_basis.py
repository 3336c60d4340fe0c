"""Explicit eigenbasis of L = -Lap + x/2 . grad - a(x/|x|)/|x|^2.

Each mode is V_{n,j}(x) = 2^{-(N-1-2 alpha_j)/2} |x|^{-alpha_j} l_n(|x|^2/4)
psi_j(x/|x|) with eigenvalue gamma = n - alpha_j/2, where l_n is the
orthonormal Laguerre polynomial of exponent a_j = N/2 - 1 - alpha_j
(``specfun.laguerre_table``): M(-n, N/2 - alpha_j, s) up to a positive
factor, so the modes are orthonormal in closed form.  Every mode-pair
integral separates into an angular factor times a radial integral

    int_0^inf f_a f_b r^{N-1-2 shift} e^{-r^2/4} dr,
    f = 2^{-(N-1-2 alpha)/2} r^{-alpha} l_n(r^2/4),

and the modes of one angular index share alpha_j, so one generalized
Gauss-Laguerre rule with the matched exponent integrates a whole (j, j')
block exactly.  ``_pair_matrix`` is that block evaluator.  The basis-wide
Gram and bilinear matrices vanish between angular indices and are kept as
the j-blocks of ``certification_blocks``.  The weak eigen-equation
B(V_p, V_q) = gamma_q <V_p, V_q> is the certification target: the bilinear
form separates as

    B(V_A, V_B) = delta_{j_A j_B} [ int f_A' f_B' r^{N-1} e^{-r^2/4} dr
                                    + mu_j int f_A f_B r^{N-3} e^{-r^2/4} dr ].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import angular as ang
from .config import _sha256
from .errors import (
    ConfigurationError,
    DegeneracyAmbiguityError,
    QuadratureError,
    TruncationError,
)
from .quadrature import ProductRule, laguerre_rule, product_rule, sphere_area
from .specfun import alpha_from_mu, gamma_mk, laguerre_table

# eq-of-integers detection for the multiplicity count: inside INT_TOL the
# value is an integer, inside the (INT_TOL, INT_AMBIG) band it is refused.
INT_TOL = 1e-9
INT_AMBIG = 1e-6

GRAM_TOL = 1e-8
BILINEAR_TOL = 1e-6
# the Gram residual above which a rule cannot represent the modes
RULE_GRAM_TOL = 1e-4


@dataclass(frozen=True)
class OUMode:
    """One orthonormal eigenfunction V_{n,j}."""

    j: int                # angular index, 1-based
    n: int                # radial index
    alpha_j: float
    gamma: float
    degree: int           # (dominant) harmonic degree of psi_j


def _laguerre_rows(modes, N: int, s: np.ndarray):
    """(l, D) rows of the modes, all of one angular index, at the points s:
    :func:`laguerre_table` of exponent N/2 - 1 - alpha_j picked by n."""
    table, D = laguerre_table(N / 2.0 - 1.0 - modes[0].alpha_j, max(m.n for m in modes), s)
    ns = [m.n for m in modes]
    return table[ns], D[ns]


def _pair_matrix(modes_a, modes_b, N: int, shift: int, mu: float | None = None):
    """Matrix of int f_a f_b r^{N-1-2 shift} e^{-r^2/4} dr over two mode lists.

    Each list holds modes of one angular index, so every entry shares the
    weight s^{N/2-1-shift-(alpha_a+alpha_b)/2} e^-s and one matched
    Gauss-Laguerre rule integrates the whole block exactly; the modes'
    factors 2^{-(N-1-2 alpha)/2} leave 2^{-2 shift}.  With ``mu`` the
    integrand is the bilinear form's Q_a Q_b + mu l_a l_b instead, with
    Q = -alpha l + 2 s l' the factor of r^{alpha+1} f'.
    """
    alpha2 = modes_a[0].alpha_j + modes_b[0].alpha_j
    degree = max(m.n for m in modes_a) + max(m.n for m in modes_b)
    rule = laguerre_rule(N / 2.0 - 1.0 - shift - alpha2 / 2.0,
                         max(8, degree + 2) + (mu is not None))
    Pa, Da = _laguerre_rows(modes_a, N, rule.nodes)
    Pb, Db = (Pa, Da) if modes_b is modes_a else _laguerre_rows(modes_b, N, rule.nodes)
    if mu is None:
        vals = Pa[:, None] * Pb[None]
    else:
        Qa = -modes_a[0].alpha_j * Pa + 2.0 * Da
        Qb = -modes_b[0].alpha_j * Pb + 2.0 * Db
        vals = Qa[:, None] * Qb[None] + (mu * Pa[:, None]) * Pb[None]
    return 2.0 ** (-2 * shift) * np.vecdot(vals, rule.weights)


def _j_blocks(modes) -> list:
    """(j, indices) for each angular index, indices in list order."""
    js = np.asarray([m.j for m in modes])
    return [(j, np.flatnonzero(js == j)) for j in dict.fromkeys(js.tolist())]


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
                }
                for m in self.modes
            ],
            "gram_residual": self.gram_residual,
            "bilinear_residual": self.bilinear_residual,
        }

    def content_hash(self) -> str:
        payload = json.dumps(self.to_jsonable(), sort_keys=True).encode()
        return _sha256(payload).hexdigest()[:16]


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
            f"angular_count = {len(alphas)} certifies completeness only below "
            f"-alpha_K/2 = {-alphas[-1] / 2.0}, not up to gamma_max = {gamma_max}; "
            "raise angular_count"
        )


def enumerate_modes(spectrum: ang.AngularSpectrum, gamma_max: float) -> OUBasis:
    """All modes with gamma = n - alpha_j/2 <= gamma_max, certified complete.

    Requires the positivity gate, a spectrum long enough that the last
    angular eigenvalue already sits above the gamma_max window, and at
    least one mode in the window (else ConfigurationError).  Both
    certification residuals, against I and diag(gamma), are maxima over the
    upper triangle, diagonal included, of the certification_blocks; the
    zeros between blocks never set them.
    """
    ang.require_positivity(spectrum)
    alphas = _alphas(spectrum)
    _certify_coverage(spectrum, gamma_max, alphas)
    keys = sorted(
        (gamma_mk(n, alpha), j0 + 1, n)
        for j0, alpha in enumerate(alphas)
        for n in range(math.floor(gamma_max + alpha / 2.0 + 1e-12) + 1)
    )
    keys = [key for key in keys if key[0] <= gamma_max + 1e-12]
    if not keys:
        raise ConfigurationError(
            f"no mode at or below gamma_max = {gamma_max}: the lowest eigenvalue "
            f"under this potential is gamma = {gamma_mk(0, alphas[0])}"
        )
    modes = [OUMode(j, n, float(alphas[j - 1]), float(gamma), int(spectrum.degrees[j - 1]))
             for gamma, j, n in keys]
    gram_res = bil_res = 0.0
    for idx, gram, bilinear in certification_blocks(spectrum, modes):
        gamma = np.diag([modes[i].gamma for i in idx])
        gram_res = max(gram_res, float(np.max(np.triu(np.abs(gram - np.eye(len(idx)))))))
        bil_res = max(bil_res, float(np.max(np.triu(np.abs(bilinear - gamma)))))
    if gram_res >= GRAM_TOL:
        raise TruncationError(f"basis Gram residual {gram_res} exceeds {GRAM_TOL}")
    if bil_res >= BILINEAR_TOL:
        raise TruncationError(
            f"weak eigen-equation residual {bil_res} exceeds {BILINEAR_TOL}"
        )
    return OUBasis(spectrum, modes, gram_res, bil_res)


def certification_blocks(spectrum: ang.AngularSpectrum, modes) -> list:
    """(indices, Gram, bilinear) of each j-block: entry (p, q) of a block is
    <V_p, V_q> and B(V_p, V_q) of the modes at its indices.

    Both forms vanish between angular indices by psi-orthogonality; each
    j-block is one _pair_matrix call.
    """
    out = []
    for j, idx in _j_blocks(modes):
        block = [modes[i] for i in idx]
        mu_j = float(spectrum.eigenvalues[j - 1])
        out.append((idx, _pair_matrix(block, block, spectrum.N, 0),
                    _pair_matrix(block, block, spectrum.N, 1, mu_j)))
    return out


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


def _radial_rows(modes, N: int, r: np.ndarray) -> np.ndarray:
    """2^{-(N-1-2 alpha)/2} r^{-alpha} l_n(r^2/4) of each mode at the radii r,
    one table per angular index; shape (len(modes), M)."""
    out = np.empty((len(modes), len(r)))
    for _, idx in _j_blocks(modes):
        alpha = modes[idx[0]].alpha_j
        out[idx] = 2.0 ** (alpha - (N - 1) / 2.0) * r ** (-alpha) \
            * _laguerre_rows([modes[i] for i in idx], N, r * r / 4.0)[0]
    return out


def radial_modes(basis: OUBasis) -> np.ndarray:
    """Mask of the degree-0 modes: under a constant potential they span the
    radial functions of the basis."""
    return np.array([m.degree == 0 for m in basis.modes])


@dataclass(frozen=True)
class Collocation:
    """Cubature nodes plus the basis value matrix Phi[k, m] = V_tilde_k(x_m).

    Projections <g, V_tilde_k> are Phi @ (weights * g(rule.points)); nodal
    reconstruction is Phi.T @ c.  The rule's points are the t = 1 nodes; at
    time t the physical points are sqrt(t) * rule.points.  ``live`` indexes
    every mode, as :class:`MatchedBlocks` index the modes they keep.
    ``gram_residual`` measures how well the shared-node rule reproduces the
    orthonormality: exact (1e-14) for integer singular exponents, algebraic
    (~1e-6 at n_r = 64) for the fractional exponents of anisotropic
    potentials.
    """

    rule: ProductRule
    Phi: np.ndarray
    live: np.ndarray
    gram_residual: float

    @property
    def weights(self) -> np.ndarray:
        return self.rule.weights

    def project(self, values: np.ndarray) -> np.ndarray:
        return self.Phi @ (self.weights * values)

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        return self.Phi.T @ coeffs


def build_collocation(basis: OUBasis, n_r: int = 64) -> Collocation:
    """Nodal table of the basis on the product rule, whose angular sizes
    track the largest harmonic degree so that mode-pair products integrate
    exactly, past :func:`_gram_residual`'s gate.  The eigenfunctions are
    evaluable at the nodes in N = 3 only.
    """
    spec = basis.spectrum
    if spec.N != 3:
        raise ConfigurationError("nodal collocation requires N = 3")
    lmax = basis.max_degree()
    rule = product_rule(spec.N, n_r, 2 * lmax + 10, 4 * lmax + 10)
    radial_table = _radial_rows(basis.modes, spec.N, rule.radial.nodes_r)
    psi_k = ang.eval_psi_block(spec, rule.angular_dirs)[[m.j - 1 for m in basis.modes]]
    Phi = (radial_table[:, :, None] * psi_k[:, None, :]).reshape(basis.size, -1)
    return Collocation(rule, Phi, np.arange(basis.size), _gram_residual(Phi, rule.weights))


def _gram_residual(table, weights) -> float:
    """max |table diag(weights) table^T - I| of a rule's mode table; above
    RULE_GRAM_TOL the rule cannot represent the modes: QuadratureError."""
    residual = float(np.max(np.abs((table * weights) @ table.T - np.eye(len(table))),
                            initial=0.0))
    if residual > RULE_GRAM_TOL:
        raise QuadratureError(f"Gram residual {residual:.3e} > {RULE_GRAM_TOL}; "
                              "raise radial_nodes")
    return residual


@dataclass(frozen=True)
class MatchedBlocks:
    """A radial g on the modes: <g V_p, V_q> is 0 unless p and q share the
    angular index j, hence alpha_j, and the Gauss-Laguerre rule of exponent
    N/2 - 1 - alpha_j (``_pair_matrix``'s at shift 0) integrates a j-block.

    ``live`` indexes the modes of the blocks kept, block after block;
    ``radii`` (r = 2 sqrt(s)) and ``weights`` concatenate their rules;
    ``table[k]`` is l_n(s) of live mode k at its block's nodes, 0 at the
    others'.  So g acts on c[live] as table diag(weights g(radii)) table^T,
    exactly 0 between blocks, and I at g = 1 up to ``gram_residual``.
    ``phi`` = 2^{alpha_j - (N-1)/2} r^{-alpha_j} / sqrt(|S^{N-1}|) is the
    node factor V / l of a mode with the constant psi_1, so on the radial
    span the blocks are a rule for any radial function: :meth:`reconstruct`
    and :meth:`project` act on the live modes as a :class:`Collocation`'s
    on all of them.
    """

    live: np.ndarray
    radii: np.ndarray
    weights: np.ndarray
    table: np.ndarray
    phi: np.ndarray
    gram_residual: float

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        """v = phi (table^T c[live]) at the nodes, of ``coeffs`` = c[live]."""
        return self.phi * (self.table.T @ coeffs)

    @cached_property
    def _weights_over_phi(self) -> np.ndarray:
        # formed once per blocks, not on every forcing call of a march
        return self.weights / self.phi

    def project(self, values: np.ndarray) -> np.ndarray:
        """<g, V_tilde_k>_L, k in live, of g given at the nodes: table
        (weights/phi g)."""
        return self.table @ (self._weights_over_phi * values)


def matched_blocks(basis: OUBasis, rows: np.ndarray, n_r: int = 64) -> MatchedBlocks:
    """The j-blocks on which the coefficient ``rows`` are nonzero, each on
    its matched n_r-node rule, past :func:`_gram_residual`'s gate."""
    modes, N, on = basis.modes, basis.N, np.any(rows, axis=0)
    blocks = [idx for _, idx in _j_blocks(modes) if np.any(on[idx])]
    alphas = [modes[idx[0]].alpha_j for idx in blocks]
    rules = [laguerre_rule(N / 2.0 - 1.0 - alpha, n_r) for alpha in alphas]
    live = np.concatenate([np.zeros(0, dtype=int), *blocks])
    table = np.zeros((len(live), sum(rule.count for rule in rules)))
    row = col = 0
    for idx, rule in zip(blocks, rules):
        table[row:row + len(idx), col:col + rule.count] = _laguerre_rows(
            [modes[i] for i in idx], N, rule.nodes)[0]
        row, col = row + len(idx), col + rule.count
    radii = np.concatenate([np.zeros(0), *(rule.nodes_r for rule in rules)])
    weights = np.concatenate([np.zeros(0), *(rule.weights for rule in rules)])
    phi = np.concatenate([np.zeros(0), *(2.0 ** (alpha - (N - 1) / 2.0) * rule.nodes_r ** (-alpha)
                                         for alpha, rule in zip(alphas, rules))])
    return MatchedBlocks(live, radii, weights, table,
                         phi / math.sqrt(sphere_area(N)), _gram_residual(table, weights))
