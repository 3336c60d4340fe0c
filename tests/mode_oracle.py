"""Pointwise evaluators of the eigenbasis, and quotients over it: test oracles.

The package never evaluates a mode or a harmonic gradient at an arbitrary
point: its pairings are matched Gauss-Laguerre rules times angular factors,
and its nodal tables come from ``angular.eval_psi_block``.  This module
gives the independent nodal route the tests compare against:
- the real harmonics from scipy's ``lpmv`` (``lpmv_harmonics``), one
  (l, m) at a time and free of the package's Legendre recurrence, and from
  them the potential a at unit vectors (``potential_values``);
- the exact harmonic table of a quadratic zonal potential
  (``zonal_quadratic``), the form a zonal potential takes in the package;
- the surface gradients of the real harmonics (``real_sph_grad_block``);
- mode values and gradients at points (``eval_V``, ``eval_grad_V``, which
  raise ``SingularPointError`` at x = 0 where there is no limit), for
  the energy identity, the nodal-gradient check of the bilinear reduction
  and the basis members of ``sweep_oracle``; the gradients take their
  radial factors from ``kummer.kummer_m`` and ``kummer.closed_form_norm2``,
  not from the package's Laguerre table;
- the dense K x K matrices the package keeps as blocks, scattered with
  zeros between them (``scatter``): the Gram and bilinear matrices
  (``certification_matrices``) and the Hardy pairings of one
  ``_pair_matrix`` j-block each (``hardy_matrix``);
- the a/|x|^2 coupling (``coupling_matrix``), from the angular pairing of
  the Galerkin eigenpairs (``potential_pairing``) and one ``_pair_matrix``
  block per pair of angular indices;
- the Galerkin coercivity infimum over the first K modes, by scipy's dense
  generalized ``eigh``: at shift 1 a Rayleigh-Ritz bound from above on the
  package's ``coercivity_bound_constant``; and the per-mode
  anisotropic-Hardy defect;
- ``radii`` of a product rule's nodes;
- a linear h(x, t) of any shape evaluated at every node of a collocation
  (``nodal_linear_forcing``, ``nodal_linear_march``), the route the package
  replaced by matched radial blocks of a radial profile, with ``radial_h``
  the nodal h of a profile, and the admissibility ratio sampled at points
  (``admissibility_at_points``);
- the semilinear forcing of data on the ground block on the Gauss-Laguerre
  rule of its integrand's own exponent (``IntegrandExponentRule``), from
  scipy's ``roots_genlaguerre`` and the Kummer factors;
- the exact coefficients of the closed-form solution families at any t
  (``closed_form_reference``);
- ``product_route``, under which a semilinear run on the radial span takes
  the product collocation that any other semilinear run takes.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from scipy.linalg import eigh
from scipy.special import gammaln, lpmv, roots_genlaguerre

from hardyheat import angular as ang
from hardyheat import evolve as ev
from hardyheat import ou_basis as ou
from hardyheat.errors import ConfigurationError
from hardyheat.ou_basis import Collocation, OUBasis, _radial_rows
from hardyheat.quadrature import ProductRule, sphere_area
from kummer import closed_form_norm2, kummer_m


class SingularPointError(ArithmeticError):
    """A mode value or gradient asked for at x = 0, where it has no limit."""


def kummer_factors(modes, N: int, s: np.ndarray):
    """(P, Q) of each mode at the points s, each divided by the mode's
    closed-form norm: P = M(-n, b, s) summed as Kummer's series,
    b = N/2 - alpha, and Q = -alpha P + 2 s P' with
    P' = -(n/b) M(1 - n, b + 1, s); shapes (len(modes), len(s))."""
    P, Q = [], []
    for m in modes:
        b = N / 2.0 - m.alpha_j
        p = kummer_m(-float(m.n), b, s) + np.zeros_like(s)
        dp = -m.n / b * kummer_m(1.0 - m.n, b + 1.0, s) if m.n else np.zeros_like(s)
        norm = math.sqrt(closed_form_norm2(m.n, m.alpha_j, N))
        P.append(p / norm)
        Q.append((-m.alpha_j * p + 2.0 * s * dp) / norm)
    return np.array(P), np.array(Q)


def radii(rule: ProductRule) -> np.ndarray:
    """|x| of each node of the rule at t = 1."""
    return np.repeat(rule.radial.nodes_r, len(rule.angular_dirs))


def lpmv_norm(l: int, m: int) -> float:
    """N_lm of the fully normalized P_l^m: sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!)."""
    return math.sqrt((2 * l + 1) / (4.0 * math.pi)
                     * math.exp(gammaln(l - m + 1) - gammaln(l + m + 1)))


def lpmv_harmonics(L: int, dirs: np.ndarray) -> np.ndarray:
    """The real harmonics of degree <= L at unit vectors (polar axis = first
    coordinate), shape (basis_size(L), M), from scipy's lpmv per (l, m)."""
    dirs = np.atleast_2d(dirs)
    ct = np.clip(dirs[:, 0], -1.0, 1.0)
    phi = np.arctan2(dirs[:, 2], dirs[:, 1])
    out = np.empty((ang.basis_size(L), len(dirs)))
    for l in range(L + 1):
        out[ang.sph_index(l, 0)] = lpmv_norm(l, 0) * lpmv(0, l, ct)
        for m in range(1, l + 1):
            base = math.sqrt(2.0) * lpmv_norm(l, m) * lpmv(m, l, ct)
            out[ang.sph_index(l, m)] = base * np.cos(m * phi)
            out[ang.sph_index(l, -m)] = base * np.sin(m * phi)
    return out


def potential_values(pot: ang.AngularPotential, dirs: np.ndarray) -> np.ndarray:
    """a at unit vectors: a constant in any N, a harmonic table (N = 3) as
    the sum of its entries over :func:`lpmv_harmonics`."""
    dirs = np.atleast_2d(dirs)
    if pot.is_constant:
        return np.full(len(dirs), pot.value)
    Y = lpmv_harmonics(max((l for l, _, _ in pot.table), default=0), dirs)
    return sum((c * Y[ang.sph_index(l, m)] for l, m, c in pot.table), np.zeros(len(dirs)))


def zonal_quadratic(a0: float, a1: float, a2: float) -> ang.AngularPotential:
    """a0 + a1 c + a2 c^2, c the polar cosine, as its exact m = 0 harmonic
    table (c^2 = 1/3 + (2/3) P_2(c)); zero coefficients give no entry."""
    four_pi = 4.0 * math.pi
    entries = [(0, 0, (a0 + a2 / 3.0) * math.sqrt(four_pi)),
               (1, 0, a1 * math.sqrt(four_pi / 3.0)),
               (2, 0, 2.0 * a2 / 3.0 * math.sqrt(four_pi / 5.0))]
    return ang.AngularPotential.harmonic_table([e for e in entries if e[2] != 0.0])


def real_sph_grad_block(L: int, dirs: np.ndarray) -> np.ndarray:
    """Surface gradients of the real harmonics, shape (basis, M, 3).

    Uses grad_S Y = (dY/dtheta) e_theta + (dY/dphi / sin theta) e_phi;
    callers must keep evaluation points away from the poles.
    """
    dirs = np.atleast_2d(dirs)
    ct, phi = ang._polar_azimuth(dirs)
    st = np.sqrt(np.clip(1.0 - ct * ct, 1e-300, None))
    cphi, sphi = np.cos(phi), np.sin(phi)
    e_theta = np.stack([-st, ct * cphi, ct * sphi], axis=-1)
    e_phi = np.stack([np.zeros_like(phi), -sphi, cphi], axis=-1)
    P, E = ang._legendre_table(L, ct), ang._azimuth_table(L, phi)
    out = np.zeros((ang.basis_size(L), len(dirs), 3))
    for l in range(1, L + 1):
        m = np.arange(-l, l + 1)
        am = np.abs(m)
        # d/dtheta P_l^m(cos theta) = (l c P_l^m - c_lm P_{l-1}^m) / sin theta
        c_lm = np.sqrt((2.0 * l + 1.0) / (2.0 * l - 1.0) * (l * l - am * am))
        dtheta = (l * ct * P[l, am] - c_lm[:, None] * P[l - 1, am]) / st
        # d/dphi e_m = -m e_{-m}
        dphi = -m[:, None] * P[l, am] / st * E[L - m]
        out[l * l:(l + 1) ** 2] = (
            (dtheta * E[L + m])[..., None] * e_theta + dphi[..., None] * e_phi
        )
    return out


def _psi_rows(spectrum: ang.AngularSpectrum, modes, dirs: np.ndarray) -> np.ndarray:
    """psi_j of each mode at unit vectors; shape (len(modes), M)."""
    if spectrum.eigenvectors is not None:
        return ang.eval_psi_block(spectrum, dirs)[[m.j - 1 for m in modes]]
    if any(m.j > 1 for m in modes):
        raise ConfigurationError("only psi_1 is evaluable off the N = 3 harmonic basis")
    return np.full((len(modes), len(dirs)), 1.0 / math.sqrt(sphere_area(spectrum.N)))


def _grad_psi_rows(spectrum: ang.AngularSpectrum, modes, dirs: np.ndarray) -> np.ndarray:
    """Surface gradients of psi_j of each mode at unit vectors; shape
    (len(modes), M, 3).  N = 3 only.

    Only the modes' eigenvector columns are contracted, one column at a
    time, so a mode's rows are the same bits in any list of modes.
    """
    cols = spectrum.eigenvectors[:, [m.j - 1 for m in modes]].T
    out = np.empty((len(modes), len(dirs), 3))
    for lo in range(0, len(dirs), ang.DIRS_PER_PASS):
        grads = real_sph_grad_block(spectrum.truncation_degree, dirs[lo:lo + ang.DIRS_PER_PASS])
        for row, col in zip(out, cols):
            row[lo:lo + ang.DIRS_PER_PASS] = np.tensordot(col, grads, axes=(0, 0))
    return out


def eval_V(spectrum: ang.AngularSpectrum, modes, x: np.ndarray) -> np.ndarray:
    """Normalized values of the modes at points x (shape (M, N)); shape
    (len(modes), M).  At x = 0 a mode takes its limit: 0 for alpha < 0,
    P(0) psi for degree 0 and alpha = 0; any other mode raises."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(x, axis=-1)
    at_origin = r == 0.0
    bad = [m for m in modes if m.alpha_j > 0.0 or (m.alpha_j == 0.0 and m.degree != 0)]
    if bad and np.any(at_origin):
        raise SingularPointError(f"mode (n={bad[0].n}, j={bad[0].j}) has no limit at x = 0")
    # the direction at x = 0 matters only for a degree-0 mode; take e1
    dirs = x / np.where(at_origin, 1.0, r)[:, None]
    dirs[at_origin] = np.eye(spectrum.N)[0]
    return _radial_rows(modes, spectrum.N, r) * _psi_rows(spectrum, modes, dirs)


def eval_grad_V(spectrum: ang.AngularSpectrum, modes, x: np.ndarray):
    """(values, gradients) of the normalized modes at points x away from the
    origin; shapes (len(modes), M) and (len(modes), M, N).

    grad V = f'(r) psi x/r + f(r)/r grad_S psi with f = r^{-alpha} P(r^2/4) and
    f' = r^{-alpha-1} Q(r^2/4), P and Q from :func:`kummer_factors`; the
    values are :func:`eval_V`'s.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(x, axis=-1)
    if np.any(r == 0.0):
        raise SingularPointError("gradient undefined at x = 0")
    dirs = x / r[:, None]
    psi = _psi_rows(spectrum, modes, dirs)
    P, Q = kummer_factors(modes, spectrum.N, r * r / 4.0)
    scale = np.array([r ** (-m.alpha_j - 1.0) for m in modes])
    grads = (scale * Q * psi)[..., None] * dirs
    if spectrum.eigenvectors is not None:  # else every mode is the constant psi_1
        grads += (scale * P)[..., None] * _grad_psi_rows(spectrum, modes, dirs)
    return _radial_rows(modes, spectrum.N, r) * psi, grads


def scatter(blocks, K: int) -> np.ndarray:
    """The K x K matrix of the (indices, block) pairs, zero between blocks."""
    out = np.zeros((K, K))
    for idx, block in blocks:
        out[np.ix_(idx, idx)] = block
    return out


def certification_matrices(spectrum: ang.AngularSpectrum, modes):
    """(Gram, bilinear) over the modes, scattered from ``certification_blocks``."""
    blocks = ou.certification_blocks(spectrum, modes)
    return (scatter([(idx, gram) for idx, gram, _ in blocks], len(modes)),
            scatter([(idx, bilinear) for idx, _, bilinear in blocks], len(modes)))


def potential_pairing(spec: ang.AngularSpectrum) -> np.ndarray:
    """S_jk = int_{S^2} a psi_j psi_k dS from the Galerkin eigenpairs.

    M V = V diag(mu) with M = diag(l(l+1)) - A gives
    V^T A V = V^T diag(l(l+1)) V - diag(mu), so no quadrature is needed.
    """
    V = spec.eigenvectors
    lap = ang.laplacian_diagonal(spec.truncation_degree)
    return (V.T * lap) @ V - np.diag(spec.eigenvalues)


def coupling_matrix(basis: OUBasis) -> np.ndarray:
    """int a/|x|^2 V_p V_q G over the modes: S[j_p, j_q] times one
    ``_pair_matrix`` block at shift 1 for each pair of angular indices with
    a nonzero pairing S (a I for a constant potential, else
    :func:`potential_pairing`), formed on the upper block triangle in list
    order and mirrored, since S need not be bitwise symmetric."""
    spec = basis.spectrum
    S = (spec.potential.value * np.eye(len(spec.eigenvalues)) if spec.potential.is_constant
         else potential_pairing(spec))
    blocks = ou._j_blocks(basis.modes)
    C = np.zeros((basis.size, basis.size))
    for a, (ja, ia) in enumerate(blocks):
        for jb, ib in blocks[a:]:
            if S[ja - 1, jb - 1] != 0.0:
                block = S[ja - 1, jb - 1] * ou._pair_matrix(
                    [basis.modes[i] for i in ia], [basis.modes[i] for i in ib], basis.N, 1)
                C[np.ix_(ia, ib)] = block
                C[np.ix_(ib, ia)] = block.T
    return C


def hardy_matrix(basis: OUBasis) -> np.ndarray:
    """int V_p V_q / |x|^2 G over the modes: one ``_pair_matrix`` j-block at
    shift 1 each, zero between angular indices."""
    blocks = []
    for _, idx in ou._j_blocks(basis.modes):
        block = [basis.modes[i] for i in idx]
        blocks.append((idx, ou._pair_matrix(block, block, basis.N, 1)))
    return scatter(blocks, basis.size)


def coercivity_infimum(basis: OUBasis, K: int | None = None, shift: float | None = None) -> float:
    """Smallest generalized eigenvalue of (Gamma + (N-2)/4) v = q (E + shift) v
    over the first K modes, E = Gamma + the dense coupling, by scipy's eigh.

    At the default shift (N-2)/4 it is the Rayleigh-quotient infimum, which
    equals 1 for a = 0 (the quotient is identically 1) and degenerates to 0
    as the potential approaches the Hardy constant; at shift 1 it is the
    minimum over the span of the modes of the quotient whose infimum over
    every v is the package's ``coercivity_bound_constant``, so by
    Rayleigh-Ritz at or above it, and falling toward it as the span grows.
    """
    K = basis.size if K is None else K
    shift = (basis.N - 2) / 4.0 if shift is None else shift
    gam = basis.gammas[:K]
    E = np.diag(gam) + coupling_matrix(basis)[:K, :K]
    return float(eigh(np.diag(gam + (basis.N - 2) / 4.0), E + shift * np.eye(K),
                      eigvals_only=True)[0])


def hardy_mode_consistency(basis: OUBasis) -> float:
    """Max over modes of the anisotropic-Hardy consistency defect.

    Every mode must satisfy
    int V~^2/|x|^2 G <= (mu_1 + (N-2)^2/4)^{-1} (B(V~,V~) + (N-2)/4);
    returns the worst (most positive) LHS - RHS, expected <= 0.
    """
    mu1 = float(basis.spectrum.eigenvalues[0])
    coef = 1.0 / (mu1 + (basis.N - 2) ** 2 / 4.0)
    bound = coef * (basis.gammas + (basis.N - 2) / 4.0)
    return float(np.max(np.diag(hardy_matrix(basis)) - bound))


def radial_h(profile):
    """h(x, t) = profile(|x|, t) at points x of shape (M, N)."""
    return lambda x, t: profile(np.sqrt(np.sum(x * x, axis=-1)), t)


def nodal_linear_forcing(h, t: float, c: np.ndarray, col: Collocation) -> np.ndarray:
    """F_k = <h(sqrt(t) . , t) v, V_tilde_k>_L with h evaluated at every node
    of col and v = col.reconstruct(c), projected back."""
    hvals = np.asarray(h(math.sqrt(t) * col.rule.points, t), dtype=float)
    return col.project(hvals * col.reconstruct(c))


def nodal_linear_march(basis: OUBasis, col: Collocation, h, c0: np.ndarray,
                       taus: np.ndarray) -> ev.Trajectory:
    """The RK4 march of dc/dtau = Gamma c - t F, F = :func:`nodal_linear_forcing`
    at t = e^tau, over the grid taus by ``evolve._march_rk4``, with no gate."""
    def f(tau, c):
        t = math.exp(tau)
        F = nodal_linear_forcing(h, t, c, col)
        return basis.gammas * c - t * F, F

    coeffs, forcing = ev._march_rk4(taus, c0, f)
    return ev.Trajectory(basis, col, taus, coeffs, forcing,
                         ev.PerturbationSpec("linear", label="nodal h"), float(taus[0] - taus[1]))


def admissibility_at_points(h, C_h: float, eps_h: float, points: np.ndarray) -> float:
    """The largest |h(x, t)| / (C_h (1 + |x|^{-2+eps_h})) over every point
    x = sqrt(t) x_m of the t = 1 points x_m (shape (M, N)), at every time of
    ADMISSIBILITY_TIMES."""
    worst = 0.0
    for t in ev.ADMISSIBILITY_TIMES:
        x = math.sqrt(t) * points
        bound = C_h * (1.0 + np.linalg.norm(x, axis=1) ** (-2.0 + eps_h))
        worst = max(worst, float(np.max(np.abs(h(x, t)) / bound)))
    return worst


class IntegrandExponentRule:
    """The semilinear term eps |v|^{p-1} v of data on the j = 1 modes under
    a constant potential, for ``evolve.forcing_coefficients`` in place of
    their matched block: it acts on c[live] of the same ``live`` modes.

    There v = r^{-alpha_1} P(s) psi_1 with P a polynomial in s = r^2/4, so
    |v|^{p-1} v V_k carries r^{-(p+1) alpha_1} and the Gauss-Laguerre rule of
    exponent N/2 - 1 - (p+1) alpha_1/2 absorbs it: for p = 2 and a P of one
    sign the integrand left is a polynomial, integrated exactly.  The modes
    come from :func:`kummer_factors` and the rule from scipy.
    """

    def __init__(self, basis: OUBasis, p: float, n_r: int):
        N = basis.N
        self.live = np.array([k for k, m in enumerate(basis.modes) if m.j == 1])
        alpha = basis.modes[self.live[0]].alpha_j
        a = N / 2.0 - 1.0 - (p + 1.0) * alpha / 2.0
        s, w = roots_genlaguerre(n_r, a)
        r = 2.0 * np.sqrt(s)
        P, _ = kummer_factors([basis.modes[k] for k in self.live], N, s)
        area = sphere_area(N)
        self.values = r ** (-alpha) * P / math.sqrt(area)  # V_k at the nodes
        # int g dx = |S^{N-1}| 2^{N-1} int g s^{N/2-1} e^{-s} ds for radial g
        self.weights = area * 2.0 ** (N - 1) * w * s ** (N / 2.0 - 1.0 - a)

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs @ self.values

    def project(self, values: np.ndarray) -> np.ndarray:
        return self.values @ (self.weights * values)


def product_route():
    """Context in which ``evolve.radial_invariant`` reads False, so that a
    semilinear run on the radial span forces on the n_r-node product
    collocation instead of its matched block."""
    return mock.patch.object(ev, "radial_invariant", return_value=False)


def closed_form_reference(basis: OUBasis, family, t: float) -> np.ndarray:
    """Exact coefficient vectors for the analytic solution families.

    families: ('pure', k); ('mixture', [(k, coeff), ...]);
    ('exp_linear', k, eps) for the exact solution e^{-eps t} t^gamma of the
    constant-h linear problem.
    """
    kind = family[0]
    if kind == "pure":
        terms = [(family[1], 1.0)]
    elif kind == "mixture":
        terms = family[1]
    elif kind == "exp_linear":
        terms = [(family[1], math.exp(-family[2] * t))]
    else:
        raise ConfigurationError(f"unknown closed-form family {kind!r}")
    c = ev.build_initial(basis, terms)  # rejects a mode index outside 0..K-1
    return np.array([x * t ** g for x, g in zip(c, basis.gammas)])
