"""Angular eigenproblem on the sphere: -Lap_S psi - a(theta) psi = mu psi.

The first eigenvalue mu_1 gates everything downstream: the quadratic form
of -Lap - a(x/|x|)/|x|^2 is positive definite iff mu_1 > -(N-2)^2/4.

Constant potentials are handled analytically in any dimension N >= 3
(shifted Laplace-Beltrami spectrum l(l+N-2) - lambda with the standard
harmonic multiplicities).  Anisotropic potentials are restricted to N = 3
and discretized by a real spherical-harmonic Galerkin matrix

    M = diag(l(l+1)) - A,      A_pq = int_{S^2} a Y_p Y_q dS.

Every real harmonic factors as Y_{l,m} = P_l^|m|(cos theta) e_m(phi), with
P_l^m the fully normalized associated Legendre functions (three-term
recurrence of Holmes & Featherstone, J. Geodesy 76 (2002)) and e_m equal to
1, sqrt(2) cos(m phi) or sqrt(2) sin(|m| phi) for m = 0, m > 0, m < 0.  The
azimuthal integral of a e_m e_m' is taken in closed form, so A is assembled
per pair of real orders (m, m') with a 1-D Gauss-Legendre rule in cos theta.
A constant or zonal potential couples each order only to itself; a
harmonic table couples m to m' only through its own orders (product to
sum).  M is therefore block diagonal over groups of coupled orders, and each
block is diagonalized on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import roots_legendre

from .errors import ConfigurationError, QuadratureError, TruncationError
from .quadrature import sphere_area, _angular_nodes

DEGENERACY_GAP = 1e-9  # eigenvalues closer than this form one cluster
DEFAULT_L = 16


# -- real spherical harmonics on S^2 (polar axis = first coordinate) --------

def sph_index(l: int, m: int) -> int:
    """Flat index of the real harmonic (l, m) in the degree-ordered basis."""
    return l * l + (m + l)


def sph_degree_of(p: int) -> int:
    return int(math.isqrt(p))


def basis_size(L: int) -> int:
    return (L + 1) ** 2


def laplacian_diagonal(L: int, N: int = 3) -> np.ndarray:
    """-Lap_S eigenvalue l(l+N-2) of each flat basis index of degree <= L."""
    l = np.arange(L + 1)
    return np.repeat(l * (l + N - 2), 2 * l + 1).astype(float)


def _polar_azimuth(dirs: np.ndarray):
    ct = np.clip(dirs[..., 0], -1.0, 1.0)
    phi = np.arctan2(dirs[..., 2], dirs[..., 1])
    return ct, phi


def _legendre_table(L: int, x: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre functions at the points x.

    Returns P of shape (L+1, L+1, len(x)) with P[l, m] = N_lm P_l^m(x) for
    m <= l and zero above, where P_l^m carries the Condon-Shortley phase
    (-1)^m (the scipy.special convention) and
    N_lm = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!), so that
    2 pi int P[l, m] P[l', m] dx = delta_ll'.  Sectoral terms follow
    P_m^m = -sqrt((2m+1)/(2m)) sin(theta) P_{m-1}^{m-1}; every other term
    the three-term recurrence P_l^m = a_lm x P_{l-1}^m - b_lm P_{l-2}^m.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    P = np.zeros((L + 1, L + 1, len(x)))
    P[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for l in range(1, L + 1):
        m2 = np.arange(l) ** 2
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m2))
        P[l, :l] = a[:, None] * x * P[l - 1, :l]
        if l >= 2:
            b = np.sqrt((2.0 * l + 1.0) * ((l - 1) ** 2 - m2)
                        / ((2.0 * l - 3.0) * (l * l - m2)))
            P[l, :l] -= b[:, None] * P[l - 2, :l]
        P[l, l] = -math.sqrt((2.0 * l + 1.0) / (2.0 * l)) * s * P[l - 1, l - 1]
    return P


def _azimuth_table(L: int, phi: np.ndarray) -> np.ndarray:
    """e_m(phi) for m = -L..L, shape (2L+1, len(phi)), row L + m."""
    k = np.arange(1, L + 1)[:, None]
    E = np.empty((2 * L + 1, len(phi)))
    E[L] = 1.0
    E[L + 1:] = math.sqrt(2.0) * np.cos(k * phi)
    E[:L] = math.sqrt(2.0) * np.sin(k[::-1] * phi)
    return E


def real_sph_block(L: int, dirs: np.ndarray) -> np.ndarray:
    """Values of all real harmonics of degree <= L at unit vectors.

    Returns an array of shape (basis_size(L), M).
    """
    dirs = np.atleast_2d(dirs)
    ct, phi = _polar_azimuth(dirs)
    P, E = _legendre_table(L, ct), _azimuth_table(L, phi)
    out = np.empty((basis_size(L), len(dirs)))
    for l in range(L + 1):
        m = np.arange(-l, l + 1)
        out[l * l:(l + 1) ** 2] = P[l, np.abs(m)] * E[L + m]
    return out


def real_sph_grad_block(L: int, dirs: np.ndarray) -> np.ndarray:
    """Surface gradients of the real harmonics, shape (basis, M, 3).

    Uses grad_S Y = (dY/dtheta) e_theta + (dY/dphi / sin theta) e_phi;
    callers must keep evaluation points away from the poles.
    """
    dirs = np.atleast_2d(dirs)
    ct, phi = _polar_azimuth(dirs)
    st = np.sqrt(np.clip(1.0 - ct * ct, 1e-300, None))
    cphi, sphi = np.cos(phi), np.sin(phi)
    e_theta = np.stack([-st, ct * cphi, ct * sphi], axis=-1)
    e_phi = np.stack([np.zeros_like(phi), -sphi, cphi], axis=-1)
    P, E = _legendre_table(L, ct), _azimuth_table(L, phi)
    out = np.zeros((basis_size(L), len(dirs), 3))
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


def harmonic_multiplicity(l: int, N: int) -> int:
    """Dimension of the degree-l spherical harmonics on S^{N-1}."""
    if l == 0:
        return 1
    if l == 1:
        return N
    return math.comb(N - 1 + l, l) - math.comb(N - 3 + l, l - 2)


# -- potentials --------------------------------------------------------------

@dataclass(frozen=True)
class AngularPotential:
    """Bounded potential a(theta) on the sphere.

    kind 'constant' is valid for any N >= 3; 'zonal' (function of the
    cosine of the polar angle) and 'harmonic_table' (real-harmonic
    coefficients) require N = 3.
    """

    kind: str
    value: float = 0.0
    zonal_fn: Callable | None = None
    table: tuple = ()
    sup_norm_bound: float = 0.0

    @staticmethod
    def constant(lam: float) -> "AngularPotential":
        return AngularPotential("constant", value=float(lam), sup_norm_bound=abs(lam))

    @staticmethod
    def zonal(fn: Callable) -> "AngularPotential":
        # sup norm estimated on a dense polar grid
        c = np.cos(np.linspace(0.0, math.pi, 4001))
        bound = float(np.max(np.abs(fn(c))))
        return AngularPotential("zonal", zonal_fn=fn, sup_norm_bound=bound)

    @staticmethod
    def harmonic_table(table: dict) -> "AngularPotential":
        items = tuple(sorted((int(l), int(m), float(c)) for (l, m), c in table.items()))
        pot = AngularPotential("harmonic_table", table=items)
        grid, _ = _angular_nodes(3, 60, 121)
        bound = float(np.max(np.abs(pot.evaluate(grid))))
        object.__setattr__(pot, "sup_norm_bound", bound)
        return pot

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def compatible_N(self, N: int) -> bool:
        return self.kind == "constant" or N == 3

    def evaluate(self, dirs: np.ndarray) -> np.ndarray:
        dirs = np.atleast_2d(dirs)
        if self.kind == "constant":
            return np.full(len(dirs), self.value)
        if self.kind == "zonal":
            return np.asarray(self.zonal_fn(dirs[..., 0]), dtype=float)
        if self.kind == "harmonic_table":
            if not self.table:
                return np.zeros(len(dirs))
            L = max(l for l, _, _ in self.table)
            Y = real_sph_block(L, dirs)
            out = np.zeros(len(dirs))
            for l, m, c in self.table:
                out += c * Y[sph_index(l, m)]
            return out
        raise ConfigurationError(f"unknown potential kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant({self.value!r})"
        if self.kind == "harmonic_table":
            return "harmonic_table(" + ";".join(f"{l},{m},{c!r}" for l, m, c in self.table) + ")"
        return "zonal(<callable>)"


# -- spectrum ----------------------------------------------------------------

@dataclass(frozen=True)
class AngularSpectrum:
    """First K eigenpairs of -Lap_S - a, eigenvalues ascending.

    For Galerkin solves, ``eigenvectors`` holds coefficient columns in the
    real-harmonic basis of degree <= L; for analytic constant-potential
    spectra in N != 3 only the constant mode is evaluable and
    ``eigenvectors`` is None.  ``degrees`` records the (dominant) harmonic
    degree of each eigenfunction.
    """

    N: int
    potential: AngularPotential
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    degrees: np.ndarray
    truncation_degree: int
    residual_bound: float

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def to_jsonable(self) -> dict:
        return {
            "N": self.N,
            "L": self.truncation_degree,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "residual_bound": float(self.residual_bound),
        }


def _azimuth_integral(m1: int, m2: int, m3: int) -> float:
    """int_0^{2 pi} e_m1 e_m2 e_m3 dphi in closed form (product to sum).

    Each cos or sin factor splits into halves e^{+-ik phi}; only the
    frequency-zero terms of the product survive the integral.  The halves
    are exact binary fractions, so a vanishing integral is an exact zero.
    """
    terms = {0: 1.0 + 0.0j}
    for m in (m1, m2, m3):
        if m == 0:
            continue
        k = abs(m)
        halves = ((k, 0.5), (-k, 0.5)) if m > 0 else ((k, -0.5j), (-k, 0.5j))
        product = {}
        for f, c in terms.items():
            for g, d in halves:
                product[f + g] = product.get(f + g, 0.0) + c * d
        terms = product
    nonzero = (m1 != 0) + (m2 != 0) + (m3 != 0)
    return 2.0 * math.pi * 2.0 ** (nonzero / 2.0) * terms.get(0, 0.0).real


def _order_couplings(a: AngularPotential, L: int, x: np.ndarray, w: np.ndarray,
                     P: np.ndarray) -> dict:
    """Polar weights of the coupled order pairs on the Gauss-Legendre rule (x, w).

    Returns {(m, m'): v} with A_{(l,m),(l',m')} = sum(v * P[l,|m|] * P[l',|m'|]).
    A pair is present only where the azimuthal integral of a e_m e_m' is
    nonzero: m = m' for constant and zonal potentials, and the product-to-sum
    partners of m through the table's orders for a harmonic table.
    """
    if a.kind != "harmonic_table":
        dirs = np.stack([x, np.sqrt(1.0 - x * x), np.zeros_like(x)], axis=1)
        v = 2.0 * math.pi * w * a.evaluate(dirs)
        return {(m, m): v for m in range(-L, L + 1)}
    couplings = {}
    for lt, mt, c in a.table:
        v = c * w * P[lt, abs(mt)]
        for m in range(-L, L + 1):
            near, far = abs(abs(m) - abs(mt)), abs(m) + abs(mt)
            for m2 in sorted({near, -near, far, -far}):
                phi = _azimuth_integral(mt, m, m2)
                if phi != 0.0 and abs(m2) <= L:
                    couplings[(m, m2)] = couplings.get((m, m2), 0.0) + phi * v
    return couplings


def _order_groups(couplings: dict, L: int) -> list:
    """Orders -L..L split into the connected groups of the coupling pairs."""
    partners = {m: [] for m in range(-L, L + 1)}
    for m, m2 in couplings:
        partners[m].append(m2)
    seen, groups = set(), []
    for m0 in range(-L, L + 1):
        if m0 in seen:
            continue
        seen.add(m0)
        todo, group = [m0], []
        while todo:
            m = todo.pop()
            group.append(m)
            fresh = [m2 for m2 in partners[m] if m2 not in seen]
            seen.update(fresh)
            todo.extend(fresh)
        groups.append(sorted(group))
    return groups


def assemble_angular(a: AngularPotential, L: int, N: int = 3) -> list:
    """Galerkin matrix diag(l(l+N-2)) - A in the real-harmonic basis, by blocks.

    Anisotropic kinds require N = 3.  A is assembled per pair of coupled
    real orders (m, m'): the azimuthal integral is taken in closed form and
    the polar one with 2L + max(8, table degree) Gauss-Legendre nodes in
    cos theta, which is exact for harmonic-table potentials.  Each block of
    coupled orders is symmetrized after a 1e-13 asymmetry check.

    Returns the matrix as (flat basis indices, block) pairs, one per group
    of coupled orders; the index sets tile the (L+1)^2 basis and every entry
    outside the blocks is zero.
    """
    if L < 2:
        raise ConfigurationError("truncation degree L must be >= 2")
    if not a.compatible_N(N):
        raise ConfigurationError(f"potential kind {a.kind!r} requires N=3, got N={N}")
    if N != 3:
        raise ConfigurationError("Galerkin assembly is implemented for N=3 only")
    lap = laplacian_diagonal(L, N)
    table_L = max((l for l, _, _ in a.table), default=0)
    x, w = roots_legendre(2 * L + max(8, table_L))
    P = _legendre_table(max(L, table_L), x)
    couplings = _order_couplings(a, L, x, w, P)
    groups = _order_groups(couplings, L)
    where, mats, indices = {}, [], []
    for g, group in enumerate(groups):
        size = 0
        for m in group:
            where[m] = (g, size)
            size += L + 1 - abs(m)
        mats.append(np.zeros((size, size)))
        indices.append(np.array([sph_index(l, m) for m in group
                                 for l in range(abs(m), L + 1)]))
    for (m, m2), v in couplings.items():
        (g, i), (_, j) = where[m], where[m2]
        Pm, Pm2 = P[abs(m):L + 1, abs(m)], P[abs(m2):L + 1, abs(m2)]
        mats[g][i:i + len(Pm), j:j + len(Pm2)] = (Pm * v) @ Pm2.T
    out = []
    for idx, A in zip(indices, mats):
        asym = np.max(np.abs(A - A.T))
        if asym > 1e-13 * max(1.0, np.max(np.abs(A))):
            raise QuadratureError(f"assembled coupling matrix asymmetric by {asym}")
        out.append((idx, np.diag(lap[idx]) - 0.5 * (A + A.T)))
    return out


def _cluster_tiebreak(vals: np.ndarray, vecs: np.ndarray):
    """Reorder numerically degenerate clusters by dominant-harmonic index."""
    order = np.arange(len(vals))
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j] - vals[j - 1] < DEGENERACY_GAP:
            j += 1
        if j - i > 1:
            dominant = [int(np.argmax(np.abs(vecs[:, k]))) for k in range(i, j)]
            order[i:j] = order[i:j][np.argsort(dominant, kind="stable")]
        i = j
    return vals[order], vecs[:, order]


def _solve_constant(a: AngularPotential, K: int, N: int, L: int | None) -> AngularSpectrum:
    levels = []
    l = 0
    while sum(harmonic_multiplicity(j, N) for j in range(l)) < K:
        levels.append(l)
        l += 1
    mu, deg = [], []
    for l in levels:
        mu.extend([l * (l + N - 2) - a.value] * harmonic_multiplicity(l, N))
        deg.extend([l] * harmonic_multiplicity(l, N))
    mu = np.asarray(mu[:K], dtype=float)
    deg = np.asarray(deg[:K], dtype=int)
    L_used = levels[-1] if L is None else max(L, levels[-1])
    vecs = None
    if N == 3:
        vecs = np.zeros((basis_size(L_used), K))
        for k in range(K):
            vecs[k, k] = 1.0  # degree-ordered harmonics are the eigenfunctions
    return AngularSpectrum(N, a, mu, vecs, deg, L_used, 0.0)


def _solve_galerkin(a: AngularPotential, K: int, L: int) -> AngularSpectrum:
    if K > L * L:
        raise ConfigurationError(
            f"K={K} exceeds the certified budget L^2={L * L} "
            "(one full degree is reserved as truncation buffer)"
        )
    # one eigh per block; the K smallest pairs are merged across blocks
    blocks, pairs = [], []
    for idx, B in assemble_angular(a, L):
        vals, vecs = np.linalg.eigh(B)
        vals, vecs = vals[:K], vecs[:, :K]
        res = np.linalg.norm(B @ vecs - vecs * vals, axis=0)
        pairs += [(vals[c], len(blocks), c, res[c]) for c in range(len(vals))]
        blocks.append((idx, vecs))
    pairs = sorted(pairs, key=lambda pair: pair[0])[:K]
    vals = np.array([pair[0] for pair in pairs])
    vecs = np.zeros((basis_size(L), K))
    for k, (_, b, c, _) in enumerate(pairs):
        idx, block_vecs = blocks[b]
        vecs[idx, k] = block_vecs[:, c]
    residual = float(max(pair[3] for pair in pairs))
    vals, vecs = _cluster_tiebreak(vals, vecs)
    if len(vals) > 1 and vals[1] - vals[0] <= 10.0 * residual:
        raise TruncationError(
            f"mu_1 simplicity not certified: gap {vals[1] - vals[0]} vs "
            f"10 x residual {10 * residual}; increase L"
        )
    degrees = np.asarray([sph_degree_of(int(np.argmax(np.abs(v)))) for v in vecs.T])
    return AngularSpectrum(3, a, vals, vecs, degrees, L, residual)


def solve_angular(
    a: AngularPotential,
    L: int | None = None,
    K: int = 16,
    N: int = 3,
) -> AngularSpectrum:
    """First K eigenpairs, ascending, eigenvalues repeated by multiplicity.

    With L=None the truncation starts at DEFAULT_L and doubles until the
    top reported eigenvalue moves by less than 1e-9.
    """
    if not a.compatible_N(N):
        raise ConfigurationError(f"potential kind {a.kind!r} requires N=3, got N={N}")
    if a.is_constant:
        return _solve_constant(a, K, N, L)
    if L is not None:
        return _solve_galerkin(a, K, L)
    L = DEFAULT_L
    while L * L < K:
        L *= 2
    spec = _solve_galerkin(a, K, L)
    while L < 128:
        refined = _solve_galerkin(a, K, 2 * L)
        if abs(refined.eigenvalues[-1] - spec.eigenvalues[-1]) < 1e-9:
            return refined
        spec, L = refined, 2 * L
    raise TruncationError("angular truncation did not converge by L=128")


def check_positivity(spec: AngularSpectrum):
    """Gate mu_1 > -(N-2)^2/4; returns (ok, margin)."""
    margin = float(spec.eigenvalues[0] + (spec.N - 2) ** 2 / 4.0)
    return margin > 0.0, margin


def eval_psi_block(spec: AngularSpectrum, dirs: np.ndarray) -> np.ndarray:
    """All eigenfunctions at unit vectors; shape (K, M)."""
    dirs = np.atleast_2d(dirs)
    if spec.eigenvectors is None:
        # constant-potential N != 3: only the constant mode is evaluable
        out = np.zeros((spec.count, len(dirs)))
        out[0] = 1.0 / math.sqrt(sphere_area(spec.N))
        if spec.count > 1:
            out[1:] = np.nan
        return out
    Y = real_sph_block(spec.truncation_degree, dirs)
    return spec.eigenvectors.T @ Y


def eval_psi(spec: AngularSpectrum, k: int, dirs: np.ndarray) -> np.ndarray:
    """Eigenfunction psi_k (1-based index k) at unit vectors."""
    if not 1 <= k <= spec.count:
        raise ConfigurationError(f"eigenfunction index {k} outside 1..{spec.count}")
    if spec.eigenvectors is None:
        if k > 1:
            raise ConfigurationError(
                "anisotropic eigenfunction evaluation requires N = 3; "
                "only the constant mode is evaluable for constant potentials in N > 3"
            )
        return np.full(len(np.atleast_2d(dirs)), 1.0 / math.sqrt(sphere_area(spec.N)))
    return spec.eigenvectors[:, k - 1] @ real_sph_block(spec.truncation_degree, dirs)


def eval_grad_psi_block(spec: AngularSpectrum, dirs: np.ndarray) -> np.ndarray:
    """Surface gradients of all eigenfunctions; shape (K, M, 3).  N=3 only."""
    if spec.eigenvectors is None:
        if spec.count == 1:
            return np.zeros((1, len(np.atleast_2d(dirs)), spec.N))
        raise ConfigurationError("angular gradients require the N=3 Galerkin basis")
    grads = real_sph_grad_block(spec.truncation_degree, dirs)
    return np.einsum("pk,pmd->kmd", spec.eigenvectors, grads)


def eval_grad_psi(spec: AngularSpectrum, k: int, dirs: np.ndarray) -> np.ndarray:
    """Surface gradient of psi_k (1-based index k); shape (M, 3).  N=3 only."""
    if spec.eigenvectors is None:
        raise ConfigurationError("angular gradients require the N=3 Galerkin basis")
    grads = real_sph_grad_block(spec.truncation_degree, dirs)
    return np.tensordot(spec.eigenvectors[:, k - 1], grads, axes=1)


def potential_pairing(spec: AngularSpectrum) -> np.ndarray:
    """S_jk = int_{S^2} a psi_j psi_k dS from the Galerkin eigenpairs.

    M V = V diag(mu) with M = diag(l(l+1)) - A gives
    V^T A V = V^T diag(l(l+1)) V - diag(mu), so no quadrature is needed.
    """
    V = spec.eigenvectors
    lap = laplacian_diagonal(spec.truncation_degree)
    return (V.T * lap) @ V - np.diag(spec.eigenvalues)
