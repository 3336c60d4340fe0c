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
per pair of real orders (m, m') with a Gauss-Legendre polar_rule in cos theta.
A harmonic table couples m to m' only through its own orders (product to
sum).  M is therefore block diagonal over groups of coupled orders, and each
block is diagonalized on its own; the spectrum keeps the block that holds
Y_00 (``ground_block``), which the coercivity constant reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PositivityError, QuadratureError, TruncationError
from .quadrature import polar_rule

DEGENERACY_GAP = 1e-9  # eigenvalues closer than this form one cluster
DEFAULT_L = 16
# the largest truncation degree and harmonic-table degree: each sizes the
# Galerkin assembly (README, config table)
MAX_DEGREE = 64
# directions per pass of harmonic_sums: a pass holds the harmonic table of
# its own directions, never one over all M points
DIRS_PER_PASS = 1024


# -- real spherical harmonics on S^2 (polar axis = first coordinate) --------

def sph_index(l: int, m: int) -> int:
    """Flat index of the real harmonic (l, m) in the degree-ordered basis."""
    return l * l + (m + l)


def sph_degree_of(p: int) -> int:
    return int(math.isqrt(p))


def basis_size(L: int) -> int:
    return (L + 1) ** 2


def laplacian_diagonal(L: int) -> np.ndarray:
    """-Lap_S eigenvalue l(l+1) on S^2 of each flat basis index of degree <= L."""
    l = np.arange(L + 1)
    return np.repeat(l * (l + 1), 2 * l + 1).astype(float)


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

    kind 'constant' is valid for any N >= 3; 'harmonic_table' (real-harmonic
    coefficients) requires N = 3.
    """

    kind: str
    value: float = 0.0
    table: tuple = ()

    @staticmethod
    def constant(lam: float) -> "AngularPotential":
        return AngularPotential("constant", value=float(lam))

    @staticmethod
    def harmonic_table(entries) -> "AngularPotential":
        """a = sum c Y_lm over the (l, m, c) entries, each (l, m) at most once
        and with |m| <= l <= MAX_DEGREE."""
        items = tuple(sorted((int(l), int(m), float(c)) for l, m, c in entries))
        for l, m, _ in items:
            if not abs(m) <= l <= MAX_DEGREE:
                raise ConfigurationError(f"harmonic (l, m) = ({l}, {m}) outside "
                                         f"|m| <= l <= {MAX_DEGREE}")
        for (l, m, _), (l2, m2, _) in zip(items, items[1:]):
            if (l, m) == (l2, m2):
                raise ConfigurationError(f"harmonic (l, m) = ({l}, {m}) given twice")
        return AngularPotential("harmonic_table", table=items)

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"


# -- spectrum ----------------------------------------------------------------

@dataclass(frozen=True)
class AngularSpectrum:
    """First K eigenpairs of -Lap_S - a, eigenvalues ascending.

    For Galerkin solves, ``eigenvectors`` holds coefficient columns in the
    real-harmonic basis of degree <= L; for analytic constant-potential
    spectra in N != 3 only the constant mode is evaluable and
    ``eigenvectors`` is None.  ``degrees`` records the (dominant) harmonic
    degree of each eigenfunction.  ``ground_block`` is the (indices, block)
    pair of the Galerkin matrix (``assemble_angular``) that holds flat index
    0, Y_00, kept from the solve; None for an analytic spectrum.
    """

    N: int
    potential: AngularPotential
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    degrees: np.ndarray
    truncation_degree: int
    residual_bound: float
    ground_block: tuple | None = None

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


def _order_couplings(a: AngularPotential, L: int, w: np.ndarray, P: np.ndarray) -> dict:
    """Polar weights of the coupled order pairs of a harmonic table on the
    Gauss-Legendre weights w, with P the Legendre table at their nodes.

    Returns {(m, m'): v} with A_{(l,m),(l',m')} = sum(v * P[l,|m|] * P[l',|m'|]).
    A pair is present only where the azimuthal integral of a e_m e_m' is
    nonzero: the product-to-sum partners of m through the table's orders.
    """
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


def connected_groups(pairs, labels) -> list:
    """The labels split into the connected groups of the pairs, each group
    sorted, in the order of their first label."""
    partners = {label: set() for label in labels}
    for a, b in pairs:
        partners[a].add(b)
        partners[b].add(a)
    seen, groups = set(), []
    for first in labels:
        if first in seen:
            continue
        seen.add(first)
        todo, group = [first], []
        while todo:
            label = todo.pop()
            group.append(label)
            fresh = [b for b in partners[label] if b not in seen]
            seen.update(fresh)
            todo.extend(fresh)
        groups.append(sorted(group))
    return groups


def assemble_angular(a: AngularPotential, L: int) -> list:
    """Galerkin matrix diag(l(l+1)) - A of a harmonic-table potential in the
    real-harmonic basis of S^2, by blocks (N = 3: the flat basis holds 2l + 1
    harmonics per degree).  A constant potential raises ConfigurationError:
    its spectrum is analytic (``solve_angular``).

    A is assembled per pair of coupled real orders (m, m'): the azimuthal
    integral is taken in closed form and the polar one, exactly, with
    2L + max(8, table degree) Gauss-Legendre nodes in cos theta.  Each block
    of coupled orders is symmetrized after a 1e-13 asymmetry check.

    Returns the matrix as (flat basis indices, block) pairs, one per group
    of coupled orders; the index sets tile the (L+1)^2 basis and every entry
    outside the blocks is zero.
    """
    if L < 2:
        raise ConfigurationError("truncation degree L must be >= 2")
    if a.is_constant:
        raise ConfigurationError("a constant potential has the analytic spectrum; "
                                 "the Galerkin assembles harmonic tables only")
    lap = laplacian_diagonal(L)
    table_L = max((l for l, _, _ in a.table), default=0)
    x, w = polar_rule(3, 2 * L + max(8, table_L))
    P = _legendre_table(max(L, table_L), x)
    couplings = _order_couplings(a, L, w, P)
    groups = connected_groups(couplings, range(-L, L + 1))
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
    # degree-ordered harmonics are the eigenfunctions
    vecs = np.eye(basis_size(L_used), K) if N == 3 else None
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
        if 0 in idx:
            ground_block = (idx, B)
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
    return AngularSpectrum(3, a, vals, vecs, degrees, L, residual, ground_block)


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
    if not a.is_constant and N != 3:
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


def require_positivity(spec: AngularSpectrum) -> None:
    """Raise PositivityError unless :func:`check_positivity` passes."""
    ok, margin = check_positivity(spec)
    if not ok:
        raise PositivityError(
            f"mu_1 = {spec.eigenvalues[0]} violates mu_1 > -(N-2)^2/4 "
            f"(margin {margin}); the quadratic form is not positive definite"
        )


def eval_psi_block(spec: AngularSpectrum, dirs: np.ndarray) -> np.ndarray:
    """All eigenfunctions at unit vectors; shape (K, M)."""
    return harmonic_sums(spec.eigenvectors, spec.truncation_degree, dirs)


def harmonic_sums(coeffs: np.ndarray, L: int, dirs: np.ndarray) -> np.ndarray:
    """coeffs.T @ Y, shape (columns, M), for the real harmonics Y of degree
    <= L at unit vectors, built DIRS_PER_PASS directions at a time."""
    dirs = np.atleast_2d(dirs)
    out = np.empty((coeffs.shape[1], len(dirs)))
    for lo in range(0, len(dirs), DIRS_PER_PASS):  # no pass's Y outlives it
        out[:, lo:lo + DIRS_PER_PASS] = coeffs.T @ real_sph_block(L, dirs[lo:lo + DIRS_PER_PASS])
    return out

