"""Spectral Galerkin integrator in self-similar variables.

With v(x, t) = u(sqrt(t) x, t) and tau = log t, the flow becomes

    dc_k/dtau = gamma_k c_k - e^tau F_k(tau, c),
    F_k = < f(e^{tau/2} . , e^tau, v), V_tilde_k >_L,

which is diagonal plus a small forcing; integration runs backward from
tau = 0 toward the singularity.  The unperturbed flow is advanced by its
exact diagonal propagator e^{gamma_k dtau} and evaluates no forcing, so it
builds no rule; perturbed kinds march the live modes of their one rule
by classical RK4 at dtau, verified against one RK4 march at 2 dtau on
every second row, and every other mode stays exactly 0.
Every stored row keeps the forcing coefficients that the first RK4 stage of
the dtau march evaluated there: they are exactly the xi_{m,k} data the
asymptotic coefficient formulas integrate later.  Stored rows read back
from an earlier run go through the same input gates and get the same
forcing, one evaluation per row, without a march.

A linear h is a radial profile h(|x|, t), which couples only modes of one
angular index j: it acts on the data's j-blocks alone, each on its matched
radial rule (:func:`ou_basis.matched_blocks`), as a matrix M(t) known at
every stage time.  Its RK4 step is
one increment matrix B_i, c_{i+1} = c_i + B_i c_i (:func:`_march_linear`).
The semilinear term is evaluated at the nodes at every stage
(:func:`_march_rk4`); under a constant potential, data on the degree-0
modes keep their span (:func:`radial_invariant`), the j = 1 block, and
force on its matched rule's n_r nodes instead of the product rule's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AccuracyError, ConfigurationError
from .ou_basis import (Collocation, MatchedBlocks, OUBasis, build_collocation,
                       matched_blocks, radial_modes)

TAU_FLOOR = math.log(1e-6)
DTAU_MAX = 0.01
HALVING_TOL = 1e-8
# RK4 steps (or rows) whose forcing matrices one stacked build holds
MARCH_BLOCK = 64
# times at which check_h_admissible samples h: 25 log-spaced from 1e-6 to 1
ADMISSIBILITY_TIMES = np.exp(np.linspace(TAU_FLOOR, 0.0, 25))


@dataclass(frozen=True)
class PerturbationSpec:
    """Forcing term f(x, t, s) of the evolution.

    kinds: 'none'; 'linear' with f = h(|x|, t) s for the radial profile
    ``h_radial``, which turns the forcing into a matrix per j-block, and the
    admissibility bound |h| <= C_h (1 + |x|^{-2+eps_h}); 'semilinear' with
    f = eps |s|^{p-1} s, 1 < p < (N+2)/(N-2).  The profile is called
    elementwise on arrays, r of shape (n, nodes), t of shape (n, 1).
    """

    kind: str
    h_radial: Callable | None = None
    C_h: float = 0.0
    eps_h: float = 1.0
    eps: float = 0.0
    p: float = 2.0
    label: str = "none"

    @staticmethod
    def none() -> "PerturbationSpec":
        return PerturbationSpec("none")

    @staticmethod
    def linear_constant(eps: float, eps_h: float = 1.0) -> "PerturbationSpec":
        return PerturbationSpec("linear", h_radial=lambda r, t: np.full(np.shape(r), eps),
                                C_h=abs(eps), eps_h=eps_h, eps=eps,
                                label=f"linear_constant({eps!r})")

    @staticmethod
    def linear_bounded(eps: float, eps_h: float = 1.0) -> "PerturbationSpec":
        # h = eps / (1 + |x|^2): smooth, bounded, admissible
        return PerturbationSpec("linear", h_radial=lambda r, t: eps / (1.0 + r * r),
                                C_h=abs(eps), eps_h=eps_h, eps=eps,
                                label=f"linear_bounded({eps!r})")

    @staticmethod
    def semilinear(eps: float, p: float, N: int) -> "PerturbationSpec":
        if not 1.0 < p < 2.0 * N / (N - 2) - 1.0:
            raise ConfigurationError(
                f"semilinear exponent p={p} outside (1, (N+2)/(N-2)) for N={N}"
            )
        return PerturbationSpec(
            "semilinear", eps=eps, p=p, label=f"semilinear({eps!r},{p!r})",
        )

    def delta_tilde(self, N: int) -> float:
        """Exponent in the small-s forcing bound |xi| <= C s^{-2+dt+2gamma}."""
        if self.kind == "none":
            return 2.0
        if self.kind == "linear":
            return self.eps_h / 2.0
        return (N + 2 - self.p * (N - 2)) / (self.p + 1)

    def delta_theory(self, N: int) -> float:
        """Frequency convergence rate |N(t) - gamma| <= C t^delta."""
        if self.kind == "none":
            return math.inf
        if self.kind == "linear":
            return self.eps_h / 2.0
        return (N + 2 - self.p * (N - 2)) / (2.0 * (self.p + 1))


def radial_invariant(basis: OUBasis, rows: np.ndarray) -> bool:
    """True when a semilinear run stays in the span of the radial (degree-0)
    modes, so that it may force on their matched block: a constant potential
    and every row of ``rows`` (one row or a stack) exactly zero on every
    other mode, tested in place: no copy of that block."""
    return basis.spectrum.potential.is_constant and not np.any(rows, where=~radial_modes(basis))


def linear_forcing_matrices(ts, pert: PerturbationSpec, blocks: MatchedBlocks) -> np.ndarray:
    """M(t) for each t of ``ts``, stacked (len(ts), L, L) over the L live
    modes of ``blocks``: M(t) @ c[live] = <h(sqrt(t) . , t) v, V_tilde_k>_L,
    k in live, for the spec's linear h.  M = T diag(w h(sqrt(t) r, t)) T^T
    with the blocks' table, weights and radii; each slice is a product of
    its own, so it does not depend on the other times in ``ts``.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1, 1)
    hr = np.asarray(pert.h_radial(np.sqrt(ts) * blocks.radii, ts), dtype=float)
    return (blocks.table * (blocks.weights * hr)[:, None, :]) @ blocks.table.T


def forcing_coefficients(c: np.ndarray, pert: PerturbationSpec,
                         col: Collocation | MatchedBlocks) -> np.ndarray:
    """F_k = < eps |v|^{p-1} v, V_tilde_k >_L, k in col.live, of the
    semilinear term, which depends on no time: c holds the live
    coefficients, v = col.reconstruct(c) at the nodes of the product
    collocation or of the matched blocks, projected back.
    """
    v = col.reconstruct(c)
    return pert.eps * col.project(np.abs(v) ** (pert.p - 1.0) * v)


@dataclass
class Trajectory:
    """Backward-in-tau solution record.

    ``coeffs[i]`` is c(tau[i]); tau descends from 0 to tau_min.  ``forcing``
    stores F(tau_i, c_i) rowwise, i.e. the xi-coefficients of the
    perturbation at each stored time ``t[i]``: the forcing the first RK4
    stage of the dtau march evaluated at that row, or for rows given to
    :func:`trajectory_from_rows` the same forcing evaluated once per row.
    ``rule`` is the run's rule of :func:`_check_inputs`, None for the
    unperturbed flow.
    ``halving_error`` and ``admissibility_ratio`` are the gate values the
    run measured, each None where it measured none.
    """

    basis: OUBasis
    rule: Collocation | MatchedBlocks | None
    tau: np.ndarray
    coeffs: np.ndarray
    forcing: np.ndarray
    perturbation: PerturbationSpec
    dtau: float
    halving_error: float | None = None
    admissibility_ratio: float | None = None
    t: np.ndarray = field(init=False)  # e^tau row by row, the one time grid

    def __post_init__(self):
        self.t = np.array([math.exp(tau) for tau in self.tau])

    @property
    def size(self) -> int:
        return len(self.tau)

    def truncation_shares(self) -> np.ndarray:
        """Row by row, the top-gamma shell's share of ||c|| (0 where c = 0).

        The shell is every mode within 1e-9 of the largest gamma; a large
        share at tau_min marks a run the basis does not resolve.
        """
        top = self.basis.gammas >= self.basis.gammas.max() - 1e-9
        total = np.linalg.norm(self.coeffs, axis=1)
        shell = np.linalg.norm(self.coeffs[:, top], axis=1)
        return np.divide(shell, total, out=np.zeros_like(total), where=total > 0)

    def row_at_t(self, t: float) -> int:
        """Nearest stored row to time t; t must lie inside the grid span."""
        tau = math.log(t)
        if tau > self.tau[0] + 1e-12 or tau < self.tau[-1] - 1e-12:
            raise ConfigurationError(f"t={t} outside the stored range")
        return int(np.argmin(np.abs(self.tau - tau)))


def build_initial(basis: OUBasis, pairs) -> np.ndarray:
    """Initial coefficient vector at tau = 0 from (mode index, coefficient)
    pairs, each index in 0..K-1 and given once."""
    c, seen = np.zeros(basis.size), set()
    for k, coeff in pairs:
        if not 0 <= k < basis.size:
            raise ConfigurationError(f"mode index {k} outside 0..{basis.size - 1}")
        if k in seen:
            raise ConfigurationError(f"mode index {k} given twice")
        seen.add(k)
        c[k] = coeff
    return c


def _march_rk4(taus, c0, f):
    """Classical RK4 over the grid ``taus`` for f(tau, c) -> (dc/dtau, F).

    Returns (coefficients, forcing), both one row per grid point; a row's
    forcing is the F of the first stage evaluated there (the last row's
    first stage is evaluated for its F alone).
    """
    c = np.empty((len(taus), len(c0)))
    forcing = np.empty_like(c)
    c[0] = c0
    k1, forcing[0] = f(taus[0], c0)
    for i in range(len(taus) - 1):
        h = taus[i + 1] - taus[i]  # negative
        t0 = taus[i]
        k2, _ = f(t0 + 0.5 * h, c[i] + 0.5 * h * k1)
        k3, _ = f(t0 + 0.5 * h, c[i] + 0.5 * h * k2)
        k4, _ = f(t0 + h, c[i] + h * k3)
        c[i + 1] = c[i] + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k1, forcing[i + 1] = f(taus[i + 1], c[i + 1])
    return c, forcing


def _march_linear(taus, c0, gammas, pert, blocks):
    """The RK4 march of :func:`_march_rk4` for a linear h, by matrices, of
    c0 = c[live] with eigenvalues ``gammas`` on the live modes of ``blocks``.

    There dc/dtau = A(tau) c with A = Gamma - t M(t), t = e^tau, so each RK4
    step is c_{i+1} = c_i + B_i c_i with h = tau_{i+1} - tau_i and
    B_i = h/6 (A0 + 2 S2 + 2 S3 + S4), S2 = A_{1/2} (I + h/2 A0),
    S3 = A_{1/2} (I + h/2 S2), S4 = A_1 (I + h S3), where A0, A_{1/2} and
    A_1 are A at tau_i, tau_i + h/2 and tau_i + h.  The stage matrices are
    built MARCH_BLOCK steps at a time; each row keeps F_i = M(t_i) c_i.
    """
    n = len(taus) - 1
    c, forcing = np.empty((n + 1, len(c0))), np.empty((n + 1, len(c0)))
    c[0] = c0
    gamma = np.diag(gammas)
    for lo in range(0, n, MARCH_BLOCK):
        hi = min(lo + MARCH_BLOCK, n)
        t0 = taus[lo:hi]
        h = taus[lo + 1:hi + 1] - t0
        ts = np.array([math.exp(tau) for tau in np.concatenate([t0, t0 + 0.5 * h, t0 + h])])
        M = linear_forcing_matrices(ts, pert, blocks)
        A0, Ah, A1 = np.split(gamma - ts[:, None, None] * M, 3)
        h = h[:, None, None]
        S2 = Ah + 0.5 * h * (Ah @ A0)
        S3 = Ah + 0.5 * h * (Ah @ S2)
        S4 = A1 + h * (A1 @ S3)
        B = (h / 6.0) * (A0 + 2.0 * S2 + 2.0 * S3 + S4)
        for i in range(lo, hi):  # the increment, as RK4 adds it: never (I + B) c
            c[i + 1] = c[i] + B[i - lo] @ c[i]
        forcing[lo:hi] = (M[:hi - lo] @ c[lo:hi, :, None])[..., 0]
    M = linear_forcing_matrices([math.exp(taus[n])], pert, blocks)
    forcing[n] = (M @ c[n:, :, None])[0, :, 0]
    return c, forcing


def _row_forcing(ts, rows, pert, rule) -> np.ndarray:
    """F(t_i, c_i) on the live modes of ``rule`` of the rows c_i = c[live]:
    M(t_i) c_i for a linear h, whose M(t_i) are built MARCH_BLOCK rows at a
    time, else one :func:`forcing_coefficients` call per row."""
    if pert.kind != "linear":
        return np.array([forcing_coefficients(c, pert, rule) for c in rows])
    F = np.empty_like(rows)
    for lo in range(0, len(ts), MARCH_BLOCK):
        M = linear_forcing_matrices(ts[lo:lo + MARCH_BLOCK], pert, rule)
        F[lo:lo + MARCH_BLOCK] = (M @ rows[lo:lo + MARCH_BLOCK, :, None])[..., 0]
    return F


def tau_grid(tau_min: float, dtau: float) -> tuple[np.ndarray, float]:
    """(taus, step): the stored rows from tau = 0 down to tau_min, in
    n = ceil(-tau_min / dtau) equal steps of ``step`` <= dtau.  A dtau
    outside (0, DTAU_MAX] or a tau_min outside [TAU_FLOOR, 0) raises
    ConfigurationError."""
    if dtau <= 0.0 or dtau > DTAU_MAX:
        raise ConfigurationError(f"dtau must lie in (0, {DTAU_MAX}], got {dtau}")
    if tau_min >= 0.0 or tau_min < TAU_FLOOR - 1e-12:
        raise ConfigurationError(f"tau_min must lie in [log(1e-6), 0) = "
                                 f"[{TAU_FLOOR}, 0), got {tau_min}")
    n = max(1, math.ceil(-tau_min / dtau - 1e-12))
    return np.linspace(0.0, tau_min, n + 1), -tau_min / n


def _check_inputs(basis, pert, rows, n_r):
    """(rule, admissibility ratio) of a run on ``rows`` past its input
    gates, each None where the kind reads none: the n_r-node
    :func:`ou_basis.matched_blocks` of the rows for a linear h, at whose
    radii h must pass :func:`check_h_admissible`, and for a semilinear term
    on :func:`radial_invariant` rows; any other semilinear run forces on the
    n_r-node :func:`ou_basis.build_collocation`.
    """
    if pert.kind == "none":
        return None, None
    if pert.kind == "semilinear":
        if radial_invariant(basis, rows):
            return matched_blocks(basis, rows, n_r), None
        return build_collocation(basis, n_r=n_r), None
    blocks = matched_blocks(basis, rows, n_r)
    ok, failures, ratio = check_h_admissible(pert.h_radial, pert.C_h, pert.eps_h,
                                             blocks.radii)
    if not ok:
        raise ConfigurationError(
            f"perturbing potential violates the admissibility bound at "
            f"{len(failures)} sampled (t, radius) pairs, e.g. {failures[0]}"
        )
    return blocks, ratio


def trajectory_from_rows(
    basis: OUBasis,
    coeffs: np.ndarray,
    pert: PerturbationSpec,
    tau_min: float,
    dtau: float,
    n_r: int = 64,
) -> Trajectory:
    """Trajectory of given rows, c(tau_i) = coeffs[i] on the
    ``tau_grid(tau_min, dtau)`` that :func:`integrate_backward` marches,
    e.g. read back from the trajectory.csv of an earlier run.

    The rows pass the gates of :func:`integrate_backward` and must match
    the grid's length and the basis, else ConfigurationError.  A perturbed
    kind gets the forcing of :func:`_row_forcing` at (t[i], coeffs[i]) on
    the same rule, bit for bit what the march stored there, and 0 off its
    live modes.
    """
    taus, step = tau_grid(tau_min, dtau)
    if coeffs.shape != (len(taus), basis.size):
        raise ConfigurationError(f"{coeffs.shape} rows for a grid of {len(taus)} x {basis.size}")
    rule, ratio = _check_inputs(basis, pert, coeffs, n_r)
    traj = Trajectory(basis, rule, taus, coeffs, np.zeros_like(coeffs), pert, step,
                      admissibility_ratio=ratio)
    if rule is not None:  # C-ordered rows as the march's: BLAS sums strided ones otherwise
        traj.forcing[:, rule.live] = _row_forcing(traj.t, coeffs.take(rule.live, axis=1),
                                                  pert, rule)
    return traj


def integrate_backward(
    basis: OUBasis,
    c0: np.ndarray,
    tau_min: float,
    dtau: float,
    pert: PerturbationSpec,
    n_r: int = 64,
) -> Trajectory:
    """March c from tau = 0 down to tau_min on :func:`tau_grid`, on the
    rule and past the gates of :func:`_check_inputs`.

    The unperturbed flow uses the exact propagator c0 e^{gamma tau} with
    zero forcing.  Perturbed kinds march c[live] of the rule's live modes
    by RK4 at dtau and keep its rows, with the forcing its first stages
    evaluated there; every other mode stays exactly 0.  One RK4 march on
    every second row (and the last row when n is odd) at 2 dtau verifies
    them: the sup of |coarse - kept| over the coarse rows
    (``halving_error``) must stay <= 1e-8, else AccuracyError suggests a
    smaller step.  A linear h marches by step matrices
    (:func:`_march_linear`) and makes no forcing call: the two marches
    build M at 3n + 3 ceil(n/2) + 2 times.  The semilinear term makes
    4n + 4 ceil(n/2) + 2 forcing calls for n steps.
    """
    c0 = np.asarray(c0, dtype=float)
    if len(c0) != basis.size:
        raise ConfigurationError("initial coefficient vector does not match the basis")
    taus, step = tau_grid(tau_min, dtau)
    rule, ratio = _check_inputs(basis, pert, c0[None], n_r)
    if rule is None:
        coeffs = c0[None, :] * np.exp(np.outer(taus, basis.gammas))
        return Trajectory(basis, None, taus, coeffs, np.zeros_like(coeffs), pert, step)

    c0, gammas = c0[rule.live], basis.gammas[rule.live]
    if pert.kind == "linear":
        march = lambda grid: _march_linear(grid, c0, gammas, pert, rule)
    else:
        def f(tau, c):  # (Gamma c - t F, F) at t = e^tau
            F = forcing_coefficients(c, pert, rule)
            return gammas * c - math.exp(tau) * F, F
        march = lambda grid: _march_rk4(grid, c0, f)
    c, F = march(taus)
    if not np.all(np.isfinite(c)):
        raise AccuracyError(
            "trajectory left the finite range (perturbation too strong for "
            "backward continuation)",
            suggestion=f"dtau <= {step / 4.0}",
        )
    # the 2 dtau grid: every second row, and the last one when n is odd
    # (np.unique would import numpy.ma into every perturbed command)
    n = len(taus) - 1
    rows2 = [*range(0, n, 2), n]
    coarse, _ = march(taus[rows2])
    err = float(np.max(np.abs(coarse - c[rows2])))
    if not math.isfinite(err) or err > HALVING_TOL:
        raise AccuracyError(
            f"step-halving disagreement {err:.3e} exceeds {HALVING_TOL}",
            suggestion=f"dtau <= {step / 4.0}",
        )
    coeffs, forcing = np.zeros((n + 1, basis.size)), np.zeros((n + 1, basis.size))
    coeffs[:, rule.live], forcing[:, rule.live] = c, F
    return Trajectory(basis, rule, taus, coeffs, forcing, pert, step,
                      halving_error=err, admissibility_ratio=ratio)


def check_h_admissible(
    h_radial: Callable,
    C_h: float,
    eps_h: float,
    radii: np.ndarray,
) -> tuple[bool, list, float]:
    """Sample |h_radial(r, t)| <= C_h (1 + r^{-2+eps_h}) at r = sqrt(t) r_i
    for the t = 1 node radii r_i, at every time of ADMISSIBILITY_TIMES: h
    and its bound take one value on each node sphere.

    Returns (ok, failures, worst) with failures listing (t, node index i,
    |h|, bound) and worst the largest sampled |h| / bound.
    """
    if not 0.0 < eps_h < 2.0:
        raise ConfigurationError(f"eps_h must lie in (0, 2), got {eps_h}")
    ts = ADMISSIBILITY_TIMES[:, None]
    r = np.sqrt(ts) * radii
    bound = C_h * (1.0 + r ** (-2.0 + eps_h))
    vals = np.abs(np.asarray(h_radial(r, ts), dtype=float))
    with np.errstate(divide="ignore"):  # C_h = 0: a nonzero h is infinitely over
        ratio = np.divide(vals, bound, out=np.zeros_like(vals), where=vals > 0.0)
    failures = [(float(ts[j, 0]), int(i), float(vals[j, i]), float(bound[j, i]))
                for j, i in zip(*np.nonzero(vals > bound * (1.0 + 1e-12)))]
    return not failures, failures, float(ratio.max())
