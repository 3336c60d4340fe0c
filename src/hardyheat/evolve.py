"""Spectral Galerkin integrator in self-similar variables.

With v(x, t) = u(sqrt(t) x, t) and tau = log t, the flow becomes

    dc_k/dtau = gamma_k c_k - e^tau F_k(tau, c),
    F_k = < f(e^{tau/2} . , e^tau, v), V_tilde_k >_L,

which is diagonal plus a small forcing; integration runs backward from
tau = 0 toward the singularity.  The unperturbed flow is advanced by its
exact diagonal propagator e^{gamma_k dtau} and evaluates no forcing, so it
builds no collocation (:func:`collocation_for`); perturbed kinds use classical
RK4 at dtau, verified against one RK4 march at 2 dtau on every second row.
Every stored row keeps the forcing coefficients that the first RK4 stage of
the dtau march evaluated there: they are exactly the xi_{m,k} data the
asymptotic coefficient formulas integrate later.  Stored rows read back
from an earlier run go through the same input gates and get the same
forcing, one evaluation per row, without a march.

A linear h is a radial profile h(|x|, t), so it acts on c as a K x K
matrix M(t), known in advance at every stage time: its RK4 step is one
increment matrix B_i and the march is c_{i+1} = c_i + B_i c_i
(:func:`_march_linear`), with the stage and row matrices built in stacked
blocks and no forcing evaluated per stage.  The semilinear term is
evaluated at the nodes at every stage (:func:`_march_rk4`).

Under a constant potential both forcings map radial functions to radial
functions, so data on the degree-0 modes never leaves their span
(:func:`radial_invariant`); such a run forces on the radial rule's n_r
nodes instead of the product rule's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AccuracyError, ConfigurationError
from .ou_basis import Collocation, OUBasis, build_collocation, radial_modes

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
    ``h_radial``, which turns the forcing into a K x K matrix, and the
    admissibility bound |h| <= C_h (1 + |x|^{-2+eps_h}); 'semilinear' with
    f = eps |s|^{p-1} s, 1 < p < (N+2)/(N-2).  The profile is called
    elementwise on arrays, r of shape (n, n_r) with t of shape (n, 1).
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


def radial_invariant(basis: OUBasis, c0: np.ndarray) -> bool:
    """True when a perturbed run stays in the span of the radial (degree-0)
    modes: a constant potential and c0 exactly zero on every other mode.
    Such a run may use the radial rule (``build_collocation(basis,
    radial=True)``)."""
    return basis.spectrum.potential.is_constant and not np.any(c0[~radial_modes(basis)])


def collocation_for(basis: OUBasis, pert: PerturbationSpec, c0: np.ndarray,
                    n_r: int = 64) -> Collocation | None:
    """The collocation a run forces on: None for the unperturbed flow, which
    reads none, else :func:`ou_basis.build_collocation` with n_r radial
    nodes, on the radial rule when :func:`radial_invariant` holds."""
    if pert.kind == "none":
        return None
    return build_collocation(basis, n_r=n_r, radial=radial_invariant(basis, c0))


def linear_forcing_matrices(ts, pert: PerturbationSpec, col: Collocation) -> np.ndarray:
    """M(t) for each t of ``ts``, stacked (len(ts), K, K), with
    M(t) @ c = <h(sqrt(t) . , t) v, V_tilde_k>_L for the spec's linear h.

    M = (R diag(w_r h(sqrt(t) r, t)) R^T) o A, with R = col.radial_table,
    w_r the radial weights and A = col.angular_gram: the nodal quadrature
    summed radius by radius and direction by direction.  Each slice is a
    product of its own, so it does not depend on the other times in ``ts``.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1, 1)
    R = col.radial_table
    hr = np.asarray(pert.h_radial(np.sqrt(ts) * col.rule.radial.nodes_r, ts), dtype=float)
    return ((R * (col.rule.radial_weights * hr)[:, None, :]) @ R.T) * col.angular_gram


def forcing_coefficients(c: np.ndarray, pert: PerturbationSpec, col: Collocation) -> np.ndarray:
    """F_k = < eps |v|^{p-1} v, V_tilde_k >_L of the semilinear term, which
    depends on no time: v = col.reconstruct(c) at the nodes, projected back.
    A linear h acts through :func:`linear_forcing_matrices` instead, and
    the unperturbed flow evaluates no forcing.
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
    ``collocation`` is the rule the forcing was evaluated on; it is None
    exactly for the unperturbed flow, which evaluates no forcing.
    ``halving_error`` and ``admissibility_ratio`` are the gate values the
    run measured, each None where it measured none.
    """

    basis: OUBasis
    collocation: Collocation | None
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
    pairs, each index in 0..K-1."""
    c = np.zeros(basis.size)
    for k, coeff in pairs:
        if not 0 <= k < basis.size:
            raise ConfigurationError(f"mode index {k} outside 0..{basis.size - 1}")
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


def _march_linear(taus, c0, pert, basis, col):
    """The RK4 march of :func:`_march_rk4` for a linear h, by matrices.

    There dc/dtau = A(tau) c with A = Gamma - t M(t), t = e^tau, so each RK4
    step is c_{i+1} = c_i + B_i c_i with h = tau_{i+1} - tau_i and
    B_i = h/6 (A0 + 2 S2 + 2 S3 + S4), S2 = A_{1/2} (I + h/2 A0),
    S3 = A_{1/2} (I + h/2 S2), S4 = A_1 (I + h S3), where A0, A_{1/2} and
    A_1 are A at tau_i, tau_i + h/2 and tau_i + h.  The stage matrices are
    built MARCH_BLOCK steps at a time; each row keeps F_i = M(t_i) c_i.
    """
    n = len(taus) - 1
    c = np.empty((n + 1, len(c0)))
    forcing = np.empty_like(c)
    c[0] = c0
    gamma = np.diag(basis.gammas)
    for lo in range(0, n, MARCH_BLOCK):
        hi = min(lo + MARCH_BLOCK, n)
        t0 = taus[lo:hi]
        h = taus[lo + 1:hi + 1] - t0
        ts = np.array([math.exp(tau) for tau in np.concatenate([t0, t0 + 0.5 * h, t0 + h])])
        M = linear_forcing_matrices(ts, pert, col)
        A0, Ah, A1 = np.split(gamma - ts[:, None, None] * M, 3)
        h = h[:, None, None]
        S2 = Ah + 0.5 * h * (Ah @ A0)
        S3 = Ah + 0.5 * h * (Ah @ S2)
        S4 = A1 + h * (A1 @ S3)
        B = (h / 6.0) * (A0 + 2.0 * S2 + 2.0 * S3 + S4)
        for i in range(lo, hi):  # the increment, as RK4 adds it: never (I + B) c
            c[i + 1] = c[i] + B[i - lo] @ c[i]
        forcing[lo:hi] = (M[:hi - lo] @ c[lo:hi, :, None])[..., 0]
    forcing[n] = _row_forcing([math.exp(taus[n])], c[n:], pert, col)[0]
    return c, forcing


def _row_forcing(ts, coeffs, pert, col) -> np.ndarray:
    """F(t_i, c_i) row by row: M(t_i) c_i for a linear h, whose M(t_i) are
    built MARCH_BLOCK rows at a time, else one :func:`forcing_coefficients`
    call per row."""
    if pert.kind != "linear":
        return np.array([forcing_coefficients(c, pert, col) for c in coeffs])
    F = np.empty_like(coeffs)
    for lo in range(0, len(ts), MARCH_BLOCK):
        M = linear_forcing_matrices(ts[lo:lo + MARCH_BLOCK], pert, col)
        F[lo:lo + MARCH_BLOCK] = (M @ coeffs[lo:lo + MARCH_BLOCK, :, None])[..., 0]
    return F


def tau_grid(tau_min: float, dtau: float) -> tuple[np.ndarray, float]:
    """(taus, step): the stored rows from tau = 0 down to tau_min, in
    n = ceil(-tau_min / dtau) equal steps of ``step`` <= dtau."""
    n = max(1, math.ceil(-tau_min / dtau - 1e-12))
    return np.linspace(0.0, tau_min, n + 1), -tau_min / n


def _check_inputs(basis, col, rows, tau_min, dtau, pert) -> float | None:
    """The input gates of a trajectory: the dtau and tau_min ranges, the
    span of a radial collocation (``col`` is None for the unperturbed flow)
    and, for a linear h,
    :func:`check_h_admissible` with the spec's C_h and eps_h.  Returns the
    admissibility ratio (None unless linear).

    A radial collocation sees only the radial span: a non-constant
    potential or a nonzero non-radial coefficient in ``rows`` raises
    ConfigurationError.
    """
    if col is not None and col.radial:
        if not basis.spectrum.potential.is_constant:
            raise ConfigurationError("the radial rule needs a constant potential")
        if np.any(rows[:, ~radial_modes(basis)]):
            raise ConfigurationError("the radial rule needs data on the radial modes only")
    if dtau <= 0.0 or dtau > DTAU_MAX:
        raise ConfigurationError(f"dtau must lie in (0, {DTAU_MAX}], got {dtau}")
    if tau_min >= 0.0 or tau_min < TAU_FLOOR - 1e-12:
        raise ConfigurationError(
            f"tau_min must lie in [log(1e-6), 0) = [{TAU_FLOOR}, 0), got {tau_min}"
        )
    if pert.kind != "linear":
        return None
    ok, failures, ratio = check_h_admissible(pert.h_radial, pert.C_h, pert.eps_h, col)
    if not ok:
        raise ConfigurationError(
            f"perturbing potential violates the admissibility bound at "
            f"{len(failures)} sampled (t, radius) pairs, e.g. {failures[0]}"
        )
    return ratio


def trajectory_from_rows(
    basis: OUBasis,
    col: Collocation | None,
    coeffs: np.ndarray,
    pert: PerturbationSpec,
    tau_min: float,
    dtau: float,
) -> Trajectory:
    """Trajectory of given rows, c(tau_i) = coeffs[i] on the
    ``tau_grid(tau_min, dtau)`` that :func:`integrate_backward` marches,
    e.g. read back from the trajectory.csv of an earlier run.

    Runs the input gates of :func:`integrate_backward` on (tau_min, dtau)
    and the rows; rows that do not match the grid's length and the basis
    raise ConfigurationError.  A perturbed kind gets the forcing of
    :func:`_row_forcing` at (t[i], coeffs[i]), bit for bit what the march
    stored there.  The unperturbed flow gets zero forcing and no
    collocation: ``col`` is not read, and may be None.
    """
    if pert.kind == "none":
        col = None
    ratio = _check_inputs(basis, col, coeffs, tau_min, dtau, pert)
    taus, step = tau_grid(tau_min, dtau)
    if coeffs.shape != (len(taus), basis.size):
        raise ConfigurationError(f"{coeffs.shape} rows for a grid of {len(taus)} x {basis.size}")
    traj = Trajectory(basis, col, taus, coeffs, np.zeros_like(coeffs), pert, step,
                      admissibility_ratio=ratio)
    if pert.kind != "none":
        traj.forcing = _row_forcing(traj.t, coeffs, pert, col)
    return traj


def integrate_backward(
    basis: OUBasis,
    c0: np.ndarray,
    tau_min: float,
    dtau: float,
    pert: PerturbationSpec,
    col: Collocation | None = None,
) -> Trajectory:
    """March c from tau = 0 down to tau_min on :func:`tau_grid`.

    Without ``col`` a perturbed run builds :func:`collocation_for` (the
    radial rule when :func:`radial_invariant` holds, else the product
    rule); a radial ``col`` with inputs outside the radial span raises
    ConfigurationError.  The unperturbed flow builds and keeps no
    collocation, and ignores ``col``.
    A linear h must first pass :func:`check_h_admissible` with the spec's
    C_h and eps_h, else ConfigurationError; its worst |h| / bound ratio is
    kept as ``Trajectory.admissibility_ratio``.  The unperturbed flow uses
    the exact diagonal propagator c0 e^{gamma tau} and stores zero forcing;
    perturbed kinds march RK4 at dtau and keep its rows, with the forcing
    its first stages evaluated there.  One RK4 march on every second row
    (and the last row when n is odd) at 2 dtau verifies them: the sup of
    |coarse - kept| over the coarse rows must stay <= 1e-8, else
    AccuracyError suggests a smaller step; the measured sup is kept as
    ``Trajectory.halving_error``.  A linear h marches by step matrices
    (:func:`_march_linear`) and makes no forcing call: the two marches build
    M at 3n + 3 ceil(n/2) + 2 times.  The semilinear term makes
    4n + 4 ceil(n/2) + 2 forcing calls for n steps.
    """
    c0 = np.asarray(c0, dtype=float)
    if len(c0) != basis.size:
        raise ConfigurationError("initial coefficient vector does not match the basis")
    if col is None or pert.kind == "none":
        col = collocation_for(basis, pert, c0)
    ratio = _check_inputs(basis, col, c0[None], tau_min, dtau, pert)
    taus, step = tau_grid(tau_min, dtau)
    if pert.kind == "none":
        coeffs = c0[None, :] * np.exp(np.outer(taus, basis.gammas))
        return Trajectory(basis, col, taus, coeffs, np.zeros_like(coeffs), pert, step)

    if pert.kind == "linear":
        march = lambda grid: _march_linear(grid, c0, pert, basis, col)
    else:
        def f(tau, c):  # (Gamma c - t F, F) at t = e^tau
            F = forcing_coefficients(c, pert, col)
            return basis.gammas * c - math.exp(tau) * F, F
        march = lambda grid: _march_rk4(grid, c0, f)
    coeffs, forcing = march(taus)
    if not np.all(np.isfinite(coeffs)):
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
    err = float(np.max(np.abs(coarse - coeffs[rows2])))
    if not math.isfinite(err) or err > HALVING_TOL:
        raise AccuracyError(
            f"step-halving disagreement {err:.3e} exceeds {HALVING_TOL}",
            suggestion=f"dtau <= {step / 4.0}",
        )
    return Trajectory(basis, col, taus, coeffs, forcing, pert, step,
                      halving_error=err, admissibility_ratio=ratio)


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
    c = build_initial(basis, terms)  # rejects a mode index outside 0..K-1
    return np.array([x * t ** g for x, g in zip(c, basis.gammas)])


def check_h_admissible(
    h_radial: Callable,
    C_h: float,
    eps_h: float,
    col: Collocation,
) -> tuple[bool, list, float]:
    """Sample |h_radial(r, t)| <= C_h (1 + r^{-2+eps_h}) at the radii
    r = sqrt(t) r_i of the collocation's radial nodes r_i, at every time of
    ADMISSIBILITY_TIMES: h and its bound take one value on each node sphere.

    Returns (ok, failures, worst) with failures listing (t, radial node
    index i, |h|, bound) and worst the largest sampled |h| / bound.
    """
    if not 0.0 < eps_h < 2.0:
        raise ConfigurationError(f"eps_h must lie in (0, 2), got {eps_h}")
    ts = ADMISSIBILITY_TIMES[:, None]
    r = np.sqrt(ts) * col.rule.radial.nodes_r
    bound = C_h * (1.0 + r ** (-2.0 + eps_h))
    vals = np.abs(np.asarray(h_radial(r, ts), dtype=float))
    with np.errstate(divide="ignore"):  # C_h = 0: a nonzero h is infinitely over
        ratio = np.divide(vals, bound, out=np.zeros_like(vals), where=vals > 0.0)
    failures = [(float(ts[j, 0]), int(i), float(vals[j, i]), float(bound[j, i]))
                for j, i in zip(*np.nonzero(vals > bound * (1.0 + 1e-12)))]
    return not failures, failures, float(ratio.max())
