"""Asymptotic profile coefficients by Cauchy-type integral formulas.

For the limiting eigenvalue gamma with index set J0, each coefficient obeys

    beta_{m,k} = Lambda^{-2 gamma} c_{m,k}(Lambda^2)
                 + 2 int_0^Lambda s^{1 - 2 gamma} xi_{m,k}(s) ds,

independent of Lambda, where xi_{m,k}(s) is the forcing projection stored
at trajectory time t = s^2.  In tau = log t the stored range of the
integral is int s^{2 - 2 gamma} xi dtau, a smooth integrand on the uniform
row grid, taken by composite Simpson in tau; the sub-grid piece [0, s_min]
comes from a local power-law model whose window sensitivity drives the
resolution gate.  The direct route lambda^{-2 gamma} c(lambda^2) -> beta
provides the cross-validating limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvariantViolationError, ResolutionError
from .evolve import Trajectory

TAIL_REL_TOL = 1e-8


@dataclass
class BetaTable:
    """Extracted coefficients over the limiting eigenspace."""

    gamma: float
    J0: list                      # [(m, k)] angular/radial index pairs
    beta: dict                    # (m, k) -> float
    lambda_used: float
    tail_estimate: float
    variation_over_Lambda: float | None = None
    lambda_grid: list = field(default_factory=list)

    def values(self) -> np.ndarray:
        return np.asarray([self.beta[mk] for mk in self.J0])

    def to_jsonable(self) -> dict:
        return {
            "gamma": self.gamma,
            "J0": [list(mk) for mk in self.J0],
            "beta": {f"{m},{k}": v for (m, k), v in self.beta.items()},
            "lambda_used": self.lambda_used,
            "tail_estimate": self.tail_estimate,
            "variation_over_Lambda": self.variation_over_Lambda,
            "lambda_grid": list(self.lambda_grid),
        }


def _j0_basis_indices(traj: Trajectory, J0) -> list:
    out = []
    for m, k in J0:
        out.append(traj.basis.mode_index(j=k, n=m))
    return out


def _snap_lambda(traj: Trajectory, lam: float) -> tuple[int, float]:
    """Row whose time is closest to lam^2; returns (row, exact lambda)."""
    i = traj.row_at_t(lam * lam)
    return i, math.sqrt(traj.t[i])


def _direct_term(traj: Trajectory, row: int, kb: int, gamma: float) -> float:
    """lambda^{-2 gamma} c_kb(lambda^2) at a stored row.

    The unperturbed flow keeps lambda^{-2 gamma} c_kb(lambda^2) = c_kb(1) on
    a mode at the limiting eigenvalue, so that mode returns row 0 (tau = 0),
    the initial coefficient exactly.
    """
    if traj.perturbation.kind == "none" and traj.basis.gammas[kb] == gamma:
        return float(traj.coeffs[0, kb])
    return math.exp(-gamma * traj.tau[row]) * float(traj.coeffs[row, kb])


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson of the equally spaced samples y at step h.

    An odd panel count ends with one Simpson 3/8 panel; a single panel is
    the trapezoid.
    """
    n = len(y) - 1
    if n == 1:
        return 0.5 * h * float(y[0] + y[1])
    m = n - 3 if n % 2 else n  # the Simpson panels end at sample m
    total = 0.0
    if m:
        total = h / 3.0 * float(y[0] + 4.0 * np.sum(y[1:m:2]) + 2.0 * np.sum(y[2:m:2]) + y[m])
    if m < n:
        total += 3.0 * h / 8.0 * float(y[m] + 3.0 * (y[m + 1] + y[m + 2]) + y[m + 3])
    return total


def _power_tail(s: np.ndarray, integrand: np.ndarray):
    """int_0^{s_min} of a local power-law model A s^p fitted on the lowest
    decade; uncertainty = sensitivity to halving the fit window.

    The a-priori forcing bound guarantees integrand ~ s^{-1 + dt} near 0,
    so a log-log fit on the resolved tail is the right extrapolant; a fit
    with p <= -1 + margin (non-integrable) or sign-changing data cannot be
    extrapolated and is priced as a full-size uncertainty.
    """
    s_min = s[0]
    decade = s <= 10.0 * s_min
    vals = integrand[decade]
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0.0, 0.0
    if np.count_nonzero(decade) < 4:
        return 0.0, scale * s_min  # too few resolved rows for a model
    sign = np.sign(vals[np.argmax(np.abs(vals))])
    if np.any(sign * vals <= 0.0):
        # sign change in the tail window: no power model, bound the panel
        return 0.0, scale * s_min

    def fit(mask):
        slope, intercept = np.polyfit(np.log(s[mask]), np.log(sign * integrand[mask]), 1)
        if slope <= -0.99:
            return None
        return sign * math.exp(intercept) * s_min ** (slope + 1.0) / (slope + 1.0)

    tail_full = fit(decade)
    half = s <= math.sqrt(10.0) * s_min
    tail_half = fit(half) if np.count_nonzero(half) >= 4 else tail_full
    if tail_full is None or tail_half is None:
        return 0.0, scale * s_min
    return tail_half, abs(tail_full - tail_half)


def beta_integral(traj: Trajectory, Lambda: float, J0, gamma: float) -> BetaTable:
    """Coefficients beta_{m,k} from data at Lambda plus the forcing integral.

    Lambda is snapped to the nearest stored time (the formula holds for
    every admissible Lambda).  Raises ResolutionError when the sub-grid
    tail uncertainty exceeds 1e-8 of the coefficient scale.
    """
    row, lam = _snap_lambda(traj, Lambda)
    idx = _j0_basis_indices(traj, J0)
    beta = {}
    tail_worst = 0.0
    # tau descends with the row index: rows row..end, in ascending tau
    rows_below = np.arange(traj.size - 1, row - 1, -1)
    if traj.perturbation.kind != "none" and len(rows_below) < 2:
        raise ConfigurationError(
            f"Lambda = {Lambda} leaves {len(rows_below)} stored row(s) at or below "
            "Lambda^2, too few for the forcing integral; lower tau_min or raise Lambda"
        )
    s = np.exp(0.5 * traj.tau[rows_below])  # ascending
    for (m, k), kb in zip(J0, idx):
        direct = _direct_term(traj, row, kb, gamma)
        if traj.perturbation.kind == "none":
            beta[(m, k)] = float(direct)
            continue
        xi = traj.forcing[rows_below, kb]
        integral = _simpson(s ** (2.0 - 2.0 * gamma) * xi, traj.dtau)  # = 2 s^{1-2 gamma} xi ds
        tail_val, tail_unc = _power_tail(s, 2.0 * s ** (1.0 - 2.0 * gamma) * xi)
        beta[(m, k)] = float(direct + integral + tail_val)
        tail_worst = max(tail_worst, tail_unc)
    scale = max(abs(v) for v in beta.values())
    if traj.perturbation.kind != "none" and scale > 0 and tail_worst > TAIL_REL_TOL * scale:
        raise ResolutionError(
            f"sub-grid forcing tail uncertain by {tail_worst:.3e} "
            f"(> {TAIL_REL_TOL} relative); extend tau_min or shrink dtau"
        )
    return BetaTable(gamma, list(J0), beta, lam, tail_worst)


def _richardson_limit(lams: np.ndarray, seq: np.ndarray, dtilde: float) -> float:
    """Extrapolated limit of seq(lam) = beta + A lam^p as lam -> 0.

    On a (near-)geometric grid the exponent is measured from successive
    differences, which beats trusting the declared worst-case dtilde; the
    extrapolation falls back to the smallest-lambda value whenever the
    difference pattern does not support a power model.
    """
    if len(seq) < 2:
        return float(seq[0])
    d1 = seq[1] - seq[0]
    if d1 == 0.0:
        return float(seq[0])
    if len(seq) >= 3:
        ratios = lams[1:] / lams[:-1]
        geometric = np.max(np.abs(ratios - ratios[0])) < 1e-2 * ratios[0]
        d2 = seq[2] - seq[1]
        if geometric and d1 != 0.0 and d2 / d1 > 0.0:
            rho = float(ratios[0])
            p = math.log(d2 / d1) / math.log(rho)
            if p > 0.05:
                return float(seq[0] - d1 / (rho**p - 1.0))
    # two-point Richardson at the declared tail exponent
    w1, w2 = lams[0] ** dtilde, lams[1] ** dtilde
    return float((seq[0] * w2 - seq[1] * w1) / (w2 - w1))


def beta_direct(traj: Trajectory, lambda_grid, J0, gamma: float):
    """Blow-up sequences lambda^{-2 gamma} c(lambda^2) with extrapolated limits.

    ``lambda_grid`` None takes the deepest stored lambda and three doublings.
    Returns {(m, k): (lambdas, sequence, limit)}.
    """
    if lambda_grid is None:
        lam_min = math.exp(0.5 * traj.tau[-1])
        lambda_grid = [lam_min * 2.0**kk for kk in range(4)]
    idx = _j0_basis_indices(traj, J0)
    dtilde = traj.perturbation.delta_tilde(traj.basis.N)
    out = {}
    for (m, k), kb in zip(J0, idx):
        lams, seq = [], []
        for lam in sorted(lambda_grid):
            row, lam_used = _snap_lambda(traj, lam)
            lams.append(lam_used)
            seq.append(_direct_term(traj, row, kb, gamma))
        lams_a, seq_a = np.asarray(lams), np.asarray(seq)
        if traj.perturbation.kind == "none":
            limit = float(seq_a[0])
        else:
            limit = _richardson_limit(lams_a, seq_a, dtilde)
        out[(m, k)] = (lams_a, seq_a, limit)
    return out


def lambda_independence(traj: Trajectory, Lambda_grid, J0, gamma: float):
    """(max relative spread over J0, BetaTables in ascending Lambda).

    The first table, at the smallest Lambda, carries the spread and the
    snapped Lambda grid.  Nontrivial runs must produce at least one nonzero
    coefficient.
    """
    tables = [beta_integral(traj, lam, J0, gamma) for lam in sorted(Lambda_grid)]
    values = np.asarray([tb.values() for tb in tables])  # (n_lambda, |J0|)
    scale = np.max(np.abs(values))
    if scale == 0.0 and np.max(np.abs(traj.coeffs[0])) > 0:
        raise InvariantViolationError(
            "all beta coefficients vanish for a nontrivial run"
        )
    spread = float(np.max(values.max(axis=0) - values.min(axis=0)) / max(scale, 1e-300))
    table = tables[0]
    table.variation_over_Lambda = spread
    table.lambda_grid = [tb.lambda_used for tb in tables]
    return spread, tables


def reconstruction_error(traj: Trajectory, beta: BetaTable, lam: float,
                         tau: float):
    """(errH, errL) of the blow-up reconstruction over t in [tau, 1].

    The L_t error at time t is the l2 distance between lambda^{-2 gamma}
    c(lambda^2 t) and t^gamma beta on J0; the H_t error weights each mode
    by the norm-equivalent factor 1 + gamma_k + (N-2)/4 and integrates over
    t by the trapezoid rule.  errL is the sup over the window.
    """
    if not 0.0 < tau < 1.0:
        raise ConfigurationError("tau must lie in (0, 1)")
    _, lam_used = _snap_lambda(traj, lam)
    gamma = beta.gamma
    idx = _j0_basis_indices(traj, beta.J0)
    t_lo = lam_used * lam_used * tau
    window = (t_lo - 1e-14 <= traj.t) & (traj.t <= lam_used**2 + 1e-14)
    rows = np.flatnonzero(window)[::-1]  # ascending tau
    if len(rows) < 2:
        raise ConfigurationError("window [tau, 1] not resolved by the trace")
    t = traj.t[rows] / lam_used**2
    d = lam_used ** (-2.0 * gamma) * traj.coeffs[rows]
    for (mk, kb) in zip(beta.J0, idx):
        d[:, kb] -= t**gamma * beta.beta[mk]
    weights = 1.0 + traj.basis.gammas + (traj.basis.N - 2) / 4.0
    errL = float(np.max(np.sqrt(np.sum(d * d, axis=1))))
    errH = float(np.trapezoid(np.sum(weights * d * d, axis=1), t))
    return errH, errL
