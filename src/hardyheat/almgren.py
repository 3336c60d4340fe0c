"""Frequency function N(t) = t D(t) / H(t) and its t -> 0 limit.

Spectral identities make the trace cheap: with v(., t) = sum c_k V_tilde_k,

    H(t)  = sum c_k^2,
    t D(t) = sum gamma_k c_k^2 - t <f, v>_L,
    nu_1  = (2t/H^2) [ ||v_t||^2 H - <v_t, v>^2 ]  >= 0   (Schwarz),

each evaluated at once over all stored rows.  The scaling law
N_lambda(t) = N(lambda^2 t) is the identity c_lambda(t) = c(lambda^2 t) in
these variables, so no run re-evaluates it.  The limit gamma is estimated
by fitting N(t) ~ gamma + C t^delta over the smallest stored decade and
snapped (never silently) to the nearest eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvariantViolationError
from .evolve import Trajectory

H_FLOOR = 1e-300
FIT_RESIDUAL_FLAG = 1e-3
SNAP_TOL = 1e-6
MONOTONE_SLACK = 1e-10
DELTA_BOUNDS = (0.05, 4.0)  # range of the fitted exponent delta


def _rates(gammas, c, F, t):
    """c' = dc/dt = (Gamma c - t F) / t, row by row."""
    return (gammas * c - t * F) / t


def compute_HDN(traj: Trajectory):
    """(H, D, N, nu1) arrays over the stored rows, in stored order.

    nu1 comes from the exact rhs (no differencing) in the projection form
    2t ||v_t - (<v_t, v>/H) v||^2 / H, which keeps the Gram determinant
    non-negative instead of cancelling two large products.  Rows with
    H <= H_FLOOR carry no usable D, N or nu1; callers mask them out.
    """
    C, F, t = traj.coeffs, traj.forcing, traj.t
    gammas = traj.basis.gammas
    H = np.vecdot(C, C)
    tD = np.vecdot(C * C, gammas) - t * np.vecdot(F, C)
    cp = _rates(gammas, C, F, t[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        perp = cp - (np.vecdot(cp, C) / H)[:, None] * C
        return H, tD / t, tD / H, 2.0 * t * np.vecdot(perp, perp) / H


def _finite_or_none(x: float):
    """x, or None (JSON null) where x is NaN or infinite."""
    return x if math.isfinite(x) else None


@dataclass
class FrequencyTrace:
    """Rows (t, H, D, N, nu1) in ascending t, plus the fitted limit.

    ``gamma_raw`` is the fit value; ``gamma_hat`` equals the nearest
    eigenvalue when within SNAP_TOL (``snapped`` True), else the raw value
    with ``warnings`` noting the mismatch.
    """

    t: np.ndarray
    H: np.ndarray
    D: np.ndarray
    N: np.ndarray
    nu1: np.ndarray
    gamma_raw: float
    gamma_hat: float
    snapped: bool
    delta_hat: float
    fit_C: float
    fit_window: tuple
    fit_residual: float
    gamma_uncertainty: float
    delta_theory: float
    warnings: list = field(default_factory=list)

    def to_jsonable(self) -> dict:
        return {
            "gamma_hat": self.gamma_hat,
            "gamma_raw": self.gamma_raw,
            "snapped": self.snapped,
            "delta_hat": _finite_or_none(self.delta_hat),
            "fit_C": self.fit_C,
            "fit_window": list(self.fit_window),
            "fit_residual": self.fit_residual,
            "gamma_uncertainty": _finite_or_none(self.gamma_uncertainty),
            "delta_theory": _finite_or_none(self.delta_theory),
            "warnings": list(self.warnings),
        }


def _linear_fit(log_t: np.ndarray, Nval: np.ndarray, d):
    """(u, uc, C, r) of the least-squares fit N ~ g + C t^d at fixed d,
    centred on the means: u = t^d, uc = u - mean(u), slope C, residual r.
    A column d of shape (m, 1) fits row i at d[i] by the same operations,
    so each row is the scalar-d fit bit for bit."""
    u = np.exp(d * log_t)
    uc = u - u.mean(axis=-1, keepdims=True)
    nc = Nval - Nval.mean()
    C = np.vecdot(uc, nc) / np.vecdot(uc, uc)
    return u, uc, C, nc - C[..., None] * uc


def _scan(log_t: np.ndarray, Nval: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Squared residual sums of :func:`_linear_fit` at each d of ``grid``,
    eight points at a time: no temporary holds the whole (len(grid), m)
    stack, and each sum is the scalar-d fit's, bit for bit."""
    return np.concatenate([np.sum(_linear_fit(log_t, Nval, grid[k:k + 8, None])[3] ** 2, axis=1)
                           for k in range(0, len(grid), 8)])


def _projected(log_t: np.ndarray, Nval: np.ndarray, d: float):
    """(g, C, residual) of :func:`_linear_fit` at d, and d/dd of half the
    squared residual at that (g, C).

    The derivative takes only the part of dr/dd orthogonal to (1, t^d),
    which the exact residual is orthogonal to: rounding in g and C then
    leaves it alone, so its root settles delta to the data's own noise.
    """
    u, uc, C, r = _linear_fit(log_t, Nval, d)
    C = float(C)
    v = u * log_t
    v = v - v.mean()
    v -= (float(uc @ v) / float(uc @ uc)) * uc
    return float(Nval.mean()) - C * float(u.mean()), C, r, -C * float(r @ v)


def _fit_limit(t: np.ndarray, Nval: np.ndarray):
    """Fit N(t) ~ gamma + C t^delta; returns (gamma, C, delta, residual).

    Variable projection (Golub & Pereyra 1973): for fixed delta the model
    is linear in (gamma, C), so only the reduced residual in delta in
    DELTA_BOUNDS is minimised.  A scan brackets its smallest value; a root
    of its derivative (false position, bisecting when it stalls) then
    settles delta to rounding, or delta stays at a bound the residual
    falls towards.
    """
    if np.max(Nval) - np.min(Nval) < 1e-13:
        return float(Nval[0]), 0.0, float("nan"), 0.0
    log_t = np.log(t)
    grid = np.linspace(*DELTA_BOUNDS, 80)
    # the scan: squared residuals at every d of the grid, without derivatives
    i = int(np.argmin(_scan(log_t, Nval, grid)))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    fa, fb = _projected(log_t, Nval, a)[3], _projected(log_t, Nval, b)[3]
    # no sign change: the residual falls towards a bound, and d stays there
    d = grid[i]
    for step in range(200):
        if not (fa < 0.0 < fb) or b - a <= 4.0 * np.finfo(float).eps * b:
            break
        d = a - fa * (b - a) / (fb - fa)
        if step % 3 == 2 or not a < d < b:
            d = 0.5 * (a + b)  # every third step halves the bracket
        fd = _projected(log_t, Nval, d)[3]
        if fd == 0.0:
            break
        if fd < 0.0:
            a, fa = d, fd
        else:
            b, fb = d, fd
    g, C, _, _ = _projected(log_t, Nval, d)
    r = Nval - g - C * np.exp(d * log_t)
    return g, C, float(d), float(np.sqrt(np.mean(r**2)))


def frequency_trace(
    traj: Trajectory,
    fit_window_decades: float = 1.0,
) -> FrequencyTrace:
    """Full (t, H, D, N, nu1) trace with the fitted t -> 0 limit.

    The fit window is the smallest stored ``fit_window_decades`` decades of
    t; a fit residual above 1e-3 is flagged and gamma_hat falls back to
    N at the smallest t.
    """
    warnings = []
    H, D, Nv, n1 = compute_HDN(traj)
    # underflow guard: truncate the trace below the smallest usable row
    rows = np.flatnonzero(H > H_FLOOR)[::-1]  # ascending t
    if len(rows) == 0:
        raise InvariantViolationError("H underflowed on every stored row")
    if len(rows) < traj.size:
        warnings.append(
            f"trace truncated: H underflowed on {traj.size - len(rows)} rows"
        )
    t, H, D, Nv, n1 = (a[rows] for a in (traj.t, H, D, Nv, n1))

    window = t <= t[0] * 10.0**fit_window_decades
    gamma_raw, fit_C, delta_hat, fit_resid = _fit_limit(t[window], Nv[window])
    # window-halving estimate of the fit's own bias in gamma
    half = t <= t[0] * 10.0 ** (fit_window_decades / 2.0)
    if np.count_nonzero(half) >= 8:
        gamma_half, _, _, _ = _fit_limit(t[half], Nv[half])
        gamma_unc = abs(gamma_raw - gamma_half)
    else:
        gamma_unc = float("inf")
    if fit_resid > FIT_RESIDUAL_FLAG:
        warnings.append(
            f"limit fit residual {fit_resid:.3e} > {FIT_RESIDUAL_FLAG}; "
            "gamma_hat falls back to N at the smallest t"
        )
        gamma_raw = float(Nv[0])

    # sorted distinct rounded gammas (np.unique would import numpy.ma)
    gammas = np.sort(np.round(traj.basis.gammas, 12))
    gammas = gammas[np.concatenate(([True], gammas[1:] != gammas[:-1]))]
    nearest = float(gammas[np.argmin(np.abs(gammas - gamma_raw))])
    snapped = abs(nearest - gamma_raw) <= SNAP_TOL
    if snapped:
        gamma_hat = nearest
    else:
        gamma_hat = gamma_raw
        warnings.append(
            f"gamma_raw = {gamma_raw} is {abs(nearest - gamma_raw):.3e} from the "
            "nearest eigenvalue; reported unsnapped"
        )
    return FrequencyTrace(
        t, H, D, Nv, n1, gamma_raw, gamma_hat, snapped, delta_hat, fit_C,
        (float(t[window][0]), float(t[window][-1])), fit_resid, gamma_unc,
        traj.perturbation.delta_theory(traj.basis.N), warnings,
    )


def check_Hprime(trace: FrequencyTrace) -> float:
    """Max relative residual of the three-point derivative of H against 2D.

    On the geometric t grid the steps h1 = t0 - t-, h2 = t+ - t0 differ,
    and the stencil (h1^2 (H+ - H0) + h2^2 (H0 - H-)) / (h1 h2 (h1 + h2))
    is exact for quadratics in t: its error is O(h1 h2 H'''), second
    order in dtau relative to t.
    """
    if len(trace.t) < 3:
        raise ConfigurationError("need at least 3 rows for the H' check")
    t, H, D = trace.t, trace.H, trace.D
    h1, h2 = t[1:-1] - t[:-2], t[2:] - t[1:-1]
    Hp = ((h1 * h1 * (H[2:] - H[1:-1]) + h2 * h2 * (H[1:-1] - H[:-2]))
          / (h1 * h2 * (h1 + h2)))
    resid = np.abs(Hp - 2.0 * D[1:-1]) / (np.abs(2.0 * D[1:-1]) + 1e-30)
    return float(np.max(resid))


def check_H_powerlaw(trace: FrequencyTrace, gamma_hat: float):
    """(K1_hat, liminf_positive): H <= K1 t^{2 gamma} and strict positivity.

    K1_hat is the max of H / t^{2 gamma_hat}; the liminf check asks the
    smallest-decade minimum of the same ratio to exceed 1e-8 K1_hat.
    """
    ratio = trace.H / trace.t ** (2.0 * gamma_hat)
    K1_hat = float(np.max(ratio))
    window = trace.t <= trace.t[0] * 10.0
    liminf_positive = bool(np.min(ratio[window]) > 1e-8 * K1_hat)
    return K1_hat, liminf_positive


def empirical_forcing_allowance(traj: Trajectory):
    """(rows, t |<f, v>| / H) over the stored rows with H > H_FLOOR: the
    forcing's share of the frequency row by row, whose largest value is the
    allowance of the frequency bound."""
    H = np.vecdot(traj.coeffs, traj.coeffs)
    share = np.abs(traj.t * np.vecdot(traj.forcing, traj.coeffs))
    rows = np.flatnonzero(H > H_FLOOR)
    return rows, share[rows] / H[rows]


def run_diagnostics(
    traj: Trajectory,
    trace: FrequencyTrace,
    coercivity_constant: float,
) -> dict:
    """Cross-checks asserted on every trace; raises on violations.

    ``nu1_min`` comes with ``nu1_scale`` = 2t ||c'||^2 / H at the same row,
    the Schwarz bound on nu1 there: a minimum many digits below its scale
    is a zero at round-off.

    - unperturbed monotonicity of N;
    - for a linear h, whose |h| is at most |eps|, the forcing share
      t |<F, c>| <= |eps| t H (1 + len(live) gram_residual + 4 machine eps)
      on every row with H > H_FLOOR: the rule's weights are positive, so
      the bound holds on it up to its Gram residual.  ``forcing_share_ratio``
      is the largest t |<F, c>| / (|eps| t H); a semilinear run has no such
      bound and only reports it;
    - gamma_hat within snap distance of the spectrum for converged runs;
    - liminf t^{-2 gamma} H(t) > 0.

    ``coercivity_bound`` is C1 - (N-2)/4 - the largest forcing share
    (``forcing_allowance``), and ``coercivity_margin`` the smallest N(t)
    above it.  It is reported, not gated: N(t) is at least gamma_min minus
    that share, and gamma_min >= C1 - (N-2)/4 since the ground mode is in
    the basis, so the margin is non-negative by construction, up to
    round-off.
    """
    i = int(np.argmin(trace.nu1))
    row = traj.row_at_t(trace.t[i])
    cp = _rates(traj.basis.gammas, traj.coeffs[row], traj.forcing[row], traj.t[row])
    report = {"nu1_min": float(trace.nu1[i]),
              "nu1_scale": float(2.0 * traj.t[row] * (cp @ cp) / trace.H[i])}
    N_dim = traj.basis.N
    pert = traj.perturbation
    allowance, ratio = 0.0, None
    if pert.kind == "none":
        steps = np.diff(trace.N)
        if np.any(steps < -MONOTONE_SLACK):
            raise InvariantViolationError(
                f"unperturbed frequency decreased by {-steps.min():.3e}"
            )
        report["N_monotone"] = True
    else:
        rows, share = empirical_forcing_allowance(traj)
        allowance = float(np.max(share))
        ratios = np.divide(share, abs(pert.eps) * traj.t[rows],
                           out=np.zeros_like(share), where=share > 0.0)
        k = int(np.argmax(ratios))
        ratio = float(ratios[k])
        if pert.kind == "linear":
            rule = traj.rule
            tol = 1.0 + len(rule.live) * rule.gram_residual + 4.0 * np.finfo(float).eps
            if not ratio <= tol:
                raise InvariantViolationError(
                    f"forcing share t|<F, c>| at row {rows[k]} (t = {traj.t[rows[k]]}) is "
                    f"{ratio} times |eps| t H, over {tol}: the forcing exceeds "
                    "sup|h| = |eps|"
                )
    bound = coercivity_constant - allowance - (N_dim - 2) / 4.0
    report["coercivity_bound"] = bound
    report["coercivity_margin"] = float(np.min(trace.N)) - bound
    report["forcing_allowance"] = allowance
    report["forcing_share_ratio"] = ratio
    converged = (
        trace.fit_residual <= FIT_RESIDUAL_FLAG
        and trace.gamma_uncertainty <= SNAP_TOL / 2.0
    )
    if converged and not trace.snapped:
        raise InvariantViolationError(
            f"converged run with gamma_raw = {trace.gamma_raw} not within "
            f"{SNAP_TOL} of the spectrum"
        )
    report["gamma_hat"] = trace.gamma_hat
    K1_hat, liminf_pos = check_H_powerlaw(trace, trace.gamma_hat)
    if not liminf_pos:
        raise InvariantViolationError("liminf t^{-2 gamma} H(t) not strictly positive")
    report["K1_hat"] = K1_hat
    return report
