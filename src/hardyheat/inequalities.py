"""Randomized numerical verification of the weighted functional inequalities.

Four inequalities, each checked by its gap (right side minus left side) or
by the Sobolev quotient, over reproducible randomized families:

  hardy_parabolic :  int u^2/|x|^2 G <= 1/((N-2)t) int u^2 G
                                        + 4/(N-2)^2 int |grad u|^2 G
  hardy_anisotropic: int (|grad u|^2 - a/|x|^2 u^2) G + (N-2)/(4t) int u^2 G
                       >= (mu_1 + (N-2)^2/4) int u^2/|x|^2 G
  x2_bound        :  (1/16) int |x|^2 u^2 G(.,1) <= int |grad u|^2 G
                                                    + (N/4) int u^2 G
  sobolev         :  (int |u|^s G^{s/2})^{2/s} / (t^{-(N/s)(s-2)/2} ||u||_Ht^2)

``member_values`` evaluates any of them on one member from one sampling per
rule and time; ``sweep`` runs the named ones over a family in one pass.
The rules come from ``rule_pair``.  A Gaussian bump is zonal about its own
axis, so with an absent or constant potential its sweeps run in any N on
the zonal rule, sampled rotated onto e1; every other sweep is N = 3 on the
full product cubature.  Bump centers are drawn with density ~ 1/r in
radius to stress the Hardy singularity.

The module also estimates the coercivity infimum of the shifted quadratic
form, in both quotient normalizations (the equivalence-of-norms one and
the plain H_t-denominator one used by the frequency lower bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import angular as ang
from .errors import ConfigurationError, InvariantViolationError
from .ou_basis import OUBasis, eval_grad_V, eval_V, hardy_matrix, potential_coupling_matrix
from .quadrature import product_rule, zonal_rule

GAP_SLACK = 1e-10  # violations are gap < -GAP_SLACK * scale
SOBOLEV_EXPONENT = 2.5  # the s of the Sobolev quotient in sweeps
INEQUALITIES = ("hardy_parabolic", "hardy_anisotropic", "x2_bound", "sobolev")


# -- test functions ----------------------------------------------------------

@dataclass(frozen=True)
class GaussianBump:
    """u(x) = exp(-|x - b e|^2 / (2 w^2)); zonal about its own axis e."""

    b: float
    w: float
    axis: np.ndarray

    def value(self, x):
        d = x - self.b * self.axis
        return np.exp(-np.sum(d * d, axis=-1) / (2.0 * self.w**2))

    def value_grad(self, x):
        u = self.value(x)  # one exponential for both
        return u, -((x - self.b * self.axis) / self.w**2) * u[..., None]

    def about_e1(self) -> "GaussianBump":
        """The same bump rotated onto the axis e1, where zonal rules sample it."""
        return GaussianBump(self.b, self.w, np.eye(len(self.axis))[0])


_MONOMIALS3 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
               (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]


@dataclass(frozen=True)
class PolyGaussian:
    """u(x) = q(x) exp(-kappa |x|^2) with q a random quadratic; N = 3."""

    coeffs: tuple
    kappa: float

    def _q(self, x):
        out = np.zeros(len(x))
        for c, (a, b, d) in zip(self.coeffs, _MONOMIALS3):
            out += c * x[:, 0] ** a * x[:, 1] ** b * x[:, 2] ** d
        return out

    def value(self, x):
        return self._q(x) * np.exp(-self.kappa * np.sum(x * x, axis=-1))

    def value_grad(self, x):
        e = np.exp(-self.kappa * np.sum(x * x, axis=-1))
        q = self._q(x)
        gq = np.zeros_like(x)
        for c, pw in zip(self.coeffs, _MONOMIALS3):
            for d in range(3):
                if pw[d] == 0:
                    continue
                dpw = list(pw)
                dpw[d] -= 1
                gq[:, d] += c * pw[d] * x[:, 0] ** dpw[0] * x[:, 1] ** dpw[1] * x[:, 2] ** dpw[2]
        return q * e, (gq - 2.0 * self.kappa * x * q[:, None]) * e[:, None]


class BasisModeFunction:
    """A normalized eigenbasis mode as a point-function test member."""

    def __init__(self, basis: OUBasis, k: int):
        self.mode = basis.modes[k]
        self.spectrum = basis.spectrum

    def __repr__(self):
        return f"BasisModeFunction(j={self.mode.j}, n={self.mode.n})"

    def value(self, x):
        return eval_V(self.mode, x, self.spectrum)

    def value_grad(self, x):
        return self.value(x), eval_grad_V(self.mode, x, self.spectrum)


@dataclass(frozen=True)
class TestFamily:
    """Reproducible generator description for a randomized sweep."""

    kind: str          # 'bumps' | 'polygauss' | 'modes'
    N: int
    count: int
    seed: int

    def members(self, basis: OUBasis | None = None):
        rng = np.random.default_rng(self.seed)
        if self.kind == "bumps":
            for _ in range(self.count):
                # density ~ 1/r in radius: log-uniform draw
                b = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
                w = math.exp(rng.uniform(math.log(0.5), math.log(1.5)))
                axis = rng.normal(size=self.N)
                axis /= np.linalg.norm(axis)
                yield GaussianBump(b, w, axis)
        elif self.kind == "polygauss":
            if self.N != 3:
                raise ConfigurationError("polynomial-x-Gaussian family is N=3 only")
            for _ in range(self.count):
                yield PolyGaussian(tuple(rng.normal(size=len(_MONOMIALS3))),
                                   rng.uniform(1.0 / 12.0, 1.0 / 6.0))
        elif self.kind == "modes":
            if basis is None:
                raise ConfigurationError("mode family needs a basis")
            for i in range(self.count):
                yield BasisModeFunction(basis, i % basis.size)
        else:
            raise ConfigurationError(f"unknown family kind {self.kind!r}")


# -- sampling and integrals ----------------------------------------------------

def rule_pair(N: int, n_r: int = 48, zonal: bool = False) -> tuple:
    """(plain, hardy) cubature pair: zonal in any N >= 3, or full for N = 3.

    The 1/|x|^2 integrands carry an s^{-1} factor relative to the surface
    Jacobian; the hardy twin's exponent a_GL = N/2 - 2 restores exactness
    there, while everything regular uses the plain N/2 - 1 rule.  The zonal
    pair takes members with an ``about_e1`` copy (the bumps) only.
    """
    if zonal:
        return zonal_rule(N, n_r, 28), zonal_rule(N, n_r, 28, a_gl=N / 2.0 - 2.0)
    if N != 3:
        raise ConfigurationError(f"the full cubature pair is N = 3 only, got N = {N}; "
                                 "other N take bumps under a constant potential")
    return product_rule(N, n_r, 14, 28), product_rule(N, n_r, 14, 28, a_gl=N / 2.0 - 2.0)


def _sample(member, rule, t: float, grad: bool = True):
    """(u, |grad u|^2 or None, |x|^2) at the nodes of ``rule`` at time t.

    A zonal rule samples the member's copy about e1 and rejects a member
    that has none.
    """
    if rule.zonal:
        if not hasattr(member, "about_e1"):
            raise ConfigurationError(f"{member!r} is not zonal; a zonal rule cannot take it")
        member = member.about_e1()
    pts = math.sqrt(t) * rule.points
    if not grad:
        return np.asarray(member.value(pts), dtype=float), None, t * rule.radii**2
    u, g = (np.asarray(a, dtype=float) for a in member.value_grad(pts))
    return u, np.sum(g * g, axis=-1), t * rule.radii**2


# -- verifiers ---------------------------------------------------------------

def member_values(inequalities, member, t: float, rules: tuple,
                  spec: ang.AngularSpectrum | None = None,
                  s: float = SOBOLEV_EXPONENT) -> dict:
    """Each requested inequality's gated (gap, scale), or the Sobolev quotient.

    ``rules`` comes from :func:`rule_pair`; ``spec`` supplies mu_1 and the
    potential of the anisotropic form.  The member is sampled at most once
    per rule and time: the plain rule at t, the plain rule at t = 1 (the
    |x|^2 bound) and the singular twin at t.  The potential term is nodal.
    Gaps are gated in the order of ``inequalities``.
    """
    want = set(inequalities)
    unknown = sorted(want - set(INEQUALITIES))
    if unknown:
        raise ConfigurationError(f"unknown inequality {unknown[0]!r}; names: {INEQUALITIES}")
    plain, twin = rules
    N = plain.N
    if "sobolev" in want and not 2.0 <= s <= 2.0 * N / (N - 2):
        raise ConfigurationError(f"s={s} outside [2, 2N/(N-2)]")
    out = {}
    if "x2_bound" in want:
        u, g2, r2 = _sample(member, plain, 1.0)
        rhs = plain.integrate(g2) + N / 4.0 * plain.integrate(u * u)
        out["x2_bound"] = (rhs - plain.integrate(r2 * (u * u)) / 16.0, abs(rhs))
    if want & {"hardy_parabolic", "hardy_anisotropic", "sobolev"}:
        u, g2, _ = _sample(member, plain, t)
        u2, grad2 = plain.integrate(u * u), plain.integrate(g2)
    if want & {"hardy_parabolic", "hardy_anisotropic"}:
        uh, _, r2h = _sample(member, twin, t, grad=False)
        u2_over_r2 = twin.integrate(uh * uh / r2h)
    if "hardy_parabolic" in want:
        rhs = u2 / ((N - 2) * t) + 4.0 / (N - 2) ** 2 * grad2
        out["hardy_parabolic"] = (rhs - u2_over_r2, abs(rhs))
    if "hardy_anisotropic" in want:
        a = np.tile(spec.potential.evaluate(twin.angular_dirs), twin.radial.count)
        a_u2_over_r2 = twin.integrate(a * uh * uh / r2h)
        lhs = (float(spec.eigenvalues[0]) + (N - 2) ** 2 / 4.0) * u2_over_r2
        rhs = grad2 - a_u2_over_r2 + (N - 2) / (4.0 * t) * u2
        out["hardy_anisotropic"] = (rhs - lhs, abs(rhs) + abs(lhs))
    if "sobolev" in want:
        # G^{s/2 - 1} at the scaled nodes; the base radius is t-invariant
        Gpow = (t ** (-N / 2.0) * np.exp(-plain.radii**2 / 4.0)) ** (s / 2.0 - 1.0)
        num = plain.integrate(np.abs(u) ** s * Gpow) ** (2.0 / s)
        out["sobolev"] = num / (t ** (-(N / s) * (s - 2.0) / 2.0) * (t * grad2 + u2))
    for name in inequalities:
        if name == "sobolev":
            continue
        gap, scale = out[name]
        if gap < -GAP_SLACK * scale:
            raise InvariantViolationError(
                f"{name} violated: gap {gap} vs slack {-GAP_SLACK * scale} "
                "(signals a quadrature bug)"
            )
    return out


# -- family sweeps ------------------------------------------------------------

def sweep(
    inequalities,
    family: TestFamily,
    t: float = 0.7,
    spec: ang.AngularSpectrum | None = None,
    basis: OUBasis | None = None,
    n_r: int = 48,
) -> list:
    """Run the named inequalities over a family in one pass; one report each.

    Raises InvariantViolationError on any gap below the relative slack, and
    PositivityError before the first member when an anisotropic sweep's
    spectrum fails positivity.  The rules come from :func:`rule_pair`: the
    zonal pair for bumps under an absent or constant potential, else the
    full pair.  Each member goes through :func:`member_values` once.  A
    Sobolev sweep first checks the rule on the centred bump
    exp(-|x|^2 / 4t), whose quotient has a closed form independent of t,
    to GAP_SLACK relative.
    """
    N = family.N
    zonal = family.kind == "bumps"
    if "hardy_anisotropic" in inequalities:
        if spec is None:
            raise ConfigurationError("anisotropic sweep needs an angular spectrum")
        ang.require_positivity(spec)
        zonal = zonal and spec.potential.is_constant
    rules = rule_pair(N, n_r, zonal)
    if "sobolev" in inequalities:
        s = SOBOLEV_EXPONENT
        exact = (8.0 * math.pi / (3.0 * s)) ** (N / s) / (
            (1.0 + N / 6.0) * (4.0 * math.pi / 3.0) ** (N / 2.0))
        centred = GaussianBump(0.0, math.sqrt(2.0 * t), np.eye(N)[0])
        got = member_values(("sobolev",), centred, t, rules)["sobolev"]
        if abs(got - exact) > GAP_SLACK * exact:
            raise InvariantViolationError(
                f"Sobolev quotient of the centred bump {got} misses its closed form "
                f"{exact} by over {GAP_SLACK} relative (quadrature bug, or n_r = {n_r} too coarse)"
            )

    min_head = dict.fromkeys(inequalities, math.inf)
    argmin = dict.fromkeys(inequalities)
    ratios = []
    for i, member in enumerate(family.members(basis)):
        values = member_values(inequalities, member, t, rules, spec)
        for name in inequalities:
            if name == "sobolev":
                ratios.append(values[name])
                continue
            gap, scale = values[name]
            head = gap / scale if scale > 0 else math.inf
            if head < min_head[name]:
                min_head[name], argmin[name] = head, f"member #{i} ({member!r})"
    reports = []
    for name in inequalities:
        report = {"inequality": name, "family": family.kind, "N": N,
                  "count": family.count, "seed": family.seed, "t": t}
        if name == "sobolev":
            report["sup_ratio"] = float(np.max(ratios))
            report["mean_ratio"] = float(np.mean(ratios))
        else:
            report["min_relative_gap"] = min_head[name]
            report["argmin"] = argmin[name]
        reports.append(report)
    return reports


# -- coercivity quotients ------------------------------------------------------

def _coercivity(basis: OUBasis, K: int | None, shift: float) -> float:
    """Smallest generalized eigenvalue q of
    (Gamma + (N-2)/4) v = q (E + shift) v over the first K modes.

    The left matrix A is diagonal and positive (every basis gamma exceeds
    -(N-2)/4), so with w = A^{1/2} v the problem is the symmetric
    A^{-1/2} M A^{-1/2} w = w / q and q_min = 1 / lambda_max.
    """
    K = basis.size if K is None else min(K, basis.size)
    gam = basis.gammas[:K]
    M = np.diag(gam) + potential_coupling_matrix(basis)[:K, :K] + shift * np.eye(K)
    s = 1.0 / np.sqrt(gam + (basis.N - 2) / 4.0)
    lam = np.linalg.eigvalsh(s[:, None] * M * s)
    ok, _ = ang.check_positivity(basis.spectrum)
    if ok and lam[0] <= 0.0:
        raise InvariantViolationError(
            f"coercivity denominator has eigenvalue {lam[0]} <= 0 under verified "
            "positivity: basis/quadrature inconsistency"
        )
    return float(1.0 / lam[-1])


def coercivity_infimum(basis: OUBasis, K: int | None = None) -> float:
    """Rayleigh-quotient infimum with the (N-2)/4-shifted denominator.

    Equals 1 for a = 0 (the quotient is identically 1); degenerates to 0
    as the potential approaches the Hardy constant.
    """
    return _coercivity(basis, K, (basis.N - 2) / 4.0)


def coercivity_bound_constant(basis: OUBasis) -> float:
    """Quotient with the plain H-norm denominator (E + ||.||^2).

    This is the constant entering the frequency lower bound
    N(t) >= C1 - (N-2)/4, tight for the unperturbed ground state.
    """
    return _coercivity(basis, None, 1.0)


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
