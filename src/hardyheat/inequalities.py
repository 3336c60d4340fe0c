"""Randomized numerical verification of the weighted functional inequalities.

Four inequalities, each checked by its gap (right side minus left side) or
by the Sobolev quotient, over reproducible randomized families:

  hardy_parabolic :  int u^2/|x|^2 G <= 1/((N-2)t) int u^2 G
                                        + 4/(N-2)^2 int |grad u|^2 G
  hardy_anisotropic: int (|grad u|^2 - a/|x|^2 u^2) G + (N-2)/(4t) int u^2 G
                       >= (mu_1 + (N-2)^2/4) int u^2/|x|^2 G
  x2_bound        :  (1/16) int |x|^2 u^2 G(.,1) <= int |grad u|^2 G
                                                    + (N/4) int u^2 G
  sobolev_ratio   :  (int |u|^s G^{s/2})^{2/s} / (t^{-(N/s)(s-2)/2} ||u||_Ht^2)

``member_gap`` evaluates one of the first three on one member and
``sobolev_ratio`` the quotient; ``sweep`` runs either over a family.  Both
sample the member through one path on the rules of ``rule_pair``: the full
product cubature for N = 3, and for N >= 4 the zonal radial x
single-polar-angle rule, which takes Gaussian bumps only (each is zonal
about its own axis).  Bump centers are drawn with density ~ 1/r in radius
to stress the Hardy singularity.

The module also estimates the coercivity infimum of the shifted quadratic
form, in both quotient normalizations (the equivalence-of-norms one and
the plain H_t-denominator one used by the frequency lower bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh as generalized_eigh

from . import angular as ang
from .errors import ConfigurationError, InvariantViolationError
from .ou_basis import OUBasis, eval_grad_V, eval_V, hardy_matrix, potential_coupling_matrix
from .quadrature import ProductRule, ZonalRule, product_rule, zonal_rule

GAP_SLACK = 1e-10  # violations are gap < -GAP_SLACK * scale
SOBOLEV_EXPONENT = 2.5  # the s of the Sobolev quotient in sweeps


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

    def grad(self, x):
        d = x - self.b * self.axis
        return -(d / self.w**2) * self.value(x)[..., None]

    # zonal forms: R = radius grid, C = cos(angle to axis)
    def _rho2(self, R, C):
        return R * R + self.b * self.b - 2.0 * R * self.b * C

    def value_rc(self, R, C):
        return np.exp(-self._rho2(R, C) / (2.0 * self.w**2))

    def gradsq_rc(self, R, C):
        u = self.value_rc(R, C)
        return self._rho2(R, C) / self.w**4 * u * u


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

    def grad(self, x):
        e = np.exp(-self.kappa * np.sum(x * x, axis=-1))
        gq = np.zeros_like(x)
        for c, pw in zip(self.coeffs, _MONOMIALS3):
            for d in range(3):
                if pw[d] == 0:
                    continue
                dpw = list(pw)
                dpw[d] -= 1
                gq[:, d] += c * pw[d] * x[:, 0] ** dpw[0] * x[:, 1] ** dpw[1] * x[:, 2] ** dpw[2]
        return (gq - 2.0 * self.kappa * x * self._q(x)[:, None]) * e[:, None]


class RescaledFunction:
    """u(x / sqrt(tau)) for the t-scaling invariance checks, on either rule."""

    def __init__(self, member, tau):
        self.member = member
        self.tau = tau

    def value(self, x):
        return self.member.value(x / math.sqrt(self.tau))

    def grad(self, x):
        return self.member.grad(x / math.sqrt(self.tau)) / math.sqrt(self.tau)

    def value_rc(self, R, C):
        return self.member.value_rc(R / math.sqrt(self.tau), C)

    def gradsq_rc(self, R, C):
        return self.member.gradsq_rc(R / math.sqrt(self.tau), C) / self.tau


class BasisModeFunction:
    """A normalized eigenbasis mode as a point-function test member."""

    def __init__(self, basis: OUBasis, k: int):
        self.mode = basis.modes[k]
        self.spectrum = basis.spectrum

    def value(self, x):
        return eval_V(self.mode, x, self.spectrum)

    def grad(self, x):
        return eval_grad_V(self.mode, x, self.spectrum)


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

def rule_pair(N: int, n_r: int = 48) -> tuple:
    """(plain, hardy) cubature pair: full for N = 3, zonal for N >= 4.

    The 1/|x|^2 integrands carry an s^{-1} factor relative to the surface
    Jacobian; the hardy twin's exponent a_GL = N/2 - 2 restores exactness
    there, while everything regular uses the plain N/2 - 1 rule.  The zonal
    rules integrate bump members only.
    """
    if N == 3:
        return product_rule(N, n_r, 14, 28), product_rule(N, n_r, 14, 28, a_gl=N / 2.0 - 2.0)
    return zonal_rule(N, n_r, 28), zonal_rule(N, n_r, 28, a_gl=N / 2.0 - 2.0)


def _sample(member, rule, t: float, grad: bool = True):
    """(u, |grad u|^2 or None, |x|^2) at the nodes of ``rule`` at time t."""
    if isinstance(rule, ZonalRule):
        R = math.sqrt(t) * rule.radii
        C = rule.c[None, :]
        return member.value_rc(R, C), member.gradsq_rc(R, C) if grad else None, R * R
    pts = math.sqrt(t) * rule.points
    u = np.asarray(member.value(pts), dtype=float)
    g2 = None
    if grad:
        g = np.asarray(member.grad(pts), dtype=float)
        g2 = np.sum(g * g, axis=-1)
    return u, g2, t * rule.radii**2


@dataclass
class MemberIntegrals:
    """All Gaussian-weighted integrals one verifier pass needs."""

    u2: float
    grad2: float
    r2u2: float
    u2_over_r2: float = 0.0
    a_u2_over_r2: float = 0.0


def _integrals(member, t: float, rules: tuple, potential: ang.AngularPotential | None = None,
               hardy: bool = True) -> MemberIntegrals:
    """Integrals on the plain rule and, if ``hardy``, on the singular twin.

    The potential term is nodal on the full rule and lam * u2_over_r2 on
    the zonal one (constant potentials only).
    """
    plain, twin = rules
    u, g2, r2 = _sample(member, plain, t)
    u2 = u * u
    vals = MemberIntegrals(plain.integrate(u2), plain.integrate(g2), plain.integrate(r2 * u2))
    if hardy:
        uh, _, r2h = _sample(member, twin, t, grad=False)
        vals.u2_over_r2 = twin.integrate(uh * uh / r2h)
        if potential is not None and isinstance(twin, ZonalRule):
            vals.a_u2_over_r2 = potential.value * vals.u2_over_r2
        elif potential is not None:
            a = np.tile(potential.evaluate(twin.angular_dirs), twin.radial.count)
            vals.a_u2_over_r2 = twin.integrate(a * uh * uh / r2h)
    return vals


# -- verifiers ---------------------------------------------------------------

def member_gap(inequality: str, member, t: float, rules: tuple,
               spec: ang.AngularSpectrum | None = None) -> tuple[float, float]:
    """(gap, scale) of one inequality on one member; gates the gap.

    ``rules`` comes from :func:`rule_pair`; ``spec`` supplies mu_1 and the
    potential of the anisotropic form.  The |x|^2 bound is taken at t = 1.
    """
    N = rules[0].N
    if inequality == "x2_bound":
        I = _integrals(member, 1.0, rules, hardy=False)
        lhs = I.r2u2 / 16.0
        rhs = I.grad2 + N / 4.0 * I.u2
        gap, scale = rhs - lhs, abs(rhs)
    elif inequality == "hardy_parabolic":
        I = _integrals(member, t, rules)
        lhs = I.u2_over_r2
        rhs = I.u2 / ((N - 2) * t) + 4.0 / (N - 2) ** 2 * I.grad2
        gap, scale = rhs - lhs, abs(rhs)
    elif inequality == "hardy_anisotropic":
        I = _integrals(member, t, rules, potential=spec.potential)
        lhs = (float(spec.eigenvalues[0]) + (N - 2) ** 2 / 4.0) * I.u2_over_r2
        rhs = I.grad2 - I.a_u2_over_r2 + (N - 2) / (4.0 * t) * I.u2
        gap, scale = rhs - lhs, abs(rhs) + abs(lhs)
    else:
        raise ConfigurationError(f"unknown inequality {inequality!r}")
    _gate(gap, scale, inequality)
    return gap, scale


def _gate(gap: float, scale: float, name: str) -> None:
    if gap < -GAP_SLACK * scale:
        raise InvariantViolationError(
            f"{name} violated: gap {gap} vs slack {-GAP_SLACK * scale} "
            "(signals a quadrature bug)"
        )


def sobolev_ratio(member, s: float, t: float, N: int,
                  rule: ProductRule | ZonalRule | None = None,
                  verify_scaling: bool = True) -> float:
    """Weighted Sobolev quotient; also checks its exact t-scaling invariance."""
    if not 2.0 <= s <= 2.0 * N / (N - 2):
        raise ConfigurationError(f"s={s} outside [2, 2N/(N-2)]")
    if rule is None:
        rule = rule_pair(N)[0]

    def ratio(mem, tt):
        u, g2, _ = _sample(mem, rule, tt)
        u = np.abs(u)
        # G^{s/2 - 1} at the scaled nodes; the base radius is t-invariant
        Gpow = (tt ** (-N / 2.0) * np.exp(-rule.radii**2 / 4.0)) ** (s / 2.0 - 1.0)
        num = rule.integrate(u**s * Gpow) ** (2.0 / s)
        ht = tt * rule.integrate(g2) + rule.integrate(u * u)
        return num / (tt ** (-(N / s) * (s - 2.0) / 2.0) * ht)

    val = ratio(member, t)
    if verify_scaling:
        tau = 2.7
        val2 = ratio(RescaledFunction(member, tau), t * tau)
        if abs(val2 - val) > 1e-10 * max(abs(val), 1e-300):
            raise InvariantViolationError(
                f"Sobolev quotient not t-scaling invariant: {val} vs {val2}"
            )
    return val


# -- family sweeps ------------------------------------------------------------

def sweep(
    inequality: str,
    family: TestFamily,
    t: float = 0.7,
    spec: ang.AngularSpectrum | None = None,
    basis: OUBasis | None = None,
    n_r: int = 48,
) -> dict:
    """Run one inequality over a family; returns the report dictionary.

    Raises InvariantViolationError on any gap below the relative slack, and
    PositivityError when an anisotropic sweep's spectrum fails positivity.
    The rules come from :func:`rule_pair`; each member goes through
    :func:`member_gap`, or :func:`sobolev_ratio` for the Sobolev quotient.
    """
    N = family.N
    if N != 3 and family.kind != "bumps":
        raise ConfigurationError("zonal sweeps support bump families only")
    rules = rule_pair(N, n_r)
    if inequality == "hardy_anisotropic":
        if spec is None:
            raise ConfigurationError("anisotropic sweep needs an angular spectrum")
        ang.require_positivity(spec)
        if N != 3 and not spec.potential.is_constant:
            raise ConfigurationError("anisotropic zonal sweeps need a constant potential")

    min_head = math.inf
    argmin = None
    ratios = []
    for i, member in enumerate(family.members(basis)):
        if inequality == "sobolev":
            ratios.append(sobolev_ratio(member, SOBOLEV_EXPONENT, t, N, rules[0],
                                        verify_scaling=(i % 50 == 0)))
            continue
        gap, scale = member_gap(inequality, member, t, rules, spec)
        head = gap / scale if scale > 0 else math.inf
        if head < min_head:
            min_head, argmin = head, f"member #{i} ({member!r})"
    report = {
        "inequality": inequality,
        "family": family.kind,
        "N": N,
        "count": family.count,
        "seed": family.seed,
        "t": t,
    }
    if inequality == "sobolev":
        report["sup_ratio"] = float(np.max(ratios))
        report["mean_ratio"] = float(np.mean(ratios))
    else:
        report["min_relative_gap"] = min_head
        report["argmin"] = argmin
    return report


# -- coercivity quotients ------------------------------------------------------

def _coercivity(basis: OUBasis, K: int | None, shift: float) -> float:
    """Smallest generalized eigenvalue of
    (Gamma + (N-2)/4) v = q (E + shift) v over the first K modes."""
    K = basis.size if K is None else min(K, basis.size)
    gam = basis.gammas[:K]
    quarter = (basis.N - 2) / 4.0
    A = np.diag(gam + quarter)
    E = np.diag(gam) + potential_coupling_matrix(basis)[:K, :K]
    M = E + shift * np.eye(K)
    vals = generalized_eigh(A, M, eigvals_only=True)
    out = float(vals[0])
    ok, margin = ang.check_positivity(basis.spectrum)
    if ok and out <= 0.0:
        raise InvariantViolationError(
            f"coercivity estimate {out} non-positive under verified positivity: "
            "basis/quadrature inconsistency"
        )
    return out


def coercivity_infimum(basis: OUBasis, K: int | None = None) -> float:
    """Rayleigh-quotient infimum with the (N-2)/4-shifted denominator.

    Equals 1 for a = 0 (the quotient is identically 1); degenerates to 0
    as the potential approaches the Hardy constant.
    """
    return _coercivity(basis, K, (basis.N - 2) / 4.0)


def coercivity_bound_constant(basis: OUBasis, K: int | None = None) -> float:
    """Quotient with the plain H-norm denominator (E + ||.||^2).

    This is the constant entering the frequency lower bound
    N(t) >= C1 - (N-2)/4, tight for the unperturbed ground state.
    """
    return _coercivity(basis, K, 1.0)


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
