"""Quadrature of the inequality integrals: the test oracle for the closed forms.

The package sweeps on closed forms only (``inequalities.sweep``).  This
module integrates the same quantities by cubature on the N = 3 product rule
pair, member by member, for any point-function member with ``value`` and
``value_grad``: Gaussian bumps, the random quadratic-times-Gaussian
``PolyGaussian``, basis eigenfunctions (``BasisModeFunction``), under any
potential the angular solver takes, a evaluated by ``potential_values``.
The tests compare the two paths, and use this one for members no closed
form covers; a package ``GaussianBump`` holds only its fields, and is
evaluated here (``PointBump``).  ``zonal_rule`` is the cubature for
integrands zonal about e1 in any N >= 3, which the zonal sweep checks are
held to.  Either cubature also comes on the shifted Gauss-Laguerre exponent
a_GL = N/2 - 2 that the 1/|x|^2 integrands need (``radial_x_angular``,
``shifted_product_rule``), and ``integrate_G`` sums a point function
against G(., t) on any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from hardyheat import angular as ang
from hardyheat import inequalities as ineq
from hardyheat.errors import ConfigurationError, QuadratureError
from hardyheat.ou_basis import OUBasis
from hardyheat.quadrature import (ProductRule, _angular_nodes, _radial_x_angular, laguerre_rule,
                                  polar_rule, product_rule, sphere_area)
from mode_oracle import eval_grad_V, eval_V, potential_values, radii

DEFAULT_NR = 64  # radial nodes of a zonal rule


def integrate_G(f, t: float, rule: ProductRule) -> float:
    """int f(x) G(x, t) dx on the rule: sum(weights * f(sqrt(t) * points)),
    f mapping an (M, N) array of points to M values."""
    return float(rule.weights @ f(math.sqrt(t) * rule.points))


def radial_x_angular(N: int, n_r: int, a_gl: float | None, dirs, aw) -> ProductRule:
    """The Gauss-Laguerre rule of exponent a_gl in s = r^2/4 times the
    angular rule (dirs, aw); None is the package's plain N/2 - 1, and any
    other exponent carries the residual power s^{N/2-1-a_gl} of the surface
    Jacobian in its weights."""
    if a_gl is None:
        return _radial_x_angular(N, n_r, dirs, aw)
    radial = laguerre_rule(a_gl, n_r)
    n_eff, n_ang = radial.count, len(aw)
    points = np.repeat(radial.nodes_r, n_ang)[:, None] * np.tile(dirs, (n_eff, 1))
    weights = (2.0 ** (N - 1) * np.repeat(radial.weights, n_ang) * np.tile(aw, n_eff)
               * np.repeat(radial.nodes ** (N / 2.0 - 1.0 - a_gl), n_ang))
    return ProductRule(N, radial, dirs, points, weights)


@lru_cache(maxsize=8)
def shifted_product_rule(N: int, n_r: int, n_polar: int, n_az: int, a_gl: float) -> ProductRule:
    """``quadrature.product_rule`` on the Gauss-Laguerre exponent a_gl."""
    return radial_x_angular(N, n_r, a_gl, *_angular_nodes(N, n_polar, n_az))


@lru_cache(maxsize=32)
def zonal_rule(
    N: int, n_r: int = DEFAULT_NR, n_polar: int = 32, a_gl: float | None = None
) -> ProductRule:
    """The cubature for integrands zonal about e1: f(x) = g(|x|, x_1/|x|).

    Its directions (c, sqrt(1 - c^2), 0, ...) are the ``polar_rule`` nodes
    in the (e1, e2) plane, and the S^{N-2} measure of each polar circle is
    folded into the angular weights.
    """
    if N < 3:
        raise QuadratureError("zonal reduction needs N >= 3")
    c, wc = polar_rule(N, n_polar)
    dirs = np.zeros((len(c), N))
    dirs[:, 0], dirs[:, 1] = c, np.sqrt(1.0 - c**2)
    return radial_x_angular(N, n_r, a_gl, dirs, sphere_area(N - 1) * wc)


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


@dataclass(frozen=True)
class PointBump:
    """A package ``GaussianBump`` u(x) = exp(-|x - b e|^2 / (2 w^2)) as a
    point function."""

    bump: ineq.GaussianBump

    def value(self, x):
        d = x - self.bump.b * self.bump.axis
        return np.exp(-np.sum(d * d, axis=-1) / (2.0 * self.bump.w**2))

    def value_grad(self, x):
        u = self.value(x)  # one exponential for both
        return u, -((x - self.bump.b * self.bump.axis) / self.bump.w**2) * u[..., None]


def point_function(member):
    """The member with ``value`` and ``value_grad``: a GaussianBump as a
    :class:`PointBump`, any other member as it is."""
    return PointBump(member) if isinstance(member, ineq.GaussianBump) else member


class BasisModeFunction:
    """A normalized eigenbasis mode as a point-function test member."""

    def __init__(self, basis: OUBasis, k: int):
        self.mode = basis.modes[k]
        self.spectrum = basis.spectrum

    def __repr__(self):
        return f"BasisModeFunction(j={self.mode.j}, n={self.mode.n})"

    def value(self, x):
        return eval_V(self.spectrum, [self.mode], x)[0]

    def value_grad(self, x):
        values, grads = eval_grad_V(self.spectrum, [self.mode], x)
        return values[0], grads[0]


def members(family: ineq.TestFamily, basis: OUBasis | None = None):
    """The family's members, with the two kinds the package does not sweep:
    'polygauss' (N = 3) and 'modes' (the first ``count`` modes of ``basis``,
    cyclically)."""
    rng = np.random.default_rng(family.seed)
    if family.kind == "polygauss":
        if family.N != 3:
            raise ConfigurationError("polynomial-x-Gaussian family is N=3 only")
        for _ in range(family.count):
            yield PolyGaussian(tuple(rng.normal(size=len(_MONOMIALS3))),
                               rng.uniform(1.0 / 12.0, 1.0 / 6.0))
    elif family.kind == "modes":
        if basis is None:
            raise ConfigurationError("mode family needs a basis")
        for i in range(family.count):
            yield BasisModeFunction(basis, i % basis.size)
    else:
        yield from family.members()


def rule_pair(N: int, n_r: int = 48) -> tuple:
    """(plain, hardy) full product cubature pair; N = 3 only.

    The 1/|x|^2 integrands carry an s^{-1} factor relative to the surface
    Jacobian; the hardy twin's exponent a_GL = N/2 - 2 restores exactness
    there, while everything regular uses the plain N/2 - 1 rule.
    """
    if N != 3:
        raise ConfigurationError(f"the full cubature pair is N = 3 only, got N = {N}")
    return product_rule(N, n_r, 14, 28), shifted_product_rule(N, n_r, 14, 28, N / 2.0 - 2.0)


def _sample(member, rule, t: float, grad: bool = True):
    """(u, |grad u|^2 or None, |x|^2) at the nodes of ``rule`` at time t."""
    member = point_function(member)
    pts = math.sqrt(t) * rule.points
    if not grad:
        return np.asarray(member.value(pts), dtype=float), None, t * radii(rule)**2
    u, g = (np.asarray(a, dtype=float) for a in member.value_grad(pts))
    return u, np.sum(g * g, axis=-1), t * radii(rule)**2


def _rule_integrals(want: set, member, t: float, rules: tuple, spec, s: float) -> dict:
    """The integrals ``want`` needs, by quadrature on the rule pair.

    The member is sampled at most once per rule and time: the plain rule at
    t, the plain rule at t = 1 (the |x|^2 bound) and the singular twin at t.
    The potential term is nodal.
    """
    plain, twin = rules
    out = {}
    if "x2_bound" in want:
        u, g2, r2 = _sample(member, plain, 1.0)
        out.update(u2_1=plain.weights @ (u * u), grad2_1=plain.weights @ g2,
                   r2u2_1=plain.weights @ (r2 * (u * u)))
    if want & {"hardy_parabolic", "hardy_anisotropic", "sobolev"}:
        u, g2, _ = _sample(member, plain, t)
        out.update(u2=plain.weights @ (u * u), grad2=plain.weights @ g2)
    if want & {"hardy_parabolic", "hardy_anisotropic"}:
        uh, _, r2h = _sample(member, twin, t, grad=False)
        out["hardy"] = twin.weights @ (uh * uh / r2h)
    if "hardy_anisotropic" in want:
        a = np.tile(potential_values(spec.potential, twin.angular_dirs), twin.radial.count)
        out["a_hardy"] = twin.weights @ (a * uh * uh / r2h)
    if "sobolev" in want:
        # G^{s/2 - 1} at the scaled nodes; the base radius is t-invariant
        Gpow = (t ** (-plain.N / 2.0) * np.exp(-radii(plain)**2 / 4.0)) ** (s / 2.0 - 1.0)
        out["sob"] = plain.weights @ (np.abs(u) ** s * Gpow)
    return out


def member_values(inequalities, member, t: float, rules: tuple,
                  spec: ang.AngularSpectrum | None = None,
                  s: float = ineq.SOBOLEV_EXPONENT) -> dict:
    """Each requested inequality's gated (gap, scale), or the Sobolev quotient,
    by quadrature.

    ``rules`` is a (plain, hardy twin) pair such as :func:`rule_pair`'s;
    ``spec`` supplies mu_1 and the potential of the anisotropic form.  The
    member is sampled at most once per rule and time.  Gaps are gated in the
    order of ``inequalities``.
    """
    N = rules[0].N
    ineq._check_request(inequalities, N, s)
    ints = _rule_integrals(set(inequalities), member, t, rules, spec, s)
    out = ineq._values(inequalities, ints, t, N, spec, s)
    ineq._gate(inequalities, out)
    return out


def sweep_values(inequalities, family: ineq.TestFamily, t: float = 0.7,
                 spec: ang.AngularSpectrum | None = None, basis: OUBasis | None = None,
                 n_r: int = 48) -> dict:
    """{name: values over the family}, one :func:`member_values` per member
    on :func:`rule_pair`: gap and scale rows, or Sobolev quotients."""
    rules = rule_pair(family.N, n_r)
    rows = [member_values(inequalities, m, t, rules, spec) for m in members(family, basis)]
    return {name: np.array([row[name] for row in rows]).T for name in inequalities}


def min_relative_gap(values: dict, name: str) -> float:
    gap, scale = values[name]
    return float(np.min(gap / scale))
