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

``sweep`` runs the named ones over a family in one pass, on closed forms
only, vectorized over the family: Gaussian bumps (centers drawn with
density ~ 1/r in radius to stress the Hardy singularity) in any N, and the
near-extremal power family for the two Hardy inequalities.  The potential
of the anisotropic form is absent, constant, or (N = 3) a real-harmonic
table, whose term the Funk-Hecke formula gives in closed form degree by
degree (:func:`bump_table_hardy`).  Anything else raises ConfigurationError.

The module also gives the coercivity constant C1 of the quadratic form
with the plain H_t denominator, which the frequency lower bound uses: an
exact scalar root on the angular ground state, with no basis.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import angular as ang
from .errors import ConfigurationError, InvariantViolationError
from .quadrature import sphere_area
from .specfun import hyp1f1_minus

GAP_SLACK = 1e-10  # violations are gap < -GAP_SLACK * scale
SOBOLEV_EXPONENT = 2.5  # the s of the Sobolev quotient in sweeps
INEQUALITIES = ("hardy_parabolic", "hardy_anisotropic", "x2_bound", "sobolev")


# -- test functions ----------------------------------------------------------

@dataclass(frozen=True)
class GaussianBump:
    """u(x) = exp(-|x - b e|^2 / (2 w^2)) about the unit axis e."""

    b: float
    w: float
    axis: np.ndarray


@dataclass(frozen=True)
class PowerGaussian:
    """u(x) = |x|^{-beta} exp(-kappa |x|^2), beta < (N-2)/2; closed forms only.

    Near equality in both Hardy inequalities as beta -> (N-2)/2 and
    kappa -> 0: at kappa = 0 the parabolic right side exceeds the left by
    the factor 1 + eps^2 / hardy_constant(N), eps = (N-2)/2 - beta.
    """

    beta: float
    kappa: float


@dataclass(frozen=True)
class TestFamily:
    """Reproducible generator description for a randomized sweep.

    Every draw is one value u of ``random.Random(seed).random()``, whose
    stream Python keeps the same across versions, taken in this order per
    member:
    - 'bumps': b in [1e-3, 2] and w in [0.5, 1.5], each log-uniform
      (density ~ 1/r in radius), exp(log lo + (log hi - log lo) u); then
      each of the N axis components by Box-Muller from two draws u, v,
      sqrt(-2 log(1 - u)) cos(2 pi v), the axis divided by its
      ``math.hypot``;
    - 'power': eps in [1e-3, 0.1] and kappa in [1e-4, 1], log-uniform as
      above, and beta = (N-2)/2 - eps.
    """

    kind: str          # 'bumps' | 'power'
    N: int
    count: int
    seed: int

    def members(self):
        rng = random.Random(self.seed)

        def log_uniform(lo, hi):
            return math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * rng.random())

        def normal():
            return math.sqrt(-2.0 * math.log(1.0 - rng.random())) * math.cos(
                2.0 * math.pi * rng.random())

        if self.kind == "bumps":
            for _ in range(self.count):
                b, w = log_uniform(1e-3, 2.0), log_uniform(0.5, 1.5)
                axis = [normal() for _ in range(self.N)]
                yield GaussianBump(b, w, np.array(axis) / math.hypot(*axis))
        elif self.kind == "power":
            for _ in range(self.count):
                eps, kappa = log_uniform(1e-3, 0.1), log_uniform(1e-4, 1.0)
                yield PowerGaussian((self.N - 2) / 2.0 - eps, kappa)
        else:
            raise ConfigurationError(f"unknown family kind {self.kind!r}; "
                                     "the sweeps take 'bumps' and 'power'")


# -- integrals ----------------------------------------------------------------
#
# Every value below is built from the integrals against G(., t), keyed
#   u2 = int u^2,  grad2 = int |grad u|^2,  hardy = int u^2/|x|^2,
#   a_hardy = int a u^2/|x|^2 (a the angular potential),
#   sob = int |u|^s G^{s/2 - 1} (that is int |u|^s G^{s/2} dx),
# and, at t = 1 for the |x|^2 bound, u2_1, grad2_1 and r2u2_1 = int |x|^2 u^2.

def hardy_constant(N: int) -> float:
    """The sharp constant (N-2)^2/4 of both Hardy inequalities."""
    return (N - 2) ** 2 / 4.0


def _bump_gaussian(b, w, t: float, N: int):
    """(a, q, M0) of the Gaussian u^2 G of the bumps at time t; see
    :func:`bump_integrals`."""
    a = 1.0 / w**2 + 1.0 / (4.0 * t)
    q = 1.0 / (4.0 * t * a)
    return a, q, (math.pi / (a * t)) ** (N / 2.0) * np.exp(-(b / w) ** 2 * q)


def bump_integrals(b, w, t: float, N: int) -> dict:
    """Every integral but a_hardy of the bumps exp(-|x - b e|^2 / (2 w^2)),
    in closed form, elementwise over the arrays b and w.

    With a = 1/w^2 + 1/(4t), u^2 G is a Gaussian of mean m e, m = b/(w^2 a),
    and variance 1/(2a) per coordinate, of mass
    M0 = (pi/(a t))^{N/2} exp(-(b/w)^2 q), q = 1 - 1/(w^2 a) = 1/(4 t a):
    - grad2 = M0 w^-4 (N/(2a) + b^2 q^2);
    - hardy = M0 (2a/(N-2)) 1F1(1; N/2; -a m^2), the inverse moment of a
      noncentral chi-square (Johnson, Kotz & Balakrishnan, ch. 29);
    - r2u2 = M0 (N/(2a) + m^2);
    - sob = t^{-Ns/4} (2 pi/(s a))^{N/2} exp(-(s/2)(b/w)^2 q), s = SOBOLEV_EXPONENT.

    A value that is not representable (w^4 overflows at a huge t) comes out
    inf or NaN without a warning; the Sobolev self-check of :func:`sweep`
    rejects it.
    """
    b, w = np.asarray(b, dtype=float), np.asarray(w, dtype=float)
    s = SOBOLEV_EXPONENT
    with np.errstate(over="ignore", invalid="ignore"):
        a, q, u2 = _bump_gaussian(b, w, t, N)
        a1, q1, u2_1 = _bump_gaussian(b, w, 1.0, N)
        return {
            "u2": u2,
            "grad2": u2 / w**4 * (N / (2.0 * a) + (b * q) ** 2),
            "hardy": u2 * (2.0 * a / (N - 2)) * hyp1f1_minus(1.0, N / 2.0, b**2 / (w**4 * a)),
            "sob": t ** (-N * s / 4.0) * (2.0 * math.pi / (s * a)) ** (N / 2.0)
            * np.exp(-(s / 2.0) * (b / w) ** 2 * q),
            "u2_1": u2_1,
            "grad2_1": u2_1 / w**4 * (N / (2.0 * a1) + (b * q1) ** 2),
            "r2u2_1": u2_1 * (N / (2.0 * a1) + (b / (w**2 * a1)) ** 2),
        }


def bump_table_hardy(table, b, w, axes, t: float):
    """a_hardy of the N = 3 bumps exp(-|x - b e|^2 / (2 w^2)) under the
    potential a = sum c_lm Y_lm of a harmonic table of (l, m, c_lm), in closed
    form, elementwise over the arrays b, w and the rows e of ``axes``.

    With a, m and M0 of :func:`bump_integrals` and sigma = sqrt(a) m,

        a_hardy = M0 a sum_lm c_lm Y_lm(e) sigma^l Gamma((l+1)/2) / Gamma(l + 3/2)
                  1F1(1 + l/2; l + 3/2; -sigma^2):

    the Funk-Hecke formula int_{S^2} Y_l e^{kappa theta.e} = 4 pi i_l(kappa) Y_l(e)
    (Atkinson & Han, LNM 2044, ch. 2), Weber's integral of a Gaussian against
    i_l (Watson 1944, section 13.3) and Kummer's transformation.  At l = 0
    it is c_00 Y_00 times the hardy of :func:`bump_integrals`.
    """
    b, w = np.asarray(b, dtype=float), np.asarray(w, dtype=float)
    a, _, m0 = _bump_gaussian(b, w, t, 3)
    sigma = b / (w**2 * np.sqrt(a))
    degrees = sorted({l for l, _, _ in table})
    L = max(degrees, default=0)
    coeffs = np.zeros((ang.basis_size(L), len(degrees)))
    for l, m, c in table:  # one column per degree: its part of a at the axes
        coeffs[ang.sph_index(l, m), degrees.index(l)] = c
    ys = ang.harmonic_sums(coeffs, L, axes)
    total = np.zeros_like(sigma)
    for l, y in zip(degrees, ys):
        total += (y * sigma**l * math.gamma((l + 1) / 2.0) / math.gamma(l + 1.5)
                  * hyp1f1_minus(1.0 + l / 2.0, l + 1.5, sigma * sigma))
    return m0 * a * total


def power_integrals(beta, kappa, t: float, N: int) -> dict:
    """u2, grad2 and hardy of u = |x|^{-beta} exp(-kappa |x|^2), beta < (N-2)/2,
    elementwise over the arrays beta and kappa.

    With c = 2 kappa + 1/(4t), m = N - 2 beta and J(p) = Gamma(p/2) / (2 c^{p/2}),
    each is |S^{N-1}| t^{-N/2} times: u2 = J(m), hardy = J(m-2) and
    grad2 = beta^2 J(m-2) + 4 beta kappa J(m) + 4 kappa^2 J(m+2).
    """
    beta, kappa = np.asarray(beta, dtype=float), np.asarray(kappa, dtype=float)
    c = 2.0 * kappa + 1.0 / (4.0 * t)
    half = (N - 2.0 * beta - 2.0) / 2.0  # (m - 2)/2 > 0
    scale = sphere_area(N) * t ** (-N / 2.0)
    hardy = scale * np.vectorize(math.gamma)(half) / (2.0 * c**half)
    u2 = hardy * half / c
    grad2 = beta**2 * hardy + 4.0 * beta * kappa * u2 + 4.0 * kappa**2 * u2 * (half + 1.0) / c
    return {"u2": u2, "grad2": grad2, "hardy": hardy}


# -- verifiers ---------------------------------------------------------------

def _check_request(inequalities, N: int, s: float) -> None:
    unknown = sorted(set(inequalities) - set(INEQUALITIES))
    if unknown:
        raise ConfigurationError(f"unknown inequality {unknown[0]!r}; names: {INEQUALITIES}")
    if "sobolev" in inequalities and not 2.0 <= s <= 2.0 * N / (N - 2):
        raise ConfigurationError(f"s={s} outside [2, 2N/(N-2)]")


def _values(inequalities, ints: dict, t: float, N: int, spec, s: float) -> dict:
    """Each requested inequality's (gap, scale), or the Sobolev quotient, from
    the integrals ``ints``: scalars for one member, arrays for many.

    ``spec`` supplies mu_1 of the anisotropic form.
    """
    out = {}
    for name in inequalities:
        if name == "x2_bound":
            rhs = ints["grad2_1"] + N / 4.0 * ints["u2_1"]
            out[name] = (rhs - ints["r2u2_1"] / 16.0, abs(rhs))
        elif name == "hardy_parabolic":
            rhs = ((N - 2) / (4.0 * t) * ints["u2"] + ints["grad2"]) / hardy_constant(N)
            out[name] = (rhs - ints["hardy"], abs(rhs))
        elif name == "hardy_anisotropic":
            lhs = (float(spec.eigenvalues[0]) + hardy_constant(N)) * ints["hardy"]
            rhs = ints["grad2"] - ints["a_hardy"] + (N - 2) / (4.0 * t) * ints["u2"]
            out[name] = (rhs - lhs, abs(rhs) + abs(lhs))
        else:
            out[name] = ints["sob"] ** (2.0 / s) / (
                t ** (-(N / s) * (s - 2.0) / 2.0) * (t * ints["grad2"] + ints["u2"]))
    return out


def _gate(inequalities, values: dict) -> None:
    """Raise on the first member, then the first inequality in the order of
    ``inequalities``, whose gap is below the relative slack, or measures
    nothing: a gap that is not finite, or a scale not positive and finite."""
    names = [name for name in inequalities if name != "sobolev"]
    gaps = [np.atleast_1d(values[name][0]) for name in names]
    scales = [np.atleast_1d(values[name][1]) for name in names]
    empty = np.array([~(np.isfinite(g) & (sc > 0.0) & (sc < math.inf))
                      for g, sc in zip(gaps, scales)])
    low = np.logical_or(empty, [g < -GAP_SLACK * sc for g, sc in zip(gaps, scales)])
    if low.any():
        i = int(np.argmax(low.any(axis=0)))
        k = int(np.argmax(low[:, i]))
        what, why = (("measures nothing", "closed forms not representable at this t")
                     if empty[k, i] else ("violated", "signals an integration bug"))
        raise InvariantViolationError(
            f"{names[k]} {what}: gap {float(gaps[k][i])} vs slack "
            f"{-GAP_SLACK * float(scales[k][i])} ({why})"
        )


# -- family sweeps ------------------------------------------------------------

def _closed_integrals(family: TestFamily, members: list, t: float, potential) -> dict:
    """The members' integrals in closed form, with a_hardy under ``potential``
    unless it is None (no anisotropic sweep asks for it)."""
    N = family.N
    if family.kind == "power":
        ints = power_integrals(np.array([m.beta for m in members]),
                               np.array([m.kappa for m in members]), t, N)
    else:
        b, w = np.array([m.b for m in members]), np.array([m.w for m in members])
        ints = bump_integrals(b, w, t, N)
    if potential is None:
        return ints
    if potential.is_constant:
        ints["a_hardy"] = potential.value * ints["hardy"]
    else:
        ints["a_hardy"] = bump_table_hardy(potential.table, b, w,
                                           np.array([m.axis for m in members]), t)
    return ints


def sweep(inequalities, family: TestFamily, t: float = 0.7,
          spec: ang.AngularSpectrum | None = None) -> list:
    """Run the named inequalities over a family in one pass; one report each.

    Every integral is a closed form, vectorized over the family: bumps in
    any N under an absent or constant potential, or a harmonic table in
    N = 3, and power members for the two Hardy inequalities under an
    absent or constant potential.  Any other family, and an anisotropic
    sweep whose spectrum is for another N, raise ConfigurationError
    before the first member is evaluated;
    PositivityError when the spectrum fails positivity.  Raises
    InvariantViolationError on any gap below the relative slack.  A Sobolev
    sweep first checks the closed forms on the centred bump exp(-|x|^2 / 4t),
    whose quotient has an independent closed form free of t, to GAP_SLACK
    relative.
    """
    N = family.N
    _check_request(inequalities, N, SOBOLEV_EXPONENT)
    anisotropic = "hardy_anisotropic" in inequalities
    if anisotropic and spec is None:
        raise ConfigurationError("anisotropic sweep needs an angular spectrum")
    potential = spec.potential if anisotropic else None
    if family.kind == "power" and not (
            set(inequalities) <= {"hardy_parabolic", "hardy_anisotropic"}
            and (potential is None or potential.is_constant)):
        raise ConfigurationError("the power family has the two Hardy inequalities only, "
                                 "under an absent or constant potential")
    if anisotropic:
        if spec.N != N:
            raise ConfigurationError(f"angular spectrum for N = {spec.N}, family for N = {N}")
        ang.require_positivity(spec)
    members = list(family.members())

    def evaluate(names, members):
        ints = _closed_integrals(family, members, t, potential)
        values = _values(names, ints, t, N, spec, SOBOLEV_EXPONENT)
        _gate(names, values)
        return values

    if "sobolev" in inequalities:
        s = SOBOLEV_EXPONENT
        exact = (8.0 * math.pi / (3.0 * s)) ** (N / s) / (
            (1.0 + N / 6.0) * (4.0 * math.pi / 3.0) ** (N / 2.0))
        centred = GaussianBump(0.0, math.sqrt(2.0 * t), np.eye(N)[0])
        got = float(evaluate(("sobolev",), [centred])["sobolev"][0])
        if not abs(got - exact) <= GAP_SLACK * exact:  # a NaN fails too
            raise InvariantViolationError(
                f"Sobolev quotient of the centred bump {got} misses its closed form "
                f"{exact} by over {GAP_SLACK} relative (closed forms not representable "
                "at this t)"
            )

    values = evaluate(inequalities, members)
    reports = []
    for name in inequalities:
        report = {"inequality": name, "family": family.kind, "N": N,
                  "count": family.count, "seed": family.seed, "t": t}
        if name == "sobolev":
            report["sup_ratio"] = float(np.max(values[name]))
            report["mean_ratio"] = float(np.mean(values[name]))
        else:
            gap, scale = values[name]
            head = gap / scale
            i = int(np.argmin(head))
            report["min_relative_gap"] = float(head[i])
            report["argmin"] = f"member #{i} ({members[i]!r})"
        reports.append(report)
    return reports


# -- coercivity constant ------------------------------------------------------

def _scaled_ground(spectrum: ang.AngularSpectrum):
    """q -> the ground eigenvalue of -(1 - q) Lap_S - a: -a for a constant a,
    and for a table the smallest eigenvalue of B - q diag(l(l+1)), with B the
    block of :func:`angular.assemble_angular` at the spectrum's truncation
    degree that holds Y_00 (the positive ground state has a Y_00 component).
    """
    a = spectrum.potential
    if a.is_constant:
        return lambda q: -a.value
    L = spectrum.truncation_degree
    idx, B = next((idx, B) for idx, B in ang.assemble_angular(a, L) if 0 in idx)
    lap = np.diag(ang.laplacian_diagonal(L)[idx])
    return lambda q: float(np.linalg.eigvalsh(B - q * lap)[0])


def coercivity_bound_constant(spectrum: ang.AngularSpectrum) -> float:
    """C1 = inf_v (D_a(v) + c ||v||^2) / (D_0(v) + ||v||^2), c = (N-2)/4, the
    constant of the frequency bound N(t) >= C1 - c (D_a and D_0 the
    Dirichlet forms with and without a/|x|^2, against G).

    With h = (N-2)/2, the quotient is at least q < 1 exactly when the OU
    ground eigenvalue under a/(1-q), (sqrt(h^2 + mu_1) - h)/2 with mu_1 that
    of -Lap_S - a/(1-q), is at least (q - c)/(1 - q); with
    e = (1 - q)(h^2 + mu_1) = (1 - q) h^2 + :func:`_scaled_ground`, when
    e >= 0 and sqrt((1 - q) e) >= q (2 - h).  The form's minimum is concave
    in q, so the allowed q form one interval, which holds 0 under
    positivity: bisection returns its largest float, and exactly 1 when
    every q < 1 is allowed.
    """
    ang.require_positivity(spectrum)
    h = (spectrum.N - 2) / 2.0
    ground = _scaled_ground(spectrum)

    def allowed(q):
        e = (1.0 - q) * h * h + ground(q)
        return e >= 0.0 and math.sqrt((1.0 - q) * e) >= q * (2.0 - h)

    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if allowed(mid) else (lo, mid)
    return 1.0 if lo == math.nextafter(1.0, 0.0) else lo
