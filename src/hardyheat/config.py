"""Run configuration: flat INI-style text, canonically serialized.

The format is `key = value` under named sections so configs diff cleanly;
parsing and re-serialization round-trip bit-identically (canonical float
formatting is the shortest round-trip decimal, i.e. repr).
"""

from __future__ import annotations

import configparser
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

from .errors import ConfigurationError

# SHA-256 from CPython's own module: hashlib would load OpenSSL (about
# 3.6 MB of resident memory) for three digests of under 1 MB each
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(x) for x in v)
    return str(v)


@dataclass
class RunConfig:
    # problem
    dimension: int = 3
    potential: str = "constant:0.0"
    perturbation: str = "none"
    h_eps: float = 1.0
    h_const: float = 0.0
    # discretization
    angular_truncation: int = 0      # 0 = analytic / auto
    angular_count: int = 36
    gamma_max: float = 2.0
    radial_nodes: int = 64
    dtau: float = 0.005
    tau_min: float = math.log(1e-3)
    # experiment
    initial: str = "modes:0=1.0"
    lambda_grid: tuple = (0.1, 0.2, 0.3, 0.4)
    recon_lambdas: tuple = (0.5, 0.25, 0.125)
    recon_tau: float = 0.25
    fit_decades: float = 1.0
    sweep_count: int = 1000
    sweep_dims: tuple = (3, 4, 5)
    sweep_t: float = 0.7
    seed: int = 12345
    # output
    directory: str = "out"

    _SECTIONS = {
        "problem": ("dimension", "potential", "perturbation", "h_eps", "h_const"),
        "discretization": ("angular_truncation", "angular_count", "gamma_max",
                           "radial_nodes", "dtau", "tau_min"),
        "experiment": ("initial", "lambda_grid", "recon_lambdas", "recon_tau",
                       "fit_decades", "sweep_count", "sweep_dims", "sweep_t", "seed"),
        "output": ("directory",),
    }

    def validate(self) -> None:
        from .angular import MAX_DEGREE
        from .evolve import DTAU_MAX, TAU_FLOOR
        from .inequalities import SOBOLEV_EXPONENT as s

        # the upper bounds keep what each key sizes small (README, config table)
        for key, low, high in (("dimension", 3, 10), ("angular_count", 1, 1024),
                               ("sweep_count", 1, 100_000),
                               ("angular_truncation", 0, MAX_DEGREE)):
            if not low <= getattr(self, key) <= high:
                raise ConfigurationError(f"{key} must lie in [{low}, {high}]")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        # each range test is False on NaN, so a NaN fails it too
        for key in ("fit_decades", "sweep_t"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ConfigurationError(f"{key} must be positive and finite")
        if not 0.0 < self.gamma_max <= 8.0:
            raise ConfigurationError("gamma_max must lie in (0, 8]")
        if self.fit_decades > 12.0:  # a run stores <= 6 decades: 12 and its half hold all
            raise ConfigurationError("fit_decades must be <= 12")
        if not 0.0 < self.h_eps < 2.0:
            raise ConfigurationError("h_eps must lie in (0, 2)")
        if not 0.0 <= self.h_const < math.inf:
            raise ConfigurationError("h_const must be >= 0 and finite")
        if not 0.0 < self.dtau <= DTAU_MAX:
            raise ConfigurationError(f"dtau must lie in (0, {DTAU_MAX}]")
        if not TAU_FLOOR - 1e-12 <= self.tau_min < 0.0:
            raise ConfigurationError("tau_min must lie in [log(1e-6), 0)")
        if self.radial_nodes < 4 or self.radial_nodes > 1024:
            raise ConfigurationError("radial_nodes outside [4, 1024]")
        if not self.lambda_grid:
            raise ConfigurationError("lambda_grid must list at least one Lambda")
        for key in ("lambda_grid", "recon_lambdas"):
            if not all(0.0 < lam < math.inf for lam in getattr(self, key)):
                raise ConfigurationError(f"{key} entries must be positive and finite")
        if not 0.0 < self.recon_tau < 1.0:
            raise ConfigurationError("recon_tau must lie in (0, 1)")
        # the Sobolev quotient needs s <= 2N/(N-2), that is N <= 2s/(s-2)
        n_max = 2.0 * s / (s - 2.0)
        if not self.sweep_dims or any(not 3 <= int(N) <= n_max for N in self.sweep_dims):
            raise ConfigurationError(f"sweep_dims must list dimensions in [3, {n_max:g}]")

    def to_text(self) -> str:
        out = io.StringIO()
        for section, keys in self._SECTIONS.items():
            out.write(f"[{section}]\n")
            for key in keys:
                out.write(f"{key} = {_fmt(getattr(self, key))}\n")
            out.write("\n")
        return out.getvalue()

    def content_hash(self) -> str:
        """Hash of the config text without its output directory, so a run
        keeps one hash wherever it is written or moved."""
        return _sha256(replace(self, directory="").to_text().encode()).hexdigest()[:16]

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigurationError(f"config parse failure: {exc}") from exc
        if parser.defaults():  # [DEFAULT] keys would leak into every section
            raise ConfigurationError(f"unknown config section [{parser.default_section}]")
        cfg = cls()
        for section in parser.sections():
            if section not in cls._SECTIONS:
                raise ConfigurationError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in cls._SECTIONS[section]:
                    raise ConfigurationError(
                        f"unknown key {key!r} in section [{section}]"
                    )
                cur = getattr(cfg, key)
                try:
                    if isinstance(cur, int):
                        val = int(raw)
                    elif isinstance(cur, float):
                        val = float(raw)
                    elif isinstance(cur, tuple):
                        elem = int if key == "sweep_dims" else float
                        val = tuple(elem(x) for x in raw.split(",") if x.strip())
                    else:
                        val = raw.strip()
                except ValueError as exc:
                    raise ConfigurationError(f"bad value for {key}: {raw!r}") from exc
                setattr(cfg, key, val)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text)


def _finite(text: str) -> float:
    """float(text), refusing NaN and +-inf."""
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return val


def _fields(text: str, count: int) -> list:
    """The ':'-separated fields of text, exactly ``count`` of them."""
    fields = text.split(":")
    if len(fields) != count:
        raise ConfigurationError(f"{len(fields)} fields where the kind takes {count}")
    return fields


@contextmanager
def _spec_errors(key: str, spec: str):
    """Any fault in the ``key`` spec string (unknown kind, missing field, bad
    number, rejected value, overflow) becomes a ConfigurationError naming the key."""
    try:
        yield
    except (ConfigurationError, ValueError, IndexError, OverflowError) as exc:
        raise ConfigurationError(f"bad {key} = {spec!r}: {exc}") from exc


def parse_potential(cfg: RunConfig):
    """AngularPotential from the config string: a constant in any dimension,
    a harmonic table in dimension = 3."""
    from .angular import AngularPotential

    spec = cfg.potential.strip()
    with _spec_errors("potential", spec):
        if spec.startswith("constant:"):
            return AngularPotential.constant(_finite(spec.split(":", 1)[1]))
        if spec.startswith("harmonic_table:"):
            entries = []
            for item in spec.split(":", 1)[1].split(";"):
                if not item.strip():
                    continue
                l, m, c = item.split(",")
                entries.append((int(l), int(m), _finite(c)))
            if cfg.dimension != 3:
                raise ConfigurationError("a harmonic table needs dimension = 3, "
                                         f"got {cfg.dimension}")
            return AngularPotential.harmonic_table(entries)
        raise ConfigurationError(
            "unsupported kind (constant:<v> in any dimension or "
            "harmonic_table:<l,m,c;...> in dimension = 3)"
        )


def parse_perturbation(cfg: RunConfig):
    """PerturbationSpec from the config string; h_const > 0 sets a linear C_h."""
    from .evolve import PerturbationSpec

    spec = cfg.perturbation.strip()
    with _spec_errors("perturbation", spec):
        if spec == "none":
            return PerturbationSpec.none()
        kind, _, rest = spec.partition(":")
        if kind in ("linear_constant", "linear_bounded"):
            pert = getattr(PerturbationSpec, kind)(_finite(rest), eps_h=cfg.h_eps)
            return replace(pert, C_h=cfg.h_const) if cfg.h_const > 0 else pert
        if kind == "semilinear":
            eps, p = _fields(rest, 2)
            return PerturbationSpec.semilinear(_finite(eps), _finite(p), cfg.dimension)
        raise ConfigurationError("unsupported kind")


def _mode_pairs(text: str) -> list:
    """[(k, c), ...] from '<k>=<c>,...'."""
    return [(int(k), _finite(v)) for k, _, v in (item.partition("=") for item in text.split(","))]


def parse_initial(cfg: RunConfig, basis):
    """Initial data from the config string.

    modes:<k>=<coeff>,... sets coefficients directly, each mode once;
    family:pure:<k>, family:mixture:<k>=<c>,... and
    family:exp_linear:<k>:<eps> are the closed-form families at t = 1: c_k = 1,
    the given c's, and c_k = e^{-eps}.  The datum's H = |c|^2 must lie above
    the trace's underflow floor and be finite.
    """
    from .almgren import H_FLOOR
    from .evolve import build_initial

    spec = cfg.initial.strip()
    kind, _, rest = spec.partition(":")
    family, _, args = rest.partition(":")
    with _spec_errors("initial", spec):
        if kind == "modes":
            pairs = _mode_pairs(rest)
        elif kind == "family" and family == "pure":
            pairs = [(int(args), 1.0)]
        elif kind == "family" and family == "mixture":
            pairs = _mode_pairs(args)
        elif kind == "family" and family == "exp_linear":
            k, eps = _fields(args, 2)
            pairs = [(int(k), math.exp(-_finite(eps)))]
        else:
            raise ConfigurationError("unsupported kind")
        c = build_initial(basis, pairs)
        H = sum(x * x for x in c.tolist())  # Python floats overflow to inf quietly
        if not H_FLOOR < H < math.inf:
            raise ConfigurationError(f"H = |c|^2 = {H!r} outside ({H_FLOOR}, inf)")
        return c
