import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import signal
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hardyheat import cli, evolve, ou_basis, quadrature
from hardyheat.cli import main
from hardyheat.config import RunConfig, parse_perturbation, parse_potential
from hardyheat.errors import ConfigurationError


def write_config(tmp_path, **overrides):
    cfg = RunConfig()
    for k, v in overrides.items():
        setattr(cfg, k, v)
    path = tmp_path / "run.ini"
    path.write_text(cfg.to_text())
    return str(path), cfg


def test_config_roundtrip_bit_identical():
    cfg = RunConfig()
    text = cfg.to_text()
    again = RunConfig.from_text(text)
    assert again.to_text() == text
    assert again.content_hash() == cfg.content_hash()


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
# no whitespace (values are stripped) and no '%' (INI interpolation)
_spec_text = st.text(alphabet=string.ascii_letters + string.digits + ":,;=._-+",
                     max_size=30)
_CONFIGS = st.builds(
    RunConfig,
    dimension=st.integers(3, 10),
    potential=_spec_text,
    perturbation=_spec_text,
    h_eps=st.floats(min_value=0.0, max_value=2.0, exclude_min=True, exclude_max=True),
    h_const=st.floats(min_value=0.0, allow_infinity=False),
    angular_truncation=st.integers(0, 64),
    angular_count=st.integers(1, 1024),
    gamma_max=st.floats(min_value=0.0, max_value=8.0, exclude_min=True),
    radial_nodes=st.integers(4, 1024),
    dtau=st.floats(min_value=0.0, max_value=0.01, exclude_min=True),
    tau_min=st.floats(min_value=math.log(1e-6), max_value=0.0, exclude_max=True),
    initial=_spec_text,
    lambda_grid=st.lists(_positive, min_size=1, max_size=5).map(tuple),
    recon_lambdas=st.lists(_positive, max_size=5).map(tuple),
    recon_tau=_unit_open,
    fit_decades=st.floats(min_value=0.0, max_value=12.0, exclude_min=True),
    sweep_count=st.integers(1, 10**5),
    sweep_dims=st.lists(st.integers(3, 10), min_size=1, max_size=4).map(tuple),
    sweep_t=_positive,
    seed=st.integers(0, 2**63),
    directory=_spec_text,
)
_KNOWN_KEYS = sorted(k for keys in RunConfig._SECTIONS.values() for k in keys)


@settings(deadline=None)
@given(cfg=_CONFIGS)
def test_config_roundtrip_property(cfg):
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg
    assert again.content_hash() == cfg.content_hash()


@settings(deadline=None)
@given(section=st.sampled_from(sorted(RunConfig._SECTIONS)),
       key=st.one_of(st.from_regex(r"[a-z_][a-z0-9_]{0,12}", fullmatch=True),
                     st.sampled_from(_KNOWN_KEYS)))
def test_config_rejects_unknown_key_property(section, key):
    assume(key not in RunConfig._SECTIONS[section])
    with pytest.raises(ConfigurationError):
        RunConfig.from_text(f"[{section}]\n{key} = 1\n")


@settings(deadline=None)
@given(section=st.one_of(st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,12}", fullmatch=True),
                         st.just("DEFAULT")),
       key=st.sampled_from(_KNOWN_KEYS))
def test_config_rejects_unknown_section_property(section, key):
    assume(section not in RunConfig._SECTIONS)
    with pytest.raises(ConfigurationError):
        RunConfig.from_text(f"[{section}]\n{key} = 1\n")


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigurationError):
        RunConfig.from_text("[problem]\nnonsense = 1\n")
    with pytest.raises(ConfigurationError):
        RunConfig.from_text("[mystery]\nx = 1\n")
    for removed in ("[experiment]\nscaling_lambdas = 0.5\n",
                    "[discretization]\nmax_modes = 4\n"):
        with pytest.raises(ConfigurationError, match="unknown key"):
            RunConfig.from_text(removed)


def test_config_validation_ranges():
    cfg = RunConfig()
    cfg.dtau = 0.5
    with pytest.raises(ConfigurationError):
        cfg.validate()
    for key, bad in (("sweep_count", 0), ("sweep_t", 0.0), ("sweep_t", -1.0),
                     ("sweep_dims", (3, 2)), ("sweep_dims", ()), ("sweep_dims", (3, 11)),
                     ("sweep_dims", (100,)),
                     ("lambda_grid", ()), ("lambda_grid", (0.1, 0.0)),
                     ("recon_lambdas", (0.5, 0.0)), ("angular_count", 0),
                     ("angular_count", -1), ("fit_decades", 0.0), ("fit_decades", -1.0),
                     ("fit_decades", math.nan), ("fit_decades", 12.5), ("seed", -1),
                     ("dimension", 11), ("angular_truncation", 65), ("angular_count", 1025),
                     ("sweep_count", 100_001), ("gamma_max", 8.5)):
        cfg = RunConfig()
        setattr(cfg, key, bad)
        with pytest.raises(ConfigurationError):
            cfg.validate()
    # each upper bound is itself valid
    RunConfig(dimension=10, angular_truncation=64, angular_count=1024, sweep_count=100_000,
              gamma_max=8.0).validate()


def test_parse_potential_and_perturbation():
    cfg = RunConfig()
    cfg.potential = "harmonic_table:1,0,0.3;2,1,0.1"
    pot = parse_potential(cfg)
    assert pot.kind == "harmonic_table" and len(pot.table) == 2
    # degree 64, the angular_truncation cap, with both extreme orders
    cfg.potential = "harmonic_table:64,-64,0.01;64,64,0.01;1,0,0.1"
    assert parse_potential(cfg).table == ((1, 0, 0.1), (64, -64, 0.01), (64, 64, 0.01))
    cfg.perturbation = "semilinear:0.1:2.0"
    pert = parse_perturbation(cfg)
    assert pert.kind == "semilinear" and pert.p == 2.0
    cfg.perturbation = "bogus:1"
    with pytest.raises(ConfigurationError):
        parse_perturbation(cfg)
    cfg.perturbation = "linear_constant:0.5"
    assert parse_perturbation(cfg).C_h == 0.5
    cfg.h_const = 0.1  # h_const > 0 sets C_h
    assert parse_perturbation(cfg).C_h == 0.1


# entries outside |m| <= l <= 64 (the angular_truncation cap), or an (l, m)
# given twice
@pytest.mark.parametrize("table", ("1,2,0.1", "-1,0,0.1", "1,-3,0.1", "65,0,0.01",
                                   "1,0,0.1;2,0,0.05;1,0,0.2"))
@pytest.mark.parametrize("command", ("spectrum", "verify"))
def test_malformed_harmonic_table_exits_2(tmp_path, capsys, command, table):
    path, _ = write_config(tmp_path, directory=str(tmp_path), potential=f"harmonic_table:{table}",
                           angular_truncation=8, angular_count=16, gamma_max=1.0,
                           sweep_count=50, sweep_dims=(3,))
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "potential" in err, err


def test_harmonic_table_outside_dimension_three_exits_2(tmp_path, capsys):
    # a table is N = 3 only: every command that reads the potential exits 2
    # before it writes anything, verify (whose sweeps ignore dimension) included
    path, _ = write_config(tmp_path, directory=str(tmp_path), dimension=4,
                           potential="harmonic_table:1,0,0.1", angular_count=16,
                           gamma_max=1.0, sweep_count=50)
    for command in ("spectrum", "simulate", "beta", "verify"):
        assert main([command, "--config", path]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "potential" in err, err
        assert "dimension = 3" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_cli_inadmissible_h_exit_code(tmp_path, capsys):
    # |h| = 0.5 beats C_h (1 + |x|^{-1}) = 0.1 (1 + |x|^{-1}) away from the origin
    path, _ = write_config(tmp_path, perturbation="linear_constant:0.5", h_const=0.1,
                           gamma_max=1.0, tau_min=math.log(1e-2),
                           directory=str(tmp_path))
    assert main(["simulate", "--config", path]) == 2
    assert "admissibility bound" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_forcing_share_gate_bounds_by_eps_not_h_const(tmp_path):
    # h = 0.1/(1 + |x|^2) is admissible under C_h = 0.05 (h_const), which sets
    # only the admissibility bound: the share gate reads sup|h| = |eps| = 0.1,
    # against which the share nears 1, about 2 times C_h
    path, _ = write_config(tmp_path, perturbation="linear_bounded:0.1", h_const=0.05,
                           gamma_max=1.0, radial_nodes=16, dtau=0.01,
                           tau_min=math.log(1e-6), directory=str(tmp_path))
    assert main(["simulate", "--config", path]) == 0
    doc = json.loads((tmp_path / "frequency.json").read_text())
    assert doc["admissibility_ratio"] <= 1.0
    ratio = doc["diagnostics"]["forcing_share_ratio"]
    assert 0.99 < ratio <= 1.0 and ratio * 0.1 / 0.05 > 1.9


@pytest.mark.parametrize("config", ("bounded_h", "exp_linear"))
def test_forcing_off_by_1e5_exits_3(tmp_path, monkeypatch, capsys, config):
    # a linear forcing 1 + 1e-5 times too large exceeds |eps| t H on the
    # rows where the share nears its bound
    build = evolve.linear_forcing_matrices
    monkeypatch.setattr(evolve, "linear_forcing_matrices",
                        lambda *args: build(*args) * (1.0 + 1e-5))
    path = str(Path(__file__).resolve().parents[1] / "configs" / f"{config}.ini")
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 3
    assert "forcing share" in capsys.readouterr().err


def _csv_numbers(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return np.array([[float(x) for x in l.split(",")] for l in lines[1:]])


def _assert_same_numbers(committed, fresh, where):
    """Same keys and strings; numbers within 1e-12 absolute."""
    if isinstance(committed, dict):
        assert committed.keys() == fresh.keys(), where
        for key, value in committed.items():
            _assert_same_numbers(value, fresh[key], f"{where}/{key}")
    elif isinstance(committed, list):
        assert len(committed) == len(fresh), where
        for i, (a, b) in enumerate(zip(committed, fresh)):
            _assert_same_numbers(a, b, f"{where}[{i}]")
    elif isinstance(committed, float):
        assert abs(fresh - committed) <= 1e-12, where
    else:
        assert fresh == committed, where


def test_committed_outputs_reproduce(tmp_path, monkeypatch):
    # out/ holds the configs/exp_linear.ini run of simulate, beta and
    # quadcheck, written to the config's own directory; compare numbers, not
    # bytes, because BLAS kernels round differently across CPUs
    root = Path(__file__).resolve().parents[1]
    config = str(root / "configs" / "exp_linear.ini")
    monkeypatch.chdir(tmp_path)
    for cmd in ("simulate", "beta", "quadcheck"):
        assert main([cmd, "--config", config]) == 0
    committed, fresh = root / "out", tmp_path / "out"
    names = sorted(p.name for p in committed.iterdir())
    assert names == sorted(p.name for p in fresh.iterdir())
    for name in names:
        if name.endswith(".json"):
            docs = [json.loads((d / name).read_text()) for d in (committed, fresh)]
            # the hash of the csv bytes: checked against the committed file
            sha = [doc.pop("rows_sha256", None) for doc in docs]
            if sha[0] is not None:
                blob = (committed / "trajectory.csv").read_bytes()
                assert sha[0] == hashlib.sha256(blob).hexdigest()
            _assert_same_numbers(docs[0], docs[1], name)
        else:
            # the metadata lines and the column header, then the numbers
            head = [(d / name).read_text().splitlines() for d in (committed, fresh)]
            head = [ls[:sum(l.startswith("#") for l in ls) + 1] for ls in head]
            assert head[0] == head[1], name
            a, b = _csv_numbers(committed / name), _csv_numbers(fresh / name)
            assert a.shape == b.shape, name
            np.testing.assert_allclose(b, a, rtol=0.0, atol=1e-12, err_msg=name)


def _reject_constant(token):
    raise AssertionError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("perturbation", ("none", "linear_bounded:0.1"))
def test_every_json_output_is_strict(tmp_path, perturbation):
    # an unperturbed run has no fitted delta: frequency.json writes null
    path, _ = write_config(tmp_path, perturbation=perturbation, gamma_max=1.0,
                           radial_nodes=16, dtau=0.01, tau_min=math.log(1e-6),
                           sweep_count=10, sweep_dims=(3,), directory=str(tmp_path))
    for cmd in ("spectrum", "simulate", "beta", "verify", "quadcheck"):
        assert main([cmd, "--config", path]) == 0, cmd
    docs = {p.name: json.loads(p.read_text(), parse_constant=_reject_constant)
            for p in tmp_path.glob("*.json")}
    assert len(docs) == 6
    delta = docs["frequency.json"]["fit"]["delta_hat"]
    assert (delta is None) == (perturbation == "none")


def test_write_json_rejects_non_finite(tmp_path):
    from hardyheat.cli import _write_json

    target = tmp_path / "bad.json"
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            _write_json(target, {"value": bad}, {})
    assert not target.exists()


def test_cmd_spectrum_ladder(tmp_path):
    path, _ = write_config(tmp_path, directory=str(tmp_path))
    assert main(["spectrum", "--config", path]) == 0
    data = json.loads((tmp_path / "spectrum.json").read_text())
    table = data["multiplicity_table"]
    mults = {float(k): v["multiplicity"] for k, v in table.items()}
    assert mults == {0.0: 1, 0.5: 3, 1.0: 6, 1.5: 10, 2.0: 15}
    assert data["meta"]["basis_hash"]


def test_cmd_spectrum_positivity_exit(tmp_path, capsys):
    # quadcheck builds the run's basis, so it refuses the potential too
    path, _ = write_config(tmp_path, potential="constant:0.3",
                           directory=str(tmp_path))
    for command in ("spectrum", "quadcheck"):
        assert main([command, "--config", path]) == 4, command
        assert "positiv" in capsys.readouterr().err.lower()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


@pytest.mark.parametrize("N", (3, 4, 5))
def test_cmd_spectrum_positivity_boundary(tmp_path, capsys, N):
    # constant:lam gives mu_1 = -lam; the gate is mu_1 > -(N-2)^2/4
    edge = (N - 2) ** 2 / 4.0
    for lam, code in ((edge - 1e-6, 0), (edge, 4), (edge + 1e-6, 4)):
        path, _ = write_config(tmp_path, dimension=N, potential=f"constant:{lam!r}",
                               gamma_max=1.0, directory=str(tmp_path))
        assert main(["spectrum", "--config", path]) == code
        err = capsys.readouterr().err.lower()
        assert ("positiv" in err) == (code == 4)


def test_cmd_verify_positivity_exit(tmp_path, capsys):
    # the hardy_anisotropic sweep at N = 3 meets mu_1 = -0.3 < -1/4
    path, _ = write_config(tmp_path, potential="constant:0.3", sweep_dims=(3,),
                           sweep_count=5, directory=str(tmp_path))
    assert main(["verify", "--config", path]) == 4
    assert "positiv" in capsys.readouterr().err.lower()
    assert not (tmp_path / "verify.json").exists()


def test_cmd_verify_gates_a_table_whatever_sweep_dims_holds(tmp_path, capsys):
    # mu_1 = -0.78 < -1/4: verify refuses the table before any sweep, as
    # spectrum does, though no N = 3 sweep would read it
    path, _ = write_config(tmp_path, potential="harmonic_table:1,0,5.0", sweep_dims=(4, 5),
                           sweep_count=5, directory=str(tmp_path))
    for command in ("spectrum", "verify"):
        assert main([command, "--config", path]) == 4, command
        assert "positiv" in capsys.readouterr().err.lower()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_cmd_spectrum_dimension_four(tmp_path):
    # half-integer ladder again: gamma = m + l/2
    path, _ = write_config(tmp_path, dimension=4, gamma_max=1.5,
                           angular_count=55, directory=str(tmp_path))
    assert main(["spectrum", "--config", path]) == 0
    data = json.loads((tmp_path / "spectrum.json").read_text())
    gammas = sorted(float(k) for k in data["multiplicity_table"])
    assert gammas == [0.0, 0.5, 1.0, 1.5]


def test_cmd_beta_unperturbed_dimension_four(tmp_path):
    # the unperturbed flow builds no collocation, so data on an l > 0 mode,
    # which has no nodal table in N = 4, runs under the exact propagator
    path, _ = write_config(tmp_path, dimension=4, gamma_max=1.5, angular_count=55,
                           initial="modes:0=1.0,1=0.5", directory=str(tmp_path))
    for cmd in ("spectrum", "simulate", "beta"):
        assert main([cmd, "--config", path]) == 0, cmd
    modes = json.loads((tmp_path / "spectrum.json").read_text())["basis"]["modes"]
    assert modes[1]["j"] > 1  # not the ground harmonic: degree l = 1 at a = 0
    doc = json.loads((tmp_path / "frequency.json").read_text())
    assert (doc["collocation_rule"], doc["collocation_nodes"]) == ("none", 0)
    assert json.loads((tmp_path / "beta.json").read_text())["gamma"] == 0.0


def test_cmd_linear_non_radial_dimension_four(tmp_path):
    # a radial h needs no eigenfunction value, so data on an l > 0 mode,
    # which has no nodal table in N = 4, marches its two j-blocks on their
    # matched rules, and the run snaps to the lower eigenvalue
    path, _ = write_config(tmp_path, dimension=4, perturbation="linear_bounded:0.1",
                           initial="modes:0=1.0,1=0.5", gamma_max=1.0, dtau=0.01,
                           tau_min=math.log(1e-6), directory=str(tmp_path))
    for cmd in ("simulate", "beta"):
        assert main([cmd, "--config", path]) == 0, cmd
    doc = json.loads((tmp_path / "frequency.json").read_text())
    assert doc["fit"]["snapped"] and doc["fit"]["gamma_hat"] == 0.0
    assert (doc["collocation_rule"], doc["collocation_nodes"]) == ("matched", 128)
    beta = json.loads((tmp_path / "beta.json").read_text())
    assert beta["gamma"] == 0.0 and beta["integral_vs_direct"] < 1e-8


def test_short_angular_spectrum_names_angular_count(tmp_path, capsys):
    # the default 36 eigenvalues certify gamma_max < -alpha_K/2 = 2.5 at
    # a = 0 in N = 3, so gamma_max = 3 exits 3 and names the key to raise
    path, _ = write_config(tmp_path, gamma_max=3.0, directory=str(tmp_path))
    for cmd in ("spectrum", "simulate"):
        assert main([cmd, "--config", path]) == 3, cmd
        err = capsys.readouterr().err
        assert "angular_count = 36" in err and "-alpha_K/2 = 2.5" in err, err
        assert err.rstrip().endswith("raise angular_count"), err
    path, _ = write_config(tmp_path, gamma_max=3.0, angular_count=64, directory=str(tmp_path))
    assert main(["spectrum", "--config", path]) == 0


def test_cmd_simulate_outputs_and_determinism(tmp_path):
    path, _ = write_config(
        tmp_path, gamma_max=1.0, tau_min=math.log(1e-2),
        initial="family:mixture:0=1.0,1=1.0", directory=str(tmp_path),
    )
    assert main(["simulate", "--config", path]) == 0
    first = {name: (tmp_path / name).read_bytes()
             for name in ("trajectory.csv", "frequency.csv", "frequency.json")}
    assert main(["simulate", "--config", path]) == 0
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob
    lines = (tmp_path / "frequency.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash")
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "t,H,D,N,nu1" 


def test_cmd_beta_exp_linear(tmp_path, monkeypatch):
    from hardyheat import asymptotics

    path, cfg = write_config(
        tmp_path, perturbation="linear_constant:0.1",
        initial="family:exp_linear:0:0.1", tau_min=math.log(1e-6),
        gamma_max=1.0, directory=str(tmp_path),
    )
    calls = []
    counted = asymptotics.beta_integral
    monkeypatch.setattr(asymptotics, "beta_integral",
                        lambda *a, **k: calls.append(a[1]) or counted(*a, **k))
    assert main(["beta", "--config", path]) == 0
    # one table per Lambda: the range check reuses lambda_independence's
    assert sorted(calls) == sorted(cfg.lambda_grid)
    data = json.loads((tmp_path / "beta.json").read_text())
    assert abs(data["beta"]["beta"]["0,1"] - 1.0) < 1e-6
    assert data["beta"]["variation_over_Lambda"] < 1e-8
    recon = (tmp_path / "reconstruction.csv").read_text().splitlines()
    assert recon[3] == "lambda,errH,errL"


def test_cmd_beta_requires_snapped_gamma(tmp_path):
    # shallow run with a slow transient: fit cannot certify the limit
    path, _ = write_config(
        tmp_path, perturbation="linear_bounded:0.1",
        initial="modes:0=1.0", tau_min=math.log(0.5), dtau=0.01,
        gamma_max=1.0, directory=str(tmp_path),
    )
    rc = main(["beta", "--config", path])
    assert rc == 3  # the shallow transient cannot certify an eigenvalue


def test_cmd_beta_too_few_rows_below_lambda(tmp_path, capsys):
    # only the tau_min row lies at or below the smallest Lambda^2 = 1e-2
    path, _ = write_config(
        tmp_path, perturbation="semilinear:0.05:2.0", tau_min=math.log(1e-2),
        dtau=0.01, gamma_max=1.0, radial_nodes=16, directory=str(tmp_path),
    )
    assert main(["beta", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "Lambda = 0.1 leaves 1 stored row(s)" in err


def test_cmd_verify_small(tmp_path):
    path, _ = write_config(tmp_path, sweep_count=40, sweep_dims=(3, 4),
                           directory=str(tmp_path))
    assert main(["verify", "--config", path]) == 0
    data = json.loads((tmp_path / "verify.json").read_text())
    assert len(data["sweeps"]) == 8
    for rep in data["sweeps"]:
        if "min_relative_gap" in rep:
            assert rep["min_relative_gap"] > -1e-10


def test_cmd_verify_rejects_dimension_before_sweeps(tmp_path, monkeypatch, capsys):
    # s = 2.5 needs N <= 10: exit 2 before any sweep starts
    from hardyheat import inequalities

    calls = []
    monkeypatch.setattr(inequalities, "sweep", lambda *a, **k: calls.append(a))
    path, _ = write_config(tmp_path, sweep_dims=(3, 11), sweep_count=5,
                           directory=str(tmp_path))
    assert main(["verify", "--config", path]) == 2
    assert calls == []
    assert "sweep_dims" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


def test_cmd_quadcheck(tmp_path):
    # the default run is unperturbed: quadcheck checks the matched block of
    # its data, the 64-node Gauss-Laguerre rule of exponent 1/2
    path, _ = write_config(tmp_path, directory=str(tmp_path))
    assert main(["quadcheck", "--config", path]) == 0
    data = json.loads((tmp_path / "quadcheck.json").read_text())
    assert data["ok"] is True
    assert (data["rule"], data["nodes"]) == ("matched", 64)
    assert data["gram_residual"] <= data["gram_tol"] == 1e-4
    assert max(data["moment2_rel_err"], data["moment3_rel_err"]) < data["moment_tol"] == 1e-11


def _one_block_weight_heavier(monkeypatch):
    """The matched_blocks of a perturbed run with its largest weight
    multiplied by 1 + 1e-9, past the blocks' own Gram gate."""
    real = evolve.matched_blocks

    def build(*args, **kwargs):
        blocks = real(*args, **kwargs)
        weights = blocks.weights.copy()
        weights[np.argmax(weights)] *= 1.0 + 1e-9
        return dataclasses.replace(blocks, weights=weights)

    monkeypatch.setattr(evolve, "matched_blocks", build)


def _one_shell_heavier(monkeypatch):
    """product_rule with one Laguerre weight (a whole radial shell of the
    product weights) multiplied by 1 + 1e-9, past the rule's own checks."""
    real = quadrature.product_rule

    def build(*args, **kwargs):
        rule = real(*args, **kwargs)
        n_ang = len(rule.angular_dirs)
        i = int(np.argmax(rule.radial.weights)) * n_ang
        weights = rule.weights.copy()
        weights[i:i + n_ang] *= 1.0 + 1e-9
        return dataclasses.replace(rule, weights=weights)

    monkeypatch.setattr(ou_basis, "product_rule", build)


ROOT = Path(__file__).resolve().parents[1]
_BROKEN_RULES = {"bounded_h": _one_block_weight_heavier, "semilinear": _one_shell_heavier}


@pytest.mark.parametrize("name", sorted(_BROKEN_RULES))
def test_quadcheck_gates_fail_on_broken_rules(tmp_path, monkeypatch, name):
    # a broken copy of the rule the run itself forces on: configs/bounded_h.ini
    # marches its matched block, configs/semilinear.ini (off the radial span)
    # the product collocation.  Measured at most 1.8e-15 on the sound rules
    _BROKEN_RULES[name](monkeypatch)
    config = str(ROOT / "configs" / f"{name}.ini")
    assert main(["quadcheck", "--config", config, "--out", str(tmp_path)]) == 3
    data = json.loads((tmp_path / "quadcheck.json").read_text())
    assert data["rule"] == ("matched" if name == "bounded_h" else "product")
    assert data["ok"] is False and data["moment2_rel_err"] >= 1e-11


_PERTURBED = sorted(path for path in [*ROOT.glob("configs/*.ini"),
                                      *ROOT.glob("perfbench/workloads/*.ini")]
                    if parse_perturbation(RunConfig.from_file(str(path))).kind != "none")


@pytest.mark.parametrize("config", _PERTURBED, ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_quadcheck_checks_the_rule_simulate_forces_on(tmp_path, config):
    for cmd in ("simulate", "quadcheck"):
        assert main([cmd, "--config", str(config), "--out", str(tmp_path)]) == 0
    freq = json.loads((tmp_path / "frequency.json").read_text())
    quad = json.loads((tmp_path / "quadcheck.json").read_text())
    assert (quad["rule"], quad["nodes"]) == (freq["collocation_rule"], freq["collocation_nodes"])
    assert quad["gram_residual"] == freq["collocation_gram_residual"]


@settings(deadline=None)
@given(rows=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                       elements=st.floats(allow_nan=False)))
@example(rows=np.array([[5e-324, -0.0, 0.0, 1.7976931348623157e308, -2.2250738585072014e-308]]))
@example(rows=np.array([[0.0, -0.0], [0.0, 1.5], [0.0, 0.0]]))
def test_csv_round_trip_is_bit_exact(rows):
    # what _write_csv writes, _read_csv reads back bit for bit: every
    # double but NaN, subnormals, -0.0 and +-inf included, an all +0.0
    # column (written from the line template) beside a -0.0 one; both hash
    # the file's bytes
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        written = cli._write_csv(path, [f"c_{k}" for k in range(rows.shape[1])], rows,
                                 {"config_hash": "0" * 16})
        with open(path, "rb") as fh:
            data = fh.read()
        back, digest = cli._read_csv(path)
    assert written == digest == hashlib.sha256(data).hexdigest()
    assert back.shape == rows.shape
    np.testing.assert_array_equal(back.view(np.int64), rows.view(np.int64))


def test_beta_with_no_recon_lambdas_writes_the_header_only(tmp_path):
    # an empty recon_lambdas is a valid config: reconstruction.csv holds
    # its meta lines and header and no row
    out = tmp_path / "out"
    path, _ = write_config(tmp_path, recon_lambdas=(), gamma_max=1.0, dtau=0.01,
                           radial_nodes=16, directory=str(out))
    assert main(["beta", "--config", path]) == 0
    lines = (out / "reconstruction.csv").read_text().splitlines()
    assert [l for l in lines if not l.startswith("#")] == ["lambda,errH,errL"]


# (command, key, value, exit code): each ran into a traceback or a hang
_NON_FINITE = [("verify", "sweep_t", math.inf, 2), ("verify", "sweep_t", math.nan, 2),
               ("verify", "sweep_t", 1e300, 3), ("simulate", "tau_min", math.nan, 2)]


@pytest.mark.parametrize("command, key, value, code", _NON_FINITE)
def test_non_finite_key_exits_without_traceback(tmp_path, command, key, value, code):
    # verify with sweep_t = inf never returned: a fresh process with a
    # timeout makes a hang fail the test instead of stalling the suite
    path, _ = write_config(tmp_path, sweep_count=5, directory=str(tmp_path), **{key: value})
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "hardyheat.cli", command, "--config", path],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    if code == 2:
        assert key in proc.stderr
    else:  # the closed-form sweep samples no node, so n_r is not to blame
        assert "too coarse" not in proc.stderr


def test_cli_seed_and_out_overrides(tmp_path):
    out2 = tmp_path / "other"
    path, _ = write_config(tmp_path, sweep_count=10, sweep_dims=(4,),
                           directory=str(tmp_path))
    assert main(["verify", "--config", path, "--out", str(out2),
                 "--seed", "777"]) == 0
    data = json.loads((out2 / "verify.json").read_text())
    assert data["sweeps"][0]["seed"] == 777


def test_cli_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[problem]\ndimension = two\n")
    assert main(["spectrum", "--config", str(bad)]) == 2
    # settings that used to end in a traceback, exit 3 or an empty report
    for line in ("sweep_count = 0", "sweep_t = 0", "sweep_t = -1", "sweep_dims = 2",
                 "sweep_dims =", "sweep_dims = 11", "sweep_dims = 3,4,11", "sweep_dims = 100",
                 "lambda_grid =", "lambda_grid = 0.1,0.0",
                 "recon_lambdas = 0.5,0.0", "scaling_lambdas = 0.5,1.5",
                 "scaling_lambdas = 0"):
        bad.write_text(f"[experiment]\n{line}\n")
        assert main(["verify", "--config", str(bad), "--out", str(tmp_path)]) == 2
    # malformed spec strings, out-of-range modes and ranges that used to end
    # in a traceback or run on: exit 2 naming the key, before any march
    for section, line in (
        ("problem", "perturbation = linear_bounded"),
        ("problem", "perturbation = semilinear:0.05"),
        ("problem", "perturbation = linear_bounded:abc"),
        ("problem", "potential = harmonic_table:1,0"),
        ("problem", "potential = constant:x"),
        ("experiment", "initial = modes:0"),
        ("experiment", "initial = family:exp_linear:0"),
        ("experiment", "initial = modes:-1=1.0"),
        ("experiment", "initial = modes:99=1.0"),
        ("experiment", "initial = family:pure:99"),
        ("discretization", "angular_count = 0"),
        ("experiment", "fit_decades = -1"),
        ("experiment", "seed = -1"),
    ):
        bad.write_text(f"[{section}]\n{line}\n")
        capsys.readouterr()
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2, line
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and line.split()[0] in err, err
    assert not (tmp_path / "trajectory.csv").exists()
    assert main(["verify", "--out", str(tmp_path), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_cmd_beta_anisotropic_pipeline(tmp_path):
    # Galerkin spectrum -> enumeration -> multiplicity at the perturbed
    # ground eigenvalue -> beta recovers the initial coefficient
    path, _ = write_config(
        tmp_path,
        potential="harmonic_table:1,0,0.15;2,0,0.05",
        angular_truncation=16, angular_count=36, gamma_max=1.5,
        initial="modes:0=1.0", directory=str(tmp_path),
    )
    assert main(["beta", "--config", path]) == 0
    data = json.loads((tmp_path / "beta.json").read_text())
    assert data["gamma"] < 0.0  # mu_1 < 0 shifts the ground level down
    assert abs(data["beta"]["beta"]["0,1"] - 1.0) < 1e-10
    assert data["integral_vs_direct"] < 1e-10


def test_cmd_beta_and_verify_deterministic(tmp_path):
    path, _ = write_config(
        tmp_path, perturbation="linear_constant:0.1",
        initial="family:exp_linear:0:0.1", tau_min=math.log(1e-6),
        gamma_max=1.0, sweep_count=25, sweep_dims=(4,),
        directory=str(tmp_path),
    )
    assert main(["beta", "--config", path]) == 0
    assert main(["verify", "--config", path]) == 0
    blobs = {name: (tmp_path / name).read_bytes()
             for name in ("beta.json", "reconstruction.csv", "verify.json")}
    assert main(["beta", "--config", path]) == 0
    assert main(["verify", "--config", path]) == 0
    for name, blob in blobs.items():
        assert (tmp_path / name).read_bytes() == blob


# beta after simulate rebuilds the trajectory from trajectory.csv; shallow
# runs on a small collocation rule keep these tests fast
_REUSE_CASES = {
    "linear_bounded": dict(perturbation="linear_bounded:0.1", tau_min=math.log(1e-5)),
    "semilinear": dict(perturbation="semilinear:0.05:2.0", tau_min=math.log(1e-3)),
}
_BETA_FILES = ("beta.json", "reconstruction.csv")


def _simulated(tmp_path, name):
    """(config path, output dir) after a simulate run of a _REUSE_CASES case."""
    out = tmp_path / "out"
    path, _ = write_config(tmp_path, gamma_max=1.0, dtau=0.01, radial_nodes=16,
                           directory=str(out), **_REUSE_CASES[name])
    assert main(["simulate", "--config", path]) == 0
    return path, out


def _count_work(monkeypatch):
    """Counters from here on: RK4 marches (nodal or by step matrices),
    forcing_coefficients calls and the times of radial-h forcing matrices."""
    calls = {"march": 0, "forcing": 0, "matrices": 0}

    def counted(name, key, size=lambda *args: 1):
        wrapped = getattr(evolve, name)

        def call(*args, **kwargs):
            calls[key] += size(*args)
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(evolve, name, call)

    counted("_march_rk4", "march")
    counted("_march_linear", "march")
    counted("forcing_coefficients", "forcing")
    counted("linear_forcing_matrices", "matrices", lambda ts, *args: len(ts))
    return calls


@pytest.mark.parametrize("name", sorted(_REUSE_CASES))
def test_beta_reuses_simulate_trajectory(tmp_path, monkeypatch, capsys, name):
    path, out = _simulated(tmp_path, name)
    ratio = json.loads((out / "frequency.json").read_text())["admissibility_ratio"]
    assert ratio is None if name == "semilinear" else 0.0 < ratio <= 1.0
    rows = len(_csv_numbers(out / "trajectory.csv"))
    calls = _count_work(monkeypatch)
    assert main(["beta", "--config", path]) == 0
    # no march: the forcing of each stored row, once; a radial h gets it
    # from one matrix per row, built in blocks, and makes no forcing call
    if name == "semilinear":
        assert calls == {"march": 0, "forcing": rows, "matrices": 0}
    else:
        assert calls == {"march": 0, "forcing": 0, "matrices": rows}
    assert "rebuilt from trajectory.csv" in capsys.readouterr().err
    reused = {fname: (out / fname).read_bytes() for fname in _BETA_FILES}
    shutil.rmtree(out)
    assert main(["beta", "--config", path]) == 0  # same path, nothing to reuse
    assert calls["march"] == 2
    assert "not reused" in capsys.readouterr().err
    for fname, blob in reused.items():
        assert (out / fname).read_bytes() == blob


def test_config_hash_leaves_out_the_output_directory(tmp_path, monkeypatch, capsys):
    # the directory says where a run is written, not what it computes: two
    # configs differing only there hash equal (and still serialize apart),
    # and beta reuses a trajectory moved to another directory
    here, there = RunConfig(), RunConfig(directory="elsewhere")
    assert here.content_hash() == there.content_hash()
    assert RunConfig.from_text(there.to_text()).directory == "elsewhere"
    assert here.content_hash() != RunConfig(seed=here.seed + 1).content_hash()
    path, out = _simulated(tmp_path, "linear_bounded")
    moved = tmp_path / "moved"
    shutil.move(str(out), str(moved))
    capsys.readouterr()
    calls = _count_work(monkeypatch)
    assert main(["beta", "--config", path, "--out", str(moved)]) == 0
    assert calls["march"] == 0
    assert "rebuilt from trajectory.csv" in capsys.readouterr().err


# (key, value): each ran, exited 3 or 4 for the wrong reason, or raised a
# traceback; constant:-50 leaves no mode below gamma_max = 1 (the lowest is
# gamma = 3.3), and fit_decades = 1e300 overflowed 10**fit_decades; h_eps
# outside (0, 2) ran unless a linear h read it; a zero datum (exp(-1000)
# underflows) marched to an all-underflowed trace, exp(1000) raised
# OverflowError and |c|^2 = 1e400 overflowed H
_BAD_VALUES = [("perturbation", "linear_bounded:nan"), ("initial", "modes:0=nan"),
               ("initial", "family:exp_linear:0:inf"), ("h_const", math.nan),
               ("h_const", -1.0), ("fit_decades", 1e300), ("angular_truncation", -5),
               ("recon_lambdas", (0.5, math.inf)), ("lambda_grid", (0.1, math.inf)),
               ("potential", "harmonic_table:1,0,nan"), ("potential", "constant:nan"),
               ("potential", "constant:-50"), ("h_eps", 5.0), ("h_eps", math.nan),
               ("h_eps", -1.0), ("initial", "family:exp_linear:0:-1000"),
               ("initial", "modes:0=0.0"), ("initial", "family:mixture:0=0.0"),
               ("initial", "family:exp_linear:0:1000"), ("initial", "modes:0=1e200"),
               # a repeated mode and a field too many, once dropped silently
               ("initial", "family:mixture:0=1.0,0=-1.0"), ("initial", "modes:0=1.0,1=0.5,0=2.0"),
               ("initial", "family:pure:0:extra"), ("initial", "family:exp_linear:0:0.1:9"),
               ("perturbation", "linear_bounded:0.1:7"),
               ("perturbation", "semilinear::0.1::2.0:")]


@pytest.mark.parametrize("key, value", _BAD_VALUES)
def test_bad_value_exits_2_naming_the_key(tmp_path, capsys, key, value):
    path, _ = write_config(tmp_path, directory=str(tmp_path), tau_min=math.log(1e-2),
                           gamma_max=1.0, angular_count=16, **{key: value})
    for command in ("simulate", "beta"):
        assert main([command, "--config", path]) == 2
        assert key in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


class _TimeBound(BaseException):
    """Raised by SIGALRM inside an example that ran past its time bound; a
    BaseException, so no handler in the package can swallow it."""


def _raise_time_bound(signum, frame):
    raise _TimeBound("the command ran past its time bound")


# one cheap valid run: at most 10 modes, 16 radial nodes, t down to 1e-2
_CHEAP_RUNS = st.builds(
    RunConfig,
    potential=st.sampled_from(("constant:0.0", "constant:0.1")),
    perturbation=st.sampled_from(("none", "linear_bounded:0.1", "semilinear:0.05:2.0")),
    gamma_max=st.floats(0.05, 1.0),
    radial_nodes=st.just(16),
    dtau=st.just(0.01),
    tau_min=st.just(math.log(1e-2)),
    sweep_count=st.integers(1, 10),
)
# "1000000000" is a huge value that parses as an int too: the sizing keys
# (dimension, angular_count, angular_truncation, sweep_count, gamma_max)
# exit 2 on their upper bounds
_HOSTILE = ("nan", "inf", "-inf", "0", "-1", "1e300", "1000000000", "", "x", "1,,2", ":",
            "modes:", "modes:0=", "constant:", "constant:-50", "harmonic_table:1,0",
            "linear_bounded:", "semilinear:0.05", "family:pure", "family:mixture:0",
            "modes:0=0.0", "family:mixture:0=0.0", "family:exp_linear:0:1000",
            "family:exp_linear:0:-1000", "modes:0=1e200")
_KEYS = [key for key in _KNOWN_KEYS if key != "directory"]


@settings(max_examples=100, deadline=None)
@given(cfg=_CHEAP_RUNS, key=st.sampled_from(_KEYS), value=st.sampled_from(_HOSTILE),
       command=st.sampled_from(sorted(cli.COMMANDS)))
@example(cfg=RunConfig(gamma_max=0.1, radial_nodes=16, tau_min=math.log(1e-2)),
         key="potential", value="constant:-50", command="spectrum")
@example(cfg=RunConfig(gamma_max=1.0, radial_nodes=16, tau_min=math.log(1e-2)),
         key="fit_decades", value="1e300", command="simulate")
def test_hostile_value_exits_with_a_documented_code(cfg, key, value, command):
    # one key of a cheap valid run overwritten by a hostile value: the
    # command ends in 0, 2, 3 or 4, never in a traceback or a hang
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line
                 for line in cfg.to_text().splitlines()]
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        err = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _raise_time_bound)
        signal.setitimer(signal.ITIMER_REAL, 30.0)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", path, "--out", tmp])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


# semilinear forcing down to t = 1e-2 only: a march of well under a second
_SHALLOW_SEMILINEAR = dict(perturbation="semilinear:0.05:2.0", tau_min=math.log(1e-2),
                           dtau=0.01, gamma_max=1.0, radial_nodes=16)


def test_cmd_simulate_rejects_bad_value_before_march(tmp_path, monkeypatch, capsys):
    path, _ = write_config(tmp_path, recon_lambdas=(0.5, 0.0),
                           directory=str(tmp_path), **_SHALLOW_SEMILINEAR)
    calls = _count_work(monkeypatch)
    assert main(["simulate", "--config", path]) == 2
    assert calls["march"] == 0
    assert "recon_lambdas" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_cmd_simulate_halving_failure_suggests_step(tmp_path, monkeypatch, capsys):
    # any nonzero disagreement fails a zero tolerance: exit 3 with the advice
    path, _ = write_config(tmp_path, directory=str(tmp_path), **_SHALLOW_SEMILINEAR)
    monkeypatch.setattr(evolve, "HALVING_TOL", 0.0)
    assert main(["simulate", "--config", path]) == 3
    err = capsys.readouterr().err
    assert "step-halving disagreement" in err
    assert "suggested fix: dtau <= " in err


def _edit_json(out, key, value):
    doc = json.loads((out / "trajectory.json").read_text())
    if key in doc["meta"]:
        doc["meta"][key] = value
    else:
        doc[key] = value
    (out / "trajectory.json").write_text(json.dumps(doc))


def _edit_coefficient_digit(out):
    # the leading digit of c_0 in the last row, which every beta route reads
    head, last = (out / "trajectory.csv").read_text().rstrip("\n").rsplit("\n", 1)
    fields = last.split(",")
    digit = next(ch for ch in fields[2] if ch in "123456789")
    fields[2] = fields[2].replace(digit, "2" if digit == "1" else "1", 1)
    (out / "trajectory.csv").write_text(head + "\n" + ",".join(fields) + "\n")


def _edit_csv_line(out, prefix, old, new):
    # one edit to the first trajectory.csv line that starts with prefix
    lines = (out / "trajectory.csv").read_text().split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    assert old in lines[i]
    lines[i] = lines[i].replace(old, new, 1)
    (out / "trajectory.csv").write_text("\n".join(lines))


_STALE_EDITS = {
    "config_hash": lambda out: _edit_json(out, "config_hash", "0" * 16),
    # lines the reader skips but hashes: a meta line and the column header
    "csv_meta_line": lambda out: _edit_csv_line(out, "# version", " = ", " =  "),
    "csv_header": lambda out: _edit_csv_line(out, "tau,", ",c_0", ",c_00"),
    "coefficient_digit": _edit_coefficient_digit,
    "no_trajectory_json": lambda out: (out / "trajectory.json").unlink(),
    "halving_error": lambda out: _edit_json(out, "halving_error", 2.0 * evolve.HALVING_TOL),
    "version": lambda out: _edit_json(out, "version", "0.1.0"),
}


@pytest.mark.parametrize("edit", sorted(_STALE_EDITS))
def test_beta_integrates_when_trajectory_is_stale(tmp_path, monkeypatch, capsys, edit):
    path, out = _simulated(tmp_path, "linear_bounded")
    assert main(["beta", "--config", path]) == 0
    reused = {fname: (out / fname).read_bytes() for fname in _BETA_FILES}
    n = len(_csv_numbers(out / "trajectory.csv")) - 1
    _STALE_EDITS[edit](out)
    capsys.readouterr()
    calls = _count_work(monkeypatch)
    assert main(["beta", "--config", path]) == 0
    # both marches step by matrices, built at the three stage times of each
    # step and at each march's last row: no per-stage forcing call
    steps = n + math.ceil(n / 2)
    assert calls == {"march": 2, "forcing": 0, "matrices": 3 * steps + 2}
    assert "not reused" in capsys.readouterr().err
    for fname, blob in reused.items():
        assert (out / fname).read_bytes() == blob
