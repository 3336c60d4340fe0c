import json
import math

import pytest

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


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigurationError):
        RunConfig.from_text("[problem]\nnonsense = 1\n")
    with pytest.raises(ConfigurationError):
        RunConfig.from_text("[mystery]\nx = 1\n")


def test_config_validation_ranges():
    cfg = RunConfig()
    cfg.dtau = 0.5
    with pytest.raises(ConfigurationError):
        cfg.validate()
    for key, bad in (("sweep_count", 0), ("sweep_t", 0.0), ("sweep_t", -1.0),
                     ("sweep_dims", (3, 2)), ("sweep_dims", ())):
        cfg = RunConfig()
        setattr(cfg, key, bad)
        with pytest.raises(ConfigurationError):
            cfg.validate()


def test_parse_potential_and_perturbation():
    cfg = RunConfig()
    cfg.potential = "harmonic_table:1,0,0.3;2,1,0.1"
    pot = parse_potential(cfg)
    assert pot.kind == "harmonic_table" and len(pot.table) == 2
    cfg.perturbation = "semilinear:0.1:2.0"
    pert = parse_perturbation(cfg)
    assert pert.kind == "semilinear" and pert.p == 2.0
    cfg.perturbation = "bogus:1"
    with pytest.raises(ConfigurationError):
        parse_perturbation(cfg)


def test_cmd_spectrum_ladder(tmp_path):
    path, _ = write_config(tmp_path, directory=str(tmp_path))
    assert main(["spectrum", "--config", path]) == 0
    data = json.loads((tmp_path / "spectrum.json").read_text())
    table = data["multiplicity_table"]
    mults = {float(k): v["multiplicity"] for k, v in table.items()}
    assert mults == {0.0: 1, 0.5: 3, 1.0: 6, 1.5: 10, 2.0: 15}
    assert data["meta"]["basis_hash"]


def test_cmd_spectrum_positivity_exit(tmp_path, capsys):
    path, _ = write_config(tmp_path, potential="constant:0.3",
                           directory=str(tmp_path))
    assert main(["spectrum", "--config", path]) == 4
    assert "positiv" in capsys.readouterr().err.lower()


def test_cmd_spectrum_dimension_four(tmp_path):
    # half-integer ladder again: gamma = m + l/2
    path, _ = write_config(tmp_path, dimension=4, gamma_max=1.5,
                           angular_count=55, directory=str(tmp_path))
    assert main(["spectrum", "--config", path]) == 0
    data = json.loads((tmp_path / "spectrum.json").read_text())
    gammas = sorted(float(k) for k in data["multiplicity_table"])
    assert gammas == [0.0, 0.5, 1.0, 1.5]


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


def test_cmd_beta_exp_linear(tmp_path):
    path, _ = write_config(
        tmp_path, perturbation="linear_constant:0.1",
        initial="family:exp_linear:0:0.1", tau_min=math.log(1e-6),
        gamma_max=1.0, directory=str(tmp_path),
    )
    assert main(["beta", "--config", path]) == 0
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


def test_cmd_verify_small(tmp_path):
    path, _ = write_config(tmp_path, sweep_count=40, sweep_dims=(3, 4),
                           directory=str(tmp_path))
    assert main(["verify", "--config", path]) == 0
    data = json.loads((tmp_path / "verify.json").read_text())
    assert len(data["sweeps"]) == 8
    for rep in data["sweeps"]:
        if "min_relative_gap" in rep:
            assert rep["min_relative_gap"] > -1e-10


def test_cmd_quadcheck(tmp_path):
    path, _ = write_config(tmp_path, directory=str(tmp_path))
    assert main(["quadcheck", "--config", path]) == 0
    data = json.loads((tmp_path / "quadcheck.json").read_text())
    assert data["ok"] is True


def test_cli_seed_and_out_overrides(tmp_path):
    out2 = tmp_path / "other"
    path, _ = write_config(tmp_path, sweep_count=10, sweep_dims=(4,),
                           directory=str(tmp_path))
    assert main(["verify", "--config", path, "--out", str(out2),
                 "--seed", "777"]) == 0
    data = json.loads((out2 / "verify.json").read_text())
    assert data["sweeps"][0]["seed"] == 777


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[problem]\ndimension = two\n")
    assert main(["spectrum", "--config", str(bad)]) == 2
    # sweep settings that used to end in a traceback, exit 3 or an empty report
    for line in ("sweep_count = 0", "sweep_t = 0", "sweep_t = -1", "sweep_dims = 2",
                 "sweep_dims ="):
        bad.write_text(f"[experiment]\n{line}\n")
        assert main(["verify", "--config", str(bad), "--out", str(tmp_path)]) == 2


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
