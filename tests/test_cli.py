"""End-to-end CLI runs and exit-code contracts."""

import numpy as np
import pytest
import yaml

from lambid import bayes, cli, wavefield
from lambid.wavefield import TXField


def write_cfg(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def base_cfg(**extra):
    payload = {
        "seed": 3,
        "plate": {"thickness_mm": 2.0},
        "material": {"elastic": {
            "c11_gpa": 28.1, "c13_gpa": 7.8, "c33_gpa": 16.7,
            "c55_gpa": 8.2, "rho_kg_m3": 1200.0,
        }},
        "band": {"fh_min_mhz_mm": 0.3, "fh_max_mhz_mm": 2.5, "n_points": 15},
        "solver": {"order": 8},
        "sampler": {"n_samples": 60, "warmup": 20, "forward_order": 6},
        "ensemble": {"n_points": 10, "max_members": 10},
    }
    payload.update(extra)
    return payload


def test_solve_writes_curves(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg())
    rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "curves.csv").exists()
    assert (tmp_path / "resolved_config_solve.yaml").exists()
    assert "expansion order used: 8" in capsys.readouterr().out


def test_sensitivity_subset(tmp_path):
    cfg = write_cfg(tmp_path, base_cfg())
    rc = cli.main([
        "sensitivity", "--config", cfg, "--out", str(tmp_path),
        "--perturbation", "0.2", "--params", "c55", "rho",
    ])
    assert rc == 0
    lines = (tmp_path / "sensitivity.csv").read_text().strip().splitlines()
    assert lines[0] == "parameter,mode,max_rel_omega_shift"
    names = {ln.split(",")[0] for ln in lines[1:]}
    assert names == {"c55", "rho"}


def test_sensitivity_unknown_param_exits_args(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg())
    rc = cli.main([
        "sensitivity", "--config", cfg, "--out", str(tmp_path),
        "--params", "c99",
    ])
    assert rc == cli.EXIT_CODES["args"] == 7
    assert "error:args:" in capsys.readouterr().err


def test_bad_config_exits_config(tmp_path, capsys):
    payload = base_cfg()
    payload["solver"] = {"eig_method": "magic"}
    cfg = write_cfg(tmp_path, payload)
    rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["config"] == 2
    assert "error:config:" in capsys.readouterr().err


def test_missing_config_file_exits_config(tmp_path, capsys):
    rc = cli.main([
        "solve", "--config", str(tmp_path / "nope.yaml"),
        "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "error:config:" in capsys.readouterr().err


def test_solve_without_material_exits_config(tmp_path, capsys):
    payload = base_cfg()
    del payload["material"]
    cfg = write_cfg(tmp_path, payload)
    rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "material" in capsys.readouterr().err


def test_indefinite_stiffness_exits_solver(tmp_path, capsys):
    payload = base_cfg()
    payload["material"]["elastic"].update(c11_gpa=1.0, c13_gpa=5.0, c33_gpa=1.0)
    cfg = write_cfg(tmp_path, payload)
    rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["solver"] == 6
    assert "positive definite" in capsys.readouterr().err


def test_extract_missing_wavefield_exits_io(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg())
    rc = cli.main(["extract", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["io"] == 3
    assert "error:io:" in capsys.readouterr().err


def test_extract_flat_wavefield_exits_ridge(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg())
    field = TXField(samples=np.zeros((64, 256)), dt=0.9765625e-6, dx=1.8e-3)
    wavefield.write_txfield(tmp_path / "wavefield", field)
    rc = cli.main(["extract", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["ridge"] == 4
    assert "error:ridge:" in capsys.readouterr().err


def test_identify_missing_observations_exits_io(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg())
    rc = cli.main(["identify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "error:io:" in capsys.readouterr().err


def test_summarize_missing_chain_exits_io(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg())
    rc = cli.main(["summarize", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "error:io:" in capsys.readouterr().err


def test_synth_extract_identify_summarize_pipeline(tmp_path):
    payload = base_cfg()
    payload["synth"] = {
        "n_x": 512, "dx_mm": 0.5, "n_t": 2048, "dt_us": 0.4,
        "f_lo_khz": 100.0, "f_hi_khz": 800.0, "duration_ms": 0.4,
        "noise_rms": 0.005,
    }
    payload["sampler"]["n_samples"] = 120
    payload["sampler"]["warmup"] = 40
    cfg = write_cfg(tmp_path, payload)
    out = str(tmp_path)

    assert cli.main(["synth", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "wavefield.npy").exists()

    assert cli.main(["extract", "--config", cfg, "--out", out]) == 0
    obs = wavefield.read_observations(tmp_path / "observations.csv")
    assert len(obs) > 10

    assert cli.main(["identify", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "chain.csv").exists()

    assert cli.main(["summarize", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "ensemble.csv").exists()


def test_multi_chain_naming(tmp_path):
    payload = base_cfg()
    payload["synth"] = {
        "n_x": 512, "dx_mm": 0.5, "n_t": 2048, "dt_us": 0.4,
        "f_lo_khz": 100.0, "f_hi_khz": 800.0, "duration_ms": 0.4,
    }
    cfg = write_cfg(tmp_path, payload)
    out = str(tmp_path)
    assert cli.main(["synth", "--config", cfg, "--out", out]) == 0
    assert cli.main(["extract", "--config", cfg, "--out", out]) == 0
    rc = cli.main(["identify", "--config", cfg, "--out", out,
                   "--chains", "2"])
    assert rc == 0
    assert (tmp_path / "chain_0.csv").exists()
    assert (tmp_path / "chain_1.csv").exists()
    # summarize finds no chain.csv and pools both chains' post-warmup rows
    assert cli.main(["summarize", "--config", cfg, "--out", out]) == 0
    pooled = np.concatenate([
        bayes.read_chain(tmp_path / f"chain_{i}.csv").post_warmup
        for i in range(2)
    ])
    assert pooled.shape[0] == 2 * payload["sampler"]["n_samples"]
    rows = (tmp_path / "summary.csv").read_text().splitlines()[2:]
    means = [float(row.split(",")[1]) for row in rows]
    assert np.allclose(means, pooled.mean(axis=0), rtol=1e-10)


def test_seed_override_changes_synth(tmp_path):
    payload = base_cfg()
    payload["synth"] = {
        "n_x": 256, "dx_mm": 0.5, "n_t": 1024, "dt_us": 0.4,
        "f_lo_khz": 100.0, "f_hi_khz": 800.0, "duration_ms": 0.2,
        "noise_rms": 0.01,
    }
    cfg = write_cfg(tmp_path, payload)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["synth", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["synth", "--config", cfg, "--out", str(out_b),
                     "--seed", "99"]) == 0
    fa = wavefield.read_txfield(out_a / "wavefield")
    fb = wavefield.read_txfield(out_b / "wavefield")
    assert not np.array_equal(fa.samples, fb.samples)


def test_missing_command_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main([])
