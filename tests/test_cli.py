"""End-to-end CLI runs and exit-code contracts."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from lambid import bayes, cli, dispersion, wavefield
from lambid.dispersion import (ElasticConstants, PlateSpec, k_grid_for_fh_band,
                               trace_curves)
from lambid.wavefield import TXField

# every config these tests load, and every resolved config they write, is
# checked against PyYAML's pure-Python codec
pytestmark = pytest.mark.usefixtures("yaml_codecs_agree")


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


def test_sensitivity_subset(tmp_path, monkeypatch):
    """Only the named parameters are swept, each once, and written in
    declaration order: the baseline and c55's two traces are the only
    traces, since rho's curves are the baseline's, scaled."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return trace_curves(*args, **kwargs)

    monkeypatch.setattr(dispersion, "trace_curves", spy)
    cfg = write_cfg(tmp_path, base_cfg())
    rc = cli.main([
        "sensitivity", "--config", cfg, "--out", str(tmp_path),
        "--perturbation", "0.2", "--params", "rho", "c55", "c55",
    ])
    assert rc == 0
    assert len(calls) == 1 + 2
    lines = (tmp_path / "sensitivity.csv").read_text().strip().splitlines()
    assert lines[0] == "parameter,mode,max_rel_omega_shift"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["c55"] * 2 + ["rho"] * 2


def test_sensitivity_unknown_param_exits_args(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg())
    rc = cli.main([
        "sensitivity", "--config", cfg, "--out", str(tmp_path),
        "--params", "c99",
    ])
    assert rc == cli.EXIT_CODES["args"] == 7
    assert "error:args:" in capsys.readouterr().err


def test_sensitivity_perturbation_out_of_range_exits_args(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg())
    rc = cli.main(["sensitivity", "--config", cfg, "--out", str(tmp_path),
                   "--perturbation", "1.5"])
    assert rc == 7
    assert "error:args:" in capsys.readouterr().err


def test_identify_zero_chains_exits_args(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg())
    rc = cli.main(["identify", "--config", cfg, "--out", str(tmp_path),
                   "--chains", "0"])
    assert rc == 7
    assert "error:args:" in capsys.readouterr().err


def test_identify_unknown_mode_label_exits_io(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg())
    (tmp_path / "observations.csv").write_text(
        "mode,omega_rad_s,k_rad_m\nA0,150000,900\nS1,200000,400\n")
    rc = cli.main(["identify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error:io:" in err and "S1" in err
    assert not (tmp_path / "chain.csv").exists()


@pytest.mark.parametrize("text,why", [
    ("mode,omega_rad_s,k_rad_m\nA0,150000,900\nS0,200000,-400\n", "observation row 2"),
    ("mode,omega_rad_s,k_rad_m\nA0,150000,900\nA0,nan,900\n", "observation row 2"),
    ("A0,150000,900\nS0,200000,400\n", "missing header"),
])
def test_identify_bad_observations_exits_io(tmp_path, capsys, text, why):
    cfg = write_cfg(tmp_path, base_cfg())
    (tmp_path / "observations.csv").write_text(text)
    rc = cli.main(["identify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error:io:" in err and why in err
    assert not (tmp_path / "chain.csv").exists()


def test_summarize_headerless_chain_exits_io(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg())
    rows = "".join(f"{i},2.8e10,7.8e9,1.67e10,8.2e9,1200,3000,-10,1\n"
                   for i in range(200))
    (tmp_path / "chain.csv").write_text("# warmup_len,0\n" + rows)
    rc = cli.main(["summarize", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "missing header" in capsys.readouterr().err


@pytest.mark.parametrize("warmup_len,c11,why", [
    (-400, "2.8e10", "warmup_len -400 is outside [0, 600]"),
    (601, "2.8e10", "warmup_len 601 is outside [0, 600]"),
    (0, "nan", "samples must be finite"),
    (0, "inf", "samples must be finite"),
], ids=["negative_warmup", "warmup_past_rows", "nan_sample", "inf_sample"])
def test_summarize_invalid_chain_exits_io(tmp_path, capsys, warmup_len, c11,
                                          why):
    cfg = write_cfg(tmp_path, base_cfg())
    rows = [f"{i},2.8e10,7.8e9,1.67e10,8.2e9,1200,3000,-10,1\n"
            for i in range(600)]
    rows[7] = rows[7].replace("2.8e10", c11)
    (tmp_path / "chain.csv").write_text(
        f"# warmup_len,{warmup_len}\n"
        "iter,c11,c13,c33,c55,rho,sigma,log_post,accepted\n" + "".join(rows))
    rc = cli.main(["summarize", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["io"] == 3
    err = capsys.readouterr().err
    assert "error:io:" in err and why in err
    assert not (tmp_path / "summary.csv").exists()


def test_summarize_short_ensemble_grid_writes_nothing(tmp_path, capsys):
    # with_cg (the default) needs 3 grid points; the grid size is checked
    # when the config loads, before summary.csv is written
    cfg = write_cfg(tmp_path, base_cfg(ensemble={"n_points": 2}))
    row = [28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 3e3]
    bayes.write_chain(tmp_path / "chain.csv", bayes.Chain(
        samples=np.tile(row, (150, 1)), log_posts=np.zeros(150),
        accepted=np.ones(150, dtype=bool), warmup_len=0, seed=0))
    rc = cli.main(["summarize", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["config"] == 2
    assert "ensemble.n_points" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()
    assert not (tmp_path / "resolved_config_summarize.yaml").exists()


@pytest.mark.parametrize("command", ["identify", "summarize"])
def test_forward_order_below_one_exits_config_before_reading(tmp_path, capsys,
                                                             command):
    # neither observations.csv nor chain.csv exists: the order is refused
    # when the config loads, before either command reads its input
    cfg = write_cfg(tmp_path, base_cfg(sampler={"forward_order": 0}))
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["config"] == 2
    assert "sampler.forward_order" in capsys.readouterr().err


def test_solve_prints_auto_converged_order(tmp_path, capsys):
    payload = base_cfg()
    del payload["band"]  # the default band: order 14 converges at 16
    payload["solver"] = {"order": 14, "auto_converge": True}
    cfg = write_cfg(tmp_path, payload)
    rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    assert "expansion order used: 16 (auto-converged)" in capsys.readouterr().out


def test_solve_auto_converge_bounded_exits_solver(tmp_path, capsys):
    # from order 40 no higher order is left to confirm convergence with
    payload = base_cfg()
    payload["solver"] = {"order": 40, "auto_converge": True}
    cfg = write_cfg(tmp_path, payload)
    rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["solver"] == 6
    assert "did not converge" in capsys.readouterr().err


def test_bad_config_exits_config(tmp_path, capsys):
    payload = base_cfg()
    payload["sampler"]["n_samples"] = 0
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


# rules that load_config checks, whose message names section.key
KEY_NAMED = [
    ("summarize", "ensemble", "n_points", 1),  # with_cg needs 3 points
    ("summarize", "ensemble", "n_points", 2),
    ("summarize", "ensemble", "max_members", 0),
    ("solve", "band", "n_points", "abc"),  # not an integer
    ("identify", "sampler", "proposal_scale", "fast"),  # not a number
    ("synth", "synth", "f_hi_khz", -100.0),
    ("synth", "synth", "f_lo_khz", 600.0),  # above f_hi_khz
    ("synth", "synth", "f_lo_khz", -10.0),
    ("synth", "synth", "f_hi_khz", 600.0),  # above the time-axis Nyquist
    ("solve", "solver", "order", 0),
    ("synth", "synth", "duration_ms", 0),  # divided by in the chirp
    ("synth", "synth", "duration_ms", -1),  # an all-zero wavefield
    ("synth", "synth", "noise_rms", -1.0),  # no noise added
    ("synth", "synth", "dt_us", 0.0),
    ("synth", "synth", "dx_mm", -1.8),
    ("synth", "synth", "n_x", 1),
    ("synth", "synth", "n_t", 1),
    ("extract", "extract", "min_prominence", -1.0),  # every maximum a candidate
    ("extract", "extract", "min_prominence", 5.0),  # above every row maximum
    ("extract", "extract", "max_jump_bins", -1),  # no ridge can grow
]


@pytest.mark.parametrize("command,section,key,value", KEY_NAMED)
def test_rejected_config_value_exits_config(tmp_path, capsys, command,
                                            section, key, value):
    payload = base_cfg()
    payload.setdefault(section, {})[key] = value
    cfg = write_cfg(tmp_path, payload)
    row = [28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 3e3]
    bayes.write_chain(tmp_path / "chain.csv", bayes.Chain(
        samples=np.tile(row, (150, 1)), log_posts=np.zeros(150),
        accepted=np.ones(150, dtype=bool), warmup_len=0, seed=0))
    wavefield.write_txfield(tmp_path / "wavefield", TXField(
        samples=np.zeros((64, 256)), dt=0.9765625e-6, dx=1.8e-3))
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["config"] == 2
    err = capsys.readouterr().err
    assert "error:config:" in err and f"{section}.{key}" in err


@pytest.mark.parametrize("key,value", [
    ("plate", 5),
    ("material", 5),
    ("material", {"elastic": 5}),
    ("material", {"elastic": {"c11_gpa": [28.1]}}),
    ("plate", {"thickness_mm": [2.0]}),
    ("band", 5),
    ("priors", {"c11": "gamma"}),
    ("priors", [1]),
    ("priors", {"c11": {"dist": "gamma", "shape": [2.5], "rate": 0.02}}),
    ("files", {"chain": 5}),
    ("seed", 1.7),  # not truncated to 1
    # unknown keys, at any depth
    ("bogus", 1),
    ("plate", {"thickness_mm": 2.0, "bogus": 1}),
    ("material", {"elastic": {"c11_gpa": 28.1, "c13_gpa": 7.8, "c33_gpa": 16.7,
                              "c55_gpa": 8.2, "rho_kg_m3": 1200.0, "junk": 3}}),
    ("material", {"engineering": {"e11_gpa": 40.0, "e22_gpa": 10.0, "g12_gpa": 4.0,
                                  "nu12": 0.3, "nu21": 0.075, "rho_kg_m3": 1900.0,
                                  "junk": 3}}),
    ("material", {"elastic": {"c11_gpa": 28.1, "c13_gpa": 7.8, "c33_gpa": 16.7,
                              "c55_gpa": 8.2, "rho_kg_m3": 1200.0}, "junk": 3}),
    ("priors", {"c11": {"dist": "gamma", "shape": 2.5, "rate": 0.02, "bogus": 1}}),
    ("priors", {"rho": {"dist": "normal", "mean": 1200.0, "sd": 50.0,
                        "rate": 0.02}}),
    # material, plate and prior numbers follow the section values' kind rule
    ("material", {"elastic": {"c11_gpa": True, "c13_gpa": 7.8, "c33_gpa": 16.7,
                              "c55_gpa": 8.2, "rho_kg_m3": 1200.0}}),
    ("material", {"elastic": {"c11_gpa": 28.1, "c13_gpa": "7.8", "c33_gpa": 16.7,
                              "c55_gpa": 8.2, "rho_kg_m3": 1200.0}}),
    ("plate", {"thickness_mm": "2.0"}),
    ("priors", {"sigma": {"dist": "normal", "mean": 3e3, "sd": True}}),
    ("plate", {"thickness_mm": 10 ** 400}),  # an integer past the float range
])
def test_malformed_config_exits_config(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path, base_cfg(**{key: value}))
    rc = cli.main(["summarize", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["config"] == 2
    assert "error:config:" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_unusable_out_exits_io(tmp_path, capsys, out):
    # an --out that is a file, or lies under one, used to end in a
    # FileExistsError or NotADirectoryError traceback and exit 1
    (tmp_path / "taken").write_text("not a directory\n")
    cfg = write_cfg(tmp_path, base_cfg())
    rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / out)])
    assert rc == cli.EXIT_CODES["io"] == 3
    assert "error:io:" in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == "not a directory\n"


def test_negative_seed_exits_before_synth(tmp_path, capsys):
    # the noisy field used to be traced first and then refused by numpy
    # with a message that named no key
    cfg = write_cfg(tmp_path, base_cfg(seed=-3, synth={"noise_rms": 0.05}))
    rc = cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "a")])
    assert rc == cli.EXIT_CODES["config"] == 2
    assert "error:config: seed must be non-negative" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, base_cfg(synth={"noise_rms": 0.05}))
    rc = cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "b"),
                   "--seed", "-1"])
    assert rc == cli.EXIT_CODES["args"] == 7
    assert "error:args: --seed -1" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


@pytest.mark.parametrize("section,keys,value", [
    ("material", ("elastic", "c11_gpa"), float("nan")),
    ("material", ("elastic", "rho_kg_m3"), float("inf")),
    ("plate", ("thickness_mm",), float("inf")),
    ("priors", ("c11", "rate"), float("nan")),
    ("priors", ("sigma", "sd"), float("nan")),
    ("band", ("fh_max_mhz_mm",), float("inf")),
    ("sampler", ("proposal_scale",), float("nan")),
    ("synth", ("noise_rms",), float("-inf")),
])
def test_non_finite_config_value_exits_config(tmp_path, capsys, section, keys,
                                              value):
    payload = base_cfg(priors={"c11": {"dist": "gamma", "shape": 2.5, "rate": 0.02},
                               "sigma": {"dist": "normal", "mean": 3e3, "sd": 300.0}})
    node = payload.setdefault(section, {})
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    cfg = write_cfg(tmp_path, payload)
    rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["config"] == 2
    err = capsys.readouterr().err
    assert "error:config:" in err and ".".join((section, *keys)) in err


def test_extract_missing_wavefield_exits_io(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg())
    rc = cli.main(["extract", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["io"] == 3
    assert "error:io:" in capsys.readouterr().err


def _one_nan(samples):
    samples[3, 7] = np.nan
    return samples


@pytest.mark.parametrize("edit_samples,header,why", [
    (_one_nan, {}, "finite"),
    (lambda s: np.full_like(s, np.inf), {}, "finite"),
    (lambda s: s + 1j, {}, "real"),  # not cast to real with a ComplexWarning
    (None, {"dt": float("nan")}, "dt and dx"),
    (None, {"dx": float("inf")}, "dt and dx"),
    (None, lambda h: {k: v for k, v in h.items() if k != "n_x"},
     "n_x must be an integer"),
    (None, {"dt": "abc"}, "dt must be a number"),
    (None, lambda h: [1, 2], "must be a JSON object"),
], ids=["one_nan", "all_inf", "complex", "nan_dt", "inf_dx", "no_n_x",
        "text_dt", "list_header"])
def test_extract_bad_wavefield_exits_io(tmp_path, capsys, edit_samples, header,
                                        why):
    cfg = write_cfg(tmp_path, base_cfg())
    prefix = tmp_path / "wavefield"
    samples = np.random.default_rng(0).normal(size=(64, 256))
    wavefield.write_txfield(prefix, TXField(samples=samples, dt=0.9765625e-6,
                                            dx=1.8e-3))
    if edit_samples is not None:
        np.save(f"{prefix}.npy", edit_samples(samples))
    sidecar = tmp_path / "wavefield.json"
    old = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps(header(old) if callable(header)
                                  else {**old, **header}))
    rc = cli.main(["extract", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["io"] == 3
    err = capsys.readouterr().err
    assert "error:io:" in err and why in err
    assert not (tmp_path / "observations.csv").exists()


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


def test_summarize_names_the_unreadable_chain_file(tmp_path, capsys):
    # a two-chain run leaves no chain.csv, which the message used to name
    cfg = write_cfg(tmp_path, base_cfg())
    row = [28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 3e3]
    for i in range(2):
        bayes.write_chain(tmp_path / f"chain_{i}.csv", bayes.Chain(
            samples=np.tile(row, (150, 1)), log_posts=np.zeros(150),
            accepted=np.ones(150, dtype=bool), warmup_len=0, seed=i))
    text = (tmp_path / "chain_1.csv").read_text()
    (tmp_path / "chain_1.csv").write_text(text[:len(text) // 2])  # mid-row
    rc = cli.main(["summarize", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["io"] == 3
    err = capsys.readouterr().err
    assert f"error:io: cannot read chain at {tmp_path / 'chain_1.csv'}: " in err
    assert not (tmp_path / "summary.csv").exists()


def test_summarize_missing_chain_exits_io(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg())
    rc = cli.main(["summarize", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "error:io:" in capsys.readouterr().err


def _write_curve_observations(out):
    """Noise-free A0/S0 points of base_cfg's material over its band."""
    material = ElasticConstants(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0)
    plate = PlateSpec(2e-3)
    grid = k_grid_for_fh_band(material, plate, 0.3, 2.5, n_points=8, order=6)
    points = [(curve.mode_label.value, om, k)
              for curve in trace_curves(material, plate, grid, order=6)
              for om, k in zip(curve.omega, curve.k)]
    wavefield.write_observations(out / "observations.csv",
                                 wavefield.ObservationSet(points, (0.3, 2.5)))


def test_identify_without_a_finite_start_exits_sampler(tmp_path, capsys):
    # every prior draw of c13 (about 1e4 GPa) makes the stiffness indefinite
    _write_curve_observations(tmp_path)
    cfg = write_cfg(tmp_path, base_cfg(
        priors={"c13": {"dist": "gamma", "shape": 10000.0, "rate": 1.0}}))
    rc = cli.main(["identify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["sampler"] == 5
    assert ("error:sampler: no finite-posterior start found in 100 prior "
            "draws") in capsys.readouterr().err


def test_identify_warns_on_low_acceptance(tmp_path, capsys):
    _write_curve_observations(tmp_path)
    payload = base_cfg()
    payload["sampler"].update(n_samples=150, warmup=20, proposal_scale=1000.0)
    cfg = write_cfg(tmp_path, payload)
    assert cli.main(["identify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert ("warning: chain 0: post-warmup acceptance 0.000 < 0.05"
            in capsys.readouterr().err)
    assert "post-warmup acceptance" in (tmp_path / "chain.csv").read_text()


def test_summarize_short_chain_exits_sampler(tmp_path, capsys):
    _write_curve_observations(tmp_path)
    payload = base_cfg()
    payload["sampler"]["n_samples"] = 50
    cfg = write_cfg(tmp_path, payload)
    assert cli.main(["identify", "--config", cfg, "--out", str(tmp_path)]) == 0
    rc = cli.main(["summarize", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["sampler"] == 5
    assert "error:sampler: too few samples: 50 < 100" in capsys.readouterr().err


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


def test_multi_chain_run_removes_stale_chain_files(tmp_path):
    payload = base_cfg()
    payload["synth"] = {
        "n_x": 512, "dx_mm": 0.5, "n_t": 2048, "dt_us": 0.4,
        "f_lo_khz": 100.0, "f_hi_khz": 800.0, "duration_ms": 0.4,
    }
    cfg = write_cfg(tmp_path, payload)
    out = str(tmp_path)
    assert cli.main(["synth", "--config", cfg, "--out", out]) == 0
    assert cli.main(["extract", "--config", cfg, "--out", out]) == 0
    assert cli.main(["identify", "--config", cfg, "--out", out,
                     "--chains", "3"]) == 0
    old = (tmp_path / "chain_0.csv").read_bytes()
    (tmp_path / "chain.csv").write_bytes(old)  # as a one-chain run leaves it
    (tmp_path / "chain_4.csv").write_bytes(old)  # past a gap: never read
    assert cli.main(["identify", "--config", cfg, "--out", out,
                     "--chains", "2", "--seed", "99"]) == 0
    assert sorted(p.name for p in tmp_path.glob("chain*.csv")) == [
        "chain_0.csv", "chain_1.csv", "chain_4.csv"]
    assert (tmp_path / "chain_0.csv").read_bytes() != old
    pooled = cli._read_run_chain(tmp_path, "chain.csv")
    assert pooled.samples.shape[0] == 2 * payload["sampler"]["n_samples"]
    assert pooled.seed == 99


def _stub_chain(seed):
    row = [28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 3e3]
    return bayes.Chain(samples=np.tile(row, (150, 1)), log_posts=np.zeros(150),
                       accepted=np.ones(150, dtype=bool), warmup_len=0,
                       seed=seed)


@pytest.mark.parametrize("chains", [1, 3])
def test_failed_identify_leaves_no_stale_chain_files(tmp_path, monkeypatch,
                                                     chains):
    # an earlier three-chain run, then a rerun whose last chain finds no
    # start: summarize must not pool the earlier run's chains with its own
    _write_curve_observations(tmp_path)
    cfg = write_cfg(tmp_path, base_cfg())
    for i in range(3):
        bayes.write_chain(tmp_path / f"chain_{i}.csv", _stub_chain(4 + i))
    bayes.write_chain(tmp_path / "chain.csv", _stub_chain(3))

    def sample(obs, priors, plate, scfg):
        if scfg.seed == 99 + chains - 1:
            raise bayes.InitializationError("no start")
        return _stub_chain(scfg.seed)

    monkeypatch.setattr(bayes, "mcmc_sample", sample)
    rc = cli.main(["identify", "--config", cfg, "--out", str(tmp_path),
                   "--chains", str(chains), "--seed", "99"])
    assert rc == cli.EXIT_CODES["sampler"]
    # only the chains of the failed run itself remain
    want = [f"chain_{i}.csv" for i in range(chains - 1)]
    assert sorted(p.name for p in tmp_path.glob("chain*.csv")) == want
    assert [bayes.read_chain(tmp_path / name).seed for name in want] == [
        99 + i for i in range(chains - 1)]


@pytest.mark.parametrize("name,want", [
    ("chain.csv", "chain_2.csv"),
    ("chain.v2.csv", "chain_2.v2.csv"),
    ("runs.v2/chain.csv", "runs.v2/chain_2.csv"),
])
def test_chain_file_indexes_the_last_path_component(name, want):
    assert cli._chain_file(name, 2) == want


def test_multi_chain_run_in_a_dotted_directory(tmp_path, monkeypatch):
    # the index used to go before the first dot of the whole path, into a
    # directory runs_0.v2 that does not exist
    _write_curve_observations(tmp_path)
    (tmp_path / "runs.v2").mkdir()
    cfg = write_cfg(tmp_path, base_cfg(files={"chain": "runs.v2/chain.csv"}))
    monkeypatch.setattr(bayes, "mcmc_sample",
                        lambda obs, priors, plate, scfg: _stub_chain(scfg.seed))
    assert cli.main(["identify", "--config", cfg, "--out", str(tmp_path),
                     "--chains", "2"]) == 0
    assert sorted(p.name for p in (tmp_path / "runs.v2").iterdir()) == [
        "chain_0.csv", "chain_1.csv"]
    assert cli._read_run_chain(tmp_path, "runs.v2/chain.csv").seed == 3


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


def test_readme_lists_every_exit_code():
    # the codes of the "Exit codes:" paragraph, its parentheses dropped
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    text = readme[readme.index("Exit codes:"):].split("\n\n")[0]
    while re.search(r"\([^()]*\)", text):
        text = re.sub(r"\([^()]*\)", "", text)
    codes = {int(code) for code in re.findall(r"\b(\d+) [A-Za-z]", text)}
    assert codes == set(cli.EXIT_CODES.values()) | {0}


def test_every_failure_category_has_an_exit_code():
    # the table's categories, and those that cli.py raises CliError with
    source = ast.parse(Path(cli.__file__).read_text())
    raised = {node.args[0].value for node in ast.walk(source)
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "CliError"}
    table = {category for _, category in cli.FAILURES if category}
    assert raised and table <= set(cli.EXIT_CODES)
    assert raised <= set(cli.EXIT_CODES)


def test_failure_outside_the_table_propagates(tmp_path, monkeypatch, capsys):
    def fail(cfg, out, args):
        raise KeyError("not a failure kind main reports")

    monkeypatch.setattr(cli, "cmd_solve", fail)
    cfg = write_cfg(tmp_path, base_cfg())
    with pytest.raises(KeyError, match="not a failure kind"):
        cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert "error:" not in capsys.readouterr().err
    assert not (tmp_path / "resolved_config_solve.yaml").exists()
