"""YAML run-configuration loading and validation."""

import math
import re
from pathlib import Path

import pytest
import yaml

from lambid.bayes import GammaPrior, NormalPrior, SamplerConfig
from lambid.config import ConfigError, load_config

GFRP_ELASTIC = {
    "c11_gpa": 28.1, "c13_gpa": 7.8, "c33_gpa": 16.7, "c55_gpa": 8.2,
    "rho_kg_m3": 1200.0,
}


def write_cfg(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return path


def full_cfg():
    return {
        "seed": 11,
        "plate": {"thickness_mm": 2.0},
        "material": {"elastic": dict(GFRP_ELASTIC)},
    }


def test_full_config_loads(tmp_path):
    cfg = load_config(write_cfg(tmp_path, full_cfg()))
    assert cfg.seed == 11
    assert cfg.require_plate().thickness == pytest.approx(2e-3)
    mat = cfg.require_material()
    assert mat.c11 == pytest.approx(28.1e9)
    assert mat.rho == pytest.approx(1200.0)


def test_defaults_applied(tmp_path):
    cfg = load_config(write_cfg(tmp_path, full_cfg()))
    assert cfg.band["n_points"] == 200
    assert cfg.solver["order"] == 14
    assert cfg.sampler["warmup"] == 5000
    assert cfg.files["chain"] == "chain.csv"


def test_sampler_defaults_come_from_sampler_config(tmp_path):
    cfg = load_config(write_cfg(tmp_path, full_cfg()))
    want = SamplerConfig()
    assert cfg.sampler == {
        "n_samples": want.n_samples, "warmup": want.warmup,
        "proposal_scale": want.proposal_scale,
        "forward_order": want.forward_order,
    }


def test_section_override_merges(tmp_path):
    payload = full_cfg()
    payload["solver"] = {"order": 10}
    cfg = load_config(write_cfg(tmp_path, payload))
    assert cfg.solver["order"] == 10
    # untouched defaults survive
    assert cfg.solver["auto_converge"] is False


def test_unknown_key_rejected(tmp_path):
    payload = full_cfg()
    payload["solver"] = {"orderr": 10}
    with pytest.raises(ConfigError, match="unknown keys in solver"):
        load_config(write_cfg(tmp_path, payload))


def test_both_material_forms_rejected(tmp_path):
    payload = full_cfg()
    payload["material"]["engineering"] = {
        "e11_gpa": 24.5, "e22_gpa": 14.6, "g12_gpa": 8.2,
        "nu12": 0.46, "nu21": 0.28, "rho_kg_m3": 1200.0,
    }
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(write_cfg(tmp_path, payload))


def test_engineering_material(tmp_path):
    payload = {
        "plate": {"thickness_mm": 2.0},
        "material": {"engineering": {
            "e11_gpa": 24.5, "e22_gpa": 14.6, "g12_gpa": 8.2,
            "nu12": 0.46, "nu21": 0.28, "rho_kg_m3": 1200.0,
        }},
    }
    mat = load_config(write_cfg(tmp_path, payload)).require_material()
    assert mat.c11 == pytest.approx(28.1e9, rel=2e-3)
    assert mat.c55 == pytest.approx(8.2e9)


def test_missing_material_field(tmp_path):
    payload = full_cfg()
    del payload["material"]["elastic"]["c11_gpa"]
    with pytest.raises(ConfigError, match="c11_gpa"):
        load_config(write_cfg(tmp_path, payload))


def test_material_optional_until_required(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {"plate": {"thickness_mm": 2.0}}))
    with pytest.raises(ConfigError, match="material"):
        cfg.require_material()


def test_plate_optional_until_required(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {}))
    with pytest.raises(ConfigError, match="thickness_mm"):
        cfg.require_plate()


def test_bad_band_ordering(tmp_path):
    payload = full_cfg()
    payload["band"] = {"fh_min_mhz_mm": 3.0, "fh_max_mhz_mm": 1.0}
    with pytest.raises(ConfigError, match="band"):
        load_config(write_cfg(tmp_path, payload))


@pytest.mark.parametrize("f_lo,f_hi,key", [
    (300.0, 100.0, "synth.f_lo_khz"),
    (-10.0, 500.0, "synth.f_lo_khz"),
    (10.0, -100.0, "synth.f_hi_khz"),
    (0.0, 0.0, "synth.f_hi_khz"),
])
def test_bad_excitation_band(tmp_path, f_lo, f_hi, key):
    payload = full_cfg()
    payload["synth"] = {"f_lo_khz": f_lo, "f_hi_khz": f_hi}
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(write_cfg(tmp_path, payload))


@pytest.mark.parametrize("f_lo", [0.0, 100.0])
def test_excitation_band_edges_accepted(tmp_path, f_lo):
    # f_lo_khz == f_hi_khz is the sine excitation
    payload = full_cfg()
    payload["synth"] = {"f_lo_khz": f_lo, "f_hi_khz": 100.0}
    assert load_config(write_cfg(tmp_path, payload)).synth["f_lo_khz"] == f_lo


def test_bad_sampler_counts(tmp_path):
    payload = full_cfg()
    payload["sampler"] = {"n_samples": 0}
    with pytest.raises(ConfigError, match="n_samples"):
        load_config(write_cfg(tmp_path, payload))


def test_warmup_must_be_non_negative(tmp_path):
    # zero warmup is valid, so "must be positive" misstated the rule
    payload = full_cfg()
    payload["sampler"] = {"warmup": 0}
    assert load_config(write_cfg(tmp_path, payload)).sampler["warmup"] == 0
    payload["sampler"] = {"warmup": -1}
    with pytest.raises(ConfigError, match="sampler.warmup must be non-negative"):
        load_config(write_cfg(tmp_path, payload))


@pytest.mark.parametrize("scale", [0.0, 0, -0.1])
def test_nonpositive_proposal_scale_rejected(tmp_path, scale):
    payload = full_cfg()
    payload["sampler"] = {"proposal_scale": scale}
    with pytest.raises(ConfigError, match="sampler.proposal_scale"):
        load_config(write_cfg(tmp_path, payload))


@pytest.mark.parametrize("order", [0, -2])
def test_forward_order_below_one_rejected(tmp_path, order):
    payload = full_cfg()
    payload["sampler"] = {"forward_order": order}
    with pytest.raises(ConfigError, match="sampler.forward_order"):
        load_config(write_cfg(tmp_path, payload))


@pytest.mark.parametrize("with_cg,n_points,ok", [
    (True, 3, True), (True, 2, False), (False, 1, True), (False, 0, False),
])
def test_ensemble_points_checked_at_load(tmp_path, with_cg, n_points, ok):
    payload = full_cfg()
    payload["ensemble"] = {"with_cg": with_cg, "n_points": n_points}
    if ok:
        assert load_config(write_cfg(tmp_path, payload)).ensemble["n_points"] == n_points
    else:
        with pytest.raises(ConfigError, match="ensemble.n_points"):
            load_config(write_cfg(tmp_path, payload))


@pytest.mark.parametrize("section,key,value", [
    ("band", "n_points", 200.0),  # an int key takes integers only
    ("solver", "auto_converge", 1),  # a bool key takes true or false only
    ("sampler", "warmup", True),  # YAML's true is no integer here
])
def test_value_of_wrong_kind_rejected(tmp_path, section, key, value):
    payload = full_cfg()
    payload[section] = {key: value}
    with pytest.raises(ConfigError, match=f"{section}.{key} must be"):
        load_config(write_cfg(tmp_path, payload))


def test_integer_accepted_as_number(tmp_path):
    payload = full_cfg()
    payload["band"] = {"fh_min_mhz_mm": 1, "fh_max_mhz_mm": 3}
    cfg = load_config(write_cfg(tmp_path, payload))
    assert (cfg.band["fh_min_mhz_mm"], cfg.band["fh_max_mhz_mm"]) == (1, 3)


def test_prior_override(tmp_path):
    payload = full_cfg()
    payload["priors"] = {
        "rho": {"dist": "normal", "mean": 1500.0, "sd": 100.0},
        "c11": {"dist": "gamma", "shape": 3.0, "rate": 0.05},
    }
    cfg = load_config(write_cfg(tmp_path, payload))
    rho = cfg.priors.priors["rho"]
    assert isinstance(rho, NormalPrior)
    assert rho.mean == 1500.0
    c11 = cfg.priors.priors["c11"]
    assert isinstance(c11, GammaPrior)
    assert c11.shape == 3.0


def test_prior_override_unknown_name(tmp_path):
    payload = full_cfg()
    payload["priors"] = {"c66": {"dist": "gamma", "shape": 2, "rate": 1}}
    with pytest.raises(ConfigError, match="unknown parameter"):
        load_config(write_cfg(tmp_path, payload))


def test_not_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("band: [unclosed")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.yaml")


def test_non_mapping_root(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(path)


def test_resolved_roundtrip(tmp_path):
    cfg = load_config(write_cfg(tmp_path, full_cfg()))
    out = tmp_path / "resolved.yaml"
    cfg.dump_resolved(out)
    resolved = yaml.safe_load(out.read_text())
    assert resolved["seed"] == 11
    assert resolved["material"]["elastic"]["c11_gpa"] == pytest.approx(28.1)
    assert resolved["plate"]["thickness_mm"] == pytest.approx(2.0)
    assert set(resolved["priors"]) == {"c11", "c13", "c33", "c55", "rho",
                                       "sigma"}
    assert math.isfinite(resolved["priors"]["rho"]["mean"])


def test_readme_config_reference_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config reference", 1)[1]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "readme.yaml"
    path.write_text(block)
    cfg = load_config(path)
    documented = yaml.safe_load(block)
    for section_name in ("band", "solver", "synth", "extract", "sampler",
                         "ensemble"):
        assert set(documented[section_name]) == set(getattr(cfg, section_name))
