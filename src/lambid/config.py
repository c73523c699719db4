"""Run configuration: a single YAML file drives every CLI command.

Units at the file boundary are chosen for convenience (GPa, mm, kHz, us)
and converted to SI internally.  Every command echoes the fully-resolved
configuration next to its outputs so any artifact can be reproduced from
its own directory.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field, fields

import yaml

from .bayes import (GammaPrior, NormalPrior, PriorSpec, SamplerConfig,
                    default_priors)
from .dispersion import ElasticConstants, PlateSpec, engineering_to_constants

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Configuration validation failure with a field-level message."""


_DEFAULTS = {
    "band": {"fh_min_mhz_mm": 0.2, "fh_max_mhz_mm": 4.098, "n_points": 200},
    "solver": {"order": 14, "auto_converge": False},
    "synth": {
        "n_x": 256, "dx_mm": 1.8, "n_t": 4096, "dt_us": 0.9765625,
        "f_lo_khz": 10.0, "f_hi_khz": 500.0, "duration_ms": 1.0,
        "noise_rms": 0.0, "amplitude": 1.0,
    },
    "extract": {"min_prominence": 0.3, "max_jump_bins": 3, "window": False},
    "sampler": {f.name: f.default for f in fields(SamplerConfig)
                if f.name not in ("seed", "init")},
    "ensemble": {"with_cg": True, "n_points": 60, "max_members": 200},
    "files": {
        "wavefield": "wavefield", "observations": "observations.csv",
        "chain": "chain.csv", "curves": "curves.csv",
        "sensitivity": "sensitivity.csv", "summary": "summary.csv",
        "ensemble": "ensemble.csv",
    },
}


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key} is required")
    return section[key]


def _number(section: dict, key: str, where: str) -> float:
    """section[key] as a float; ConfigError naming where.key when it is
    absent or not a finite number by _check_kind's rule."""
    value = _require(section, key, where)
    _check_kind(f"{where}.{key}", value, 0.0)
    return float(value)


def _known_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _mapping(value, where: str) -> dict:
    """value as a section mapping: {} for an absent (null) section, and a
    ConfigError for anything else that is not a mapping."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {value!r}")
    return value


def _merged(section: str, raw: dict) -> dict:
    merged = dict(_DEFAULTS[section])
    extra = _mapping(raw.get(section), section)
    _known_keys(extra, merged, section)
    for key, value in extra.items():
        _check_kind(f"{section}.{key}", value, merged[key])
    merged.update(extra)
    return merged


def _check_kind(where: str, value, default) -> None:
    """ConfigError unless value is of its default's kind: true or false for
    a bool, an integer for an int, any finite number for a float and text
    for a str (YAML reads a bool as an int too, so that is excluded by
    hand)."""
    kind = type(default)
    if kind is bool:
        ok, what = isinstance(value, bool), "true or false"
    elif kind in (int, float):
        ok = (isinstance(value, int if kind is int else (int, float))
              and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)  # finite as a float
        what = "an integer" if kind is int else "a finite number"
    else:
        ok, what = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"{where} must be {what}, got {value!r}")


@dataclass
class RunConfig:
    seed: int
    material: ElasticConstants | None
    plate: PlateSpec | None
    band: dict
    solver: dict
    synth: dict
    extract: dict
    sampler: dict
    ensemble: dict
    files: dict
    priors: PriorSpec = field(default_factory=default_priors)

    def require_material(self) -> ElasticConstants:
        if self.material is None:
            raise ConfigError("material section is required for this command")
        return self.material

    def require_plate(self) -> PlateSpec:
        if self.plate is None:
            raise ConfigError("plate.thickness_mm is required for this command")
        return self.plate

    def resolved(self) -> dict:
        out = {name: getattr(self, name) for name in ("seed", *_DEFAULTS)}
        if self.material is not None:
            m = self.material
            out["material"] = {
                "elastic": {
                    "c11_gpa": m.c11 * 1e-9, "c13_gpa": m.c13 * 1e-9,
                    "c33_gpa": m.c33 * 1e-9, "c55_gpa": m.c55 * 1e-9,
                    "rho_kg_m3": m.rho,
                }
            }
        if self.plate is not None:
            out["plate"] = {"thickness_mm": self.plate.thickness * 1e3}
        dists = {kind: dist for dist, kind in _PRIOR_KINDS.items()}
        out["priors"] = {name: {"dist": dists[type(p)], **asdict(p)}
                         for name, p in self.priors.priors.items()}
        return out

    def dump_resolved(self, path) -> None:
        with open(path, "w") as fh:
            yaml.safe_dump(self.resolved(), fh, sort_keys=True)


_MATERIAL_KEYS = {
    "elastic": ("c11_gpa", "c13_gpa", "c33_gpa", "c55_gpa", "rho_kg_m3"),
    "engineering": ("e11_gpa", "e22_gpa", "g12_gpa", "nu12", "nu21", "rho_kg_m3"),
}
_PRIOR_KINDS = {"gamma": GammaPrior, "normal": NormalPrior}


def _parse_material(raw: dict) -> ElasticConstants | None:
    if raw.get("material") is None:
        return None
    mat = _mapping(raw["material"], "material")
    forms = [f for f in _MATERIAL_KEYS if f in mat]
    if len(forms) != 1:
        raise ConfigError(
            "material must contain exactly one of 'elastic' or 'engineering'"
        )
    _known_keys(mat, forms, "material")
    where = f"material.{forms[0]}"
    sec = _mapping(mat[forms[0]], where)
    _known_keys(sec, _MATERIAL_KEYS[forms[0]], where)
    v = {key: _number(sec, key, where) for key in _MATERIAL_KEYS[forms[0]]}
    try:
        if forms[0] == "elastic":
            return ElasticConstants(
                c11=v["c11_gpa"] * 1e9, c13=v["c13_gpa"] * 1e9,
                c33=v["c33_gpa"] * 1e9, c55=v["c55_gpa"] * 1e9,
                rho=v["rho_kg_m3"],
            )
        return engineering_to_constants(
            e11=v["e11_gpa"] * 1e9, e22=v["e22_gpa"] * 1e9,
            g12=v["g12_gpa"] * 1e9, nu12=v["nu12"], nu21=v["nu21"],
            rho=v["rho_kg_m3"],
        )
    except ValueError as exc:
        raise ConfigError(f"material: {exc}") from exc


def _parse_priors(raw: dict) -> PriorSpec:
    overrides = _mapping(raw.get("priors"), "priors")
    priors = dict(default_priors().priors)
    for name, spec in overrides.items():
        if name not in priors:
            raise ConfigError(f"priors.{name}: unknown parameter")
        where = f"priors.{name}"
        spec = _mapping(spec, where)
        if spec.get("dist") not in _PRIOR_KINDS:
            raise ConfigError(f"{where}.dist must be 'gamma' or 'normal'")
        kind = _PRIOR_KINDS[spec["dist"]]
        keys = [f.name for f in fields(kind)]
        _known_keys(spec, ("dist", *keys), where)
        try:
            priors[name] = kind(*(_number(spec, key, where) for key in keys))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return PriorSpec(priors=priors)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    _known_keys(raw, ("seed", "plate", "material", "priors", *_DEFAULTS), "config")
    plate = None
    plate_sec = _mapping(raw.get("plate"), "plate")
    if plate_sec:
        _known_keys(plate_sec, ("thickness_mm",), "plate")
        t_mm = _number(plate_sec, "thickness_mm", "plate")
        try:
            plate = PlateSpec(thickness=t_mm * 1e-3)
        except ValueError as exc:
            raise ConfigError(f"plate: {exc}") from exc

    sections = {name: _merged(name, raw) for name in _DEFAULTS}
    band, sampler = sections["band"], sections["sampler"]
    if not 0 < band["fh_min_mhz_mm"] < band["fh_max_mhz_mm"]:
        raise ConfigError("band: need 0 < fh_min_mhz_mm < fh_max_mhz_mm")
    if band["n_points"] < 1:
        raise ConfigError("band.n_points must be positive")
    synth = sections["synth"]
    if not synth["f_hi_khz"] > 0:
        raise ConfigError("synth.f_hi_khz must be positive")
    if not 0 <= synth["f_lo_khz"] <= synth["f_hi_khz"]:
        raise ConfigError("synth.f_lo_khz must lie in [0, synth.f_hi_khz]")
    try:
        SamplerConfig(**sampler)
    except ValueError as exc:
        raise ConfigError(f"sampler.{exc}") from exc
    ensemble = sections["ensemble"]
    if ensemble["max_members"] < 1:
        raise ConfigError("ensemble.max_members must be positive")
    if ensemble["n_points"] < (3 if ensemble["with_cg"] else 1):
        raise ConfigError("ensemble.n_points must be at least 3 with with_cg "
                          "(c_g by central differences) and 1 without")

    seed = raw.get("seed", 0)
    _check_kind("seed", seed, 0)

    return RunConfig(
        seed=seed,
        material=_parse_material(raw),
        plate=plate,
        priors=_parse_priors(raw),
        **sections,
    )
