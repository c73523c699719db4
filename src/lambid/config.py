"""Run configuration: a single YAML file drives every CLI command.

Units at the file boundary are chosen for convenience (GPa, mm, kHz, us)
and converted to SI internally.  Every command echoes the fully-resolved
configuration next to its outputs so any artifact can be reproduced from
its own directory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import yaml

from .bayes import GammaPrior, NormalPrior, PriorSpec, default_priors
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
    "sampler": {
        "n_samples": 20000, "warmup": 5000, "proposal_scale": 0.1,
        "forward_order": 10,
    },
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
    unknown = set(extra) - set(merged)
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")
    for key, value in extra.items():
        _check_kind(f"{section}.{key}", value, merged[key])
    merged.update(extra)
    return merged


def _check_kind(where: str, value, default) -> None:
    """ConfigError unless value is of its default's kind: true or false for
    a bool, an integer for an int, any number for a float and text for a
    str (YAML reads a bool as an int too, so that is excluded by hand)."""
    kind = type(default)
    if kind is bool:
        ok, what = isinstance(value, bool), "true or false"
    elif kind in (int, float):
        ok = (isinstance(value, int if kind is int else (int, float))
              and not isinstance(value, bool))
        what = "an integer" if kind is int else "a number"
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
        out["priors"] = {
            name: (
                {"dist": "gamma", "shape": p.shape, "rate": p.rate}
                if isinstance(p, GammaPrior)
                else {"dist": "normal", "mean": p.mean, "sd": p.sd}
            )
            for name, p in self.priors.priors.items()
        }
        return out

    def dump_resolved(self, path) -> None:
        with open(path, "w") as fh:
            yaml.safe_dump(self.resolved(), fh, sort_keys=True)


def _parse_material(raw: dict) -> ElasticConstants | None:
    if raw.get("material") is None:
        return None
    mat = _mapping(raw["material"], "material")
    forms = [f for f in ("elastic", "engineering") if f in mat]
    if len(forms) != 1:
        raise ConfigError(
            "material must contain exactly one of 'elastic' or 'engineering'"
        )
    sec = _mapping(mat[forms[0]], f"material.{forms[0]}")
    try:
        if forms[0] == "elastic":
            return ElasticConstants(
                c11=float(_require(sec, "c11_gpa", "material.elastic")) * 1e9,
                c13=float(_require(sec, "c13_gpa", "material.elastic")) * 1e9,
                c33=float(_require(sec, "c33_gpa", "material.elastic")) * 1e9,
                c55=float(_require(sec, "c55_gpa", "material.elastic")) * 1e9,
                rho=float(_require(sec, "rho_kg_m3", "material.elastic")),
            )
        return engineering_to_constants(
            e11=float(_require(sec, "e11_gpa", "material.engineering")) * 1e9,
            e22=float(_require(sec, "e22_gpa", "material.engineering")) * 1e9,
            g12=float(_require(sec, "g12_gpa", "material.engineering")) * 1e9,
            nu12=float(_require(sec, "nu12", "material.engineering")),
            nu21=float(_require(sec, "nu21", "material.engineering")),
            rho=float(_require(sec, "rho_kg_m3", "material.engineering")),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"material: {exc}") from exc


def _parse_priors(raw: dict) -> PriorSpec:
    base = default_priors()
    overrides = _mapping(raw.get("priors"), "priors")
    priors = dict(base.priors)
    for name, spec in overrides.items():
        if name not in priors:
            raise ConfigError(f"priors.{name}: unknown parameter")
        spec = _mapping(spec, f"priors.{name}")
        dist = spec.get("dist")
        try:
            if dist == "gamma":
                priors[name] = GammaPrior(
                    shape=float(spec["shape"]), rate=float(spec["rate"])
                )
            elif dist == "normal":
                priors[name] = NormalPrior(
                    mean=float(spec["mean"]), sd=float(spec["sd"])
                )
            else:
                raise ConfigError(
                    f"priors.{name}.dist must be 'gamma' or 'normal'"
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"priors.{name}: {exc}") from exc
    return PriorSpec(priors=priors, scales=base.scales)


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

    plate = None
    plate_sec = _mapping(raw.get("plate"), "plate")
    if plate_sec:
        t_mm = _require(plate_sec, "thickness_mm", "plate")
        try:
            plate = PlateSpec(thickness=float(t_mm) * 1e-3)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"plate: {exc}") from exc

    sections = {name: _merged(name, raw) for name in _DEFAULTS}
    band, sampler = sections["band"], sections["sampler"]
    if not 0 < band["fh_min_mhz_mm"] < band["fh_max_mhz_mm"]:
        raise ConfigError("band: need 0 < fh_min_mhz_mm < fh_max_mhz_mm")
    if band["n_points"] < 1:
        raise ConfigError("band.n_points must be positive")
    for key in ("n_samples", "warmup"):
        if sampler[key] < 0 or (key == "n_samples" and sampler[key] == 0):
            raise ConfigError(f"sampler.{key} must be positive")
    if sections["ensemble"]["max_members"] < 1:
        raise ConfigError("ensemble.max_members must be positive")

    seed = raw.get("seed", 0)
    _check_kind("seed", seed, 0)

    return RunConfig(
        seed=seed,
        material=_parse_material(raw),
        plate=plate,
        priors=_parse_priors(raw),
        **sections,
    )
