"""Batch command-line front end: solve, sensitivity, synth, extract,
identify, summarize.

Every command reads one YAML config (see config.py), writes its outputs
into --out, and echoes the resolved configuration for reproducibility.
Exit status is 0 iff all outputs were written; failures exit nonzero with a
machine-parseable "error:<category>:" line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path, PurePath

import numpy as np

from . import analysis, bayes, dispersion, textio, wavefield
from .config import RunConfig, load_config

EXIT_CODES = {
    "config": 2,
    "io": 3,
    "ridge": 4,
    "sampler": 5,
    "solver": 6,
    "args": 7,
}


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def _band_grid(cfg: RunConfig) -> np.ndarray:
    material = cfg.require_material()
    plate = cfg.require_plate()
    return dispersion.k_grid_for_fh_band(
        material, plate,
        cfg.band["fh_min_mhz_mm"], cfg.band["fh_max_mhz_mm"],
        n_points=cfg.band["n_points"], order=cfg.solver["order"],
    )


def cmd_solve(cfg: RunConfig, out: Path) -> None:
    material = cfg.require_material()
    plate = cfg.require_plate()
    grid = _band_grid(cfg)
    a0, s0 = dispersion.trace_curves(
        material, plate, grid,
        order=cfg.solver["order"],
        auto_converge=cfg.solver["auto_converge"],
    )
    curves = []
    for curve in (a0, s0):
        if curve.k.size >= 3:
            curve = dispersion.group_velocity(curve)
        curves.append(curve)
    dispersion.write_curves(out / cfg.files["curves"], curves, plate)
    print(f"expansion order used: {a0.order}"
          + (" (auto-converged)" if cfg.solver["auto_converge"] else ""))


def cmd_sensitivity(cfg: RunConfig, out: Path, perturbation: float,
                    params: list[str] | None) -> None:
    if not 0 <= perturbation < 1:
        raise CliError("args", f"--perturbation {perturbation} is not in [0, 1)")
    material = cfg.require_material()
    plate = cfg.require_plate()
    known = [f.name for f in dataclasses.fields(dispersion.ElasticConstants)]
    if params:
        bad = [p for p in params if p not in known]
        if bad:
            raise CliError("args", f"unknown parameter name(s): {bad}")
    names = [name for name in known if not params or name in params]
    grid = _band_grid(cfg)
    sweep = dispersion.sensitivity_sweep(
        material, plate, grid, perturbation, order=cfg.solver["order"],
        names=names,
    )
    rows = [(name, mode.value, sweep[name].max_shift[mode.value])
            for name in names for mode in dispersion.Mode]
    textio.write_table(out / cfg.files["sensitivity"],
                       "parameter,mode,max_rel_omega_shift", list(zip(*rows)))


def cmd_synth(cfg: RunConfig, out: Path) -> None:
    material = cfg.require_material()
    plate = cfg.require_plate()
    s = cfg.synth
    field = wavefield.synth_wavefield(
        material, plate,
        geometry={"n_x": s["n_x"], "dx": s["dx_mm"] * 1e-3,
                  "n_t": s["n_t"], "dt": s["dt_us"] * 1e-6},
        excitation={"f_lo": s["f_lo_khz"] * 1e3, "f_hi": s["f_hi_khz"] * 1e3,
                    "duration": s["duration_ms"] * 1e-3},
        noise_rms=s["noise_rms"],
        seed=cfg.seed,
        order=cfg.sampler["forward_order"],
        amplitude=s["amplitude"],
    )
    wavefield.write_txfield(out / cfg.files["wavefield"], field)


def cmd_extract(cfg: RunConfig, out: Path) -> None:
    plate = cfg.require_plate()
    prefix = out / cfg.files["wavefield"]
    try:
        field = wavefield.read_txfield(prefix)
    except (OSError, ValueError) as exc:
        raise CliError("io", f"cannot read wavefield at {prefix}: {exc}")
    image = wavefield.normalize_energy(
        wavefield.two_dft(field, window=cfg.extract["window"])
    )
    obs = wavefield.ridge_pick(
        image,
        band=(cfg.band["fh_min_mhz_mm"], cfg.band["fh_max_mhz_mm"]),
        plate=plate,
        min_prominence=cfg.extract["min_prominence"],
        max_jump_bins=cfg.extract["max_jump_bins"],
    )
    wavefield.write_observations(out / cfg.files["observations"], obs)


def _chain_file(name: str, i: int) -> str:
    """File of chain i in a multi-chain run, the index in the file name:
    chain.csv -> chain_<i>.csv, runs.v2/chain.csv -> runs.v2/chain_<i>.csv."""
    path = PurePath(name)
    stem, dot, ext = path.name.partition(".")
    return str(path.with_name(f"{stem}_{i}{dot}{ext}"))


def _read_chain(path: Path) -> bayes.Chain:
    """The chain file at path; CliError "io" naming it where it cannot be read."""
    try:
        return bayes.read_chain(path)
    except (OSError, ValueError, IndexError) as exc:
        raise CliError("io", f"cannot read chain at {path}: {exc}")


def _read_run_chain(out: Path, name: str) -> bayes.Chain:
    """The named chain file or, when it is absent, the post-warmup rows of
    every per-chain file of a multi-chain run pooled into one chain."""
    parts: list[bayes.Chain] = []
    if not (out / name).exists():
        while (out / _chain_file(name, len(parts))).exists():
            parts.append(_read_chain(out / _chain_file(name, len(parts))))
    if not parts:
        return _read_chain(out / name)
    return bayes.Chain(
        samples=np.concatenate([c.post_warmup for c in parts]),
        log_posts=np.concatenate([c.log_posts[c.warmup_len:] for c in parts]),
        accepted=np.concatenate([c.accepted[c.warmup_len:] for c in parts]),
        warmup_len=0,
        seed=parts[0].seed,
        warnings=[w for c in parts for w in c.warnings],
    )


def cmd_identify(cfg: RunConfig, out: Path, n_chains: int) -> None:
    if n_chains < 1:
        raise CliError("args", f"--chains {n_chains} is not a positive count")
    plate = cfg.require_plate()
    obs_path = out / cfg.files["observations"]
    try:
        obs = wavefield.read_observations(obs_path)
    except (OSError, ValueError) as exc:
        raise CliError("io", f"cannot read observations at {obs_path}: {exc}")
    # a run that fails leaves _read_run_chain none of an earlier run's files
    # to pool; a chain_<i>.csv past a gap is never read
    name = cfg.files["chain"]
    (out / name).unlink(missing_ok=True)
    i = 0
    while (out / _chain_file(name, i)).exists():
        (out / _chain_file(name, i)).unlink()
        i += 1
    for i in range(n_chains):
        scfg = bayes.SamplerConfig(**cfg.sampler, seed=cfg.seed + i)
        try:
            chain = bayes.mcmc_sample(obs, cfg.priors, plate, scfg)
        except bayes.InitializationError as exc:
            raise CliError("sampler", str(exc))
        bayes.write_chain(out / (_chain_file(name, i) if n_chains > 1 else name),
                          chain)
        for w in chain.warnings:
            print(f"warning: chain {i}: {w}", file=sys.stderr)


def cmd_summarize(cfg: RunConfig, out: Path) -> None:
    plate = cfg.require_plate()
    chain = _read_run_chain(out, cfg.files["chain"])
    try:
        summary = analysis.summarize(chain)
    except ValueError as exc:
        raise CliError("sampler", str(exc))
    analysis.write_summary(out / cfg.files["summary"], summary)

    mean_theta = bayes.ParamVector(
        **{n: summary[n].mean for n in bayes.PARAM_NAMES}
    )
    grid = dispersion.k_grid_for_fh_band(
        mean_theta.material(), plate,
        cfg.band["fh_min_mhz_mm"], cfg.band["fh_max_mhz_mm"],
        n_points=cfg.ensemble["n_points"], order=cfg.sampler["forward_order"],
    )
    ens = analysis.curve_ensemble(
        chain, plate, grid,
        with_cg=cfg.ensemble["with_cg"],
        order=cfg.sampler["forward_order"],
        max_solves=cfg.ensemble["max_members"],
    )
    analysis.write_ensemble(out / cfg.files["ensemble"], ens)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambid",
        description="Lamb-wave dispersion solving and Bayesian material "
                    "identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML run config")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")

    sub.add_parser("solve", parents=[common],
                   help="trace A0/S0 dispersion curves")
    p = sub.add_parser("sensitivity", parents=[common],
                       help="perturb each material parameter and re-trace")
    p.add_argument("--perturbation", type=float, default=0.3)
    p.add_argument("--params", nargs="*", default=None,
                   help="restrict to these parameter names")
    sub.add_parser("synth", parents=[common],
                   help="synthesize a time-distance wavefield")
    sub.add_parser("extract", parents=[common],
                   help="2DFT + ridge picking to observations")
    p = sub.add_parser("identify", parents=[common],
                       help="MCMC identification from observations")
    p.add_argument("--chains", type=int, default=1)
    sub.add_parser("summarize", parents=[common],
                   help="posterior summary and curve ensembles")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ValueError as exc:
        print(f"error:config: {exc}", file=sys.stderr)
        return EXIT_CODES["config"]
    if args.seed is not None:
        if args.seed < 0:
            print(f"error:args: --seed {args.seed} is negative", file=sys.stderr)
            return EXIT_CODES["args"]
        cfg.seed = args.seed
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            cmd_solve(cfg, out)
        elif args.command == "sensitivity":
            cmd_sensitivity(cfg, out, args.perturbation, args.params)
        elif args.command == "synth":
            cmd_synth(cfg, out)
        elif args.command == "extract":
            cmd_extract(cfg, out)
        elif args.command == "identify":
            cmd_identify(cfg, out, args.chains)
        elif args.command == "summarize":
            cmd_summarize(cfg, out)
        cfg.dump_resolved(out / f"resolved_config_{args.command}.yaml")
    except CliError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)
    except ValueError as exc:  # a ConfigError, or a value the library rejects
        print(f"error:config: {exc}", file=sys.stderr)
        return EXIT_CODES["config"]
    except wavefield.RidgeError as exc:
        print(f"error:ridge: {exc}", file=sys.stderr)
        return EXIT_CODES["ridge"]
    except dispersion.TracingError as exc:
        print(f"error:solver: {exc}", file=sys.stderr)
        return EXIT_CODES["solver"]
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return EXIT_CODES["io"]
    return 0


if __name__ == "__main__":
    sys.exit(main())
