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


# the failure kinds that main reports, in precedence order, each with its
# EXIT_CODES category; None takes the CliError's own
FAILURES = (
    (CliError, None),
    (ValueError, "config"),  # a ConfigError, or a value the library rejects
    (wavefield.RidgeError, "ridge"),
    (dispersion.TracingError, "solver"),
    (bayes.InitializationError, "sampler"),
    (OSError, "io"),
)


def _band_grid(cfg: RunConfig) -> np.ndarray:
    material = cfg.require_material()
    plate = cfg.require_plate()
    return dispersion.k_grid_for_fh_band(
        material, plate,
        cfg.band["fh_min_mhz_mm"], cfg.band["fh_max_mhz_mm"],
        n_points=cfg.band["n_points"], order=cfg.solver["order"],
    )


def cmd_solve(cfg: RunConfig, out: Path, args) -> None:
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


def cmd_sensitivity(cfg: RunConfig, out: Path, args) -> None:
    perturbation, params = args.perturbation, args.params
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


def cmd_synth(cfg: RunConfig, out: Path, args) -> None:
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


def cmd_extract(cfg: RunConfig, out: Path, args) -> None:
    plate = cfg.require_plate()
    prefix = out / cfg.files["wavefield"]
    field = _read(wavefield.read_txfield, prefix, "wavefield")
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


def _read(read, path: Path, what: str):
    """read(path); CliError "io" naming the file where it cannot be read."""
    try:
        return read(path)
    except (OSError, ValueError, IndexError) as exc:
        raise CliError("io", f"cannot read {what} at {path}: {exc}")


def _run_chain_files(out: Path, name: str) -> list[Path]:
    """The per-chain files of a multi-chain run, chain_0 up to the first
    missing index; a chain_<i> past a gap belongs to no run."""
    paths: list[Path] = []
    while (out / _chain_file(name, len(paths))).exists():
        paths.append(out / _chain_file(name, len(paths)))
    return paths


def _read_run_chain(out: Path, name: str) -> bayes.Chain:
    """The named chain file or, when it is absent, the post-warmup rows of
    every per-chain file of a multi-chain run pooled into one chain."""
    paths = [] if (out / name).exists() else _run_chain_files(out, name)
    if not paths:
        return _read(bayes.read_chain, out / name, "chain")
    parts = [_read(bayes.read_chain, path, "chain") for path in paths]
    return bayes.Chain(
        samples=np.concatenate([c.post_warmup for c in parts]),
        log_posts=np.concatenate([c.log_posts[c.warmup_len:] for c in parts]),
        accepted=np.concatenate([c.accepted[c.warmup_len:] for c in parts]),
        warmup_len=0,
        seed=parts[0].seed,
        warnings=[w for c in parts for w in c.warnings],
    )


def cmd_identify(cfg: RunConfig, out: Path, args) -> None:
    n_chains = args.chains
    if n_chains < 1:
        raise CliError("args", f"--chains {n_chains} is not a positive count")
    plate = cfg.require_plate()
    obs = _read(wavefield.read_observations, out / cfg.files["observations"],
                "observations")
    # a run that fails leaves _read_run_chain none of an earlier run's files
    # to pool
    name = cfg.files["chain"]
    (out / name).unlink(missing_ok=True)
    for path in _run_chain_files(out, name):
        path.unlink()
    for i in range(n_chains):
        scfg = bayes.SamplerConfig(**cfg.sampler, seed=cfg.seed + i)
        chain = bayes.mcmc_sample(obs, cfg.priors, plate, scfg)
        bayes.write_chain(out / (_chain_file(name, i) if n_chains > 1 else name),
                          chain)
        for w in chain.warnings:
            print(f"warning: chain {i}: {w}", file=sys.stderr)


def cmd_summarize(cfg: RunConfig, out: Path, args) -> None:
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

    def command(name, run, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(run=run)
        return p

    command("solve", cmd_solve, "trace A0/S0 dispersion curves")
    p = command("sensitivity", cmd_sensitivity,
                "perturb each material parameter and re-trace")
    p.add_argument("--perturbation", type=float, default=0.3)
    p.add_argument("--params", nargs="*", default=None,
                   help="restrict to these parameter names")
    command("synth", cmd_synth, "synthesize a time-distance wavefield")
    command("extract", cmd_extract, "2DFT + ridge picking to observations")
    p = command("identify", cmd_identify, "MCMC identification from observations")
    p.add_argument("--chains", type=int, default=1)
    command("summarize", cmd_summarize, "posterior summary and curve ensembles")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise CliError("args", f"--seed {args.seed} is negative")
            cfg.seed = args.seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        args.run(cfg, out, args)
        cfg.dump_resolved(out / f"resolved_config_{args.command}.yaml")
    except tuple(kind for kind, _ in FAILURES) as exc:
        category = next(category or exc.category
                        for kind, category in FAILURES if isinstance(exc, kind))
        print(f"error:{category}: {exc}", file=sys.stderr)
        return EXIT_CODES[category]
    return 0


if __name__ == "__main__":
    sys.exit(main())
