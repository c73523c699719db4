"""End-to-end synthetic identification study.

Generates noisy dispersion observations from known GFRP constants, runs the
adaptive Metropolis sampler from the true constants, and writes the
observations, the chain, the posterior summary and a forward-solved curve
ensemble.  This is the scripted analogue of the CLI pipeline, but with
direct (curve-level) observation synthesis instead of the full wavefield
round trip, which keeps it fast enough for parameter studies.

Usage:
    python scripts/run_synthetic_identification.py --out results/synth \
        --n-samples 20000 --warmup 5000 --seed 42
"""

import argparse
import time
from pathlib import Path

import numpy as np

from lambid import analysis
from lambid.bayes import (PARAM_NAMES, ParamVector, SamplerConfig,
                          default_priors, mcmc_sample, write_chain)
from lambid.dispersion import (ElasticConstants, PlateSpec,
                               k_grid_for_fh_band, trace_curves)
from lambid.wavefield import ObservationSet, write_observations

TRUE_THETA = ElasticConstants(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0)
SIGMA_TRUE = 2 * np.pi * 500.0  # rad/s
BAND = (0.2, 4.098)  # MHz*mm


def synth_observations(plate, n_per_mode, seed, order=12):
    grid = k_grid_for_fh_band(TRUE_THETA, plate, *BAND,
                              n_points=n_per_mode, order=order)
    a0, s0 = trace_curves(TRUE_THETA, plate, grid, order=order,
                          method="dense")
    rng = np.random.default_rng(seed)
    pts = [
        (curve.mode_label.value, om + rng.normal(0, SIGMA_TRUE), k)
        for curve in (a0, s0)
        for om, k in zip(curve.omega, curve.k)
    ]
    return ObservationSet(points=pts, band=BAND), grid, a0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("results/synth"))
    ap.add_argument("--n-per-mode", type=int, default=15)
    ap.add_argument("--n-samples", type=int, default=20_000)
    ap.add_argument("--warmup", type=int, default=5_000)
    ap.add_argument("--data-seed", type=int, default=2)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--thickness-mm", type=float, default=2.0)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    plate = PlateSpec(args.thickness_mm * 1e-3)
    obs, grid, a0_true = synth_observations(plate, args.n_per_mode,
                                            args.data_seed)
    write_observations(args.out / "observations.csv", obs)
    print(f"synthesized {len(obs)} observations, noise sd = "
          f"{SIGMA_TRUE / (2 * np.pi):.0f} Hz")

    init = ParamVector(TRUE_THETA.c11, TRUE_THETA.c13, TRUE_THETA.c33,
                       TRUE_THETA.c55, TRUE_THETA.rho, SIGMA_TRUE)
    cfg = SamplerConfig(n_samples=args.n_samples, warmup=args.warmup,
                        seed=args.seed, init=init, proposal_scale=0.1)
    t0 = time.perf_counter()
    chain = mcmc_sample(obs, default_priors(), plate, cfg)
    print(f"sampled {args.n_samples} draws in {time.perf_counter() - t0:.0f}s"
          f" (acceptance {chain.acceptance_fraction:.3f})")
    write_chain(args.out / "chain.csv", chain)

    summary = analysis.summarize(chain)
    analysis.write_summary(args.out / "summary.csv", summary)
    truth = dict(zip(PARAM_NAMES, [TRUE_THETA.c11, TRUE_THETA.c13,
                                   TRUE_THETA.c33, TRUE_THETA.c55,
                                   TRUE_THETA.rho, SIGMA_TRUE]))
    for name in PARAM_NAMES:
        s = summary[name]
        hit = s.ci_lo <= truth[name] <= s.ci_hi
        print(f"  {name:>5}: mean {s.mean:.4g}  95% CI "
              f"[{s.ci_lo:.4g}, {s.ci_hi:.4g}]  true {truth[name]:.4g}  "
              f"{'in' if hit else 'OUT of'} CI")

    ens = analysis.curve_ensemble(chain, plate, grid, order=12)
    analysis.write_ensemble(args.out / "ensemble.csv", ens)
    lo, hi = ens.omega["A0"].min(axis=0), ens.omega["A0"].max(axis=0)
    cover = np.mean((lo <= a0_true.omega) & (a0_true.omega <= hi))
    print(f"ensemble: {ens.size} members, {ens.n_skipped} skipped, "
          f"true A0 inside min/max band at {cover:.0%} of grid points")


if __name__ == "__main__":
    main()
