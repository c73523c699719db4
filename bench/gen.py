"""Make one workload's inputs from the seed, in a process of its own.

Usage: python3 bench/gen.py --workload NAME --seed N --out DIR

Writes DIR/inputs.json plus the files it names.  The same seed gives the
same files.  Everything the measured process knows about the run comes from
here, so its set-up time and memory cover only the program.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

from lambid import wavefield
from lambid.bayes import Chain, SamplerConfig, write_chain
from lambid.dispersion import (ElasticConstants, PlateSpec, assemble_system,
                               realify, smallest_physical_cp)

THICKNESS_MM = 2.0
BAND = (0.2, 4.098)  # MHz*mm, the CLI default band
# tests/conftest.py reference materials: Pa, Pa, Pa, Pa, kg/m^3
GFRP = (28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0)
BASELINE = (160e9, 6.5e9, 14e9, 7e9, 1200.0)
MAX_ROUNDS = 64  # more rounds than any run of the stated length completes
UNIQUE_K = 100  # identify: fixed input size, so cost does not drift with the seed
FIELDS = 256
# sd / mean of c11, c13, c33, c55, rho, sigma over the post-warmup part of
# a default-length chain (5000 + 20000 steps) on seed 1's identify inputs
CHAIN_REL_SD = (0.007, 0.033, 0.010, 0.005, 0.002, 0.07)


def near(rng, values, rel):
    return [float(v * (1 + rel * rng.standard_normal())) for v in values]


def isotropic(e, nu, rho):
    lam = e * nu / ((1 + nu) * (1 - 2 * nu))
    mu = e / (2 * (1 + nu))
    return [lam + 2 * mu, lam, lam + 2 * mu, mu, rho]


def predicted(values, plate, points) -> np.ndarray:
    """Model omega of each (mode, omega, k) point at order 10 on the dense
    path, as the likelihood solves it."""
    material = ElasticConstants(*values)
    cps = {k: smallest_physical_cp(realify(assemble_system(
        material, k * plate.thickness, 10)), 2, method="dense")
        for k in {k for _, _, k in points}}
    return np.array([cps[k][0 if m == "A0" else 1] * k for m, _, k in points])


def chain_file(rng, mean) -> Chain:
    """A chain of the sampler's default size (5000 warmup + 20000 samples)
    for `lambid summarize`: rows drawn around `mean` with CHAIN_REL_SD and
    held on rejected steps at the sampler's target acceptance."""
    cfg = SamplerConfig()
    total = cfg.warmup + cfg.n_samples
    draws = np.asarray(mean) * (1 + np.asarray(CHAIN_REL_SD)
                                * rng.standard_normal((total, len(mean))))
    accepted = rng.uniform(size=total) < cfg.target_acceptance
    accepted[0] = True
    held = np.maximum.accumulate(np.where(accepted, np.arange(total), 0))
    z = (draws[held] / mean - 1) / CHAIN_REL_SD
    return Chain(samples=draws[held], log_posts=-0.5 * np.sum(z * z, axis=1),
                 accepted=accepted, warmup_len=cfg.warmup, seed=0)


def gen_identify(rng, out: Path) -> dict:
    theta = near(rng, GFRP, 0.03)
    material = ElasticConstants(*theta)
    plate = PlateSpec(THICKNESS_MM * 1e-3)
    # a noisy field on the default synth geometry, ridge-picked as
    # `lambid extract` would
    field = wavefield.synth_wavefield(
        material, plate,
        geometry=dict(n_x=256, dx=1.8e-3, n_t=4096, dt=0.9765625e-6),
        excitation=dict(f_lo=10e3, f_hi=500e3, duration=1e-3),
        noise_rms=0.1, seed=int(rng.integers(2**31)), order=10)
    obs = wavefield.ridge_pick(
        wavefield.normalize_energy(wavefield.two_dft(field)), band=BAND,
        plate=plate)
    ks = np.unique([k for _, _, k in obs.points])
    if ks.size < UNIQUE_K:
        raise SystemExit(f"only {ks.size} unique k picked, need {UNIQUE_K}")
    keep = set(ks[np.linspace(0, ks.size - 1, UNIQUE_K).round().astype(int)])
    points = [p for p in obs.points if p[2] in keep]
    wavefield.write_observations(out / "observations.csv",
                                 wavefield.ObservationSet(points, BAND))
    # noise scale at the generating constants, from the forward model
    resid = np.array([om for _, om, _ in points]) - predicted(theta, plate, points)
    sigma = float(np.sqrt(np.mean(np.square(resid))))
    chains = [
        {"seed": int(rng.integers(2**31)),
         "init": near(rng, theta, 0.01) + [sigma * (1 + 0.05 * rng.standard_normal())]}
        for _ in range(2 * MAX_ROUNDS)
    ]
    # one chain file per chain, named as `lambid identify --chains 2` names
    # them, and a config that points `lambid summarize` at each
    (out / "summarize").mkdir()
    configs = []
    for i in range(2):
        write_chain(out / "summarize" / f"chain_{i}.csv",
                    chain_file(rng, theta + [sigma]))
        configs.append(f"summarize_{i}.yaml")
        (out / configs[-1]).write_text(
            f"seed: 0\nplate: {{thickness_mm: {THICKNESS_MM!r}}}\n"
            f"files: {{chain: chain_{i}.csv, summary: summary_{i}.csv, "
            f"ensemble: ensemble_{i}.csv}}\n")
    return {"theta": theta, "sigma": sigma, "observations": "observations.csv",
            "chains": chains, "warmup": 50, "n_samples": 100,
            "forward_order": 10, "summarize": configs, "summarize_out": "summarize"}


def gen_curves(rng, out: Path) -> dict:
    e, nu, rho = near(rng, (70e9, 0.33, 2700.0), 0.01)
    materials = {"gfrp": near(rng, GFRP, 0.02),
                 "baseline": near(rng, BASELINE, 0.02),
                 "isotropic": isotropic(e, nu, rho)}
    return {"materials": materials, "n_points": 200, "order": 14,
            "eig_method": "power", "perturbation": 0.3}


def gen_signal(rng, out: Path) -> dict:
    c11, c13, c33, c55, rho = near(rng, GFRP, 0.03)
    configs = []
    for i in range(FIELDS):
        name = f"field_{i:03d}.yaml"
        # clean and noisy fields alternate; each has its own seed
        noise = 0.0 if i % 2 == 0 else 0.1
        (out / name).write_text(
            f"seed: {int(rng.integers(2**31))}\n"
            f"plate: {{thickness_mm: {THICKNESS_MM!r}}}\n"
            f"material:\n  elastic: {{c11_gpa: {c11 * 1e-9!r}, c13_gpa: {c13 * 1e-9!r}, "
            f"c33_gpa: {c33 * 1e-9!r}, c55_gpa: {c55 * 1e-9!r}, rho_kg_m3: {rho!r}}}\n"
            f"synth: {{noise_rms: {noise!r}}}\n")
        configs.append(name)
    return {"theta": [c11, c13, c33, c55, rho], "configs": configs,
            "dk_bin": 2 * math.pi / (256 * 1.8e-3)}


GENERATORS = {"identify": gen_identify, "curves": gen_curves, "signal": gen_signal}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([args.seed % 2**63,
                                 sorted(GENERATORS).index(args.workload)])
    doc = GENERATORS[args.workload](rng, out)
    doc.update(workload=args.workload, seed=args.seed,
               thickness_mm=THICKNESS_MM, band=list(BAND))
    (out / "inputs.json").write_text(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
