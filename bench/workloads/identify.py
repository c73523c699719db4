"""identify: two Metropolis chains, as `lambid identify --chains 2` runs
them, then `lambid summarize` on each of two chain files of the default
size.

The chains are driven through the library because CLI `identify` starts
them from prior draws; here each starts near the generating constants.
The summarized chains are fixed files from gen.py (5000 warmup + 20000
samples, the sampler's defaults), so summarize does the work of a user's
chain: KDEs over 20000 draws and a 200-member curve ensemble.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext

import numpy as np

from lambid import analysis, bayes, cli, config, dispersion, wavefield

import checks
from workloads import Workload, table_build_s, trace_dispersion


class Identify(Workload):
    def setup(self) -> None:
        inp = self.inputs
        self.plate = dispersion.PlateSpec(inp["thickness_mm"] * 1e-3)
        self.order = inp["forward_order"]
        self.obs = wavefield.read_observations(self.dir / inp["observations"])
        self.priors = bayes.default_priors()
        self.theta = dispersion.ElasticConstants(*inp["theta"])
        self.table_build_s = table_build_s(dispersion, self.theta, self.order)
        self.summarize_cfgs = [config.load_config(self.dir / name)
                               for name in inp["summarize"]]
        self.summarize_out = self.dir / inp["summarize_out"]
        self.outputs = {}  # round -> (chains, summarize exit codes)

    def run_round(self, r: int) -> dict:
        inp = self.inputs
        specs = inp["chains"][2 * r % len(inp["chains"]):][:2]
        chains, steps, chain_s = [], 0, 0.0
        for spec in specs:
            cfg = bayes.SamplerConfig(
                n_samples=inp["n_samples"], warmup=inp["warmup"],
                seed=spec["seed"], init=bayes.ParamVector(*spec["init"]),
                forward_order=self.order)
            chain, dt = self.op(bayes.mcmc_sample, self.obs, self.priors,
                                self.plate, cfg)
            chains.append(chain)
            if chain is not None:
                steps += chain.samples.shape[0]
                chain_s += dt
        codes, post_s = [], []
        for name, cfg in zip(inp["summarize"], self.summarize_cfgs):
            argv = ["summarize", "--config", str(self.dir / name),
                    "--out", str(self.summarize_out)]
            with self.tracer.span("cli.summarize") if self.tracer else nullcontext():
                code, dt = self.op(cli.main, argv)
            codes.append(code)
            post_s.append(dt)
            if code == 0:
                # keep each round's outputs for the checks
                for key in ("summary", "ensemble"):
                    out = self.summarize_out / cfg.files[key]
                    os.replace(out, out.with_name(f"round{r}_{out.name}"))
        self.outputs[r] = (chains, codes)
        return {"work": steps, "work_s": chain_s, "post_s": post_s}

    def check(self) -> None:
        inp = self.inputs
        sigma = inp["sigma"]
        gen = bayes.ParamVector(*inp["theta"], sigma)
        got, _ = self.op(bayes.log_likelihood, self.obs, gen, self.plate,
                         order=self.order)
        if got is not None:
            ref = checks.reference_log_likelihood(
                self.obs.points, self.theta, sigma, self.plate.thickness, self.order)
            if not checks.loglik_ok(got, ref):
                self.check_failed(f"log_likelihood {got!r} != reference {ref!r}")
        ks = sorted({k for _, _, k in self.obs.points})
        for r, (chains, codes) in self.outputs.items():
            for i, chain in enumerate(chains):
                if chain is None:
                    continue
                self.stats["acceptance"].append(chain.acceptance_fraction)
                self.stats["ess_min"].append(ess_min(chain))
                accepted = np.unique(chain.samples[chain.accepted], axis=0)
                bad = checks.non_physical_samples(accepted, ks, self.plate.thickness,
                                                  self.order)
                if bad:
                    self.check_failed(f"round {r} chain {i}: {bad} accepted "
                                      "samples lack two physical branches")
            for cfg, code in zip(self.summarize_cfgs, codes):
                self.check_summarize(r, cfg, code)

    def check_summarize(self, r: int, cfg, code) -> None:
        if code is None:
            return  # a raised call is already counted
        if code != 0:
            self.check_failed(f"round {r}: summarize exit code {code}")
            return
        out = self.summarize_out
        draws = bayes.read_chain(out / cfg.files["chain"]).post_warmup
        members = len(range(0, len(draws), math.ceil(len(draws)
                                                     / cfg.ensemble["max_members"])))
        ensemble = checks.read_ensemble(out / f"round{r}_{cfg.files['ensemble']}")
        self.stats["ensemble_members"].append(len(ensemble["A0"]))
        self.stats["ensemble_skipped"].append(members - len(ensemble["A0"]))
        problem = (checks.summary_problem(out / f"round{r}_{cfg.files['summary']}", draws)
                   or checks.ensemble_problem(ensemble, draws, self.plate.thickness,
                                              self.order))
        if problem:
            self.check_failed(f"round {r} {cfg.files['chain']}: {problem}")

    def trace(self, tracer) -> None:
        counters = self.stats

        def finite(args, kwargs, result):
            counters["loglik_calls"] += 1
            counters["loglik_finite"] += math.isfinite(result)

        tracer.wrap(bayes, "mcmc_sample", "bayes.mcmc_sample")
        tracer.wrap(bayes, "log_posterior", "bayes.log_posterior")
        tracer.wrap(bayes, "log_likelihood", "bayes.log_likelihood", observe=finite)
        tracer.wrap(analysis, "summarize", "analysis.summarize")
        tracer.wrap(analysis, "curve_ensemble", "analysis.curve_ensemble")
        for module in (bayes, analysis, dispersion):
            trace_dispersion(tracer, module, counters)


def ess_min(chain) -> float:
    """Smallest batch-means effective sample size over the parameters."""
    draws = chain.post_warmup
    out = math.inf
    for j in range(draws.shape[1]):
        x = draws[:, j]
        se = analysis.mc_standard_error(x)
        out = min(out, float(np.var(x, ddof=1)) / se**2 if se > 0 else 0.0)
    return out
