"""The benchmark's own tests: metric names against BENCHMARK.json, the
output checks against deliberately corrupted outputs, and the span
statistics.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
from tracer import Tracer, tail
from lambid.analysis import curve_ensemble, summarize, write_ensemble, write_summary
from lambid.bayes import Chain, ParamVector, log_likelihood
from lambid.dispersion import ElasticConstants, PlateSpec, trace_curves
from lambid.wavefield import ObservationSet

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
GFRP = ElasticConstants(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0)
PLATE = PlateSpec(2e-3)


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, key):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "signal",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _observations(sigma):
    grid = np.geomspace(300.0, 3000.0, 8)
    a0, s0 = trace_curves(GFRP, PLATE, grid, order=10, method="dense")
    rng = np.random.default_rng(5)
    pts = [(c.mode_label.value, om + rng.normal(0, sigma), k)
           for c in (a0, s0) for om, k in zip(c.omega, c.k)]
    return ObservationSet(points=pts, band=(0.2, 4.098))


def test_loglik_check_flags_a_perturbed_likelihood():
    sigma = 2 * np.pi * 500.0
    obs = _observations(sigma)
    got = log_likelihood(obs, ParamVector(GFRP.c11, GFRP.c13, GFRP.c33, GFRP.c55,
                                          GFRP.rho, sigma), PLATE)
    ref = checks.reference_log_likelihood(obs.points, GFRP, sigma, PLATE.thickness, 10)
    assert checks.loglik_ok(got, ref)
    assert not checks.loglik_ok(got * (1 + 1e-7), ref)
    assert not checks.loglik_ok(-math.inf, ref)


def test_oracle_check_flags_a_shifted_curve():
    e, nu, rho = 70e9, 0.33, 2700.0
    lam, mu = e * nu / ((1 + nu) * (1 - 2 * nu)), e / (2 * (1 + nu))
    theta = ElasticConstants(lam + 2 * mu, lam, lam + 2 * mu, mu, rho)
    cl, ct = math.sqrt((lam + 2 * mu) / rho), math.sqrt(mu / rho)
    a0, _ = trace_curves(theta, PLATE, np.geomspace(200.0, 4000.0, 12), order=14,
                         method="dense")
    err = checks.oracle_error("A0", a0.k, a0.omega, cl, ct, PLATE.thickness, n_check=2)
    assert err <= checks.ORACLE_RTOL
    shifted = checks.oracle_error("A0", a0.k, a0.omega * (1 + 1e-5), cl, ct,
                                  PLATE.thickness, n_check=2)
    assert shifted > checks.ORACLE_RTOL
    assert not checks.curve_sane(a0.k, -a0.c_p)


def test_pick_check_flags_off_ridge_picks():
    a0, _ = trace_curves(GFRP, PLATE, np.geomspace(100.0, 2000.0, 50), order=10,
                         method="dense")
    dk = 13.6
    on_ridge = [("A0", om, k) for om, k in zip(a0.omega[5:-5], a0.k[5:-5])]
    assert checks.a0_pick_error_bins(on_ridge, a0.omega, a0.k, dk) < 1e-6
    off_ridge = [(m, om, k + 3 * dk) for m, om, k in on_ridge]
    err = checks.a0_pick_error_bins(off_ridge, a0.omega, a0.k, dk)
    assert err > checks.MAX_PICK_ERROR_BINS
    assert checks.a0_pick_error_bins([("S0", 1.0, 1.0)], a0.omega, a0.k, dk) == math.inf


def test_summarize_checks_flag_corrupted_outputs(tmp_path):
    rng = np.random.default_rng(2)
    mean = np.array([GFRP.c11, GFRP.c13, GFRP.c33, GFRP.c55, GFRP.rho, 3e3])
    samples = mean * (1 + 0.005 * rng.standard_normal((150, 6)))
    chain = Chain(samples=samples, log_posts=np.zeros(150),
                  accepted=np.ones(150, dtype=bool), warmup_len=30, seed=0)
    write_summary(tmp_path / "summary.csv", summarize(chain))
    write_ensemble(tmp_path / "ensemble.csv",
                   curve_ensemble(chain, PLATE, np.geomspace(300.0, 3000.0, 6),
                                  max_solves=3))
    draws = chain.post_warmup
    assert checks.summary_problem(tmp_path / "summary.csv", draws) is None
    ensemble = checks.read_ensemble(tmp_path / "ensemble.csv")
    assert len(ensemble["A0"]) == 3
    assert checks.ensemble_problem(ensemble, draws, PLATE.thickness, 10) is None

    text = (tmp_path / "summary.csv").read_text().splitlines()
    name, mean_c11, *rest = text[2].split(",")
    text[2] = ",".join([name, repr(float(mean_c11) * (1 + 1e-6)), *rest])
    (tmp_path / "summary.csv").write_text("\n".join(text) + "\n")
    assert checks.summary_problem(tmp_path / "summary.csv", draws) is not None

    sid = min(ensemble["A0"])
    k, om = ensemble["A0"][sid]
    ensemble["A0"][sid] = (k, om * (1 + 1e-6))
    assert checks.ensemble_problem(ensemble, draws, PLATE.thickness, 10) is not None
    ensemble["A0"][sid] = (k, -om)
    assert checks.ensemble_problem(ensemble, draws, PLATE.thickness, 10) is not None


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer.a"):
        with tracer.span("inner.b"):
            sum(range(10000))
    own = tracer.self_by_name()
    outer = tracer.durations("outer.a")[0]
    inner = tracer.durations("inner.b")[0]
    assert own["inner.b"] == inner
    assert own["outer.a"] == pytest.approx(outer - inner)
    assert sum(own.values()) == pytest.approx(tracer.top_level_s())


def test_wrap_records_at_the_lookup_and_unwraps():
    class Module:
        @staticmethod
        def f(x):
            return x + 1

    tracer = Tracer()
    seen = []
    tracer.wrap(Module, "f", "mod.f", observe=lambda a, k, r: seen.append(r))
    assert Module.f(1) == 2 and seen == [2]
    assert len(tracer.durations("mod.f")) == 1
    tracer.unwrap_all()
    Module.f(1)
    assert len(tracer.durations("mod.f")) == 1


def test_tail_has_ten_samples_beyond():
    t = tail(range(1, 101))
    assert (t["percentile"], t["value"], t["beyond"]) == (90, 90, 10)
    assert tail([1.0, 2.0])["percentile"] == 100
