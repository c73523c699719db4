"""The measured process: set-up, timed rounds, then output checks.

Usage: python3 bench/measure.py --workload NAME --inputs DIR --seconds S
           --trace 0|1 --result FILE [--spans FILE] [--setup-only]

Started by run.py in a fresh single-threaded interpreter.  Set-up time runs
from the top of this file, before the program is imported, to the first
timed operation.  The result, a JSON document, goes to --result.
"""

from __future__ import annotations

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, median, tail  # noqa: E402

WORKLOADS = {"identify": "Identify", "curves": "Curves", "signal": "Signal"}
MIN_ROUNDS = 2
OVERRUN = 1.25  # do not start a round expected to end past this share of --seconds
REPLICA_SHARE = 0.25  # traced runs also run this share of their rounds untraced


def run_rounds(wl, seconds: float, tracer: Tracer | None = None):
    """Closed loop of rounds until `seconds` of round time have passed.

    With a tracer every round runs traced, and each round that starts in the
    first REPLICA_SHARE of the time also runs untraced, just before or just
    after (alternately), so the pair sees the same machine state.  Returns
    (round records, traced or untraced round time, tracing overhead).
    """
    rounds = []
    spent = 0.0
    paired = [0.0, 0.0]  # untraced, traced seconds of the paired rounds
    while True:
        r = len(rounds)
        replay = tracer is not None and spent < REPLICA_SHARE * seconds
        if replay and r % 2 == 0:
            paired[0] += timed_round(wl, r, None)[1]
        rec, dt = timed_round(wl, r, tracer)
        if replay:
            paired[1] += dt
            if r % 2 == 1:
                paired[0] += timed_round(wl, r, None)[1]
        rec["round_s"] = dt
        rounds.append(rec)
        spent += dt
        if len(rounds) >= MIN_ROUNDS and (spent >= seconds
                                          or spent + dt > OVERRUN * seconds):
            break
    overhead = paired[1] / paired[0] - 1 if paired[0] else 0.0
    return rounds, spent, overhead


def timed_round(wl, r: int, tracer: Tracer | None):
    if tracer is not None:
        wl.trace(tracer)
        wl.tracer = tracer
        tracer.round = r
    t = perf_counter()
    try:
        rec = wl.run_round(r)
    finally:
        dt = perf_counter() - t
        if tracer is not None:
            tracer.unwrap_all()
            wl.tracer = None
    return rec, dt


def layer_metrics(tracer: Tracer, stats: dict, n_rounds: int, round_s: float,
                  overhead: float) -> tuple[dict, dict]:
    """Per-layer values (0 where the workload leaves a layer unused), and
    the tails with their percentile and sample counts.  Counts and self
    times are per round, so they do not grow when more rounds fit in the
    run."""
    d = tracer.durations
    own = tracer.self_by_name()

    def layer_self(prefix):
        return sum(t for name, t in own.items()
                   if name.startswith(prefix + ".")) / n_rounds

    def per_round(count):
        return count / n_rounds

    def ratio(a, b):
        return a / b if b else 0.0

    tails = {"dispersion.solve_us": tail(d("dispersion.smallest_physical_cp")),
             "bayes.loglik_ms": tail(d("bayes.log_likelihood"))}
    chain_s = median(d("bayes.mcmc_sample"))
    ess = median(stats["ess_min"])
    layers = {
        "dispersion.solves": per_round(len(d("dispersion.smallest_physical_cp"))),
        "dispersion.solve_us.p50": median(d("dispersion.smallest_physical_cp")) * 1e6,
        "dispersion.solve_us.tail": tails["dispersion.solve_us"]["value"] * 1e6,
        "dispersion.eigvalsh_us.p50": median(d("dispersion.eigvalsh")) * 1e6,
        "dispersion.solve_self_us.p50": median(
            tracer.self_times_of("dispersion.smallest_physical_cp")) * 1e6,
        "dispersion.assemble_us.p50": (median(d("dispersion.assemble_system"))
                                       + median(d("dispersion.realify"))) * 1e6,
        "dispersion.trace_ms.p50": median(d("dispersion.trace_curves")) * 1e3,
        "dispersion.kgrid_ms.p50": median(d("dispersion.k_grid_for_fh_band")) * 1e3,
        "dispersion.excluded_points": per_round(stats["grid_points"]
                                                - stats["kept_points"]),
        "dispersion.kept_fraction": ratio(stats["kept_points"], stats["grid_points"]),
        "dispersion.self_s": layer_self("dispersion"),
        "bayes.posterior_evals": per_round(len(d("bayes.log_posterior"))),
        "bayes.loglik_ms.p50": median(d("bayes.log_likelihood")) * 1e3,
        "bayes.loglik_ms.tail": tails["bayes.loglik_ms"]["value"] * 1e3,
        "bayes.finite_fraction": ratio(stats["loglik_finite"], stats["loglik_calls"]),
        "bayes.acceptance": median(stats["acceptance"]),
        "bayes.sampler_self_s": per_round(own.get("bayes.mcmc_sample", 0.0)),
        "bayes.self_s": layer_self("bayes"),
        "bayes.ess_min": ess,
        "bayes.ess_per_s": ratio(ess, chain_s),
        "wavefield.synth_ms.p50": median(d("wavefield.synth_wavefield")) * 1e3,
        "wavefield.two_dft_ms.p50": median(d("wavefield.two_dft")) * 1e3,
        "wavefield.normalize_ms.p50": median(d("wavefield.normalize_energy")) * 1e3,
        "wavefield.ridge_pick_ms.p50": median(d("wavefield.ridge_pick")) * 1e3,
        "wavefield.picks": median(stats["picks"]),
        "wavefield.k_err_bins": median(stats["k_err_bins"]),
        "wavefield.two_dft_mb": median(stats["two_dft_bytes"]) / 1e6,
        "wavefield.self_s": layer_self("wavefield"),
        "analysis.summarize_ms": median(d("analysis.summarize")) * 1e3,
        "analysis.ensemble_s": median(d("analysis.curve_ensemble")),
        "analysis.ensemble_members": median(stats["ensemble_members"]),
        "analysis.ensemble_skipped": median(stats["ensemble_skipped"]),
        "analysis.self_s": layer_self("analysis"),
        "cli.synth_s": median(d("cli.synth")),
        "cli.extract_s": median(d("cli.extract")),
        "cli.self_s": layer_self("cli"),
        "trace.overhead": overhead,
        "trace.accounted_fraction": sum(own.values()) / round_s,
    }
    return layers, tails


def blas_record() -> list:
    """Each OpenBLAS library loaded in this process: path, config, threads."""
    libs = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        rec = {"path": os.path.basename(path)}
        for key, names, restype in (
                ("threads", ("scipy_openblas_get_num_threads64_",
                             "scipy_openblas_get_num_threads",
                             "openblas_get_num_threads64_", "openblas_get_num_threads"),
                 ctypes.c_int),
                ("config", ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                            "openblas_get_config64_", "openblas_get_config"),
                 ctypes.c_char_p)):
            for name in names:
                if hasattr(lib, name):
                    fn = getattr(lib, name)
                    fn.restype = restype
                    value = fn()
                    rec[key] = value.decode() if isinstance(value, bytes) else value
                    break
        libs.append(rec)
    return libs


def machine_ref_us() -> float:
    """Median time of a fixed 22 x 22 eigvalsh, the size the identify
    likelihood solves: tells machine-speed drift apart from program change."""
    import numpy

    a = numpy.random.default_rng(0).standard_normal((22, 22))
    a = a + a.T
    times = []
    for _ in range(200):
        t = perf_counter()
        for _ in range(20):
            numpy.linalg.eigvalsh(a)
        times.append((perf_counter() - t) / 20)
    return median(times) * 1e6


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": blas_record(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "machine_ref_us": machine_ref_us(),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    inputs_dir = Path(args.inputs)
    inputs = json.loads((inputs_dir / "inputs.json").read_text())
    module = importlib.import_module(f"workloads.{args.workload}")
    import_s = perf_counter() - T0
    wl = getattr(module, WORKLOADS[args.workload])(inputs, inputs_dir)
    wl.setup()
    result = {"setup": {"setup_s": perf_counter() - T0, "import_s": import_s,
                        "table_build_s": wl.table_build_s}}
    if not args.setup_only:
        result.update(measure(wl, args))
    Path(args.result).write_text(json.dumps(result))


def measure(wl, args) -> dict:
    tracer = Tracer() if args.trace else None
    rounds, spent, overhead = run_rounds(wl, args.seconds, tracer)
    out = {"rounds": rounds, "round_s": spent,
           "ops_per_s": sum(rec["work"] for rec in rounds)
           / sum(rec["work_s"] for rec in rounds),
           "post_s": median([x for rec in rounds for x in rec["post_s"]])}
    if tracer is None:
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.check()
    if tracer is not None:
        out["layers"], out["tails"] = layer_metrics(tracer, wl.stats, len(rounds),
                                                    spent, overhead)
        if args.spans:
            tracer.write(args.spans)
    out.update(attempted=wl.attempted, failed=wl.failed, env=environment())
    return out


if __name__ == "__main__":
    main()
