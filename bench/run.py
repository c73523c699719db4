"""Benchmark entry point.

Usage (from the repository root):
    python3 bench/run.py --workload identify|curves|signal --seed N
                         --seconds S --trace 0|1

1. bench/gen.py makes the workload's inputs from the seed, in its own
   process.
2. bench/measure.py runs the workload for S seconds in a fresh,
   single-threaded process, then checks the outputs.
3. bench/measure.py --setup-only runs SETUP_PROBES more times in fresh
   processes, half before and half after step 2; each reports its set-up
   time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The full record (environment, rounds,
tails, set-up samples) is written to .bench_out/, and with --trace 1 the
spans too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import median

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2


def declared_units(key: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares under key."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def source_record() -> dict:
    """Git commit and dirty flag when the checkout is a git work tree, and
    always a digest of the program's source files."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    rec = {"src_sha256": digest.hexdigest(), "git_commit": None, "git_dirty": None}

    def git(*argv):
        # the ceiling keeps git from searching directories above the checkout
        return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            rec["git_commit"] = git("rev-parse", "HEAD").stdout.strip() or None
            rec["git_dirty"] = bool(git("status", "--porcelain", "--", "src").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return rec


def run_child(argv, env, timeout) -> None:
    """Run a child to completion; its output goes to our stderr."""
    subprocess.run([sys.executable, *argv], env=env, timeout=timeout, check=True,
                   stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("identify", "curves", "signal"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "lambid" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'lambid'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    result_file = work / "result.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                          if os.environ.get("PYTHONPATH") else [])))
    measure = [str(BENCH / "measure.py"), "--workload", args.workload,
               "--inputs", str(work), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", str(result_file)]
    try:
        run_child([str(BENCH / "gen.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--out", str(work)], env, 150)
        setups = []

        def probe():
            run_child(measure + ["--setup-only"], env, 60)
            setups.append(json.loads(result_file.read_text())["setup"])

        # probes before and after the measured process, so the set-up
        # samples span the run rather than one moment of the machine
        for _ in range(SETUP_PROBES // 2):
            probe()
        run_child(measure + ["--spans", str(OUT / f"spans-{tag}.json.gz")],
                  env, 3 * args.seconds + 120)
        res = json.loads(result_file.read_text())
        setups.append(res["setup"])
        for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
            probe()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = dict(res["layers"])
        values["setup.import_s"] = median(s["import_s"] for s in setups)
        values["legendre.table_build_s"] = median(s["table_build_s"] for s in setups)
        table = declared_units("per_layer")
    else:
        values = {"ops_per_s": res["ops_per_s"], "post_s": res["post_s"],
                  "setup_s": median(s["setup_s"] for s in setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        table = declared_units("end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "setup_samples": setups,
              "source": source_record(), **{k: res[k] for k in
                                            ("env", "rounds", "round_s", "attempted",
                                             "failed", "tails") if k in res}}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"{tag}: {len(res['rounds'])} rounds in {res['round_s']:.1f} s, "
          f"{res['attempted']} operations, {res['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    for name, t in res.get("tails", {}).items():
        print(f"  {name} tail = p{t['percentile']} over {t['n']} samples "
              f"({t['beyond']} beyond)")
    print("env " + json.dumps({"seed": args.seed, **record["source"], **res["env"]}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
