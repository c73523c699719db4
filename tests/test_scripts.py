"""Smoke runs of the scripts in scripts/ on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, outputs", [
    ("run_synthetic_identification.py",
     ["--n-samples", "120", "--warmup", "40", "--n-per-mode", "6"],
     ["observations.csv", "chain.csv", "summary.csv", "ensemble.csv"]),
    ("sensitivity_study.py", ["--n-points", "8", "--order", "8"],
     ["shift_summary.csv", "curves.csv"]),
    ("wavefield_round_trip.py", [],
     ["wavefield.npy", "wavefield.json", "observations.csv"]),
], ids=["synthetic_identification", "sensitivity_study", "wavefield_round_trip"])
def test_script_runs(script, args, outputs, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(out),
         *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (out / name).stat().st_size > 0, name
