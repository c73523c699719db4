"""Every public export resolves: each name in the __all__ of lambid and of
each lambid.* module is an attribute of that module, and every name a
module imports is used or exported.  No module of the package imports
scipy, and the command-line front end and every command it runs load no
scipy module."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import lambid

MODULES = ["lambid"] + [f"lambid.{info.name}"
                        for info in pkgutil.iter_modules(lambid.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate name in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_import_used_or_exported(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(), filename=module.__file__)
    bound = {alias.asname or alias.name.partition(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(bound - used - set(getattr(module, "__all__", []))) == []


def _imported_modules(tree):
    for node in ast.walk(tree):  # every level, so lazy imports count too
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_source_imports_no_scipy():
    found = {
        path.name: sorted(name for name in _imported_modules(
            ast.parse(path.read_text(), filename=str(path)))
            if name == "scipy" or name.startswith("scipy."))
        for path in sorted(Path(lambid.__file__).parent.glob("*.py"))
    }
    assert len(found) == len(MODULES)
    assert {name: mods for name, mods in found.items() if mods} == {}


def test_bayes_assembles_no_blocks_of_its_own():
    """The likelihood's blocks come from dispersion._pair_basis only: bayes
    neither imports nor looks up the grid callers' block assembly, nor the
    grid solve branch_cp that owns it."""
    path = Path(lambid.__file__).parent / "bayes.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    assert names & {"_basis", "_coefficients", "_quadratic", "branch_cp"} == set()
    assert "_pair_basis" in names


# Runs in a fresh interpreter: tests/oracles.py imports scipy into pytest's.
_NO_SCIPY_SCRIPT = """
import json, sys
from lambid import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import lambid.cli": scipy_modules()}
for command in ("solve", "synth", "extract", "identify", "summarize"):
    code = cli.main([command, "--config", sys.argv[1], "--out", sys.argv[2]])
    loaded[command] = scipy_modules() if code == 0 else f"exit {code}"
print(json.dumps(loaded))
"""


def test_cli_runs_without_scipy(tmp_path):
    config = {
        "seed": 3, "plate": {"thickness_mm": 2.0},
        "material": {"elastic": {"c11_gpa": 28.1, "c13_gpa": 7.8, "c33_gpa": 16.7,
                                 "c55_gpa": 8.2, "rho_kg_m3": 1200.0}},
        "band": {"fh_min_mhz_mm": 0.3, "fh_max_mhz_mm": 2.5, "n_points": 15},
        "solver": {"order": 8},
        "synth": {"n_x": 512, "dx_mm": 0.5, "n_t": 2048, "dt_us": 0.4,
                  "f_lo_khz": 100.0, "f_hi_khz": 800.0, "duration_ms": 0.4,
                  "noise_rms": 0.005},
        "sampler": {"n_samples": 120, "warmup": 40, "forward_order": 6},
        "ensemble": {"n_points": 10, "max_members": 10},
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config))
    src = Path(lambid.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(path),
                          str(tmp_path)], capture_output=True, text=True,
                         env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded == {step: [] for step in ("import lambid.cli", "solve", "synth",
                                            "extract", "identify", "summarize")}
