"""The three workloads.  Each module imports only the parts of the program
it drives, so importing it is part of the measured set-up.

A workload runs in rounds.  Round r always does the same work for a given
input set, so a round can be replayed (the tracing-overhead comparison) and
its outputs compared with an earlier run of the same round.
"""

from __future__ import annotations

import sys
import traceback
from time import perf_counter


class Workload:
    """Operation bookkeeping shared by the workloads.

    Subclasses provide setup(), check(), trace(tracer), which installs the
    wrappers, and run_round(r) -> {"work": units of work done, "work_s": the
    seconds they took, "post_s": [seconds of each post-processing call]}.
    """

    def __init__(self, inputs: dict, inputs_dir):
        self.inputs = inputs
        self.dir = inputs_dir
        self.attempted = 0
        self.failed = 0
        self.stats = new_counters()
        self.tracer = None  # set while a traced phase runs

    def op(self, fn, *args, **kwargs):
        """Run one operation; returns (result, seconds), result None if it raised."""
        self.attempted += 1
        t = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # any failure of the program is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            result = None
        return result, perf_counter() - t

    def check_failed(self, what: str) -> None:
        """An operation that ran produced a wrong output."""
        print(f"check failed: {what}", file=sys.stderr)
        self.failed += 1


def table_build_s(dispersion, material, order: int) -> float:
    """First minus warm assemble_system: the lazy NT-table build at order."""
    t = perf_counter()
    dispersion.assemble_system(material, 1.0, order)
    first = perf_counter() - t
    t = perf_counter()
    dispersion.assemble_system(material, 1.0, order)
    return first - (perf_counter() - t)


def new_counters() -> dict:
    """Counts and per-output values behind the per-layer metrics."""
    return {"grid_points": 0, "kept_points": 0, "loglik_calls": 0,
            "loglik_finite": 0, "picks": [], "k_err_bins": [],
            "ensemble_members": [], "ensemble_skipped": [], "acceptance": [],
            "ess_min": [], "two_dft_bytes": []}


def trace_dispersion(tracer, module, counters: dict) -> None:
    """Wrap every dispersion name that ``module`` looks up."""
    for attr in ("assemble_system", "realify", "smallest_physical_cp",
                 "k_grid_for_fh_band", "sensitivity_sweep", "group_velocity"):
        if hasattr(module, attr):
            tracer.wrap(module, attr, f"dispersion.{attr}")
    if module.__name__ == "lambid.dispersion":
        # the dense solve's eigensolver, so a solve's self time is the rest
        # of it (chiefly the symmetry test before eigvalsh)
        tracer.wrap(module.np.linalg, "eigvalsh", "dispersion.eigvalsh")
    if hasattr(module, "trace_curves"):
        def kept(args, kwargs, result):
            grid = kwargs["k_grid"] if "k_grid" in kwargs else args[2]
            counters["grid_points"] += len(grid)
            counters["kept_points"] += result[0].k.size

        tracer.wrap(module, "trace_curves", "dispersion.trace_curves",
                    observe=kept)
