"""curves: `lambid solve` then `lambid sensitivity` at the CLI defaults
(order 14, 200 points, power eigensolver) for three materials.

The power path is the configured default, so its cost is measured as users
pay it.  Few materials share a grid, so per-grid precomputation pays off
less here than in identify.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from lambid import dispersion

import checks
from workloads import Workload, table_build_s, trace_dispersion


class Curves(Workload):
    def setup(self) -> None:
        inp = self.inputs
        self.plate = dispersion.PlateSpec(inp["thickness_mm"] * 1e-3)
        self.materials = {name: dispersion.ElasticConstants(*values)
                          for name, values in inp["materials"].items()}
        self.order = inp["order"]
        self.table_build_s = table_build_s(
            dispersion, self.materials["gfrp"], self.order)
        self.outputs = {}  # round -> {material: (a0, s0)}

    def run_round(self, r: int) -> dict:
        inp = self.inputs
        kw = dict(order=self.order, method=inp["eig_method"])
        points, post_s, traced = 0, 0.0, {}
        t_round = perf_counter()
        for name, theta in self.materials.items():
            grid, _ = self.op(dispersion.k_grid_for_fh_band, theta, self.plate,
                              *inp["band"], n_points=inp["n_points"],
                              order=self.order)
            if grid is None:
                continue
            curves, _ = self.op(dispersion.trace_curves, theta, self.plate,
                                grid, **kw)
            sweep, dt = self.op(dispersion.sensitivity_sweep, theta, self.plate,
                                grid, inp["perturbation"], **kw)
            post_s += dt
            if curves is not None:
                traced[name] = curves
                points += curves[0].k.size
            if sweep is not None:
                # the baseline plus a minus and a plus trace per parameter
                points += sum(res.plus[0].k.size + res.minus[0].k.size
                              for res in sweep.values())
                points += next(iter(sweep.values())).baseline[0].k.size
        self.outputs[r] = traced
        return {"work": points, "work_s": perf_counter() - t_round,
                "post_s": [post_s]}

    def check(self) -> None:
        first = min(self.outputs)
        for r, traced in self.outputs.items():
            for name, (a0, s0) in traced.items():
                if not (checks.curve_sane(a0.k, a0.c_p) and checks.curve_sane(s0.k, s0.c_p)):
                    self.check_failed(f"round {r} {name}: curve not finite and positive")
                ref = self.outputs[first].get(name)
                if ref is not None and not (np.array_equal(a0.omega, ref[0].omega)
                                            and np.array_equal(s0.omega, ref[1].omega)):
                    self.check_failed(f"round {r} {name}: not bit-identical to round {first}")
        iso = self.outputs[first].get("isotropic")
        if iso is None:
            return
        theta = self.materials["isotropic"]
        cl, ct = math.sqrt(theta.c11 / theta.rho), math.sqrt(theta.c55 / theta.rho)
        for curve in iso:
            err = checks.oracle_error(curve.mode_label.value, curve.k, curve.omega,
                                      cl, ct, self.plate.thickness)
            if not err <= checks.ORACLE_RTOL:
                self.check_failed(f"isotropic {curve.mode_label.value}: "
                                  f"c_p off the Rayleigh-Lamb root by {err:.2e}")

    def trace(self, tracer) -> None:
        trace_dispersion(tracer, dispersion, self.stats)
