"""signal: `lambid synth` then `lambid extract`, in-process through
lambid.cli.main, on the default 256 x 4096 geometry.

Clean and noisy fields alternate (one of each per round), each with its own
seed.  Wavefield work (FFT, ridge picking, ~8 MB .npy I/O) and the CLI's
config and file handling dominate; a 300-point dense trace inside synth is
the dispersion share.
"""

from __future__ import annotations

from contextlib import nullcontext

from lambid import cli, config, dispersion, wavefield

import checks
from workloads import Workload, table_build_s, trace_dispersion


class Signal(Workload):
    def setup(self) -> None:
        inp = self.inputs
        cfg = config.load_config(self.dir / inp["configs"][0])
        self.plate = cfg.require_plate()
        self.theta = cfg.require_material()
        self.table_build_s = table_build_s(
            dispersion, self.theta, cfg.sampler["forward_order"])
        self.out = self.dir / "out"
        self.outputs = {}  # field index -> (exit codes, observation points)

    def field(self, i: int) -> tuple[float, float]:
        """One field from config to observation CSV; (synth_s, extract_s)."""
        cfg = str(self.dir / self.inputs["configs"][i % len(self.inputs["configs"])])
        codes, times = [], []
        for command in ("synth", "extract"):
            argv = [command, "--config", cfg, "--out", str(self.out)]
            with (self.tracer.span(f"cli.{command}") if self.tracer
                  else nullcontext()):
                code, dt = self.op(cli.main, argv)
            codes.append(code)
            times.append(dt)
        points = None
        if codes == [0, 0]:
            points = wavefield.read_observations(
                self.out / "observations.csv").points
        self.outputs[i] = (codes, points)
        return times[0], times[1]

    def run_round(self, r: int) -> dict:
        synth_s, extract_s = zip(self.field(2 * r), self.field(2 * r + 1))
        return {"work": 2, "work_s": sum(synth_s) + sum(extract_s),
                "post_s": [sum(extract_s)]}

    def check(self) -> None:
        band = self.inputs["band"]
        grid = dispersion.k_grid_for_fh_band(self.theta, self.plate, *band,
                                             n_points=400, order=12)
        a0, _ = dispersion.trace_curves(self.theta, self.plate, grid, order=12,
                                        method="dense")
        for i, (codes, points) in sorted(self.outputs.items()):
            if codes != [0, 0]:
                if None not in codes:  # a raised call is already counted
                    self.check_failed(f"field {i}: exit codes {codes}")
                continue
            err = checks.a0_pick_error_bins(points, a0.omega, a0.k,
                                            self.inputs["dk_bin"])
            self.stats["picks"].append(len(points))
            self.stats["k_err_bins"].append(err)
            if not err <= checks.MAX_PICK_ERROR_BINS:
                self.check_failed(f"field {i}: median A0 pick error {err:.2f} bins")

    def trace(self, tracer) -> None:
        stats = self.stats

        def bytes_moved(args, kwargs, result):
            # computed, not measured: input field, full complex spectrum and
            # the magnitude quadrant returned
            n = args[0].samples.size
            stats["two_dft_bytes"].append(8 * n + 16 * n + 8 * result.magnitude.size)

        tracer.wrap(wavefield, "synth_wavefield", "wavefield.synth_wavefield")
        tracer.wrap(wavefield, "two_dft", "wavefield.two_dft", observe=bytes_moved)
        tracer.wrap(wavefield, "normalize_energy", "wavefield.normalize_energy")
        tracer.wrap(wavefield, "ridge_pick", "wavefield.ridge_pick")
        for module in (wavefield, dispersion):
            trace_dispersion(tracer, module, stats)
