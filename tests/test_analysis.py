import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lambid import analysis
from lambid.analysis import (curve_ensemble, mc_standard_error, summarize,
                             write_ensemble, write_summary)
from lambid.bayes import PARAM_NAMES, Chain, ParamVector
from lambid.dispersion import (ElasticConstants, TracingError, group_velocity,
                               k_grid_for_fh_band, trace_curves)


def _chain_from(samples, warmup=0):
    n = samples.shape[0]
    return Chain(samples=samples, log_posts=np.zeros(n),
                 accepted=np.ones(n, dtype=bool), warmup_len=warmup, seed=0)


def _gaussian_chain(rng, n=5000):
    mu = np.array([30e9, 8e9, 17e9, 8e9, 1250.0, 3e3])
    sd = np.array([2e9, 0.5e9, 1e9, 0.4e9, 60.0, 300.0])
    return _chain_from(rng.normal(mu, sd, size=(n, 6)))


class TestSummarize:
    def test_constant_chain(self):
        row = np.array([1e9, 2e9, 3e9, 4e9, 1000.0, 2e3])
        chain = _chain_from(np.tile(row, (500, 1)))
        summ = summarize(chain)
        for i, name in enumerate(PARAM_NAMES):
            assert summ[name].mean == pytest.approx(row[i])
            assert summ[name].variance == 0.0
            assert summ[name].kde_mode == pytest.approx(row[i])
            assert summ[name].ci_lo == summ[name].ci_hi == row[i]

    def test_gaussian_chain_moments(self, rng):
        chain = _gaussian_chain(rng)
        summ = summarize(chain)
        rho = summ["rho"]
        assert rho.mean == pytest.approx(1250.0, abs=5.0)
        assert np.sqrt(rho.variance) == pytest.approx(60.0, rel=0.1)
        # equal-tailed interval of a normal: mean +- 1.96 sd
        assert rho.ci_lo == pytest.approx(1250 - 1.96 * 60, abs=8.0)
        assert rho.ci_hi == pytest.approx(1250 + 1.96 * 60, abs=8.0)
        assert rho.kde_mode == pytest.approx(1250.0, abs=15.0)

    def test_too_few_samples(self):
        chain = _chain_from(np.ones((20, 6)))
        with pytest.raises(ValueError):
            summarize(chain)


class TestEnsemble:
    def test_identical_samples_identical_curves(self, gfrp, plate):
        row = np.array([gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                        2e3])
        chain = _chain_from(np.tile(row, (300, 1)))
        k = k_grid_for_fh_band(gfrp, plate, 0.4, 2.0, n_points=7, order=8)
        ens = curve_ensemble(chain, plate, k, order=8)
        a0_ref, _ = trace_curves(gfrp, plate, k, order=8, method="dense")
        assert np.allclose(ens.omega["A0"], a0_ref.omega[None, :], rtol=1e-9)
        assert ens.n_skipped == 0

    def test_indefinite_member_skipped(self, gfrp, plate):
        row = np.array([gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                        2e3])
        samples = np.tile(row, (4, 1))
        samples[1, 1] = 2.0 * np.sqrt(gfrp.c11 * gfrp.c33)  # c13^2 > c11 c33
        k = k_grid_for_fh_band(gfrp, plate, 0.4, 2.0, n_points=5, order=8)
        ens = curve_ensemble(_chain_from(samples), plate, k, order=8)
        assert ens.n_skipped == 1
        assert list(ens.sample_ids) == [0, 2, 3]

    def test_members_list_slower_branch_as_a0(self, plate):
        # A0 and S0 of this material cross between kh 3 and 4; trace_curves
        # labels past the crossing by parity, the ensemble by speed
        row = np.array([152.3e9, 86.9e9, 79.6e9, 28.5e9, 1055.0, 2e3])
        k = np.geomspace(1.0, 6.0, 12) / plate.thickness
        ens = curve_ensemble(_chain_from(np.tile(row, (120, 1))), plate, k,
                             order=12, with_cg=True)
        a0, s0 = trace_curves(ElasticConstants(*row[:5]), plate, k, order=12)
        assert np.any(a0.omega > s0.omega)
        assert np.array_equal(ens.omega["A0"][0], np.minimum(a0.omega, s0.omega))
        assert np.array_equal(ens.omega["S0"][0], np.maximum(a0.omega, s0.omega))
        assert np.array_equal(ens.c_g["A0"][0],
                              np.gradient(ens.omega["A0"][0], k, edge_order=2))

    @pytest.mark.parametrize("with_cg,max_solves", [(True, 500), (False, 15)])
    def test_matches_per_member_traces(self, gfrp, plate, rng, with_cg,
                                       max_solves):
        # near-GFRP draws, an indefinite draw, a draw with rho <= 0 and the
        # crossing material of test_members_list_slower_branch_as_a0
        row = np.array([gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                        2e3])
        samples = np.tile(row, (40, 1)) * rng.uniform(0.97, 1.03, (40, 6))
        samples[3, 1] = 2.0 * np.sqrt(samples[3, 0] * samples[3, 2])
        samples[6, 4] = -1.0
        samples[12, 4] = 0.0
        samples[9] = samples[21] = [152.3e9, 86.9e9, 79.6e9, 28.5e9, 1055.0, 2e3]
        chain = _chain_from(samples)
        k = np.geomspace(1.0, 6.0, 12) / plate.thickness

        # the ensemble as it was built member by member: trace_curves,
        # slower branch first, then group_velocity
        idx = np.arange(0, 40, max(1, math.ceil(40 / max_solves)))
        omega, c_g, kept = {"A0": [], "S0": []}, {"A0": [], "S0": []}, []
        for i in idx:
            try:
                theta = ParamVector.from_array(samples[i]).material()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    a0, s0 = trace_curves(theta, plate, k, order=12)
            except (ValueError, TracingError):
                continue
            if a0.k.size < k.size:
                continue
            slow_fast = np.sort([a0.c_p, s0.c_p], axis=0)
            for mode, curve, cp in zip(("A0", "S0"), (a0, s0), slow_fast):
                curve = group_velocity(replace(curve, c_p=cp, omega=cp * curve.k))
                omega[mode].append(curve.omega)
                c_g[mode].append(curve.c_g)
            kept.append(i)

        ens = curve_ensemble(chain, plate, k, with_cg=with_cg, order=12,
                             max_solves=max_solves)
        assert kept and len(kept) < idx.size
        assert np.array_equal(ens.sample_ids, kept)
        assert ens.n_skipped == idx.size - len(kept)
        for mode in ("A0", "S0"):
            assert np.array_equal(ens.omega[mode], omega[mode])
            if with_cg:
                assert np.array_equal(ens.c_g[mode], c_g[mode])
        assert (ens.c_g is None) == (not with_cg)

    def test_decreasing_grid_rejected_as_a_grid(self, gfrp, plate):
        row = np.array([gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                        2e3])
        k = k_grid_for_fh_band(gfrp, plate, 0.4, 2.0, n_points=5, order=8)
        with pytest.raises(ValueError, match="strictly increasing"):
            curve_ensemble(_chain_from(np.tile(row, (120, 1))), plate,
                           k[::-1], order=8)

    def test_group_velocity_on_two_points_rejected_before_solving(
            self, gfrp, plate, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the grid check")

        monkeypatch.setattr(analysis, "branch_cp", no_solve)
        row = np.array([gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                        2e3])
        with pytest.raises(ValueError, match="at least 3 points"):
            curve_ensemble(_chain_from(np.tile(row, (120, 1))), plate,
                           np.array([500.0, 900.0]), with_cg=True, order=8)

    @pytest.mark.parametrize("max_solves", [0, -3])
    def test_max_solves_below_one_rejected_before_solving(
            self, gfrp, plate, monkeypatch, max_solves):
        # 0 divided by zero, and -3 made the step 1 and solved every row
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the max_solves check")

        monkeypatch.setattr(analysis, "branch_cp", no_solve)
        row = np.array([gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                        2e3])
        with pytest.raises(ValueError, match="max_solves must be at least 1"):
            curve_ensemble(_chain_from(np.tile(row, (120, 1))), plate,
                           np.array([500.0, 700.0, 900.0]), order=8,
                           max_solves=max_solves)

    def test_bad_order_rejected_before_solving(self, gfrp, plate, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the order check")

        monkeypatch.setattr(analysis, "branch_cp", no_solve)
        row = np.array([gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                        2e3])
        with pytest.raises(ValueError, match="order must be at least 1"):
            curve_ensemble(_chain_from(np.tile(row, (120, 1))), plate,
                           np.array([500.0, 700.0, 900.0]), order=0)

    def test_thinning_caps_members(self, gfrp, plate, rng):
        row = np.array([gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                        2e3])
        samples = np.tile(row, (2000, 1)) * rng.uniform(0.995, 1.005,
                                                        (2000, 6))
        chain = _chain_from(samples)
        k = k_grid_for_fh_band(gfrp, plate, 0.4, 2.0, n_points=5, order=8)
        ens = curve_ensemble(chain, plate, k, order=8, max_solves=50)
        assert ens.size <= 50

    def test_group_velocity_members(self, gfrp, plate):
        row = np.array([gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                        2e3])
        chain = _chain_from(np.tile(row, (200, 1)))
        k = k_grid_for_fh_band(gfrp, plate, 0.4, 2.0, n_points=6, order=8)
        ens = curve_ensemble(chain, plate, k, order=8, with_cg=True)
        assert ens.c_g is not None
        assert np.all(ens.c_g["A0"] > 0)


class TestDiagnostics:
    def test_mcse_scales_like_sqrt_n(self, rng):
        x = rng.normal(0.0, 1.0, 50_000)
        se = mc_standard_error(x)
        assert se == pytest.approx(1.0 / np.sqrt(x.size), rel=0.5)

    @pytest.mark.parametrize("n", [0, 1])
    def test_mcse_needs_two_entries(self, n):
        # one entry used to warn "Mean of empty slice" and return NaN
        with pytest.raises(ValueError, match="at least 2"):
            mc_standard_error(np.ones(n))
        assert np.isfinite(mc_standard_error(np.arange(2.0)))


class TestExports:
    def test_summary_file(self, rng, tmp_path):
        summ = summarize(_gaussian_chain(rng))
        path = tmp_path / "summary.csv"
        write_summary(path, summ)
        text = path.read_text()
        assert "parameter,mean,mode,variance,ci_lo,ci_hi" in text
        assert "rho" in text

    def test_ensemble_file(self, gfrp, plate, tmp_path):
        row = np.array([gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                        2e3])
        chain = _chain_from(np.tile(row, (150, 1)))
        k = k_grid_for_fh_band(gfrp, plate, 0.4, 2.0, n_points=4, order=8)
        ens = curve_ensemble(chain, plate, k, order=8)
        path = tmp_path / "ensemble.csv"
        write_ensemble(path, ens)
        assert "A0" in path.read_text()
