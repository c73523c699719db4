import numpy as np
import pytest

from lambid.analysis import (CurveEnsemble, PosteriorSummary, curve_ensemble,
                             kde_bivariate, mc_standard_error,
                             read_density_grid, split_half_diagnostic,
                             summarize, write_density_grid, write_ensemble,
                             write_summary)
from lambid.bayes import PARAM_NAMES, Chain
from lambid.dispersion import k_grid_for_fh_band, trace_curves


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


class TestBivariateKde:
    def test_density_integrates_to_one(self, rng):
        chain = _gaussian_chain(rng)
        x, y, dens = kde_bivariate(chain, ("c55", "rho"))
        total = np.trapezoid(np.trapezoid(dens, x, axis=1), y)
        assert total == pytest.approx(1.0, abs=0.01)

    def test_zero_variance_names_parameter(self, rng):
        samples = _gaussian_chain(rng).samples.copy()
        samples[:, 4] = 1200.0
        with pytest.raises(ValueError, match="rho"):
            kde_bivariate(_chain_from(samples), ("c55", "rho"))


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

    def test_split_half_on_iid_chain(self, rng):
        chain = _gaussian_chain(rng)
        diag = split_half_diagnostic(chain)
        assert set(diag) == set(PARAM_NAMES)
        # iid halves agree within a few MCSE
        assert all(v < 5.0 for v in diag.values())


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

    def test_density_grid_round_trip(self, rng, tmp_path):
        chain = _gaussian_chain(rng)
        x, y, dens = kde_bivariate(chain, ("c55", "rho"), grid_size=32)
        prefix = tmp_path / "kde_c55_rho"
        write_density_grid(prefix, x, y, dens)
        bx, by, bd = read_density_grid(prefix)
        assert np.allclose(bx, x) and np.allclose(by, y)
        assert np.allclose(bd, dens)
