import math

import numpy as np
import pytest
from scipy import stats

from lambid.bayes import (PARAM_NAMES, Chain, GammaPrior, InitializationError,
                          NormalPrior, ParamVector, PriorSpec, SamplerConfig,
                          default_priors, laplace_init, log_likelihood,
                          log_posterior, log_prior, mcmc_sample, read_chain,
                          write_chain)
from lambid.dispersion import PlateSpec, k_grid_for_fh_band, trace_curves
from lambid.wavefield import ObservationSet


@pytest.fixture
def synth_obs(gfrp, plate):
    grid = k_grid_for_fh_band(gfrp, plate, 0.3, 3.0, n_points=10, order=10)
    a0, s0 = trace_curves(gfrp, plate, grid, order=10, method="dense")
    rng = np.random.default_rng(4)
    pts = []
    for curve in (a0, s0):
        for om, k in zip(curve.omega, curve.k):
            pts.append((curve.mode_label.value, om + rng.normal(0, 2e3), k))
    return ObservationSet(points=pts, band=(0.3, 3.0))


class TestParamVector:
    def test_array_round_trip(self):
        v = ParamVector(1e9, 2e9, 3e9, 4e9, 1500.0, 2e3)
        assert ParamVector.from_array(v.to_array()) == v

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ParamVector(np.nan, 2e9, 3e9, 4e9, 1500.0, 2e3)


class TestPriors:
    def test_gamma_logpdf_matches_scipy(self):
        g = GammaPrior(shape=2.0, rate=0.02)
        for x in (10.0, 100.0, 321.0):
            ref = stats.gamma.logpdf(x, a=2.0, scale=1 / 0.02)
            assert g.logpdf(x) == pytest.approx(ref, rel=1e-12)

    def test_normal_logpdf_matches_scipy(self):
        n = NormalPrior(mean=1600.0, sd=300.0)
        for x in (900.0, 1600.0, 2100.0):
            assert n.logpdf(x) == pytest.approx(
                stats.norm.logpdf(x, 1600.0, 300.0), rel=1e-12)

    def test_gamma_moments(self):
        g = GammaPrior(shape=1.5, rate=0.05)
        assert g.mean == pytest.approx(30.0)
        assert g.var == pytest.approx(600.0)

    def test_prior_scales_include_jacobian(self):
        # densities are proper over internal (Pa) units: the GPa prior value
        # must be scaled by dGPa/dPa = 1e-9
        priors = default_priors()
        theta = ParamVector(100e9, 30e9, 30e9, 60e9, 1600.0, 5e4)
        lp = log_prior(theta, priors)
        manual = (
            stats.gamma.logpdf(100.0, a=2.0, scale=50.0) + math.log(1e-9)
            + stats.gamma.logpdf(30.0, a=1.5, scale=20.0) + math.log(1e-9)
            + stats.gamma.logpdf(30.0, a=1.5, scale=20.0) + math.log(1e-9)
            + stats.gamma.logpdf(60.0, a=1.5, scale=40.0) + math.log(1e-9)
            + stats.norm.logpdf(1600.0, 1600.0, 300.0)
            + stats.gamma.logpdf(5e4, a=2.0, scale=5e4)
        )
        assert lp == pytest.approx(manual, rel=1e-10)


class TestLikelihood:
    def test_finite_at_truth(self, synth_obs, gfrp, plate):
        theta = ParamVector(gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                            2e3)
        lp = log_likelihood(synth_obs, theta, plate)
        assert np.isfinite(lp)

    def test_repeat_evaluation_identical(self, synth_obs, gfrp, plate):
        theta = ParamVector(gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                            2e3)
        a = log_likelihood(synth_obs, theta, plate)
        b = log_likelihood(synth_obs, theta, plate)
        assert a == b

    def test_sigma_nonpositive_is_rejected(self, synth_obs, gfrp, plate):
        theta = ParamVector(gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                            0.0)
        assert log_likelihood(synth_obs, theta, plate) == -np.inf

    def test_nonphysical_theta_is_rejected(self, synth_obs, plate):
        # c13 at or above sqrt(c11 c33): indefinite stiffness
        for c13 in (80e9, 1e9):
            theta = ParamVector(1e9, c13, 1e9, 1e9, 1200.0, 2e3)
            assert log_likelihood(synth_obs, theta, plate) == -np.inf

    def test_truth_beats_perturbed(self, synth_obs, gfrp, plate):
        good = ParamVector(gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                           2e3)
        bad = ParamVector(2 * gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55,
                          gfrp.rho, 2e3)
        assert log_likelihood(synth_obs, good, plate) > \
            log_likelihood(synth_obs, bad, plate)


class TestSampler:
    def test_zero_proposal_scale_constant_chain(self, synth_obs, plate):
        init = ParamVector(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 2e3)
        cfg = SamplerConfig(n_samples=200, warmup=50, seed=1, init=init,
                            proposal_scale=0.0)
        chain = mcmc_sample(synth_obs, default_priors(), plate, cfg)
        assert chain.acceptance_fraction == 1.0
        assert np.all(chain.samples == chain.samples[0])

    def test_reproducible(self, synth_obs, plate):
        init = ParamVector(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 2e3)
        cfg = SamplerConfig(n_samples=300, warmup=100, seed=11, init=init)
        a = mcmc_sample(synth_obs, default_priors(), plate, cfg)
        b = mcmc_sample(synth_obs, default_priors(), plate, cfg)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.accepted, b.accepted)

    def test_accepted_states_have_finite_posterior(self, synth_obs, plate):
        init = ParamVector(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 2e3)
        cfg = SamplerConfig(n_samples=400, warmup=100, seed=2, init=init,
                            proposal_scale=0.3)
        chain = mcmc_sample(synth_obs, default_priors(), plate, cfg)
        assert np.all(np.isfinite(chain.log_posts))

    def test_bad_init_raises(self, synth_obs, plate):
        init = ParamVector(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, -1.0)
        cfg = SamplerConfig(n_samples=10, warmup=0, seed=1, init=init)
        with pytest.raises(InitializationError):
            mcmc_sample(synth_obs, default_priors(), plate, cfg)

    def test_prior_only_toy_gaussian_moments(self, plate):
        # closed-form Gaussian target: all-normal "priors", no likelihood;
        # chain moments must match analytic moments within 3 MCSE
        priors = PriorSpec(
            priors={
                "c11": NormalPrior(5.0, 1.0), "c13": NormalPrior(4.0, 1.0),
                "c33": NormalPrior(3.0, 1.0), "c55": NormalPrior(2.0, 1.0),
                "rho": NormalPrior(10.0, 2.0), "sigma": NormalPrior(7.0, 0.5),
            },
            scales={n: 1.0 for n in PARAM_NAMES},
        )
        cfg = SamplerConfig(n_samples=30_000, warmup=4_000, seed=5,
                            proposal_scale=1.0)
        chain = mcmc_sample(None, priors, plate, cfg)
        from lambid.analysis import mc_standard_error
        for name, mu in [("c11", 5.0), ("rho", 10.0), ("sigma", 7.0)]:
            x = chain.param(name)
            se = mc_standard_error(x)
            assert abs(x.mean() - mu) < 3 * se

    def test_acceptance_warning_attached(self, synth_obs, plate):
        init = ParamVector(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 2e3)
        # enormous frozen steps: nearly everything is rejected post-warmup
        cfg = SamplerConfig(n_samples=300, warmup=0, seed=1, init=init,
                            proposal_scale=500.0)
        chain = mcmc_sample(synth_obs, default_priors(), plate, cfg)
        if chain.acceptance_fraction < 0.05:
            assert any("acceptance" in w for w in chain.warnings)


class TestLaplaceInit:
    def test_finds_ridge_mode(self, synth_obs, plate):
        init, cov = laplace_init(synth_obs, default_priors(), plate)
        assert np.isfinite(log_posterior(synth_obs, init, default_priors(),
                                         plate))
        sds = np.sqrt(np.diag(cov))
        assert np.all(sds > 0)
        # the C/rho ratios at the mode match the generating ratios: the
        # forward model only sees scale-free combinations
        arr = init.to_array()
        assert arr[0] / arr[4] == pytest.approx(28.1e9 / 1200.0, rel=0.05)
        assert arr[3] / arr[4] == pytest.approx(8.2e9 / 1200.0, rel=0.05)


class TestChainIO:
    def test_round_trip(self, synth_obs, plate, tmp_path):
        init = ParamVector(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 2e3)
        cfg = SamplerConfig(n_samples=150, warmup=50, seed=9, init=init)
        chain = mcmc_sample(synth_obs, default_priors(), plate, cfg)
        path = tmp_path / "chain.csv"
        write_chain(path, chain)
        back = read_chain(path)
        assert np.allclose(back.samples, chain.samples, rtol=1e-10)
        assert back.warmup_len == chain.warmup_len
        assert back.seed == chain.seed
        assert np.array_equal(back.accepted, chain.accepted)
