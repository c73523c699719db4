import math

import numpy as np
import pytest
from scipy import stats

from lambid.bayes import (PARAM_NAMES, Chain, GammaPrior, InitializationError,
                          NormalPrior, ParamVector, PriorSpec, SamplerConfig,
                          default_priors, log_likelihood, log_prior,
                          mcmc_sample, read_chain, write_chain)
import oracles
from conftest import one_negative_at
from lambid.dispersion import (PlateSpec, k_grid_for_fh_band,
                               smallest_physical_cp, trace_curves)
from lambid.wavefield import ObservationSet


def per_k_log_likelihood(obs, theta, plate, order):
    """The likelihood as a loop over unique k of per-k assemblies."""
    cps = {}
    for k in sorted({k for _, _, k in obs.points}):
        a_hat = oracles.per_k_system(theta.material(), k * plate.thickness, order)
        cps[k] = smallest_physical_cp(a_hat, 2, method="dense")
    resid = np.array([om - cps[k][0 if mode == "A0" else 1] * k
                      for mode, om, k in obs.points])
    n = resid.size
    return (-n * math.log(theta.sigma) - 0.5 * n * math.log(2 * math.pi)
            - 0.5 * float(resid @ resid) / theta.sigma ** 2)


EIGVALSH = np.linalg.eigvalsh


def half_pair_obs(obs):
    """A0 at the even grid indices, S0 at the odd ones, and the first A0
    point once more with a shifted omega."""
    a0 = [p for p in obs.points if p[0] == "A0"][0::2]
    s0 = [p for p in obs.points if p[0] == "S0"][1::2]
    extra = (a0[0][0], a0[0][1] + 1e3, a0[0][2])
    return ObservationSet(points=a0 + s0 + [extra], band=obs.band)


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

    def test_matches_per_k_reference(self, synth_obs, gfrp, plate):
        # the A0 eigenvalue at the smallest kh is ~1e-7 of the spectrum
        # norm, so any two roundings of the system move the likelihood by
        # ~1e-11 relative (this per-k loop and the complex-block reference
        # differ by 1.8e-11 here); 1e-9 is the benchmark's check on it
        rng = np.random.default_rng(8)
        truth = np.array([gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho])
        for i in range(20):
            scale = np.exp(rng.normal(0.0, 0.01, 5)) if i else 1.0
            theta = ParamVector(*(truth * scale), 2e3)
            ref = per_k_log_likelihood(synth_obs, theta, plate, 10)
            got = log_likelihood(synth_obs, theta, plate, order=10)
            assert got == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_rejected_when_a_k_lacks_two_branches(self, synth_obs, gfrp,
                                                  plate, monkeypatch):
        theta = ParamVector(gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                            2e3)
        assert np.isfinite(log_likelihood(synth_obs, theta, plate))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            one_negative_at(lambda n: [n - 1]))
        assert log_likelihood(synth_obs, theta, plate) == -np.inf

    def test_solves_one_block_per_observed_pair(self, synth_obs, gfrp, plate,
                                                monkeypatch):
        # A0 at every other grid k, S0 at the rest and one A0 point twice:
        # ten distinct (mode, k) pairs, one parity block each, one solve
        obs = half_pair_obs(synth_obs)
        assert len(obs) == 11 and obs.pair_k.size == 10
        theta = ParamVector(gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                            2e3)
        shapes = []

        def spy(a):
            shapes.append(a.shape)
            return EIGVALSH(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        got = log_likelihood(obs, theta, plate, order=10)
        assert shapes == [(10, 11, 11)]
        ref = per_k_log_likelihood(obs, theta, plate, 10)
        assert got == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_rejected_when_an_observed_pair_lacks_a_negative(
            self, synth_obs, gfrp, plate, monkeypatch):
        obs = half_pair_obs(synth_obs)
        theta = ParamVector(gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                            2e3)
        assert np.isfinite(log_likelihood(obs, theta, plate))
        for row in (0, 4, 9):  # first A0, an A0 further on, last S0
            monkeypatch.setattr(np.linalg, "eigvalsh",
                                one_negative_at(lambda n, r=row: [r]))
            assert log_likelihood(obs, theta, plate) == -np.inf

    def test_truth_beats_perturbed(self, synth_obs, gfrp, plate):
        good = ParamVector(gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                           2e3)
        bad = ParamVector(2 * gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55,
                          gfrp.rho, 2e3)
        assert log_likelihood(synth_obs, good, plate) > \
            log_likelihood(synth_obs, bad, plate)


class TestSampler:
    def test_nonpositive_proposal_scale_rejected(self, synth_obs, plate):
        # a zero step proposes the current state, which is always accepted,
        # so the chain would never move and report acceptance 1
        init = ParamVector(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 2e3)
        for scale in (0.0, -0.1, float("nan")):
            cfg = SamplerConfig(n_samples=200, warmup=50, seed=1, init=init,
                                proposal_scale=scale)
            with pytest.raises(ValueError, match="proposal_scale"):
                mcmc_sample(synth_obs, default_priors(), plate, cfg)

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


class TestChain:
    @staticmethod
    def make(samples, warmup_len):
        n = samples.shape[0]
        return Chain(samples=samples, log_posts=np.zeros(n),
                     accepted=np.ones(n, dtype=bool), warmup_len=warmup_len,
                     seed=0)

    @pytest.mark.parametrize("warmup_len", [0, 3, 10])
    def test_warmup_inside_rows_accepted(self, warmup_len):
        chain = self.make(np.ones((10, 6)), warmup_len)
        assert chain.post_warmup.shape == (10 - warmup_len, 6)

    @pytest.mark.parametrize("warmup_len", [-1, -400, 11])
    def test_warmup_outside_rows_rejected(self, warmup_len):
        with pytest.raises(ValueError, match="warmup_len"):
            self.make(np.ones((10, 6)), warmup_len)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        samples = np.ones((10, 6))
        samples[4, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            self.make(samples, 0)


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
