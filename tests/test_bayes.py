import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from lambid.bayes import (PARAM_NAMES, Chain, GammaPrior, InitializationError,
                          NormalPrior, ParamVector, PriorSpec, SamplerConfig,
                          default_priors, log_likelihood, mcmc_sample,
                          read_chain, write_chain)
import lambid.bayes as bayes
import lambid.dispersion as dispersion
import oracles
from conftest import one_negative_at, random_constants
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

    @pytest.mark.parametrize("prior", [
        lambda: GammaPrior(shape=np.inf, rate=1.0),  # logpdf gave NaN
        lambda: GammaPrior(shape=np.nan, rate=1.0),
        lambda: GammaPrior(shape=2.0, rate=np.inf),
        lambda: NormalPrior(mean=np.nan, sd=300.0),  # a chain of NaN posteriors
        lambda: NormalPrior(mean=-np.inf, sd=300.0),
        lambda: NormalPrior(mean=1600.0, sd=np.nan),
        lambda: NormalPrior(mean=1600.0, sd=np.inf),
    ], ids=["gamma_inf_shape", "gamma_nan_shape", "gamma_inf_rate",
            "normal_nan_mean", "normal_neg_inf_mean", "normal_nan_sd",
            "normal_inf_sd"])
    def test_non_finite_parameters_rejected(self, prior):
        with pytest.raises(ValueError, match="must be positive and finite"):
            prior()

    def test_gamma_moments(self):
        g = GammaPrior(shape=1.5, rate=0.05)
        assert g.mean == pytest.approx(30.0)
        assert g.var == pytest.approx(600.0)

    def test_prior_scales_include_jacobian(self):
        # densities are proper over internal (Pa) units: the GPa prior value
        # must be scaled by dGPa/dPa = 1e-9
        priors = default_priors()
        theta = ParamVector(100e9, 30e9, 30e9, 60e9, 1600.0, 5e4)
        lp = priors.logpdf(theta.to_array())
        manual = (
            stats.gamma.logpdf(100.0, a=2.0, scale=50.0) + math.log(1e-9)
            + stats.gamma.logpdf(30.0, a=1.5, scale=20.0) + math.log(1e-9)
            + stats.gamma.logpdf(30.0, a=1.5, scale=20.0) + math.log(1e-9)
            + stats.gamma.logpdf(60.0, a=1.5, scale=40.0) + math.log(1e-9)
            + stats.norm.logpdf(1600.0, 1600.0, 300.0)
            + stats.gamma.logpdf(5e4, a=2.0, scale=5e4)
        )
        assert lp == pytest.approx(manual, rel=1e-10)


def all_normal_priors():
    return PriorSpec(priors={
        "c11": NormalPrior(5.0, 1.0), "c13": NormalPrior(4.0, 1.0),
        "c33": NormalPrior(3.0, 1.0), "c55": NormalPrior(2.0, 1.0),
        "rho": NormalPrior(10.0, 2.0), "sigma": NormalPrior(7.0, 0.5),
    })


class TestPriorArray:
    """PriorSpec on the parameter array against the name-keyed prior it
    replaced (oracles.named_*), which the sampler evaluated through
    ParamVector.from_array and log_prior."""

    SPECS = {"default": default_priors, "normal": all_normal_priors}

    @pytest.mark.parametrize("spec", SPECS)
    def test_logpdf_equals_name_keyed_sum(self, spec):
        priors = self.SPECS[spec]()
        rng = np.random.default_rng(23)
        for _ in range(1000):
            # prior draws, stretched and now and then negated, so that some
            # entries leave a Gamma prior's support
            x = oracles.named_sample(priors, rng) * rng.lognormal(0.0, 1.0, 6)
            x *= np.where(rng.uniform(size=6) < 0.05, -1.0, 1.0)
            assert priors.logpdf(x) == oracles.named_log_prior(x, priors)

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("bad", [0.0, -3.0, np.inf, -np.inf, np.nan])
    def test_entry_outside_support_or_not_finite(self, spec, bad):
        priors = self.SPECS[spec]()
        x0 = oracles.named_sample(priors, np.random.default_rng(5))
        for i, name in enumerate(PARAM_NAMES):
            x = x0.copy()
            x[i] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lp = priors.logpdf(x)
                assert lp == oracles.named_log_prior(x, priors)
            gamma = isinstance(priors.priors[name], GammaPrior)
            if gamma or not math.isfinite(bad):
                assert lp == -np.inf

    @pytest.mark.parametrize("spec", SPECS)
    def test_sample_draws_as_name_keyed_prior(self, spec):
        priors = self.SPECS[spec]()
        ours, theirs = np.random.default_rng(31), np.random.default_rng(31)
        for _ in range(50):
            x = priors.sample(ours)
            assert x.shape == (6,)
            assert np.array_equal(x, oracles.named_sample(priors, theirs))
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("spec", SPECS)
    def test_moments_equal_name_keyed_moments(self, spec):
        priors = self.SPECS[spec]()
        assert priors.mean.tolist() == [
            oracles.named_internal_mean(priors, n) for n in PARAM_NAMES]
        assert priors.var.tolist() == [
            oracles.named_internal_var(priors, n) for n in PARAM_NAMES]

    @pytest.mark.parametrize("change, message", [
        (lambda p: p.pop("sigma"), r"missing \['sigma'\], unknown \[\]"),
        (lambda p: p.update(sgima=p.pop("sigma")),
         r"missing \['sigma'\], unknown \['sgima'\]"),
        (lambda p: p.update(tau=GammaPrior(2.0, 1.0)),
         r"missing \[\], unknown \['tau'\]"),
    ], ids=["missing", "misspelt", "unknown"])
    def test_every_parameter_named_once(self, change, message):
        # a spec without sigma used to build, then fail with a bare
        # KeyError on the sampler's first draw; unknown names were ignored
        priors = dict(default_priors().priors)
        change(priors)
        with pytest.raises(ValueError, match=message):
            PriorSpec(priors=priors)


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

    def test_matches_parity_block_likelihood(self, synth_obs, gfrp, plate,
                                             rng):
        # the observed pairs' operators C_j only reorder the roundings of
        # each block's assembly
        thetas = [ParamVector(gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55, gfrp.rho,
                              2e3)]
        for _ in range(20):
            m = random_constants(rng)
            thetas.append(ParamVector(m.c11, m.c13, m.c33, m.c55, m.rho,
                                      rng.uniform(1e3, 1e5)))
        for theta in thetas:
            want = oracles.parity_block_log_likelihood(synth_obs, theta, plate, 10)
            got = log_likelihood(synth_obs, theta, plate, order=10)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_chain_blocks_match_parity_blocks(self, synth_obs, plate, rng,
                                              monkeypatch):
        post = bayes._Posterior(synth_obs, default_priors(), plate, 10)
        kh = synth_obs.pair_k * plate.thickness
        solved, solve = [], bayes._solve
        monkeypatch.setattr(bayes, "_solve", lambda q, c, blocks: (
            solved.append(blocks) or solve(q, c, blocks)))
        for _ in range(20):
            m = random_constants(rng)
            x = np.array([m.c11, m.c13, m.c33, m.c55, m.rho, 2e3])
            post.log_likelihood(x)
            blocks = solved[-1]
            want = oracles.parity_blocks(m, kh, synth_obs.pair_branch, 10)
            norm = np.abs(want).max(axis=(1, 2))
            assert np.all(np.abs(blocks - want).max(axis=(1, 2)) <= 1e-15 * norm)

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
    def test_nonpositive_proposal_scale_rejected(self):
        # a zero step proposes the current state, which is always accepted,
        # so the chain would never move and report acceptance 1
        init = ParamVector(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 2e3)
        for scale in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="proposal_scale"):
                SamplerConfig(n_samples=200, warmup=50, seed=1, init=init,
                              proposal_scale=scale)

    def test_infinite_proposal_scale_rejected(self):
        with pytest.raises(ValueError, match="proposal_scale must be positive"):
            SamplerConfig(proposal_scale=float("inf"))

    def test_negative_seed_rejected(self):
        # numpy's generators refuse these only when the chain starts, and a
        # NaN or bool seed would start a chain from a seed nobody set
        for seed in (-1, 2.5, np.float64(3.0), math.nan, True):
            with pytest.raises(ValueError,
                               match="seed must be non-negative and an integer"):
                SamplerConfig(seed=seed)
        assert SamplerConfig(seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("warmup", [-3, 2.5, "5", True])
    def test_bad_warmup_rejected_before_any_solve(self, warmup):
        # warmup=-3 used to run every step and then fail in Chain; no chain
        # can start without a config
        init = ParamVector(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 2e3)
        with pytest.raises(ValueError, match="warmup"):
            SamplerConfig(n_samples=20, warmup=warmup, seed=1, init=init)

    @pytest.mark.parametrize("n_samples", [0, -5, 2.5, "5", True])
    def test_bad_n_samples_rejected_before_any_solve(self, n_samples):
        # 2.5 and "5" used to fail with TypeError in np.empty or the
        # comparison, and True ran a one-sample chain
        init = ParamVector(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 2e3)
        with pytest.raises(ValueError, match="n_samples"):
            SamplerConfig(n_samples=n_samples, warmup=10, seed=1, init=init)

    @pytest.mark.parametrize("init", [
        [28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 2e3],
        np.array([28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 2e3]),
        {"c11": 28.1e9}], ids=["list", "array", "dict"])
    def test_init_that_is_no_param_vector_rejected(self, init):
        # a list used to build, then fail with AttributeError in mcmc_sample
        with pytest.raises(ValueError, match="init must be a ParamVector"):
            SamplerConfig(init=init)

    @pytest.mark.parametrize("order", [0, 2.5])
    def test_bad_forward_order_rejected(self, order):
        # a prior-only chain used to run with either order
        with pytest.raises(ValueError, match="forward_order must be"):
            SamplerConfig(n_samples=20, warmup=10, forward_order=order)

    def test_fields_cannot_be_assigned(self):
        # a config is checked once, when built, so it must not change after
        cfg = SamplerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_samples = 0

    def test_target_acceptance_is_a_constant(self):
        # no caller set it, so it is no field a config could get wrong
        assert len(dataclasses.fields(SamplerConfig)) == 6
        assert SamplerConfig().target_acceptance == 0.234
        with pytest.raises(TypeError):
            SamplerConfig(target_acceptance=0.5)

    @pytest.mark.parametrize("with_obs", [True, False])
    def test_one_pair_basis_per_chain(self, synth_obs, plate, monkeypatch,
                                      with_obs):
        # the chain builds the observed pairs' C_j once, its start's prior
        # draws included, and never contracts a material with the basis as
        # the grid callers (branch_cp, k_grid_for_fh_band) do
        calls = []
        pair_basis = bayes._pair_basis

        def counted(*args):
            calls.append(1)
            return pair_basis(*args)

        def coefficients(*args):
            raise AssertionError("_coefficients called")

        monkeypatch.setattr(bayes, "_pair_basis", counted)
        monkeypatch.setattr(dispersion, "_coefficients", coefficients)
        cfg = SamplerConfig(n_samples=300, warmup=100, seed=3)
        mcmc_sample(synth_obs if with_obs else None, default_priors(), plate,
                    cfg)
        assert len(calls) == with_obs

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
        # chain moments must match analytic moments within 3 MCSE.  The
        # stiffness priors are in GPa, so c11's mean is 5e9 Pa
        priors = all_normal_priors()
        cfg = SamplerConfig(n_samples=30_000, warmup=4_000, seed=5,
                            proposal_scale=1.0)
        chain = mcmc_sample(None, priors, plate, cfg)
        from lambid.analysis import mc_standard_error
        for name, mu in [("c11", 5e9), ("rho", 10.0), ("sigma", 7.0)]:
            x = chain.post_warmup[:, PARAM_NAMES.index(name)]
            se = mc_standard_error(x)
            assert abs(x.mean() - mu) < 3 * se

    def test_nonpositive_sigma_proposals_with_observations(
            self, synth_obs, plate, monkeypatch):
        # a Normal prior on sigma gives sigma <= 0 a finite prior, so such
        # proposals reach the screen; its bound takes log(sigma) and must
        # only run once the eigenvalue bounds have checked every entry > 0.
        # The chain starts 0.05 prior sd above sigma = 0
        priors = PriorSpec(priors={**default_priors().priors,
                                   "sigma": NormalPrior(2e3, 2e4)})
        cfg = SamplerConfig(n_samples=300, warmup=100, seed=7,
                            init=ParamVector(28.1e9, 7.8e9, 16.7e9, 8.2e9,
                                             1200.0, 1e3))
        sigmas = []
        log_posterior = bayes._Posterior.log_posterior

        def spy(post, x, *args):
            sigmas.append(x[5])
            return log_posterior(post, x, *args)

        with monkeypatch.context() as m, warnings.catch_warnings():
            warnings.simplefilter("error")
            m.setattr(bayes._Posterior, "log_posterior", spy)
            got = mcmc_sample(synth_obs, priors, plate, cfg)
        assert min(sigmas) <= 0
        want = oracles.plain_mcmc_sample(synth_obs, priors, plate, cfg)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.accepted.tobytes() == want.accepted.tobytes()
        assert np.all(np.abs(got.log_posts - want.log_posts)
                      <= 1e-10 * np.abs(want.log_posts))

    def test_log_posts_within_the_eigvalsh_rounding_bound(self, synth_obs,
                                                          plate):
        # with sigma 40 times below the residuals the misfit term amplifies
        # eigvalsh's own rounding past 1e-10 relative (1.58e-10 here); the
        # difference stays below sum |r| d_omega / sigma^2, with d_omega =
        # omega n eps |A| / (2 |lambda|) eigvalsh's rounding of omega
        priors = PriorSpec(priors={**default_priors().priors,
                                   "sigma": NormalPrior(2e3, 5e3)})
        cfg = SamplerConfig(n_samples=300, warmup=100, seed=7,
                            init=ParamVector(28.1e9, 7.8e9, 16.7e9, 8.2e9,
                                             1200.0, 50.0))
        got = mcmc_sample(synth_obs, priors, plate, cfg)
        want = oracles.plain_mcmc_sample(synth_obs, priors, plate, cfg)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.accepted.tobytes() == want.accepted.tobytes()
        post = bayes._Posterior(synth_obs, priors, plate, cfg.forward_order)
        eps = np.finfo(float).eps
        for x, diff in zip(got.samples, got.log_posts - want.log_posts):
            anchor = post.log_likelihood(x)[1]
            top = anchor.lam1
            omega = np.sqrt(-top)[synth_obs.pair_index] * synth_obs.k
            d_omega = omega * (post.c.shape[-1] * eps * anchor.norm
                               / (2 * -top))[synth_obs.pair_index]
            resid = np.abs(synth_obs.omega - omega)
            assert abs(diff) <= np.sum(resid * d_omega) / x[5] ** 2

    def test_acceptance_warning_attached(self, synth_obs, plate):
        init = ParamVector(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 2e3)
        # enormous frozen steps: nearly everything is rejected post-warmup
        cfg = SamplerConfig(n_samples=300, warmup=0, seed=1, init=init,
                            proposal_scale=500.0)
        chain = mcmc_sample(synth_obs, default_priors(), plate, cfg)
        if chain.acceptance_fraction < 0.05:
            assert any("acceptance" in w for w in chain.warnings)


class TestEarlyRejection:
    """With observations, mcmc_sample rejects most proposals from a proved
    upper bound on their log posterior (the floor of
    bayes._Posterior.log_posterior) and certifies the rest by solves, so it
    must give the samples and accept flags of evaluating every proposal by
    eigvalsh."""

    INIT = ParamVector(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0, 2e3)

    @staticmethod
    def anchor_at(post, x):
        """Make the anchor of x's exact likelihood post's anchor, as
        mcmc_sample does on acceptance; False where it gave none."""
        post.anchor = post.log_likelihood(x)[1]
        return post.anchor is not None

    @staticmethod
    def solves(monkeypatch):
        """A list that gains an entry at every bayes._solve call."""
        calls, solve = [], bayes._solve
        monkeypatch.setattr(bayes, "_solve",
                            lambda *args: calls.append(1) or solve(*args))
        return calls

    @staticmethod
    def blocks(post, y):
        """Every observed pair's block at y."""
        return ((y[:4] / y[4]) @ post.c.reshape(4, -1)).reshape(
            post.c.shape[1:])

    def proposals(self, post, priors):
        """(rel, y): post anchored at 40 states near INIT, every fourth a
        prior draw, and from each a proposal y of each relative step size
        rel from 1e-4 to 0.3."""
        rng = np.random.default_rng(17)
        truth = self.INIT.to_array()
        for i in range(40):
            if i % 4:
                x = truth * np.exp(rng.normal(0.0, 0.05, 6))
            else:
                x = priors.sample(rng)
            if not self.anchor_at(post, x):
                continue
            for rel in (1e-4, 1e-3, 1e-2, 0.1, 0.3):
                yield rel, x * (1 + rel * rng.standard_normal(6))

    def test_bounds_hold_from_small_to_large_steps(self, synth_obs, plate,
                                                   monkeypatch):
        priors = default_priors()
        post = bayes._Posterior(synth_obs, priors, plate, 10)
        kh = synth_obs.pair_k * plate.thickness
        checked = 0

        def no_likelihood(*args):
            raise AssertionError("a bounded proposal was solved")

        for rel, y in self.proposals(post, priors):
            exact = bayes.log_posterior(
                synth_obs, ParamVector(*y), priors, plate, 10)
            # with the exact value as its floor the screen rejects nothing
            got, _ = post.log_posterior(y, exact)
            assert got == pytest.approx(exact, rel=1e-10, abs=0.0)
            eig = post.eigen_bounds(y)
            if rel <= 1e-2:  # small steps are always bounded
                assert eig is not None and exact > -np.inf
                with monkeypatch.context() as m:
                    m.setattr(post, "log_likelihood", no_likelihood)
                    assert post.log_posterior(y, math.inf) == (-np.inf, None)
            if eig is None:
                continue
            theta = ParamVector(*y).material()
            top = np.linalg.eigvalsh(oracles.parity_blocks(
                theta, kh, synth_obs.pair_branch, 10))[:, -1]
            assert np.all((eig[0] <= top) & (top <= eig[1]))
            checked += 1
        assert checked >= 120

    def test_certified_evaluations_match_eigh(self, synth_obs, plate,
                                              monkeypatch):
        # at kh ~0.4 A0's eigenvalue is ~5e-7 of its block's norm, where any
        # two roundings of the block move it by ~1e-9 relative, so lambda_1
        # is held to 1e-10 relative plus 1e-14 of the norm (eigvalsh errs by
        # ~n eps |A|), and v to the angle its certificate allows:
        # sin(v, e) <= |r| / (lambda_1 - lambda_2), and the certificate has
        # |r|^2 <= 1e-13 |lambda_1| (lambda_1 - lambda_2)
        priors = default_priors()
        post = bayes._Posterior(synth_obs, priors, plate, 10)
        solves = self.solves(monkeypatch)
        certified = 0
        for _, y in self.proposals(post, priors):
            eig = post.eigen_bounds(y)
            if eig is None or eig[2] is None:
                continue
            before = len(solves)
            ll, anchor = post.log_likelihood(y, eig[2])
            if len(solves) > before:
                continue  # fell back to _solve
            v, lam1 = anchor.v, anchor.lam1
            lams, vecs = np.linalg.eigh(self.blocks(post, y))
            norm = np.abs(lams).max(axis=1)
            assert np.all(np.abs(lam1 - lams[:, -1])
                          <= 1e-10 * np.abs(lams[:, -1]) + 1e-14 * norm)
            gap = lams[:, -1] - lams[:, -2]
            e = vecs[..., -1] * np.sign((vecs[..., -1] * v).sum(axis=1))[:, None]
            angle = np.sqrt(1e-13 * np.abs(lams[:, -1]) / gap) + 1e-13 * norm / gap
            assert np.all(np.linalg.norm(v - e, axis=1) <= angle)
            want, _ = post.log_likelihood(y)
            assert ll == pytest.approx(want, rel=1e-10, abs=0.0)
            certified += 1
        assert certified >= 100

    def test_failed_certification_falls_back_to_eigvalsh(self, synth_obs,
                                                         plate, monkeypatch):
        # a singular or non-finite solve, or a pair the Kato-Temple width
        # does not certify, sends the whole evaluation to eigvalsh
        post = bayes._Posterior(synth_obs, default_priors(), plate, 10)
        x = self.INIT.to_array()
        assert self.anchor_at(post, x)
        y = x * (1 + 1e-3 * np.random.default_rng(5).standard_normal(6))
        solves = self.solves(monkeypatch)
        want, _ = post.log_likelihood(y)
        assert len(solves) == 1
        ahead = post.eigen_bounds(y)[2]
        assert post.log_likelihood(y, ahead)[1] is not None
        assert len(solves) == 1  # certified
        v, shift, lam2, norm, prod = ahead
        # a bound on lambda_2 above every top eigenvalue certifies no pair
        uncertified = (v, shift, np.zeros_like(lam2), norm, prod)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        def not_finite(a, b):
            return np.full(b.shape, np.nan)

        for solve in (None, singular, not_finite):
            if solve is not None:
                monkeypatch.setattr(np.linalg, "solve", solve)
            before = len(solves)
            got, anchor = post.log_likelihood(
                y, uncertified if solve is None else ahead)
            assert len(solves) == before + 1 and anchor.prod == 1.0
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_chained_bounds_hold(self, synth_obs, plate, monkeypatch):
        # a certified evaluation's anchor bounds lambda_2 and |A| by the
        # last anchor's bounds times beta and alpha; along a walk of
        # accepted steps they stay above the true values, the screen's
        # bounds hold, and a _solve evaluation re-anchors them once the
        # product of the betas would fall below 0.8
        post = bayes._Posterior(synth_obs, default_priors(), plate, 10)
        rng = np.random.default_rng(23)
        x = self.INIT.to_array()
        assert self.anchor_at(post, x)
        solves = self.solves(monkeypatch)
        anchors = []
        for _ in range(300):
            y = x * (1 + 3e-3 * rng.standard_normal(6))
            eig = post.eigen_bounds(y)
            before = len(solves)
            _, anchor = post.log_likelihood(y, eig[2])
            solved = len(solves) > before
            lams = np.linalg.eigvalsh(self.blocks(post, y))
            assert np.all((eig[0] <= lams[:, -1]) & (lams[:, -1] <= eig[1]))
            post.anchor, x = anchor, y
            assert np.all(anchor.lam2 >= lams[:, -2])
            assert np.all(anchor.norm >= -lams[:, 0])
            assert (anchor.prod == 1.0) == solved
            assert anchor.prod >= bayes._REANCHOR
            anchors.append(solved)
        assert 2 <= sum(anchors) < 0.1 * len(anchors)

    def test_singular_shift_falls_back_to_eigh(self, synth_obs, plate,
                                               monkeypatch):
        x = self.INIT.to_array()
        y = x * (1 + 1e-3 * np.random.default_rng(5).standard_normal(6))
        want = bayes._Posterior(synth_obs, default_priors(), plate, 10)
        assert self.anchor_at(want, x)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        got = bayes._Posterior(synth_obs, default_priors(), plate, 10)
        assert self.anchor_at(got, x)
        assert np.allclose(got.eigen_bounds(y)[:2], want.eigen_bounds(y)[:2],
                           rtol=1e-8, atol=0.0)

    def test_most_steps_skip_the_exact_posterior(self, synth_obs, plate,
                                                 monkeypatch):
        # a screen that silently stopped rejecting would still pass every
        # equivalence test, so count the exact evaluations (log_posterior
        # runs on every step, log_likelihood once the screen passes a step)
        calls = []
        exact = bayes._Posterior.log_likelihood

        def counted(*args, **kwargs):
            calls.append(1)
            return exact(*args, **kwargs)

        monkeypatch.setattr(bayes._Posterior, "log_likelihood", counted)
        cfg = SamplerConfig(n_samples=1500, warmup=300, seed=3,
                            init=self.INIT)
        mcmc_sample(synth_obs, default_priors(), plate, cfg)
        assert len(calls) < 0.5 * (cfg.warmup + cfg.n_samples)

    @pytest.mark.parametrize("init", [INIT, None])
    def test_one_prior_evaluation_per_proposal(self, synth_obs, plate,
                                               monkeypatch, init):
        # the screen and the exact evaluation share the proposal's prior:
        # one evaluation per step and one per start candidate, the init or
        # each prior draw
        starts, calls = [], []
        priors = default_priors()
        sample, prior = PriorSpec.sample, PriorSpec.logpdf

        def drawn(*args):
            starts.append(1)
            return sample(*args)

        def counted(*args):
            calls.append(1)
            return prior(*args)

        monkeypatch.setattr(PriorSpec, "sample", drawn)
        monkeypatch.setattr(PriorSpec, "logpdf", counted)
        cfg = SamplerConfig(n_samples=600, warmup=300, seed=11, init=init)
        mcmc_sample(synth_obs, priors, plate, cfg)
        assert len(calls) == cfg.warmup + cfg.n_samples + max(len(starts), 1)

    @pytest.mark.parametrize("init", [INIT, None])
    def test_no_param_vector_built_per_step(self, synth_obs, plate,
                                            monkeypatch, init):
        # a point stays one array from the proposal to the prior
        built = []
        check = ParamVector.__post_init__

        def counted(self):
            built.append(1)
            check(self)

        monkeypatch.setattr(ParamVector, "__post_init__", counted)
        cfg = SamplerConfig(n_samples=300, warmup=100, seed=11, init=init)
        mcmc_sample(synth_obs, default_priors(), plate, cfg)
        assert built == []

    def test_eigvalsh_only_anchors_the_bounds(self, synth_obs, plate,
                                              monkeypatch):
        # an accepted state's bound data come from the evaluation that
        # accepted it, and a screened evaluation is certified by solves, so
        # eigvalsh runs at the start, where certification fails and to
        # re-anchor the chained bounds; a certification that always fell
        # back would still pass every equivalence test, so count the calls
        eigvalsh_calls = []
        per_eval = []  # eigvalsh calls inside each exact evaluation
        exact = bayes._Posterior.log_likelihood

        def eigvalsh(a):
            eigvalsh_calls.append(1)
            return EIGVALSH(a)

        def counted(*args, **kwargs):
            before = len(eigvalsh_calls)
            result = exact(*args, **kwargs)
            per_eval.append(len(eigvalsh_calls) - before)
            return result

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(bayes._Posterior, "log_likelihood", counted)
        cfg = SamplerConfig(n_samples=1500, warmup=300, seed=3,
                            init=self.INIT)
        mcmc_sample(synth_obs, default_priors(), plate, cfg)
        assert per_eval[0] == 1  # the start
        assert max(per_eval) <= 1
        assert sum(per_eval) == len(eigvalsh_calls)  # none outside one
        assert len(eigvalsh_calls) < 0.1 * len(per_eval)

    def test_anchor_moments_formed_only_to_bound(self, synth_obs, plate,
                                                 monkeypatch):
        # every exact evaluation returns an anchor, but only the start's
        # and an accepted step's bound proposals, so m = [C_j v, v^T C_j v]
        # is formed for those alone and never for a rejected evaluation
        made, kept = [], []
        init = bayes._Anchor.__init__

        def recorded(anchor, *args):
            made.append(anchor)
            init(anchor, *args)

        class Posterior(bayes._Posterior):
            @property
            def anchor(self):
                return self._anchor

            @anchor.setter
            def anchor(self, value):
                kept.append(value)
                self._anchor = value

        monkeypatch.setattr(bayes._Anchor, "__init__", recorded)
        monkeypatch.setattr(bayes, "_Posterior", Posterior)
        cfg = SamplerConfig(n_samples=800, warmup=200, seed=3, init=self.INIT)
        chain = mcmc_sample(synth_obs, default_priors(), plate, cfg)
        formed = [a for a in made if "m" in vars(a)]
        kept = {id(a) for a in kept}
        assert all(id(a) in kept for a in formed)
        assert len(formed) <= chain.accepted.sum() + 1
        assert len(made) > len(formed)  # rejected evaluations made some

    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("start", ["init", "prior draws"])
    def test_chain_matches_plain_sampler(self, synth_obs, plate, seed, start):
        # the first steps propose at prior scale, where bounds are loosest
        cfg = SamplerConfig(n_samples=600, warmup=300, seed=seed,
                            init=self.INIT if start == "init" else None)
        got = mcmc_sample(synth_obs, default_priors(), plate, cfg)
        want = oracles.plain_mcmc_sample(synth_obs, default_priors(), plate,
                                         cfg)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.accepted.tobytes() == want.accepted.tobytes()
        # screened evaluations are certified solves, not eigvalsh
        assert np.all(np.abs(got.log_posts - want.log_posts)
                      <= 1e-10 * np.abs(want.log_posts))


def test_anchor_rayleigh_quotients_are_its_eigenvalues(gfrp, plate):
    # lambda_1 = q . (v^T C_j v) at a _solve anchor on the curve ensemble's
    # GFRP grid: the anchor's v^T C_j v are d lambda_1 / d q_j.  Both sides
    # carry eigvalsh's rounding n eps |A|, up to 1e7 |lambda_1| eps at the
    # smallest kh, so the identity holds to 1e-12 relative plus that
    k = k_grid_for_fh_band(gfrp, plate, 0.2, 4.098, n_points=60, order=10)
    kh = np.tile(k * plate.thickness, 2)
    c = dispersion._pair_basis(kh, np.repeat([0, 1], k.size), 10)
    q = np.array([gfrp.c11, gfrp.c13, gfrp.c33, gfrp.c55]) / gfrp.rho
    blocks = (q @ c.reshape(4, -1)).reshape(c.shape[1:])
    _, anchor = bayes._solve(q, c, blocks)
    _, rq, _, _, _ = anchor.bounds(q[None])
    lams = np.linalg.eigvalsh(blocks)
    top, n = lams[:, -1], c.shape[-1]
    assert np.all(np.abs(rq[0] - top) <= 1e-12 * np.abs(top) + n
                  * np.finfo(float).eps * np.abs(lams).max(axis=1))


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
