import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from lambid.bayes import (Chain, GammaPrior, InitializationError, NormalPrior,
                          ParamVector, PriorSpec, SamplerConfig,
                          default_priors, log_likelihood, log_prior,
                          mcmc_sample, read_chain, write_chain)
import lambid.bayes as bayes
import lambid.dispersion as dispersion
import oracles
from conftest import one_negative_at, random_constants
from lambid.dispersion import (PlateSpec, _parity_blocks, k_grid_for_fh_band,
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

    def test_chain_blocks_match_parity_blocks(self, synth_obs, plate, rng):
        post = bayes._Posterior(synth_obs, default_priors(), plate, 10)
        kh = synth_obs.pair_k * plate.thickness
        for _ in range(20):
            m = random_constants(rng)
            x = np.array([m.c11, m.c13, m.c33, m.c55, m.rho, 2e3])
            blocks = post.log_likelihood(x)[1][0]
            want = _parity_blocks(m, kh, synth_obs.pair_branch, 10)
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
        # draws included, and never assembles blocks as the grid callers do
        calls = []
        pair_basis = bayes._pair_basis

        def counted(*args):
            calls.append(1)
            return pair_basis(*args)

        def parity_blocks(*args):
            raise AssertionError("_parity_blocks called")

        monkeypatch.setattr(bayes, "_pair_basis", counted)
        monkeypatch.setattr(dispersion, "_parity_blocks", parity_blocks)
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
        priors = PriorSpec(priors={
            "c11": NormalPrior(5.0, 1.0), "c13": NormalPrior(4.0, 1.0),
            "c33": NormalPrior(3.0, 1.0), "c55": NormalPrior(2.0, 1.0),
            "rho": NormalPrior(10.0, 2.0), "sigma": NormalPrior(7.0, 0.5),
        })
        cfg = SamplerConfig(n_samples=30_000, warmup=4_000, seed=5,
                            proposal_scale=1.0)
        chain = mcmc_sample(None, priors, plate, cfg)
        from lambid.analysis import mc_standard_error
        for name, mu in [("c11", 5e9), ("rho", 10.0), ("sigma", 7.0)]:
            x = chain.param(name)
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
    def refresh(post, x):
        """Refresh post at x from the spectra of x's eigvalsh likelihood, as
        mcmc_sample does on acceptance; False where that evaluation ran no
        eigensolve."""
        _, spectra = post.log_likelihood(x)
        if spectra is None:
            return False
        post.refresh(x, spectra)
        return True

    def proposals(self, post, priors):
        """(rel, y): post refreshed at 40 states near INIT, every fourth a
        prior draw, and from each a proposal y of each relative step size
        rel from 1e-4 to 0.3."""
        rng = np.random.default_rng(17)
        truth = self.INIT.to_array()
        for i in range(40):
            if i % 4:
                x = truth * np.exp(rng.normal(0.0, 0.05, 6))
            else:
                x = priors.sample(rng).to_array()
            if not self.refresh(post, x) or post.state is None:
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
                synth_obs, ParamVector.from_array(y), priors, plate, 10)
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
            theta = ParamVector.from_array(y).material()
            top = np.linalg.eigvalsh(_parity_blocks(
                theta, kh, synth_obs.pair_branch, 10))[:, -1]
            assert np.all((eig[0] <= top) & (top <= eig[1]))
            checked += 1
        assert checked >= 120

    def test_certified_evaluations_match_eigh(self, synth_obs, plate):
        # at kh ~0.4 A0's eigenvalue is ~5e-7 of its block's norm, where any
        # two roundings of the block move it by ~1e-9 relative, so lambda_1
        # is held to 1e-10 relative plus 1e-14 of the norm (eigvalsh errs by
        # ~n eps |A|), and v to the angle its certificate allows:
        # sin(v, e) <= |r| / (lambda_1 - lambda_2), and the certificate has
        # |r|^2 <= 1e-13 |lambda_1| (lambda_1 - lambda_2)
        priors = default_priors()
        post = bayes._Posterior(synth_obs, priors, plate, 10)
        certified = 0
        for _, y in self.proposals(post, priors):
            eig = post.eigen_bounds(y)
            if eig is None or eig[2] is None:
                continue
            ll, spectra = post.log_likelihood(y, eig[2])
            if spectra[1] is None:
                continue  # fell back to eigvalsh
            blocks, v, lam1 = spectra[:3]
            lams, vecs = np.linalg.eigh(blocks)
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
        assert self.refresh(post, x)
        y = x * (1 + 1e-3 * np.random.default_rng(5).standard_normal(6))
        want, spectra = post.log_likelihood(y)
        assert spectra[1] is None
        ahead = post.eigen_bounds(y)[2]
        assert post.log_likelihood(y, ahead)[1][1] is not None
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
            got, spectra = post.log_likelihood(
                y, uncertified if solve is None else ahead)
            assert spectra[1] is None
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_chained_bounds_hold(self, synth_obs, plate):
        # a refresh from a certified evaluation bounds lambda_2 and |A| by
        # the last state's bounds times beta and alpha; along a walk of
        # accepted steps they stay above the true values, the screen's
        # bounds hold, and an eigvalsh evaluation re-anchors them once the
        # product of the betas would fall below 0.8
        post = bayes._Posterior(synth_obs, default_priors(), plate, 10)
        rng = np.random.default_rng(23)
        x = self.INIT.to_array()
        assert self.refresh(post, x)
        anchors = []
        for _ in range(300):
            y = x * (1 + 3e-3 * rng.standard_normal(6))
            eig = post.eigen_bounds(y)
            _, spectra = post.log_likelihood(y, eig[2])
            lams = np.linalg.eigvalsh(spectra[0])
            assert np.all((eig[0] <= lams[:, -1]) & (lams[:, -1] <= eig[1]))
            post.refresh(y, spectra)
            x = y
            lam2, norm, prod = post.state[4:]
            assert np.all(lam2 >= lams[:, -2]) and np.all(norm >= -lams[:, 0])
            assert (prod == 1.0) == (spectra[1] is None)
            assert prod >= bayes._REANCHOR
            anchors.append(spectra[1] is None)
        assert 2 <= sum(anchors) < 0.1 * len(anchors)

    def test_singular_shift_falls_back_to_eigh(self, synth_obs, plate,
                                               monkeypatch):
        x = self.INIT.to_array()
        y = x * (1 + 1e-3 * np.random.default_rng(5).standard_normal(6))
        want = bayes._Posterior(synth_obs, default_priors(), plate, 10)
        assert self.refresh(want, x)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        got = bayes._Posterior(synth_obs, default_priors(), plate, 10)
        assert self.refresh(got, x)
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
        sample, prior = PriorSpec.sample, bayes.log_prior

        def drawn(*args):
            starts.append(1)
            return sample(*args)

        def counted(*args):
            calls.append(1)
            return prior(*args)

        monkeypatch.setattr(PriorSpec, "sample", drawn)
        monkeypatch.setattr(bayes, "log_prior", counted)
        cfg = SamplerConfig(n_samples=600, warmup=300, seed=11, init=init)
        mcmc_sample(synth_obs, priors, plate, cfg)
        assert len(calls) == cfg.warmup + cfg.n_samples + max(len(starts), 1)

    def test_eigvalsh_only_anchors_the_bounds(self, synth_obs, plate,
                                              monkeypatch):
        # an accepted state's bound data come from the evaluation that
        # accepted it, and a screened evaluation is certified by solves, so
        # eigvalsh runs at the start, where certification fails and to
        # re-anchor the chained bounds; a certification that always fell
        # back would still pass every equivalence test, so count the calls
        eigvalsh_calls, refreshes = [], []
        per_eval = []  # eigvalsh calls inside each exact evaluation
        exact, refresh = bayes._Posterior.log_likelihood, bayes._Posterior.refresh

        def eigvalsh(a):
            eigvalsh_calls.append(1)
            return EIGVALSH(a)

        def counted(*args, **kwargs):
            before = len(eigvalsh_calls)
            result = exact(*args, **kwargs)
            per_eval.append(len(eigvalsh_calls) - before)
            return result

        def refreshed(*args, **kwargs):
            refreshes.append(1)
            return refresh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(bayes._Posterior, "log_likelihood", counted)
        monkeypatch.setattr(bayes._Posterior, "refresh", refreshed)
        cfg = SamplerConfig(n_samples=1500, warmup=300, seed=3,
                            init=self.INIT)
        chain = mcmc_sample(synth_obs, default_priors(), plate, cfg)
        assert per_eval[0] == 1  # the start
        assert max(per_eval) <= 1
        assert sum(per_eval) == len(eigvalsh_calls)  # none outside one
        assert len(eigvalsh_calls) < 0.1 * len(per_eval)
        assert len(refreshes) == chain.accepted.sum() + 1

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
