"""Likelihood, priors, and adaptive-Metropolis sampling of elastic constants.

The sampled vector is {C11, C13, C33, C55, rho, sigma}: the four stiffness
entries and density governing the dispersion model, plus the Gaussian noise
scale on observed angular frequency.  All probabilities are computed in log
space; non-physical forward solves map to -inf and are therefore never
accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dispersion import ElasticConstants, PlateSpec, TracingError, branch_cp
from .wavefield import ObservationSet

__all__ = [
    "PARAM_NAMES",
    "ParamVector",
    "GammaPrior",
    "NormalPrior",
    "PriorSpec",
    "Chain",
    "SamplerConfig",
    "InitializationError",
    "default_priors",
    "log_likelihood",
    "log_prior",
    "log_posterior",
    "laplace_init",
    "mcmc_sample",
    "write_chain",
    "read_chain",
]

PARAM_NAMES = ("c11", "c13", "c33", "c55", "rho", "sigma")


class InitializationError(RuntimeError):
    """No starting point with finite posterior could be found."""


@dataclass(frozen=True)
class ParamVector:
    """One point in parameter space: stiffness (Pa), density (kg/m^3),
    and noise scale sigma (rad/s).  Positivity is enforced by prior
    support, not here."""

    c11: float
    c13: float
    c33: float
    c55: float
    rho: float
    sigma: float

    def __post_init__(self):
        for name in PARAM_NAMES:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def to_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in PARAM_NAMES])

    @classmethod
    def from_array(cls, arr) -> "ParamVector":
        return cls(**dict(zip(PARAM_NAMES, map(float, arr))))

    def material(self) -> ElasticConstants:
        return ElasticConstants(
            c11=self.c11, c13=self.c13, c33=self.c33, c55=self.c55, rho=self.rho
        )


@dataclass(frozen=True)
class GammaPrior:
    """Gamma in the shape-rate convention; support (0, inf)."""

    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("shape and rate must be positive")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def var(self) -> float:
        return self.shape / self.rate**2

    def logpdf(self, x: float) -> float:
        if x <= 0:
            return -np.inf
        return (
            self.shape * math.log(self.rate)
            + (self.shape - 1) * math.log(x)
            - self.rate * x
            - math.lgamma(self.shape)
        )

    def sample(self, rng: np.random.Generator) -> float:
        return rng.gamma(self.shape, 1.0 / self.rate)


@dataclass(frozen=True)
class NormalPrior:
    mean: float
    sd: float

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError("sd must be positive")

    @property
    def var(self) -> float:
        return self.sd**2

    def logpdf(self, x: float) -> float:
        z = (x - self.mean) / self.sd
        return -0.5 * z * z - math.log(self.sd) - 0.5 * math.log(2 * math.pi)

    def sample(self, rng: np.random.Generator) -> float:
        return rng.normal(self.mean, self.sd)


@dataclass(frozen=True)
class PriorSpec:
    """Independent per-parameter priors, plus internal-to-prior unit scales.

    Stiffness priors are stated in GPa while the sampler works in Pa; the
    scale converts before density evaluation, with the log-Jacobian included
    so densities stay proper over the internal units.
    """

    priors: dict  # name -> GammaPrior | NormalPrior
    scales: dict  # name -> multiply internal value by this before the pdf

    def logpdf(self, name: str, internal_value: float) -> float:
        s = self.scales[name]
        return self.priors[name].logpdf(internal_value * s) + math.log(s)

    def sample(self, rng: np.random.Generator) -> ParamVector:
        vals = {
            name: self.priors[name].sample(rng) / self.scales[name]
            for name in PARAM_NAMES
        }
        return ParamVector(**vals)

    def internal_mean(self, name: str) -> float:
        return self.priors[name].mean / self.scales[name]

    def internal_var(self, name: str) -> float:
        return self.priors[name].var / self.scales[name] ** 2


def default_priors() -> PriorSpec:
    """Broad Gamma priors on the stiffnesses and noise, tight Normal on
    density.  Stiffness priors are in GPa (e.g. C11 prior mean 100 GPa)."""
    gpa = 1e-9
    return PriorSpec(
        priors={
            "c11": GammaPrior(shape=2.0, rate=0.02),
            "c13": GammaPrior(shape=1.5, rate=0.05),
            "c33": GammaPrior(shape=1.5, rate=0.05),
            "c55": GammaPrior(shape=1.5, rate=0.025),
            "rho": NormalPrior(mean=1600.0, sd=300.0),
            "sigma": GammaPrior(shape=2.0, rate=2e-5),
        },
        scales={
            "c11": gpa, "c13": gpa, "c33": gpa, "c55": gpa,
            "rho": 1.0, "sigma": 1.0,
        },
    )


@dataclass
class SamplerConfig:
    n_samples: int = 20_000
    warmup: int = 5_000
    seed: int = 0
    init: ParamVector | None = None
    init_cov: np.ndarray | None = None
    proposal_scale: float = 0.1
    forward_order: int = 10
    eig_method: str = "dense"
    target_acceptance: float = 0.234
    modes: tuple[str, ...] | None = None  # None = all modes in the obs set


@dataclass
class Chain:
    """Ordered posterior samples with acceptance metadata."""

    samples: np.ndarray  # [n, 6] in PARAM_NAMES order
    log_posts: np.ndarray
    accepted: np.ndarray
    warmup_len: int
    seed: int
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        n = self.samples.shape[0]
        if not (self.log_posts.shape[0] == self.accepted.shape[0] == n):
            raise ValueError("chain arrays must have equal length")

    @property
    def post_warmup(self) -> np.ndarray:
        return self.samples[self.warmup_len:]

    @property
    def acceptance_fraction(self) -> float:
        acc = self.accepted[self.warmup_len:]
        return float(np.mean(acc)) if acc.size else float("nan")

    def param(self, name: str, post_warmup: bool = True) -> np.ndarray:
        col = PARAM_NAMES.index(name)
        src = self.post_warmup if post_warmup else self.samples
        return src[:, col]


def _predicted_omegas(
    obs: ObservationSet,
    theta: ParamVector,
    plate: PlateSpec,
    order: int,
    eig_method: str,
    modes: tuple[str, ...] | None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Forward solve at every observed k; None when any solve is rejected."""
    by_mode = obs.by_mode()
    if modes is not None:
        by_mode = {m: v for m, v in by_mode.items() if m in modes}
    if not by_mode:
        raise ValueError("no observations left after mode filtering")
    # solve once per unique k, both branches at once
    all_k = np.unique(np.concatenate([k for _, k in by_mode.values()]))
    try:
        cps = branch_cp(theta.material(), all_k * plate.thickness, order,
                        eig_method)
    except TracingError:  # stiffness not positive definite
        return None
    if np.isnan(cps).any():
        return None
    residual_obs, residual_pred = [], []
    for mode, (oms, kks) in by_mode.items():
        idx = 0 if mode == "A0" else 1
        residual_obs.append(oms)
        residual_pred.append(cps[np.searchsorted(all_k, kks), idx] * kks)
    return np.concatenate(residual_obs), np.concatenate(residual_pred)


def log_likelihood(
    obs: ObservationSet,
    theta: ParamVector,
    plate: PlateSpec,
    order: int = 10,
    eig_method: str = "dense",
    modes: tuple[str, ...] | None = None,
) -> float:
    """Gaussian log likelihood of the observed (omega, k) points.

    -N log sigma - N/2 log 2pi - 1/2 sum (omega_hat - omega(k_hat))^2/sigma^2
    over all N points; -inf whenever sigma or any stiffness/density is
    non-positive, the 1-3 stiffness block is not positive definite
    (c13^2 >= c11 c33), or the forward solve yields no physical branch pair.
    """
    if len(obs) == 0:
        raise ValueError("observation set is empty")
    if theta.sigma <= 0:
        return -np.inf
    if min(theta.c11, theta.c13, theta.c33, theta.c55, theta.rho) <= 0:
        return -np.inf
    pred = _predicted_omegas(obs, theta, plate, order, eig_method, modes)
    if pred is None:
        return -np.inf
    om_hat, om_model = pred
    n = om_hat.size
    resid = om_hat - om_model
    return float(
        -n * math.log(theta.sigma)
        - 0.5 * n * math.log(2 * math.pi)
        - 0.5 * float(resid @ resid) / theta.sigma**2
    )


def log_prior(theta: ParamVector, priors: PriorSpec) -> float:
    """Sum of independent log prior densities; -inf outside support."""
    total = 0.0
    for name in PARAM_NAMES:
        lp = priors.logpdf(name, getattr(theta, name))
        if lp == -np.inf:
            return -np.inf
        total += lp
    return total


def log_posterior(
    obs: ObservationSet | None,
    theta: ParamVector,
    priors: PriorSpec,
    plate: PlateSpec,
    order: int = 10,
    eig_method: str = "dense",
    modes: tuple[str, ...] | None = None,
) -> float:
    """Unnormalized log posterior; obs=None gives the prior-only target."""
    lp = log_prior(theta, priors)
    if lp == -np.inf:
        return -np.inf
    if obs is None:
        return lp
    ll = log_likelihood(obs, theta, plate, order=order,
                        eig_method=eig_method, modes=modes)
    return lp + ll


def mcmc_sample(
    obs: ObservationSet | None,
    priors: PriorSpec,
    plate: PlateSpec,
    cfg: SamplerConfig,
) -> Chain:
    """Adaptive random-walk Metropolis chain targeting the log posterior.

    Multivariate Gaussian proposals; during warmup the proposal covariance
    follows the empirical chain covariance scaled by 2.38^2/d and a scalar
    step size tuned toward the 0.234 acceptance rate.  Adaptation freezes
    after warmup.  Deterministic for a fixed seed.
    """
    if cfg.n_samples <= 0:
        raise ValueError("n_samples must be positive")
    d = len(PARAM_NAMES)
    rng = np.random.default_rng(cfg.seed)

    def target(x: np.ndarray) -> float:
        try:
            theta = ParamVector.from_array(x)
        except ValueError:
            return -np.inf
        return log_posterior(obs, theta, priors, plate, order=cfg.forward_order,
                             eig_method=cfg.eig_method, modes=cfg.modes)

    if cfg.init is not None:
        x = cfg.init.to_array()
        lp = target(x)
        if lp == -np.inf:
            raise InitializationError("supplied init has -inf posterior")
    else:
        lp = -np.inf
        for _ in range(100):
            x = priors.sample(rng).to_array()
            lp = target(x)
            if lp > -np.inf:
                break
        else:
            raise InitializationError(
                "no finite-posterior start found in 100 prior draws"
            )

    base_sd = np.array([math.sqrt(priors.internal_var(n)) for n in PARAM_NAMES])
    log_step = 0.0
    total = cfg.warmup + cfg.n_samples
    samples = np.empty((total, d))
    log_posts = np.empty(total)
    accepted = np.zeros(total, dtype=bool)

    run_mean = x.copy()
    if cfg.init_cov is not None:
        run_cov = np.array(cfg.init_cov, dtype=float)
        # a seeded covariance counts as this many virtual samples so the
        # first few chain states cannot wash it out
        pseudo = max(2 * d, cfg.warmup // 5)
        chol = np.linalg.cholesky((2.38**2 / d) * run_cov)
    else:
        run_cov = np.diag(base_sd**2)
        pseudo = 0
        chol = np.diag(base_sd)
    adapt_start = 2 * d

    for t in range(total):
        step = cfg.proposal_scale * math.exp(log_step)
        prop = x + step * (chol @ rng.standard_normal(d))
        lp_prop = target(prop)
        # -inf proposals are always rejected; log u < 0 almost surely
        log_alpha = lp_prop - lp
        u = rng.uniform()
        accept = lp_prop > -np.inf and (
            u <= 0.0 or math.log(u) < min(0.0, log_alpha)
        )
        if accept:
            x, lp = prop, lp_prop
        samples[t] = x
        log_posts[t] = lp
        accepted[t] = accept

        if t < cfg.warmup:
            # running moments for the empirical proposal covariance
            w = 1.0 / (t + 2 + pseudo)
            delta = x - run_mean
            run_mean = run_mean + w * delta
            run_cov = (1 - w) * (run_cov + w * np.outer(delta, delta))
            log_step += (float(accept) - cfg.target_acceptance) / math.sqrt(t + 1)
            if t >= adapt_start:
                cov = (2.38**2 / d) * (run_cov + 1e-12 * np.diag(base_sd**2))
                try:
                    chol = np.linalg.cholesky(cov)
                except np.linalg.LinAlgError:
                    pass  # keep previous factor

    chain = Chain(
        samples=samples,
        log_posts=log_posts,
        accepted=accepted,
        warmup_len=cfg.warmup,
        seed=cfg.seed,
    )
    if cfg.n_samples > 0 and chain.acceptance_fraction < 0.05:
        chain.warnings.append(
            f"post-warmup acceptance {chain.acceptance_fraction:.3f} < 0.05"
        )
    return chain


def laplace_init(
    obs: ObservationSet,
    priors: PriorSpec,
    plate: PlateSpec,
    start: ParamVector | None = None,
    order: int = 10,
    eig_method: str = "dense",
    modes: tuple[str, ...] | None = None,
    maxfev: int = 4000,
) -> tuple[ParamVector, np.ndarray]:
    """Posterior mode and local Gaussian covariance for seeding the sampler.

    The forward model leaves one direction of parameter space (a joint
    rescaling of the stiffnesses and density) constrained only by the
    priors, so a naive proposal covariance adapts far too slowly along it.
    A mode search in log-parameters followed by a finite-difference Hessian
    captures that soft direction; the returned covariance is the inverse of
    the negative Hessian and is meant for ``SamplerConfig.init_cov``.
    """
    from scipy.optimize import minimize

    def log_post(x: np.ndarray) -> float:
        try:
            theta = ParamVector.from_array(x)
        except ValueError:
            return -np.inf
        return log_posterior(obs, theta, priors, plate, order=order,
                             eig_method=eig_method, modes=modes)

    if start is None:
        start = ParamVector(*(priors.internal_mean(n) for n in PARAM_NAMES))
    z0 = np.log(start.to_array())

    def neg_lp_log(z: np.ndarray) -> float:
        lp = log_post(np.exp(z))
        return -lp if np.isfinite(lp) else 1e300

    res = minimize(neg_lp_log, z0, method="Nelder-Mead",
                   options=dict(maxfev=maxfev, xatol=1e-7, fatol=1e-9,
                                adaptive=True))
    if not np.isfinite(res.fun) or res.fun >= 1e300:
        raise InitializationError("mode search did not find a finite posterior")
    x_map = np.exp(res.x)

    d = x_map.size
    h = 1e-4 * np.abs(x_map)
    hess = np.empty((d, d))
    f0 = log_post(x_map)
    for i in range(d):
        ei = np.zeros(d); ei[i] = h[i]
        for j in range(i, d):
            ej = np.zeros(d); ej[j] = h[j]
            if i == j:
                val = (log_post(x_map + ei) - 2 * f0 + log_post(x_map - ei)) / h[i] ** 2
            else:
                val = (log_post(x_map + ei + ej) - log_post(x_map + ei - ej)
                       - log_post(x_map - ei + ej) + log_post(x_map - ei - ej)
                       ) / (4 * h[i] * h[j])
            hess[i, j] = hess[j, i] = val
    if not np.all(np.isfinite(hess)):
        raise InitializationError("Hessian evaluation hit a failed forward solve")
    neg_hess = -hess
    try:
        cov = np.linalg.inv(neg_hess)
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # fall back to the diagonal curvature where the full matrix is not
        # positive definite (e.g. mode search stopped short of the optimum)
        diag = np.diag(neg_hess)
        if np.any(diag <= 0):
            raise InitializationError("negative Hessian is not positive definite")
        cov = np.diag(1.0 / diag)
    return ParamVector.from_array(x_map), cov


_CHAIN_HEADER = "iter,c11,c13,c33,c55,rho,sigma,log_post,accepted"


def write_chain(path, chain: Chain) -> None:
    """Delimited-text chain export, units in header comments."""
    with open(path, "w") as fh:
        fh.write("# units: c11..c55 Pa, rho kg/m^3, sigma rad/s\n")
        fh.write(f"# warmup_len,{chain.warmup_len}\n")
        fh.write(f"# seed,{chain.seed}\n")
        for w in chain.warnings:
            fh.write(f"# warning,{w}\n")
        fh.write(_CHAIN_HEADER + "\n")
        for i in range(chain.samples.shape[0]):
            row = ",".join(f"{v:.12g}" for v in chain.samples[i])
            fh.write(
                f"{i},{row},{chain.log_posts[i]:.12g},{int(chain.accepted[i])}\n"
            )


def read_chain(path) -> Chain:
    samples, log_posts, accepted = [], [], []
    warmup_len, seed, warns = 0, 0, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.lstrip("# ").split(",")
                if parts[0] == "warmup_len":
                    warmup_len = int(parts[1])
                elif parts[0] == "seed":
                    seed = int(parts[1])
                elif parts[0] == "warning":
                    warns.append(",".join(parts[1:]))
                continue
            if line == _CHAIN_HEADER:
                continue
            vals = line.split(",")
            samples.append([float(v) for v in vals[1:7]])
            log_posts.append(float(vals[7]))
            accepted.append(bool(int(vals[8])))
    return Chain(
        samples=np.asarray(samples),
        log_posts=np.asarray(log_posts),
        accepted=np.asarray(accepted, dtype=bool),
        warmup_len=warmup_len,
        seed=seed,
        warnings=warns,
    )
