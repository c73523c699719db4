"""Likelihood, priors, and adaptive-Metropolis sampling of elastic constants.

The sampled vector is {C11, C13, C33, C55, rho, sigma}: the four stiffness
entries and density governing the dispersion model, plus the Gaussian noise
scale on observed angular frequency.  All probabilities are computed in log
space; non-physical forward solves map to -inf and are therefore never
accepted.  With observations, mcmc_sample rejects most proposals without an
eigensolve, from a proved upper bound on their log posterior built from the
current state's eigenpairs (_Screen); it rejects only what the exact
posterior would, so the chain is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import textio
from .dispersion import ElasticConstants, PlateSpec, TracingError, _basis, mode_cp
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
    proposal_scale: float = 0.1
    forward_order: int = 10
    target_acceptance: float = 0.234


@dataclass
class Chain:
    """Ordered posterior samples with acceptance metadata.

    warmup_len must lie in [0, rows] and every sample must be finite;
    anything else raises ValueError.
    """

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
        if not 0 <= self.warmup_len <= n:
            raise ValueError(f"warmup_len {self.warmup_len} is outside [0, {n}]")
        # min and max carry any NaN or inf, and unlike np.isfinite they
        # allocate no mask the size of the chain
        if not (math.isfinite(self.samples.min(initial=0.0))
                and math.isfinite(self.samples.max(initial=0.0))):
            raise ValueError("chain samples must be finite")

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
    obs: ObservationSet, theta: ParamVector, plate: PlateSpec, order: int
) -> np.ndarray | None:
    """Model omega at every observed point, in obs.omega's order, from one
    parity block per observed (mode, k) pair, all in one batched solve.
    None when any solve is rejected."""
    try:
        cps = mode_cp(theta.material(), obs.pair_k * plate.thickness,
                      obs.pair_branch, order)
    except TracingError:  # stiffness not positive definite
        return None
    if np.isnan(cps).any():
        return None
    return cps[obs.pair_index] * obs.k


def log_likelihood(
    obs: ObservationSet,
    theta: ParamVector,
    plate: PlateSpec,
    order: int = 10,
) -> float:
    """Gaussian log likelihood of the observed (omega, k) points.

    -N log sigma - N/2 log 2pi - 1/2 sum (omega_hat - omega(k_hat))^2/sigma^2
    over all N points; -inf whenever sigma or any stiffness/density is
    non-positive, the 1-3 stiffness block is not positive definite
    (c13^2 >= c11 c33), or the parity block of an observed (mode, k) pair
    has no negative eigenvalue.  Only observed pairs are solved, so the
    block of a mode not observed at a k cannot reject it.  Where
    observations lie (kh >= 0.2) every block of a positive-definite
    stiffness is negative definite, so this rejects what requiring both
    blocks did; below kh 0.1, with c13^2 within ~1e-6 of c11 c33, A0's
    eigenvalue is of rounding size and either block may lose its sign.
    """
    if len(obs) == 0:
        raise ValueError("observation set is empty")
    if theta.sigma <= 0:
        return -np.inf
    if min(theta.c11, theta.c13, theta.c33, theta.c55, theta.rho) <= 0:
        return -np.inf
    om_model = _predicted_omegas(obs, theta, plate, order)
    if om_model is None:
        return -np.inf
    n = om_model.size
    resid = obs.omega - om_model
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
) -> float:
    """Unnormalized log posterior; obs=None gives the prior-only target."""
    lp = log_prior(theta, priors)
    if lp == -np.inf:
        return -np.inf
    if obs is None:
        return lp
    return lp + log_likelihood(obs, theta, plate, order=order)


def _log_posterior_at(x: np.ndarray, obs: ObservationSet | None,
                      priors: PriorSpec, plate: PlateSpec, order: int) -> float:
    """log_posterior at an array point; -inf where x is not a ParamVector.

    log_posterior is looked up in the module on every call, so a wrapper
    installed there sees every evaluation of the sampler.
    """
    try:
        theta = ParamVector.from_array(x)
    except ValueError:
        return -np.inf
    return log_posterior(obs, theta, priors, plate, order=order)


# every eigenvalue bound is widened by _SCREEN_REL of itself and by
# _SCREEN_NORM of its block's norm: eigvalsh errs by ~n eps |A|, and at small
# kh A0's eigenvalue is ~1e-5 |A|
_SCREEN_REL = 1e-9
_SCREEN_NORM = 1e-12
_SCREEN_MARGIN = 1e-6  # log-posterior margin of an early rejection


class _Screen:
    """A rigorous upper bound on the log posterior of a proposal y from the
    eigenpairs of an accepted state x, so that most rejections need no
    eigensolve (early rejection; Solonen et al. 2012, Bayesian Anal. 7:715).

    Each observed pair's block is A(q) = sum_j q_j C_j, C_j = sum_p s^p
    B[j, p, branch], and A(Q) is negative semidefinite for every positive
    semidefinite Voigt matrix Q = [[q11, q13], [q13, q33]] + q55.  With
    beta <= alpha the extreme generalized eigenvalues of (Q_y, Q_x),
    Q_y - beta Q_x and alpha Q_x - Q_y are such matrices, so
    alpha A(x) <= A(y) <= beta A(x) in the Loewner order.  Each pair's top
    eigenvalue lambda(y) = -c_p^2 then lies between the Rayleigh quotient
    rho_y = v^T A(y) v of x's top eigenvector v and the smaller of
    beta lambda_1(x) and Kato-Temple's
    rho_y + |A(y) v - rho_y v|^2 / (rho_y - beta lambda_2(x)),
    as lambda_2(y) <= beta lambda_2(x).  The distance of each observed omega
    to [c_lo k, c_hi k] bounds its residual from below.  The state data
    (lambda_1, lambda_2, v, and W_j = C_j v with v^T W_j) cost one eigvalsh
    and one shifted solve.
    """

    def __init__(self, obs: ObservationSet, priors: PriorSpec, plate: PlateSpec,
                 order: int):
        self.obs, self.priors = obs, priors
        s = 2.0 / (obs.pair_k * plate.thickness)
        split = _basis(order)[1]
        # c[j, i] = C_j of pair i, per branch: never one [4, 3, pairs, n, n]
        self.c = np.empty((4, s.size, order + 1, order + 1))
        for b in (0, 1):
            sel = obs.pair_branch == b
            si, bb = s[sel, None, None], split[:, :, b, None]
            self.c[:, sel] = bb[:, 0] + si * (bb[:, 1] + si * bb[:, 2])
        self.log_norm = -0.5 * len(obs) * math.log(2 * math.pi)
        self.state = None  # the data of a state whose bounds hold

    def refresh(self, x: np.ndarray) -> None:
        """Make the accepted state x the one that bounds proposals."""
        self.state = None
        q = x[:4] / x[4]
        det = q[0] * q[2] - q[1] * q[1]
        blocks = np.tensordot(q, self.c, axes=1)
        lams = np.linalg.eigvalsh(blocks)
        if not (det > 0 and np.all(lams[:, -1] < 0)):
            return
        # one step of inverse iteration from a shift just above the top
        # eigenvalue; the bounds hold for any unit v, only their width
        # depends on how close v is to the eigenvector
        shifted = blocks - (lams[:, -1] * (1 - 1e-10))[:, None, None] * np.eye(
            blocks.shape[-1])
        try:
            v = np.linalg.solve(shifted, np.ones((*lams.shape, 1)))[..., 0]
        except np.linalg.LinAlgError:
            v = np.full(lams.shape, np.nan)
        if not np.isfinite(v).all():
            v = np.linalg.eigh(blocks)[1][..., -1]
        v /= np.sqrt((v * v).sum(axis=1))[:, None]
        w = (self.c @ v[:, :, None])[..., 0]  # [4, pairs, n]
        # q @ m gives A(y) v for every pair, then every rho_y
        self.m = np.concatenate([w.reshape(4, -1), (w * v).sum(axis=2)], axis=1)
        self.state = (q, det, v, lams[:, -1], lams[:, -2], -lams[:, 0])

    def eigen_bounds(self, y: np.ndarray):
        """(lo, up) on every observed pair's top eigenvalue at y, widened for
        rounding; None where y is not physical or no negative bound holds."""
        if self.state is None or not (np.isfinite(y).all() and y.min() > 0):
            return None
        qx, det_x, v, lam1, lam2, norm = self.state
        q = y[:4] / y[4]
        det = q[0] * q[2] - q[1] * q[1]
        b = q[0] * qx[2] + q[2] * qx[0] - 2 * q[1] * qx[1]
        if not (det > 0 and b > 0):
            return None
        # the 2x2 generalized eigenvalues by the stable quadratic roots
        root = b + math.sqrt(max(b * b - 4 * det_x * det, 0.0))
        shear = q[3] / qx[3]
        beta = min(2 * det / root, shear)
        slack = _SCREEN_NORM * max(root / (2 * det_x), shear) * norm
        prod = q @ self.m
        rq = prod[-v.shape[0]:]
        resid = prod[:-v.shape[0]].reshape(v.shape) - rq[:, None] * v
        gap = rq - beta * lam2
        if not np.all(gap > slack):
            return None
        up = np.minimum(beta * lam1, rq + (resid * resid).sum(axis=1) / gap)
        up += _SCREEN_REL * np.abs(up) + slack
        if not np.all(up < 0):
            return None
        return rq - _SCREEN_REL * np.abs(rq) - slack, up

    def bound(self, y: np.ndarray) -> float:
        """An upper bound on log_posterior at y; inf where none is proved."""
        eig = self.eigen_bounds(y)
        if eig is None:
            return math.inf
        lp = log_prior(ParamVector.from_array(y), self.priors)
        if lp == -np.inf:
            return math.inf
        obs = self.obs
        om_lo = np.sqrt(-eig[1])[obs.pair_index] * obs.k
        om_hi = np.sqrt(-eig[0])[obs.pair_index] * obs.k
        dist = np.maximum(np.maximum(om_lo - obs.omega, obs.omega - om_hi), 0.0)
        sigma = y[5]
        return (lp - len(obs) * math.log(sigma) + self.log_norm
                - 0.5 * float(dist @ dist) / sigma**2)


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
    after warmup.  Deterministic for a fixed seed.  A non-positive
    n_samples or proposal_scale, a warmup that is not a non-negative
    integer and a target_acceptance outside (0, 1) are ValueErrors.

    With observations, the uniform u of each step is drawn before the
    posterior, so a proposal whose proved upper bound (see _Screen) lies
    below log posterior(x) + log u - 1e-6 is rejected without an
    eigensolve: the exact posterior would reject it too, so the chain and
    its random stream are exactly those of evaluating every proposal.
    Prior-only chains evaluate every proposal.
    """
    if cfg.n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if not cfg.proposal_scale > 0:
        raise ValueError("proposal_scale must be positive")
    if not isinstance(cfg.warmup, (int, np.integer)) or cfg.warmup < 0:
        raise ValueError("warmup must be a non-negative integer")
    if not 0 < cfg.target_acceptance < 1:
        raise ValueError("target_acceptance must lie in (0, 1)")
    d = len(PARAM_NAMES)
    rng = np.random.default_rng(cfg.seed)

    def target(x: np.ndarray) -> float:
        return _log_posterior_at(x, obs, priors, plate, cfg.forward_order)

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

    screen = None
    if obs is not None:
        screen = _Screen(obs, priors, plate, cfg.forward_order)
        screen.refresh(x)
    base_sd = np.array([math.sqrt(priors.internal_var(n)) for n in PARAM_NAMES])
    log_step = 0.0
    total = cfg.warmup + cfg.n_samples
    samples = np.empty((total, d))
    log_posts = np.empty(total)
    accepted = np.zeros(total, dtype=bool)

    run_mean = x.copy()
    run_cov = np.diag(base_sd**2)
    chol = np.diag(base_sd)
    adapt_start = 2 * d

    for t in range(total):
        step = cfg.proposal_scale * math.exp(log_step)
        prop = x + step * (chol @ rng.standard_normal(d))
        u = rng.uniform()  # target draws nothing, so drawing u first is free
        if (screen is not None and u > 0.0
                and screen.bound(prop) < lp + math.log(u) - _SCREEN_MARGIN):
            accept = False  # the exact posterior would reject it too
        else:
            lp_prop = target(prop)
            # -inf proposals are always rejected; log u < 0 almost surely
            log_alpha = lp_prop - lp
            accept = lp_prop > -np.inf and (
                u <= 0.0 or math.log(u) < min(0.0, log_alpha)
            )
        if accept:
            x, lp = prop, lp_prop
            if screen is not None:
                screen.refresh(x)
        samples[t] = x
        log_posts[t] = lp
        accepted[t] = accept

        if t < cfg.warmup:
            # running moments for the empirical proposal covariance
            w = 1.0 / (t + 2)
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


_CHAIN_HEADER = "iter,c11,c13,c33,c55,rho,sigma,log_post,accepted"


def write_chain(path, chain: Chain) -> None:
    """Delimited-text chain export, units in header comments."""
    textio.write_table(
        path, _CHAIN_HEADER,
        [np.arange(chain.samples.shape[0]), *chain.samples.T, chain.log_posts,
         chain.accepted.astype(int)],
        comments=[("units: c11..c55 Pa, rho kg/m^3, sigma rad/s",),
                  ("warmup_len", chain.warmup_len), ("seed", chain.seed),
                  *(("warning", w) for w in chain.warnings)],
    )


def read_chain(path) -> Chain:
    meta, lines = textio.read_table(path, _CHAIN_HEADER)
    values = textio.float_columns(lines, 1, 8)
    first = dict(meta)
    return Chain(
        samples=np.ascontiguousarray(values[:, :6]),
        log_posts=values[:, 6].copy(),
        accepted=values[:, 7].astype(bool),
        warmup_len=int(first.get("warmup_len", 0)),
        seed=int(first.get("seed", 0)),
        warnings=[value for key, value in meta if key == "warning"],
    )
