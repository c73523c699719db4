"""Likelihood, priors, and adaptive-Metropolis sampling of elastic constants.

The sampled vector is {C11, C13, C33, C55, rho, sigma}: the four stiffness
entries and density governing the dispersion model, plus the Gaussian noise
scale on observed angular frequency.  All probabilities are computed in log
space; non-physical forward solves map to -inf and are therefore never
accepted.  With observations, the one posterior call of an mcmc_sample step
rejects most proposals without an eigensolve, from a proved upper bound on
their log posterior built from the current state's eigenpairs (_Posterior);
it rejects only what the exact posterior would.  The others start from the
same eigenpairs: each pair's top eigenvalue is certified by at most two
batched shifted solves, with eigvalsh as the fallback and to re-anchor the
bounds now and then, so an accepted step costs about one batched solve.
Samples and accept flags are byte for byte those of evaluating every
proposal by eigvalsh; log posteriors agree with it to 1e-10 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import textio
from .dispersion import (ElasticConstants, PlateSpec, _pair_basis,
                         _top_negative)
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


# name -> multiply internal value by this before the pdf
_PRIOR_SCALES = {"c11": 1e-9, "c13": 1e-9, "c33": 1e-9, "c55": 1e-9,
                 "rho": 1.0, "sigma": 1.0}


@dataclass(frozen=True)
class PriorSpec:
    """Independent per-parameter priors.

    Stiffness priors are stated in GPa while the sampler works in Pa;
    _PRIOR_SCALES converts before density evaluation, with the log-Jacobian
    included so densities stay proper over the internal units.
    """

    priors: dict  # name -> GammaPrior | NormalPrior

    def logpdf(self, name: str, internal_value: float) -> float:
        s = _PRIOR_SCALES[name]
        return self.priors[name].logpdf(internal_value * s) + math.log(s)

    def sample(self, rng: np.random.Generator) -> ParamVector:
        vals = {
            name: self.priors[name].sample(rng) / _PRIOR_SCALES[name]
            for name in PARAM_NAMES
        }
        return ParamVector(**vals)

    def internal_mean(self, name: str) -> float:
        return self.priors[name].mean / _PRIOR_SCALES[name]

    def internal_var(self, name: str) -> float:
        return self.priors[name].var / _PRIOR_SCALES[name] ** 2


def default_priors() -> PriorSpec:
    """Broad Gamma priors on the stiffnesses and noise, tight Normal on
    density.  Stiffness priors are in GPa (e.g. C11 prior mean 100 GPa)."""
    return PriorSpec(priors={
        "c11": GammaPrior(shape=2.0, rate=0.02),
        "c13": GammaPrior(shape=1.5, rate=0.05),
        "c33": GammaPrior(shape=1.5, rate=0.05),
        "c55": GammaPrior(shape=1.5, rate=0.025),
        "rho": NormalPrior(mean=1600.0, sd=300.0),
        "sigma": GammaPrior(shape=2.0, rate=2e-5),
    })


@dataclass(frozen=True)
class SamplerConfig:
    """One mcmc_sample chain's settings, and the one owner of their
    defaults and rules (lambid.config reads both from here): ValueError
    unless n_samples and forward_order are positive integers, warmup is a
    non-negative integer (bools are neither) and proposal_scale is positive.
    """

    n_samples: int = 20_000
    warmup: int = 5_000
    seed: int = 0
    init: ParamVector | None = None
    proposal_scale: float = 0.1  # a zero step accepts every proposal
    forward_order: int = 10
    target_acceptance: ClassVar[float] = 0.234  # of the warmup's step tuning

    def __post_init__(self):
        def is_count(value) -> bool:
            return (isinstance(value, (int, np.integer))
                    and not isinstance(value, bool))

        if not (is_count(self.n_samples) and self.n_samples > 0):
            raise ValueError("n_samples must be a positive integer")
        if not (is_count(self.warmup) and self.warmup >= 0):
            raise ValueError("warmup must be non-negative and an integer")
        if not self.proposal_scale > 0:
            raise ValueError("proposal_scale must be positive")
        if not (is_count(self.forward_order) and self.forward_order > 0):
            raise ValueError("forward_order must be a positive integer")


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
    has no negative eigenvalue.  Only observed pairs are solved, one parity
    block each in one batched eigvalsh, so the block of a mode not observed
    at a k cannot reject it; each call builds the pairs' operators C_j that
    a chain builds once (see _Posterior).  Where observations lie
    (kh >= 0.2) every block of a positive-definite stiffness is negative
    definite, so this rejects what requiring both blocks did; below kh 0.1,
    with c13^2 within ~1e-6 of c11 c33, A0's eigenvalue is of rounding size
    and either block may lose its sign.
    """
    return _Posterior(obs, None, plate, order).log_likelihood(theta.to_array())[0]


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
    return _Posterior(obs, priors, plate, order).log_posterior(theta.to_array())[0]


# every eigenvalue bound is widened by _SCREEN_REL of itself and by
# _SCREEN_NORM of its block's norm: eigvalsh errs by ~n eps |A|, and at small
# kh A0's eigenvalue is ~1e-5 |A|
_SCREEN_REL = 1e-9
_SCREEN_NORM = 1e-12
_SCREEN_MARGIN = 1e-6  # log-posterior margin of an early rejection
_CERTIFY_REL = 1e-13  # widest Kato-Temple interval of a certified eigenvalue
# an eigvalsh evaluation re-anchors the chained lambda_2 bounds once the
# product of the betas since the last one falls below this
_REANCHOR = 0.8


def _inverse_iteration(blocks: np.ndarray, shift: np.ndarray,
                       start: np.ndarray):
    """The unit (blocks - shift I)^-1 start of every pair, by one batched
    solve; None where a solve is singular or not finite."""
    try:
        w = np.linalg.solve(blocks - shift[:, None, None] * np.eye(
            blocks.shape[-1]), start[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(w).all():
        return None
    w /= np.abs(w).max(axis=1)[:, None]  # so that squaring cannot overflow
    return w / np.sqrt((w * w).sum(axis=1))[:, None]


class _Posterior:
    """The log posterior of one observation set (the prior alone for None)
    at a parameter array; below a given floor, a rigorous upper bound from
    the eigenpairs of an accepted state rejects most proposals with no
    eigensolve (early rejection; Solonen et al. 2012, Bayesian Anal. 7:715).

    Each observed pair's block is A(q) = sum_j q_j C_j, and the
    material-free C_j = sum_p s^p B[j, p, branch] (dispersion._pair_basis)
    are built once, so every exact evaluation is one product q @ C.  A(Q) is
    negative semidefinite for every positive semidefinite Voigt matrix
    Q = [[q11, q13], [q13, q33]] + q55.  With beta <= alpha the extreme
    generalized eigenvalues of (Q_y, Q_x), Q_y - beta Q_x and
    alpha Q_x - Q_y are such matrices, so alpha A(x) <= A(y) <= beta A(x)
    in the Loewner order.  Each pair's top
    eigenvalue lambda(y) = -c_p^2 then lies between the Rayleigh quotient
    rho_y = v^T A(y) v of x's top eigenvector v and the smaller of
    beta lambda_1(x) and Kato-Temple's
    rho_y + |A(y) v - rho_y v|^2 / (rho_y - beta lambda_2(x)),
    as lambda_2(y) <= beta lambda_2(x).  The distance of each observed omega
    to [c_lo k, c_hi k] bounds its residual from below.

    A proposal the screen bounded is evaluated by Rayleigh-quotient
    iteration from v and rho_y instead of an eigensolve: at most two
    batched solves (A(y) - rho I) w = v, each pair's lambda_1 the Rayleigh
    quotient of the unit w, certified when the Kato-Temple width
    |r|^2 / (lambda_1 - beta lambda_2(x)) is at most 1e-13 |lambda_1|; if
    any pair is not certified, the evaluation runs eigvalsh.  The state
    data (lambda_1, the bound on lambda_2, v, the bound on |A| and, with
    W_j = C_j v, the products v^T W_j) come from the evaluation that
    accepted x: a certified one hands over its unit w and chains the bounds
    (lambda_2(y) <= beta lambda_2(x), |A(y)| <= alpha |A(x)|), an eigvalsh
    one its spectrum and one shifted solve.  An eigvalsh evaluation
    re-anchors the chained bounds once the product of their betas falls
    below 0.8.
    """

    def __init__(self, obs: ObservationSet | None, priors: PriorSpec | None,
                 plate: PlateSpec, order: int):
        self.obs, self.priors = obs, priors
        self.state = None  # the data of a state whose bounds hold
        if obs is None:
            return
        if len(obs) == 0:
            raise ValueError("observation set is empty")
        self.c = _pair_basis(obs.pair_k * plate.thickness, obs.pair_branch,
                             order)
        self.log_norm = -0.5 * len(obs) * math.log(2 * math.pi)

    def log_likelihood(self, x: np.ndarray, ahead=None):
        """(log likelihood, spectra) at a finite x, certified from the
        screen's data ahead (see eigen_bounds) where they are given and
        certify every pair.  Spectra are the parity block of every observed
        pair, its unit top eigenvector (None after eigvalsh), its top eigenvalue,
        its second eigenvalue and norm or upper bounds on them, and the
        product of the betas since eigvalsh, as
        (blocks, v, lam1, lam2, norm, prod); None where no eigensolve ran."""
        c11, c13, c33, c55, rho, sigma = x
        # c13^2 >= c11 c33: the 1-3 stiffness block is not positive definite
        if not (sigma > 0 and min(c11, c13, c33, c55, rho) > 0
                and c13 ** 2 < c11 * c33):
            return -np.inf, None
        blocks = ((x[:4] / rho) @ self.c.reshape(4, -1)).reshape(self.c.shape[1:])
        spectra = None if ahead is None else self._certified(blocks, *ahead)
        if spectra is None:
            lams = np.linalg.eigvalsh(blocks)
            top = _top_negative(lams)
            spectra = (blocks, None, lams[:, -1], lams[:, -2], -lams[:, 0], 1.0)
            if np.isnan(top).any():
                return -np.inf, spectra
        else:
            # the screen proved every top eigenvalue negative
            top = spectra[2]
        obs = self.obs
        resid = obs.omega - np.sqrt(-top)[obs.pair_index] * obs.k
        return float(
            -len(obs) * math.log(sigma) + self.log_norm
            - 0.5 * float(resid @ resid) / sigma**2
        ), spectra

    @staticmethod
    def _certified(blocks, v, shift, lam2, norm, prod):
        """Spectra of Rayleigh-quotient iteration from the unit v and shift,
        every pair certified against the bound lam2 on its second
        eigenvalue; None where two steps certify not every pair."""
        for _ in range(2):
            v = _inverse_iteration(blocks, shift, v)
            if v is None:
                return None
            av = (blocks @ v[..., None])[..., 0]
            shift = (v * av).sum(axis=1)
            resid = av - shift[:, None] * v
            # Kato-Temple: shift <= lambda_1 <= shift + |r|^2 / gap
            gap = shift - lam2
            if np.all(gap > 0) and np.all(
                    (resid * resid).sum(axis=1)
                    <= _CERTIFY_REL * np.abs(shift) * gap):
                return blocks, v, shift, lam2, norm, prod
        return None

    def log_posterior(self, x: np.ndarray, floor: float = -math.inf):
        """(log posterior, spectra of its likelihood) at x; -inf where x is
        not a ParamVector, and (-inf, None) with no eigensolve where the
        screen proves it below floor."""
        try:
            lp = log_prior(ParamVector.from_array(x), self.priors)
        except ValueError:
            return -np.inf, None
        if lp == -np.inf or self.obs is None:
            return lp, None
        eig = self.eigen_bounds(x)
        if eig is not None:
            # eigen_bounds holds only for x > 0, so sigma's log is defined
            obs, sigma = self.obs, x[5]
            om_lo = np.sqrt(-eig[1])[obs.pair_index] * obs.k
            om_hi = np.sqrt(-eig[0])[obs.pair_index] * obs.k
            dist = np.maximum(np.maximum(om_lo - obs.omega, obs.omega - om_hi),
                              0.0)
            if (lp - len(obs) * math.log(sigma) + self.log_norm
                    - 0.5 * float(dist @ dist) / sigma**2) < floor:
                return -np.inf, None
        ll, spectra = self.log_likelihood(x, None if eig is None else eig[2])
        return lp + ll, spectra

    def refresh(self, x: np.ndarray, spectra) -> None:
        """Make the accepted state x the one that bounds proposals, from the
        spectra of the exact evaluation that accepted it; with spectra None
        (no observations), no state bounds proposals."""
        self.state = None
        if spectra is None:
            return
        blocks, v, lam1, lam2, norm, prod = spectra
        q = x[:4] / x[4]
        det = q[0] * q[2] - q[1] * q[1]
        if not (det > 0 and np.all(lam1 < 0)):
            return
        if v is None:
            # one step of inverse iteration from a shift just above the top
            # eigenvalue; the bounds hold for any unit v, only their width
            # depends on how close v is to the eigenvector
            v = _inverse_iteration(blocks, lam1 * (1 - 1e-10),
                                   np.ones(lam1.shape + blocks.shape[-1:]))
            if v is None:
                v = np.linalg.eigh(blocks)[1][..., -1]
        w = (self.c @ v[:, :, None])[..., 0]  # [4, pairs, n]
        # q @ m gives A(y) v for every pair, then every rho_y
        self.m = np.concatenate([w.reshape(4, -1), (w * v).sum(axis=2)], axis=1)
        self.state = (q, det, v, lam1, lam2, norm, prod)

    def eigen_bounds(self, y: np.ndarray):
        """(lo, up, ahead): lo and up bound every observed pair's top
        eigenvalue at y, widened for rounding, and ahead is the data from
        which log_likelihood certifies y, or None; None where y is not
        physical or no negative bound holds."""
        if self.state is None or not (np.isfinite(y).all() and y.min() > 0):
            return None
        qx, det_x, v, lam1, lam2, norm, prod = self.state
        q = y[:4] / y[4]
        det = q[0] * q[2] - q[1] * q[1]
        b = q[0] * qx[2] + q[2] * qx[0] - 2 * q[1] * qx[1]
        if not (det > 0 and b > 0):
            return None
        # the 2x2 generalized eigenvalues by the stable quadratic roots
        root = b + math.sqrt(max(b * b - 4 * det_x * det, 0.0))
        shear = q[3] / qx[3]
        beta = min(2 * det / root, shear)
        alpha = max(root / (2 * det_x), shear)
        slack = _SCREEN_NORM * alpha * norm
        prod_y = q @ self.m
        rq = prod_y[-v.shape[0]:]
        resid = prod_y[:-v.shape[0]].reshape(v.shape) - rq[:, None] * v
        lam2 = beta * lam2 + slack  # lambda_2(y) <= beta lambda_2(x)
        gap = rq - lam2
        if not np.all(gap > 0):
            return None
        up = np.minimum(beta * lam1, rq + (resid * resid).sum(axis=1) / gap)
        up += _SCREEN_REL * np.abs(up) + slack
        if not np.all(up < 0):
            return None
        ahead = None
        if beta * prod >= _REANCHOR:
            ahead = (v, rq, lam2, alpha * norm, beta * prod)
        return rq - _SCREEN_REL * np.abs(rq) - slack, up, ahead


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
    after warmup.  Deterministic for a fixed seed.  The settings' defaults
    and range rules belong to SamplerConfig, which checks them when cfg is
    built.

    With observations, the uniform u of each step is drawn before the
    posterior, and log posterior(x) + log u - 1e-6 is the floor of the
    step's one _Posterior.log_posterior call: a proposal whose proved upper
    bound lies below it comes back -inf without an eigensolve, as the exact
    posterior would reject it too.  The others are evaluated from the
    bound's data by certified solves, or by eigvalsh where those certify
    not every pair.  The samples, accept flags and random stream are byte
    for byte those of evaluating every proposal by eigvalsh, and the log
    posteriors agree with it to 1e-10 relative.  Prior-only chains evaluate
    every proposal.
    """
    d = len(PARAM_NAMES)
    rng = np.random.default_rng(cfg.seed)
    post = _Posterior(obs, priors, plate, cfg.forward_order)

    if cfg.init is not None:
        x = cfg.init.to_array()
        lp, spectra = post.log_posterior(x)
        if lp == -np.inf:
            raise InitializationError("supplied init has -inf posterior")
    else:
        lp = -np.inf
        for _ in range(100):
            x = priors.sample(rng).to_array()
            lp, spectra = post.log_posterior(x)
            if lp > -np.inf:
                break
        else:
            raise InitializationError(
                "no finite-posterior start found in 100 prior draws"
            )

    post.refresh(x, spectra)
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
        u = rng.uniform()  # post draws nothing, so drawing u first is free
        log_u = math.log(u) if u > 0.0 else -math.inf
        # a proposal proved below the acceptance threshold comes back -inf
        lp_prop, spectra = post.log_posterior(prop, lp + log_u - _SCREEN_MARGIN)
        # log u < 0, and -inf (or NaN) proposals are always rejected
        accept = log_u < lp_prop - lp
        if accept:
            x, lp = prop, lp_prop
            post.refresh(x, spectra)
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
    if chain.acceptance_fraction < 0.05:
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
