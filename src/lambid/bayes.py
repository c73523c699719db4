"""Likelihood, priors, and adaptive-Metropolis sampling of elastic constants.

The sampled vector is {C11, C13, C33, C55, rho, sigma}: the four stiffness
entries and density governing the dispersion model, plus the Gaussian noise
scale on observed angular frequency.  PriorSpec evaluates the prior once
per proposal, on its array in PARAM_NAMES order, through fixed GPa->Pa
scales.  All probabilities are computed in log space; non-physical forward
solves map to -inf and are therefore never accepted.  With observations,
the one posterior call of an mcmc_sample step rejects most proposals
without an eigensolve, from a proved upper bound on their log posterior
built from the current state's eigenpairs, its _Anchor; it rejects only
what the exact posterior would.  The others are certified from the anchor
by _certify: a batched shifted solve, a second only where the first
certified no eigenvalue.  _solve, an eigvalsh and one shifted solve, is the
fallback and re-anchors now and then, so an accepted step costs about one
batched solve.  Every exact evaluation returns its own _Anchor, and the
curve ensemble shares _certify and _solve.
Samples and accept flags are byte for byte those of evaluating every
proposal by eigvalsh.  Log posteriors differ from it by less than eigvalsh's
own rounding of the model frequencies carried through the misfit, about
sum |r| omega n eps |A| / (2 |lambda| sigma^2) over the residuals r; that is
within 1e-10 relative unless sigma lies far below the residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
        if not (0 < self.shape < np.inf and 0 < self.rate < np.inf):
            raise ValueError("shape and rate must be positive and finite")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def var(self) -> float:
        return self.shape / self.rate**2

    def logpdf(self, x: float) -> float:
        """-inf outside (0, inf), NaN included."""
        if not 0 < x < math.inf:
            return -math.inf
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
        if not (0 < self.sd < np.inf and np.isfinite(self.mean)):
            raise ValueError("sd must be positive and finite, and mean finite")

    @property
    def var(self) -> float:
        return self.sd**2

    def logpdf(self, x: float) -> float:
        """-inf at ±inf and NaN."""
        if not math.isfinite(x):
            return -math.inf
        z = (x - self.mean) / self.sd
        return -0.5 * z * z - math.log(self.sd) - 0.5 * math.log(2 * math.pi)

    def sample(self, rng: np.random.Generator) -> float:
        return rng.normal(self.mean, self.sd)


# name -> multiply internal value by this before the pdf
_PRIOR_SCALES = {"c11": 1e-9, "c13": 1e-9, "c33": 1e-9, "c55": 1e-9,
                 "rho": 1.0, "sigma": 1.0}


@dataclass(frozen=True)
class PriorSpec:
    """Independent priors over the parameter array in PARAM_NAMES order.

    priors maps every name of PARAM_NAMES, and no other, to its prior
    (ValueError otherwise).  Stiffness priors are stated in GPa while the
    array holds Pa; _PRIOR_SCALES converts before density evaluation, with
    the log-Jacobian included so densities stay proper over the array's
    units.
    """

    priors: dict  # name -> GammaPrior | NormalPrior

    def __post_init__(self):
        missing = [n for n in PARAM_NAMES if n not in self.priors]
        unknown = [n for n in self.priors if n not in PARAM_NAMES]
        if missing or unknown:
            raise ValueError(f"priors must name every parameter once: "
                             f"missing {missing}, unknown {unknown}")

    def logpdf(self, x: np.ndarray) -> float:
        """Sum of the log densities at x, left to right; -inf at the first
        entry that is not finite or lies outside its prior's support."""
        total = 0.0
        for name, value in zip(PARAM_NAMES, x.tolist()):
            s = _PRIOR_SCALES[name]
            lp = self.priors[name].logpdf(value * s) + math.log(s)
            if lp == -math.inf:
                return -math.inf
            total += lp
        return total

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One draw of x, its entries drawn in PARAM_NAMES order."""
        return np.array([self.priors[n].sample(rng) / _PRIOR_SCALES[n]
                         for n in PARAM_NAMES])

    @property
    def mean(self) -> np.ndarray:
        return np.array([self.priors[n].mean / _PRIOR_SCALES[n]
                         for n in PARAM_NAMES])

    @property
    def var(self) -> np.ndarray:
        return np.array([self.priors[n].var / _PRIOR_SCALES[n] ** 2
                         for n in PARAM_NAMES])


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
    non-negative integer (bools are neither), proposal_scale is positive and
    finite, seed is a non-negative integer and init is None or a ParamVector.
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
        if not 0 < self.proposal_scale < np.inf:
            raise ValueError("proposal_scale must be positive and finite")
        if not (is_count(self.forward_order) and self.forward_order > 0):
            raise ValueError("forward_order must be a positive integer")
        if not (is_count(self.seed) and self.seed >= 0):
            raise ValueError("seed must be non-negative and an integer")
        if not (self.init is None or isinstance(self.init, ParamVector)):
            raise ValueError("init must be a ParamVector or None")


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


# The certificate and the exact solve that the sampler and
# analysis.curve_ensemble share; the bounds are derived in _Posterior's
# docstring.


def _loewner_factors(qx: np.ndarray, det_x: float, qy: np.ndarray):
    """(beta, alpha) with alpha A(x) <= A(y) <= beta A(x) in the Loewner
    order, for the ratios q = (c11, c13, c33, c55) / rho of x and y and
    det_x = qx11 qx33 - qx13^2: the extreme generalized eigenvalues of their
    2x2 blocks, bounded by the ratio of their q55; NaN unless both 2x2
    blocks are positive definite, so that no bound from them holds."""
    det = qy[0] * qy[2] - qy[1] * qy[1]
    b = qy[0] * qx[2] + qy[2] * qx[0] - 2 * qy[1] * qx[1]
    if not (det_x > 0 and det > 0 and b > 0):
        return math.nan, math.nan
    # the 2x2 generalized eigenvalues by the stable quadratic roots
    root = b + math.sqrt(max(b * b - 4 * det_x * det, 0.0))
    shear = qy[3] / qx[3]
    return min(2 * det / root, shear), max(root / (2 * det_x), shear)


def _inverse_iteration(blocks: np.ndarray, shift: np.ndarray,
                       start: np.ndarray):
    """The unit (blocks - shift I)^-1 start of every pair, by one batched
    solve; None where a solve is singular or not finite."""
    n = blocks.shape[-1]
    shifted = blocks.copy()
    shifted.reshape(-1, n * n)[:, ::n + 1] -= shift[:, None]  # the diagonals
    try:
        w = np.linalg.solve(shifted, start[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(w).all():
        return None
    w /= np.abs(w).max(axis=1)[:, None]  # so that squaring cannot overflow
    return w / np.sqrt((w * w).sum(axis=1))[:, None]


class _Anchor:
    """The top eigenpairs of one material's blocks A(q) = q @ C, and the
    bounds they give at any other material: the ratios q and det(Q), the
    unit top eigenvectors v, the top eigenvalues lam1, upper bounds lam2 on
    the second eigenvalues and norm on |A|, the product prod of the betas
    since an eigensolve gave them, and m = [C_j v, v^T C_j v], so that
    q' @ m is A(q') v and the Rayleigh quotients of v at q' (v^T C_j v is
    d lambda_1 / d q_j)."""

    def __init__(self, q, c, v, lam1, lam2, norm, prod=1.0):
        self.q = q = q.tolist()  # python floats: the fastest scalar arithmetic
        self.c, self.v, self.lam1, self.lam2, self.norm, self.prod = (
            c, v, lam1, lam2, norm, prod)
        self.det = q[0] * q[2] - q[1] * q[1]

    @cached_property
    def m(self) -> np.ndarray:
        """Formed on the first bounds call, as the anchor of a rejected
        evaluation bounds nothing."""
        w = (self.c @ self.v[:, :, None])[..., 0]  # [4, blocks, n]
        return np.concatenate([w.reshape(4, -1), (w * self.v).sum(axis=2)],
                              axis=1)

    def bounds(self, q: np.ndarray):
        """(beta, rq, resid, lam2, norm) at every row of the ratios q
        [materials, 4]: the Loewner factors beta [materials] and, per
        material and block, the Rayleigh quotients rq and residuals
        A(q) v - rq v of v, and the bounds lam2(q) <= beta lam2 and
        |A(q)| <= alpha |A|, lam2's widened by 1e-12 alpha |A| for
        rounding; NaN where no Loewner factor exists."""
        beta, alpha = np.array([_loewner_factors(self.q, self.det, row)
                                for row in q.tolist()]).T
        n = self.v.shape[0]
        prod = q @ self.m
        rq = prod[:, -n:]
        resid = prod[:, :-n].reshape(-1, *self.v.shape) - rq[..., None] * self.v
        norm = alpha[:, None] * self.norm
        lam2 = beta[:, None] * self.lam2 + _SCREEN_NORM * alpha[:, None] * self.norm
        return beta, rq, resid, lam2, norm


def _certify(blocks: np.ndarray, v: np.ndarray, shift: np.ndarray,
             lam2: np.ndarray):
    """(w, lam): at most two batched Rayleigh-quotient steps from the unit
    v and shift of every block, the second only on the blocks that the
    first left uncertified.  w holds each block's last unit iterate and lam
    its Rayleigh quotient where that is certified: Kato-Temple's interval
    [lam, lam + |A w - lam w|^2 / (lam - lam2)] for the top eigenvalue,
    given the upper bound lam2 on the second, is at most 1e-13 |lam| wide.
    lam is NaN where a block is left uncertified, or its solve singular or
    not finite."""
    w, lam, todo = v, np.full(shift.shape, np.nan), None
    for _ in range(2):
        u = _inverse_iteration(blocks, shift, v)
        if u is None:
            break
        au = (blocks @ u[..., None])[..., 0]
        shift = (u * au).sum(axis=1)
        resid = au - shift[:, None] * u
        gap = shift - lam2
        ok = (gap > 0) & ((resid * resid).sum(axis=1)
                          <= _CERTIFY_REL * np.abs(shift) * gap)
        if todo is None:
            if ok.all():
                return u, shift  # no copies where the first step certifies all
            w, todo = u, np.arange(shift.size)
        w[todo], lam[todo[ok]] = u, shift[ok]
        todo, blocks, v, shift, lam2 = (a[~ok] for a in (todo, blocks, u,
                                                         shift, lam2))
    return w, lam


def _solve(q: np.ndarray, c: np.ndarray, blocks: np.ndarray):
    """(top, anchor) of the blocks q @ c of the ratios q, by eigvalsh: top
    the top negative eigenvalue of every block, NaN where it has none, and
    anchor their _Anchor, None unless every block is negative definite.
    The anchor's v is one step of inverse iteration from a shift just above
    each top eigenvalue, eigh's eigenvectors only where that solve is
    singular; the bounds hold for any unit v, only their width depends on
    how close v is to the eigenvector."""
    lams = np.linalg.eigvalsh(blocks)
    lam1, anchor = lams[:, -1], None
    if np.all(lam1 < 0):
        v = _inverse_iteration(blocks, lam1 * (1 - 1e-10),
                               np.ones(lam1.shape + blocks.shape[-1:]))
        if v is None:
            v = np.linalg.eigh(blocks)[1][..., -1]
        anchor = _Anchor(q, c, v, lam1, lams[:, -2], -lams[:, 0])
    return _top_negative(lams), anchor


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
    in the Loewner order (_loewner_factors).  Each pair's top
    eigenvalue lambda(y) = -c_p^2 then lies between the Rayleigh quotient
    rho_y = v^T A(y) v of x's top eigenvector v and the smaller of
    beta lambda_1(x) and Kato-Temple's
    rho_y + |A(y) v - rho_y v|^2 / (rho_y - beta lambda_2(x)),
    as lambda_2(y) <= beta lambda_2(x).  The distance of each observed omega
    to [c_lo k, c_hi k] bounds its residual from below.

    The accepted state's data are its _Anchor, and a proposal the screen
    bounded is evaluated from it by _certify instead of an eigensolve: a
    batched solve (A(y) - rho_y I) w = v, a second from the first's w and
    Rayleigh quotient only on the pairs it left uncertified, each pair's
    lambda_1 the Rayleigh quotient of the unit w, certified when the
    Kato-Temple width |r|^2 / (lambda_1 - beta lambda_2(x)) is at most
    1e-13 |lambda_1|; if any pair is not certified, the evaluation runs
    _solve.  Every exact evaluation returns its y's anchor, which becomes
    the accepted state's if y is accepted: a certified one hands over its
    unit w and chains the bounds (lambda_2(y) <= beta lambda_2(x),
    |A(y)| <= alpha |A(x)|), a _solve one takes eigvalsh's spectrum and one
    shifted solve.  A _solve evaluation re-anchors the chained bounds once
    the product of their betas would fall below 0.8.
    """

    def __init__(self, obs: ObservationSet | None, priors: PriorSpec | None,
                 plate: PlateSpec, order: int):
        self.obs, self.priors = obs, priors
        self.anchor = None  # the accepted state's _Anchor
        if obs is None:
            return
        if len(obs) == 0:
            raise ValueError("observation set is empty")
        self.c = _pair_basis(obs.pair_k * plate.thickness, obs.pair_branch,
                             order)
        self.log_norm = -0.5 * len(obs) * math.log(2 * math.pi)

    def log_likelihood(self, x: np.ndarray, ahead=None):
        """(log likelihood, anchor) at a finite x, certified from the
        screen's data ahead (see eigen_bounds) where they are given and
        certify every pair, else by _solve.  anchor is x's _Anchor, None
        where no eigensolve ran or a block is not negative definite."""
        c11, c13, c33, c55, rho, sigma = x
        # c13^2 >= c11 c33: the 1-3 stiffness block is not positive definite
        if not (sigma > 0 and min(c11, c13, c33, c55, rho) > 0
                and c13 ** 2 < c11 * c33):
            return -np.inf, None
        q = x[:4] / rho
        blocks = (q @ self.c.reshape(4, -1)).reshape(self.c.shape[1:])
        anchor = None
        if ahead is not None:
            v, top = _certify(blocks, *ahead[:3])
            if not np.isnan(top).any():
                # no sign test: the screen proved every upper bound negative,
                # and a Rayleigh quotient lies below the top eigenvalue
                anchor = _Anchor(q, self.c, v, top, *ahead[2:])
        if anchor is None:
            top, anchor = _solve(q, self.c, blocks)
            if np.isnan(top).any():
                return -np.inf, None
        obs = self.obs
        resid = obs.omega - np.sqrt(-top)[obs.pair_index] * obs.k
        return float(
            -len(obs) * math.log(sigma) + self.log_norm
            - 0.5 * float(resid @ resid) / sigma**2
        ), anchor

    def log_posterior(self, x: np.ndarray, floor: float = -math.inf):
        """(log posterior, anchor of its likelihood) at x; -inf where an
        entry of x is not finite, and (-inf, None) with no eigensolve where
        the screen proves it below floor."""
        lp = self.priors.logpdf(x)
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
        ll, anchor = self.log_likelihood(x, None if eig is None else eig[2])
        return lp + ll, anchor

    def eigen_bounds(self, y: np.ndarray):
        """(lo, up, ahead): lo and up bound every observed pair's top
        eigenvalue at y, widened for rounding, and ahead is the data from
        which log_likelihood certifies y, or None; None where an entry of
        y is not positive or no negative bound holds.  y is finite, as
        log_posterior calls this only where the prior is finite."""
        anchor = self.anchor
        if anchor is None or not y.min() > 0:
            return None
        beta, rq, resid, lam2, norm = (
            b[0] for b in anchor.bounds(y[None, :4] / y[4]))
        gap = rq - lam2
        if not np.all(gap > 0):
            return None
        up = np.minimum(beta * anchor.lam1, rq + (resid * resid).sum(axis=1) / gap)
        slack = _SCREEN_NORM * norm
        up += _SCREEN_REL * np.abs(up) + slack
        if not np.all(up < 0):
            return None
        prod = beta * anchor.prod
        ahead = (anchor.v, rq, lam2, norm, prod) if prod >= _REANCHOR else None
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
    posteriors differ from it by less than eigvalsh's rounding carried
    through the misfit (see the module docstring): 1e-10 relative unless
    sigma lies far below the residuals.  Prior-only chains evaluate every
    proposal.
    """
    d = len(PARAM_NAMES)
    rng = np.random.default_rng(cfg.seed)
    post = _Posterior(obs, priors, plate, cfg.forward_order)

    if cfg.init is not None:
        x = cfg.init.to_array()
        lp, anchor = post.log_posterior(x)
        if lp == -np.inf:
            raise InitializationError("supplied init has -inf posterior")
    else:
        lp = -np.inf
        for _ in range(100):
            x = priors.sample(rng)
            lp, anchor = post.log_posterior(x)
            if lp > -np.inf:
                break
        else:
            raise InitializationError(
                "no finite-posterior start found in 100 prior draws"
            )

    post.anchor = anchor
    base_sd = np.sqrt(priors.var)
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
        lp_prop, anchor = post.log_posterior(prop, lp + log_u - _SCREEN_MARGIN)
        # log u < 0, and -inf (or NaN) proposals are always rejected
        accept = log_u < lp_prop - lp
        if accept:
            x, lp, post.anchor = prop, lp_prop, anchor
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
    meta, values = textio.read_floats(path, _CHAIN_HEADER, 1, 8)
    first = dict(meta)
    return Chain(
        samples=np.ascontiguousarray(values[:, :6]),
        log_posts=values[:, 6].copy(),
        accepted=values[:, 7].astype(bool),
        warmup_len=int(first.get("warmup_len", 0)),
        seed=int(first.get("seed", 0)),
        warnings=[value for key, value in meta if key == "warning"],
    )
