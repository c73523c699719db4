"""Lamb-wave dispersion curves and Bayesian identification of orthotropic
elastic constants.

Subpackages:
    legendre    - closed-form Legendre-basis integral tables (NT1/NT2)
    dispersion  - eigenproblem assembly, solvers, curve tracing
    wavefield   - synthetic wavefields, 2DFT, ridge picking
    bayes       - likelihood, priors, adaptive Metropolis sampling
    analysis    - posterior summaries, Monte Carlo errors, curve ensembles
    textio      - the comma-separated table format of every CSV file
    cli         - batch command-line front end
"""

from .dispersion import (
    DispersionCurve,
    ElasticConstants,
    Mode,
    PlateSpec,
    engineering_to_constants,
    group_velocity,
    trace_curves,
)
from .bayes import Chain, ParamVector, SamplerConfig, default_priors, mcmc_sample
from .wavefield import DispersionImage, ObservationSet, TXField

__all__ = [
    "Chain",
    "DispersionCurve",
    "DispersionImage",
    "ElasticConstants",
    "Mode",
    "ObservationSet",
    "ParamVector",
    "PlateSpec",
    "SamplerConfig",
    "TXField",
    "default_priors",
    "engineering_to_constants",
    "group_velocity",
    "mcmc_sample",
    "trace_curves",
]

__version__ = "0.1.0"
