"""Posterior summaries, Monte Carlo standard errors, and curve ensembles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import textio
from .bayes import PARAM_NAMES, Chain, ParamVector
from .dispersion import (Mode, PlateSpec, TracingError, _check_order,
                         _checked_k_grid, branch_cp)

__all__ = [
    "ParamSummary",
    "PosteriorSummary",
    "CurveEnsemble",
    "summarize",
    "curve_ensemble",
    "mc_standard_error",
    "write_summary",
    "write_ensemble",
]

MIN_SUMMARY_SAMPLES = 100
_LABELS = tuple(mode.value for mode in Mode)  # "A0", "S0", as in ensemble files


@dataclass(frozen=True)
class ParamSummary:
    mean: float
    variance: float
    kde_mode: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class PosteriorSummary:
    params: dict  # name -> ParamSummary

    def __getitem__(self, name: str) -> ParamSummary:
        return self.params[name]


_KDE_POINTS = 512


def _kde_mode(x: np.ndarray) -> float:
    """Mode of a Gaussian kernel density estimate with Silverman's bandwidth
    (sd with ddof=1), as the best of 512 points spanning [min(x), max(x)].
    The density is binned (Silverman 1982, algorithm AS 176): the draws
    are linearly binned onto the grid and the counts convolved, by a
    zero-padded FFT, with the kernel truncated at 5 bandwidths."""
    lo, hi = x.min(), x.max()
    if lo == hi:
        return float(lo)
    grid = np.linspace(lo, hi, _KDE_POINTS)
    step = grid[1] - grid[0]
    pos = (x - lo) / step
    left = np.minimum(pos.astype(int), _KDE_POINTS - 2)
    frac = pos - left
    counts = (np.bincount(left, 1 - frac, _KDE_POINTS)
              + np.bincount(left + 1, frac, _KDE_POINTS))
    bandwidth = np.std(x, ddof=1) * (0.75 * x.size) ** -0.2
    half = min(math.ceil(5 * bandwidth / step), _KDE_POINTS - 1)
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1) * step / bandwidth) ** 2)
    size = _KDE_POINTS + 2 * half
    density = np.fft.irfft(np.fft.rfft(counts, size) * np.fft.rfft(kernel, size),
                           size)[half:half + _KDE_POINTS]
    return float(grid[np.argmax(density)])


def summarize(chain: Chain) -> PosteriorSummary:
    """Mean, unbiased variance, mode of the binned Gaussian KDE (_kde_mode),
    and 95% equal-tailed interval."""
    draws = chain.post_warmup
    if draws.shape[0] < MIN_SUMMARY_SAMPLES:
        raise ValueError(
            f"too few samples: {draws.shape[0]} < {MIN_SUMMARY_SAMPLES}"
        )
    params = {}
    for i, name in enumerate(PARAM_NAMES):
        x = draws[:, i]
        lo, hi = np.quantile(x, [0.025, 0.975])
        params[name] = ParamSummary(
            mean=float(np.mean(x)),
            variance=float(np.var(x, ddof=1)),
            kde_mode=_kde_mode(x),
            ci_lo=float(lo),
            ci_hi=float(hi),
        )
    return PosteriorSummary(params=params)


@dataclass
class CurveEnsemble:
    """Forward-solved dispersion curves for thinned posterior samples."""

    k_grid: np.ndarray
    omega: dict  # mode -> [n_members, n_k]
    c_g: dict | None  # mode -> [n_members, n_k] or None
    sample_ids: np.ndarray
    n_skipped: int

    @property
    def size(self) -> int:
        return self.sample_ids.size


def curve_ensemble(
    chain: Chain,
    plate: PlateSpec,
    k_grid: np.ndarray,
    with_cg: bool = False,
    order: int = 10,
    max_solves: int = 500,
) -> CurveEnsemble:
    """Forward-solve evenly thinned post-warmup samples over the grid.

    The grid (as trace_curves checks it) and the order are checked once,
    before any solve; with_cg needs 3 points.  The thinning step caps the
    ensemble at max_solves members, one branch_cp call each.  Samples that
    are no material, or whose solve is rejected or NaN anywhere on the
    grid, are skipped and counted; more than half skipped raises (the posterior is
    inconsistent with the model).  Each member's "A0" is its slower branch
    at every k and "S0" the faster: the order ensemble files have always
    had, and the one the benchmark's ensemble check (bench/checks.py)
    expects.  It differs from trace_curves' parity labels only past an
    A0/S0 crossing.  c_g is d omega / d k by group_velocity's differences.
    A max_solves below 1 is a ValueError, raised before any solve too.
    """
    k_grid = _checked_k_grid(k_grid)
    if with_cg and k_grid.size < 3:
        raise ValueError("group velocity needs at least 3 points")
    if max_solves < 1:  # 0 divides by zero and below it solves every row
        raise ValueError("max_solves must be at least 1")
    _check_order(order)
    draws = chain.post_warmup
    step = max(1, math.ceil(draws.shape[0] / max_solves))
    idx = np.arange(0, draws.shape[0], step)
    kh = k_grid * plate.thickness

    kept, cps = [], []
    for i in idx:
        try:
            material = ParamVector.from_array(draws[i]).material()
            member = branch_cp(material, kh, order)
        except (ValueError, TracingError):
            continue
        if not np.isnan(member).any():
            kept.append(i)
            cps.append(member)
    skipped = idx.size - len(kept)
    if skipped > 0.5 * idx.size:
        raise TracingError(
            f"{skipped}/{idx.size} ensemble members failed to solve; "
            "posterior is inconsistent with the model"
        )
    cps = np.sort(np.reshape(cps, (len(kept), k_grid.size, 2)), axis=-1)
    omega = np.moveaxis(cps, -1, 0) * k_grid  # [slower/faster, member, k]
    c_g = np.gradient(omega, k_grid, axis=-1, edge_order=2) if with_cg else None
    return CurveEnsemble(
        k_grid=k_grid,
        omega=dict(zip(_LABELS, omega)),
        c_g=dict(zip(_LABELS, c_g)) if with_cg else None,
        sample_ids=np.asarray(kept, dtype=int),
        n_skipped=skipped,
    )


def mc_standard_error(x: np.ndarray) -> float:
    """Batch-means Monte Carlo standard error of the sample mean, over 50
    batches (fewer when x has under 100 entries); ValueError for under 2."""
    n = x.size
    if n < 2:
        raise ValueError(f"need at least 2 entries, got {n}")
    batches = 50 if n >= 100 else max(2, n // 2)
    size = n // batches
    means = x[: size * batches].reshape(batches, size).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(batches))


_SUMMARY_HEADER = "parameter,mean,mode,variance,ci_lo,ci_hi"


def write_summary(path, summary: PosteriorSummary) -> None:
    fields = ("mean", "kde_mode", "variance", "ci_lo", "ci_hi")
    textio.write_table(
        path, _SUMMARY_HEADER,
        [PARAM_NAMES, *([getattr(summary[name], f) for name in PARAM_NAMES]
                        for f in fields)],
        comments=[("units: c11..c55 Pa, rho kg/m^3, sigma rad/s",)],
    )


def write_ensemble(path, ens: CurveEnsemble) -> None:
    """Long-format ensemble export: sample_id, mode, k, omega[, c_g]."""
    modes = _LABELS
    members, n_k = ens.sample_ids.size, ens.k_grid.size
    columns = [
        np.tile(np.repeat(ens.sample_ids, n_k), len(modes)),
        np.repeat(modes, members * n_k),
        np.tile(ens.k_grid, len(modes) * members),
        np.concatenate([ens.omega[m].ravel() for m in modes]),
    ]
    header = "sample_id,mode,k_rad_m,omega_rad_s"
    if ens.c_g is not None:
        columns.append(np.concatenate([ens.c_g[m].ravel() for m in modes]))
        header += ",c_g_m_s"
    textio.write_table(path, header, columns)
