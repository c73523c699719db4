"""Posterior summaries, kernel density estimates, and curve ensembles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import gaussian_kde

from .bayes import PARAM_NAMES, Chain, ParamVector
from .dispersion import PlateSpec, TracingError, group_velocity, trace_curves

__all__ = [
    "ParamSummary",
    "PosteriorSummary",
    "CurveEnsemble",
    "summarize",
    "kde_bivariate",
    "curve_ensemble",
    "mc_standard_error",
    "split_half_diagnostic",
    "write_summary",
    "write_ensemble",
    "write_density_grid",
    "read_density_grid",
]

MIN_SUMMARY_SAMPLES = 100


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


def _kde_mode(x: np.ndarray) -> float:
    lo, hi = x.min(), x.max()
    if lo == hi:
        return float(lo)
    kde = gaussian_kde(x, "silverman")
    grid = np.linspace(lo, hi, 512)
    return float(grid[np.argmax(kde(grid))])


def summarize(chain: Chain) -> PosteriorSummary:
    """Mean, unbiased variance, KDE mode, and 95% equal-tailed interval."""
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


def kde_bivariate(
    chain: Chain,
    param_pair: tuple[str, str],
    grid_size: int = 128,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bivariate Gaussian KDE (Silverman bandwidth) on a grid padded by
    three bandwidths.

    Returns (x_axis, y_axis, density[y, x]); the density integrates to one
    within 1% on the returned grid (trapezoidal check).
    """
    draws = chain.post_warmup
    if draws.shape[0] < MIN_SUMMARY_SAMPLES:
        raise ValueError("too few samples for a bivariate KDE")
    cols = []
    for name in param_pair:
        x = draws[:, PARAM_NAMES.index(name)]
        if np.var(x) == 0:
            raise ValueError(f"parameter {name} has zero variance")
        cols.append(x)
    data = np.vstack(cols)
    kde = gaussian_kde(data, "silverman")
    bw = np.sqrt(np.diag(kde.covariance))
    axes = []
    for row, h in zip(data, bw):
        axes.append(np.linspace(row.min() - 3 * h, row.max() + 3 * h, grid_size))
    xg, yg = np.meshgrid(axes[0], axes[1])
    density = kde(np.vstack([xg.ravel(), yg.ravel()])).reshape(grid_size, grid_size)
    total = np.trapezoid(np.trapezoid(density, axes[0], axis=1), axes[1])
    if not 0.99 <= total <= 1.01:
        raise AssertionError(f"bivariate KDE integrates to {total:.4f}")
    return axes[0], axes[1], density


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

    The thinning step caps the ensemble at max_solves members.  Samples
    whose solve fails anywhere on the grid are skipped and counted; more
    than half skipped raises (the posterior is inconsistent with the model).
    """
    draws = chain.post_warmup
    step = max(1, math.ceil(draws.shape[0] / max_solves))
    idx = np.arange(0, draws.shape[0], step)
    k_grid = np.asarray(k_grid, dtype=float)

    omegas: dict[str, list] = {"A0": [], "S0": []}
    cgs: dict[str, list] = {"A0": [], "S0": []}
    kept, skipped = [], 0
    for i in idx:
        theta = ParamVector.from_array(draws[i])
        try:
            material = theta.material()
            a0, s0 = trace_curves(
                material, plate, k_grid, order=order, method="dense",
                max_excluded_fraction=0.0,
            )
        except (ValueError, TracingError):
            skipped += 1
            continue
        if a0.k.size != k_grid.size:
            skipped += 1
            continue
        for mode, curve in (("A0", a0), ("S0", s0)):
            if with_cg:
                curve = group_velocity(curve)
                cgs[mode].append(curve.c_g)
            omegas[mode].append(curve.omega)
        kept.append(i)
    if skipped > 0.5 * idx.size:
        raise TracingError(
            f"{skipped}/{idx.size} ensemble members failed to solve; "
            "posterior is inconsistent with the model"
        )
    return CurveEnsemble(
        k_grid=k_grid,
        omega={m: np.asarray(v) for m, v in omegas.items()},
        c_g={m: np.asarray(v) for m, v in cgs.items()} if with_cg else None,
        sample_ids=np.asarray(kept, dtype=int),
        n_skipped=skipped,
    )


def mc_standard_error(x: np.ndarray) -> float:
    """Batch-means Monte Carlo standard error of the sample mean, over 50
    batches (fewer when x has under 100 entries)."""
    n = x.size
    batches = 50 if n >= 100 else max(2, n // 2)
    size = n // batches
    means = x[: size * batches].reshape(batches, size).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(batches))


def split_half_diagnostic(chain: Chain) -> dict:
    """Per-parameter |mean difference| between chain halves in MCSE units."""
    draws = chain.post_warmup
    half = draws.shape[0] // 2
    out = {}
    for i, name in enumerate(PARAM_NAMES):
        a, b = draws[:half, i], draws[half: 2 * half, i]
        se = math.hypot(mc_standard_error(a), mc_standard_error(b))
        out[name] = abs(a.mean() - b.mean()) / se if se > 0 else 0.0
    return out


_SUMMARY_HEADER = "parameter,mean,mode,variance,ci_lo,ci_hi"


def write_summary(path, summary: PosteriorSummary) -> None:
    with open(path, "w") as fh:
        fh.write("# units: c11..c55 Pa, rho kg/m^3, sigma rad/s\n")
        fh.write(_SUMMARY_HEADER + "\n")
        for name in PARAM_NAMES:
            s = summary[name]
            fh.write(
                f"{name},{s.mean:.12g},{s.kde_mode:.12g},{s.variance:.12g},"
                f"{s.ci_lo:.12g},{s.ci_hi:.12g}\n"
            )


def write_ensemble(path, ens: CurveEnsemble) -> None:
    """Long-format ensemble export: sample_id, mode, k, omega[, c_g]."""
    with_cg = ens.c_g is not None
    header = "sample_id,mode,k_rad_m,omega_rad_s" + (",c_g_m_s" if with_cg else "")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for mode in ("A0", "S0"):
            om = ens.omega[mode]
            for row, sid in enumerate(ens.sample_ids):
                for col, k in enumerate(ens.k_grid):
                    line = f"{sid},{mode},{k:.12g},{om[row, col]:.12g}"
                    if with_cg:
                        line += f",{ens.c_g[mode][row, col]:.12g}"
                    fh.write(line + "\n")


def write_density_grid(path_prefix, x_axis, y_axis, density) -> None:
    """Delimited density matrix plus axis sidecars."""
    np.savetxt(f"{path_prefix}.csv", density, delimiter=",")
    np.savetxt(f"{path_prefix}_x.csv", x_axis, delimiter=",")
    np.savetxt(f"{path_prefix}_y.csv", y_axis, delimiter=",")


def read_density_grid(path_prefix):
    """Inverse of write_density_grid: (x_axis, y_axis, density)."""
    density = np.loadtxt(f"{path_prefix}.csv", delimiter=",")
    x_axis = np.loadtxt(f"{path_prefix}_x.csv", delimiter=",")
    y_axis = np.loadtxt(f"{path_prefix}_y.csv", delimiter=",")
    return x_axis, y_axis, density
