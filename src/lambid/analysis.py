"""Posterior summaries, Monte Carlo standard errors, and curve ensembles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import textio
from .bayes import PARAM_NAMES, Chain, _certify, _solve
from .dispersion import (Mode, PlateSpec, TracingError, _check_order,
                         _checked_k_grid, _pair_basis)

__all__ = [
    "ParamSummary",
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


def summarize(chain: Chain) -> dict:
    """{name: ParamSummary} in PARAM_NAMES order: mean, unbiased variance,
    mode of the binned Gaussian KDE (_kde_mode), and 95% equal-tailed
    interval."""
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
    return params


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
    ensemble at max_solves members.  Samples that are no material (one of
    c11..rho not positive, or c13^2 >= c11 c33), or whose solve is NaN
    anywhere on the grid, are skipped and counted; more than half skipped
    raises (the posterior is inconsistent with the model).  The members
    are solved together by _member_cp, by the sampler's exact solve and
    certificate, so they are branch_cp's phase velocities up to eigvalsh's
    own rounding.  Each member's "A0" is its slower branch at every k and
    "S0" the faster: the order ensemble files have always had, and the one
    the benchmark's ensemble check (bench/checks.py) expects.  It differs
    from trace_curves' parity labels only past an A0/S0 crossing.  c_g is
    d omega / d k by group_velocity's differences.  A max_solves below 1 is
    a ValueError, raised before any solve too.
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

    rows = draws[idx, :5]  # c11, c13, c33, c55, rho
    physical = ((rows > 0).all(axis=1)  # chain samples are finite
                & (rows[:, 1] ** 2 < rows[:, 0] * rows[:, 2]))
    rows = rows[physical]
    cps = _member_cp(rows[:, :4] / rows[:, 4:5], k_grid * plate.thickness, order)
    solved = ~np.isnan(cps).any(axis=(1, 2))
    kept = idx[physical][solved]
    skipped = idx.size - kept.size
    if skipped > 0.5 * idx.size:
        raise TracingError(
            f"{skipped}/{idx.size} ensemble members failed to solve; "
            "posterior is inconsistent with the model"
        )
    cps = np.sort(cps[solved], axis=-1)
    omega = np.moveaxis(cps, -1, 0) * k_grid  # [slower/faster, member, k]
    c_g = np.gradient(omega, k_grid, axis=-1, edge_order=2) if with_cg else None
    return CurveEnsemble(
        k_grid=k_grid,
        omega=dict(zip(_LABELS, omega)),
        c_g=dict(zip(_LABELS, c_g)) if with_cg else None,
        sample_ids=kept,
        n_skipped=skipped,
    )


_CHUNK = 8  # members whose blocks one batched certificate covers


def _member_cp(qs: np.ndarray, kh: np.ndarray, order: int) -> np.ndarray:
    """Phase velocities [member, kh, (A0, S0)] of every ratio vector
    q = (c11, c13, c33, c55) / rho in qs, as branch_cp gives them up to
    eigvalsh's rounding; NaN where a block has no negative eigenvalue.

    The blocks of both parities at every kh are q @ C, with C from
    dispersion._pair_basis, formed _CHUNK members at a time.  The first
    member is solved by the sampler's exact solve, bayes._solve: eigvalsh,
    and one shifted solve for its _Anchor.  Every later member is certified
    from the anchor, a chunk at a time, by one call of bayes._certify: a
    Rayleigh-quotient step on every block, a second only on the blocks the
    first left uncertified, each certified by Kato-Temple to within 1e-13
    relative of its top eigenvalue.  A member with a block left uncertified
    or not negative is solved by _solve too, and becomes the anchor when
    all its blocks are negative definite.
    """
    n_k, size = kh.size, order + 1
    c = _pair_basis(np.tile(kh, 2), np.repeat([0, 1], n_k), order)
    tops = np.empty((qs.shape[0], 2 * n_k))
    anchor = None
    for start in range(0, qs.shape[0], _CHUNK):
        q = qs[start:start + _CHUNK]
        blocks = (q @ c.reshape(4, -1)).reshape(-1, *c.shape[1:])
        todo = np.arange(q.shape[0])
        if anchor is None:
            tops[start], anchor = _solve(q[0], c, blocks[0])
            todo = todo[1:]
        if anchor is not None and todo.size:
            _, shift, _, lam2, _ = anchor.bounds(q[todo])
            _, lam = _certify(blocks[todo].reshape(-1, size, size),
                              np.tile(anchor.v, (todo.size, 1)),
                              shift.ravel(), lam2.ravel())
            lam = lam.reshape(todo.size, -1)
            certified = (lam < 0).all(axis=1)
            tops[start + todo[certified]] = lam[certified]
            todo = todo[~certified]
        for j in todo:
            tops[start + j], new = _solve(q[j], c, blocks[j])
            anchor = new or anchor
    return np.sqrt(-tops).reshape(-1, 2, n_k).transpose(0, 2, 1)


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


def write_summary(path, summary: dict) -> None:
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
