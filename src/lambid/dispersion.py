"""Orthotropic Lamb-wave dispersion eigenproblem and curve tracing.

The through-thickness expansion turns the coupled wave equations into a
2(M+1) x 2(M+1) eigenvalue problem whose eigenvalues are -c_p^2.  The
off-diagonal coupling blocks are purely imaginary, so the problem is recast
with real arithmetic only, and the realified matrix is symmetric.  It is
linear in q = (c11, c13, c33, c55) / rho, with no constant term, and
quadratic in s = 2/kh: A(kh) = sum_j q_j sum_p s^p B[j, p].  The basis B is
material-free, built once per order and read-only, so dA/dq_j is slice j of
it and A depends on the material through the ratios q alone.  The plate is
symmetric about its mid-plane and Legendre polynomials have parity (-1)^m,
so A and B split exactly into an antisymmetric block (u1 odd, u3 even),
which holds A0, and a symmetric block (u1 even, u3 odd), which holds S0,
each (M+1) x (M+1).  branch_cp assembles both blocks at every kh of a curve
grid as one stack and solves it in one batched symmetric eigensolve.  The
likelihood and the curve ensemble contract q with each (kh, branch) pair's
C_j = sum_p s^p B[j, p] (_pair_basis).
Each mode is the smallest-magnitude negative eigenvalue of its own block,
so the labels are exact where A0 and S0 cross.
Deflated inverse power iteration, the paper's solver, is inverse_power_eigs:
one vectorised iteration over a whole stack of blocks.  branch_cp runs it with
method="power" and gives the same eigenvalues at about 1.5 times the dense
cost.  smallest_physical_cp solves one full realified system densely; it is
the unlabelled per-k reference of the benchmark's checks.  The curves fix kh
and ask for c_p; k_grid_for_fh_band asks the converse, the kh at which a mode
reaches a given fh, and because A is quadratic in s that is one quadratic
eigenproblem in kh per band edge, with no root search.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from . import textio
from .legendre import reference_tables

__all__ = [
    "ElasticConstants",
    "PlateSpec",
    "SystemMatrices",
    "DispersionCurve",
    "Mode",
    "TracingError",
    "engineering_to_constants",
    "assemble_system",
    "branch_cp",
    "realify",
    "inverse_power_eigs",
    "smallest_physical_cp",
    "trace_curves",
    "group_velocity",
    "sensitivity_sweep",
    "k_grid_for_fh_band",
    "write_curves",
]

class Mode(str, Enum):
    """A fundamental Lamb mode.  The declaration order is the branch index
    of branch_cp's columns and _pair_basis: A0 = 0 (the antisymmetric block),
    S0 = 1."""

    A0 = "A0"
    S0 = "S0"

    @property
    def branch(self) -> int:
        return list(Mode).index(self)


class TracingError(RuntimeError):
    """Curve tracing failed on too large a fraction of the grid."""


@dataclass(frozen=True)
class ElasticConstants:
    """Orthotropic stiffness entries (Pa) and density (kg/m^3).

    c31 is not stored; it equals c13 by symmetry of the stiffness tensor.
    """

    c11: float
    c13: float
    c33: float
    c55: float
    rho: float

    def __post_init__(self):
        for f in fields(self):
            if not 0 < getattr(self, f.name) < np.inf:
                raise ValueError(f"{f.name} must be strictly positive and finite")


@dataclass(frozen=True)
class PlateSpec:
    """Plate geometry: thickness h in metres."""

    thickness: float

    def __post_init__(self):
        if not 0 < self.thickness < np.inf:
            raise ValueError("thickness must be positive and finite")


@dataclass(frozen=True)
class SystemMatrices:
    """Assembled eigenproblem blocks at one (theta, kh, M).

    The basis is orthonormal, so the mass matrix is the identity and is not
    stored.  a13_im and a31_im hold the imaginary parts of the coupling
    blocks; the full complex blocks are i * a13_im and i * a31_im (their
    real parts are identically zero by construction).
    """

    a11: np.ndarray
    a33: np.ndarray
    a13_im: np.ndarray
    a31_im: np.ndarray


@dataclass
class DispersionCurve:
    """Sampled dispersion branch of one fundamental mode."""

    mode_label: Mode
    k: np.ndarray
    omega: np.ndarray
    c_p: np.ndarray
    c_g: np.ndarray | None = None
    order: int | None = None  # expansion order that trace_curves used

    def __post_init__(self):
        n = len(self.k)
        if not (len(self.omega) == len(self.c_p) == n):
            raise ValueError("curve arrays must have equal length")
        if n > 1 and not np.all(np.diff(self.k) > 0):
            raise ValueError("k must be strictly increasing")


def engineering_to_constants(
    e11: float,
    e22: float,
    g12: float,
    nu12: float,
    nu21: float,
    rho: float,
) -> ElasticConstants:
    """Invert plane orthotropic compliance to stiffness entries.

    The propagation/thickness (1-3) plane compliance is inverted; the two
    off-diagonal stiffness estimates (nu12*e22 and nu21*e11 routes) are
    averaged because tabulated engineering constants rarely satisfy the
    reciprocity relation exactly.
    """
    if e11 <= 0 or e22 <= 0 or g12 <= 0:
        raise ValueError("moduli must be positive")
    if rho <= 0:
        raise ValueError("density must be positive")
    det = 1.0 - nu12 * nu21
    if det <= 0:
        raise ValueError("compliance is not positive definite (nu12*nu21 >= 1)")
    c11 = e11 / det
    c33 = e22 / det
    c13 = 0.5 * (nu12 * e22 + nu21 * e11) / det
    if c11 * c33 <= c13 * c13:
        raise ValueError("resulting stiffness is not positive definite")
    if c13 <= 0:
        raise ValueError(
            "off-diagonal stiffness c13 is non-positive; the dispersion "
            "model requires strictly positive stiffness entries"
        )
    return ElasticConstants(c11=c11, c13=c13, c33=c33, c55=g12, rho=rho)


@lru_cache(maxsize=32)
def _basis(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only basis B[j, p], coefficient of q_j s^p in A(kh), in full
    [4, 3, 2n, 2n] and parity-split [4, 3, 2, n, n] form, n = order + 1.

    At kh the NT tables are NT1[n] = s^n T1[n] and NT2[n] = s^(n+1) T2[n],
    with T the reference tables at kh = 2 and T1[0] = I (orthonormal basis).
    The split takes, with u1 at indices 0..M and u3 at M+1..2M+1, the
    antisymmetric set (u1 odd, u3 even) and then the symmetric one: the
    coupling terms of D1 (T1[1], T2[0]) join orders of opposite parity and
    those of D2 (T1[2], T2[1]) orders of equal parity, so no entry joins
    the two sets.
    """
    _check_order(order)
    t1, t2 = reference_tables(order)
    n = order + 1
    a, b = slice(0, n), slice(n, 2 * n)
    full = np.zeros((4, 3, 2 * n, 2 * n))
    full[0, 0, a, a] = full[3, 0, b, b] = -np.eye(n)
    # imaginary parts of the coupling blocks; c31 = c13 by stiffness symmetry
    full[1, 1, a, b], full[3, 1, a, b] = -t1[1], -(t1[1] + t2[0])
    full[1, 1, b, a], full[3, 1, b, a] = t1[1] + t2[0], t1[1]
    full[3, 2, a, a] = full[2, 2, b, b] = t1[2] + t2[1]
    idx = np.array([np.r_[1:n:2, n:2 * n:2], np.r_[0:n:2, n + 1:2 * n:2]])
    split = full[:, :, idx[:, :, None], idx[:, None, :]]
    full.flags.writeable = split.flags.writeable = False
    return full, split


def _check_order(order: int) -> None:
    """ValueError unless the expansion order is at least 1."""
    if order < 1:
        raise ValueError("expansion order must be at least 1")


def _check_definite(theta: ElasticConstants) -> None:
    """TracingError unless the 1-3 stiffness block is positive definite."""
    if theta.c13 ** 2 >= theta.c11 * theta.c33:
        raise TracingError("stiffness is not positive definite (c13^2 >= c11 c33)")


def _coefficients(theta: ElasticConstants, basis: np.ndarray) -> np.ndarray:
    """[D0, D1, D2] of A(kh) = D0 + s D1 + s^2 D2: q contracted with basis."""
    q = np.array([theta.c11, theta.c13, theta.c33, theta.c55]) / theta.rho
    return np.tensordot(q, basis, axes=1)


def _quadratic(d: np.ndarray, kh) -> np.ndarray:
    """D0 + s D1 + s^2 D2 at every kh, s = 2/kh, from d = [D0, D1, D2];
    the result has kh's shape followed by the matrix axes."""
    kh = np.asarray(kh, dtype=float)[..., None, None]
    if np.any(kh <= 0):
        raise ValueError("kh must be positive")
    s = 2.0 / kh
    return d[0] + s * d[1] + (s * s) * d[2]


def _pair_basis(kh, branch, order: int) -> np.ndarray:
    """The material-free C[j, i] = sum_p s^p B[j, p, branch_i], s = 2/kh_i,
    of every pair i of the 1-D kh and branch: [4, pairs, M+1, M+1].  Pair
    i's parity block is sum_j q_j C[j, i].  Built one branch at a time, so
    no [4, 3, pairs, M+1, M+1] array is made.  A branch other than the
    integer 0 (A0) or 1 (S0) is a ValueError: it would leave its rows unset."""
    kh, branch = np.asarray(kh, dtype=float), np.asarray(branch)
    if branch.dtype.kind not in "iu" or np.any((branch != 0) & (branch != 1)):
        raise ValueError("branch must be the integer 0 (A0) or 1 (S0)")
    split = np.moveaxis(_basis(order)[1], 1, 0)  # [3, 4, 2, M+1, M+1]
    c = np.empty((4, kh.size, order + 1, order + 1))
    for b in (0, 1):
        c[:, branch == b] = _quadratic(split[:, :, b, None], kh[branch == b])
    return c


def assemble_system(theta: ElasticConstants, kh: float, order: int) -> SystemMatrices:
    """The eigenproblem blocks at one kh, read off its realified matrix."""
    a_hat = _quadratic(_coefficients(theta, _basis(order)[0]), kh)
    n = order + 1
    return SystemMatrices(a11=a_hat[:n, :n], a33=a_hat[n:, n:],
                          a13_im=-a_hat[:n, n:], a31_im=a_hat[n:, :n])


def realify(sys: SystemMatrices) -> np.ndarray:
    """Real matrix with the same spectrum as the complex block matrix.

    Because the coupling blocks are purely imaginary, conjugating by
    diag(I, iI) maps [[A11, i B13], [i B31, A33]] to
    [[A11, -B13], [B31, A33]], which is real.
    """
    return np.block([[sys.a11, -sys.a13_im], [sys.a31_im, sys.a33]])


def complex_block(sys: SystemMatrices) -> np.ndarray:
    """The original complex block matrix (reference path for tests)."""
    return np.block(
        [[sys.a11.astype(complex), 1j * sys.a13_im],
         [1j * sys.a31_im, sys.a33.astype(complex)]]
    )


_POWER_TOL = 1e-12
_POWER_MAXIT = 500
_POWER_SEED = 20260826


def _rows_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, one row at a time, so that a row's
    value does not depend on the other rows of its stack."""
    return (x * y).sum(axis=-1)


def inverse_power_eigs(stack: np.ndarray, count: int) -> np.ndarray:
    """The `count` smallest-magnitude eigenvalues of every block of a
    [B, n, n] stack, in ascending magnitude: [B, count].

    Power iteration on the inverse of all blocks at once, with Wielandt
    deflation of found pairs.  Every block starts each eigenvalue from the
    same fixed-seed vector and freezes at its own convergence step, so its
    values do not depend on the other blocks of the stack.  A block's
    entries are NaN from the first eigenvalue its iteration cannot deliver
    on: the block is singular or not finite, or the iterate vanishes or
    stalls.  Columns past the n eigenvalues of an n x n block are NaN, and
    if the stack cannot be inverted, every entry is.
    """
    n = stack.shape[-1]
    out = np.full((stack.shape[0], count), np.nan)
    try:
        inv = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        return out
    live = np.flatnonzero(np.isfinite(inv).all(axis=(-2, -1)))  # rows of out
    inv = inv[live]
    found_mu = np.empty((live.size, 0))  # eigenvalues of the inverse
    found_v = np.empty((live.size, 0, n))
    rng = np.random.default_rng(_POWER_SEED)
    for stage in range(min(count, n)):
        v = np.tile(rng.standard_normal(n), (live.size, 1))
        for j in range(stage):
            v -= _rows_dot(found_v[:, j], v)[:, None] * found_v[:, j]
        nv = np.sqrt(_rows_dot(v, v))
        rows = np.flatnonzero(nv != 0.0)  # rows of inv still iterating
        v = v[rows] / nv[rows, None]
        mu_prev = np.full(rows.size, np.inf)
        mu, vec = np.full(live.size, np.nan), np.empty((live.size, n))
        for _ in range(_POWER_MAXIT):
            if rows.size == 0:
                break
            # one gemv per block, so no block's product depends on the others
            w = np.matmul(inv[rows], v[:, :, None])[..., 0]
            # subtracting mu u u^T zeroes a found eigenvalue, leaving the rest
            for j in range(stage):
                u = found_v[rows, j]
                w = w - found_mu[rows, j, None] * u * _rows_dot(u, v)[:, None]
            mu_now = _rows_dot(v, w)  # Rayleigh quotient on the inverse
            norm = np.sqrt(_rows_dot(w, w))
            sane = (norm != 0.0) & np.isfinite(norm)
            v = w / np.where(sane, norm, 1.0)[:, None]
            done = sane & (mu_now != 0.0) & (
                np.abs(mu_now - mu_prev) < _POWER_TOL * np.abs(mu_now))
            mu[rows[done]], vec[rows[done]] = mu_now[done], v[done]
            going = sane & ~done
            rows, v, mu_prev = rows[going], v[going], mu_now[going]
        out[live, stage] = 1.0 / mu
        ok = ~np.isnan(mu)
        live, inv = live[ok], inv[ok]
        found_mu = np.concatenate([found_mu[ok], mu[ok, None]], axis=1)
        found_v = np.concatenate([found_v[ok], vec[ok, None]], axis=1)
    return out


def _top_negative(lams: np.ndarray) -> np.ndarray:
    """Smallest-magnitude negative eigenvalue of every block, from the
    eigenvalues of a stack (eigvalsh's output); NaN where a block has none."""
    top = np.where(lams < 0, lams, -np.inf).max(axis=-1)
    return np.where(np.isinf(top), np.nan, top)


def smallest_physical_cp(a_hat: np.ndarray, n_modes: int = 2,
                         method: str = "dense") -> np.ndarray:
    """Phase velocities of the up-to-n_modes smallest-magnitude negative
    eigenvalues of one full realified system, by a dense eigvalsh.

    Returned ascending, with no mode labels.  May return fewer than n_modes
    values when not enough negative eigenvalues exist at this kh.  "dense"
    is the only method.
    """
    # the benchmark's references still pass method="dense"
    if method != "dense":
        raise ValueError(f"unknown eigensolver method: {method!r}")
    # the realified matrix is symmetric by integration by parts of the
    # NT tables (T1[1] + T1[1]^T = -T2[0], T1[2] + T2[1] symmetric)
    vals = np.linalg.eigvalsh(a_hat)  # ascending
    neg = vals[vals < 0][::-1]  # ascending magnitude
    return np.sqrt(-neg[:n_modes])


def branch_cp(theta: ElasticConstants, kh, order: int,
              method: str = "dense") -> np.ndarray:
    """Phase velocities [A0, S0] at every kh, one row per kh, from one
    batched eigensolve of both parity blocks at every kh: [K, 2, M+1, M+1].

    Each value is the smallest-magnitude negative eigenvalue of its parity
    block, so each column keeps its mode where the two cross.  Rows where
    either block has no negative eigenvalue are NaN.  method="power" runs
    inverse_power_eigs once over all blocks; a block it cannot deliver on,
    or whose smallest-magnitude eigenvalue is not negative, gets the dense
    answer from one eigvalsh over just those blocks.  Raises TracingError
    when the 1-3 stiffness block is not positive definite
    (c13^2 >= c11 c33): such a material has no physical fundamental modes,
    although the solver would still return a value.
    """
    _check_definite(theta)
    blocks = _quadratic(_coefficients(theta, _basis(order)[1]),
                        np.ravel(kh)[:, None])
    if method == "dense":
        lams = _top_negative(np.linalg.eigvalsh(blocks))
    elif method == "power":
        flat = blocks.reshape(-1, *blocks.shape[-2:])
        lams = inverse_power_eigs(flat, 1)[:, 0]
        redo = ~(lams < 0)
        if redo.any():
            lams[redo] = _top_negative(np.linalg.eigvalsh(flat[redo]))
        lams = lams.reshape(blocks.shape[:-2])
    else:
        raise ValueError(f"unknown eigensolver method: {method!r}")
    cps = np.sqrt(-lams)
    cps[np.isnan(cps).any(axis=1)] = np.nan
    return cps


_MAX_CONVERGE_ORDER = 40  # auto_converge never goes past this order
_MAX_EXCLUDED_FRACTION = 0.2  # trace_curves fails past this share of the grid


def _checked_k_grid(k_grid) -> np.ndarray:
    """k_grid as a float array, which must be 1-D, non-empty, positive and
    strictly increasing (ValueError otherwise)."""
    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.ndim != 1 or k_grid.size == 0:
        raise ValueError("k_grid must be a non-empty 1-D array")
    if np.any(k_grid <= 0) or (k_grid.size > 1 and np.any(np.diff(k_grid) <= 0)):
        raise ValueError("k_grid must be positive and strictly increasing")
    return k_grid


def trace_curves(
    theta: ElasticConstants,
    plate: PlateSpec,
    k_grid: np.ndarray,
    order: int = 14,
    auto_converge: bool = False,
    method: str = "dense",
) -> tuple[DispersionCurve, DispersionCurve]:
    """Trace the A0 and S0 dispersion branches over a wavenumber grid.

    Each mode comes from its own parity block (see branch_cp), so no
    continuity tracking is needed and crossings keep their labels.  Grid
    points where either block has no physical eigenvalue are excluded with
    a warning; excluding more than _MAX_EXCLUDED_FRACTION of the grid is a
    hard error, as is a stiffness that is not positive definite.  With
    auto_converge, the order is raised in steps of 2 until two steps in a
    row are small, and the curves of the middle order are returned.  A step
    is small where every c_p moves by less than 1e-6 relative, or by less
    than the two orders' eigvalsh rounding bound where that is larger:
    n eps |A| / (2 c_p^2) each, n = order + 1, with |A(kh)| bounded by
    |D0| + s |D1| + s^2 |D2|.  The bound is a worst case: it stays below
    3e-7 on the default band, but A0's reaches 1.5e-3 at kh 0.028, where
    rounding alone moves A0 by 5e-7 to 6e-6 per step, so that a verdict on
    1e-6 alone was left to rounding.  Raising the order past
    _MAX_CONVERGE_ORDER is a TracingError.  Both curves record the order
    they were traced at in `order`; c_g is left None (see group_velocity).
    """
    k_grid = _checked_k_grid(k_grid)

    def trace_at(m_order: int) -> tuple[np.ndarray, np.ndarray]:
        cps = branch_cp(theta, k_grid * plate.thickness, m_order, method)
        kept = ~np.isnan(cps[:, 0])
        for k in k_grid[~kept]:
            warnings.warn(
                f"grid point k={k:.6g} excluded: "
                "no physical eigenvalue in the A0 or the S0 block",
                RuntimeWarning,
                stacklevel=3,
            )
        excluded = k_grid.size - np.count_nonzero(kept)
        if excluded > _MAX_EXCLUDED_FRACTION * k_grid.size:
            raise TracingError(
                f"{excluded}/{k_grid.size} grid points had no physical solution"
            )
        return k_grid[kept], cps[kept]

    def rounding(m_order: int, k: np.ndarray, cps: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(_coefficients(theta, _basis(m_order)[1]), 2,
                               axis=(-2, -1))  # [3, 2]: |D_p| of each block
        s = 2.0 / (k * plate.thickness)[:, None]
        return ((m_order + 1) * np.finfo(float).eps
                * (norms[0] + s * norms[1] + s * s * norms[2]) / (2 * cps * cps))

    m_order = order
    kk, cps = trace_at(m_order)
    settled = False  # the step up to m_order was small
    while auto_converge:
        if m_order + 2 > _MAX_CONVERGE_ORDER:
            raise TracingError(f"curves did not converge by order {m_order}")
        kk2, cps2 = trace_at(m_order + 2)
        small = np.array_equal(kk2, kk) and np.all(
            np.abs(cps2 - cps) / cps < np.maximum(
                1e-6, rounding(m_order, kk, cps) + rounding(m_order + 2, kk, cps2)))
        if small and settled:
            break
        settled = small
        kk, cps = kk2, cps2
        m_order += 2

    a0, s0 = (
        DispersionCurve(mode_label=label, k=kk, omega=cp * kk, c_p=cp, order=m_order)
        for label, cp in zip(Mode, np.ascontiguousarray(cps.T))
    )
    return a0, s0


def group_velocity(curve: DispersionCurve) -> DispersionCurve:
    """Attach c_g = d omega / d k by second-order central differences."""
    if curve.k.size < 3:
        raise ValueError("group velocity needs at least 3 points")
    cg = np.gradient(curve.omega, curve.k, edge_order=2)
    return replace(curve, c_g=cg)


@dataclass
class SensitivityResult:
    """Curves at -delta / baseline / +delta for one parameter."""

    parameter: str
    minus: tuple[DispersionCurve, DispersionCurve]
    baseline: tuple[DispersionCurve, DispersionCurve]
    plus: tuple[DispersionCurve, DispersionCurve]

    def shift_profile(self, mode: Mode) -> np.ndarray:
        """Pointwise max relative omega shift across the two perturbations."""
        i = mode.branch
        base = self.baseline[i].omega
        up = np.abs(self.plus[i].omega - base) / base
        dn = np.abs(self.minus[i].omega - base) / base
        return np.maximum(up, dn)

    @property
    def max_shift(self) -> dict:
        """Mode label -> largest value of its shift_profile."""
        return {mode.value: np.max(self.shift_profile(mode)) for mode in Mode}


def sensitivity_sweep(
    theta: ElasticConstants,
    plate: PlateSpec,
    k_grid: np.ndarray,
    perturbation: float,
    order: int = 14,
    method: str = "dense",
    names: list[str] | None = None,
) -> dict[str, SensitivityResult]:
    """Re-trace both modes at +/- perturbation of each named material
    parameter (default: every ElasticConstants field, in declaration
    order), keyed by name in the order first given; a repeated name is
    swept once.  An unknown name raises ValueError before any trace.

    rho needs no trace: A(kh) is linear in q = c/rho, so rho * f scales
    every eigenvalue by 1/f and c_p by f^(-1/2) exactly, and its curves are
    the baseline's c_p / sqrt(f) at the baseline's k (the same excluded
    points, so no warning is repeated).  They match a re-trace to within
    the eigensolver's rounding.
    """
    if not 0 <= perturbation < 1:
        raise ValueError("perturbation must lie in [0, 1)")
    known = [f.name for f in fields(ElasticConstants)]
    names = known if names is None else list(dict.fromkeys(names))
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown parameter name(s): {unknown}")
    baseline = trace_curves(theta, plate, k_grid, order=order, method=method)

    def perturbed(name: str, factor: float) -> tuple[DispersionCurve, ...]:
        if name == "rho":
            cps = [c.c_p / np.sqrt(factor) for c in baseline]
            return tuple(replace(c, omega=cp * c.k, c_p=cp)
                         for c, cp in zip(baseline, cps))
        return trace_curves(replace(theta, **{name: getattr(theta, name) * factor}),
                            plate, k_grid, order=order, method=method)

    return {name: SensitivityResult(name, perturbed(name, 1 - perturbation),
                                    baseline, perturbed(name, 1 + perturbation))
            for name in names}


def k_grid_for_fh_band(
    theta: ElasticConstants,
    plate: PlateSpec,
    fh_min: float,
    fh_max: float,
    n_points: int = 200,
    order: int = 10,
) -> np.ndarray:
    """Log-spaced wavenumber grid so both modes span [fh_min, fh_max] MHz*mm.

    The lower edge is set where the faster (S0) branch reaches fh_min and
    the upper edge where the slower (A0) branch reaches fh_max, so each
    branch covers the full requested frequency-thickness band.

    Each edge is the largest real positive root mu = kh/2 of one quadratic
    eigenproblem.  At fh, c_p kh = w = 2 pi fh 1e3 m/s, so the eigenvalue
    -c_p^2 is -(w/2)^2 s^2, and with s = 1/mu the mode's block A v = -c_p^2 v
    becomes (mu^2 D0 + mu D1 + D2 + (w/2)^2 I) v = 0.  D0 = -diag(c11, c55)/rho
    is diagonal, so its companion matrix on [v, mu v] needs no solve, and one
    eigvals gives every root.  Each real root is a branch of the block at fh.
    No two branches of one block cross, so at every kh the fundamental has
    the smallest fh; its group velocity is positive, so past its root every
    branch lies above fh, and its root is the one with the largest kh.  A
    stiffness that is not positive definite, or a block with no real
    positive root, is a TracingError.
    """
    if not 0 < fh_min < fh_max:
        raise ValueError("need 0 < fh_min < fh_max")
    _check_definite(theta)
    d = _coefficients(theta, _basis(order)[1])  # [3, 2, M+1, M+1]
    n = order + 1

    def edge_k(fh: float, mode: Mode) -> float:
        d0, d1, d2 = d[:, mode.branch]
        inv_d0 = 1.0 / np.diag(d0)[:, None]
        half_w = np.pi * fh * 1e3
        companion = np.block([
            [np.zeros((n, n)), np.eye(n)],
            [-inv_d0 * (d2 + half_w ** 2 * np.eye(n)), -inv_d0 * d1],
        ])
        mu = np.linalg.eigvals(companion)
        mu = mu.real[(mu.imag == 0) & (mu.real > 0)]
        if mu.size == 0:
            raise TracingError(f"no {mode.value} wavenumber at fh = {fh} MHz*mm")
        return 2.0 * mu.max() / plate.thickness

    return np.geomspace(edge_k(fh_min, Mode.S0), edge_k(fh_max, Mode.A0),
                        n_points)


_CURVE_HEADER = "mode,k_rad_m,f_hz,fh_mhz_mm,c_p_m_s,c_g_m_s"


def write_curves(path, curves, plate: PlateSpec) -> None:
    """Delimited-text curve export, one row per grid point."""
    f_hz = np.concatenate([c.omega for c in curves]) / (2 * np.pi)
    textio.write_table(path, _CURVE_HEADER, [
        np.repeat([c.mode_label.value for c in curves], [c.k.size for c in curves]),
        np.concatenate([c.k for c in curves]), f_hz, f_hz * plate.thickness * 1e-3,
        np.concatenate([c.c_p for c in curves]),
        np.concatenate([np.full(c.k.shape, np.nan) if c.c_g is None else c.c_g
                        for c in curves]),
    ])
