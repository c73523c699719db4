"""Orthotropic Lamb-wave dispersion eigenproblem and curve tracing.

The through-thickness expansion turns the coupled wave equations into a
2(M+1) x 2(M+1) eigenvalue problem whose eigenvalues are -c_p^2.  The
off-diagonal coupling blocks are purely imaginary, so the problem is recast
with real arithmetic only, and the realified matrix is symmetric.  With
s = 2/kh it is a quadratic in s whose coefficients depend only on the
material and the order, A(kh) = D0 + s D1 + s^2 D2.  The plate is symmetric
about its mid-plane and Legendre polynomials have parity (-1)^m, so the
matrix splits exactly into an antisymmetric block (u1 odd, u3 even), which
holds A0, and a symmetric block (u1 even, u3 odd), which holds S0, each
(M+1) x (M+1).  mode_cp assembles one block per requested (kh, mode) pair in
one broadcast and solves them in one batched symmetric eigensolve: a curve
grid asks for both blocks at every kh (branch_cp), the likelihood only for
the observed pairs.  Each mode is the smallest-magnitude negative eigenvalue
of its own block, so the labels are exact where A0 and S0 cross.
Deflated inverse power iteration, the paper's solver, is inverse_power_eigs:
one vectorised iteration over a whole stack of blocks.  mode_cp runs it with
method="power" and gives the same eigenvalues at about 1.5 times the dense
cost.  smallest_physical_cp solves one full realified system densely; it is
the unlabelled per-k reference of the benchmark's checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from enum import Enum

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
    "system_stack",
    "mode_cp",
    "branch_cp",
    "realify",
    "inverse_power_eigs",
    "smallest_physical_cp",
    "trace_curves",
    "group_velocity",
    "sensitivity_sweep",
    "k_grid_for_fh_band",
    "write_curves",
    "read_curves",
]

class Mode(str, Enum):
    A0 = "A0"
    S0 = "S0"


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
        for name in ("c11", "c13", "c33", "c55", "rho"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class PlateSpec:
    """Plate geometry: thickness h in metres."""

    thickness: float

    def __post_init__(self):
        if self.thickness <= 0:
            raise ValueError("thickness must be positive")


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


def _operator(theta: ElasticConstants, order: int) -> np.ndarray:
    """Coefficients [D0, D1, D2] of A(kh) = D0 + s D1 + s^2 D2, s = 2/kh.

    At kh the NT tables are NT1[n] = s^n T1[n] and NT2[n] = s^(n+1) T2[n],
    with T the reference tables at kh = 2 and T1[0] = I (orthonormal basis).
    All entries depend on C_ij / rho ratios only, so scaling every material
    parameter by a common factor leaves the system unchanged.
    """
    t1, t2 = reference_tables(order)
    r = theta.rho
    c11, c13, c33, c55 = theta.c11, theta.c13, theta.c33, theta.c55
    n = order + 1
    a, b = slice(0, n), slice(n, 2 * n)
    diag = np.arange(n)
    stiff = t1[2] + t2[1]
    d = np.zeros((3, 2 * n, 2 * n))
    d[0, diag, diag] = -c11 / r
    d[0, diag + n, diag + n] = -c55 / r
    # imaginary parts of the coupling blocks; c31 = c13 by stiffness symmetry
    d[1, a, b] = -(((c13 + c55) / r) * t1[1] + (c55 / r) * t2[0])
    d[1, b, a] = ((c13 + c55) / r) * t1[1] + (c13 / r) * t2[0]
    d[2, a, a] = (c55 / r) * stiff
    d[2, b, b] = (c33 / r) * stiff
    return d


def _check_order(order: int) -> None:
    """ValueError unless the expansion order is at least 1."""
    if order < 1:
        raise ValueError("expansion order must be at least 1")


def _quadratic(d: np.ndarray, kh, order: int) -> np.ndarray:
    """D0 + s D1 + s^2 D2 at every kh, s = 2/kh, from d = [D0, D1, D2];
    the result has kh's shape followed by the matrix axes."""
    kh = np.asarray(kh, dtype=float)[..., None, None]
    if np.any(kh <= 0):
        raise ValueError("kh must be positive")
    _check_order(order)
    s = 2.0 / kh
    return d[0] + s * d[1] + (s * s) * d[2]


def system_stack(theta: ElasticConstants, kh, order: int) -> np.ndarray:
    """Realified system matrices at every kh, stacked [K, n, n]."""
    return _quadratic(_operator(theta, order), np.reshape(kh, -1), order)


def _parity_blocks(theta: ElasticConstants, kh, branch, order: int) -> np.ndarray:
    """Parity block `branch` of system_stack at `kh`, for every element of
    the broadcast kh and branch: shape [*broadcast, M+1, M+1].  Branch 0 is
    the antisymmetric (A0) block and 1 the symmetric (S0) one.

    With u1 at indices 0..M and u3 at M+1..2M+1, the antisymmetric set is
    u1 odd + u3 even and the symmetric set u1 even + u3 odd.  Q_m has parity
    (-1)^m about the mid-plane; the coupling terms of D1 (T1[1], T2[0]) join
    orders of opposite parity and those of D2 (T1[2], T2[1]) orders of equal
    parity, so no entry joins the two sets.
    """
    branch = np.asarray(branch)
    if np.any((branch != 0) & (branch != 1)):
        raise ValueError("branch must be 0 (A0) or 1 (S0)")
    n = order + 1
    idx = np.array([np.r_[1:n:2, n:2 * n:2], np.r_[0:n:2, n + 1:2 * n:2]])
    d = _operator(theta, order)[:, idx[:, :, None], idx[:, None, :]]  # [3, 2, ...]
    return _quadratic(d[:, branch], kh, order)


def assemble_system(theta: ElasticConstants, kh: float, order: int) -> SystemMatrices:
    """The eigenproblem blocks at one kh, read off its realified matrix."""
    a_hat = system_stack(theta, kh, order)[0]
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


def _smallest_negative(blocks: np.ndarray) -> np.ndarray:
    """Smallest-magnitude negative eigenvalue of every symmetric block of a
    stack, by one batched eigvalsh; NaN where a block has none."""
    lams = np.linalg.eigvalsh(blocks)
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


def mode_cp(theta: ElasticConstants, kh, branch, order: int,
            method: str = "dense") -> np.ndarray:
    """Phase velocity of mode `branch` (0 = A0, 1 = S0) at `kh`, for every
    element of the broadcast kh and branch, from one batched eigensolve.

    Each value is the smallest-magnitude negative eigenvalue of that pair's
    parity block, NaN where the block has none.  method="power" runs
    inverse_power_eigs once over all blocks; a block it cannot deliver on,
    or whose smallest-magnitude eigenvalue is not negative, gets the dense
    answer from one eigvalsh over just those blocks.  Raises TracingError
    when the 1-3 stiffness block is not positive definite
    (c13^2 >= c11 c33): such a material has no physical fundamental modes,
    although the solver would still return a value.
    """
    if theta.c13 ** 2 >= theta.c11 * theta.c33:
        raise TracingError("stiffness is not positive definite (c13^2 >= c11 c33)")
    blocks = _parity_blocks(theta, kh, branch, order)
    if method == "dense":
        lams = _smallest_negative(blocks)
    elif method == "power":
        flat = blocks.reshape(-1, *blocks.shape[-2:])
        lams = inverse_power_eigs(flat, 1)[:, 0]
        redo = ~(lams < 0)
        if redo.any():
            lams[redo] = _smallest_negative(flat[redo])
        lams = lams.reshape(blocks.shape[:-2])
    else:
        raise ValueError(f"unknown eigensolver method: {method!r}")
    return np.sqrt(-lams)


def branch_cp(theta: ElasticConstants, kh, order: int,
              method: str = "dense") -> np.ndarray:
    """Phase velocities [A0, S0] at every kh, one row per kh (see mode_cp).

    Each column keeps its mode where the two cross.  Rows where either
    block has no negative eigenvalue are NaN.
    """
    cps = mode_cp(theta, np.ravel(kh), [[0], [1]], order, method).T  # [K, 2]
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
    auto_converge, the order is raised in steps of 2 until the curves move
    by less than 1e-6 relative both from the order below and to the order
    above, and the curves of that middle order are returned: below
    kh ~ 0.03 eigenvalue rounding alone moves A0 by 5e-7 to 6e-6 per step,
    so one small step can be chance.  Raising the order past
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

    m_order = order
    kk, cps = trace_at(m_order)
    settled = False  # the step up to m_order moved the curves by < 1e-6
    while auto_converge:
        if m_order + 2 > _MAX_CONVERGE_ORDER:
            raise TracingError(
                f"curves did not converge to 1e-6 by order {m_order}"
            )
        kk2, cps2 = trace_at(m_order + 2)
        small = (np.array_equal(kk2, kk)
                 and np.max(np.abs(cps2 - cps) / cps) < 1e-6)
        if small and settled:
            break
        settled = small
        kk, cps = kk2, cps2
        m_order += 2

    a0, s0 = (
        DispersionCurve(mode_label=label, k=kk, omega=cp * kk, c_p=cp, order=m_order)
        for label, cp in zip((Mode.A0, Mode.S0), np.ascontiguousarray(cps.T))
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
        idx = 0 if mode is Mode.A0 else 1
        base = self.baseline[idx].omega
        up = np.abs(self.plus[idx].omega - base) / base
        dn = np.abs(self.minus[idx].omega - base) / base
        return np.maximum(up, dn)

    @property
    def max_shift(self) -> dict:
        """Mode label -> largest value of its shift_profile."""
        return {mode.value: np.max(self.shift_profile(mode)) for mode in Mode}


_PARAM_NAMES = ("c11", "c13", "c33", "c55", "rho")


def sensitivity_sweep(
    theta: ElasticConstants,
    plate: PlateSpec,
    k_grid: np.ndarray,
    perturbation: float,
    order: int = 14,
    method: str = "dense",
) -> dict[str, SensitivityResult]:
    """Re-trace both modes at +/- perturbation of each material parameter."""
    if not 0 <= perturbation < 1:
        raise ValueError("perturbation must lie in [0, 1)")
    baseline = trace_curves(theta, plate, k_grid, order=order, method=method)
    out = {}
    for name in _PARAM_NAMES:
        minus = trace_curves(
            replace(theta, **{name: getattr(theta, name) * (1 - perturbation)}),
            plate, k_grid, order=order, method=method,
        )
        plus = trace_curves(
            replace(theta, **{name: getattr(theta, name) * (1 + perturbation)}),
            plate, k_grid, order=order, method=method,
        )
        out[name] = SensitivityResult(name, minus, baseline, plus)
    return out


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
    """
    if not 0 < fh_min < fh_max:
        raise ValueError("need 0 < fh_min < fh_max")
    h = plate.thickness

    def fh_of(k: float, idx: int) -> float:
        cp = float(mode_cp(theta, k * h, idx, order))
        if np.isnan(cp):
            raise TracingError(f"no physical solution at k={k}")
        # fh in MHz*mm = f[Hz] * h[m] * 1e-3
        return cp * k / (2 * np.pi) * h * 1e-3

    def bracket_solve(target: float, idx: int) -> float:
        k_lo, k_hi = 1e-2 / h, 1e-2 / h
        while fh_of(k_hi, idx) < target:
            k_hi *= 2
            if k_hi * h > 1e6:
                raise TracingError("could not bracket the requested band")
        while fh_of(k_lo, idx) > target:
            k_lo /= 2
            if k_lo * h < 1e-9:
                raise TracingError("could not bracket the requested band")
        from scipy.optimize import brentq

        return brentq(lambda k: fh_of(k, idx) - target, k_lo, k_hi, xtol=1e-9)

    k_start = bracket_solve(fh_min, 1)  # S0 reaches fh_min
    k_stop = bracket_solve(fh_max, 0)  # A0 reaches fh_max
    return np.geomspace(k_start, k_stop, n_points)


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


def read_curves(path) -> dict[str, dict[str, np.ndarray]]:
    """Read a curve export back as arrays keyed by mode then column."""
    _, lines = textio.read_table(path, _CURVE_HEADER)
    modes = np.array(textio.labels(lines))
    values = textio.float_columns(lines, 1, 5)
    return {
        mode: dict(zip(("k", "f", "fh", "c_p", "c_g"),
                       np.ascontiguousarray(values[modes == mode].T)))
        for mode in dict.fromkeys(modes.tolist())
    }
