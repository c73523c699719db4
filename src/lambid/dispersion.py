"""Orthotropic Lamb-wave dispersion eigenproblem and curve tracing.

The through-thickness expansion turns the coupled wave equations into a
2(M+1) x 2(M+1) eigenvalue problem whose eigenvalues are -c_p^2.  The
off-diagonal coupling blocks are purely imaginary, so the problem is recast
with real arithmetic only, and the realified matrix is symmetric.  With
s = 2/kh it is a quadratic in s whose coefficients depend only on the
material and the order, A(kh) = D0 + s D1 + s^2 D2, so every wavenumber of
a grid or an observation set is assembled in one broadcast and solved in
one batched symmetric eigensolve.  The fundamental A0/S0 modes are its two
smallest-magnitude negative eigenvalues.  Deflated inverse power iteration
(method="power") is kept as the paper's solver and gives the same
eigenvalues at a higher cost per point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
import scipy.linalg

from .legendre import reference_tables

__all__ = [
    "ElasticConstants",
    "PlateSpec",
    "SystemMatrices",
    "DispersionCurve",
    "Mode",
    "SolveFallback",
    "TracingError",
    "engineering_to_constants",
    "assemble_system",
    "system_stack",
    "branch_cp",
    "realify",
    "solve_full",
    "solve_smallest",
    "phase_velocity",
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


class SolveFallback(Exception):
    """Power iteration could not deliver; caller should use the full solve."""


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


def system_stack(theta: ElasticConstants, kh, order: int) -> np.ndarray:
    """Realified system matrices at every kh, stacked [K, n, n]."""
    kh = np.asarray(kh, dtype=float).reshape(-1, 1, 1)
    if np.any(kh <= 0):
        raise ValueError("kh must be positive")
    if order < 1:
        raise ValueError("expansion order must be at least 1")
    d0, d1, d2 = _operator(theta, order)
    s = 2.0 / kh
    return d0 + s * d1 + (s * s) * d2


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


def solve_full(a_hat: np.ndarray) -> np.ndarray:
    """All eigenvalues of A_hat p = lambda p."""
    if a_hat.shape[0] != a_hat.shape[1]:
        raise ValueError("matrix must be square")
    vals = scipy.linalg.eigvals(a_hat)
    if not np.all(np.isfinite(vals)):
        cond = np.linalg.cond(a_hat)
        raise np.linalg.LinAlgError(
            f"eigensolver returned non-finite values (cond={cond:.3e})"
        )
    return vals


_POWER_TOL = 1e-12
_POWER_MAXIT = 500
_POWER_SEED = 20260826


def _inverse_power_eigs(a_hat: np.ndarray, count: int):
    """Yield (eigenvalue, eigenvector) pairs in ascending eigenvalue magnitude.

    Power iteration on A_hat^{-1} with Wielandt deflation of found pairs.
    Raises SolveFallback on singularity or stalled convergence.  The start
    vector is drawn from a fixed seed so solves are reproducible.
    """
    n = a_hat.shape[0]
    try:
        lu, piv = scipy.linalg.lu_factor(a_hat)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SolveFallback("matrix is singular") from exc
    if not np.all(np.isfinite(lu)) or np.min(np.abs(np.diag(lu))) == 0.0:
        raise SolveFallback("matrix is singular")

    rng = np.random.default_rng(_POWER_SEED)
    found_vals: list[float] = []
    found_vecs: list[np.ndarray] = []

    def apply_inv(x: np.ndarray) -> np.ndarray:
        y = scipy.linalg.lu_solve((lu, piv), x)
        # Wielandt deflation of already-found eigenpairs of A_hat^{-1}:
        # subtracting mu v v^T zeroes the found eigenvalue, leaving the rest
        for mu, v in zip(found_vals, found_vecs):
            y = y - mu * v * (v @ x)
        return y

    for _ in range(min(count, n)):
        v = rng.standard_normal(n)
        for u in found_vecs:
            v -= (u @ v) * u
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise SolveFallback("deflated start vector vanished")
        v /= nv
        mu_prev = np.inf
        converged = False
        for _ in range(_POWER_MAXIT):
            w = apply_inv(v)
            mu = v @ w  # Rayleigh quotient on A_hat^{-1} at current v
            norm = np.linalg.norm(w)
            if norm == 0.0 or not np.isfinite(norm):
                raise SolveFallback("power iteration produced degenerate vector")
            v = w / norm
            if mu != 0.0 and abs(mu - mu_prev) < _POWER_TOL * abs(mu):
                converged = True
                break
            mu_prev = mu
        if not converged:
            raise SolveFallback("power iteration did not converge")
        if mu == 0.0:
            raise SolveFallback("zero Rayleigh quotient")
        found_vals.append(mu)
        found_vecs.append(v.copy())
        yield 1.0 / mu, v.copy()


def solve_smallest(a_hat: np.ndarray, n_modes: int) -> np.ndarray:
    """Smallest-magnitude eigenvalues via deflated inverse power iteration.

    Power iteration is applied to A_hat^{-1}; its dominant eigenvalue is the
    reciprocal of the smallest-magnitude eigenvalue of A_hat.  Wielandt
    deflation exposes the next one.  Raises SolveFallback when the matrix is
    singular or the iteration stalls; callers then use solve_full.
    """
    if n_modes not in (1, 2):
        raise ValueError("n_modes must be 1 or 2")
    lams = np.array([lam for lam, _ in _inverse_power_eigs(a_hat, n_modes)])
    return lams[np.argsort(np.abs(lams))]


def phase_velocity(lam: float) -> float | None:
    """c_p = sqrt(-lambda) for negative eigenvalues; None marks rejection."""
    if lam < 0:
        return float(np.sqrt(-lam))
    return None


def _eigvals_dense(a_hat: np.ndarray) -> np.ndarray:
    """Eigenvalues of the realified system.

    The matrix is symmetric by integration by parts of the NT tables
    (T1[1] + T1[1]^T = -T2[0], and T1[2] + T2[1] is symmetric), so the
    symmetric solver applies.
    """
    return np.linalg.eigvalsh(a_hat)


def smallest_physical_cp(a_hat: np.ndarray, n_modes: int = 2,
                         method: str = "power") -> np.ndarray:
    """Phase velocities of the up-to-n_modes smallest negative eigenvalues.

    Returned ascending (A0 first).  May return fewer than n_modes values
    when not enough negative eigenvalues exist at this kh.
    """
    if method == "power":
        # Deflate past non-physical positive eigenvalues until n_modes
        # negatives are found, up to the full spectrum; any failure falls
        # back to the dense solve.
        negatives: list[float] = []
        try:
            for lam, _ in _inverse_power_eigs(a_hat, a_hat.shape[0]):
                if lam < 0:
                    negatives.append(lam)
                    if len(negatives) == n_modes:
                        break
            if len(negatives) < n_modes:
                raise SolveFallback("not enough negative eigenvalues")
            vals = np.asarray(negatives)
        except SolveFallback:
            vals = _eigvals_dense(a_hat)
    elif method == "dense":
        vals = _eigvals_dense(a_hat)
    else:
        raise ValueError(f"unknown eigensolver method: {method!r}")
    neg = np.sort(vals[vals < 0])[::-1]  # ascending magnitude
    cps = np.sqrt(-neg[:n_modes])
    return np.sort(cps)


def branch_cp(theta: ElasticConstants, kh, order: int,
              method: str = "dense") -> np.ndarray:
    """Phase velocities [A0, S0] at every kh, one row per kh.

    The two smallest-magnitude negative eigenvalues of each system give the
    row, ascending.  Rows where fewer than two negative eigenvalues exist
    are NaN.  Raises TracingError when the 1-3 stiffness block is not
    positive definite (c13^2 >= c11 c33): such a material has no physical
    fundamental modes, although the solver would still return a pair.
    """
    if theta.c13 ** 2 >= theta.c11 * theta.c33:
        raise TracingError("stiffness is not positive definite (c13^2 >= c11 c33)")
    stack = system_stack(theta, kh, order)
    cps = np.full((stack.shape[0], 2), np.nan)
    if method == "dense":
        lams = np.linalg.eigvalsh(stack)  # ascending within each row
        n_neg = np.count_nonzero(lams < 0, axis=1)
        rows = np.nonzero(n_neg >= 2)[0]
        cps[rows, 0] = np.sqrt(-lams[rows, n_neg[rows] - 1])
        cps[rows, 1] = np.sqrt(-lams[rows, n_neg[rows] - 2])
    elif method == "power":
        for i, a_hat in enumerate(stack):
            row = smallest_physical_cp(a_hat, 2, method="power")
            if row.size == 2:
                cps[i] = row
    else:
        raise ValueError(f"unknown eigensolver method: {method!r}")
    return cps


def trace_curves(
    theta: ElasticConstants,
    plate: PlateSpec,
    k_grid: np.ndarray,
    order: int = 14,
    auto_converge: bool = False,
    method: str = "dense",
    max_excluded_fraction: float = 0.2,
) -> tuple[DispersionCurve, DispersionCurve]:
    """Trace the A0 and S0 dispersion branches over a wavenumber grid.

    A0 is seeded as the lower-c_p branch at the smallest grid point and both
    branches are propagated by nearest-neighbour continuity in c_p.  Grid
    points yielding fewer than two physical eigenvalues are excluded with a
    warning; more than max_excluded_fraction exclusions is a hard error, as
    is a stiffness that is not positive definite.  With auto_converge, the
    order is raised in steps of 2 until the curves change by less than 1e-6
    relative.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.ndim != 1 or k_grid.size == 0:
        raise ValueError("k_grid must be a non-empty 1-D array")
    if np.any(k_grid <= 0) or (k_grid.size > 1 and np.any(np.diff(k_grid) <= 0)):
        raise ValueError("k_grid must be positive and strictly increasing")

    def trace_at(m_order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cps = branch_cp(theta, k_grid * plate.thickness, m_order, method)
        kept = ~np.isnan(cps[:, 0])
        for k in k_grid[~kept]:
            warnings.warn(
                f"grid point k={k:.6g} excluded: "
                "fewer than two physical eigenvalues found",
                RuntimeWarning,
                stacklevel=3,
            )
        excluded = k_grid.size - np.count_nonzero(kept)
        if excluded > max_excluded_fraction * k_grid.size:
            raise TracingError(
                f"{excluded}/{k_grid.size} grid points had no physical solution"
            )
        lo, hi = cps[kept, 0].tolist(), cps[kept, 1].tolist()
        for i in range(1, len(lo)):
            # nearest-neighbour continuity: keep or swap the pair
            direct = abs(lo[i] - lo[i - 1]) + abs(hi[i] - hi[i - 1])
            crossed = abs(hi[i] - lo[i - 1]) + abs(lo[i] - hi[i - 1])
            if crossed < direct:
                lo[i], hi[i] = hi[i], lo[i]
        return k_grid[kept], np.array(lo), np.array(hi)

    m_order = order
    kk, lo, hi = trace_at(m_order)
    if auto_converge:
        while True:
            kk2, lo2, hi2 = trace_at(m_order + 2)
            if kk2.shape == kk.shape and np.array_equal(kk2, kk):
                change = max(
                    np.max(np.abs(lo2 - lo) / np.abs(lo)),
                    np.max(np.abs(hi2 - hi) / np.abs(hi)),
                )
                if change < 1e-6:
                    kk, lo, hi = kk2, lo2, hi2
                    break
            kk, lo, hi = kk2, lo2, hi2
            m_order += 2

    curves = []
    for label, cp in ((Mode.A0, lo), (Mode.S0, hi)):
        curve = DispersionCurve(
            mode_label=label, k=kk, omega=cp * kk, c_p=cp,
            c_g=np.full(kk.shape, np.nan) if kk.size < 3 else None,
        )
        curves.append(curve)
    return curves[0], curves[1]


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
    max_shift: dict  # mode label -> max relative omega shift

    def shift_profile(self, mode: Mode) -> np.ndarray:
        """Pointwise max relative omega shift across the two perturbations."""
        idx = 0 if mode is Mode.A0 else 1
        base = self.baseline[idx].omega
        up = np.abs(self.plus[idx].omega - base) / base
        dn = np.abs(self.minus[idx].omega - base) / base
        return np.maximum(up, dn)


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
        shifts = {}
        for idx, mode in enumerate((Mode.A0, Mode.S0)):
            base = baseline[idx].omega
            up = np.max(np.abs(plus[idx].omega - base) / base)
            dn = np.max(np.abs(minus[idx].omega - base) / base)
            shifts[mode.value] = max(up, dn)
        out[name] = SensitivityResult(
            parameter=name, minus=minus, baseline=baseline, plus=plus,
            max_shift=shifts,
        )
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
        cp = branch_cp(theta, k * h, order)[0, idx]
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
    with open(path, "w") as fh:
        fh.write(_CURVE_HEADER + "\n")
        for curve in curves:
            cg = curve.c_g if curve.c_g is not None else np.full(curve.k.shape, np.nan)
            for i in range(curve.k.size):
                f_hz = curve.omega[i] / (2 * np.pi)
                fh_val = f_hz * plate.thickness * 1e-3
                fh.write(
                    f"{curve.mode_label.value},{curve.k[i]:.12g},{f_hz:.12g},"
                    f"{fh_val:.12g},{curve.c_p[i]:.12g},{cg[i]:.12g}\n"
                )


def read_curves(path) -> dict[str, dict[str, np.ndarray]]:
    """Read a curve export back as arrays keyed by mode then column."""
    data: dict[str, dict[str, list]] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != _CURVE_HEADER:
            raise ValueError(f"unexpected curve file header: {header!r}")
        for line in fh:
            mode, k, f_hz, fh_val, cp, cg = line.strip().split(",")
            rec = data.setdefault(
                mode, {"k": [], "f": [], "fh": [], "c_p": [], "c_g": []}
            )
            rec["k"].append(float(k))
            rec["f"].append(float(f_hz))
            rec["fh"].append(float(fh_val))
            rec["c_p"].append(float(cp))
            rec["c_g"].append(float(cg))
    return {
        mode: {col: np.array(vals) for col, vals in rec.items()}
        for mode, rec in data.items()
    }
