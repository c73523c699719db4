"""Independent reference implementations used only by the test suite.

Everything here is built on library primitives (numpy.polynomial, scipy
quadrature, root finding and dense linear algebra) rather than the
package's own arithmetic, so agreement is meaningful.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from numpy.polynomial import legendre as npleg
from scipy.integrate import quad
from scipy.optimize import brentq


def q_basis_callable(m: int, kh: float):
    """Normalized Legendre basis member on [0, kh] as a plain callable."""
    coeffs = np.zeros(m + 1)
    coeffs[m] = 1.0
    leg = npleg.Legendre(coeffs)
    norm = math.sqrt((2 * m + 1) / kh)

    def q(x, order: int = 0):
        f = leg.deriv(order) if order else leg
        # chain rule for the affine map u = 2x/kh - 1
        return norm * f(2.0 * x / kh - 1.0) * (2.0 / kh) ** order

    return q


def nt1_quad(m: int, j: int, n: int, kh: float) -> float:
    """NT1 by adaptive quadrature of Q_j * d^n Q_m / dx^n over [0, kh]."""
    qm = q_basis_callable(m, kh)
    qj = q_basis_callable(j, kh)
    val, err = quad(lambda x: qj(x) * qm(x, n), 0.0, kh, limit=200)
    assert err < 1e-9 * max(1.0, abs(val))
    return val


def nt2_boundary(m: int, j: int, n: int, kh: float) -> float:
    """NT2 by direct boundary evaluation (Dirac sifting of the integrand)."""
    qm = q_basis_callable(m, kh)
    qj = q_basis_callable(j, kh)
    f = lambda x: qj(x) * qm(x, n)
    return f(0.0) - f(kh)


def nt_tables(kh: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """NT1/NT2 at kh for basis indices 0..order, indexed [n, j, m]: the
    kh = 2 tables that lambid.dispersion reads, scaled by the chain rule,
    NT1 by (2/kh)^n and NT2 by (2/kh)^(n+1)."""
    from lambid.legendre import reference_tables

    t1, t2 = reference_tables(order)
    s = 2.0 / kh
    scale = np.array([1.0, s, s * s])[:, None, None]
    return t1 * scale, t2 * (scale * s)


def per_k_system(theta, kh: float, order: int) -> np.ndarray:
    """Realified system matrix at one kh, assembled block by block from the
    NT tables at that kh: the per-wavenumber loop the batched operator in
    lambid.dispersion replaced, kept as its reference."""
    t1, t2 = nt_tables(kh, order)
    r = theta.rho
    c11, c13, c33, c55 = theta.c11, theta.c13, theta.c33, theta.c55
    a11 = -(c11 / r) * t1[0] + (c55 / r) * t1[2] + (c55 / r) * t2[1]
    a33 = -(c55 / r) * t1[0] + (c33 / r) * t1[2] + (c33 / r) * t2[1]
    a13_im = ((c13 + c55) / r) * t1[1] + (c55 / r) * t2[0]
    a31_im = ((c13 + c55) / r) * t1[1] + (c13 / r) * t2[0]
    return np.block([[a11, -a13_im], [a31_im, a33]])


def parity_sets(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the realified per-k system (u1 at 0..M, u3 at M+1..2M+1)
    in its antisymmetric set (u1 odd, u3 even about the mid-plane) and its
    symmetric set (u1 even, u3 odd).  Basis member m is P_m of the mapped
    thickness coordinate, which has parity (-1)^m."""
    n = order + 1
    m = np.arange(n)
    odd = m % 2 == 1
    return (np.concatenate([m[odd], n + m[~odd]]),
            np.concatenate([m[~odd], n + m[odd]]))


def labelled_branches(a_hat: np.ndarray, order: int) -> tuple[np.ndarray, float]:
    """Eigenvalues [A0, S0] of a full realified system, labelled by the
    parity of their eigenvectors, and the largest weight any eigenvector
    puts on the other parity's indices.

    Each unit eigenvector from eigh is antisymmetric when most of its weight
    lies on the antisymmetric set.  A0 (S0) is the smallest-magnitude
    negative eigenvalue among the antisymmetric (symmetric) ones; NaN when
    that set has none.
    """
    lams, vecs = np.linalg.eigh(a_hat)
    anti, _ = parity_sets(order)
    w_anti = np.sum(vecs[anti] ** 2, axis=0)
    out = np.full(2, np.nan)
    for b, members in enumerate((w_anti > 0.5, w_anti <= 0.5)):
        neg = lams[members & (lams < 0)]
        if neg.size:
            out[b] = neg.max()
    return out, float(np.minimum(w_anti, 1.0 - w_anti).max())


def solve_full(a_hat: np.ndarray) -> np.ndarray:
    """All eigenvalues of one square matrix, by a general dense eigensolve:
    the full-spectrum reference for the power kernel."""
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


def scalar_inverse_power_eigs(a_hat: np.ndarray, count: int):
    """Yield (eigenvalue, eigenvector) pairs in ascending eigenvalue magnitude.

    The one-matrix-at-a-time deflated inverse power iteration that the
    batched kernel in lambid.dispersion replaced, kept as its reference:
    power iteration on A_hat^{-1} from an LU factorisation, with Wielandt
    deflation of found pairs and the kernel's seed, tolerance and
    iteration cap.  Raises np.linalg.LinAlgError on singularity or stalled
    convergence.
    """
    n = a_hat.shape[0]
    try:
        lu, piv = scipy.linalg.lu_factor(a_hat)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise np.linalg.LinAlgError("matrix is singular") from exc
    if not np.all(np.isfinite(lu)) or np.min(np.abs(np.diag(lu))) == 0.0:
        raise np.linalg.LinAlgError("matrix is singular")

    rng = np.random.default_rng(_POWER_SEED)
    found_vals: list[float] = []
    found_vecs: list[np.ndarray] = []

    def apply_inv(x: np.ndarray) -> np.ndarray:
        y = scipy.linalg.lu_solve((lu, piv), x)
        for mu, v in zip(found_vals, found_vecs):
            y = y - mu * v * (v @ x)
        return y

    for _ in range(min(count, n)):
        v = rng.standard_normal(n)
        for u in found_vecs:
            v -= (u @ v) * u
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise np.linalg.LinAlgError("deflated start vector vanished")
        v /= nv
        mu_prev = np.inf
        converged = False
        for _ in range(_POWER_MAXIT):
            w = apply_inv(v)
            mu = v @ w
            norm = np.linalg.norm(w)
            if norm == 0.0 or not np.isfinite(norm):
                raise np.linalg.LinAlgError(
                    "power iteration produced degenerate vector")
            v = w / norm
            if mu != 0.0 and abs(mu - mu_prev) < _POWER_TOL * abs(mu):
                converged = True
                break
            mu_prev = mu
        if not converged:
            raise np.linalg.LinAlgError("power iteration did not converge")
        found_vals.append(mu)
        found_vecs.append(v.copy())
        yield 1.0 / mu, v.copy()


def scalar_solve_smallest(a_hat: np.ndarray, n_modes: int) -> np.ndarray:
    """The n_modes smallest-magnitude eigenvalues of one matrix, ascending
    in magnitude, by scalar_inverse_power_eigs (LinAlgError passes on)."""
    lams = np.array([lam for lam, _ in scalar_inverse_power_eigs(a_hat, n_modes)])
    return lams[np.argsort(np.abs(lams))]


def per_block_power_cp(blocks: np.ndarray) -> np.ndarray:
    """Power-path c_p of every parity block of a stack [..., n, n], one
    block at a time: deflate past positive eigenvalues until the first
    negative one, and take the dense eigvalsh answer if the iteration
    fails first; NaN where a block has no negative eigenvalue.  This is
    the per-block loop that the batched power path of branch_cp replaced."""
    flat = blocks.reshape(-1, *blocks.shape[-2:])
    out = np.full(flat.shape[0], np.nan)
    for i, a_hat in enumerate(flat):
        try:
            neg = next(lam for lam, _ in
                       scalar_inverse_power_eigs(a_hat, a_hat.shape[0]) if lam < 0)
        except (np.linalg.LinAlgError, StopIteration):
            lams = np.linalg.eigvalsh(a_hat)
            neg = lams[lams < 0].max() if np.any(lams < 0) else np.nan
        out[i] = np.sqrt(-neg)
    return out.reshape(blocks.shape[:-2])


def parity_blocks(theta, kh, branch, order: int) -> np.ndarray:
    """Parity block `branch` (0 = A0, 1 = S0) of the realified system at
    `kh`, for every element of the broadcast kh and integer branch:
    [*broadcast, M+1, M+1], as D0 + s D1 + s^2 D2 from the package's
    coefficient matrices D_p = sum_j q_j B[j, p].  This is the pair-level
    assembly that dispersion.branch_cp and dispersion._pair_basis replaced,
    with the same arithmetic, so both can be held to it bit for bit."""
    from lambid.dispersion import _basis, _coefficients, _quadratic

    d = _coefficients(theta, _basis(order)[1])  # [3, 2, M+1, M+1]
    return _quadratic(d[:, np.asarray(branch)], kh)


def mode_cp(theta, kh, branch, order: int, method: str = "dense") -> np.ndarray:
    """Phase velocity of mode `branch` at `kh`, for every element of the
    broadcast kh and branch, from one batched solve of parity_blocks: the
    smallest-magnitude negative eigenvalue of each block, NaN where it has
    none.  method="power" runs dispersion.inverse_power_eigs and gives the
    blocks it cannot deliver on, or whose eigenvalue is not negative, the
    dense answer.  This is the pair-level solve that branch_cp replaced."""
    from lambid.dispersion import _check_definite, _top_negative, inverse_power_eigs

    _check_definite(theta)
    blocks = parity_blocks(theta, kh, branch, order)
    if method == "dense":
        return np.sqrt(-_top_negative(np.linalg.eigvalsh(blocks)))
    flat = blocks.reshape(-1, *blocks.shape[-2:])
    lams = inverse_power_eigs(flat, 1)[:, 0]
    redo = ~(lams < 0)
    if redo.any():
        lams[redo] = _top_negative(np.linalg.eigvalsh(flat[redo]))
    return np.sqrt(-lams.reshape(blocks.shape[:-2]))


def _rl_sym(cp, w, cl, ct, h):
    """Real part of the symmetric Rayleigh-Lamb function at phase velocity
    cp, a scalar or an array."""
    k = w / cp
    p = np.emath.sqrt((w / cl) ** 2 - k**2)
    q = np.emath.sqrt((w / ct) ** 2 - k**2)
    val = np.tan(q * h / 2) / q + 4 * k**2 * p * np.tan(p * h / 2) / (q**2 - k**2) ** 2
    return np.real(val)


def _rl_asym(cp, w, cl, ct, h):
    """Real part of the antisymmetric Rayleigh-Lamb function at phase
    velocity cp, a scalar or an array."""
    k = w / cp
    p = np.emath.sqrt((w / cl) ** 2 - k**2)
    q = np.emath.sqrt((w / ct) ** 2 - k**2)
    val = q * np.tan(q * h / 2) + (q**2 - k**2) ** 2 * np.tan(p * h / 2) / (4 * k**2 * p)
    return np.real(val)


def rayleigh_lamb_cp(mode: str, f_hz: float, cl: float, ct: float,
                     h: float) -> float:
    """First (fundamental) Rayleigh-Lamb root in phase velocity.

    Evaluates the real characteristic function on an ascending
    phase-velocity grid in one array call, then polishes each sign change
    in turn with brentq on scalar evaluations, rejecting tangent poles by
    checking residual magnitude.  Array and scalar evaluations differ by
    ulps, not in sign, on the grid (see tests/test_oracles.py).
    """
    w = 2 * math.pi * f_hz
    fun = _rl_sym if mode == "S0" else _rl_asym
    grid = np.linspace(50.0, 1.5 * cl, 6000)
    vals = fun(grid, w, cl, ct, h)
    a, b = vals[:-1], vals[1:]
    for i in np.nonzero(np.isfinite(a) & np.isfinite(b) & (a * b < 0))[0]:
        root = brentq(fun, grid[i], grid[i + 1], args=(w, cl, ct, h),
                      xtol=1e-10, rtol=1e-13)
        if abs(fun(root, w, cl, ct, h)) < 1e-3:  # not a tangent pole
            return root
    raise RuntimeError(f"no {mode} root found at f={f_hz}")


def isotropic_constants(e: float, nu: float, rho: float):
    """Plane-strain stiffness entries of an isotropic solid (3D reduction)."""
    lam = e * nu / ((1 + nu) * (1 - 2 * nu))
    mu = e / (2 * (1 + nu))
    return lam + 2 * mu, lam, lam + 2 * mu, mu, rho


def exp_synth_wavefield(theta, plate, geometry: dict, excitation: dict,
                        noise_rms: float = 0.0, seed: int = 0, order: int = 12,
                        amplitude: float = 1.0) -> np.ndarray:
    """Samples of lambid.wavefield.synth_wavefield for valid inputs, built
    the direct way: one exp(-i k x) per mode over the whole [n_x, n_f] grid,
    added into the usable bins of the field spectrum.  The mode curves come
    from the package's tracer, so only the phase synthesis is independent."""
    from lambid.dispersion import k_grid_for_fh_band, trace_curves
    from lambid.wavefield import _linear_chirp, _mode_k_of_omega

    n_x, dx = int(geometry["n_x"]), float(geometry["dx"])
    n_t, dt = int(geometry["n_t"]), float(geometry["dt"])
    f_lo, f_hi = float(excitation["f_lo"]), float(excitation["f_hi"])
    duration = float(excitation["duration"])
    t = np.arange(n_t) * dt
    if f_lo == f_hi:
        sig = amplitude * np.sin(2 * np.pi * f_lo * t) * (t <= duration)
    else:
        sig = amplitude * _linear_chirp(t, f_lo, duration, f_hi) * (t <= duration)
    spec = np.fft.rfft(sig)
    freqs = np.fft.rfftfreq(n_t, dt)
    omega = 2 * np.pi * freqs

    x = (np.arange(n_x) * dx)[:, None]
    fieldspec = np.zeros((n_x, freqs.size), dtype=complex)
    fh_max = f_hi * plate.thickness * 1e-3 * 1.05
    fh_min = max(f_lo, 0.02 * f_hi) * plate.thickness * 1e-3 * 0.5
    grid = k_grid_for_fh_band(theta, plate, fh_min, fh_max, n_points=300,
                              order=order)
    active = (np.abs(spec) > 1e-12 * np.abs(spec).max()) & (freqs > 0)
    for curve in trace_curves(theta, plate, grid, order=order):
        k_of_w = _mode_k_of_omega(curve)(omega)
        usable = active & np.isfinite(k_of_w)
        phase = np.exp(-1j * k_of_w[None, usable] * x)
        fieldspec[:, usable] += np.conj(spec[None, usable]) * phase

    samples = np.fft.irfft(fieldspec, n=n_t, axis=1)
    if noise_rms > 0:
        rng = np.random.default_rng(seed)
        samples = samples + rng.normal(0.0, noise_rms, samples.shape)
    return samples


def full_two_dft_magnitude(samples: np.ndarray) -> np.ndarray:
    """|2DFT| [n_f, n_k] of lambid.wavefield.two_dft (window off) from the
    full complex transform: per-trace peak normalization, an ifft over t
    (which picks +f for the e^{-i w t} convention) and an fft over x."""
    peaks = np.abs(samples).max(axis=1)
    scaled = samples / np.where(peaks > 0, peaks, 1.0)[:, None]
    full = np.fft.fft(np.fft.ifft(scaled, axis=1), axis=0)
    n_x, n_t = samples.shape
    return np.abs(full[:n_x // 2 + 1, :n_t // 2 + 1]).T


def whole_field_synth_wavefield(theta, plate, geometry: dict, excitation: dict,
                                noise_rms: float = 0.0, seed: int = 0,
                                order: int = 12,
                                amplitude: float = 1.0) -> np.ndarray:
    """Samples of lambid.wavefield.synth_wavefield for valid inputs, built
    with the same arithmetic on whole-field arrays: the factored phase table
    of every mode over all [n_x, n_f] entries, one irfft of the field
    spectrum and one whole-field noise draw.  The blocked synthesis must
    equal it bit for bit."""
    from lambid.dispersion import k_grid_for_fh_band, trace_curves
    from lambid.wavefield import _linear_chirp, _mode_k_of_omega

    n_x, dx = int(geometry["n_x"]), float(geometry["dx"])
    n_t, dt = int(geometry["n_t"]), float(geometry["dt"])
    f_lo, f_hi = float(excitation["f_lo"]), float(excitation["f_hi"])
    duration = float(excitation["duration"])
    t = np.arange(n_t) * dt
    if f_lo == f_hi:
        sig = amplitude * np.sin(2 * np.pi * f_lo * t) * (t <= duration)
    else:
        sig = amplitude * _linear_chirp(t, f_lo, duration, f_hi) * (t <= duration)
    spec = np.fft.rfft(sig)
    freqs = np.fft.rfftfreq(n_t, dt)
    omega = 2 * np.pi * freqs

    b = math.isqrt(n_x - 1) + 1
    n_a = -(-n_x // b)
    coarse_x = (np.arange(n_a) * b * dx)[:, None]
    fine_x = (np.arange(b) * dx)[:, None]
    fieldspec = np.zeros((n_x, freqs.size), dtype=complex)
    fh_max = f_hi * plate.thickness * 1e-3 * 1.05
    fh_min = max(f_lo, 0.02 * f_hi) * plate.thickness * 1e-3 * 0.5
    grid = k_grid_for_fh_band(theta, plate, fh_min, fh_max, n_points=300,
                              order=order)
    active = (np.abs(spec) > 1e-12 * np.abs(spec).max()) & (freqs > 0)
    for curve in trace_curves(theta, plate, grid, order=order):
        k_of_w = _mode_k_of_omega(curve)(omega)
        usable = active & np.isfinite(k_of_w)
        k = np.where(usable, k_of_w, 0.0)
        fine = np.where(usable, np.exp(-1j * k * fine_x), 0.0)
        phase = np.exp(-1j * k * coarse_x)[:, None, :] * fine
        fieldspec += phase.reshape(n_a * b, -1)[:n_x]
    fieldspec *= np.conj(spec)

    samples = np.fft.irfft(fieldspec, n=n_t, axis=1)
    if noise_rms > 0:
        rng = np.random.default_rng(seed)
        samples += rng.normal(0.0, noise_rms, samples.shape)
    return samples


def whole_field_two_dft_magnitude(samples: np.ndarray,
                                  window: bool = False) -> np.ndarray:
    """|2DFT| [n_f, n_k] of lambid.wavefield.two_dft with the same
    arithmetic on whole-field arrays: an |x| copy for the peaks, one rfft
    over t and one ifft over x of the whole half spectrum.  The blocked
    transform must equal it bit for bit."""
    peaks = np.abs(samples).max(axis=1)
    scaled = samples / np.where(peaks > 0, peaks, 1.0)[:, None]
    if window:
        scaled = scaled * np.hanning(scaled.shape[1])[None, :]
    half = np.fft.ifft(np.fft.rfft(scaled, axis=1, norm="forward"), axis=0,
                       norm="forward")
    return np.abs(half[:samples.shape[0] // 2 + 1]).T


def k_grid_brentq(theta, plate, fh_min: float, fh_max: float,
                  n_points: int = 200, order: int = 10) -> np.ndarray:
    """lambid.dispersion.k_grid_for_fh_band by a root search on fh(k): each
    band edge is bracketed by doubling and halving from kh = 0.01 (within
    kh 1e-9 .. 1e6) and then found by scipy's brentq at xtol 1e-9, S0 at
    fh_min and A0 at fh_max.  This is the grid the package built before the
    edges came from a quadratic eigenproblem, bit for bit."""
    from lambid.dispersion import Mode, TracingError

    if not 0 < fh_min < fh_max:
        raise ValueError("need 0 < fh_min < fh_max")
    h = plate.thickness

    def fh_of(k: float, idx: int) -> float:
        cp = float(mode_cp(theta, k * h, idx, order))
        if np.isnan(cp):
            raise TracingError(f"no physical solution at k={k}")
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
        return brentq(lambda k: fh_of(k, idx) - target, k_lo, k_hi, xtol=1e-9)

    k_start = bracket_solve(fh_min, Mode.S0.branch)
    k_stop = bracket_solve(fh_max, Mode.A0.branch)
    return np.geomspace(k_start, k_stop, n_points)


def parity_block_log_likelihood(obs, theta, plate, order: int) -> float:
    """lambid.bayes.log_likelihood as it was before the chain held each
    observed pair's operators C_j: every call assembles the blocks as
    D0 + s D1 + s^2 D2 (parity_blocks), from the material's coefficient
    matrices D_p = sum_j q_j B[j, p]."""
    if theta.sigma <= 0 or min(theta.c11, theta.c13, theta.c33, theta.c55,
                               theta.rho) <= 0:
        return -np.inf
    if theta.c13 ** 2 >= theta.c11 * theta.c33:
        return -np.inf
    blocks = parity_blocks(theta.material(), obs.pair_k * plate.thickness,
                           obs.pair_branch, order)
    lams = np.linalg.eigvalsh(blocks)
    top = np.where(lams < 0, lams, -np.inf).max(axis=-1)
    if np.isinf(top).any():
        return -np.inf
    resid = obs.omega - np.sqrt(-top)[obs.pair_index] * obs.k
    n = resid.size
    return (-n * math.log(theta.sigma) - 0.5 * n * math.log(2 * math.pi)
            - 0.5 * float(resid @ resid) / theta.sigma ** 2)


# PARAM_NAMES and the GPa->Pa prior scales, as the name-keyed prior had them
_PRIOR_NAMES = ("c11", "c13", "c33", "c55", "rho", "sigma")
_NAMED_SCALES = {"c11": 1e-9, "c13": 1e-9, "c33": 1e-9, "c55": 1e-9,
                 "rho": 1.0, "sigma": 1.0}


def named_logpdf(priors, name: str, internal_value: float) -> float:
    """PriorSpec.logpdf(name, value) as it was before PriorSpec took the
    parameter array: one scaled density and its log-Jacobian."""
    s = _NAMED_SCALES[name]
    return priors.priors[name].logpdf(internal_value * s) + math.log(s)


def named_log_prior(x, priors) -> float:
    """lambid.bayes.log_prior(ParamVector.from_array(x), priors) as the
    sampler evaluated it before PriorSpec took the parameter array: -inf
    unless every entry is finite (from_array's ValueError), else the sum
    of named_logpdf over the names, -inf at the first outside its support.
    PriorSpec.logpdf(x) must equal it exactly."""
    values = dict(zip(_PRIOR_NAMES, map(float, x)))
    if not all(math.isfinite(v) for v in values.values()):
        return -np.inf
    total = 0.0
    for name in _PRIOR_NAMES:
        lp = named_logpdf(priors, name, values[name])
        if lp == -np.inf:
            return -np.inf
        total += lp
    return total


def named_sample(priors, rng) -> np.ndarray:
    """PriorSpec.sample(rng).to_array() as it was: one draw per name in
    PARAM_NAMES order, divided by its scale."""
    return np.array([priors.priors[name].sample(rng) / _NAMED_SCALES[name]
                     for name in _PRIOR_NAMES])


def named_internal_mean(priors, name: str) -> float:
    return priors.priors[name].mean / _NAMED_SCALES[name]


def named_internal_var(priors, name: str) -> float:
    return priors.priors[name].var / _NAMED_SCALES[name] ** 2


def plain_mcmc_sample(obs, priors, plate, cfg):
    """lambid.bayes.mcmc_sample as it was before early rejection: every
    proposal's exact log posterior is evaluated by eigvalsh, and u is drawn
    after it.  The package's chains must have this one's samples and accept
    flags byte for byte, and its log posteriors to within eigvalsh's
    rounding carried through the misfit: 1e-10 relative unless sigma lies
    far below the residuals.  One bayes._Posterior serves the chain (the
    public log_posterior is its log_posterior on a fresh instance), so the
    pairs' C_j are built once; the start draws and base_sd come from the
    name-keyed prior above."""
    import lambid.bayes as bayes

    d = len(bayes.PARAM_NAMES)
    rng = np.random.default_rng(cfg.seed)
    post = bayes._Posterior(obs, priors, plate, cfg.forward_order)

    def target(x):
        return post.log_posterior(x)[0]

    if cfg.init is not None:
        x = cfg.init.to_array()
        lp = target(x)
        if lp == -np.inf:
            raise bayes.InitializationError("supplied init has -inf posterior")
    else:
        lp = -np.inf
        for _ in range(100):
            x = named_sample(priors, rng)
            lp = target(x)
            if lp > -np.inf:
                break
        else:
            raise bayes.InitializationError(
                "no finite-posterior start found in 100 prior draws")

    base_sd = np.array([math.sqrt(named_internal_var(priors, n))
                        for n in _PRIOR_NAMES])
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
        lp_prop = target(prop)
        log_alpha = lp_prop - lp
        u = rng.uniform()
        accept = lp_prop > -np.inf and (
            u <= 0.0 or math.log(u) < min(0.0, log_alpha))
        if accept:
            x, lp = prop, lp_prop
        samples[t] = x
        log_posts[t] = lp
        accepted[t] = accept
        if t < cfg.warmup:
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
                    pass
    return bayes.Chain(samples=samples, log_posts=log_posts, accepted=accepted,
                       warmup_len=cfg.warmup, seed=cfg.seed)


def run_scan_local_maxima(rows: np.ndarray, height: np.ndarray) -> np.ndarray:
    """lambid.wavefield._local_maxima as it was before rows without a
    plateau skipped the run scan: every row by the run rule of
    scipy.signal.find_peaks.  The package's mask must equal it exactly."""
    n_rows, n = rows.shape
    starts = np.ones(rows.shape, dtype=bool)  # each row starts a run
    starts[:, 1:] = rows[:, 1:] != rows[:, :-1]
    first = np.flatnonzero(starts)  # flat index of each run's first sample
    last = np.append(first[1:] - 1, rows.size - 1)
    value = rows.flat[first]
    rises = np.zeros(first.size, dtype=bool)
    rises[1:] = value[1:] > value[:-1]
    falls = np.zeros(first.size, dtype=bool)
    falls[:-1] = value[:-1] > value[1:]
    # a run touching either end of its row has a neighbour in another row
    interior = (first % n > 0) & (last % n < n - 1)
    peak = interior & rises & falls & (value >= height[first // n])
    mask = np.zeros(rows.size, dtype=bool)
    mask[(first[peak] + last[peak]) // 2] = True
    return mask.reshape(n_rows, n)


def list_scan_ridge_pick(image, band: tuple[float, float], plate,
                         min_prominence: float = 0.3, max_jump_bins: int = 3):
    """lambid.wavefield.ridge_pick as it was before the tracking loop
    scanned each row's peaks in place: per ridge and row it builds a list of
    the unclaimed candidates in reach and takes min(key=...) of it.  The
    package's points and RidgeError messages must equal this one's.  ROADMAP
    item 16 changes the point rule (one row per k bin); it updates this
    oracle on purpose."""
    from lambid.wavefield import _BRANCHES, ObservationSet, RidgeError

    n_modes = len(_BRANCHES)
    if not 0 <= min_prominence <= 1:
        raise ValueError(f"min_prominence {min_prominence} is not in [0, 1]")
    if not max_jump_bins >= 0:
        raise ValueError(f"max_jump_bins {max_jump_bins} is negative")
    if not image.normalized:
        raise ValueError("ridge_pick requires a normalized image")
    fh = image.f_axis * plate.thickness * 1e-3  # MHz*mm
    rows = np.nonzero((fh >= band[0]) & (fh <= band[1]))[0]
    if rows.size == 0:
        raise ValueError("band does not intersect the image frequency axis")

    band_rows = image.magnitude[rows]
    row_max = band_rows.max(axis=1)
    peak_mask = run_scan_local_maxima(band_rows, min_prominence * row_max)
    peak_mask[row_max <= 0] = False  # no candidates without a positive sample
    # every row's peak columns from one nonzero call, split by row
    peak_row, peak_col = np.nonzero(peak_mask)
    bounds = np.searchsorted(peak_row, np.arange(rows.size + 1)).tolist()
    cols = peak_col.tolist()
    row_peaks = [cols[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    ridges: list[list[tuple[int, int]]] = []  # (row index, k index) pairs
    for i, peaks in enumerate(row_peaks):
        taken: set[int] = set()
        for ridge in ridges:
            last_k = ridge[-1][1]
            cands = [p for p in peaks if p not in taken
                     and abs(p - last_k) <= max_jump_bins]
            if cands:
                best = min(cands, key=lambda p: abs(p - last_k))
                ridge.append((rows[i], best))
                taken.add(best)
        if len(ridges) < n_modes:
            free = np.array([p for p in peaks if p not in taken], dtype=int)
            strongest = free[np.argsort(band_rows[i][free])[::-1]]
            for p in strongest[:n_modes - len(ridges)]:
                ridges.append([(rows[i], p)])
    if not ridges:
        raise RidgeError("no row in the band has a prominent maximum")

    ridges.sort(key=len, reverse=True)
    need = 0.3 * rows.size
    for i, ridge in enumerate(ridges):
        if len(ridge) < need:
            raise RidgeError(
                f"ridge {i} only trackable over {len(ridge)}/{rows.size} "
                "band rows"
            )
    if len(ridges) < n_modes:
        raise RidgeError(f"only {len(ridges)} of {n_modes} ridges found")

    # label: at shared frequencies A0 has the larger k (lower c_p)
    mean_k = [np.mean([kx for _, kx in ridge]) for ridge in ridges]
    ordering = np.argsort(mean_k)[::-1]  # descending k
    points = []
    for label, ridge_idx in zip(_BRANCHES, ordering):
        row_idx, k_idx = np.array(ridges[ridge_idx]).T
        # rows run up in frequency, so each k bin's first row is its lowest
        k_bins, first = np.unique(k_idx, return_index=True)
        omega = 2 * np.pi * image.f_axis[row_idx[first]]
        points += [(label, float(om_hat), float(k_hat))
                   for om_hat, k_hat in zip(omega, image.k_axis[k_bins])]
    return ObservationSet(points=points, band=tuple(band))
