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


def per_k_system(theta, kh: float, order: int) -> np.ndarray:
    """Realified system matrix at one kh, assembled block by block from the
    NT tables at that kh: the per-wavenumber loop the batched operator in
    lambid.dispersion replaced, kept as its reference."""
    from lambid.legendre import nt_tables

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
    the per-block loop that mode_cp(method="power") replaced."""
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


def k_grid_brentq(theta, plate, fh_min: float, fh_max: float,
                  n_points: int = 200, order: int = 10) -> np.ndarray:
    """lambid.dispersion.k_grid_for_fh_band by a root search on fh(k): each
    band edge is bracketed by doubling and halving from kh = 0.01 (within
    kh 1e-9 .. 1e6) and then found by scipy's brentq at xtol 1e-9, S0 at
    fh_min and A0 at fh_max.  This is the grid the package built before the
    edges came from a quadratic eigenproblem, bit for bit."""
    from lambid.dispersion import Mode, TracingError, mode_cp

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


def plain_mcmc_sample(obs, priors, plate, cfg):
    """lambid.bayes.mcmc_sample as it was before early rejection: every
    proposal's exact log posterior is evaluated, and u is drawn after it.
    The package's chains must equal this one's byte for byte."""
    import lambid.bayes as bayes

    d = len(bayes.PARAM_NAMES)
    rng = np.random.default_rng(cfg.seed)

    def target(x):
        return bayes._log_posterior_at(x, obs, priors, plate, cfg.forward_order)

    if cfg.init is not None:
        x = cfg.init.to_array()
        lp = target(x)
        if lp == -np.inf:
            raise bayes.InitializationError("supplied init has -inf posterior")
    else:
        lp = -np.inf
        for _ in range(100):
            x = priors.sample(rng).to_array()
            lp = target(x)
            if lp > -np.inf:
                break
        else:
            raise bayes.InitializationError(
                "no finite-posterior start found in 100 prior draws")

    base_sd = np.array([math.sqrt(priors.internal_var(n))
                        for n in bayes.PARAM_NAMES])
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
