"""Independent reference implementations used only by the test suite.

Everything here is built on library primitives (numpy.polynomial, scipy
quadrature and root finding) rather than the package's own polynomial
arithmetic, so agreement is meaningful.
"""
from __future__ import annotations

import math

import numpy as np
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


def _rl_sym(cp, w, cl, ct, h):
    k = w / cp
    p = np.emath.sqrt((w / cl) ** 2 - k**2)
    q = np.emath.sqrt((w / ct) ** 2 - k**2)
    val = np.tan(q * h / 2) / q + 4 * k**2 * p * np.tan(p * h / 2) / (q**2 - k**2) ** 2
    return float(np.real(val))


def _rl_asym(cp, w, cl, ct, h):
    k = w / cp
    p = np.emath.sqrt((w / cl) ** 2 - k**2)
    q = np.emath.sqrt((w / ct) ** 2 - k**2)
    val = q * np.tan(q * h / 2) + (q**2 - k**2) ** 2 * np.tan(p * h / 2) / (4 * k**2 * p)
    return float(np.real(val))


def rayleigh_lamb_cp(mode: str, f_hz: float, cl: float, ct: float,
                     h: float) -> float:
    """First (fundamental) Rayleigh-Lamb root in phase velocity.

    Scans an ascending phase-velocity grid for sign changes of the real
    characteristic function, polishes with brentq, and rejects tangent
    poles by checking residual magnitude.
    """
    w = 2 * math.pi * f_hz
    fun = _rl_sym if mode == "S0" else _rl_asym
    grid = np.linspace(50.0, 1.5 * cl, 6000)
    vals = np.array([fun(c, w, cl, ct, h) for c in grid])
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)) or a * b >= 0:
            continue
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
