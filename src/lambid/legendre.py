"""Closed-form NT integral tables of the orthonormal Legendre basis.

The through-thickness displacement profiles are expanded in
Q_m(x) = sqrt((2m+1)/kh) P_m(2x/kh - 1), orthonormal on [0, kh].  With
f = Q_j * d^n Q_m / dx^n, the dispersion eigenproblem blocks are built from

    NT1[n, j, m] = integral of f over [0, kh]
    NT2[n, j, m] = f(0) - f(kh)

for n = 0..2.  NT2 is the Dirac-delta weighted integral that enforces the
traction-free surfaces; the sifting property reduces it to two endpoint
values.  At the reference kh = 2 the basis is sqrt((2m+1)/2) P_m on [-1, 1],
so with d^n P_m = sum_k D[k, m] P_k (integer Legendre-series coefficients)
orthogonality gives NT1[n, j, m] = sqrt((2m+1)(2j+1))/(2j+1) D[j, m], and
P_k(+-1) = (+-1)^k gives NT2 from sums of D.  Any other kh follows by the
chain rule: NT1 scales as (2/kh)^n and NT2 as (2/kh)^(n+1).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

__all__ = ["nt1", "nt2", "nt_tables", "reference_tables"]


@lru_cache(maxsize=32)
def reference_tables(order: int) -> tuple[np.ndarray, np.ndarray]:
    """NT1/NT2 at kh = 2 for basis indices 0..order, indexed [n, j, m]."""
    size = order + 1
    odd = 2.0 * np.arange(size) + 1.0
    norm = np.sqrt(np.outer(odd, odd))
    sign = (-1.0) ** np.arange(size)
    t1 = np.zeros((3, size, size))
    t2 = np.empty((3, size, size))
    for n in range(3):
        d = npleg.legder(np.eye(size), n)  # column m holds d^n P_m
        rows = d.shape[0]
        # round the rational part D/(2j+1) once before applying the
        # irrational norm, and sum the endpoint values P_k(+-1) = (+-1)^k
        # in exact integers (legval's recurrence divides and rounds), so
        # every entry is its exact rational value rounded, times the norm
        t1[n, :rows] = d / odd[:rows, None] * norm[:rows]
        ends = np.outer(sign, sign[:rows] @ d) - d.sum(axis=0)
        t2[n] = ends * norm * 0.5
    return t1, t2


def nt_tables(kh: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """NT1/NT2 at kh for basis indices 0..order, indexed [n, j, m]."""
    t1, t2 = reference_tables(order)
    s = 2.0 / kh
    scale = np.array([1.0, s, s * s])[:, None, None]
    return t1 * scale, t2 * (scale * s)


def _check_nt_args(m: int, j: int, n: int, kh: float) -> None:
    if m < 0 or j < 0:
        raise ValueError("basis indices must be non-negative")
    if not 0 <= n <= 2:
        raise ValueError("derivative order restricted to 0..2")
    if kh <= 0:
        raise ValueError("kh must be positive")


def nt1(m: int, j: int, n: int, kh: float) -> float:
    """Integral over [0, kh] of Q_j times the n-th derivative of Q_m."""
    _check_nt_args(m, j, n, kh)
    return float(nt_tables(kh, max(m, j))[0][n, j, m])


def nt2(m: int, j: int, n: int, kh: float) -> float:
    """Boundary bracket f(0) - f(kh) with f = Q_j * d^n Q_m / dq3^n."""
    _check_nt_args(m, j, n, kh)
    return float(nt_tables(kh, max(m, j))[1][n, j, m])
