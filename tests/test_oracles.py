"""The test oracles against the implementations they replaced."""

import math

import numpy as np
from scipy.optimize import brentq

import oracles
from lambid.dispersion import (ElasticConstants, PlateSpec,
                               k_grid_for_fh_band, trace_curves)


def scalar_scan_cp(mode, f_hz, cl, ct, h):
    """rayleigh_lamb_cp as it was: the 6000-point grid evaluated one
    scalar at a time, each point when the scan first reads it."""
    w = 2 * math.pi * f_hz
    fun = oracles._rl_sym if mode == "S0" else oracles._rl_asym
    grid = np.linspace(50.0, 1.5 * cl, 6000)
    b = float(fun(grid[0], w, cl, ct, h))
    for i in range(len(grid) - 1):
        a, b = b, float(fun(grid[i + 1], w, cl, ct, h))
        if not (np.isfinite(a) and np.isfinite(b)) or a * b >= 0:
            continue
        root = brentq(fun, grid[i], grid[i + 1], args=(w, cl, ct, h),
                      xtol=1e-10, rtol=1e-13)
        if abs(fun(root, w, cl, ct, h)) < 1e-3:
            return root
    raise RuntimeError(f"no {mode} root found at f={f_hz}")


def isotropic_cases(n_points, band, fh_range, picks=None):
    """(mode, f_hz) pairs at which criterion 5 (every point of a 40-point
    curve in 0.1-4.0 MHz*mm) or the benchmark's oracle check (six points
    per mode of a 200-point curve) call the oracle."""
    e, nu, rho = 70e9, 0.33, 2700.0
    theta = ElasticConstants(*oracles.isotropic_constants(e, nu, rho))
    plate = PlateSpec(2e-3)
    grid = k_grid_for_fh_band(theta, plate, *band, n_points=n_points, order=14)
    cases = []
    for curve in trace_curves(theta, plate, grid, order=14):
        f_hz = curve.omega / (2 * np.pi)
        fh = f_hz * plate.thickness * 1e-3
        inside = np.nonzero((fh >= fh_range[0]) & (fh <= fh_range[1]))[0]
        if picks:
            inside = inside[np.unique(np.linspace(0, inside.size - 1, picks)
                                      .round().astype(int))]
        cases += [(curve.mode_label.value, f_hz[i]) for i in inside]
    return cases


def test_vectorised_scan_matches_scalar_scan():
    e, nu, rho = 70e9, 0.33, 2700.0
    c11, _, _, c55, _ = oracles.isotropic_constants(e, nu, rho)
    cl, ct = math.sqrt(c11 / rho), math.sqrt(c55 / rho)
    cases = (isotropic_cases(40, (0.1, 4.0), (0.1, 4.0))
             + isotropic_cases(200, (0.2, 4.098), (0.1, 4.0), picks=6))
    assert len(cases) >= 70
    for mode, f_hz in cases:
        new = oracles.rayleigh_lamb_cp(mode, f_hz, cl, ct, 2e-3)
        old = scalar_scan_cp(mode, f_hz, cl, ct, 2e-3)
        assert new == old, (mode, f_hz, new, old)
