"""The numpy code that stands in for scipy in lambid, checked against the
scipy function it replaces: the linear chirp, the peak finder and the KDE
mode.  The first two are bit-identical to scipy; the KDE mode is binned and
must land within one grid cell of the exact estimate.  The band edges of
k_grid_for_fh_band, which once came from a Brent root search, come from a
quadratic eigenproblem; they are checked against that root search
(oracles.k_grid_brentq, with scipy's brentq) and against their own fh."""

import numpy as np
import pytest
import scipy.signal
from scipy.stats import gaussian_kde

import oracles
from conftest import random_constants
from lambid import analysis, dispersion, wavefield
from lambid.dispersion import ElasticConstants, Mode, PlateSpec

DEFAULT_T = np.arange(4096) * 0.9765625e-6  # the synth defaults, in SI units


def test_chirp_matches_scipy(rng):
    cases = [(10e3, 500e3, 1e-3)] + [
        (f_lo, rng.uniform(f_lo, 2e6), rng.uniform(1e-4, 4e-3))
        for f_lo in rng.uniform(1e3, 1e6, 20)
    ]
    for f_lo, f_hi, duration in cases:
        ours = wavefield._linear_chirp(DEFAULT_T, f_lo, duration, f_hi)
        np.testing.assert_array_equal(
            ours, scipy.signal.chirp(DEFAULT_T, f_lo, duration, f_hi))


def _scipy_peak_mask(rows, height):
    mask = np.zeros(rows.shape, dtype=bool)
    for row, h, out in zip(rows, height, mask):
        out[scipy.signal.find_peaks(row, height=h)[0]] = True
    return mask


def _plateau_row(rng, n=64):
    """Integer levels held for runs of 1-4 samples, so plateaus of odd and
    even length fall anywhere, the row's ends included."""
    runs = rng.integers(1, 5, n)
    return np.repeat(rng.integers(0, 5, n), runs)[:n].astype(float)


def test_peak_finder_matches_scipy_on_plateaus(rng):
    """Plateau rows take the run rule and rows without two equal neighbours
    the strict-neighbour rule; the stack mixes both, so one call runs both."""
    rows = np.array([_plateau_row(rng) for _ in range(300)]
                    + [np.full(64, 2.0), np.r_[3.0, 3.0, np.zeros(60), 3.0, 3.0],
                       np.r_[0.0, 1.0, 1.0, np.zeros(61)]]
                    + [rng.normal(size=64) for _ in range(100)])
    rows = rows[rng.permutation(len(rows))]
    plateau = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    assert plateau.any() and not plateau.all()
    for fraction in (0.0, 0.3, 0.9, 1.0):
        height = fraction * rows.max(axis=1)
        np.testing.assert_array_equal(wavefield._local_maxima(rows, height),
                                      _scipy_peak_mask(rows, height))


def test_peak_finder_matches_scipy_on_default_noisy_image(gfrp, plate):
    field = wavefield.synth_wavefield(
        gfrp, plate, dict(n_x=256, dx=1.8e-3, n_t=4096, dt=0.9765625e-6),
        dict(f_lo=10e3, f_hi=500e3, duration=1e-3), noise_rms=0.1, seed=5)
    rows = wavefield.normalize_energy(wavefield.two_dft(field)).magnitude
    height = 0.3 * rows.max(axis=1)
    mask = wavefield._local_maxima(rows, height)
    assert mask.any()
    np.testing.assert_array_equal(mask, _scipy_peak_mask(rows, height))


def _band_cases(gfrp, baseline, plate, rng):
    """7 materials x 2 plates x 3 bands x 3 orders."""
    isotropic = ElasticConstants(103e9, 51e9, 103e9, 26e9, 2700.0)
    near = [ElasticConstants(*(np.array([28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0])
                               * rng.uniform(0.9, 1.1, 5))) for _ in range(2)]
    materials = [gfrp, baseline, isotropic, random_constants(rng),
                 random_constants(rng), *near]
    bands = [(0.2, 4.098), (0.3, 2.5), (0.05, 1.0)]
    plates = [plate, PlateSpec(1.3e-3)]
    return [(m, p, band, order) for m in materials for p in plates
            for band in bands for order in (8, 11, 14)]


def test_band_edges_match_brentq(gfrp, baseline, plate, rng):
    for m, p, band, order in _band_cases(gfrp, baseline, plate, rng):
        np.testing.assert_allclose(
            dispersion.k_grid_for_fh_band(m, p, *band, n_points=5, order=order),
            oracles.k_grid_brentq(m, p, *band, n_points=5, order=order),
            rtol=1e-9, atol=0)


def test_band_edges_reach_their_fh(gfrp, baseline, plate, rng):
    for m, p, band, order in _band_cases(gfrp, baseline, plate, rng):
        k = dispersion.k_grid_for_fh_band(m, p, *band, n_points=2, order=order)
        kh = k * p.thickness
        cp = dispersion.branch_cp(m, kh, order)[[0, 1], [Mode.S0.branch,
                                                         Mode.A0.branch]]
        np.testing.assert_allclose(cp * kh / (2 * np.pi) * 1e-3, band,
                                   rtol=1e-10, atol=0)


def test_band_edge_without_a_real_root_raises(gfrp, plate, monkeypatch):
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: eigvals(a).real + 1j)  # every root complex
    with pytest.raises(dispersion.TracingError, match="no S0 wavenumber"):
        dispersion.k_grid_for_fh_band(gfrp, plate, 0.3, 2.5, n_points=5)


def _exact_kde_mode(x):
    grid = np.linspace(x.min(), x.max(), 512)
    return grid[np.argmax(gaussian_kde(x, "silverman")(grid))], grid[1] - grid[0]


def _held(rng, proposals, accept=0.234):
    """A Metropolis-like trace: each step keeps its proposal with
    probability accept and otherwise repeats the previous value."""
    keep = rng.random(proposals.size) < accept
    keep[0] = True
    return proposals[np.maximum.accumulate(np.where(keep, np.arange(keep.size), 0))]


def _chains(rng):
    n = 20000
    yield rng.normal(5.0, 0.1, n)
    yield rng.gamma(1.5, 2.0, n)  # skewed
    yield rng.lognormal(0.0, 0.8, n)
    yield np.r_[rng.normal(-2.0, 0.5, n // 3), rng.normal(1.5, 0.4, n - n // 3)]
    yield np.r_[rng.normal(0.0, 1.0, n - 20), rng.normal(60.0, 1.0, 20)]  # outliers
    yield np.r_[rng.normal(0.0, 1.0, n - 2), -300.0, 400.0]
    yield _held(rng, 28.1e9 * (1 + 0.02 * rng.standard_normal(n)))
    yield _held(rng, rng.gamma(3.0, 1.0, n), accept=0.05)
    for size in (50, 200, 1000):
        yield rng.normal(0.0, 1.0, size)
        yield _held(rng, rng.standard_t(3, size))


def test_kde_mode_within_one_cell_of_gaussian_kde(rng):
    for x in _chains(rng):
        exact, cell = _exact_kde_mode(x)
        assert abs(analysis._kde_mode(x) - exact) <= cell * (1 + 1e-9)
