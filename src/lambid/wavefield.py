"""Synthetic wavefields, frequency-wavenumber images, and ridge extraction.

Closes the loop in place of measured laser-vibrometer data: a forward
dispersion model drives synthesis of a time-distance field, which the 2DFT
and ridge picker convert back into discrete dispersion observations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import textio
from .dispersion import (
    DispersionCurve,
    ElasticConstants,
    Mode,
    PlateSpec,
    k_grid_for_fh_band,
    trace_curves,
)

__all__ = [
    "TXField",
    "DispersionImage",
    "ObservationSet",
    "RidgeError",
    "synth_wavefield",
    "two_dft",
    "normalize_energy",
    "ridge_pick",
    "write_txfield",
    "read_txfield",
    "write_observations",
    "read_observations",
]


_BLOCK_BYTES = 1 << 20  # two_dft's row and column blocks, about 1 MB each


class RidgeError(RuntimeError):
    """No ridge could be tracked over enough of the requested band."""


@dataclass
class TXField:
    """Time-distance record of surface displacement, samples[n_x, n_t].

    Samples must be real and finite, and dt and dx finite and positive;
    anything else raises ValueError.
    """

    samples: np.ndarray
    dt: float
    dx: float

    def __post_init__(self):
        if np.iscomplexobj(self.samples):
            raise ValueError("samples must be real")
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or min(self.samples.shape) < 2:
            raise ValueError("samples must be 2-D with at least 2x2 entries")
        if not np.isfinite(self.samples).all():
            raise ValueError("samples must be finite")
        if not (0 < self.dt < np.inf and 0 < self.dx < np.inf):
            raise ValueError("dt and dx must be finite and positive")


@dataclass
class DispersionImage:
    """Magnitude grid over the positive-frequency, positive-wavenumber quadrant."""

    magnitude: np.ndarray  # [n_f, n_k]
    f_axis: np.ndarray  # Hz
    k_axis: np.ndarray  # rad/m
    normalized: bool = False


_BRANCHES = tuple(mode.value for mode in Mode)  # indexed by Mode.branch


@dataclass
class ObservationSet:
    """Mode-tagged (omega_hat, k_hat) points feeding the likelihood.

    The likelihood's columns are built once, at construction, with the
    points grouped by mode (A0 first): `branch` (0 = A0, 1 = S0), `omega`,
    `k`, the distinct observed (mode, k) pairs as `pair_branch` and
    `pair_k` (sorted by mode, then k), and `pair_index`, the index of each
    point's pair in them; the forward model solves one parity block per
    pair.  Labels other than A0 and S0, and any omega or k that is not
    finite and positive, are rejected.
    """

    points: list  # (mode_label: str, omega_hat: float, k_hat: float)
    band: tuple  # (fh_min, fh_max) in MHz*mm

    def __post_init__(self):
        unknown = sorted({mode for mode, _, _ in self.points} - set(_BRANCHES))
        if unknown:
            raise ValueError(f"unknown mode label(s) {unknown}; "
                             f"expected {list(_BRANCHES)}")
        branch = np.array([_BRANCHES.index(m) for m, _, _ in self.points], dtype=int)
        omega = np.array([om for _, om, _ in self.points], dtype=float)
        k = np.array([kk for _, _, kk in self.points], dtype=float)
        bad = np.flatnonzero(~(np.isfinite(omega) & np.isfinite(k)
                               & (omega > 0) & (k > 0)))
        if bad.size:
            mode, om, kk = self.points[bad[0]]
            raise ValueError(f"observation row {bad[0] + 1} ({mode},{om},{kk}): "
                             "omega and k must be finite and positive")
        grouped = np.argsort(branch, kind="stable")
        self.branch = branch[grouped]
        self.omega = omega[grouped]
        self.k = k[grouped]
        pairs, index = np.unique(np.column_stack([self.branch, self.k]), axis=0,
                                 return_inverse=True)
        self.pair_branch, self.pair_k = pairs[:, 0].astype(int), pairs[:, 1]
        self.pair_index = index.reshape(-1)

    def by_mode(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        return {
            label: (self.omega[self.branch == i], self.k[self.branch == i])
            for i, label in enumerate(_BRANCHES) if np.any(self.branch == i)
        }

    def __len__(self) -> int:
        return len(self.points)


def _mode_k_of_omega(curve: DispersionCurve):
    """Interpolator k(omega) from a traced branch (omega monotone in k)."""
    om, kk = curve.omega, curve.k
    order = np.argsort(om)
    om, kk = om[order], kk[order]
    return lambda w: np.interp(w, om, kk, left=np.nan, right=np.nan)


def _linear_chirp(t: np.ndarray, f0: float, t1: float, f1: float) -> np.ndarray:
    """cos of a phase sweeping linearly from f0 at t = 0 to f1 at t1; the
    phase is written in scipy.signal.chirp's operation order, so the two
    agree bit for bit."""
    beta = (f1 - f0) / t1
    return np.cos(2 * np.pi * (f0 * t + 0.5 * beta * t * t))


def synth_wavefield(
    theta: ElasticConstants,
    plate: PlateSpec,
    geometry: dict,
    excitation: dict,
    noise_rms: float = 0.0,
    seed: int = 0,
    order: int = 12,
    amplitude: float = 1.0,
) -> TXField:
    """Superpose dispersive propagation of the A0 and S0 modes plus noise.

    Each positive-frequency bin of the excitation spectrum is advanced in x
    with phase exp(i k_mode(omega) x) per mode; the field is the real
    signal recovered per trace.  The phase table is factored: with
    b = ceil(sqrt(n_x)) and x_n = (b a + r) dx, each entry is the product
    of exp(i k b a dx) and exp(i k r dx), so a mode costs 2 sqrt(n_x)
    exponentials per bin and one complex product per entry.  The field is
    built one block of b rows at a time, each block's spectrum irffted
    straight into the samples, and the noise is drawn row by row in the
    order of one whole-field draw: besides the samples, synthesis holds the
    per-mode tables and one block.
    geometry: {n_x, dx, n_t, dt}; excitation: chirp {f_lo, f_hi, duration}.
    noise_rms is the absolute sd of the added Gaussian noise, not a fraction
    of the signal's RMS.  Deterministic for fixed seed.
    """
    n_x, dx = int(geometry["n_x"]), float(geometry["dx"])
    n_t, dt = int(geometry["n_t"]), float(geometry["dt"])
    f_lo, f_hi = float(excitation["f_lo"]), float(excitation["f_hi"])
    duration = float(excitation["duration"])
    if n_x < 2 or n_t < 2 or dx <= 0 or dt <= 0:
        raise ValueError("geometry must define a positive 2-D grid")
    if not duration > 0 or not noise_rms >= 0:
        raise ValueError("need excitation duration > 0 and noise_rms >= 0")
    f_nyq = 0.5 / dt
    if f_hi >= f_nyq:
        raise ValueError(
            f"excitation f_hi={f_hi:.4g} Hz violates temporal Nyquist "
            f"{f_nyq:.4g} Hz (time axis)"
        )

    # excitation spectrum
    t = np.arange(n_t) * dt
    if amplitude == 0.0:
        sig = np.zeros(n_t)
    elif f_lo == f_hi:
        sig = amplitude * np.sin(2 * np.pi * f_lo * t) * (t <= duration)
    else:
        sig = amplitude * _linear_chirp(t, f_lo, duration, f_hi) * (t <= duration)
    spec = np.fft.rfft(sig)
    freqs = np.fft.rfftfreq(n_t, dt)
    omega = 2 * np.pi * freqs

    b = math.isqrt(n_x - 1) + 1  # ceil(sqrt(n_x))
    n_a = -(-n_x // b)
    coarse_x = (np.arange(n_a) * b * dx)[:, None]
    fine_x = (np.arange(b) * dx)[:, None]
    tables = []  # per mode: coarse [n_a, n_f] and fine [b, n_f] phases
    if amplitude != 0.0:
        # trace curves over a band generously covering the excitation
        fh_max = f_hi * plate.thickness * 1e-3 * 1.05
        fh_min = max(f_lo, 0.02 * f_hi) * plate.thickness * 1e-3 * 0.5
        grid = k_grid_for_fh_band(theta, plate, fh_min, fh_max, n_points=300,
                                  order=order)
        curves = trace_curves(theta, plate, grid, order=order)
        k_nyq = np.pi / dx
        active = (np.abs(spec) > 1e-12 * np.abs(spec).max()) & (freqs > 0)
        for curve in curves:
            k_of_w = _mode_k_of_omega(curve)(omega)
            usable = active & np.isfinite(k_of_w)
            if np.any(k_of_w[usable] >= k_nyq):
                raise ValueError(
                    f"mode {curve.mode_label.value} wavenumber exceeds "
                    f"spatial Nyquist {k_nyq:.4g} rad/m (space axis)"
                )
            k = np.where(usable, k_of_w, 0.0)
            tables.append((np.exp(-1j * k * coarse_x),
                           np.where(usable, np.exp(-1j * k * fine_x), 0.0)))
    # irfft synthesizes with e^{+i w t}; the conjugate below yields the
    # forward-travelling real wave Re[S e^{i(k x - w t)}]
    weight = np.conj(spec)

    samples = np.empty((n_x, n_t))
    for a in range(n_a):
        rows = samples[a * b:(a + 1) * b]
        block = np.zeros((b, freqs.size), dtype=complex)
        for coarse, fine in tables:
            block += coarse[a] * fine
        block *= weight
        rows[:] = np.fft.irfft(block[:len(rows)], n=n_t, axis=1)
    if noise_rms > 0:
        rng = np.random.default_rng(seed)
        for row in samples:  # row by row, the stream of one whole-field draw
            row += rng.normal(0.0, noise_rms, n_t)
    return TXField(samples=samples, dt=dt, dx=dx)


def two_dft(field: TXField, window: bool = False) -> DispersionImage:
    """Per-trace peak normalization followed by the 2-D Fourier transform.

    Magnitude is retained over the positive-frequency, positive-wavenumber
    quadrant; a component exp(i(k0 x - w0 t)) lands at (+f0, +k0), as in
    the full transform T = fft_x(ifft_t(samples)).  The samples are real,
    so only the f >= 0 half is computed: an rfft over t, which is the
    conjugate of ifft_t's +f half, then an inverse DFT over x, which gives
    the conjugate of T's f >= 0 half with the same magnitudes.  With
    per-trace scaling factors g_x, Parseval holds as
    sum |T|^2 = (n_x / n_t) * sum |g_x * samples|^2 over the full transform;
    it is asserted on the half spectrum, where each bin other than DC and
    (for even n_t) Nyquist also stands for its -f twin.  Besides the input
    field, the transform holds one complex half spectrum and blocks of
    about _BLOCK_BYTES: rows are normalized and rffted a block at a time,
    then columns inverse-transformed over x in place, a block at a time.
    """
    x = field.samples
    n_x, n_t = x.shape
    peaks = np.maximum(x.max(axis=1), -x.min(axis=1))  # max |x|, with no |x| copy
    # an all-zero trace is divided by 1, so it stays as it is
    scale = np.where(peaks > 0, peaks, 1.0)[:, None]
    taper = np.hanning(n_t) if window else None

    half = np.empty((n_x, n_t // 2 + 1), dtype=complex)
    energy_in = 0.0
    step = max(1, _BLOCK_BYTES // x[0].nbytes)
    for lo in range(0, n_x, step):
        samples = x[lo:lo + step] / scale[lo:lo + step]
        if window:
            samples *= taper
        energy_in += np.dot(samples.ravel(), samples.ravel())
        # norm="forward": the rfft carries ifft_t's 1/n_t, the x sum is unscaled
        half[lo:lo + step] = np.fft.rfft(samples, axis=1, norm="forward")
    step = max(1, _BLOCK_BYTES // half[:, 0].nbytes)
    for lo in range(0, half.shape[1], step):
        half[:, lo:lo + step] = np.fft.ifft(half[:, lo:lo + step], axis=0,
                                            norm="forward")
    unpaired = [0, n_t // 2] if n_t % 2 == 0 else [0]  # bins without a twin
    energy_in *= n_x / n_t
    energy_out = (2 * np.vdot(half, half).real
                  - np.sum(np.abs(half[:, unpaired]) ** 2))
    if not np.isclose(energy_in, energy_out, rtol=1e-9, atol=1e-30):
        raise AssertionError("Parseval check failed in two_dft")

    n_k = n_x // 2 + 1
    magnitude = np.abs(half[:n_k]).T  # [n_f, n_k]
    f_axis = np.fft.rfftfreq(n_t, field.dt)
    k_axis = 2 * np.pi * np.fft.rfftfreq(n_x, field.dx)
    return DispersionImage(magnitude=magnitude, f_axis=f_axis, k_axis=k_axis)


def normalize_energy(image: DispersionImage) -> DispersionImage:
    """Divide each frequency row by its sum; all-zero rows stay zero."""
    mag = image.magnitude.copy()
    sums = mag.sum(axis=1)
    zero = sums == 0
    mag[~zero] /= sums[~zero, None]
    return DispersionImage(
        magnitude=mag,
        f_axis=image.f_axis,
        k_axis=image.k_axis,
        normalized=True,
    )


def _run_maxima(rows: np.ndarray, height: np.ndarray) -> np.ndarray:
    """Boolean mask [n_rows, n] of the local maxima of each row at or above
    its height, by the rule of scipy.signal.find_peaks: a run of equal
    samples whose left and right neighbours are both strictly lower is one
    peak, at the run's middle sample ((left + right) // 2).  The first and
    last samples of a row are never peaks."""
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


def _local_maxima(rows: np.ndarray, height: np.ndarray) -> np.ndarray:
    """_run_maxima's mask, deciding most rows without the run scan.  A row
    with no two equal neighbours has runs of one sample only, so its peaks
    are the interior samples strictly above both neighbours and at or above
    its height; only the rows that hold a plateau go through the run rule."""
    mask = np.zeros(rows.shape, dtype=bool)
    mid = rows[:, 1:-1]
    mask[:, 1:-1] = ((mid > rows[:, :-2]) & (mid > rows[:, 2:])
                     & (mid >= height[:, None]))
    plateau = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    if plateau.any():
        mask[plateau] = _run_maxima(rows[plateau], height[plateau])
    return mask


def ridge_pick(
    image: DispersionImage,
    band: tuple[float, float],
    plate: PlateSpec,
    min_prominence: float = 0.3,
    max_jump_bins: int = 3,
) -> ObservationSet:
    """Track the two energy ridges (A0, S0) through the banded image rows.

    Per frequency row inside the band, local maxima at or above
    min_prominence times the row max are candidates.  Going up in
    frequency, each row extends every ridge to its nearest unclaimed
    candidate within max_jump_bins, then starts ridges from the strongest
    unclaimed ones while fewer than two exist; each must cover 30% of the
    band rows.  A0 is the larger-k ridge at shared frequencies (lower phase
    velocity).  Each k bin keeps the ridge's lowest-frequency row in it,
    whose k lies about half a bin above the ridge's.  Raises ValueError
    unless 0 <= min_prominence <= 1 and max_jump_bins >= 0.
    """
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
    peak_mask = _local_maxima(band_rows, min_prominence * row_max)
    peak_mask[row_max <= 0] = False  # no candidates without a positive sample
    # every row's peak columns from one nonzero call, split by row
    peak_row, peak_col = np.nonzero(peak_mask)
    bounds = np.searchsorted(peak_row, np.arange(rows.size + 1)).tolist()
    cols = peak_col.tolist()

    ridges: list[tuple[list[int], list[int]]] = []  # row and k indices of each
    for i, (row, lo, hi) in enumerate(zip(rows.tolist(), bounds, bounds[1:])):
        peaks = cols[lo:hi]
        taken: list[int] = []
        for ridge_rows, ridge_ks in ridges:
            # the nearest unclaimed peak in reach; on a tie, the first column
            last_k, best, gap = ridge_ks[-1], None, None
            for p in peaks:
                d = abs(p - last_k)
                if d <= max_jump_bins and (gap is None or d < gap) and p not in taken:
                    best, gap = p, d
            if best is not None:
                ridge_rows.append(row)
                ridge_ks.append(best)
                taken.append(best)
        if len(ridges) < n_modes:
            free = np.array([p for p in peaks if p not in taken], dtype=int)
            strongest = free[np.argsort(band_rows[i][free])[::-1]]
            for p in strongest[:n_modes - len(ridges)].tolist():
                ridges.append(([row], [p]))
    if not ridges:
        raise RidgeError("no row in the band has a prominent maximum")

    ridges.sort(key=lambda ridge: len(ridge[0]), reverse=True)
    need = 0.3 * rows.size
    for i, (ridge_rows, _) in enumerate(ridges):
        if len(ridge_rows) < need:
            raise RidgeError(
                f"ridge {i} only trackable over {len(ridge_rows)}/{rows.size} "
                "band rows"
            )
    if len(ridges) < n_modes:
        raise RidgeError(f"only {len(ridges)} of {n_modes} ridges found")

    # label: at shared frequencies A0 has the larger k (lower c_p)
    mean_k = [np.mean(k_idx) for _, k_idx in ridges]
    ordering = np.argsort(mean_k)[::-1]  # descending k
    points = []
    for label, ridge_idx in zip(_BRANCHES, ordering):
        row_idx, k_idx = map(np.array, ridges[ridge_idx])
        # rows run up in frequency, so each k bin's first row is its lowest
        k_bins, first = np.unique(k_idx, return_index=True)
        omega = 2 * np.pi * image.f_axis[row_idx[first]]
        points += [(label, float(om_hat), float(k_hat))
                   for om_hat, k_hat in zip(omega, image.k_axis[k_bins])]
    return ObservationSet(points=points, band=tuple(band))


# --- file formats -----------------------------------------------------------

def write_txfield(path_prefix, field: TXField) -> None:
    """Binary matrix (.npy) plus JSON sidecar header (.json)."""
    np.save(f"{path_prefix}.npy", field.samples)
    header = {
        "n_x": field.samples.shape[0],
        "n_t": field.samples.shape[1],
        "dx": field.dx,
        "dt": field.dt,
        "units": {"samples": "arbitrary", "dx": "m", "dt": "s"},
    }
    with open(f"{path_prefix}.json", "w") as fh:
        json.dump(header, fh, indent=1, sort_keys=True)


def read_txfield(path_prefix) -> TXField:
    """Read write_txfield's pair.  The sidecar must be a JSON object with
    integer n_x and n_t equal to the matrix shape and numeric dt and dx
    (finite and positive, as TXField checks); anything else raises
    ValueError."""
    samples = np.load(f"{path_prefix}.npy")
    with open(f"{path_prefix}.json") as fh:
        header = json.load(fh)
    if not isinstance(header, dict):
        raise ValueError("sidecar header must be a JSON object")
    for key, kind, what in (("n_x", int, "an integer"), ("n_t", int, "an integer"),
                            ("dt", (int, float), "a number"),
                            ("dx", (int, float), "a number")):
        value = header.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"sidecar header {key} must be {what}, not {value!r}")
    if samples.shape != (header["n_x"], header["n_t"]):
        raise ValueError("sidecar header does not match matrix shape")
    return TXField(samples=samples, dt=header["dt"], dx=header["dx"])


_OBS_HEADER = "mode,omega_rad_s,k_rad_m"


def write_observations(path, obs: ObservationSet) -> None:
    """Delimited-text observation export consumed by the identifier."""
    textio.write_table(path, _OBS_HEADER, list(zip(*obs.points)),
                       comments=[("band_mhz_mm", *obs.band)])


def read_observations(path) -> ObservationSet:
    meta, lines = textio.read_table(path, _OBS_HEADER)
    if not lines:
        raise ValueError(f"no observations found in {path}")
    band = dict(meta).get("band_mhz_mm")
    values = textio.float_columns(lines, 1, 2).tolist()
    return ObservationSet(
        points=[(mode, om, kk) for mode, (om, kk) in zip(textio.labels(lines), values)],
        band=tuple(float(v) for v in band.split(",")) if band else (0.0, np.inf),
    )
