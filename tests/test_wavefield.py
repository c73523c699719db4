import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from lambid import cli, config, wavefield
from lambid.dispersion import (ElasticConstants, PlateSpec,
                               k_grid_for_fh_band, trace_curves)
from lambid.wavefield import (DispersionImage, ObservationSet, RidgeError,
                              TXField, normalize_energy, read_observations,
                              read_txfield, ridge_pick, synth_wavefield,
                              two_dft, write_observations, write_txfield)

GEOMETRY = dict(n_x=1024, dx=0.3e-3, n_t=4096, dt=0.2e-6)
EXCITATION = dict(f_lo=0.05e6, f_hi=2.1e6, duration=0.3e-3)
BAND = (0.2, 4.098)  # MHz*mm, the CLI default band

# geometry, excitation, noise_rms and order of the synthesis
SYNTH_CASES = {
    # the CLI synth defaults with the bench's noisy level; b = 16 divides n_x
    "default": (dict(n_x=256, dx=1.8e-3, n_t=4096, dt=0.9765625e-6),
                dict(f_lo=10e3, f_hi=500e3, duration=1e-3), 0.1, 10),
    "criterion_08": (GEOMETRY, EXCITATION, 0.01, 12),
    # b = 19 does not divide n_x = 333, and n_t is odd
    "odd": (dict(n_x=333, dx=0.3e-3, n_t=2047, dt=0.2e-6), EXCITATION, 0.0, 12),
    # f_lo == f_hi: a four-cycle 400 kHz sine burst
    "sine": (dict(n_x=256, dx=1.8e-3, n_t=4096, dt=0.9765625e-6),
             dict(f_lo=400e3, f_hi=400e3, duration=10e-6), 0.0, 10),
}

# a 40 x 64 image spanning fh 0.2-2.0 MHz*mm on the 2 mm plate
RIDGE_F = np.linspace(0.1e6, 1.0e6, 40)
RIDGE_K = np.arange(1.0, 65.0) * 10.0


def _ridge_image(mag):
    return DispersionImage(magnitude=mag, f_axis=RIDGE_F, k_axis=RIDGE_K,
                           normalized=True)


def _plane_wave_field(f0, k0, n_t=512, n_x=256, dt=1e-6, dx=1e-3):
    t = np.arange(n_t) * dt
    x = np.arange(n_x) * dx
    samples = np.cos(2 * np.pi * f0 * t[None, :] - k0 * x[:, None])
    return TXField(samples=samples, dt=dt, dx=dx)


class TestTwoDft:
    def test_plane_wave_lands_in_positive_quadrant(self):
        # n_t is not 2 n_x and the bins differ, so a transposed or mirrored
        # transform puts the peak elsewhere
        n_t, n_x, dt, dx = 600, 256, 1e-6, 1e-3
        f0 = 20 / (n_t * dt)  # exactly f bin 20
        k0 = 2 * np.pi * 7 / (n_x * dx)  # exactly k bin 7
        img = two_dft(_plane_wave_field(f0, k0, n_t, n_x, dt, dx))
        i, j = np.unravel_index(np.argmax(img.magnitude), img.magnitude.shape)
        assert (i, j) == (20, 7)
        assert img.f_axis[i] == pytest.approx(f0)
        assert img.k_axis[j] == pytest.approx(k0)

    def test_axes_units(self):
        field = _plane_wave_field(30e3, 500.0)
        img = two_dft(field)
        assert img.f_axis[0] == 0.0 and img.k_axis[0] == 0.0
        assert np.all(np.diff(img.f_axis) > 0)
        assert img.magnitude.shape == (img.f_axis.size, img.k_axis.size)

    def test_window_flag_changes_spectrum(self):
        field = _plane_wave_field(30e3, 500.0)
        a = two_dft(field, window=False)
        b = two_dft(field, window=True)
        assert not np.allclose(a.magnitude, b.magnitude)

    @pytest.mark.parametrize("shape", [(33, 64), (33, 65), (2, 2), (5, 3)])
    def test_parseval_holds_on_random_fields(self, rng, shape):
        samples = rng.normal(size=shape)
        samples[1] = 0.0  # an all-zero trace is left unscaled
        field = TXField(samples=samples, dt=1e-6, dx=1e-3)
        img = two_dft(field)  # asserts
        ref = oracles.full_two_dft_magnitude(samples)
        assert np.max(np.abs(img.magnitude - ref)) <= 1e-12 * np.max(ref)
        assert np.array_equal(img.magnitude,
                              oracles.whole_field_two_dft_magnitude(samples))
        assert np.array_equal(two_dft(field, window=True).magnitude,
                              oracles.whole_field_two_dft_magnitude(samples, True))

    def test_blocks_cover_every_row_and_column(self, rng, monkeypatch):
        """Blocks of a few rows and columns, the last one partial, give the
        whole-field transform bit for bit."""
        monkeypatch.setattr(wavefield, "_BLOCK_BYTES", 3 * 65 * 8)
        samples = rng.normal(size=(10, 65))
        for window in (False, True):
            img = two_dft(TXField(samples=samples, dt=1e-6, dx=1e-3), window)
            assert np.array_equal(
                img.magnitude,
                oracles.whole_field_two_dft_magnitude(samples, window))

    @pytest.mark.parametrize("name", ["rfft", "ifft"])
    def test_parseval_catches_a_corrupted_transform(self, rng, monkeypatch,
                                                    name):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, **kw: 1.001 * transform(*a, **kw))
        field = TXField(samples=rng.normal(size=(33, 64)), dt=1e-6, dx=1e-3)
        with pytest.raises(AssertionError, match="Parseval"):
            two_dft(field)


class TestNormalize:
    def test_rows_sum_to_one(self):
        field = _plane_wave_field(30e3, 500.0)
        img = normalize_energy(two_dft(field))
        sums = img.magnitude.sum(axis=1)
        nonzero = sums > 0
        assert np.allclose(sums[nonzero], 1.0)
        assert img.normalized

    def test_zero_row_left_unchanged(self):
        mag = np.zeros((4, 8))
        mag[1] = np.arange(8.0)
        img = DispersionImage(magnitude=mag, f_axis=np.arange(4.0),
                              k_axis=np.arange(8.0), normalized=False)
        out = normalize_energy(img)
        assert np.all(out.magnitude[[0, 2, 3]] == 0.0)
        assert out.magnitude[1].sum() == pytest.approx(1.0)


class TestRidgePick:
    def test_flat_image_raises(self, plate):
        img = normalize_energy(
            DispersionImage(magnitude=np.ones((64, 64)),
                            f_axis=np.linspace(0, 2e6, 64),
                            k_axis=np.linspace(0, 4000, 64),
                            normalized=False))
        with pytest.raises(RidgeError):
            ridge_pick(img, band=(0.2, 4.0), plate=plate)

    def test_unnormalized_image_rejected(self, plate):
        img = DispersionImage(magnitude=np.ones((8, 8)),
                              f_axis=np.linspace(0, 2e6, 8),
                              k_axis=np.linspace(0, 4000, 8),
                              normalized=False)
        with pytest.raises(ValueError):
            ridge_pick(img, band=(0.2, 4.0), plate=plate)

    def test_later_ridge_starts_at_strongest_free_peak(self, plate):
        mag = np.zeros((40, 64))
        mag[:, 40] = 1.0  # row 0 has this peak only
        mag[1:, 10] = 0.5
        mag[1:, 25] = 0.9
        modes = ridge_pick(_ridge_image(mag), band=(0.2, 2.0), plate=plate
                           ).by_mode()
        # each ridge keeps one point per k bin, at the bin's lowest row
        assert modes["A0"][1].tolist() == [RIDGE_K[40]]
        assert modes["S0"][1].tolist() == [RIDGE_K[25]]
        assert modes["S0"][0].tolist() == [2 * np.pi * RIDGE_F[1]]

    def test_short_ridge_raises(self, plate):
        mag = np.zeros((40, 64))
        mag[:, 40] = 1.0
        mag[:5, 10] = 0.5
        with pytest.raises(RidgeError, match="ridge 1 only trackable over "
                           "5/40 band rows"):
            ridge_pick(_ridge_image(mag), band=(0.2, 2.0), plate=plate)

    def test_single_ridge_raises(self, plate):
        mag = np.zeros((40, 64))
        mag[:, 40] = 1.0
        with pytest.raises(RidgeError, match="only 1 of 2 ridges found"):
            ridge_pick(_ridge_image(mag), band=(0.2, 2.0), plate=plate)

    def test_recovers_synthetic_ridges(self, gfrp, plate):
        field = synth_wavefield(gfrp, plate, GEOMETRY, EXCITATION,
                                noise_rms=0.0, seed=1)
        obs = ridge_pick(normalize_energy(two_dft(field)), band=(0.2, 4.098),
                         plate=plate)
        modes = obs.by_mode()
        assert set(modes) == {"A0", "S0"}
        # A0 is slower: larger k at equal omega; compare mode-mean slopes
        for mode, (oms, ks) in modes.items():
            assert np.all(np.diff(np.sort(ks)) >= 0)
            assert oms.size > 20


JUMPS = (0, 1, 2.5, 3, 8)  # max_jump_bins, a float bound among them
PROMINENCES = (0.0, 0.3, 1.0)


def _same_as_list_scan(image, plate, band=BAND, **kwargs):
    """ridge_pick against oracles.list_scan_ridge_pick on one image: the
    same points, or a RidgeError with the same message.  Returns the
    points, or None after a RidgeError."""
    try:
        want = oracles.list_scan_ridge_pick(image, band, plate, **kwargs)
    except RidgeError as exc:
        with pytest.raises(RidgeError) as got:
            ridge_pick(image, band, plate, **kwargs)
        assert str(got.value) == str(exc)
        return None
    got = ridge_pick(image, band, plate, **kwargs)
    assert got.points == want.points and got.band == want.band
    return got.points


def _same_masks(rows):
    """_local_maxima against the run scan of every row, at each prominence."""
    for fraction in PROMINENCES:
        height = fraction * rows.max(axis=1)
        np.testing.assert_array_equal(
            wavefield._local_maxima(rows, height),
            oracles.run_scan_local_maxima(rows, height))


def _ridge_field(rng, n_ridges, n_rows=40, n_cols=64):
    """A normalized RIDGE_F x RIDGE_K image: n_ridges random-walk ridges of
    random strength over a noise floor.  Every third row is quantized, so
    that plateaus (exactly equal neighbours) mix with rows that have none."""
    mag = rng.uniform(0.0, 0.3, (n_rows, n_cols))
    for _ in range(n_ridges):
        col = int(rng.integers(4, n_cols - 4))
        amp = rng.uniform(0.5, 1.5)
        for row in range(n_rows):
            col = int(np.clip(col + rng.integers(-3, 4), 1, n_cols - 2))
            mag[row, col] += amp
            mag[row, col - 1] += 0.3 * amp
    mag[::3] = np.round(mag[::3] * 4) / 4
    return normalize_energy(DispersionImage(magnitude=mag, f_axis=RIDGE_F,
                                            k_axis=RIDGE_K))


class TestRidgePickMatchesListScan:
    """The peak finder's strict-neighbour rule and the in-place tracking
    loop give the points of the run scan and the per-row candidate lists
    they replaced (oracles.list_scan_ridge_pick), bit for bit."""

    @pytest.fixture(scope="class")
    def images(self, tmp_path_factory):
        """Normalized images of every SYNTH_CASES field and of the bench's
        first clean and first noisy signal fields, made by `lambid synth`
        from bench/gen.py's configs (seed 1)."""
        gfrp = ElasticConstants(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0)
        plate = PlateSpec(2e-3)
        out = {}
        for name, (geometry, excitation, noise, order) in SYNTH_CASES.items():
            field = synth_wavefield(gfrp, plate, geometry, excitation,
                                    noise_rms=noise, seed=7, order=order)
            out[name] = (normalize_energy(two_dft(field)), plate)
        root = Path(__file__).resolve().parents[1]
        gen = tmp_path_factory.mktemp("bench_signal")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        subprocess.run([sys.executable, str(root / "bench" / "gen.py"),
                        "--workload", "signal", "--seed", "1", "--out", str(gen)],
                       env=env, check=True, capture_output=True, timeout=120)
        for name in ("field_000", "field_001"):  # clean, then noisy
            cfg = config.load_config(gen / f"{name}.yaml")
            assert cli.main(["synth", "--config", str(gen / f"{name}.yaml"),
                             "--out", str(gen / name)]) == 0
            field = read_txfield(gen / name / cfg.files["wavefield"])
            out[name] = (normalize_energy(two_dft(field, cfg.extract["window"])),
                         cfg.require_plate())
        return out

    @pytest.mark.parametrize("name", [*sorted(SYNTH_CASES), "field_000",
                                      "field_001"])
    def test_synthesized_images(self, images, name):
        image, plate = images[name]
        _same_masks(image.magnitude)
        picked = {(jump, prominence): _same_as_list_scan(
            image, plate, max_jump_bins=jump, min_prominence=prominence)
            for jump in JUMPS for prominence in PROMINENCES}
        assert picked[3, 0.3]  # the defaults pick

    def test_random_images_with_two_to_five_ridges(self, rng, plate):
        outcomes = []
        for trial in range(40):
            image = _ridge_field(rng, n_ridges=2 + trial % 4)
            rows = image.magnitude
            flat = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
            assert flat.any() and not flat.all()  # both branches of the finder
            _same_masks(rows)
            outcomes += [_same_as_list_scan(image, plate, band=(0.2, 2.0),
                                            max_jump_bins=jump,
                                            min_prominence=prominence)
                         for jump in JUMPS for prominence in PROMINENCES]
        # both outcomes occur: picks, and RidgeErrors whose messages matched
        assert any(outcomes) and None in outcomes

    @pytest.mark.parametrize("case", ["zero", "flat", "single", "short"])
    def test_images_without_two_ridges(self, plate, case):
        mag = np.ones((40, 64)) if case == "flat" else np.zeros((40, 64))
        if case in ("single", "short"):
            mag[:, 40] = 1.0
        if case == "short":
            mag[:5, 10] = 0.5
        image = normalize_energy(DispersionImage(mag, RIDGE_F, RIDGE_K))
        assert _same_as_list_scan(image, plate, band=(0.2, 2.0)) is None


class TestSynth:
    def test_round_trip_accuracy(self, gfrp, plate):
        field = synth_wavefield(gfrp, plate, GEOMETRY, EXCITATION,
                                noise_rms=0.01, seed=7)
        obs = ridge_pick(normalize_energy(two_dft(field)), band=(0.2, 4.098),
                         plate=plate)
        k_grid = k_grid_for_fh_band(gfrp, plate, 0.2, 4.098, n_points=400,
                                    order=12)
        a0, _ = trace_curves(gfrp, plate, k_grid, order=12, method="dense")
        oms, ks = obs.by_mode()["A0"]
        dk_bin = 2 * np.pi / (GEOMETRY["n_x"] * GEOMETRY["dx"])
        k_true = np.interp(oms, a0.omega, a0.k)
        med = np.median(np.abs(ks - k_true)) / dk_bin
        assert med <= 1.0

    def test_reproducible_for_seed(self, gfrp, plate):
        small = dict(n_x=64, dx=1e-3, n_t=256, dt=1e-6)
        exc = dict(f_lo=20e3, f_hi=300e3, duration=1e-4)
        a = synth_wavefield(gfrp, plate, small, exc, noise_rms=0.05, seed=3)
        b = synth_wavefield(gfrp, plate, small, exc, noise_rms=0.05, seed=3)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("case", sorted(SYNTH_CASES))
    def test_matches_direct_exp_synthesis(self, gfrp, plate, case):
        """The factored phase table against one exp(-i k x) per mode over
        the whole grid, the half-spectrum 2DFT against the full complex
        one, and the picks of both paths through extract."""
        geometry, excitation, noise, order = SYNTH_CASES[case]
        field = synth_wavefield(gfrp, plate, geometry, excitation,
                                noise_rms=noise, seed=7, order=order)
        ref = oracles.exp_synth_wavefield(gfrp, plate, geometry, excitation,
                                          noise_rms=noise, seed=7, order=order)
        assert np.max(np.abs(field.samples - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(field.samples, oracles.whole_field_synth_wavefield(
            gfrp, plate, geometry, excitation, noise_rms=noise, seed=7,
            order=order))

        img = two_dft(field)
        mag = oracles.full_two_dft_magnitude(field.samples)
        assert np.max(np.abs(img.magnitude - mag)) <= 1e-12 * np.max(mag)
        assert np.array_equal(
            img.magnitude, oracles.whole_field_two_dft_magnitude(field.samples))
        assert np.array_equal(
            two_dft(field, window=True).magnitude,
            oracles.whole_field_two_dft_magnitude(field.samples, True))
        ref_img = DispersionImage(oracles.full_two_dft_magnitude(ref),
                                  img.f_axis, img.k_axis)
        picks = ridge_pick(normalize_energy(img), band=BAND, plate=plate)
        ref_picks = ridge_pick(normalize_energy(ref_img), band=BAND, plate=plate)
        assert len(picks) > 0 and picks.points == ref_picks.points

    def test_peak_memory_beyond_the_field(self, gfrp, plate):
        """Synthesis holds the samples and one block of rows; the 2DFT holds
        the input field, one half spectrum and blocks of about 1 MB."""
        geometry, excitation, noise, order = SYNTH_CASES["default"]
        tracemalloc.start()
        try:
            field = synth_wavefield(gfrp, plate, geometry, excitation,
                                    noise_rms=noise, seed=7, order=order)
            _, synth_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            two_dft(field)
            _, dft_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nbytes = field.samples.nbytes  # blocked 1.47, 1.38; whole-field 4.09, 3.00
        assert synth_peak <= 1.6 * nbytes
        assert dft_peak - held <= 1.6 * nbytes

    def test_nyquist_violation_names_axis(self, gfrp, plate):
        bad = dict(n_x=64, dx=1e-3, n_t=256, dt=1e-3)  # temporal undersampling
        exc = dict(f_lo=20e3, f_hi=900e3, duration=1e-4)
        with pytest.raises(ValueError, match="[Nn]yquist|time|frequency"):
            synth_wavefield(gfrp, plate, bad, exc)


class TestIO:
    def test_txfield_round_trip(self, gfrp, plate, tmp_path):
        small = dict(n_x=32, dx=1e-3, n_t=128, dt=1e-6)
        exc = dict(f_lo=20e3, f_hi=300e3, duration=5e-5)
        field = synth_wavefield(gfrp, plate, small, exc, seed=5)
        prefix = tmp_path / "wavefield"
        write_txfield(prefix, field)
        back = read_txfield(prefix)
        assert np.array_equal(back.samples, field.samples)
        assert back.dt == field.dt and back.dx == field.dx

    def test_observations_round_trip(self, tmp_path):
        obs = ObservationSet(points=[("A0", 1.5e5, 900.0), ("S0", 2e5, 400.0)],
                             band=(0.2, 4.0))
        path = tmp_path / "obs.csv"
        write_observations(path, obs)
        back = read_observations(path)
        assert back.band == obs.band
        assert back.points == obs.points

    def test_observation_columns(self):
        pts = [("S0", 2e5, 400.0), ("A0", 1.5e5, 900.0), ("S0", 3e5, 900.0)]
        obs = ObservationSet(points=pts, band=(0.2, 4.0))
        # grouped by mode, A0 first, in file order within a mode
        assert obs.branch.tolist() == [0, 1, 1]
        assert obs.omega.tolist() == [1.5e5, 2e5, 3e5]
        assert obs.k.tolist() == [900.0, 400.0, 900.0]
        # one (mode, k) pair per distinct observation, sorted by mode then k
        assert obs.pair_branch.tolist() == [0, 1, 1]
        assert obs.pair_k.tolist() == [900.0, 400.0, 900.0]
        assert np.array_equal(obs.pair_k[obs.pair_index], obs.k)
        assert np.array_equal(obs.pair_branch[obs.pair_index], obs.branch)
        assert set(obs.by_mode()) == {"A0", "S0"}

    def test_unknown_mode_labels_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"'S1', 'a0'"):
            ObservationSet(points=[("A0", 1.5e5, 900.0), ("S1", 2e5, 400.0),
                                   ("a0", 2e5, 500.0)], band=(0.2, 4.0))
        path = tmp_path / "obs.csv"
        path.write_text("mode,omega_rad_s,k_rad_m\nS1,200000,400\n")
        with pytest.raises(ValueError, match="S1"):
            read_observations(path)

    @pytest.mark.parametrize("row", [("S0", 2e5, -400.0), ("A0", np.nan, 900.0),
                                     ("A0", 1.5e5, np.inf), ("S0", 0.0, 400.0)])
    def test_non_finite_or_non_positive_values_rejected(self, row):
        with pytest.raises(ValueError, match=r"observation row 2 .*finite and positive"):
            ObservationSet(points=[("A0", 1.5e5, 900.0), row], band=(0.2, 4.0))
