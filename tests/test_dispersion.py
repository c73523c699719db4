import numpy as np
import pytest

import oracles
from conftest import one_negative_at, random_constants
from lambid.dispersion import (ElasticConstants, Mode, PlateSpec, SolveFallback,
                               TracingError, assemble_system, branch_cp,
                               complex_block, engineering_to_constants,
                               group_velocity, k_grid_for_fh_band,
                               phase_velocity, read_curves, realify,
                               sensitivity_sweep, smallest_physical_cp,
                               solve_full, solve_smallest, system_stack,
                               trace_curves, write_curves)


class TestEngineeringConversion:
    def test_gfrp_regression(self):
        # plane compliance inversion of the coupon datasheet values
        theta = engineering_to_constants(24.5e9, 14.6e9, 8.2e9, 0.46, 0.28,
                                         1200.0)
        assert theta.c11 == pytest.approx(28.12e9, rel=5e-3)
        assert theta.c13 == pytest.approx(7.79e9, rel=5e-3)
        assert theta.c33 == pytest.approx(16.76e9, rel=5e-3)
        assert theta.c55 == pytest.approx(8.2e9, rel=1e-12)
        assert theta.rho == 1200.0

    def test_reciprocal_pair_is_symmetric(self):
        # with reciprocity satisfied exactly, both off-diagonal routes agree
        e11, e22, nu12 = 50e9, 20e9, 0.3
        nu21 = nu12 * e22 / e11
        theta = engineering_to_constants(e11, e22, 5e9, nu12, nu21, 1500.0)
        d = 1 - nu12 * nu21
        assert theta.c13 == pytest.approx(nu21 * e11 / d, rel=1e-12)

    def test_negative_poisson_rejected(self):
        with pytest.raises(ValueError):
            engineering_to_constants(24.5e9, 14.6e9, 8.2e9, -0.46, -0.28,
                                     1200.0)


class TestConstants:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            ElasticConstants(-1.0, 1e9, 1e9, 1e9, 1000.0)
        with pytest.raises(ValueError):
            ElasticConstants(1e9, 1e9, 1e9, 1e9, 0.0)

    def test_loss_of_definiteness_not_rejected_at_type_level(self):
        # c13 >= sqrt(c11 c33) is rejected by the forward model (see
        # test_indefinite_stiffness_rejected_by_forward_model), not the dataclass
        theta = ElasticConstants(1e9, 5e9, 1e9, 1e9, 1000.0)
        assert theta.c13 == 5e9

    def test_indefinite_stiffness_rejected_by_forward_model(self, plate):
        theta = ElasticConstants(1e9, 5e9, 1e9, 1e9, 1000.0)
        with pytest.raises(TracingError, match="positive definite"):
            trace_curves(theta, plate, np.linspace(200, 2000, 10), order=8)
        with pytest.raises(TracingError, match="positive definite"):
            k_grid_for_fh_band(theta, plate, 0.3, 2.5, n_points=10, order=8)


class TestRealification:
    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_real_block_matches_complex_spectrum(self, rng, order):
        for _ in range(25):
            theta = random_constants(rng)
            kh = rng.uniform(0.2, 8.0)
            sysm = assemble_system(theta, kh, order)
            lam_real = np.sort(np.linalg.eigvals(realify(sysm)).real)
            lam_cplx = np.sort(np.linalg.eigvals(complex_block(sysm)).real)
            scale = np.abs(lam_cplx).max()
            assert np.allclose(lam_real, lam_cplx, atol=1e-9 * scale)

    def test_realified_matrix_is_symmetric(self, rng):
        # the dense solve relies on this, with no nonsymmetric fallback
        for _ in range(300):
            theta = random_constants(rng)
            order = int(rng.integers(2, 16))
            kh = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
            a_hat = realify(assemble_system(theta, kh, order))
            assert np.abs(a_hat - a_hat.T).max() <= 1e-13 * np.abs(a_hat).max()

    def test_batched_operator_matches_per_k_loop(self, rng):
        # A0's eigenvalue falls to ~1e-12 of the spectrum norm at kh ~ 0.05
        # and order >= 10, where rounding of either assembly moves its c_p by
        # up to ~2e-5; there the check is on the eigenvalue, as for the rest
        for _ in range(300):
            theta = random_constants(rng)
            order = int(rng.integers(2, 16))
            kh = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=10))
            stack = system_stack(theta, kh, order)
            lams = np.linalg.eigvalsh(stack)
            cps = branch_cp(theta, kh, order)
            for i in range(kh.size):
                a_hat = oracles.per_k_system(theta, kh[i], order)
                assert np.abs(stack[i] - a_hat).max() <= 1e-14 * np.abs(a_hat).max()
                ref_lams = np.linalg.eigvalsh(a_hat)
                scale = np.abs(ref_lams).max()
                assert np.abs(lams[i] - ref_lams).max() <= 1e-13 * scale
                ref = smallest_physical_cp(a_hat, 2, method="dense")
                assert ref.size == 2
                assert np.all(np.abs(cps[i] ** 2 - ref ** 2) <= 1e-13 * scale)
                well = ref ** 2 >= 1e-6 * scale
                assert np.all(np.abs(cps[i] - ref)[well] <= 1e-8 * ref[well])


class TestEigensolvers:
    def test_solve_smallest_matches_full(self, rng):
        for _ in range(25):
            theta = random_constants(rng)
            a_hat = realify(assemble_system(theta, rng.uniform(0.3, 6.0), 8))
            small = solve_smallest(a_hat, 2)
            full = solve_full(a_hat)
            full = full[np.argsort(np.abs(full))][:2]
            assert np.allclose(np.sort(small), np.sort(full),
                               rtol=1e-8, atol=1e-8 * np.abs(full).max())

    def test_single_mode(self, rng):
        theta = random_constants(rng)
        a_hat = realify(assemble_system(theta, 2.0, 6))
        one = solve_smallest(a_hat, 1)
        assert one.size == 1

    def test_bad_mode_count(self):
        with pytest.raises(ValueError):
            solve_smallest(np.eye(4), 3)

    def test_near_degenerate_raises_fallback(self):
        # eigenvalue gap ratio below the iteration's resolving power
        a = np.diag([-1.0, -1.0 - 1e-9, -5.0, -9.0])
        with pytest.raises(SolveFallback):
            lams = solve_smallest(a, 2)
            # if the iteration does separate them, it must match the truth
            assert np.allclose(np.sort(lams), [-1.0 - 1e-9, -1.0], atol=1e-6)
            raise SolveFallback  # accept either contract outcome

    def test_smallest_physical_skips_positive_eigenvalues(self):
        a = np.diag([0.5, -2.0, -7.0, 31.0])
        cps = smallest_physical_cp(a, n_modes=2, method="power")
        assert np.allclose(np.sort(cps), np.sqrt([2.0, 7.0]))

    def test_phase_velocity_rejects_positive(self):
        assert phase_velocity(4.0) is None
        assert phase_velocity(-4.0) == pytest.approx(2.0)


class TestTracing:
    def test_scale_invariance(self, gfrp, plate):
        k = k_grid_for_fh_band(gfrp, plate, 0.3, 3.0, n_points=12, order=10)
        base = trace_curves(gfrp, plate, k, order=10)
        s = 1.7
        scaled_theta = ElasticConstants(s * gfrp.c11, s * gfrp.c13,
                                        s * gfrp.c33, s * gfrp.c55,
                                        s * gfrp.rho)
        scaled = trace_curves(scaled_theta, plate, k, order=10)
        for b, sc in zip(base, scaled):
            assert np.allclose(b.omega, sc.omega, rtol=1e-10)

    def test_modes_ordered_and_monotone(self, gfrp, plate):
        k = k_grid_for_fh_band(gfrp, plate, 0.3, 3.0, n_points=15, order=10)
        a0, s0 = trace_curves(gfrp, plate, k, order=10)
        assert a0.mode_label is Mode.A0 and s0.mode_label is Mode.S0
        # A0 is the slower mode everywhere on this band
        assert np.all(a0.c_p < s0.c_p)
        assert np.all(np.diff(a0.omega) > 0)

    def test_dense_and_power_agree(self, gfrp, plate):
        k = k_grid_for_fh_band(gfrp, plate, 0.3, 2.5, n_points=8, order=10)
        a = trace_curves(gfrp, plate, k, order=10, method="power")
        b = trace_curves(gfrp, plate, k, order=10, method="dense")
        assert np.allclose(a[0].omega, b[0].omega, rtol=1e-8)
        assert np.allclose(a[1].omega, b[1].omega, rtol=1e-8)

    def test_excluded_points_warn_then_error(self, gfrp, plate, monkeypatch):
        import lambid.dispersion as dp

        real_solver = dp.smallest_physical_cp
        calls = {"n": 0}

        def flaky(a_hat, n_modes=2, method="power"):
            calls["n"] += 1
            if calls["n"] % 2 == 0:  # half the grid yields no physical pair
                return np.empty(0)
            return real_solver(a_hat, n_modes, method)

        monkeypatch.setattr(dp, "smallest_physical_cp", flaky)
        k = np.linspace(200, 2000, 10)
        with pytest.warns(RuntimeWarning), pytest.raises(TracingError):
            dp.trace_curves(gfrp, plate, k, order=8, method="power")

    def test_small_exclusion_fraction_warns_only(self, gfrp, plate,
                                                 monkeypatch):
        import lambid.dispersion as dp

        real_solver = dp.smallest_physical_cp
        calls = {"n": 0}

        def once_flaky(a_hat, n_modes=2, method="power"):
            calls["n"] += 1
            if calls["n"] == 3:
                return np.empty(0)
            return real_solver(a_hat, n_modes, method)

        monkeypatch.setattr(dp, "smallest_physical_cp", once_flaky)
        k = np.linspace(200, 2000, 10)
        with pytest.warns(RuntimeWarning):
            a0, s0 = dp.trace_curves(gfrp, plate, k, order=8, method="power")
        assert a0.k.size == 9

    def test_dense_exclusion_warns_then_errors(self, gfrp, plate, monkeypatch):
        k = np.linspace(200, 2000, 10)
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            one_negative_at(lambda n: [2]))
        with pytest.warns(RuntimeWarning, match="excluded"):
            a0, s0 = trace_curves(gfrp, plate, k, order=8, method="dense")
        assert np.array_equal(a0.k, np.delete(k, 2))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            one_negative_at(lambda n: range(1, n, 2)))
        with pytest.warns(RuntimeWarning), pytest.raises(TracingError):
            trace_curves(gfrp, plate, k, order=8, method="dense")

    def test_bad_grid_rejected(self, gfrp, plate):
        with pytest.raises(ValueError):
            trace_curves(gfrp, plate, np.array([2.0, 1.0]), order=6)
        with pytest.raises(ValueError):
            trace_curves(gfrp, plate, np.array([-1.0, 1.0]), order=6)

    def test_group_velocity_positive_on_fundamentals(self, gfrp, plate):
        k = k_grid_for_fh_band(gfrp, plate, 0.3, 2.0, n_points=12, order=10)
        a0, _ = trace_curves(gfrp, plate, k, order=10)
        a0g = group_velocity(a0)
        assert np.all(a0g.c_g > 0)
        assert np.all(a0g.c_g < 1.2 * np.max(a0.c_p) * 3)

    def test_group_velocity_needs_three_points(self, gfrp, plate):
        k = k_grid_for_fh_band(gfrp, plate, 0.5, 1.0, n_points=3, order=8)
        a0, _ = trace_curves(gfrp, plate, k[:2], order=8)
        with pytest.raises(ValueError):
            group_velocity(a0)


class TestBandGrid:
    def test_band_endpoints(self, gfrp, plate):
        k = k_grid_for_fh_band(gfrp, plate, 0.4, 3.0, n_points=20, order=10)
        a0, s0 = trace_curves(gfrp, plate, k, order=10)
        h_mm = plate.thickness * 1e3
        fh_lo = s0.omega[0] / (2 * np.pi) * 1e-6 * h_mm
        fh_hi = a0.omega[-1] / (2 * np.pi) * 1e-6 * h_mm
        assert fh_lo == pytest.approx(0.4, rel=1e-3)
        assert fh_hi == pytest.approx(3.0, rel=1e-3)

    def test_grid_is_increasing(self, gfrp, plate):
        k = k_grid_for_fh_band(gfrp, plate, 0.3, 3.0, n_points=30, order=10)
        assert np.all(np.diff(k) > 0)


class TestSensitivity:
    def test_sweep_keys_and_shift_shapes(self, gfrp, plate):
        k = k_grid_for_fh_band(gfrp, plate, 0.4, 2.0, n_points=8, order=8)
        out = sensitivity_sweep(gfrp, plate, k, 0.1, order=8)
        assert set(out) == {"c11", "c13", "c33", "c55", "rho"}
        prof = out["c55"].shift_profile(Mode.A0)
        assert prof.shape == k.shape
        assert np.all(prof >= 0)

    def test_zero_perturbation_is_null(self, gfrp, plate):
        k = k_grid_for_fh_band(gfrp, plate, 0.4, 2.0, n_points=6, order=8)
        out = sensitivity_sweep(gfrp, plate, k, 0.0, order=8)
        for res in out.values():
            assert res.max_shift["A0"] == pytest.approx(0.0, abs=1e-12)


class TestCurveIO:
    def test_round_trip(self, gfrp, plate, tmp_path):
        k = k_grid_for_fh_band(gfrp, plate, 0.4, 2.0, n_points=9, order=8)
        curves = trace_curves(gfrp, plate, k, order=8)
        curves = tuple(group_velocity(c) for c in curves)
        path = tmp_path / "curves.csv"
        write_curves(path, curves, plate)
        back = read_curves(path)
        assert set(back) == {"A0", "S0"}
        assert np.allclose(2 * np.pi * back["A0"]["f"], curves[0].omega,
                           rtol=1e-9)
        assert np.allclose(back["S0"]["c_p"], curves[1].c_p, rtol=1e-9)
        assert np.allclose(back["A0"]["c_g"], curves[0].c_g, rtol=1e-9)
