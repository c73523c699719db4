from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import one_negative_at, random_constants
from lambid.dispersion import (ElasticConstants, Mode, PlateSpec,
                               TracingError, assemble_system, branch_cp,
                               complex_block, engineering_to_constants,
                               group_velocity, inverse_power_eigs,
                               k_grid_for_fh_band, realify, sensitivity_sweep,
                               smallest_physical_cp, trace_curves, write_curves)
from lambid import dispersion, textio


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, plate, bad):
        # NaN passed `<= 0`: a NaN plate gave an all-NaN k grid and a NaN
        # c11 failed inside LAPACK ("Eigenvalues did not converge")
        for i in range(5):
            values = [30e9, 8e9, 17e9, 8e9, 1200.0]
            values[i] = bad
            with pytest.raises(ValueError, match="finite"):
                ElasticConstants(*values)
        with pytest.raises(ValueError, match="finite"):
            PlateSpec(bad)

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
            stack = [realify(assemble_system(theta, x, order)) for x in kh]
            blocks = oracles.parity_blocks(theta, kh, [[0], [1]], order)
            lams = np.linalg.eigvalsh(blocks)
            cps = branch_cp(theta, kh, order)
            anti, sym = oracles.parity_sets(order)
            for i in range(kh.size):
                a_hat = oracles.per_k_system(theta, kh[i], order)
                top = np.abs(a_hat).max()
                assert np.abs(stack[i] - a_hat).max() <= 1e-14 * top
                # no entry joins the two parity sets, so the blocks are exact
                assert np.all(a_hat[np.ix_(anti, sym)] == 0.0)
                assert np.all(a_hat[np.ix_(sym, anti)] == 0.0)
                for b, idx in enumerate((anti, sym)):
                    assert np.abs(blocks[b, i] - a_hat[np.ix_(idx, idx)]).max() \
                        <= 1e-14 * top
                ref_lams = np.linalg.eigvalsh(a_hat)
                scale = np.abs(ref_lams).max()
                assert np.abs(np.sort(lams[:, i], axis=None) - ref_lams).max() \
                    <= 1e-13 * scale
                # each column carries the label of its eigenvector's parity
                ref, leak = oracles.labelled_branches(a_hat, order)
                assert leak <= 1e-12
                assert np.all(np.abs(cps[i] ** 2 + ref) <= 1e-13 * scale)
                well = -ref >= 1e-6 * scale
                ref_cp = np.sqrt(-ref)
                assert np.all(np.abs(cps[i] - ref_cp)[well] <= 1e-8 * ref_cp[well])
                # the per-k loop's magnitude rule gives the same pair, unlabelled
                pair = smallest_physical_cp(a_hat, 2, method="dense")
                assert pair.size == 2
                assert np.all(np.abs(np.sort(cps[i]) ** 2 - pair ** 2)
                              <= 1e-13 * scale)

    @pytest.mark.parametrize("method", ["dense", "power"])
    def test_pair_solve_matches_branch_columns(self, rng, method, gfrp):
        # the pair-level solve that branch_cp replaced (oracles.mode_cp)
        # does the same arithmetic and the same LAPACK call on each block,
        # so branch_cp gives its entries bit for bit, asked in any order
        # and with repeats: 300 draws of test_batched_operator_matches_per_k_loop,
        # then 10 materials within 30 % of GFRP at orders 6, 10 and 14 on
        # 200 kh from 0.02, where A0's eigenvalue nears rounding size
        for _ in range(300):
            theta = random_constants(rng)
            order = int(rng.integers(2, 16))
            kh = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=10))
            cps = branch_cp(theta, kh, order, method)
            ki = np.r_[np.repeat(np.arange(kh.size), 2), rng.integers(0, kh.size, 5)]
            br = np.r_[np.tile([0, 1], kh.size), rng.integers(0, 2, 5)]
            perm = rng.permutation(ki.size)
            got = oracles.mode_cp(theta, kh[ki[perm]], br[perm], order, method)
            assert np.array_equal(got, cps[ki[perm], br[perm]], equal_nan=True)
        kh = np.geomspace(0.02, 20.0, 200)
        for _ in range(10):
            theta = ElasticConstants(*(np.array([gfrp.c11, gfrp.c13, gfrp.c33,
                                                 gfrp.c55, gfrp.rho])
                                       * rng.uniform(0.7, 1.3, 5)))
            for order in (6, 10, 14):
                want = oracles.mode_cp(theta, kh[:, None], [0, 1], order, method)
                want[np.isnan(want).any(axis=1)] = np.nan
                assert np.array_equal(branch_cp(theta, kh, order, method), want,
                                      equal_nan=True)

    def test_power_matches_per_block_loop(self, rng, gfrp, plate):
        # draws like those of test_pair_solve_matches_branch_columns, then
        # the default band at the CLI order: the batched kernel gives the
        # per-block loop's c_p to rounding, with the same NaN rows
        def check(theta, kh, order):
            got = branch_cp(theta, kh, order, "power")
            ref = oracles.per_block_power_cp(
                oracles.parity_blocks(theta, kh[:, None], [0, 1], order))
            ref[np.isnan(ref).any(axis=1)] = np.nan
            assert np.array_equal(np.isnan(got), np.isnan(ref))
            ok = ~np.isnan(ref)
            assert np.all(np.abs(got - ref)[ok] <= 1e-12 * ref[ok])

        for _ in range(300):
            theta = random_constants(rng)
            order = int(rng.integers(2, 16))
            kh = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=10))
            check(theta, kh, order)
        k = k_grid_for_fh_band(gfrp, plate, 0.2, 4.098, n_points=200, order=14)
        check(gfrp, k * plate.thickness, 14)

    def test_power_mixed_stack(self, gfrp, monkeypatch):
        # a well-separated physical block; a near-degenerate pair, which the
        # iteration delivers to its tolerance; a positive smallest
        # eigenvalue; and a gap ratio of 0.999, which stalls in
        # _POWER_MAXIT steps.  The last two get the dense answer, and
        # every block gets its value when solved alone (as both blocks of
        # a one-kh stack), bit for bit
        import lambid.dispersion as dp

        stack = np.array([oracles.parity_blocks(gfrp, 1.0, 0, 3),
                          np.diag([-1.0, -1.0 - 1e-9, -5.0, -9.0]),
                          np.diag([0.5, -2.0, -7.0, 31.0]),
                          np.diag([-1.0, -1.001, -5.0, -9.0])])
        lams = np.linalg.eigvalsh(stack)
        dense = np.sqrt(-np.where(lams < 0, lams, -np.inf).max(axis=-1))
        kernel = inverse_power_eigs(stack, 1)[:, 0]
        assert np.all(kernel[:2] < 0) and kernel[2] > 0 and np.isnan(kernel[3])

        def solve(blocks):  # [K, 2, n, n] in branch_cp's stack
            monkeypatch.setattr(dp, "_quadratic", lambda *args: blocks)
            return branch_cp(gfrp, 1.0, 3, method="power").ravel()

        got = solve(stack.reshape(2, 2, 4, 4))
        assert np.array_equal(got[:2], np.sqrt(-kernel[:2]))
        assert np.all(np.abs(got[:2] - dense[:2]) <= 1e-9 * dense[:2])
        assert np.array_equal(got[2:], dense[2:])
        for i, block in enumerate(stack):
            assert np.all(solve(np.array([[block, block]])) == got[i])
        # a block that is not finite is NaN on its own, and a stack that
        # cannot be inverted is NaN throughout
        with_nan = inverse_power_eigs(np.r_[stack, np.full((1, 4, 4), np.nan)], 2)
        assert np.array_equal(with_nan[:-1], inverse_power_eigs(stack, 2),
                              equal_nan=True)
        assert np.isnan(with_nan[-1]).all()
        assert np.isnan(inverse_power_eigs(np.r_[stack, np.zeros((1, 4, 4))], 2)).all()

    def test_parity_blocks_negative_definite(self, rng):
        # -A is the Galerkin matrix of a positive-definite strain energy, so
        # every parity block is negative definite, and a likelihood that
        # solves only the observed pair's block rejects the same materials
        # as one that asks both blocks at that k.  In floating point the
        # largest eigenvalue stays below zero at kh >= 0.2 (the bench's
        # observations start at kh 0.27); below kh 0.1, with c13^2 within
        # ~1e-6 of c11 c33, A0's eigenvalue is itself of rounding size and
        # its sign is left to rounding
        for _ in range(2000):
            c11, c33 = rng.uniform(10e9, 200e9, 2)
            # c13^2 from near 0 up to (1 - 1e-6) c11 c33
            c13 = np.sqrt((1 - 10 ** rng.uniform(-6, -0.01)) * c11 * c33)
            theta = ElasticConstants(c11, c13, c33, rng.uniform(2e9, 60e9),
                                     rng.uniform(800.0, 3000.0))
            order = int(rng.integers(2, 21))
            kh = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=10))
            lams = np.linalg.eigvalsh(oracles.parity_blocks(theta, kh, [[0], [1]],
                                                            order))
            top = lams[..., -1] / np.abs(lams).max(axis=-1)  # [2, 10]
            assert np.all(top < 1e-15)
            assert np.all(top[:, kh >= 0.2] < 0)

    def test_branch_cp_gives_nan_for_its_own_row_only(self, gfrp, monkeypatch):
        # the A0 block at the middle kh has no negative eigenvalue: that
        # row is NaN in both columns, and the other rows keep their values
        kh = np.array([0.5, 1.0, 2.0])
        want = branch_cp(gfrp, kh, 10)
        eigvalsh = np.linalg.eigvalsh

        def no_a0_at_middle(a):
            lams = eigvalsh(a)
            lams[1, 0] = np.sort(np.abs(lams[1, 0]))
            return lams

        monkeypatch.setattr(np.linalg, "eigvalsh", no_a0_at_middle)
        got = branch_cp(gfrp, kh, 10)
        assert np.isnan(got[1]).all()
        assert np.array_equal(got[[0, 2]], want[[0, 2]])

    def test_branch_cp_rejects_bad_input(self, gfrp):
        with pytest.raises(ValueError, match="method"):
            branch_cp(gfrp, [1.0, 2.0], 10, method="qr")
        with pytest.raises(ValueError, match="kh"):
            branch_cp(gfrp, [0.0, 1.0], 10)
        with pytest.raises(TracingError, match="positive definite"):
            branch_cp(ElasticConstants(1e9, 5e9, 1e9, 1e9, 1000.0), 1.0, 10)

    def test_crossing_keeps_labels(self, plate):
        # this material's A0 and S0 cross between kh 3 and 4: at kh 4.547 the
        # A0 (antisymmetric) branch is the faster one, so a rule that calls
        # the slower of one spectrum's two smallest negatives A0 swaps them
        theta = ElasticConstants(152.3e9, 86.9e9, 79.6e9, 28.5e9, 1055.0)
        kh = 4.547
        ref, leak = oracles.labelled_branches(oracles.per_k_system(theta, kh, 14), 14)
        assert leak <= 1e-12
        for order in (12, 14, 20, 30, 40):
            for method in ("dense", "power"):
                a0, s0 = branch_cp(theta, kh, order, method)[0]
                assert a0 == pytest.approx(4324.707, abs=1e-3)
                assert s0 == pytest.approx(3996.647, abs=1e-3)
        cps = branch_cp(theta, kh, 14)[0]
        assert np.allclose(cps, np.sqrt(-ref), rtol=1e-10, atol=0.0)
        pair = smallest_physical_cp(realify(assemble_system(theta, kh, 14)), 2,
                                    method="dense")
        assert np.allclose(pair, np.sort(cps), rtol=1e-10, atol=0.0)
        k = np.geomspace(1.0, kh, 30) / plate.thickness
        a0, s0 = trace_curves(theta, plate, k, order=14)
        assert np.allclose([a0.c_p[-1], s0.c_p[-1]], cps, rtol=1e-12, atol=0.0)
        kh_grid = a0.k * plate.thickness
        assert np.all(a0.c_p[kh_grid < 3.0] < s0.c_p[kh_grid < 3.0])
        assert np.all(a0.c_p[kh_grid > 4.0] > s0.c_p[kh_grid > 4.0])


class TestBasis:
    """A(kh) is linear in q = (c11, c13, c33, c55) / rho with no constant
    term, which the cached material-free basis encodes."""

    @staticmethod
    def _draw(rng):
        order = int(rng.integers(2, 16))
        return order, np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=10))

    def test_blocks_depend_on_ratios_only(self, rng):
        for _ in range(100):
            theta = random_constants(rng)
            order, kh = self._draw(rng)
            ref = oracles.parity_blocks(theta, kh, [[0], [1]], order)
            top = np.abs(ref).max(axis=(-2, -1), keepdims=True)
            for t in (0.5, 1.7, 3.3):
                scaled = ElasticConstants(t * theta.c11, t * theta.c13,
                                          t * theta.c33, t * theta.c55,
                                          t * theta.rho)
                got = oracles.parity_blocks(scaled, kh, [[0], [1]], order)
                assert np.all(np.abs(got - ref) <= 1e-15 * top)

    def test_blocks_are_linear_in_stiffness(self, rng):
        for _ in range(100):
            one, two = random_constants(rng), random_constants(rng)
            two = ElasticConstants(two.c11, two.c13, two.c33, two.c55, one.rho)
            both = ElasticConstants(one.c11 + two.c11, one.c13 + two.c13,
                                    one.c33 + two.c33, one.c55 + two.c55,
                                    one.rho)
            order, kh = self._draw(rng)
            blocks = [oracles.parity_blocks(theta, kh, [[0], [1]], order)
                      for theta in (one, two, both)]
            top = np.abs(blocks[2]).max(axis=(-2, -1), keepdims=True)
            assert np.all(np.abs(blocks[0] + blocks[1] - blocks[2])
                          <= 1e-14 * top)

    @pytest.mark.parametrize("order", [10, 14])
    def test_negative_semidefinite_on_the_psd_cone(self, rng, order):
        # A(Q) <= 0 for every positive semidefinite Voigt matrix
        # Q = [[q11, q13], [q13, q33]] + q55, singular ones and q13 < 0
        # included: the Loewner bracket of the sampler's early rejection
        # rests on this, since A is linear in Q
        import lambid.dispersion as dp

        split = dp._basis(order)[1]
        kh = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=50))
        for i in range(60):
            l11, l31, l33 = rng.normal(size=3)
            if i % 3 == 1:
                l33 = 0.0  # singular 2x2 part
            q55 = 0.0 if i % 3 == 2 else rng.exponential()
            q = 1e7 * np.array([l11**2, l11 * l31, l31**2 + l33**2, q55])
            blocks = dp._quadratic(np.tensordot(q, split, axes=1), kh[:, None])
            lams = np.linalg.eigvalsh(blocks)  # [50, 2, n]
            assert np.all(lams[..., -1] <= 1e-14 * np.abs(lams).max(axis=-1))

    def test_basis_cached_read_only_and_order_checked(self):
        import lambid.dispersion as dp

        full, split = dp._basis(6)
        assert full.shape == (4, 3, 14, 14) and split.shape == (4, 3, 2, 7, 7)
        assert dp._basis(6)[0] is full and dp._basis(6)[1] is split
        for basis in (full, split):
            with pytest.raises(ValueError, match="read-only"):
                basis[0, 0, 0] = 1.0
        cached = dp._basis.cache_info().currsize
        for order in (0, -3):
            with pytest.raises(ValueError, match="order"):
                dp._basis(order)
        assert dp._basis.cache_info().currsize == cached


    def test_pair_basis_shape_and_checks(self):
        import lambid.dispersion as dp

        c = dp._pair_basis([0.5, 1.0, 2.0], [0, 1, 0], 4)
        assert c.shape == (4, 3, 5, 5)
        # a boolean branch would index as a mask, and a float one not at all
        for branch in ([0, 2], [0.0, 1.0], [True, False]):
            with pytest.raises(ValueError, match="branch"):
                dp._pair_basis([0.5, 1.0], branch, 4)
        with pytest.raises(ValueError, match="kh"):
            dp._pair_basis([0.0, 1.0], [0, 1], 4)
        with pytest.raises(ValueError, match="order"):
            dp._pair_basis([0.5, 1.0], [0, 1], 0)


class TestEigensolvers:
    def test_kernel_matches_full(self, rng):
        stack = np.array([
            realify(assemble_system(random_constants(rng),
                                    rng.uniform(0.3, 6.0), 8))
            for _ in range(25)])
        smalls = inverse_power_eigs(stack, 2)
        assert not np.isnan(smalls).any()
        for a_hat, small in zip(stack, smalls):
            full = oracles.solve_full(a_hat)
            full = full[np.argsort(np.abs(full))][:2]
            assert np.allclose(np.sort(small), np.sort(full),
                               rtol=1e-8, atol=1e-8 * np.abs(full).max())

    def test_kernel_matches_scalar_loop(self):
        # criterion 4's draws in one stack: the kernel gives the scalar
        # loop's eigenvalues to rounding, and NaN on the draws where the
        # loop gives up
        rng = np.random.default_rng(41)
        stack = []
        for _ in range(100):
            theta = random_constants(rng)
            stack.append(realify(assemble_system(theta, rng.uniform(0.3, 6.0), 8)))
        for a_hat, got in zip(stack, inverse_power_eigs(np.array(stack), 2)):
            try:
                ref = oracles.scalar_solve_smallest(a_hat, 2)
            except np.linalg.LinAlgError:
                assert np.isnan(got).any()
                continue
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    def test_single_mode(self, rng):
        theta = random_constants(rng)
        a_hat = realify(assemble_system(theta, 2.0, 6))
        one = inverse_power_eigs(a_hat[None], 1)
        assert one.shape == (1, 1) and not np.isnan(one).any()
        assert one[0, 0] == inverse_power_eigs(a_hat[None], 2)[0, 0]

    def test_bad_mode_count(self):
        # a 4 x 4 block has four eigenvalues; the columns past them are NaN
        got = inverse_power_eigs(np.diag([-1.0, -2.0, 5.0, -9.0])[None], 6)
        assert got.shape == (1, 6)
        assert np.allclose(got[0, :4], [-1.0, -2.0, 5.0, -9.0], rtol=1e-10)
        assert np.isnan(got[0, 4:]).all()

    def test_near_degenerate_nan_or_exact(self):
        # eigenvalue gap ratio below the iteration's resolving power: an
        # eigenvalue the kernel cannot deliver is NaN, one it delivers
        # matches the truth
        a = np.diag([-1.0, -1.0 - 1e-9, -5.0, -9.0])
        lams = inverse_power_eigs(a[None], 2)[0]
        assert np.all(np.isnan(lams)
                      | np.isclose(lams, [-1.0, -1.0 - 1e-9], rtol=0, atol=1e-6))

    def test_smallest_physical_skips_positive_eigenvalues(self):
        a = np.diag([0.5, -2.0, -7.0, 31.0])
        cps = smallest_physical_cp(a, n_modes=2, method="dense")
        assert np.allclose(np.sort(cps), np.sqrt([2.0, 7.0]))
        with pytest.raises(ValueError, match="method"):
            smallest_physical_cp(a, n_modes=2, method="power")


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

    @staticmethod
    def _power_gives_up_at(monkeypatch, blocks):
        """The power kernel gives up on the flat block indices `blocks` of
        each call (branch_cp stacks A0 then S0 at each kh in turn, so index
        2i + b is branch b at kh i), and the dense fallback finds no
        negative eigenvalue in any block sent to it."""
        import lambid.dispersion as dp

        real_kernel = dp.inverse_power_eigs

        def gives_up(a, count):
            out = real_kernel(a, count)
            out[blocks] = np.nan
            return out

        monkeypatch.setattr(dp, "inverse_power_eigs", gives_up)
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            one_negative_at(lambda n: range(n)))

    def test_excluded_points_warn_then_error(self, gfrp, plate, monkeypatch):
        # half the grid yields no physical pair
        self._power_gives_up_at(monkeypatch, np.arange(1, 10, 2))
        k = np.linspace(200, 2000, 10)
        with pytest.warns(RuntimeWarning), pytest.raises(TracingError):
            trace_curves(gfrp, plate, k, order=8, method="power")

    def test_small_exclusion_fraction_warns_only(self, gfrp, plate,
                                                 monkeypatch):
        self._power_gives_up_at(monkeypatch, [2])
        k = np.linspace(200, 2000, 10)
        with pytest.warns(RuntimeWarning):
            a0, s0 = trace_curves(gfrp, plate, k, order=8, method="power")
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

    def test_auto_converge_default_band_stops_at_order_16(self, gfrp, plate):
        k = k_grid_for_fh_band(gfrp, plate, 0.2, 4.098, n_points=200, order=14)
        got = trace_curves(gfrp, plate, k, order=14, auto_converge=True)
        want = trace_curves(gfrp, plate, k, order=16)
        for g, w in zip(got, want):
            assert np.array_equal(g.omega, w.omega)

    @staticmethod
    def _steps(monkeypatch, moves):
        """branch_cp, with the c_p of each order scaled so that the step to
        order m moves every point by moves.get(m, 0) relative, on top of
        the true change."""
        import lambid.dispersion as dp

        real = dp.branch_cp
        factor = {14: 1.0}
        for m in range(16, 42, 2):
            factor[m] = factor[m - 2] * (1.0 + moves.get(m, 0.0))
        monkeypatch.setattr(dp, "branch_cp", lambda theta, kh, order, method:
                            real(theta, kh, order, method) * factor[order])

    def test_auto_converge_is_bounded(self, gfrp, plate, monkeypatch):
        # steps of 2e-5 never meet the stopping rule (the rounding bound on
        # this band stays below 3e-7), and without the bound the order
        # would climb forever
        self._steps(monkeypatch, {m: 2e-5 for m in range(16, 42, 2)})
        k = k_grid_for_fh_band(gfrp, plate, 0.2, 4.098, n_points=30, order=14)
        with pytest.raises(TracingError, match="by order 40"):
            trace_curves(gfrp, plate, k, order=14, auto_converge=True)

    @pytest.mark.parametrize("grid_order", [10, 14])
    def test_auto_converge_needs_two_small_steps(self, gfrp, plate,
                                                 monkeypatch, grid_order):
        # a small step to 16, a large one to 18, then small ones to 20 and
        # 22: one small step is not taken for convergence, and the middle
        # order of the first two small steps in a row is returned
        self._steps(monkeypatch, {18: 2e-5})
        k = k_grid_for_fh_band(gfrp, plate, 0.2, 4.098, n_points=30,
                               order=grid_order)
        a0, s0 = trace_curves(gfrp, plate, k, order=14, auto_converge=True)
        assert a0.order == s0.order == 20

    def test_auto_converge_verdict_survives_grid_rounding(self, gfrp, plate):
        # the band edges by a quadratic eigenproblem and by a root search
        # differ by ~1e-11 relative.  At kh 0.028 eigenvalue rounding alone
        # moves A0's c_p by 5e-7 to 6e-6 per step, so a rule of 1e-6 alone
        # stopped the one grid at order 20 and ran the other past order 40;
        # counting the rounding bound as small gives both one verdict
        for k in (k_grid_for_fh_band(gfrp, plate, 0.02, 4.098, n_points=30,
                                     order=14),
                  oracles.k_grid_brentq(gfrp, plate, 0.02, 4.098, n_points=30,
                                        order=14)):
            a0, s0 = trace_curves(gfrp, plate, k, order=14, auto_converge=True)
            assert a0.order == s0.order == 16

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

    def test_named_parameters_only(self, gfrp, plate):
        k = k_grid_for_fh_band(gfrp, plate, 0.4, 2.0, n_points=6, order=8)
        out = sensitivity_sweep(gfrp, plate, k, 0.1, order=8,
                                names=["rho", "c11"])
        assert list(out) == ["rho", "c11"]
        full = sensitivity_sweep(gfrp, plate, k, 0.1, order=8)
        assert list(full) == ["c11", "c13", "c33", "c55", "rho"]
        assert out["c11"].max_shift == full["c11"].max_shift
        with pytest.raises(ValueError, match=r"\['c99'\]"):
            sensitivity_sweep(gfrp, plate, k, 0.1, order=8, names=["c11", "c99"])

    @pytest.mark.parametrize("method, bound", [("dense", 1e-9), ("power", 1e-12)])
    def test_rho_curves_match_a_retrace(self, gfrp, baseline, plate, method,
                                        bound):
        """rho * f scales A by 1/f, so the closed-form curves c_p / sqrt(f)
        equal a re-trace to within the eigensolver's rounding: at most
        8.0e-10 relative by eigvalsh at small kh, 1.6e-14 by power."""
        for theta in (gfrp, baseline):
            for order in (8, 14):
                k = k_grid_for_fh_band(theta, plate, 0.2, 4.098, n_points=200,
                                       order=order)
                for p in (0.1, 0.3, 0.9):
                    res = sensitivity_sweep(theta, plate, k, p, order=order,
                                            method=method, names=["rho"])["rho"]
                    for curves, f in ((res.minus, 1 - p), (res.plus, 1 + p)):
                        ref = trace_curves(replace(theta, rho=theta.rho * f),
                                           plate, k, order=order, method=method)
                        for got, want in zip(curves, ref):
                            assert got.mode_label == want.mode_label
                            assert np.array_equal(got.k, want.k)
                            assert got.order == want.order and got.c_g is None
                            assert np.max(np.abs(got.c_p / want.c_p - 1)) <= bound
                            assert np.max(np.abs(got.omega / want.omega - 1)) <= bound

    def test_repeated_name_is_traced_once(self, gfrp, plate, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return trace_curves(*args, **kwargs)

        monkeypatch.setattr(dispersion, "trace_curves", spy)
        k = k_grid_for_fh_band(gfrp, plate, 0.4, 2.0, n_points=6, order=8)
        out = sensitivity_sweep(gfrp, plate, k, 0.1, order=8,
                                names=["c55", "rho", "c55", "rho"])
        assert list(out) == ["c55", "rho"]
        # the baseline, then c55 -/+; rho's curves are scaled, not traced
        assert [theta.c55 / gfrp.c55 for theta in calls] == pytest.approx(
            [1.0, 0.9, 1.1], rel=1e-15)

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
        _, lines = textio.read_table(
            path, "mode,k_rad_m,f_hz,fh_mhz_mm,c_p_m_s,c_g_m_s")
        modes = np.array(textio.labels(lines))
        a0, s0 = modes == "A0", modes == "S0"
        assert a0.sum() == s0.sum() == k.size and np.all(a0[:k.size])
        _, f, _, c_p, c_g = textio.float_columns(lines, 1, 5).T
        assert np.allclose(2 * np.pi * f[a0], curves[0].omega, rtol=1e-9)
        assert np.allclose(c_p[s0], curves[1].c_p, rtol=1e-9)
        assert np.allclose(c_g[a0], curves[0].c_g, rtol=1e-9)
