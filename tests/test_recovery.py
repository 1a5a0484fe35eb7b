import numpy as np
import pytest

from imdsec.recovery import (
    QualityClass,
    RecoveryError,
    RecoveryParams,
    build_basis,
    classify_prd,
    cr_to_measurements,
    gen_sensing_matrix,
    omp_reconstruct,
    prd,
    synth_sparse_signal,
)


class TestSensingMatrix:
    def test_shape_and_cr(self):
        phi = gen_sensing_matrix(b"s", 256, 512)
        assert phi.entries.shape == (256, 512)
        assert phi.compression_rate == 50.0

    def test_deterministic(self):
        a = gen_sensing_matrix(b"same", 64, 128)
        b = gen_sensing_matrix(b"same", 64, 128)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_moment_oracle(self):
        phi = gen_sensing_matrix(b"stats", 256, 512)
        flat = phi.entries.ravel()
        n = 512
        # sample mean within 3 sigma of 0, variance within 10% of 1/N
        assert abs(flat.mean()) < 3.0 / np.sqrt(n * flat.size / n)
        assert 0.9 / n < flat.var() < 1.1 / n

    def test_invalid_dims(self):
        with pytest.raises(RecoveryError):
            gen_sensing_matrix(b"x", 512, 512)
        with pytest.raises(RecoveryError):
            gen_sensing_matrix(b"x", 0, 512)

    def test_cr_mapping(self):
        assert cr_to_measurements(512, 50) == 256
        assert cr_to_measurements(512, 90) == 51
        assert cr_to_measurements(512, 75) == 128


class TestBasis:
    def test_cosine_orthonormal_small(self):
        psi = build_basis(4)
        gram = psi.columns.T @ psi.columns
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_orthonormal(self):
        psi = build_basis(64)
        gram = psi.columns.T @ psi.columns
        assert np.max(np.abs(gram - np.eye(64))) < 1e-9

    def test_single_atom_is_one_sparse(self):
        psi = build_basis(32)
        x = psi.columns[:, 7]
        coeffs = psi.analyze(x)
        assert np.count_nonzero(np.abs(coeffs) > 1e-9) == 1
        assert coeffs[7] == pytest.approx(1.0)

    def test_transform_roundtrip(self):
        psi = build_basis(128)
        rng = np.random.default_rng(1)
        x = rng.normal(size=128)
        np.testing.assert_allclose(psi.synthesize(psi.analyze(x)), x, atol=1e-9)

    def test_too_small(self):
        with pytest.raises(RecoveryError):
            build_basis(1)


class TestOmp:
    def test_one_sparse_exact(self):
        psi = build_basis(64)
        phi = gen_sensing_matrix(b"omp1", 8, 64)
        x = 5.0 * psi.columns[:, 3]
        y = phi.entries @ x
        b_hat, x_hat = omp_reconstruct(y, phi, psi)
        assert prd(x, x_hat) < 1e-6
        assert np.argmax(np.abs(b_hat)) == 3

    def test_planted_support_oracle(self):
        # 10-sparse plants at half compression: the recovered support must
        # contain every planted atom and PRD must beat 1% in >= 95 of 100 runs
        n, m, s = 512, 256, 10
        psi = build_basis(n)
        phi = gen_sensing_matrix(b"omp-batch", m, n)
        rng = np.random.default_rng(42)
        hits = 0
        for _ in range(100):
            support = rng.choice(n, size=s, replace=False)
            b = np.zeros(n)
            b[support] = rng.normal(0, 1, size=s) + np.sign(rng.normal(size=s))
            x = psi.synthesize(b)
            y = phi.entries @ x
            b_hat, x_hat = omp_reconstruct(y, phi, psi)
            recovered = set(np.flatnonzero(np.abs(b_hat) > 1e-8))
            if set(support) <= recovered and prd(x, x_hat) < 1.0:
                hits += 1
        assert hits >= 95

    def test_zero_measurements(self):
        psi = build_basis(32)
        phi = gen_sensing_matrix(b"omp0", 8, 32)
        b_hat, x_hat = omp_reconstruct(np.zeros(8), phi, psi)
        assert not b_hat.any()
        assert not x_hat.any()

    def test_non_finite_rejected(self):
        psi = build_basis(32)
        phi = gen_sensing_matrix(b"ompn", 8, 32)
        y = np.zeros(8)
        y[0] = np.nan
        with pytest.raises(RecoveryError):
            omp_reconstruct(y, phi, psi)

    def test_residual_monotone(self):
        n, m = 128, 64
        psi = build_basis(n)
        phi = gen_sensing_matrix(b"mono", m, n)
        rng = np.random.default_rng(3)
        y = phi.entries @ rng.normal(size=n)
        _, _, info = omp_reconstruct(y, phi, psi, return_info=True)
        res = info["residuals"]
        assert len(res) > 2
        assert all(res[i + 1] <= res[i] + 1e-9 for i in range(len(res) - 1))

    def test_max_atoms_cap(self):
        psi = build_basis(64)
        phi = gen_sensing_matrix(b"cap", 16, 64)
        rng = np.random.default_rng(4)
        y = phi.entries @ rng.normal(size=64)
        b_hat, _ = omp_reconstruct(
            y, phi, psi, RecoveryParams(max_atoms=3, residual_tol=0.0)
        )
        assert np.count_nonzero(b_hat) <= 3

    def test_bad_params(self):
        psi = build_basis(64)
        phi = gen_sensing_matrix(b"bad", 16, 64)
        with pytest.raises(RecoveryError):
            omp_reconstruct(
                np.ones(16), phi, psi, RecoveryParams(max_atoms=17)
            )

    def test_duplicate_atoms(self):
        # a dictionary with repeated columns: with a sane tolerance the
        # solver stops after the exact two-atom fit; forced past it, the
        # duplicate lands in the active set and trips the singular guard
        from imdsec.recovery import SensingMatrix, SparsityBasis

        rng = np.random.default_rng(8)
        a, b = rng.normal(size=4), rng.normal(size=4)
        phi = SensingMatrix(
            entries=np.column_stack([a, a, b, b]), seed=b"dup"
        )
        psi = SparsityBasis(columns=np.eye(4))
        y = 2.0 * a + 3.0 * b

        b_hat, x_hat = omp_reconstruct(
            y, phi, psi, RecoveryParams(max_atoms=4, residual_tol=1e-9)
        )
        assert np.count_nonzero(b_hat) == 2
        np.testing.assert_allclose(phi.entries @ x_hat, y, atol=1e-9)

        with pytest.raises(RecoveryError, match="singular"):
            omp_reconstruct(
                y, phi, psi, RecoveryParams(max_atoms=4, residual_tol=0.0)
            )


class TestPrd:
    def test_identical(self):
        x = np.array([1.0, 2.0, 3.0])
        assert prd(x, x) == 0.0

    def test_zero_estimate(self):
        x = np.array([3.0, 4.0])
        assert prd(x, np.zeros(2)) == pytest.approx(100.0)

    def test_hand_values(self):
        assert prd(np.array([3.0, 4.0]), np.array([3.0, 0.0])) == pytest.approx(80.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(RecoveryError):
            prd(np.zeros(3), np.ones(3))


class TestClassify:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, QualityClass.VERY_GOOD),
            (1.5, QualityClass.VERY_GOOD),
            (2.0, QualityClass.VERY_GOOD_OR_GOOD),
            (8.99, QualityClass.VERY_GOOD_OR_GOOD),
            (9.0, QualityClass.NOT_GOOD),
            (45.0, QualityClass.NOT_GOOD),
        ],
    )
    def test_bands(self, value, expected):
        assert classify_prd(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(RecoveryError):
            classify_prd(-0.1)


class TestSynth:
    def test_deterministic(self):
        a = synth_sparse_signal(b"fix", 256, 8, 590, 1487)
        b = synth_sparse_signal(b"fix", 256, 8, 590, 1487)
        np.testing.assert_array_equal(a.signal.values, b.signal.values)
        np.testing.assert_array_equal(a.support, b.support)

    def test_single_atom(self):
        out = synth_sparse_signal(b"one", 128, 1, 590, 1487)
        assert out.support.size == 2  # planted atom plus the constant offset
        nonzero = np.flatnonzero(np.abs(out.coefficients) > 1e-6)
        assert set(nonzero) <= set(out.support)

    def test_values_in_bounds(self):
        out = synth_sparse_signal(b"rng", 512, 20, 590, 1487)
        assert out.signal.values.min() > 590
        assert out.signal.values.max() < 1487

    def test_planted_reconstructs_at_half_compression(self):
        out = synth_sparse_signal(b"recon", 512, 10, 590, 1487)
        phi = gen_sensing_matrix(b"synthphi", 256, 512)
        psi = build_basis(512)
        y = phi.entries @ out.signal.values
        _, x_hat = omp_reconstruct(y, phi, psi)
        assert prd(out.signal.values, x_hat) < 1.0

    def test_bad_sparsity(self):
        with pytest.raises(RecoveryError):
            synth_sparse_signal(b"x", 16, 16, 0, 10)
