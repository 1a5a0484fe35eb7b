import gc
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imdsec
from imdsec import codec, ecg
from imdsec.recovery import (
    QualityClass,
    RecoveryError,
    RecoveryParams,
    SensingMatrix,
    SparsityBasis,
    build_basis,
    classify_prd,
    cached_operator,
    cr_to_measurements,
    gen_sensing_matrix,
    omp_reconstruct,
    omp_reconstruct_batch,
    prd,
    quantization_params,
)
from imdsec.reports import sweep_solver_params
from support import synth_sparse_signal


class TestSensingMatrix:
    def test_shape_and_cr(self):
        phi = gen_sensing_matrix(b"s", 256, 512)
        assert phi.entries.shape == (256, 512)
        assert 100 * (phi.n - phi.m) / phi.n == 50.0

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
        coeffs = psi.columns.T @ x
        assert np.count_nonzero(np.abs(coeffs) > 1e-9) == 1
        assert coeffs[7] == pytest.approx(1.0)

    def test_transform_roundtrip(self):
        psi = build_basis(128)
        rng = np.random.default_rng(1)
        x = rng.normal(size=128)
        np.testing.assert_allclose(psi.synthesize(psi.columns.T @ x), x, atol=1e-9)

    def test_too_small(self):
        with pytest.raises(RecoveryError):
            build_basis(1)


class TestOmp:
    def test_one_sparse_exact(self):
        psi = build_basis(64)
        phi = gen_sensing_matrix(b"omp1", 8, 64)
        x = 5.0 * psi.columns[:, 3]
        y = phi.entries @ x
        b_hat, x_hat, info = omp_reconstruct(y, phi, psi, return_info=True)
        assert prd(x, x_hat) < 1e-6
        assert np.argmax(np.abs(b_hat)) == 3
        assert info["stop"] == "residual_tol"

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
        b_hat, x_hat, info = omp_reconstruct(np.zeros(8), phi, psi, return_info=True)
        assert not b_hat.any()
        assert not x_hat.any()
        assert info["stop"] == "zero_measurements"

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
        b_hat, _, info = omp_reconstruct(
            y, phi, psi, RecoveryParams(max_atoms=3, residual_tol=0.0), return_info=True
        )
        assert np.count_nonzero(b_hat) <= 3
        assert info["stop"] == "max_atoms"

    def test_bad_params(self):
        psi = build_basis(64)
        phi = gen_sensing_matrix(b"bad", 16, 64)
        for atoms in (17, -1):
            with pytest.raises(RecoveryError):
                omp_reconstruct(
                    np.ones(16), phi, psi, RecoveryParams(max_atoms=atoms)
                )

    def test_nan_residual_tol_refused(self):
        psi = build_basis(64)
        phi = gen_sensing_matrix(b"bad", 16, 64)
        with pytest.raises(RecoveryError, match="tolerance"):
            omp_reconstruct(np.ones(16), phi, psi, RecoveryParams(residual_tol=float("nan")))

    def test_quantization_params(self):
        n, m = 512, 256
        raw = codec.CsCiphertext(np.ones(m), codec.CarryVector(np.zeros(n)))
        assert quantization_params(raw) is None
        step = codec.quantize(raw, 20)
        assert quantization_params(step) == RecoveryParams(
            residual_tol=20 * np.sqrt(m / 12)
        )

    def test_no_candidate_stop(self):
        # one non-zero column cannot fit a y outside its span, and the
        # zero columns never score
        a = np.random.default_rng(9).normal(size=4)
        phi = SensingMatrix(entries=np.column_stack([a, 0 * a, 0 * a, 0 * a]), seed=b"z")
        psi = SparsityBasis(columns=np.eye(4))
        y = a + np.array([0.0, 1.0, -1.0, 0.5])
        params = RecoveryParams(max_atoms=4, residual_tol=0.0)
        _, _, info = omp_reconstruct(y, phi, psi, params, return_info=True)
        assert info["stop"] == "no_candidate"

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


def reference_omp(y, phi, psi, params=None):
    """OMP as first written: Theta rebuilt per call and least squares
    re-solved from scratch on the active set after every pick.  Returns
    (b_hat, picks in order, residual-norm history)."""
    y = np.asarray(y, dtype=np.float64)
    params = params or RecoveryParams()
    n = psi.n
    b_hat = np.zeros(n)
    y_norm = float(np.linalg.norm(y))
    residuals = [y_norm]
    if y_norm == 0.0:
        return b_hat, [], residuals
    max_atoms, tol = params.resolve(phi.m, y_norm)
    theta = phi.entries @ psi.columns
    col_norms = np.linalg.norm(theta, axis=0)
    col_norms[col_norms == 0.0] = np.inf
    residual = y.copy()
    active = []
    available = np.ones(n, dtype=bool)
    coef = np.zeros(0)
    while len(active) < max_atoms and np.linalg.norm(residual) > tol:
        scores = np.abs(theta.T @ residual) / col_norms
        scores[~available] = -1.0
        pick = int(np.argmax(scores))
        if scores[pick] <= 0.0:
            break
        active.append(pick)
        available[pick] = False
        sub = theta[:, active]
        coef, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
        if rank < len(active):
            raise RecoveryError("singular active-set system")
        residual = y - sub @ coef
        residuals.append(float(np.linalg.norm(residual)))
    b_hat[active] = coef
    return b_hat, active, residuals


def pick_orders(Y, phi, psi, atoms):
    """Each row's picks in order, read off batched runs with budgets
    1..atoms (a run with budget j makes the first j picks of the full
    run)."""
    orders = [[] for _ in Y]
    seen = [set() for _ in Y]
    for j in range(1, atoms + 1):
        b_hats, _ = omp_reconstruct_batch(Y, phi, psi, RecoveryParams(max_atoms=j))
        for order, known, b_hat in zip(orders, seen, b_hats):
            new = set(np.flatnonzero(b_hat)) - known
            order += sorted(new)
            known |= new
    return orders


def assert_row_matches(b_hat, info, order, reference):
    ref_b, ref_picks, ref_residuals = reference
    assert order == ref_picks
    assert sorted(np.flatnonzero(b_hat)) == sorted(ref_picks)
    assert len(info["residuals"]) == len(ref_residuals)
    np.testing.assert_allclose(
        info["residuals"], ref_residuals, rtol=1e-9, atol=1e-9 * ref_residuals[0]
    )
    assert np.linalg.norm(b_hat - ref_b) <= 1e-9 * np.linalg.norm(ref_b)


def assert_matches_reference(y, phi, psi, params=None):
    b_hat, _, info = omp_reconstruct(y, phi, psi, params, return_info=True)
    reference = reference_omp(y, phi, psi, params)
    order = pick_orders(y[None], phi, psi, len(reference[1]))[0]
    assert_row_matches(b_hat, info, order, reference)


def assert_rows_match_reference(Y, phi, psi, params=None):
    b_hats, _, infos = omp_reconstruct_batch(Y, phi, psi, params, return_info=True)
    references = [reference_omp(y, phi, psi, params) for y in Y]
    orders = pick_orders(Y, phi, psi, max(len(ref[1]) for ref in references))
    for row in zip(b_hats, infos, orders, references):
        assert_row_matches(*row)


def assert_one_row_equals_batch(Y, phi, psi, params=None):
    """omp_reconstruct of each row of Y gives the coefficients and info of
    that row of one omp_reconstruct_batch call, and the x_hat of a one-row
    batch, bit for bit."""
    b_hats, _, infos = omp_reconstruct_batch(Y, phi, psi, params, return_info=True)
    for y, b_hat, info in zip(Y, b_hats, infos):
        b_one, x_one, info_one = omp_reconstruct(y, phi, psi, params, return_info=True)
        assert info_one == info
        assert b_one.tobytes() == b_hat.tobytes()
        _, x_batch = omp_reconstruct_batch(y[None], phi, psi, params)
        assert x_one.tobytes() == x_batch[0].tobytes()


class TestOmpOracle:
    """The incremental-QR solver against the lstsq-from-scratch reference."""

    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("cr", [50, 75, 90])
    @pytest.mark.parametrize("qs", [0, 20])
    @pytest.mark.parametrize("budget", ["sweep", "default"])
    def test_telemetry_grid(self, n, cr, qs, budget):
        m = cr_to_measurements(n, cr)
        phi = gen_sensing_matrix(b"oracle-phi", m, n)
        psi = cached_operator(build_basis, n)
        params = sweep_solver_params(m) if budget == "sweep" else None
        rows = []
        for i in range(2):
            record = ecg.synth_ecg_like(f"oracle/{i}".encode(), n=n, s=8 + i)
            key = codec.cs_gen(f"oracle-key/{i}".encode(), n, record.L1, record.L2)
            cipher = codec.cs_enc(key, ecg.to_bounded_signal(record), phi)
            if qs:
                cipher = codec.quantize(cipher, qs)
            y = codec.cs_deshift(key, cipher, phi, record.L1, record.L2)
            assert_matches_reference(y, phi, psi, params)
            rows.append(y)
        # both records share Phi: one batched solve must match row by row
        assert_rows_match_reference(np.array(rows), phi, psi, params)
        assert_one_row_equals_batch(np.array(rows), phi, psi, params)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=16, max_size=16))
    def test_random_measurements(self, values):
        phi = gen_sensing_matrix(b"oracle-small", 16, 32)
        psi = cached_operator(build_basis, 32)
        assert_matches_reference(np.array(values) / 100.0, phi, psi)


class TestOmpBatch:
    """Rows of one batch against the same rows solved one at a time."""

    def mixed_rows(self, phi, psi):
        theta = phi.entries @ psi.columns
        rng = np.random.default_rng(21)
        return np.array([
            5.0 * theta[:, 3],  # one atom, then its residual is below tolerance
            np.zeros(phi.m),
            phi.entries @ rng.normal(size=phi.n),  # runs to max_atoms
            theta[:, 3] + 1e-4 * theta[:, 9],  # two atoms under its own tolerance
            1e3 * (theta[:, 3] + 1e-8 * theta[:, 9]),  # one atom under its own
            phi.entries @ rng.normal(size=phi.n),
        ])

    def test_rows_stop_on_their_own_rules(self):
        psi = build_basis(64)
        phi = gen_sensing_matrix(b"batch-mixed", 32, 64)
        Y = self.mixed_rows(phi, psi)
        b_hats, x_hats, infos = omp_reconstruct_batch(Y, phi, psi, return_info=True)
        alone = [omp_reconstruct(y, phi, psi, return_info=True) for y in Y]
        stops = [(info["stop"], len(info["residuals"]) - 1) for _, _, info in alone]
        assert stops == [
            ("residual_tol", 1),
            ("zero_measurements", 0),
            ("max_atoms", 8),
            ("residual_tol", 2),
            ("residual_tol", 1),
            ("max_atoms", 8),
        ]
        orders = pick_orders(Y, phi, psi, 8)
        for y, b_hat, x_hat, info, order, (b_one, x_one, info_one) in zip(
            Y, b_hats, x_hats, infos, orders, alone
        ):
            assert order == pick_orders(y[None], phi, psi, 8)[0]
            assert info == info_one
            np.testing.assert_allclose(b_hat, b_one, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(x_hat, x_one, rtol=1e-12, atol=1e-9)
        assert_one_row_equals_batch(Y, phi, psi)

    def test_one_row_solve_equals_the_batch_on_duplicate_atoms(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=4), rng.normal(size=4)
        phi = SensingMatrix(entries=np.column_stack([a, a, b, b]), seed=b"dup")
        psi = SparsityBasis(columns=np.eye(4))
        Y = np.array([2.0 * a + 3.0 * b])
        assert_one_row_equals_batch(Y, phi, psi, RecoveryParams(max_atoms=4, residual_tol=1e-9))
        # forced past the exact two-atom fit, both loops pick a duplicate
        # and trip the singular guard
        params = RecoveryParams(max_atoms=4, residual_tol=0.0)
        with pytest.raises(RecoveryError, match="singular"):
            omp_reconstruct_batch(Y, phi, psi, params)
        with pytest.raises(RecoveryError, match="singular"):
            omp_reconstruct(Y[0], phi, psi, params)

    def test_one_row_solve_equals_the_batch_with_no_candidate(self):
        a = np.random.default_rng(9).normal(size=4)
        phi = SensingMatrix(entries=np.column_stack([a, 0 * a, 0 * a, 0 * a]), seed=b"z")
        psi = SparsityBasis(columns=np.eye(4))
        Y = np.array([a + np.array([0.0, 1.0, -1.0, 0.5])])
        params = RecoveryParams(max_atoms=4, residual_tol=0.0)
        _, _, info = omp_reconstruct(Y[0], phi, psi, params, return_info=True)
        assert info["stop"] == "no_candidate"
        assert_one_row_equals_batch(Y, phi, psi, params)

    def test_singular_row_fails_the_batch(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=4), rng.normal(size=4)
        phi = SensingMatrix(entries=np.column_stack([a, a, b, b]), seed=b"dup")
        psi = SparsityBasis(columns=np.eye(4))
        Y = np.array([3.0 * a, 2.0 * a + 3.0 * b])
        with pytest.raises(RecoveryError, match="singular"):
            omp_reconstruct_batch(
                Y, phi, psi, RecoveryParams(max_atoms=4, residual_tol=0.0)
            )

    @pytest.mark.parametrize(
        "Y",
        [np.ones(8), np.ones((2, 7)), np.array([[0.0] * 7 + [np.inf]])],
        ids=["one-dimensional", "wrong-width", "non-finite"],
    )
    def test_malformed_rows_refused(self, Y):
        psi = build_basis(32)
        phi = gen_sensing_matrix(b"batch-bad", 8, 32)
        with pytest.raises(RecoveryError):
            omp_reconstruct_batch(Y, phi, psi)


class TestDictionaryMemo:
    def test_alternating_matrices_of_one_shape(self):
        psi = build_basis(64)
        phis = [gen_sensing_matrix(seed, 32, 64) for seed in (b"memo-a", b"memo-b")]
        rng = np.random.default_rng(11)
        y = phis[0].entries @ rng.normal(size=64)
        expected = [reference_omp(y, phi, psi)[0] for phi in phis]
        assert not np.allclose(expected[0], expected[1])
        for turn in range(4):
            b_hat, _ = omp_reconstruct(y, phis[turn % 2], psi)
            np.testing.assert_allclose(b_hat, expected[turn % 2], rtol=1e-9, atol=1e-12)

    def test_collected_matrix_leaves_no_dictionary(self):
        psi = build_basis(64)
        phi = gen_sensing_matrix(b"memo-gc", 32, 64)
        omp_reconstruct(phi.entries[:, 3], phi, psi)
        theta = weakref.ref(phi.dictionary(psi)[0])
        assert phi.dictionary(psi)[0] is theta()
        del phi
        gc.collect()
        assert theta() is None


class TestGramRows:
    """The rows of G = Theta^T Theta that omp_reconstruct keeps on Phi."""

    def test_cold_and_warm_rows_solve_alike(self):
        psi = build_basis(64)
        phi = gen_sensing_matrix(b"gram-warm", 32, 64)
        rng = np.random.default_rng(13)
        y, *others = rng.normal(size=(6, 64)) @ phi.entries.T
        assert phi.dictionary(psi)[2] == {}
        cold = omp_reconstruct(y, phi, psi, return_info=True)
        for other in others:
            omp_reconstruct(other, phi, psi)
        warm = omp_reconstruct(y, phi, psi, return_info=True)
        assert set(np.flatnonzero(cold[0])) <= set(phi.dictionary(psi)[2])
        assert warm[2] == cold[2]
        for cold_array, warm_array in zip(cold[:2], warm[:2]):
            assert warm_array.tobytes() == cold_array.tobytes()

    def test_each_row_is_its_theta_product(self):
        psi = build_basis(64)
        phi = gen_sensing_matrix(b"gram-rows", 32, 64)
        rng = np.random.default_rng(14)
        picked = set()
        for y in rng.normal(size=(4, 64)) @ phi.entries.T:
            picked |= set(np.flatnonzero(omp_reconstruct(y, phi, psi)[0]).tolist())
        theta, _, gram = phi.dictionary(psi)
        assert set(gram) == picked
        for p, row in gram.items():
            assert row.tobytes() == (theta.T[p] @ theta).tobytes()

    def test_rows_leave_with_their_phi(self):
        psi = cached_operator(build_basis, 64)
        phi = cached_operator(gen_sensing_matrix, b"gram-gc", 32, 64)
        omp_reconstruct(phi.entries[:, 3], phi, psi)
        row = weakref.ref(next(iter(phi.dictionary(psi)[2].values())))
        del phi
        cached_operator(gen_sensing_matrix, b"gram-gc", 16, 64)  # evicts the 32-row Phi
        gc.collect()
        assert row() is None


def test_solver_modules_do_not_import_scipy():
    # importing scipy.linalg alone costs a few tenths of a second of set-up
    src = str(Path(imdsec.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import imdsec.recovery, imdsec.reports, imdsec.scenarios, imdsec.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
