import gc
import weakref

import numpy as np
import pytest

from imdsec import codec, ecg, recovery, reports
from imdsec.parties import SystemConfig
from imdsec.reports import (
    EXPECTED_IMD_OPCOUNTS,
    SweepReport,
    SweepRow,
    attack_report,
    check_attack_separation,
    check_communication_saving,
    check_cr_trend,
    check_opcounts,
    check_qs_trend,
    emit_report,
    evaluate_claims,
    opcount_report,
    parse_report,
    sweep_prd,
)


@pytest.fixture(scope="module")
def records():
    return [ecg.synth_ecg_like(f"report{r}".encode(), s=8 + r) for r in range(2)]


@pytest.fixture(scope="module")
def small_sweep(records):
    return sweep_prd(
        records, cr_grid=(50, 70, 90), qs_grid=(0, 20, 100), seeds=6
    )


class TestSweep:
    def test_one_row_per_cell(self, small_sweep, records):
        assert len(small_sweep.rows) == 3 * 3 * len(records)
        keys = {(r.record_id, r.cr, r.qs) for r in small_sweep.rows}
        assert len(keys) == len(small_sweep.rows)

    def test_benchmark_cell_quality(self, small_sweep):
        assert small_sweep.cell_median(50, 20) < 9.0
        assert small_sweep.cell_median(50, 0) < 2.0

    def test_trend_checks_pass(self, small_sweep):
        assert check_qs_trend(small_sweep) == []
        assert check_cr_trend(small_sweep) == []

    def test_trend_checks_name_each_fall(self):
        # PRD falls from qs 10 to qs 20 at CR 50, and from CR 50 to CR 90 at qs 10
        medians = {(50, 10): 1.0, (50, 20): 0.5, (90, 10): 0.7, (90, 20): 2.0}
        rows = [
            SweepRow("r", "synthetic", float(cr), qs, prd, "very-good", 0, 1024)
            for (cr, qs), prd in medians.items()
        ]
        report = SweepReport(kind="sweep", header="", rows=rows, metadata={})
        assert check_qs_trend(report) == [
            "qs trend violated at CR=50: PRD(20)=0.5000 < PRD(previous)=1.0000"
        ]
        assert check_cr_trend(report) == [
            "CR trend violated at qs=10: PRD(CR=90.0)=0.7000 < previous 1.0000"
        ]

    def test_quantized_payloads_halve_the_raw_size(self, small_sweep):
        assert check_communication_saving(small_sweep) == []
        for row in small_sweep.rows:
            if row.qs:
                assert 0 < row.payload_bytes <= row.raw_bytes // 2

    def test_communication_saving_names_each_oversized_cell(self):
        # one acceptable quantized cell over half the raw size; the raw
        # cell, the not-good cell and the cell at exactly half pass
        cells = [(20, "very-good", 513), (0, "very-good", 1100), (100, "not-good", 600),
                 (60, "very-good-or-good", 512)]
        rows = [SweepRow("r", "synthetic", 50.0, qs, 1.0, quality, payload, 1024)
                for qs, quality, payload in cells]
        report = SweepReport(kind="sweep", header="", rows=rows, metadata={})
        assert check_communication_saving(report) == [
            "cell (r, CR=50, qs=20): payload 513 B exceeds half of 1024 B"
        ]

    def test_metadata_records_rerun_parameters(self, small_sweep):
        md = small_sweep.metadata
        assert md["seeds"] == "6"
        assert md["cr_grid"] == "50 70 90"
        assert md["matrix_seed"] == SystemConfig.matrix_seed.hex()

    def test_claims_evaluation(self, small_sweep):
        verdicts = evaluate_claims(small_sweep)
        assert verdicts["cr50_qs20_very_good"] == "met"
        assert verdicts["cr85_qs100_good"] == "not-evaluated"


class TestCountChecks:
    @pytest.mark.parametrize("seeds", [0, -1])
    def test_sweep_refuses_fewer_than_one_seed(self, records, seeds):
        with pytest.raises(ValueError, match="seeds"):
            sweep_prd(records[:1], cr_grid=(50,), qs_grid=(0,), seeds=seeds)

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_attack_report_refuses_fewer_than_one_seed(self, records, seeds):
        with pytest.raises(ValueError, match="seeds"):
            attack_report(records[:1], cr_grid=(50,), seeds=seeds, trials=1)


class TestStackedPass:
    """A sweep cell runs the codec once over the stack of its shift keys;
    each row must be what the per-frame codec gives that key alone."""

    SEEDS = 5

    @pytest.fixture(scope="class")
    def cells(self, records):
        record = records[0]
        signal = ecg.to_bounded_signal(record)
        solved = []
        solve = recovery.batch_prds

        def spying_solve(Y, phi, *rest):
            solved.append(np.array(Y))
            return solve(Y, phi, *rest)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(recovery, "batch_prds", spying_solve)
            report = sweep_prd(
                [record], cr_grid=(50, 95), qs_grid=(0, 10, 120), seeds=self.SEEDS
            )
        keys = [
            codec.ShiftKey(entries=row, value_range=signal.value_range)
            for row in reports._keys(signal, 0, 0, self.SEEDS).entries
        ]
        rows = []
        for row, deshifted in zip(report.rows, solved):
            phi = SystemConfig(n=signal.n, cr=row.cr).sensing_matrix()
            frames = []
            for key in keys:
                cipher = codec.cs_enc(key, signal, phi)
                if row.qs:
                    cipher = codec.quantize(cipher, row.qs)
                frames.append(cipher)
            rows.append((row, deshifted, frames))
        return signal, keys, rows

    def test_one_solve_per_cell(self, cells):
        _, _, rows = cells
        assert len(rows) == 2 * 3
        for _, deshifted, _ in rows:
            assert deshifted.shape[0] == self.SEEDS

    def test_deshifted_rows_equal_the_per_frame_path(self, cells):
        signal, keys, rows = cells
        for row, deshifted, frames in rows:
            phi = SystemConfig(n=signal.n, cr=row.cr).sensing_matrix()
            for stacked, key, cipher in zip(deshifted, keys, frames):
                expected = codec.cs_deshift(key, cipher, phi, signal.L1, signal.L2)
                assert np.array_equal(stacked, expected), (row.cr, row.qs)

    def test_payload_is_the_longest_per_frame_serialization(self, cells):
        _, _, rows = cells
        differing = 0
        for row, _, frames in rows:
            lengths = [len(codec.serialize_ciphertext(cipher)) for cipher in frames]
            assert row.payload_bytes == max(lengths), (row.cr, row.qs)
            differing += len(set(lengths)) > 1
        # a cell whose keys pack to different widths, so a wrong row shows
        assert differing >= 1


class TestOperatorCache:
    """The sweep takes Phi from recovery.cached_operator, which keeps the
    latest Phi (and the Theta it holds) until the CR changes, and the
    latest shift-key set until the master seed changes."""

    @pytest.fixture(scope="class")
    def short_records(self):
        return [ecg.synth_ecg_like(f"cache{r}".encode(), n=64, s=4 + r) for r in range(2)]

    @staticmethod
    def _count_draws(monkeypatch) -> list:
        drawn = []
        draw = codec.cs_gen

        def counting_draw(*args):
            drawn.append(args)
            return draw(*args)

        monkeypatch.setattr(codec, "cs_gen", counting_draw)
        return drawn

    def test_cells_and_records_share_one_key_set(self, monkeypatch, short_records):
        assert len({(r.L1, r.L2) for r in short_records}) == 1
        drawn = self._count_draws(monkeypatch)
        for qs in (0, 20):
            sweep_prd(short_records, cr_grid=(50,), qs_grid=(qs,), seeds=3, master_seed=7101)
        assert len(drawn) == 3

    def test_cached_keys_equal_fresh_draws(self, short_records):
        signal = ecg.to_bounded_signal(short_records[0])
        cached = reports._keys(signal, 7102, 5, 3).entries
        assert cached.shape == (3, signal.n)
        for index, row in zip(range(5, 8), cached):
            fresh = codec.cs_gen(
                f"sweep-key/7102/{index}".encode(), signal.n, signal.L1, signal.L2
            )
            assert np.array_equal(row, fresh.entries)

    def test_a_new_master_seed_draws_a_new_set(self, monkeypatch, short_records):
        signal = ecg.to_bounded_signal(short_records[0])
        drawn = self._count_draws(monkeypatch)
        first = reports._keys(signal, 7103, 0, 2)
        assert reports._keys(signal, 7103, 0, 2) is first
        second = reports._keys(signal, 7104, 0, 2)
        assert len(drawn) == 4
        assert not np.array_equal(first.entries[0], second.entries[0])

    def test_phi_and_psi_stay_resident_across_a_key_set_change(self, short_records):
        config = SystemConfig(n=64, cr=50)
        sweep_prd(short_records[:1], cr_grid=(50,), qs_grid=(0,), seeds=2, master_seed=7105)
        phi, psi = config.sensing_matrix(), config.basis()
        sweep_prd(short_records[:1], cr_grid=(50,), qs_grid=(0,), seeds=2, master_seed=7106)
        assert config.sensing_matrix() is phi and config.basis() is psi

    def test_shared_keys_are_read_only(self, short_records):
        keys = reports._keys(ecg.to_bounded_signal(short_records[0]), 7107, 0, 2)
        for row in keys.entries:
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0

    def test_cells_at_one_cr_share_one_phi(self, monkeypatch, short_records):
        drawn, solved = [], []
        draw, solve = recovery.gen_sensing_matrix, recovery.omp_reconstruct_batch

        def counting_draw(*args):
            drawn.append(args)
            return draw(*args)

        def spying_solve(Y, phi, *rest):
            solved.append(phi)
            return solve(Y, phi, *rest)

        monkeypatch.setattr(recovery, "gen_sensing_matrix", counting_draw)
        monkeypatch.setattr(recovery, "omp_reconstruct_batch", spying_solve)
        for qs in (0, 20):
            sweep_prd(short_records[:1], cr_grid=(50,), qs_grid=(qs,), seeds=2)
        assert len(drawn) == 1
        assert len(solved) == 2 and solved[0] is solved[1]

    def test_grid_walk_keeps_only_the_last_phi_and_theta(self, monkeypatch, short_records):
        phis, thetas = [], {}
        draw, dictionary = recovery.gen_sensing_matrix, recovery.SensingMatrix.dictionary

        def recording_draw(*args):
            phi = draw(*args)
            phis.append(weakref.ref(phi))
            return phi

        def recording_dictionary(phi, psi):
            theta, *rest = dictionary(phi, psi)
            owner = next(i for i, ref in enumerate(phis) if ref() is phi)
            thetas[owner] = weakref.ref(theta)
            return theta, *rest

        monkeypatch.setattr(recovery, "gen_sensing_matrix", recording_draw)
        monkeypatch.setattr(recovery.SensingMatrix, "dictionary", recording_dictionary)
        psi = recovery.cached_operator(recovery.build_basis, 64)
        cr_grid = (50, 70, 90)
        sweep_prd(short_records, cr_grid=cr_grid, qs_grid=(0, 20), seeds=2)
        gc.collect()
        resident = [True] + [False] * (len(cr_grid) - 1)
        assert [ref() is not None for ref in reversed(phis)] == resident
        assert [thetas[i]() is not None for i in reversed(range(len(phis)))] == resident
        assert recovery.cached_operator(recovery.build_basis, 64) is psi


class TestEmission:
    def test_emit_is_idempotent_and_parseable(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        emit_report(small_sweep, path)
        first = path.read_bytes()
        emit_report(small_sweep, path)
        assert path.read_bytes() == first

        parsed = parse_report(path)
        assert parsed.kind == "sweep"
        assert parsed.metadata == small_sweep.metadata
        assert len(parsed.rows) == len(small_sweep.rows)
        for a, b in zip(parsed.rows, small_sweep.rows):
            assert a.record_id == b.record_id
            assert a.cr == b.cr and a.qs == b.qs
            assert a.prd_median == pytest.approx(b.prd_median, abs=1e-6)
            assert a.payload_bytes == b.payload_bytes

        again = tmp_path / "again.csv"
        emit_report(parsed, again)
        assert again.read_bytes() == first

    def test_regenerating_from_metadata_is_byte_identical(
        self, small_sweep, records, tmp_path
    ):
        path_a = tmp_path / "a.csv"
        emit_report(small_sweep, path_a)
        md = small_sweep.metadata
        regenerated = sweep_prd(
            records,
            cr_grid=tuple(int(c) for c in md["cr_grid"].split()),
            qs_grid=tuple(int(q) for q in md["qs_grid"].split()),
            seeds=int(md["seeds"]),
            master_seed=int(md["master_seed"]),
        )
        path_b = tmp_path / "b.csv"
        emit_report(regenerated, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_parse_rejects_non_reports(self, tmp_path):
        bad = tmp_path / "junk.csv"
        bad.write_text("")
        with pytest.raises(ValueError):
            parse_report(bad)


class TestAttackReport:
    def test_separation_and_argmin(self, records):
        report = attack_report(records, cr_grid=(50,), seeds=2, trials=10)
        assert check_attack_separation(report) == []
        row = report.rows[0]
        extras = dict(row.extra)
        assert int(extras["uniform_best_shift"]) == 0
        assert float(extras["uniform_best_prd"]) >= 9.0
        assert float(extras["random_min_prd"]) >= 9.0
        assert row.prd_median < 9.0

    def test_separation_names_each_failure(self):
        def row(cr, legitimate, uniform, random_min):
            extra = (("uniform_best_prd", str(uniform)), ("uniform_best_shift", "0"),
                     ("random_min_prd", str(random_min)))
            return SweepRow("r", "synthetic", cr, 20, legitimate, "", 0, 1024, extra)

        # CR 50 separates; at CR 90 the legitimate recovery is not good
        # and both attacks recover below the line
        report = SweepReport(kind="attack", header="", metadata={},
                             rows=[row(50.0, 3.0, 40.0, 35.0), row(90.0, 9.5, 8.0, 2.5)])
        assert check_attack_separation(report) == [
            "CR=90: legitimate PRD 9.50 >= 9",
            "CR=90: uniform-guess PRD 8.00 < 9",
            "CR=90: random-guess min 2.50 < 9",
        ]

    def test_roundtrip_keeps_extra_columns(self, records, tmp_path):
        report = attack_report(records[:1], cr_grid=(50,), seeds=1, trials=3)
        path = tmp_path / "attack.csv"
        emit_report(report, path)
        parsed = parse_report(path)
        assert dict(parsed.rows[0].extra).keys() == {
            "uniform_best_prd",
            "uniform_best_shift",
            "random_min_prd",
        }
        again = tmp_path / "again.csv"
        emit_report(parsed, again)
        assert again.read_bytes() == path.read_bytes()


class TestOpcounts:
    def test_match_expected_table(self):
        runs = opcount_report(seeds=(0, 1))
        assert check_opcounts(runs) == []
        for phases in runs.values():
            assert phases["pair"]["mac"] == 1
            assert phases["pair"]["kdf"] == 1
            assert phases["read"]["cs_enc"] == 1
            assert phases["write"]["mac"] == 3

    def test_a_count_off_the_table_is_named(self):
        runs = {seed: {phase: dict(counts) for phase, counts in EXPECTED_IMD_OPCOUNTS.items()}
                for seed in (0, 1)}
        runs[1]["read"]["cs_enc"] = 2
        del runs[1]["auth"]
        assert check_opcounts(runs) == [
            f"seed 1 phase auth: got None, want {EXPECTED_IMD_OPCOUNTS['auth']}",
            f"seed 1 phase read: got {runs[1]['read']}, want {EXPECTED_IMD_OPCOUNTS['read']}",
        ]

    def test_expected_table_shape(self):
        assert set(EXPECTED_IMD_OPCOUNTS) == {"pair", "auth", "read", "write"}
        for counts in EXPECTED_IMD_OPCOUNTS.values():
            assert set(counts) == {"sym_enc", "sym_dec", "mac", "kdf", "cs_enc"}
