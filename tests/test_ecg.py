import numpy as np
import pytest

from imdsec import ecg
from imdsec.codec import cs_gen
from imdsec.recovery import build_basis, gen_sensing_matrix, omp_reconstruct, prd


class TestLoader:
    def _write(self, tmp_path, values, name="rec.csv", header=True):
        lines = (["# id=test rate=360"] if header else []) + [str(v) for v in values]
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_resamples_to_512(self, tmp_path):
        rng = np.random.default_rng(0)
        path = self._write(tmp_path, rng.integers(600, 1400, size=720))
        record = ecg.load_ecg_csv(path)
        assert record.n == 512
        assert ecg.SAMPLE_RATE == 256

    def test_default_bounds_hug_the_data(self, tmp_path):
        path = self._write(tmp_path, [700, 800, 900])
        record = ecg.load_ecg_csv(path)
        assert record.L1 == 699
        assert record.L2 == 901

    def test_paper_bounds_give_shift_bound_449(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.integers(591, 1487, size=512)
        values[0], values[1] = 591, 1486  # the extremes strictly inside
        path = self._write(tmp_path, values)
        record = ecg.load_ecg_csv(path, bounds=(590, 1487))
        assert record.value_range == 897
        assert record.shift_bound == 449
        key = cs_gen(b"k", 8, 590, 1487)
        assert np.abs(key.entries).max() <= record.shift_bound

    def test_constant_signal_warns(self, tmp_path):
        path = self._write(tmp_path, [1000] * 30)
        with pytest.warns(UserWarning, match="not sparse-compressible"):
            ecg.load_ecg_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self._write(tmp_path, [])
        with pytest.raises(ValueError, match="no samples"):
            ecg.load_ecg_csv(path)

    def test_non_numeric_line_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("100\nabc\n")
        with pytest.raises(ValueError, match="non-numeric"):
            ecg.load_ecg_csv(path)

    @pytest.mark.parametrize(
        "value", [10**20, 2**53 + 1, -(2**51)], ids=["1e20", "2**53+1", "-2**51"]
    )
    def test_sample_past_exact_float64_range_rejected(self, tmp_path, value):
        # 10**20 wraps in the int64 cast; 2**53 + 1 rounds onto 2**53 and
        # closes the (min - 1, max + 1) window in float64
        path = self._write(tmp_path, [700] * 511 + [value])
        with pytest.raises(ValueError, match=rf"rec\.csv:513: sample {value} is not below"):
            ecg.load_ecg_csv(path)

    def test_samples_just_inside_exact_range_load(self, tmp_path):
        path = self._write(tmp_path, [-(2**51 - 1)] + [0] * 510 + [2**51 - 1])
        record = ecg.load_ecg_csv(path)
        assert (record.L1, record.L2) == (-(2**51), 2**51)
        assert ecg.to_bounded_signal(record).values[-1] == 2**51 - 1

    def test_bounds_must_contain_samples(self, tmp_path):
        path = self._write(tmp_path, [700, 1450])
        with pytest.raises(ValueError):
            ecg.load_ecg_csv(path, bounds=(800, 1500))


class TestSynthetic:
    def test_deterministic(self):
        # the memo would hand back the same record, so compare with an uncached synthesis
        a = ecg.synth_ecg_like(b"fix")
        b = ecg._synth.__wrapped__(b"fix", ecg.TARGET_SAMPLES, 12)
        assert b is not a
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.source_id == b.source_id

    def test_integer_samples_inside_paper_bounds(self):
        record = ecg.synth_ecg_like(b"bounds-check")
        assert record.samples.dtype == np.int64
        assert record.samples.min() > 590
        assert record.samples.max() < 1487
        assert record.provenance == "synthetic"

    def test_reconstructs_well_at_half_compression(self):
        record = ecg.synth_ecg_like(b"quality", s=10)
        phi = gen_sensing_matrix(b"phi", 256, 512)
        psi = build_basis(512)
        y = phi.entries @ record.samples.astype(float)
        _, x_hat = omp_reconstruct(y, phi, psi)
        assert prd(record.samples.astype(float), x_hat) < 1.0

    def test_roundtrip_through_fixture_file(self, tmp_path):
        record = ecg.synth_ecg_like(b"file-roundtrip")
        path = tmp_path / "fix.csv"
        ecg.write_fixture(record, path)
        assert path.read_text().splitlines()[0] == f"# id={record.source_id} rate=256"
        back = ecg.load_ecg_csv(path, bounds=(record.L1, record.L2))
        np.testing.assert_array_equal(back.samples, record.samples)

    def test_generate_fixture_corpus(self, tmp_path):
        paths = ecg.generate_fixture_files(tmp_path / "fixtures", count=3)
        assert len(paths) == 3
        for path in paths:
            assert path.exists()
            record = ecg.load_ecg_csv(path)
            assert record.n == 512


class TestSynthMemo:
    """synth_ecg_like computes each record once per process: equal
    arguments give one shared record, whose samples are read-only."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        ecg._synth.cache_clear()

    def test_equal_arguments_give_the_identical_record(self):
        record = ecg.synth_ecg_like(b"memo", n=64)
        assert ecg.synth_ecg_like(b"memo", 64, 12) is record
        info = ecg._synth.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    @pytest.mark.parametrize("form", [bytearray, memoryview], ids=["bytearray", "memoryview"])
    def test_a_bytes_like_seed_gives_the_bytes_record(self, form):
        assert ecg.synth_ecg_like(form(b"memo")) is ecg.synth_ecg_like(b"memo")

    def test_samples_are_read_only(self):
        record = ecg.synth_ecg_like(b"memo", n=64)
        with pytest.raises(ValueError, match="read-only"):
            record.samples[0] = 700
        with pytest.raises(ValueError, match="read-only"):
            record.samples += 1

    def test_distinct_arguments_never_share_a_record(self):
        records = [ecg.synth_ecg_like(b"memo-%d" % i, n=64) for i in range(4)]
        records += [ecg.synth_ecg_like(b"memo-0", n=128), ecg.synth_ecg_like(b"memo-0", n=64, s=5)]
        assert len({id(r) for r in records}) == len(records)
        assert len({r.samples.tobytes() for r in records}) == len(records)

    def test_a_refused_argument_raises_every_call_and_leaves_no_entry(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                ecg.synth_ecg_like(b"memo", n=1)
        assert ecg._synth.cache_info().currsize == 0

    def test_memo_is_bounded(self):
        assert ecg._synth.cache_info().maxsize == ecg._SYNTH_MEMO_SIZE
        for i in range(2 * ecg._SYNTH_MEMO_SIZE):
            ecg.synth_ecg_like(b"bounded-%d" % i, n=16)
            assert ecg._synth.cache_info().currsize <= ecg._SYNTH_MEMO_SIZE


class TestRawBaseline:
    def test_sixteen_bit_size(self):
        record = ecg.synth_ecg_like(b"raw")
        raw = ecg.raw_signal_bytes(record)
        assert len(raw) == 2 * record.n

    def test_big_endian_encoding(self):
        record = ecg.EcgRecord(
            samples=np.array([700, 1486]),
            source_id="tiny",
            L1=590,
            L2=1487,
        )
        assert ecg.raw_signal_bytes(record) == (700).to_bytes(2, "big") + (
            1486
        ).to_bytes(2, "big")
