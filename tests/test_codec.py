import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from imdsec import ecg
from imdsec.codec import (
    BoundedSignal,
    CarryVector,
    CodecError,
    CsCiphertext,
    ShiftKey,
    wrap_add,
    cs_deshift,
    cs_enc,
    cs_gen,
    deserialize_ciphertext,
    deserialize_shift_key,
    quantize,
    serialize_ciphertext,
    serialize_shift_key,
    shift_bound,
)
from imdsec.recovery import cr_to_measurements, gen_sensing_matrix

ECG_L1, ECG_L2 = 590, 1487


def shifting_add(v: float, w: float, L1: int, L2: int) -> tuple[float, int]:
    """The paper's scalar shifting addition, the oracle for wrap_add:
    v + w wrapped into [L1, L2), and carry 1 exactly when v + w fell outside."""
    if not (L1 < v < L2):
        raise CodecError(f"value {v} outside open interval ({L1}, {L2})")
    total = v + w
    u = (total - L1) % (L2 - L1) + L1
    if u >= L2:  # float round-off can land exactly on L2
        u -= L2 - L1
    return u, 0 if L1 <= total < L2 else 1


def entrywise_product(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Entrywise product of two same-sized vectors: the oracle for the
    carries-times-signs term of the de-shift correction."""
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if v.shape != w.shape or v.ndim != 1:
        raise CodecError(f"length mismatch: {v.shape} vs {w.shape}")
    return v * w


# sha256 over the serialized ciphertexts of the CLI's two default
# records x CR {50, 75, 90} x qs {0, 10, 20, 60, 120} under fixed keys;
# a codec change that must keep the wire bytes keeps this hash.
WIRE_SHA256 = "534d29c2665365238d607693043c930e382d4d6720f028b1294c6b118e1f65fc"


def _width_reference(mult):
    """The minimal two's-complement width, one value at a time."""
    width = 1
    for value in mult:
        iv = int(value)
        need = iv.bit_length() + 1 if iv >= 0 else (-iv - 1).bit_length() + 1
        width = max(width, need)
    return width


def _pack_reference(mult, width):
    """The multiples as width-bit two's complement, MSB first, one bit at
    a time, padded to a byte."""
    bits = np.zeros(len(mult) * width, dtype=np.uint8)
    for i, value in enumerate(mult):
        uv = int(value) & ((1 << width) - 1)
        for j in range(width):
            bits[i * width + j] = (uv >> (width - 1 - j)) & 1
    return np.packbits(bits).tobytes()


def _unpack_reference(block, m, width):
    """m width-bit two's-complement multiples from a packed block, MSB
    first, one bit at a time; bits past m * width are ignored."""
    bits = np.unpackbits(np.frombuffer(block, dtype=np.uint8), count=m * width)
    mult = np.empty(m, dtype=np.int64)
    for i in range(m):
        uv = 0
        for j in range(width):
            uv = (uv << 1) | int(bits[i * width + j])
        if uv >= 1 << (width - 1):
            uv -= 1 << width
        mult[i] = uv
    return mult


@st.composite
def measurement_blocks(draw):
    """(width, m, block): a quantized measurement block as a forged frame
    may carry it.  Either arbitrary bytes, or multiples that fit a narrower
    width packed at this one; both with arbitrary padding bits."""
    width, m = draw(st.integers(1, 32)), draw(st.integers(1, 300))
    size = (m * width + 7) // 8
    if draw(st.booleans()):
        return width, m, draw(st.binary(min_size=size, max_size=size))
    narrow = draw(st.integers(1, width))
    values = st.integers(-(1 << (narrow - 1)), (1 << (narrow - 1)) - 1)
    multiples = draw(st.lists(values, min_size=m, max_size=m))
    block = bytearray(_pack_reference(multiples, width))
    padding = (-m * width) % 8
    block[-1] |= draw(st.integers(0, (1 << padding) - 1))
    return width, m, bytes(block)


@st.composite
def multiples_at_a_width(draw):
    """A multiple vector whose minimal width is exactly w, for w in 1..32:
    it holds at least one of the width's two edges."""
    width = draw(st.integers(1, 32))
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    edge = st.sampled_from([lo, hi])
    values = draw(st.lists(st.one_of(edge, st.integers(lo, hi)), max_size=40))
    values.insert(draw(st.integers(0, len(values))), draw(edge))
    return values


class TestShiftingAdd:
    def test_wrap_above(self):
        # 1000 + 600 = 1600 wraps: 1600 - 897 = 703
        u, lam = shifting_add(1000, 600, ECG_L1, ECG_L2)
        assert u == 703
        assert lam == 1

    def test_zero_shift(self):
        assert shifting_add(700, 0, ECG_L1, ECG_L2) == (700, 0)

    def test_wrap_below(self):
        # 600 - 449 = 151 wraps: 151 + 897 = 1048
        u, lam = shifting_add(600, -449, ECG_L1, ECG_L2)
        assert u == 1048
        assert lam == 1

    def test_bound_violation(self):
        with pytest.raises(CodecError):
            shifting_add(590, 5, ECG_L1, ECG_L2)
        with pytest.raises(CodecError):
            shifting_add(1487, 5, ECG_L1, ECG_L2)
        with pytest.raises(CodecError):
            shifting_add(0, 5, ECG_L1, ECG_L2)

    def test_output_stays_in_window(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            v = rng.uniform(ECG_L1 + 1e-9, ECG_L2 - 1e-9)
            w = rng.uniform(-2000, 2000)
            u, lam = shifting_add(v, w, ECG_L1, ECG_L2)
            assert ECG_L1 <= u < ECG_L2
            assert lam == (0 if ECG_L1 <= v + w < ECG_L2 else 1)

    def test_real_valued_inputs(self):
        u, lam = shifting_add(700.25, 0.5, ECG_L1, ECG_L2)
        assert u == pytest.approx(700.75)
        assert lam == 0


def _carries(values, shift):
    """cs_enc's carry bits of values under one shift for every sample."""
    x = BoundedSignal(values=np.asarray(values, dtype=np.float64), L1=ECG_L1, L2=ECG_L2)
    key = ShiftKey(entries=np.full(x.n, shift, dtype=np.int64), value_range=x.value_range)
    return cs_enc(key, x, gen_sensing_matrix(b"carries", 1, x.n)).carries.bits


class TestVecShiftingAdd:
    """The vectorised shifting addition: wrap_add, and the carry bits
    cs_enc sends, against the paper's scalar shifting_add."""

    def test_matches_scalar_composition(self):
        u, carries = wrap_add(
            np.array([1000.0, 600.0]), np.array([600.0, -449.0]), ECG_L1, ECG_L2
        )
        np.testing.assert_allclose(u, [703.0, 1048.0])
        np.testing.assert_array_equal(carries, [1, 1])
        x = BoundedSignal(values=np.array([1000.0, 600.0]), L1=ECG_L1, L2=ECG_L2)
        key = ShiftKey(entries=np.array([449, -449]), value_range=x.value_range)
        bits = cs_enc(key, x, _OnesMatrix()).carries.bits
        expected = [shifting_add(v, w, ECG_L1, ECG_L2)[1] for v, w in ((1000, 449), (600, -449))]
        np.testing.assert_array_equal(bits, expected)

    def test_zero_vector_shift(self):
        v = np.array([700.0, 900.0, 1400.0])
        u, carries = wrap_add(v, np.zeros(3), ECG_L1, ECG_L2)
        np.testing.assert_allclose(u, v)
        assert not carries.any()
        assert not _carries(v, 0).any()

    def test_single_entry_reduces_to_scalar(self):
        u, carries = wrap_add(np.array([1000.0]), np.array([600.0]), ECG_L1, ECG_L2)
        assert (u[0], carries[0]) == shifting_add(1000, 600, ECG_L1, ECG_L2)

    def test_scalar_coherence_on_grid(self):
        values = np.linspace(ECG_L1 + 1, ECG_L2 - 1, 25)
        for w in np.linspace(-900, 900, 31):
            u, carries = wrap_add(values, np.full_like(values, w), ECG_L1, ECG_L2)
            for i, v in enumerate(values):
                su, sl = shifting_add(float(v), float(w), ECG_L1, ECG_L2)
                assert u[i] == pytest.approx(su, abs=1e-9)
                assert carries[i] == sl
            # a shift key's entries stay within shift_bound of the window
            if abs(w) <= shift_bound(ECG_L2 - ECG_L1):
                np.testing.assert_array_equal(_carries(values, int(w)), carries)

    def test_length_mismatch(self):
        x = BoundedSignal(values=np.ones(3) + ECG_L1, L1=ECG_L1, L2=ECG_L2)
        key = ShiftKey(entries=np.ones(4, dtype=np.int64), value_range=x.value_range)
        with pytest.raises(CodecError, match="key length 4 != signal length 3"):
            cs_enc(key, x, gen_sensing_matrix(b"mismatch", 1, 3))

    def test_unchecked_mode_accepts_out_of_window_inputs(self):
        # the masked-zero reference distribution needs shifts of 0 itself,
        # while cs_enc refuses a signal moved out of its window in place
        x = BoundedSignal(values=np.full(4, 700.0), L1=ECG_L1, L2=ECG_L2)
        x.values[:] = 0.0
        key = ShiftKey(entries=np.ones(4, dtype=np.int64), value_range=x.value_range)
        with pytest.raises(CodecError, match="strictly inside"):
            cs_enc(key, x, gen_sensing_matrix(b"window", 1, 4))
        u, carries = wrap_add(
            np.zeros(4), np.array([100.0, -100.0, 0.0, 896.0]), ECG_L1, ECG_L2
        )
        assert np.all((u >= ECG_L1) & (u < ECG_L2))
        # 0 + 896 already lands inside the window; the rest wrap
        np.testing.assert_array_equal(carries, [1, 1, 1, 0])


class TestEntrywiseProduct:
    def test_hand_example(self):
        np.testing.assert_allclose(
            entrywise_product(np.array([1.0, 2, 3]), np.array([4.0, 5, 6])),
            [4, 10, 18],
        )

    def test_identity_and_zero(self):
        v = np.array([3.0, -2.0, 7.5])
        np.testing.assert_allclose(entrywise_product(v, np.ones(3)), v)
        np.testing.assert_allclose(entrywise_product(v, np.zeros(3)), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(CodecError):
            entrywise_product(np.ones(2), np.ones(3))


class TestCsGen:
    def test_entries_within_bound(self):
        key = cs_gen(b"seed", 512, ECG_L1, ECG_L2)
        assert key.k == 512
        assert key.value_range == 897
        assert np.abs(key.entries).max() <= 449

    def test_deterministic(self):
        a = cs_gen(b"alpha", 128, ECG_L1, ECG_L2)
        b = cs_gen(b"alpha", 128, ECG_L1, ECG_L2)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_distinct_seeds_differ(self):
        a = cs_gen(b"alpha", 128, ECG_L1, ECG_L2)
        b = cs_gen(b"beta", 128, ECG_L1, ECG_L2)
        assert np.any(a.entries != b.entries)

    def test_uniformity_chi_square(self):
        # 1e5 draws over the 899 integer levels, significance 0.01
        key = cs_gen(b"uniformity-check", 100_000, ECG_L1, ECG_L2)
        counts = np.bincount(key.entries + 449, minlength=899)
        assert counts.size == 899
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_zero_length_rejected(self):
        with pytest.raises(CodecError):
            cs_gen(b"s", 0, ECG_L1, ECG_L2)


def _random_signal(rng, n):
    return BoundedSignal(
        values=rng.uniform(ECG_L1 + 1, ECG_L2 - 1, size=n), L1=ECG_L1, L2=ECG_L2
    )


class TestEncDeshift:
    def test_zero_key_is_plain_projection(self):
        rng = np.random.default_rng(3)
        x = _random_signal(rng, 64)
        phi = gen_sensing_matrix(b"phi", 16, 64)
        key = ShiftKey(entries=np.zeros(64, dtype=np.int64), value_range=897)
        c = cs_enc(key, x, phi)
        np.testing.assert_allclose(c.measurements, phi.entries @ x.values)
        assert not c.carries.bits.any()

    def test_two_sample_composition(self):
        # masked samples 903 and 1048 summed by a ones-row projection
        x = BoundedSignal(values=np.array([1400.0, 600.0]), L1=ECG_L1, L2=ECG_L2)
        key = ShiftKey(entries=np.array([400, -449]), value_range=x.value_range)
        phi = _OnesMatrix()
        c = cs_enc(key, x, phi)
        assert c.measurements[0] == pytest.approx(903 + 1048)

    def test_scalar_roundtrip_chain(self):
        # masked 903 with carry 1 and shift 400: 903 + 897 - 400 = 1400
        x = BoundedSignal(values=np.array([1400.0, 700.0]), L1=ECG_L1, L2=ECG_L2)
        key = ShiftKey(entries=np.array([400, 0]), value_range=x.value_range)
        phi = _FirstCoordMatrix()
        c = cs_enc(key, x, phi)
        assert c.measurements[0] == pytest.approx(903.0)
        np.testing.assert_array_equal(c.carries.bits, [1, 0])
        y = cs_deshift(key, c, phi, ECG_L1, ECG_L2)
        assert y[0] == pytest.approx(1400.0)

    def test_roundtrip_oracle(self):
        rng = np.random.default_rng(11)
        phi = gen_sensing_matrix(b"round", 32, 64)
        for trial in range(1000):
            x = _random_signal(rng, 64)
            key = cs_gen(trial.to_bytes(4, "big"), 64, ECG_L1, ECG_L2)
            c = cs_enc(key, x, phi)
            y = cs_deshift(key, c, phi, ECG_L1, ECG_L2)
            target = phi.entries @ x.values
            assert np.max(np.abs(y - target)) < 1e-9 * max(
                1.0, float(np.max(np.abs(target)))
            )

    @pytest.mark.parametrize("qs", [0, 20])
    def test_correction_matches_entrywise_oracle(self, qs):
        # y' + phi @ (range * (carries .* sign) - key), to the last bit
        rng = np.random.default_rng(7)
        phi = gen_sensing_matrix(b"deshift-oracle", 32, 64)
        for trial in range(50):
            x = _random_signal(rng, 64)
            key = cs_gen(b"oracle/%d" % trial, 64, ECG_L1, ECG_L2)
            c = cs_enc(key, x, phi)
            if qs:
                c = quantize(c, qs)
            signs = np.sign(key.entries)
            correction = (ECG_L2 - ECG_L1) * entrywise_product(c.carries.bits, signs)
            expected = c.measurements + phi.entries @ (correction - key.entries)
            np.testing.assert_array_equal(
                cs_deshift(key, c, phi, ECG_L1, ECG_L2), expected
            )

    def test_zero_key_zero_carries_decode(self):
        rng = np.random.default_rng(5)
        x = _random_signal(rng, 32)
        phi = gen_sensing_matrix(b"p2", 8, 32)
        key = ShiftKey(entries=np.zeros(32, dtype=np.int64), value_range=897)
        c = cs_enc(key, x, phi)
        np.testing.assert_allclose(
            cs_deshift(key, c, phi, ECG_L1, ECG_L2), c.measurements
        )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        x = _random_signal(rng, 32)
        phi = gen_sensing_matrix(b"p3", 8, 16)
        key = cs_gen(b"k", 32, ECG_L1, ECG_L2)
        with pytest.raises(CodecError):
            cs_enc(key, x, phi)


class _OnesMatrix:
    entries = np.ones((1, 2))
    m = 1
    n = 2


class _FirstCoordMatrix:
    entries = np.array([[1.0, 0.0]])
    m = 1
    n = 2


class TestQuantize:
    def _cipher(self, values):
        return CsCiphertext(
            measurements=np.asarray(values, dtype=np.float64),
            carries=CarryVector(bits=np.zeros(len(values) + 1, dtype=np.uint8)),
        )

    def test_nearest_multiple(self):
        q = quantize(self._cipher([137.3]), 20)
        assert q.measurements[0] == 140.0
        assert q.quant_step == 20

    def test_ties_round_away_from_zero(self):
        q = quantize(self._cipher([130.0, -130.0]), 20)
        np.testing.assert_allclose(q.measurements, [140.0, -140.0])

    def test_unit_step_on_integers(self):
        q = quantize(self._cipher([4.0, -7.0, 0.0]), 1)
        np.testing.assert_allclose(q.measurements, [4.0, -7.0, 0.0])

    def test_error_bounded_by_half_step(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(-5000, 5000, size=500)
        q = quantize(self._cipher(values), 20)
        assert np.max(np.abs(q.measurements - values)) <= 10.0 + 1e-9

    def test_double_quantize_rejected(self):
        q = quantize(self._cipher([10.0]), 5)
        with pytest.raises(CodecError):
            quantize(q, 5)

    def test_bad_step(self):
        with pytest.raises(CodecError):
            quantize(self._cipher([1.0]), 0)
        with pytest.raises(CodecError):
            quantize(self._cipher([1.0]), -3)


class TestSerialization:
    def test_unquantized_golden_bytes(self):
        c = CsCiphertext(
            measurements=np.array([1751.0]),
            carries=CarryVector(bits=np.array([1, 1])),
        )
        blob = serialize_ciphertext(c)
        assert blob.hex() == "00000002" "00000001" "00000000" "409b5c0000000000" "c0"

    @pytest.mark.parametrize(
        "measurements, bits, blob",
        [
            # multiples -8 and 7 are the edges of width 4
            ([-80.0, 70.0, 0.0, -10.0], [1, 0, 1, 1, 0],
             "00000005" "00000004" "0000000a" "04" "870f" "b0"),
            # multiple 8 needs width 5
            ([80.0, -80.0], [0, 0, 1], "00000003" "00000002" "0000000a" "05" "4600" "20"),
        ],
    )
    def test_quantized_golden_bytes(self, measurements, bits, blob):
        c = CsCiphertext(
            measurements=np.array(measurements),
            carries=CarryVector(bits=np.array(bits, dtype=np.uint8)),
            quant_step=10,
        )
        assert serialize_ciphertext(c).hex() == blob
        back = deserialize_ciphertext(bytes.fromhex(blob))
        np.testing.assert_array_equal(back.measurements, c.measurements)
        np.testing.assert_array_equal(back.carries.bits, c.carries.bits)

    def test_wire_bytes_pinned_over_the_read_grid(self):
        h = hashlib.sha256()
        for i in range(2):
            record = ecg.synth_ecg_like(f"cli-default/{i}".encode(), s=8 + i)
            signal = ecg.to_bounded_signal(record)
            key = cs_gen(f"wire-pin/{i}".encode(), signal.n, ECG_L1, ECG_L2)
            for cr in (50, 75, 90):
                m = cr_to_measurements(signal.n, cr)
                phi = gen_sensing_matrix(b"public-sensing-matrix", m, signal.n)
                for qs in (0, 10, 20, 60, 120):
                    c = cs_enc(key, signal, phi)
                    if qs:
                        c = quantize(c, qs)
                    blob = serialize_ciphertext(c)
                    back = deserialize_ciphertext(blob)
                    np.testing.assert_array_equal(back.measurements, c.measurements)
                    np.testing.assert_array_equal(back.carries.bits, c.carries.bits)
                    assert back.quant_step == c.quant_step
                    assert serialize_ciphertext(back) == blob
                    h.update(len(blob).to_bytes(8, "big") + blob)
        assert h.hexdigest() == WIRE_SHA256

    def test_unquantized_roundtrip(self):
        rng = np.random.default_rng(12)
        c = CsCiphertext(
            measurements=rng.normal(0, 1000, size=16),
            carries=CarryVector(bits=rng.integers(0, 2, size=40).astype(np.uint8)),
        )
        back = deserialize_ciphertext(serialize_ciphertext(c))
        np.testing.assert_array_equal(back.measurements, c.measurements)
        np.testing.assert_array_equal(back.carries.bits, c.carries.bits)
        assert back.quant_step is None

    def test_quantized_roundtrip_exact(self):
        rng = np.random.default_rng(13)
        raw = CsCiphertext(
            measurements=rng.normal(0, 1000, size=33),
            carries=CarryVector(bits=rng.integers(0, 2, size=64).astype(np.uint8)),
        )
        q = quantize(raw, 20)
        back = deserialize_ciphertext(serialize_ciphertext(q))
        np.testing.assert_array_equal(back.measurements, q.measurements)
        np.testing.assert_array_equal(back.carries.bits, q.carries.bits)
        assert back.quant_step == 20

    def test_quantized_payload_is_compact(self):
        rng = np.random.default_rng(14)
        raw = CsCiphertext(
            measurements=rng.normal(0, 1100, size=256),
            carries=CarryVector(bits=rng.integers(0, 2, size=512).astype(np.uint8)),
        )
        q = quantize(raw, 20)
        assert len(serialize_ciphertext(q)) <= 512  # half the 1024-byte raw form

    def test_one_bit_width_multiples(self):
        # all multiples in {-1, 0} pack into a single bit each
        c = CsCiphertext(
            measurements=np.array([-20.0, 0.0, -20.0]),
            carries=CarryVector(bits=np.zeros(4, dtype=np.uint8)),
            quant_step=20,
        )
        blob = serialize_ciphertext(c)
        assert blob[12] == 1  # width byte
        back = deserialize_ciphertext(blob)
        np.testing.assert_array_equal(back.measurements, c.measurements)

    def test_carry_packing_msb_first(self):
        c = CsCiphertext(
            measurements=np.array([0.0]),
            carries=CarryVector(bits=np.array([1, 0, 0, 0, 0, 0, 0, 0, 1])),
        )
        blob = serialize_ciphertext(c)
        assert blob[-2:] == bytes([0b10000000, 0b10000000])

    def test_malformed_buffers_rejected(self):
        c = CsCiphertext(
            measurements=np.array([1.0]), carries=CarryVector(bits=np.array([0, 1]))
        )
        blob = serialize_ciphertext(c)
        with pytest.raises(CodecError):
            deserialize_ciphertext(blob[:-1])
        with pytest.raises(CodecError):
            deserialize_ciphertext(blob + b"\x00")
        with pytest.raises(CodecError):
            deserialize_ciphertext(b"\x00\x01")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raw_measurements_rejected(self, bad):
        c = CsCiphertext(
            measurements=np.array([1.0, bad]), carries=CarryVector(bits=np.zeros(3))
        )
        with pytest.raises(CodecError, match="non-finite"):
            deserialize_ciphertext(serialize_ciphertext(c))

    def test_shift_key_roundtrip(self):
        key = cs_gen(b"wire", 48, ECG_L1, ECG_L2)
        back = deserialize_shift_key(serialize_shift_key(key))
        np.testing.assert_array_equal(back.entries, key.entries)
        assert back.value_range == key.value_range

    def test_shift_key_malformed(self):
        key = cs_gen(b"wire", 4, ECG_L1, ECG_L2)
        blob = serialize_shift_key(key)
        with pytest.raises(CodecError):
            deserialize_shift_key(blob[:-2])

    def test_ciphertext_stack_refused(self):
        # packbits and tobytes would flatten the stack into one wrong frame
        for qs in (None, 10):
            c = CsCiphertext(
                measurements=np.zeros((2, 3)),
                carries=CarryVector(bits=np.zeros((2, 5), dtype=np.uint8)),
                quant_step=qs,
            )
            with pytest.raises(CodecError, match="not a stack"):
                serialize_ciphertext(c)

    def test_shift_key_stack_refused(self):
        stack = ShiftKey(entries=np.zeros((2, 4), dtype=np.int64), value_range=897)
        with pytest.raises(CodecError, match="not a stack"):
            serialize_shift_key(stack)


class TestStacks:
    """A (K, N) stack of shift keys gives, row for row, what each key
    gives alone, without copying the stack."""

    @pytest.fixture(scope="class")
    def stacked(self):
        x = _random_signal(np.random.default_rng(21), 64)
        phi = gen_sensing_matrix(b"stack", 24, 64)
        keys = [cs_gen(b"stack/%d" % i, 64, ECG_L1, ECG_L2) for i in range(5)]
        entries = np.stack([key.entries for key in keys])
        return x, phi, keys, ShiftKey(entries=entries, value_range=x.value_range)

    @pytest.mark.parametrize("qs", [0, 20])
    def test_rows_equal_the_per_frame_ciphertexts(self, stacked, qs):
        x, phi, keys, stack = stacked
        c = cs_enc(stack, x, phi)
        if qs:
            c = quantize(c, qs)
        assert (stack.k, c.m, c.n, len(c.carries)) == (64, 24, 64, 64)
        frames = []
        for i, key in enumerate(keys):
            alone = cs_enc(key, x, phi)
            if qs:
                alone = quantize(alone, qs)
            row = c.row(i)
            np.testing.assert_array_equal(row.measurements, alone.measurements)
            np.testing.assert_array_equal(row.carries.bits, alone.carries.bits)
            assert row.quant_step == alone.quant_step
            frames.append(serialize_ciphertext(alone))
            assert serialize_ciphertext(row) == frames[-1]
        assert len(serialize_ciphertext(c.widest())) == max(map(len, frames))

    def test_one_ciphertext_deshifts_under_every_key(self, stacked):
        x, phi, keys, stack = stacked
        c = quantize(cs_enc(keys[0], x, phi), 20)
        got = cs_deshift(stack, c, phi, ECG_L1, ECG_L2)
        assert got.shape == (len(keys), phi.m)
        for row, key in zip(got, keys):
            np.testing.assert_array_equal(row, cs_deshift(key, c, phi, ECG_L1, ECG_L2))

    def test_stacks_are_not_copied(self, stacked):
        x, phi, _, stack = stacked
        entries = stack.entries.copy()
        entries.flags.writeable = False
        assert ShiftKey(entries=entries, value_range=x.value_range).entries is entries
        c = cs_enc(stack, x, phi)
        assert CsCiphertext(measurements=c.measurements, carries=c.carries).measurements is (
            c.measurements
        )
        q = quantize(c, 20)
        assert q.carries is c.carries
        row = q.row(2)
        assert row.measurements.base is q.measurements
        assert row.carries.bits.base is c.carries.bits

    def test_mismatched_stacks_refused(self, stacked):
        x, phi, _, stack = stacked
        c = cs_enc(stack, x, phi)
        with pytest.raises(CodecError, match="differ in rows"):
            CsCiphertext(measurements=c.measurements[:3], carries=c.carries)
        three = ShiftKey(entries=stack.entries[:3], value_range=stack.value_range)
        with pytest.raises(CodecError, match="3 keys for 5 ciphertext rows"):
            cs_deshift(three, c, phi, ECG_L1, ECG_L2)
        off_step = c.measurements.copy()
        off_step[4, 0] = 21.0
        with pytest.raises(CodecError, match="step multiples"):
            CsCiphertext(measurements=off_step, carries=c.carries, quant_step=20)


def _two_sample_cipher():
    x = BoundedSignal(values=np.array([1400.0, 700.0]), L1=ECG_L1, L2=ECG_L2)
    key = ShiftKey(entries=np.array([400, 0]), value_range=x.value_range)
    return key, cs_enc(key, x, _FirstCoordMatrix())


def _header(n, m, qs):
    return struct.pack(">III", n, m, qs)


@st.composite
def wire_buffers(draw):
    """Arbitrary bytes, or a ciphertext or shift-key header of small or
    extreme fields followed by arbitrary bytes of about the length the
    header asks for."""
    kind = draw(st.sampled_from(["bytes", "ciphertext", "shift key"]))
    if kind == "bytes":
        return draw(st.binary(max_size=80))
    delta = draw(st.integers(-2, 2))
    if kind == "ciphertext":
        n, m = draw(st.integers(0, 40)), draw(st.integers(0, 40))
        qs = draw(st.sampled_from([0, 1, 20, 2**32 - 1]))
        if qs:
            width = draw(st.integers(0, 34))
            head, size = _header(n, m, qs) + bytes([width]), (m * width + 7) // 8
        else:
            head, size = _header(n, m, qs), 8 * m
        size = max(0, size + (n + 7) // 8 + delta)
    else:
        k = draw(st.integers(0, 20))
        rng = draw(st.sampled_from([0, 1, 897, 2**32 - 1]))
        head, size = struct.pack(">II", k, rng), max(0, 4 * k + delta)
    return head + draw(st.binary(min_size=size, max_size=size))


class TestRefusals:
    """Each refusal of the codec, reached by one input that breaks only
    the rule it names."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: BoundedSignal(values=np.zeros((2, 2)), L1=-1, L2=1), "non-empty 1-D"),
            (lambda: BoundedSignal(values=[1.0], L1=0.0, L2=2), "bounds must be integers"),
            (lambda: BoundedSignal(values=[1.0], L1=2, L2=2), r"need L1 < L2, got \(2, 2\)"),
            (lambda: BoundedSignal(values=[ECG_L1], L1=ECG_L1, L2=ECG_L2), "strictly inside"),
            (lambda: ShiftKey(entries=np.zeros(0), value_range=897), "non-empty integer"),
            (lambda: ShiftKey(entries=[0], value_range=0), "value_range must be positive"),
            (lambda: ShiftKey(entries=[450], value_range=897), "exceed bound 449"),
            (lambda: CarryVector(bits=np.zeros((1, 1, 2))), "1-D or a stack"),
            (lambda: CarryVector(bits=[0, 2]), "0 or 1"),
            (lambda: CsCiphertext(measurements=[], carries=CarryVector(bits=[0, 1])),
             "non-empty vector or stack"),
            (lambda: CsCiphertext(measurements=[0.0, 0.0], carries=CarryVector(bits=[0, 1])),
             "smaller than sample count"),
            (lambda: CsCiphertext(measurements=[0.0], carries=CarryVector(bits=[0, 1]),
                                  quant_step=0), "step must be positive"),
            (lambda: cs_gen(b"s", 4, 5, 5), r"need L1 < L2, got \(5, 5\)"),
            (lambda: cs_deshift(cs_gen(b"s", 3, ECG_L1, ECG_L2), _two_sample_cipher()[1],
                                _FirstCoordMatrix(), ECG_L1, ECG_L2), "key length 3 != sample"),
            (lambda: cs_deshift(*_two_sample_cipher(), _FirstCoordMatrix(), ECG_L2, ECG_L1),
             "key window width 897 != L2 - L1 = -897"),
            (lambda: deserialize_ciphertext(_header(4, 4, 0)), "bad ciphertext dimensions N=4"),
            (lambda: deserialize_ciphertext(_header(4, 2, 0) + bytes(9)),
             "truncated measurement block"),
            (lambda: deserialize_ciphertext(_header(4, 2, 10)), "missing bit-width byte"),
            (lambda: deserialize_ciphertext(_header(4, 2, 10) + b"\x21" + bytes(9)),
             "bad multiple width 33"),
            (lambda: deserialize_ciphertext(_header(4, 2, 10) + b"\x08\x01"),
             "truncated measurement block"),
            (lambda: deserialize_shift_key(struct.pack(">II", 0, 897)), "bad shift key header"),
        ],
        ids=["signal-2d", "signal-float-bound", "signal-empty-window", "signal-on-bound",
             "key-empty", "key-zero-range", "key-past-bound", "carries-3d", "carry-bit-2",
             "cipher-empty", "cipher-m-equals-n", "cipher-zero-step", "gen-empty-window",
             "deshift-key-length", "deshift-empty-window", "wire-dimensions",
             "wire-raw-truncated", "wire-no-width", "wire-width-33", "wire-quantized-truncated",
             "key-wire-header"],
    )
    def test_refused(self, build, message):
        with pytest.raises(CodecError, match=message):
            build()

    def test_enc_refuses_a_key_of_another_window_width(self):
        # a width-100 key would shift the 897-wide window by only +-50
        x = _random_signal(np.random.default_rng(4), 64)
        phi = gen_sensing_matrix(b"width", 16, 64)
        with pytest.raises(CodecError, match="key window width 100 != signal's 897"):
            cs_enc(cs_gen(b"k", 64, 0, 100), x, phi)

    def test_deshift_refuses_a_window_of_another_width(self):
        x = _random_signal(np.random.default_rng(5), 64)
        phi = gen_sensing_matrix(b"width", 16, 64)
        key = cs_gen(b"k", 64, ECG_L1, ECG_L2)
        c = cs_enc(key, x, phi)
        with pytest.raises(CodecError, match="key window width 897 != L2 - L1 = 100"):
            cs_deshift(key, c, phi, 0, 100)

    @settings(max_examples=500, deadline=None)
    @given(wire_buffers())
    def test_deserializers_return_or_raise_codec_error(self, buf):
        for deserialize in (deserialize_ciphertext, deserialize_shift_key):
            try:
                deserialize(buf)
            except CodecError:
                pass


class TestPackingOracle:
    """The numpy packer against the per-bit loop it replaced."""

    @staticmethod
    def assert_matches_reference(multiples, qs):
        mult = np.array(multiples, dtype=np.int64)
        c = CsCiphertext(
            measurements=mult.astype(np.float64) * qs,
            carries=CarryVector(bits=np.arange(mult.size + 3, dtype=np.uint8) % 2),
            quant_step=qs,
        )
        width = _width_reference(mult)
        expected = (
            struct.pack(">IIIB", c.n, c.m, qs, width)
            + _pack_reference(mult, width)
            + c.carries.packed()
        )
        blob = serialize_ciphertext(c)
        assert blob == expected
        back = deserialize_ciphertext(blob)
        np.testing.assert_array_equal(back.measurements / qs, mult)
        assert back.quant_step == qs
        return blob

    @settings(max_examples=300, deadline=None)
    @given(multiples_at_a_width(), st.sampled_from([1, 10, 120]))
    def test_bytes_equal_the_reference_at_every_width(self, multiples, qs):
        self.assert_matches_reference(multiples, qs)

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("size", [1, 7, 8, 9, 64])
    def test_constant_vectors_pack_at_width_one(self, value, size):
        assert self.assert_matches_reference([value] * size, 20)[12] == 1

    def test_32_bit_edges_pack_and_round_trip(self):
        c = CsCiphertext(
            measurements=np.array([-(2.0**31), 2.0**31 - 1, 0.0]),
            carries=CarryVector(bits=np.zeros(5, dtype=np.uint8)),
            quant_step=1,
        )
        blob = serialize_ciphertext(c)
        assert blob[12] == 32
        assert blob[13:25].hex() == "80000000" "7fffffff" "00000000"
        back = deserialize_ciphertext(blob)
        np.testing.assert_array_equal(back.measurements, c.measurements)

    @pytest.mark.parametrize("multiple", [2**31, -(2**31) - 1])
    def test_multiples_past_32_bits_rejected(self, multiple):
        c = CsCiphertext(
            measurements=np.array([float(multiple), 0.0]),
            carries=CarryVector(bits=np.zeros(3, dtype=np.uint8)),
            quant_step=1,
        )
        with pytest.raises(CodecError, match="quantized multiples exceed 32-bit range"):
            serialize_ciphertext(c)


class TestUnpackOracle:
    """The numpy unpacker against the per-bit loop it replaced, on blocks
    the packer never writes: non-minimal widths and set padding bits."""

    @staticmethod
    def frame(width, m, block, qs):
        n = m + 3
        return struct.pack(">IIIB", n, m, qs, width) + block + bytes((n + 7) // 8)

    @settings(max_examples=300, deadline=None)
    @given(measurement_blocks(), st.sampled_from([1, 10, 120]))
    def test_multiples_equal_the_reference(self, block, qs):
        width, m, payload = block
        back = deserialize_ciphertext(self.frame(width, m, payload, qs))
        expected = _unpack_reference(payload, m, width) * qs
        np.testing.assert_array_equal(back.measurements, expected)
        assert back.quant_step == qs

    def test_three_byte_strings_decode_to_one_ciphertext(self):
        # multiples -1 and 2: as packed (width 3), with both padding bits
        # set, and at width 8
        packed = self.frame(3, 2, bytes([0b111_010_00]), 20)
        padded = self.frame(3, 2, bytes([0b111_010_11]), 20)
        wide = self.frame(8, 2, bytes([0xFF, 0x02]), 20)
        assert len({packed, padded, wide}) == 3
        for blob in (packed, padded, wide):
            back = deserialize_ciphertext(blob)
            np.testing.assert_array_equal(back.measurements, [-20.0, 40.0])
            assert serialize_ciphertext(back) == packed


class TestStatisticalMasking:
    def test_masked_signal_close_to_masked_zero(self):
        # marginals of (x shifted) vs (0 shifted) under a uniform key,
        # two-sample KS at significance 0.01 on 1e5 entries
        rng = np.random.default_rng(2026)
        samples = 100_000
        x_entries = rng.integers(ECG_L1 + 1, ECG_L2, size=samples).astype(float)
        key = cs_gen(b"ks-invariant", samples, ECG_L1, ECG_L2)
        shifted_x, _ = wrap_add(x_entries, key.entries, ECG_L1, ECG_L2)
        shifted_zero, _ = wrap_add(
            np.zeros(samples), key.entries, ECG_L1, ECG_L2
        )
        result = stats.ks_2samp(shifted_x, shifted_zero)
        assert result.pvalue > 0.01
