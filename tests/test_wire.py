import pytest

from imdsec.wire import (
    _DECODE_MEMO_SIZE,
    FRESHNESS_WINDOW,
    Heading,
    WireError,
    WireMessage,
    _decode,
    auth_bytes,
    decode_message,
    encode_message,
    freshness_check,
    ts_from_bytes,
    u64_bytes,
)


class TestFraming:
    def test_golden_frame(self):
        msg = WireMessage(Heading.PAIR_REQ, 0x0102030405060708, (b"AB", b""))
        assert encode_message(msg).hex() == (
            "01" "0102030405060708" "02" "00000002" "4142" "00000000"
        )

    def test_roundtrip(self):
        msg = WireMessage(Heading.SET_ALLOW, 42, (b"\x00" * 5, b"xyz", b"\xff"))
        assert decode_message(encode_message(msg)) == msg

    def test_empty_fields(self):
        msg = WireMessage(Heading.PAIR_SUCC, 7, ())
        assert decode_message(encode_message(msg)) == msg

    def test_unknown_heading(self):
        raw = bytes([99]) + b"\x00" * 8 + b"\x00"
        with pytest.raises(WireError):
            decode_message(raw)

    def test_truncated_frames(self):
        msg = WireMessage(Heading.READ_REQ, 9, (b"payload",))
        raw = encode_message(msg)
        for cut in (1, 5, 9, 10, 12, len(raw) - 1):
            with pytest.raises(WireError):
                decode_message(raw[:cut])

    def test_trailing_bytes_rejected(self):
        raw = encode_message(WireMessage(Heading.READ_REQ, 9, ()))
        with pytest.raises(WireError):
            decode_message(raw + b"\x00")

    def test_session_range(self):
        with pytest.raises(WireError):
            WireMessage(Heading.PAIR_REQ, 2**64, ())


class TestDecodeMemo:
    """decode_message parses each distinct frame once: equal bytes give
    one shared, frozen message, whatever bytes-like type carries them."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        _decode.cache_clear()

    RAW = encode_message(WireMessage(Heading.READ_ALLOW, 5, (b"c1", b"\x00tag")))

    def test_equal_bytes_decode_to_the_identical_object(self):
        first = decode_message(self.RAW)
        assert decode_message(bytes(bytearray(self.RAW))) is first
        info = _decode.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    @pytest.mark.parametrize("form", [bytearray, memoryview], ids=["bytearray", "memoryview"])
    def test_a_bytes_like_frame_decodes_as_its_bytes(self, form):
        msg = decode_message(form(self.RAW))
        assert msg == decode_message(self.RAW)
        assert all(type(f) is bytes for f in msg.fields)
        assert _decode.cache_info().currsize == 1

    def test_an_undecodable_frame_raises_every_call_and_leaves_no_entry(self):
        decode_message(self.RAW)
        for _ in range(3):
            with pytest.raises(WireError, match="trailing"):
                decode_message(self.RAW + b"\x00")
        info = _decode.cache_info()
        assert (info.misses, info.currsize) == (4, 1)

    def test_decoded_message_is_immutable(self):
        msg = decode_message(bytearray(self.RAW))
        with pytest.raises(AttributeError):
            msg.session = 6
        assert isinstance(msg.fields, tuple)

    def test_memo_is_bounded(self):
        assert _decode.cache_info().maxsize == _DECODE_MEMO_SIZE
        for i in range(3 * _DECODE_MEMO_SIZE):
            decode_message(encode_message(WireMessage(Heading.PAIR_SUCC, i, ())))
            assert _decode.cache_info().currsize <= _DECODE_MEMO_SIZE


class TestAuthBytes:
    def test_full_layout(self):
        data = auth_bytes(Heading.PAIR_REQ, 0x01, [b"ID", b"TS"])
        assert data.hex() == (
            "01" "0000000000000001" "00000002" "4944" "00000002" "5453"
        )

    def test_headingless_layout(self):
        # telemetry response MACs cover session and payload only
        data = auth_bytes(None, 2, [b"C2"])
        assert data.hex() == "0000000000000002" "00000002" "4332"

    def test_field_boundaries_differ(self):
        # (a, bc) and (ab, c) must never collide
        assert auth_bytes(None, 1, [b"a", b"bc"]) != auth_bytes(
            None, 1, [b"ab", b"c"]
        )


class TestTimestamps:
    def test_roundtrip(self):
        assert ts_from_bytes(u64_bytes(123456)) == 123456

    def test_bad_length(self):
        with pytest.raises(WireError):
            ts_from_bytes(b"\x00" * 7)

    def test_freshness_window(self):
        assert FRESHNESS_WINDOW == 30
        assert freshness_check(100, 100)
        assert freshness_check(70, 100)  # closed boundary
        assert freshness_check(130, 100)
        assert not freshness_check(69, 100)
        assert not freshness_check(131, 100)
