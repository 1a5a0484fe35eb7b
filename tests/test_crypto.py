import hashlib
import hmac
import random
import sys
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from imdsec.crypto import (
    _KDF_SALT,
    _MEMO_SIZE,
    Certificate,
    CryptoError,
    CryptoSuite,
    DecryptionError,
    SignatureBlob,
    SymmetricKey,
    _ed25519_sign,
    _ed25519_verify,
    _x25519_seal,
    _x25519_unseal,
    length_prefixed,
)
from imdsec.keymat import (
    authority_private_key,
    doctor_certificate,
    doctor_sealing_key,
    doctor_signing_key,
)
from imdsec.parties import SystemConfig, derive_k_i, derive_k_p, step_of
from imdsec.scenarios import DOCTOR_ID, SMARTPHONE_ID, build_world, run_session
from imdsec.wire import Heading, u64_bytes

VECTOR_FILE = Path(__file__).parent / "data" / "crypto_vectors.txt"
WRITE_COMMAND = "PYTHONPATH=src:tests python -m test_crypto --write"
PK_MEMOS = {
    "pk_enc": _x25519_seal,
    "pk_dec": _x25519_unseal,
    "sign": _ed25519_sign,
    "verify": _ed25519_verify,
}
EPHEMERAL = bytes(range(32))


@pytest.fixture(scope="module")
def suite():
    return CryptoSuite()


@pytest.fixture(scope="module")
def authority():
    return authority_private_key()


@pytest.fixture(scope="module")
def doctor_key():
    return doctor_signing_key()


@pytest.fixture(scope="module")
def sealing_key():
    return doctor_sealing_key()


def hkdf_sha256(ikm, salt, info, length):
    """RFC 5869 HKDF-SHA256 on stdlib hmac: extract, then expand."""
    prk = hmac.new(salt, ikm, hashlib.sha256).digest()
    okm, block = b"", b""
    for counter in range(1, -(-length // 32) + 1):
        block = hmac.new(prk, block + info + bytes([counter]), hashlib.sha256).digest()
        okm += block
    return okm[:length]


class TestKdf:
    def test_deterministic(self, suite):
        assert suite.kdf(b"material") == suite.kdf(b"material")

    def test_sixteen_bytes(self, suite):
        assert len(suite.kdf(b"m").data) == 16

    def test_single_byte_difference(self, suite):
        rng = random.Random(5)
        for _ in range(10_000):
            material = rng.randbytes(rng.randint(1, 24))
            flipped = bytearray(material)
            flipped[rng.randrange(len(material))] ^= 1 << rng.randrange(8)
            assert suite.kdf(material) != suite.kdf(bytes(flipped))

    def test_pairing_key_shape(self, suite):
        # K || ID_S || ID_I consumed as the pairing key material
        master = SymmetricKey(b"\x01" * 16)
        k_i = suite.kdf(length_prefixed(master.data, b"SM-01", b"IMD-7742"))
        assert isinstance(k_i, SymmetricKey)

    def test_empty_material_rejected(self, suite):
        with pytest.raises(CryptoError):
            suite.kdf(b"")

    def test_empty_material_leaves_no_entry(self):
        suite = CryptoSuite()
        before = {op: memo.cache_info().currsize for op, memo in PK_MEMOS.items()}
        with pytest.raises(CryptoError):
            suite.kdf(b"")
        assert {op: memo.cache_info().currsize for op, memo in PK_MEMOS.items()} == before
        assert suite.counters["kdf"] == 0

    def test_key_separation_over_corpus(self, suite):
        rng = random.Random(11)
        corpus = {rng.randbytes(rng.randint(1, 32)) for _ in range(2000)}
        keys = {suite.kdf(m).data for m in corpus}
        assert len(keys) == len(corpus)

    def test_reference_matches_rfc5869(self):
        # Appendix A, test cases 1 and 3
        ikm = b"\x0b" * 22
        salt, info = bytes(range(13)), bytes(range(0xF0, 0xFA))
        assert hkdf_sha256(ikm, salt, info, 42).hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        )
        assert hkdf_sha256(ikm, b"", b"", 42).hex() == (
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        )

    def test_equals_rfc5869_reference(self, suite):
        rng = random.Random(21)
        for _ in range(1000):
            material = rng.randbytes(rng.randint(1, 96))
            assert suite.kdf(material).data == hkdf_sha256(material, _KDF_SALT, b"", 16)

    def test_every_call_is_counted(self):
        suite = CryptoSuite()
        for _ in range(3):
            suite.kdf(b"counted")
        assert suite.counters["kdf"] == 3

    def test_honest_full_session_makes_six_calls(self):
        result = run_session("full")
        assert result.ok
        parties = result.world.scheduler.parties.values()
        assert sum(party.crypto.counters["kdf"] for party in parties) == 6

    def test_labels_separate_k_i_from_k_p(self, suite):
        # K_I's (master key, smartphone id, implant id) and K_P's (RM,
        # session, nonce) are byte-equal here, so only the label differs
        secret, session, tail = bytes(range(16)), 0x4B5F49, b"IMD-7742"
        k_i = derive_k_i(suite, SymmetricKey(secret), u64_bytes(session), tail)
        k_p = derive_k_p(suite, secret, session, tail)
        assert k_i == suite.kdf(length_prefixed(b"K_I", secret, u64_bytes(session), tail))
        assert k_p == suite.kdf(length_prefixed(b"K_P", secret, u64_bytes(session), tail))
        assert k_i != k_p


def unseal_reference(private_key, blob):
    """A sealed blob opened from the library's X25519 exchange, the RFC
    5869 HKDF above (no salt) and AES-128-GCM under the all-zero nonce."""
    sender = blob[:32]
    shared = private_key.exchange(X25519PublicKey.from_public_bytes(sender))
    recipient = private_key.public_key().public_bytes_raw()
    key = hkdf_sha256(shared, b"", length_prefixed(b"imdsec/seal/v1", sender, recipient), 16)
    return AESGCM(key).decrypt(bytes(12), blob[32:], None)


class TestRsaMemo:
    """The public-key memos change wall time only: sealed challenges,
    nonces, signatures, verdicts, counts and an attacker's cost per forged
    challenge are those of uncached library calls.  (The class keeps the
    name it had when the four operations were RSA-2048.)"""

    @pytest.fixture(autouse=True)
    def empty_memos(self):
        for memo in PK_MEMOS.values():
            memo.cache_clear()

    @staticmethod
    def _info():
        return {op: memo.cache_info() for op, memo in PK_MEMOS.items()}

    def test_equals_uncached_library_calls(self, suite, doctor_key, sealing_key):
        rng = random.Random(23)
        pub, sealing_pub = doctor_key.public_key(), sealing_key.public_key()
        for _ in range(20):
            message, ephemeral = rng.randbytes(rng.randint(1, 64)), rng.randbytes(32)
            uncached = _x25519_seal.__wrapped__(sealing_pub.public_bytes_raw(), ephemeral, message)
            assert unseal_reference(sealing_key, uncached) == message
            for _ in range(2):  # computed, then from the memo
                assert CryptoSuite().pk_enc(sealing_pub, message, ephemeral) == uncached
                assert suite.pk_dec(sealing_key, uncached) == message
            expected = doctor_key.sign(message)
            for _ in range(2):
                sig = suite.sign(doctor_key, message)
                assert sig.data == expected
                assert suite.verify(pub, message, sig) is True
                forged = SignatureBlob(sig.algorithm, rng.randbytes(len(sig.data)))
                with pytest.raises(InvalidSignature):
                    pub.verify(forged.data, message)
                assert suite.verify(pub, message, forged) is False
        assert all(info.hits and info.misses for info in self._info().values())

    def test_every_call_is_counted(self, sealing_key):
        blob = CryptoSuite().pk_enc(sealing_key.public_key(), b"counted", EPHEMERAL)
        suite = CryptoSuite()
        for _ in range(3):
            assert suite.pk_dec(sealing_key, blob) == b"counted"
        assert suite.counters["pk_dec"] == 3
        info = _x25519_unseal.cache_info()
        assert (info.hits, info.misses) == (2, 1)

    def test_keys_are_keyed_by_their_raw_bytes(self, doctor_key):
        suite = CryptoSuite()
        seed = doctor_key.private_bytes_raw()
        for _ in range(3):  # a new private key object per call
            sig = suite.sign(Ed25519PrivateKey.from_private_bytes(seed), b"m")
        raw = doctor_key.public_key().public_bytes_raw()
        for _ in range(3):  # a new public key object per call, as from a certificate
            assert suite.verify(Ed25519PublicKey.from_public_bytes(raw), b"m", sig)
        for memo in (_ed25519_sign, _ed25519_verify):
            info = memo.cache_info()
            assert (info.hits, info.misses) == (2, 1)

    def test_tampered_challenge_raises_every_call_and_leaves_no_entry(self, sealing_key):
        blob = bytearray(CryptoSuite().pk_enc(sealing_key.public_key(), b"nonce", EPHEMERAL))
        blob[33] ^= 1
        suite = CryptoSuite()
        for _ in range(3):
            with pytest.raises(DecryptionError):
                suite.pk_dec(sealing_key, bytes(blob))
        assert suite.counters["pk_dec"] == 3
        info = _x25519_unseal.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0)

    def test_memos_are_bounded(self, suite, doctor_key, sealing_key):
        pub, sealing_pub = doctor_key.public_key(), sealing_key.public_key()
        for i in range(3 * _MEMO_SIZE):
            message = b"bounded-%d" % i
            ephemeral = hashlib.sha256(message).digest()
            suite.pk_dec(sealing_key, suite.pk_enc(sealing_pub, message, ephemeral))
            suite.verify(pub, message, suite.sign(doctor_key, message))
            for info in self._info().values():
                assert info.maxsize == _MEMO_SIZE
                assert info.currsize <= _MEMO_SIZE
        assert all(info.currsize == _MEMO_SIZE for info in self._info().values())

    def test_each_forged_challenge_costs_a_full_decryption(self):
        world = build_world(seed=3, config=SystemConfig(n=64))
        programmer = world.programmer
        programmer.start_auth()
        step = step_of("smartphone", Heading.AUTH_REQ)
        rng = random.Random(31)
        forged = {rng.randbytes(64) for _ in range(50)}
        before = _x25519_unseal.cache_info()
        for challenge in forged:
            fields = dict(smartphone_id=SMARTPHONE_ID, challenge=challenge)
            frame = step.encode(programmer.session, fields, CryptoSuite(), None)
            assert programmer.receive(frame, step.link) == []
        assert programmer.expected == Heading.AUTH_REQ
        assert programmer.crypto.counters["pk_dec"] == len(forged) == 50
        info = _x25519_unseal.cache_info()
        assert info.misses == before.misses + 50
        assert info.hits == before.hits

    def test_an_honest_session_repeats_no_public_key_input(self):
        def session(seed):
            world = build_world(seed=seed)  # issues the demo certificate
            before = self._info()
            assert run_session("full", world=world).ok
            after = self._info()
            parties = world.scheduler.parties.values()
            counts = {op: sum(p.crypto.counters[op] for p in parties) for op in PK_MEMOS}
            calls = {op: after[op].hits + after[op].misses - before[op].hits - before[op].misses
                     for op in PK_MEMOS}
            assert calls == counts
            return {op: after[op].hits - before[op].hits for op in PK_MEMOS}

        # the certificate check and the evidence check are the two verifies
        assert session(41) == dict(pk_enc=0, pk_dec=0, sign=0, verify=0)
        # across sessions only the certificate, the same in every world, repeats
        assert session(43) == dict(pk_enc=0, pk_dec=0, sign=0, verify=1)


class TestBytesLikeInput:
    """A bytearray or memoryview input gives the bytes input's result and
    is counted like any call; every public-key memo is keyed on bytes at
    the CryptoSuite boundary, so such an input shares the bytes input's
    entry."""

    @pytest.fixture(autouse=True)
    def empty_memos(self):
        for memo in PK_MEMOS.values():
            memo.cache_clear()

    @staticmethod
    def _forms(data):
        return bytes(data), bytearray(data), memoryview(bytes(data))

    def test_kdf(self):
        suite = CryptoSuite()
        keys = [suite.kdf(form) for form in self._forms(b"bytes-like material")]
        assert keys[0] == keys[1] == keys[2]
        assert suite.counters["kdf"] == 3

    def test_pk_enc_and_pk_dec(self, sealing_key):
        pub = sealing_key.public_key()
        forms = zip(self._forms(b"nonce"), self._forms(EPHEMERAL))
        blobs = [CryptoSuite().pk_enc(pub, message, ephemeral) for message, ephemeral in forms]
        assert blobs[0] == blobs[1] == blobs[2]
        suite = CryptoSuite()
        assert [suite.pk_dec(sealing_key, form) for form in self._forms(blobs[0])] == [b"nonce"] * 3
        assert suite.counters["pk_dec"] == 3
        for memo in (_x25519_seal, _x25519_unseal):
            assert memo.cache_info().currsize == 1

    def test_sign_and_verify(self, doctor_key):
        pub = doctor_key.public_key()
        suite = CryptoSuite()
        sigs = [suite.sign(doctor_key, form) for form in self._forms(b"evidence")]
        assert sigs[0] == sigs[1] == sigs[2]
        for message in self._forms(b"evidence"):
            for data in self._forms(sigs[0].data):
                assert suite.verify(pub, message, SignatureBlob(sigs[0].algorithm, data)) is True
        assert (suite.counters["sign"], suite.counters["verify"]) == (3, 9)
        for memo in (_ed25519_sign, _ed25519_verify):
            assert memo.cache_info().currsize == 1


class TestMac:
    def test_roundtrip(self, suite):
        key = suite.kdf(b"mac-key")
        tag = suite.mac(key, b"hello")
        assert suite.mac_verify(key, b"hello", tag)

    def test_flipped_bit_rejects(self, suite):
        key = suite.kdf(b"mac-key")
        tag = suite.mac(key, b"hello")
        assert not suite.mac_verify(key, b"hellp", tag)
        other = suite.kdf(b"mac-key2")
        assert not suite.mac_verify(other, b"hello", tag)
        bad = bytes([tag[0] ^ 1]) + tag[1:]
        assert not suite.mac_verify(key, b"hello", bad)

    def test_truncated_tags_reject(self, suite):
        key = suite.kdf(b"mac-key")
        tag = suite.mac(key, b"payload")
        for ln in range(len(tag)):
            assert not suite.mac_verify(key, b"payload", tag[:ln])

    def test_verify_is_total(self, suite):
        key = suite.kdf(b"k")
        assert suite.mac_verify(key, b"m", b"") is False


class TestSymmetric:
    def test_roundtrip(self, suite):
        key = suite.kdf(b"sym")
        blob = suite.sym_enc(key, b"secret payload")
        assert suite.sym_dec(key, blob) == b"secret payload"

    def test_randomized_encryption(self, suite):
        key = suite.kdf(b"sym")
        assert suite.sym_enc(key, b"x") != suite.sym_enc(key, b"x")

    def test_wrong_key_fails_explicitly(self, suite):
        rng = random.Random(7)
        key = suite.kdf(b"right")
        blob = suite.sym_enc(key, b"payload")
        for _ in range(1000):
            wrong = SymmetricKey(rng.randbytes(16))
            with pytest.raises(DecryptionError):
                suite.sym_dec(wrong, blob)

    def test_tampered_blob_fails(self, suite):
        key = suite.kdf(b"sym")
        blob = suite.sym_enc(key, b"payload")
        bad = blob[:-1] + bytes([blob[-1] ^ 1])
        with pytest.raises(DecryptionError):
            suite.sym_dec(key, bad)


class TestPublicKey:
    def test_roundtrip(self, suite, sealing_key):
        blob = suite.pk_enc(sealing_key.public_key(), b"nonce-nonce-nonce", EPHEMERAL)
        assert suite.pk_dec(sealing_key, blob) == b"nonce-nonce-nonce"

    def test_wrong_private_key_fails(self, suite, sealing_key):
        blob = suite.pk_enc(sealing_key.public_key(), b"sixteen-byte-msg", EPHEMERAL)
        other = X25519PrivateKey.from_private_bytes(hashlib.sha256(b"other").digest())
        with pytest.raises(DecryptionError):
            suite.pk_dec(other, blob)

    def test_nonce_fuzz(self, suite, sealing_key):
        rng = random.Random(3)
        pub = sealing_key.public_key()
        for _ in range(1000):
            nonce = rng.randbytes(16)
            assert suite.pk_dec(sealing_key, suite.pk_enc(pub, nonce, rng.randbytes(32))) == nonce

    def test_seeded_encryption_is_deterministic(self, sealing_key):
        a = CryptoSuite(rng=random.Random(9))
        b = CryptoSuite(rng=random.Random(9))
        pub = sealing_key.public_key()
        assert a.pk_enc(pub, b"n" * 16, a.random_bytes(32)) == b.pk_enc(
            pub, b"n" * 16, b.random_bytes(32)
        )

    def test_a_sealed_nonce_is_the_ephemeral_key_then_64_bytes_in_all(self, sealing_key):
        blob = CryptoSuite().pk_enc(sealing_key.public_key(), bytes(16), EPHEMERAL)
        ephemeral_pub = X25519PrivateKey.from_private_bytes(EPHEMERAL).public_key()
        assert blob[:32] == ephemeral_pub.public_bytes_raw()
        assert len(blob) == 32 + 16 + 16

    @pytest.mark.parametrize(
        "malform",
        [
            lambda blob: bytes(32) + blob[32:],  # low order: the exchange raises ValueError
            lambda blob: blob[:31] + blob[32:],
            lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]),
            lambda blob: blob[:47],
            lambda blob: blob[:20],
            lambda blob: b"",
        ],
        ids=["zero-ephemeral-key", "31-byte-ephemeral-key", "flipped-tag-bit",
             "short-tag", "short-ephemeral-key", "empty"],
    )
    def test_a_malformed_blob_raises_decryption_error(self, sealing_key, malform):
        blob = CryptoSuite().pk_enc(sealing_key.public_key(), bytes(16), EPHEMERAL)
        suite = CryptoSuite()
        with pytest.raises(DecryptionError):
            suite.pk_dec(sealing_key, malform(blob))
        assert suite.counters["pk_dec"] == 1


class TestSignatures:
    def test_roundtrip(self, suite, doctor_key):
        sig = suite.sign(doctor_key, b"message")
        assert suite.verify(doctor_key.public_key(), b"message", sig)

    def test_tampered_message_rejects(self, suite, doctor_key):
        sig = suite.sign(doctor_key, b"message")
        assert not suite.verify(doctor_key.public_key(), b"messagf", sig)

    def test_signature_transplant_rejects(self, suite, doctor_key):
        rng = random.Random(13)
        pub = doctor_key.public_key()
        pairs = [(rng.randbytes(24), None) for _ in range(100)]
        pairs = [(m, suite.sign(doctor_key, m)) for m, _ in pairs]
        for i, (msg, _) in enumerate(pairs):
            sig = pairs[(i + 1) % len(pairs)][1]
            assert not suite.verify(pub, msg, sig)

    def test_verify_is_total(self, suite, doctor_key):
        assert (
            suite.verify(
                doctor_key.public_key(), b"m", SignatureBlob("junk", b"\x00")
            )
            is False
        )

    @pytest.mark.parametrize("sig", [None, b"\x00" * 256, ("rsa-pkcs1v15-sha256", b"")],
                             ids=["none", "raw-bytes", "tuple"])
    def test_verify_refuses_what_is_not_a_signature_blob(self, doctor_key, sig):
        suite = CryptoSuite()
        assert suite.verify(doctor_key.public_key(), b"m", sig) is False
        assert suite.counters["verify"] == 1

    def test_verify_refuses_a_message_that_is_not_bytes_like(self, doctor_key):
        suite = CryptoSuite()
        sig = suite.sign(doctor_key, b"m")
        assert suite.verify(doctor_key.public_key(), "m", sig) is False

    @pytest.mark.parametrize(
        "forge",
        [
            lambda sig: SignatureBlob(sig.algorithm, sig.data[:63]),
            lambda sig: SignatureBlob(sig.algorithm, sig.data + b"\x00"),
            lambda sig: SignatureBlob("rsa-pkcs1v15-sha256", sig.data),
        ],
        ids=["63-bytes", "65-bytes", "rsa-label"],
    )
    def test_verify_refuses_a_signature_of_another_size_or_label(self, doctor_key, forge):
        suite = CryptoSuite()
        sig = suite.sign(doctor_key, b"m")
        assert suite.verify(doctor_key.public_key(), b"m", sig) is True
        assert suite.verify(doctor_key.public_key(), b"m", forge(sig)) is False
        assert suite.counters["verify"] == 2


class TestCertificates:
    @pytest.fixture
    def cert(self, suite, authority, doctor_key, sealing_key):
        return suite.cert_issue(
            authority, b"DR-ALICE", doctor_key.public_key(), sealing_key.public_key()
        )

    def test_issue_and_verify(self, suite, authority, cert):
        assert suite.cert_verify(authority.public_key(), cert)

    def test_unknown_authority_rejects(self, suite, doctor_key, cert):
        # the doctor key stands in for an authority the verifier does not trust
        assert not suite.cert_verify(doctor_key.public_key(), cert)

    def test_field_mutation_rejects(self, suite, authority, cert):
        pub = authority.public_key()

        def flipped(data):
            return data[:-1] + bytes([data[-1] ^ 1])

        variants = [
            Certificate(b"DR-MALLORY", cert.signing_key, cert.sealing_key, cert.signature),
            Certificate(cert.subject_id, flipped(cert.signing_key), cert.sealing_key,
                        cert.signature),
            Certificate(cert.subject_id, cert.signing_key, flipped(cert.sealing_key),
                        cert.signature),
            Certificate(cert.subject_id, cert.signing_key, cert.sealing_key,
                        SignatureBlob(cert.signature.algorithm, flipped(cert.signature.data))),
            Certificate(cert.subject_id, cert.sealing_key, cert.signing_key, cert.signature),
        ]
        for variant in variants:
            assert not suite.cert_verify(pub, variant)

    def test_cert_serialization_roundtrip(self, cert):
        back = Certificate.from_bytes(cert.to_bytes())
        assert back == cert

    def test_worlds_share_one_demo_certificate(self, suite, authority, doctor_key, sealing_key):
        doctor_certificate.cache_clear()
        first, second = (
            build_world(seed=seed, reconstruct=False).programmer.credentials.certificate
            for seed in (1, 2)
        )
        assert first is second
        assert suite.cert_verify(authority.public_key(), first)
        assert first == suite.cert_issue(
            authority, DOCTOR_ID, doctor_key.public_key(), sealing_key.public_key()
        )
        assert doctor_certificate.cache_info().misses == 1


class TestCounters:
    def test_counts_accumulate(self):
        suite = CryptoSuite()
        key = suite.kdf(b"kk")
        suite.mac(key, b"m")
        suite.mac_verify(key, b"m", suite.mac(key, b"m"))
        suite.sym_dec(key, suite.sym_enc(key, b"pt"))
        suite.counters["cs_enc"] += 3
        snap = suite.snapshot()
        assert snap["kdf"] == 1
        assert snap["mac"] == 3
        assert snap["sym_enc"] == 1
        assert snap["sym_dec"] == 1
        assert snap["cs_enc"] == 3
        suite.mac(key, b"m")
        assert snap["mac"] == 3  # a snapshot is a copy
        assert suite.snapshot() - snap == {"mac": 1}


def vector_output(primitive: str, key: bytes, data: bytes) -> bytes:
    """What a line of the vector file pins: seal seals to the demo doctor's
    X25519 key with key as the ephemeral scalar; unseal and sign use the
    demo doctor's keys."""
    suite = CryptoSuite()
    if primitive == "kdf":
        return suite.kdf(data).data
    if primitive == "mac":
        return suite.mac(SymmetricKey(key), data)
    if primitive == "sym_dec":
        return suite.sym_dec(SymmetricKey(key), data)
    if primitive == "seal":
        return suite.pk_enc(doctor_sealing_key().public_key(), data, key)
    if primitive == "unseal":
        return suite.pk_dec(doctor_sealing_key(), data)
    if primitive == "sign":
        return suite.sign(doctor_signing_key(), data).data
    raise AssertionError(f"unknown primitive {primitive}")


def _is_vector(line: str) -> bool:
    return bool(line) and not line.startswith("#")


def _parse(line: str):
    primitive, key_hex, input_hex, output_hex = line.split()
    key = bytes.fromhex(key_hex) if key_hex != "-" else b""
    return primitive, key, bytes.fromhex(input_hex), bytes.fromhex(output_hex)


def vector_lines():
    """(primitive, key, input, output) of each line of the vector file."""
    return [_parse(line) for line in VECTOR_FILE.read_text().splitlines() if _is_vector(line)]


class TestPinnedVectors:
    def test_vector_file_agrees(self):
        lines = vector_lines()
        assert len(lines) >= 8
        for primitive, key, data, output in lines:
            assert vector_output(primitive, key, data) == output, (primitive, data.hex())
        assert {line[0] for line in lines} == {"kdf", "mac", "sym_dec", "seal", "unseal", "sign"}

    def test_each_unseal_line_opens_a_seal_line(self):
        lines = vector_lines()
        sealed = {output: data for primitive, _, data, output in lines if primitive == "seal"}
        unsealed = {data: output for primitive, _, data, output in lines if primitive == "unseal"}
        assert sealed == unsealed


class TestRfcVectors:
    """The curves checked against their RFCs' own vectors, independently
    of the pinned file."""

    # RFC 8032 section 7.1, TEST 1: the empty message
    ED25519_SECRET = "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
    ED25519_PUBLIC = "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
    ED25519_SIGNATURE = (
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555"
        "fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
    )
    # RFC 7748 section 6.1: Alice and Bob
    ALICE_SECRET = "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
    ALICE_PUBLIC = "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
    BOB_SECRET = "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
    BOB_PUBLIC = "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
    SHARED = "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"

    def test_ed25519_rfc8032_test_1(self):
        key = Ed25519PrivateKey.from_private_bytes(bytes.fromhex(self.ED25519_SECRET))
        assert key.public_key().public_bytes_raw().hex() == self.ED25519_PUBLIC
        suite = CryptoSuite()
        sig = suite.sign(key, b"")
        assert sig.data.hex() == self.ED25519_SIGNATURE
        assert suite.verify(key.public_key(), b"", sig) is True

    def test_x25519_rfc7748_alice_and_bob(self):
        alice = X25519PrivateKey.from_private_bytes(bytes.fromhex(self.ALICE_SECRET))
        bob = X25519PrivateKey.from_private_bytes(bytes.fromhex(self.BOB_SECRET))
        assert alice.public_key().public_bytes_raw().hex() == self.ALICE_PUBLIC
        assert bob.public_key().public_bytes_raw().hex() == self.BOB_PUBLIC
        assert alice.exchange(bob.public_key()).hex() == self.SHARED
        assert bob.exchange(alice.public_key()).hex() == self.SHARED
        # Alice's scalar as the ephemeral key of a seal to Bob: her public
        # key, then AES-128-GCM under HKDF of the RFC's shared secret
        blob = CryptoSuite().pk_enc(bob.public_key(), b"nonce", bytes.fromhex(self.ALICE_SECRET))
        assert blob[:32].hex() == self.ALICE_PUBLIC
        info = length_prefixed(b"imdsec/seal/v1", blob[:32], bytes.fromhex(self.BOB_PUBLIC))
        key = hkdf_sha256(bytes.fromhex(self.SHARED), b"", info, 16)
        assert AESGCM(key).decrypt(bytes(12), blob[32:], None) == b"nonce"
        assert CryptoSuite().pk_dec(bob, blob) == b"nonce"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {WRITE_COMMAND}")
    rewritten = []
    for line in VECTOR_FILE.read_text().splitlines():
        if _is_vector(line):
            primitive, key, data, _ = _parse(line)
            line = " ".join(line.split()[:3] + [vector_output(primitive, key, data).hex()])
        rewritten.append(line + "\n")
    VECTOR_FILE.write_text("".join(rewritten))
