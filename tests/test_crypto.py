import hashlib
import hmac
import random
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding as asym_padding

from imdsec.crypto import (
    _KDF_SALT,
    _MEMO_SIZE,
    Certificate,
    CryptoError,
    CryptoSuite,
    DecryptionError,
    SignatureBlob,
    SymmetricKey,
    _oaep_decrypt,
    _oaep_encrypt,
    _pkcs1_sign,
    _pkcs1_verify,
    length_prefixed,
)
from imdsec.keymat import authority_private_key, doctor_certificate, doctor_private_key
from imdsec.parties import SystemConfig, derive_k_i, derive_k_p, step_of
from imdsec.scenarios import DOCTOR_ID, SMARTPHONE_ID, build_world, run_session
from imdsec.wire import Heading, u64_bytes

VECTOR_FILE = Path(__file__).parent / "data" / "crypto_vectors.txt"
OAEP = asym_padding.OAEP(
    mgf=asym_padding.MGF1(algorithm=hashes.SHA256()), algorithm=hashes.SHA256(), label=None
)
RSA_MEMOS = {
    "pk_enc": _oaep_encrypt,
    "pk_dec": _oaep_decrypt,
    "sign": _pkcs1_sign,
    "verify": _pkcs1_verify,
}


@pytest.fixture(scope="module")
def suite():
    return CryptoSuite()


@pytest.fixture(scope="module")
def authority():
    return authority_private_key()


@pytest.fixture(scope="module")
def doctor_key():
    return doctor_private_key()


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
        before = {op: memo.cache_info().currsize for op, memo in RSA_MEMOS.items()}
        with pytest.raises(CryptoError):
            suite.kdf(b"")
        assert {op: memo.cache_info().currsize for op, memo in RSA_MEMOS.items()} == before
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


class TestRsaMemo:
    """The RSA memos change wall time only: ciphertexts, plaintexts,
    signatures, verdicts, counts and an attacker's cost per forged
    challenge are those of uncached library calls."""

    @pytest.fixture(autouse=True)
    def empty_memos(self):
        for memo in RSA_MEMOS.values():
            memo.cache_clear()

    @staticmethod
    def _info():
        return {op: memo.cache_info() for op, memo in RSA_MEMOS.items()}

    def test_equals_uncached_library_calls(self, suite, doctor_key):
        rng = random.Random(23)
        pub = doctor_key.public_key()
        for _ in range(20):
            message = rng.randbytes(rng.randint(1, 64))
            blob = pub.encrypt(message, OAEP)
            assert suite.pk_dec(doctor_key, blob) == message  # computed
            assert suite.pk_dec(doctor_key, blob) == message  # from the memo
            expected = doctor_key.sign(message, asym_padding.PKCS1v15(), hashes.SHA256())
            for _ in range(2):
                sig = suite.sign(doctor_key, message)
                assert sig.data == expected
                assert suite.verify(pub, message, sig) is True
                forged = SignatureBlob(sig.algorithm, rng.randbytes(len(sig.data)))
                with pytest.raises(InvalidSignature):
                    pub.verify(forged.data, message, asym_padding.PKCS1v15(), hashes.SHA256())
                assert suite.verify(pub, message, forged) is False
            rng_seed = rng.getrandbits(32)
            oaep_seed = random.Random(rng_seed).randbytes(32)
            uncached = _oaep_encrypt.__wrapped__(pub.public_numbers(), message, oaep_seed)
            assert doctor_key.decrypt(uncached, OAEP) == message
            for _ in range(2):
                seeded = CryptoSuite(rng=random.Random(rng_seed))
                assert seeded.pk_enc(pub, message) == uncached
        assert all(info.hits and info.misses for info in self._info().values())

    def test_every_call_is_counted(self, doctor_key):
        blob = CryptoSuite().pk_enc(doctor_key.public_key(), b"counted")
        suite = CryptoSuite()
        for _ in range(3):
            assert suite.pk_dec(doctor_key, blob) == b"counted"
        assert suite.counters["pk_dec"] == 3
        info = _oaep_decrypt.cache_info()
        assert (info.hits, info.misses) == (2, 1)

    def test_public_keys_are_keyed_by_their_numbers(self, doctor_key):
        suite = CryptoSuite()
        sig = suite.sign(doctor_key, b"m")
        for _ in range(3):  # a new key object per call, as from a certificate
            assert suite.verify(doctor_key.public_key(), b"m", sig)
        info = _pkcs1_verify.cache_info()
        assert (info.hits, info.misses) == (2, 1)

    def test_tampered_challenge_raises_every_call_and_leaves_no_entry(self, doctor_key):
        blob = bytearray(CryptoSuite().pk_enc(doctor_key.public_key(), b"nonce"))
        blob[17] ^= 1
        suite = CryptoSuite()
        for _ in range(3):
            with pytest.raises(DecryptionError):
                suite.pk_dec(doctor_key, bytes(blob))
        assert suite.counters["pk_dec"] == 3
        info = _oaep_decrypt.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0)

    def test_memos_are_bounded(self, suite, doctor_key):
        pub = doctor_key.public_key()
        for i in range(3 * _MEMO_SIZE):
            message = b"bounded-%d" % i
            suite.pk_dec(doctor_key, suite.pk_enc(pub, message))
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
        forged = {rng.randbytes(256) for _ in range(50)}
        before = _oaep_decrypt.cache_info()
        for challenge in forged:
            fields = dict(smartphone_id=SMARTPHONE_ID, challenge=challenge)
            frame = step.encode(programmer.session, fields, CryptoSuite(), None)
            assert programmer.receive(frame, step.link) == []
        assert programmer.expected == Heading.AUTH_REQ
        assert programmer.crypto.counters["pk_dec"] == len(forged) == 50
        info = _oaep_decrypt.cache_info()
        assert info.misses == before.misses + 50
        assert info.hits == before.hits

    def test_an_honest_session_repeats_no_rsa_input(self):
        def session(seed):
            world = build_world(seed=seed)  # issues the demo certificate
            before = self._info()
            assert run_session("full", world=world).ok
            after = self._info()
            parties = world.scheduler.parties.values()
            counts = {op: sum(p.crypto.counters[op] for p in parties) for op in RSA_MEMOS}
            calls = {op: after[op].hits + after[op].misses - before[op].hits - before[op].misses
                     for op in RSA_MEMOS}
            assert calls == counts
            return {op: after[op].hits - before[op].hits for op in RSA_MEMOS}

        # the certificate check and the evidence check are the two verifies
        assert session(41) == dict(pk_enc=0, pk_dec=0, sign=0, verify=0)
        # across sessions only the certificate, the same in every world, repeats
        assert session(43) == dict(pk_enc=0, pk_dec=0, sign=0, verify=1)


class TestBytesLikeInput:
    """A bytearray or memoryview input gives the bytes input's result and
    is counted like any call; every RSA memo is keyed on bytes at the
    CryptoSuite boundary, so such an input shares the bytes input's entry."""

    @pytest.fixture(autouse=True)
    def empty_memos(self):
        for memo in RSA_MEMOS.values():
            memo.cache_clear()

    @staticmethod
    def _forms(data):
        return bytes(data), bytearray(data), memoryview(bytes(data))

    def test_kdf(self):
        suite = CryptoSuite()
        keys = [suite.kdf(form) for form in self._forms(b"bytes-like material")]
        assert keys[0] == keys[1] == keys[2]
        assert suite.counters["kdf"] == 3

    def test_pk_enc_and_pk_dec(self, doctor_key):
        pub = doctor_key.public_key()
        blobs = [CryptoSuite(rng=random.Random(5)).pk_enc(pub, form)
                 for form in self._forms(b"nonce")]
        assert blobs[0] == blobs[1] == blobs[2]
        suite = CryptoSuite()
        assert [suite.pk_dec(doctor_key, form) for form in self._forms(blobs[0])] == [b"nonce"] * 3
        assert suite.counters["pk_dec"] == 3
        for memo in (_oaep_encrypt, _oaep_decrypt):
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
        for memo in (_pkcs1_sign, _pkcs1_verify):
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
    def test_roundtrip(self, suite, doctor_key):
        blob = suite.pk_enc(doctor_key.public_key(), b"nonce-nonce-nonce")
        assert suite.pk_dec(doctor_key, blob) == b"nonce-nonce-nonce"

    def test_wrong_private_key_fails(self, suite, doctor_key, authority):
        blob = suite.pk_enc(doctor_key.public_key(), b"sixteen-byte-msg")
        with pytest.raises(DecryptionError):
            suite.pk_dec(authority, blob)

    def test_nonce_fuzz(self, suite, doctor_key):
        rng = random.Random(3)
        pub = doctor_key.public_key()
        for _ in range(1000):
            nonce = rng.randbytes(16)
            assert suite.pk_dec(doctor_key, suite.pk_enc(pub, nonce)) == nonce

    def test_seeded_encryption_is_deterministic(self, doctor_key):
        a = CryptoSuite(rng=random.Random(9))
        b = CryptoSuite(rng=random.Random(9))
        pub = doctor_key.public_key()
        assert a.pk_enc(pub, b"n" * 16) == b.pk_enc(pub, b"n" * 16)


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


class TestCertificates:
    @pytest.fixture
    def cert(self, suite, authority, doctor_key):
        return suite.cert_issue(authority, doctor_key.public_key(), b"DR-ALICE")

    def test_issue_and_verify(self, suite, authority, cert):
        assert suite.cert_verify(authority.public_key(), cert)

    def test_unknown_authority_rejects(self, suite, doctor_key, cert):
        # the doctor key stands in for an authority the verifier does not trust
        assert not suite.cert_verify(doctor_key.public_key(), cert)

    def test_field_mutation_rejects(self, suite, authority, cert):
        pub = authority.public_key()
        variants = [
            Certificate(b"DR-MALLORY", cert.public_key_der, cert.signature),
            Certificate(
                cert.subject_id,
                cert.public_key_der[:-1] + bytes([cert.public_key_der[-1] ^ 1]),
                cert.signature,
            ),
            Certificate(
                cert.subject_id,
                cert.public_key_der,
                SignatureBlob(
                    cert.signature.algorithm,
                    cert.signature.data[:-1]
                    + bytes([cert.signature.data[-1] ^ 1]),
                ),
            ),
        ]
        for variant in variants:
            assert not suite.cert_verify(pub, variant)

    def test_cert_serialization_roundtrip(self, cert):
        back = Certificate.from_bytes(cert.to_bytes())
        assert back == cert

    def test_worlds_share_one_demo_certificate(self, suite, authority, doctor_key):
        doctor_certificate.cache_clear()
        first, second = (
            build_world(seed=seed, reconstruct=False).programmer.credentials.certificate
            for seed in (1, 2)
        )
        assert first is second
        assert suite.cert_verify(authority.public_key(), first)
        assert first == suite.cert_issue(authority, doctor_key.public_key(), DOCTOR_ID)
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


class TestPinnedVectors:
    def test_vector_file_agrees(self, suite, doctor_key):
        lines = [
            line.split()
            for line in VECTOR_FILE.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(lines) >= 8
        seen = set()
        for primitive, key_hex, input_hex, output_hex in lines:
            seen.add(primitive)
            key = bytes.fromhex(key_hex) if key_hex != "-" else b""
            inp = bytes.fromhex(input_hex)
            out = bytes.fromhex(output_hex)
            if primitive == "kdf":
                assert suite.kdf(inp).data == out
            elif primitive == "mac":
                assert suite.mac(SymmetricKey(key), inp) == out
            elif primitive == "sym_dec":
                assert suite.sym_dec(SymmetricKey(key), inp) == out
            elif primitive == "pk_dec":
                assert suite.pk_dec(doctor_key, inp) == out
            elif primitive == "sign":
                sig = suite.sign(doctor_key, inp)
                assert sig.data == out
            else:
                raise AssertionError(f"unknown primitive {primitive}")
        assert seen == {"kdf", "mac", "sym_dec", "pk_dec", "sign"}
