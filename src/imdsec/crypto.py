"""Cryptographic primitives behind the access-control protocols.

Default algorithms: HKDF-SHA256 key derivation (RFC 5869, fixed context
salt), HMAC-SHA1 message authentication, AES-128-GCM symmetric
encryption, RSA-2048 with OAEP for the nonce challenge and PKCS#1 v1.5
signatures.  Every verify operation is total: it returns accept/reject
and never raises.

MAC tags and ciphertexts are raw bytes, exactly as they travel on the
wire.  Only signatures carry an algorithm label (SignatureBlob), because
certificates and evidence records serialize it and it arrives from
outside.

A CryptoSuite instance carries its own operation counters and an
optional deterministic RNG, so each simulated party can account for its
own crypto workload and whole runs replay bit-for-bit from seeds.

The process memoizes the last _MEMO_SIZE results of each RSA operation
by its exact input: the seeded OAEP encode by the public key's numbers,
message and seed; OAEP decryption by private key and ciphertext; PKCS#1
v1.5 signing by private key and message; and verification by the public
key's numbers, message and signature bytes.  Public keys are keyed by
their numbers, because each load of a certificate makes a new,
unhashable key object, and messages, blobs and signatures as bytes, so
any bytes-like input is accepted.  Each result, a rejecting verify's
False included, is a pure function of its input; an exception (a failed
decryption) is never stored, and every call is still counted, so
transcripts and op counts are those of an uncached run.  The memos hold
up to _MEMO_SIZE plaintexts and _MEMO_SIZE signatures in process memory,
all made with the simulator's demo keys.  Symmetric keys are never
memoized: a derivation costs two HMAC calls.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as hmac_mod
import random
import secrets
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding as asym_padding
from cryptography.hazmat.primitives.asymmetric import rsa
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

__all__ = [
    "CryptoError",
    "DecryptionError",
    "SymmetricKey",
    "SignatureBlob",
    "Certificate",
    "KeyPairWithCert",
    "CryptoSuite",
    "split_length_prefixed",
    "length_prefixed",
]

KEY_BYTES = 16
SIGNATURE_ALGORITHM = "rsa-pkcs1v15-sha256"  # the only label sign makes and verify accepts
_KDF_SALT = b"imdsec/kdf/v1"
# per RSA operation: a session's few inputs, plus the ones a fuzz world's
# flipped frame makes
_MEMO_SIZE = 16
_GCM_NONCE_BYTES = 12
_OAEP_HASH_BYTES = 32  # SHA-256


class CryptoError(Exception):
    pass


class DecryptionError(CryptoError):
    """Authenticated decryption failed (wrong key or tampered blob)."""


def length_prefixed(*parts: bytes) -> bytes:
    """Canonical concatenation: each part prefixed with a 4-byte length."""
    out = bytearray()
    for part in parts:
        out += len(part).to_bytes(4, "big")
        out += part
    return bytes(out)


@dataclass(frozen=True, eq=False)
class SymmetricKey:
    """A 16-byte secret, comparable only in constant time."""

    data: bytes

    def __post_init__(self):
        if len(self.data) != KEY_BYTES:
            raise CryptoError(f"symmetric keys are {KEY_BYTES} bytes")

    def __eq__(self, other):
        if not isinstance(other, SymmetricKey):
            return NotImplemented
        return hmac_mod.compare_digest(self.data, other.data)

    def __hash__(self):
        raise TypeError("symmetric keys are not hashable")

    def __repr__(self):
        return "SymmetricKey(<redacted>)"


@dataclass(frozen=True)
class SignatureBlob:
    algorithm: str
    data: bytes


@dataclass(frozen=True)
class Certificate:
    """Authority-signed binding of a subject id to a public key."""

    subject_id: bytes
    public_key_der: bytes
    signature: SignatureBlob

    def to_bytes(self) -> bytes:
        return length_prefixed(
            self.subject_id,
            self.public_key_der,
            self.signature.algorithm.encode(),
            self.signature.data,
        )

    @classmethod
    def from_bytes(cls, buf: bytes) -> "Certificate":
        parts = split_length_prefixed(buf, 4)
        return cls(
            subject_id=parts[0],
            public_key_der=parts[1],
            signature=SignatureBlob(parts[2].decode(), parts[3]),
        )

    def public_key(self):
        return serialization.load_der_public_key(self.public_key_der)


def split_length_prefixed(buf: bytes, count: Optional[int] = None) -> list[bytes]:
    """Inverse of length_prefixed: exactly `count` parts, or with no
    count as many parts as fill the buffer."""
    parts = []
    pos = 0
    while (pos < len(buf)) if count is None else (len(parts) < count):
        if pos + 4 > len(buf):
            raise CryptoError("truncated length-prefixed buffer")
        ln = int.from_bytes(buf[pos : pos + 4], "big")
        pos += 4
        if pos + ln > len(buf):
            raise CryptoError("truncated length-prefixed buffer")
        parts.append(buf[pos : pos + ln])
        pos += ln
    if pos != len(buf):
        raise CryptoError("trailing bytes in length-prefixed buffer")
    return parts


@dataclass
class KeyPairWithCert:
    private_key: rsa.RSAPrivateKey
    certificate: Certificate

    @property
    def public_key(self):
        return self.private_key.public_key()


def _mgf1(seed: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(out[:length])


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _oaep_encrypt(numbers: rsa.RSAPublicNumbers, message: bytes, seed: bytes) -> bytes:
    """RFC 8017 OAEP(SHA-256) with a caller-supplied seed, so ciphertexts
    are reproducible under a seeded RNG.  Interoperates with the library
    decryptor."""
    k = (numbers.n.bit_length() + 7) // 8
    h = _OAEP_HASH_BYTES
    if len(message) > k - 2 * h - 2:
        raise CryptoError("message too long for OAEP")
    if len(seed) != h:
        raise CryptoError("OAEP seed must match the hash length")
    l_hash = hashlib.sha256(b"").digest()
    ps = b"\x00" * (k - len(message) - 2 * h - 2)
    db = l_hash + ps + b"\x01" + message
    masked_db = _xor(db, _mgf1(seed, k - h - 1))
    masked_seed = _xor(seed, _mgf1(masked_db, h))
    em = b"\x00" + masked_seed + masked_db
    c = pow(int.from_bytes(em, "big"), numbers.e, numbers.n)
    return c.to_bytes(k, "big")


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _oaep_decrypt(private_key: rsa.RSAPrivateKey, blob: bytes) -> bytes:
    try:
        return private_key.decrypt(
            blob,
            asym_padding.OAEP(
                mgf=asym_padding.MGF1(algorithm=hashes.SHA256()),
                algorithm=hashes.SHA256(),
                label=None,
            ),
        )
    except ValueError as exc:
        raise DecryptionError("public-key decryption failed") from exc


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _pkcs1_sign(private_key: rsa.RSAPrivateKey, message: bytes) -> bytes:
    return private_key.sign(message, asym_padding.PKCS1v15(), hashes.SHA256())


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _pkcs1_verify(numbers: rsa.RSAPublicNumbers, message: bytes, signature: bytes) -> bool:
    try:
        numbers.public_key().verify(
            signature, message, asym_padding.PKCS1v15(), hashes.SHA256()
        )
    except InvalidSignature:
        return False
    return True


class CryptoSuite:
    """Primitive operations with per-instance counters.

    rng, when given, supplies all per-operation randomness (GCM nonces,
    OAEP seeds); otherwise the OS RNG is used.  Counter keys: kdf, mac,
    sym_enc, sym_dec, pk_enc, pk_dec, sign, verify, cs_enc (the last is
    bumped by callers that run the telemetry codec).
    """

    def __init__(self, rng: Optional[random.Random] = None):
        self._rng = rng
        self.counters: Counter[str] = Counter()

    def snapshot(self) -> Counter[str]:
        return self.counters.copy()

    def random_bytes(self, n: int) -> bytes:
        if self._rng is not None:
            return self._rng.randbytes(n)
        return secrets.token_bytes(n)

    # -- key derivation --------------------------------------------------

    def kdf(self, material: bytes) -> SymmetricKey:
        """Derive a 16-byte key from high-entropy material (HKDF-SHA256)."""
        if not material:
            raise CryptoError("empty key-derivation material")
        self.counters["kdf"] += 1
        return SymmetricKey(HKDF(hashes.SHA256(), KEY_BYTES, _KDF_SALT, None).derive(material))

    # -- message authentication ------------------------------------------

    def mac(self, key: SymmetricKey, message: bytes) -> bytes:
        self.counters["mac"] += 1
        return hmac_mod.new(key.data, message, hashlib.sha1).digest()

    def mac_verify(self, key: SymmetricKey, message: bytes, tag: bytes) -> bool:
        self.counters["mac"] += 1
        expected = hmac_mod.new(key.data, message, hashlib.sha1).digest()
        return hmac_mod.compare_digest(expected, tag)

    # -- symmetric encryption ---------------------------------------------

    def sym_enc(self, key: SymmetricKey, plaintext: bytes) -> bytes:
        """GCM nonce followed by the ciphertext and its tag."""
        self.counters["sym_enc"] += 1
        nonce = self.random_bytes(_GCM_NONCE_BYTES)
        return nonce + AESGCM(key.data).encrypt(nonce, plaintext, None)

    def sym_dec(self, key: SymmetricKey, blob: bytes) -> bytes:
        self.counters["sym_dec"] += 1
        if len(blob) < _GCM_NONCE_BYTES:
            raise DecryptionError("malformed symmetric blob")
        nonce, ct = blob[:_GCM_NONCE_BYTES], blob[_GCM_NONCE_BYTES:]
        try:
            return AESGCM(key.data).decrypt(nonce, ct, None)
        except InvalidTag as exc:
            raise DecryptionError("symmetric decryption failed") from exc

    # -- public-key encryption ---------------------------------------------

    def pk_enc(self, public_key: rsa.RSAPublicKey, message: bytes) -> bytes:
        self.counters["pk_enc"] += 1
        seed = self.random_bytes(_OAEP_HASH_BYTES)
        return _oaep_encrypt(public_key.public_numbers(), bytes(message), seed)

    def pk_dec(self, private_key: rsa.RSAPrivateKey, blob: bytes) -> bytes:
        self.counters["pk_dec"] += 1
        return _oaep_decrypt(private_key, bytes(blob))

    # -- signatures ---------------------------------------------------------

    def sign(self, private_key: rsa.RSAPrivateKey, message: bytes) -> SignatureBlob:
        self.counters["sign"] += 1
        return SignatureBlob(SIGNATURE_ALGORITHM, _pkcs1_sign(private_key, bytes(message)))

    def verify(
        self, public_key: rsa.RSAPublicKey, message: bytes, sig: SignatureBlob
    ) -> bool:
        self.counters["verify"] += 1
        if not isinstance(sig, SignatureBlob) or sig.algorithm != SIGNATURE_ALGORITHM:
            return False
        try:
            return _pkcs1_verify(public_key.public_numbers(), bytes(message), bytes(sig.data))
        except Exception:
            return False

    # -- certificates ---------------------------------------------------------

    def cert_issue(
        self,
        authority_key: rsa.RSAPrivateKey,
        subject_public_key: rsa.RSAPublicKey,
        subject_id: bytes,
    ) -> Certificate:
        der = subject_public_key.public_bytes(
            serialization.Encoding.DER,
            serialization.PublicFormat.SubjectPublicKeyInfo,
        )
        sig = self.sign(authority_key, length_prefixed(subject_id, der))
        return Certificate(subject_id=subject_id, public_key_der=der, signature=sig)

    def cert_verify(
        self, authority_public_key: rsa.RSAPublicKey, cert: Certificate
    ) -> bool:
        try:
            payload = length_prefixed(cert.subject_id, cert.public_key_der)
        except Exception:
            return False
        return self.verify(authority_public_key, payload, cert.signature)
