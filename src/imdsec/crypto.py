"""Cryptographic primitives behind the access-control protocols.

Algorithms: HKDF-SHA256 key derivation (RFC 5869, fixed context salt),
HMAC-SHA1 message authentication, AES-128-GCM symmetric encryption,
Ed25519 signatures (RFC 8032) and a nonce challenge sealed to an X25519
key (RFC 7748).  Every verify operation is total: it returns
accept/reject and never raises.

pk_enc seals a message with an ephemeral X25519 scalar that the caller
draws from its seeded RNG: the blob is the ephemeral public key followed
by the AES-128-GCM ciphertext and tag of the message under a key that
HKDF-SHA256 derives from the shared secret, with info binding the
ephemeral and the recipient public keys.  A key seals one message, so
the GCM nonce is fixed; a sealed 16-byte nonce takes 64 bytes.  pk_dec
turns every malformed blob (short, a low-order ephemeral key, a failed
tag) into DecryptionError.

MAC tags and ciphertexts are raw bytes, exactly as they travel on the
wire.  Only signatures carry an algorithm label (SignatureBlob), because
certificates and evidence records serialize it and it arrives from
outside.

A CryptoSuite instance carries its own operation counters and an
optional deterministic RNG, so each simulated party can account for its
own crypto workload and whole runs replay bit-for-bit from seeds.

The process memoizes the last _MEMO_SIZE results of each public-key
operation by its exact input: sealing by the recipient's raw public
key, the ephemeral scalar and the message; unsealing by the raw private
key and the blob; signing by the raw private key and the message; and
verification by the raw public key, the message and the signature
bytes.  Key objects are unhashable, and each certificate load makes new
ones, so the memos key on raw key bytes (a private key travels in a _Key,
so a miss signs or unseals with the caller's object instead of
rebuilding it), and on messages, blobs and signatures as bytes, so any
bytes-like input is accepted.  Each result, a rejecting verify's False
included, is a pure function of its input; an exception (a failed
unseal) is never stored, and every call is still counted, so
transcripts and op counts are those of an uncached run, and each
distinct input (an attacker's forged challenge) still costs a full
unseal.  The memos hold up to _MEMO_SIZE plaintexts and _MEMO_SIZE
signatures in process memory, all made with the simulator's demo keys.
Symmetric keys are never memoized: a derivation costs two HMAC calls.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as hmac_mod
import random
import secrets
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

__all__ = [
    "CryptoError",
    "DecryptionError",
    "SymmetricKey",
    "SignatureBlob",
    "Certificate",
    "Credentials",
    "CryptoSuite",
    "split_length_prefixed",
    "length_prefixed",
]

KEY_BYTES = 16
X25519_BYTES = 32  # a scalar or a public key
SIGNATURE_ALGORITHM = "ed25519"  # the only label sign makes and verify accepts
_KDF_SALT = b"imdsec/kdf/v1"
_SEAL_INFO = b"imdsec/seal/v1"
# per public-key operation: a session's few inputs, plus the ones a fuzz
# world's flipped frame makes
_MEMO_SIZE = 16
_GCM_NONCE_BYTES = 12
_SEAL_NONCE = bytes(_GCM_NONCE_BYTES)


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
    """Authority-signed binding of a subject id to its raw Ed25519
    signing key and X25519 sealing key."""

    subject_id: bytes
    signing_key: bytes
    sealing_key: bytes
    signature: Optional[SignatureBlob] = None  # None until the authority signs

    def signed_bytes(self) -> bytes:
        return length_prefixed(self.subject_id, self.signing_key, self.sealing_key)

    def to_bytes(self) -> bytes:
        return self.signed_bytes() + length_prefixed(
            self.signature.algorithm.encode(), self.signature.data
        )

    @classmethod
    def from_bytes(cls, buf: bytes) -> "Certificate":
        parts = split_length_prefixed(buf, 5)
        return cls(
            subject_id=parts[0],
            signing_key=parts[1],
            sealing_key=parts[2],
            signature=SignatureBlob(parts[3].decode(), parts[4]),
        )

    def signing_public_key(self) -> Ed25519PublicKey:
        return Ed25519PublicKey.from_public_bytes(self.signing_key)

    def sealing_public_key(self) -> X25519PublicKey:
        return X25519PublicKey.from_public_bytes(self.sealing_key)


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
class Credentials:
    """The doctor's Ed25519 signing key, X25519 sealing key and the
    authority's certificate on both."""

    signing_key: Ed25519PrivateKey
    sealing_key: X25519PrivateKey
    certificate: Certificate

    @property
    def public_key(self) -> Ed25519PublicKey:
        """The key that verifies the doctor's signatures."""
        return self.signing_key.public_key()


@dataclass(frozen=True)
class _Key:
    """A private key object that hashes and compares by its raw bytes."""

    raw: bytes
    obj: object = field(compare=False)


def _private(key) -> _Key:
    return _Key(key.private_bytes_raw(), key)


def _seal_key(shared: bytes, sender: bytes, recipient: bytes) -> bytes:
    info = length_prefixed(_SEAL_INFO, sender, recipient)
    return HKDF(hashes.SHA256(), KEY_BYTES, None, info).derive(shared)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _x25519_seal(recipient: bytes, ephemeral: bytes, message: bytes) -> bytes:
    scalar = X25519PrivateKey.from_private_bytes(ephemeral)
    sender = scalar.public_key().public_bytes_raw()
    shared = scalar.exchange(X25519PublicKey.from_public_bytes(recipient))
    return sender + AESGCM(_seal_key(shared, sender, recipient)).encrypt(
        _SEAL_NONCE, message, None
    )


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _x25519_unseal(private_key: _Key, blob: bytes) -> bytes:
    sender, sealed = blob[:X25519_BYTES], blob[X25519_BYTES:]
    recipient = private_key.obj.public_key().public_bytes_raw()
    try:
        # a short or low-order ephemeral key raises ValueError
        shared = private_key.obj.exchange(X25519PublicKey.from_public_bytes(sender))
        return AESGCM(_seal_key(shared, sender, recipient)).decrypt(_SEAL_NONCE, sealed, None)
    except (ValueError, InvalidTag) as exc:
        raise DecryptionError("public-key decryption failed") from exc


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _ed25519_sign(private_key: _Key, message: bytes) -> bytes:
    return private_key.obj.sign(message)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _ed25519_verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
    except InvalidSignature:
        return False
    return True


class CryptoSuite:
    """Primitive operations with per-instance counters.

    rng, when given, supplies all per-operation randomness (GCM nonces,
    and the ephemeral scalars callers draw with random_bytes); otherwise
    the OS RNG is used.  Counter keys: kdf, mac, sym_enc, sym_dec,
    pk_enc, pk_dec, sign, verify, cs_enc (the last is bumped by callers
    that run the telemetry codec).
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

    # -- public-key sealing --------------------------------------------------

    def pk_enc(self, public_key: X25519PublicKey, message: bytes, ephemeral: bytes) -> bytes:
        """Seal message to public_key with the ephemeral X25519 scalar."""
        self.counters["pk_enc"] += 1
        return _x25519_seal(public_key.public_bytes_raw(), bytes(ephemeral), bytes(message))

    def pk_dec(self, private_key: X25519PrivateKey, blob: bytes) -> bytes:
        self.counters["pk_dec"] += 1
        return _x25519_unseal(_private(private_key), bytes(blob))

    # -- signatures ---------------------------------------------------------

    def sign(self, private_key: Ed25519PrivateKey, message: bytes) -> SignatureBlob:
        self.counters["sign"] += 1
        signature = _ed25519_sign(_private(private_key), bytes(message))
        return SignatureBlob(SIGNATURE_ALGORITHM, signature)

    def verify(self, public_key: Ed25519PublicKey, message: bytes, sig: SignatureBlob) -> bool:
        self.counters["verify"] += 1
        if not isinstance(sig, SignatureBlob) or sig.algorithm != SIGNATURE_ALGORITHM:
            return False
        try:
            return _ed25519_verify(public_key.public_bytes_raw(), bytes(message), bytes(sig.data))
        except Exception:
            return False

    # -- certificates ---------------------------------------------------------

    def cert_issue(
        self,
        authority_key: Ed25519PrivateKey,
        subject_id: bytes,
        signing_key: Ed25519PublicKey,
        sealing_key: X25519PublicKey,
    ) -> Certificate:
        signing, sealing = signing_key.public_bytes_raw(), sealing_key.public_bytes_raw()
        cert = Certificate(subject_id, signing, sealing)
        return replace(cert, signature=self.sign(authority_key, cert.signed_bytes()))

    def cert_verify(self, authority_public_key: Ed25519PublicKey, cert: Certificate) -> bool:
        try:
            payload = cert.signed_bytes()
        except Exception:
            return False
        return self.verify(authority_public_key, payload, cert.signature)
