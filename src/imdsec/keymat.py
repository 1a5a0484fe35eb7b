"""Pinned demo key material.

Simulated runs must replay byte-for-byte from their seeds, so the
harness ships fixed 32-byte private keys: the certificate authority's
Ed25519 key, and the doctor's Ed25519 signing key and X25519 sealing
key, which the authority's certificate binds to the doctor's id.  These
are test fixtures for the desk-scale simulator only; never reuse them
outside it.
"""

import functools

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from .crypto import Certificate, CryptoSuite

__all__ = [
    "authority_private_key",
    "doctor_certificate",
    "doctor_sealing_key",
    "doctor_signing_key",
]

_AUTHORITY_SEED = bytes.fromhex(
    "5880529c4c6707c87ba29aa80dfee3bd19cd2d1ff7a1e7f5829b97b0bf3a6873"
)
_DOCTOR_SIGNING_SEED = bytes.fromhex(
    "43077ab494051c9155d16181e75abbccbd87762e72c7a61d98d6120f61174ca0"
)
_DOCTOR_SEALING_SEED = bytes.fromhex(
    "b383af5a9c49b917971e944c66c91934479fd714cac5540fa392d4b71f2c9f19"
)


@functools.lru_cache(maxsize=1)
def authority_private_key() -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(_AUTHORITY_SEED)


@functools.lru_cache(maxsize=1)
def doctor_signing_key() -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(_DOCTOR_SIGNING_SEED)


@functools.lru_cache(maxsize=1)
def doctor_sealing_key() -> X25519PrivateKey:
    return X25519PrivateKey.from_private_bytes(_DOCTOR_SEALING_SEED)


@functools.lru_cache(maxsize=1)
def doctor_certificate(doctor_id: bytes) -> Certificate:
    """The authority's certificate on the demo doctor's two keys.

    Ed25519 signing is deterministic, so one issue per process gives
    every world the same bytes a fresh issue would.
    """
    return CryptoSuite().cert_issue(
        authority_private_key(),
        doctor_id,
        doctor_signing_key().public_key(),
        doctor_sealing_key().public_key(),
    )
