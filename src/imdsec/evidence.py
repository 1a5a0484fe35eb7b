"""Forensic evidence ledger for write commands.

Each applied command leaves one signed tuple on the patient's phone:
who wrote (doctor id), through what (smartphone id), to what device
(implant id), with which session key material, based on which telemetry
ciphertext, the command itself, when, and the doctor's signature over
all of it.  EvidenceRecord.signed_bytes() is the one spelling of that
tuple, and CryptoSuite.verify_signed its one check.  The ledger file is
append-only; each entry is those bytes followed by the signature.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .crypto import (
    CryptoError,
    CryptoSuite,
    SignatureBlob,
    length_prefixed,
    split_length_prefixed,
)
from .wire import WireError, ts_from_bytes, u64_bytes

__all__ = ["EvidenceRecord", "EvidenceLedger", "evidence_verify"]


@dataclass(frozen=True)
class EvidenceRecord:
    doctor_id: bytes
    smartphone_id: bytes
    implant_id: bytes
    ciphertext: bytes  # the telemetry ciphertext the command was based on
    shift_key: bytes  # serialized form of the session shift key
    command: bytes
    timestamp: int
    signature: Optional[SignatureBlob] = None  # None until the doctor signs

    def signed_bytes(self) -> bytes:
        """The byte string the doctor signs: every field but the
        signature, in field order (the ciphertext before the shift key)."""
        return length_prefixed(
            self.doctor_id,
            self.smartphone_id,
            self.implant_id,
            self.ciphertext,
            self.shift_key,
            self.command,
            u64_bytes(self.timestamp),
        )

    def to_bytes(self) -> bytes:
        """The signed byte string followed by the signature."""
        return self.signed_bytes() + self.signature.to_bytes()

    @classmethod
    def from_bytes(cls, buf: bytes) -> "EvidenceRecord":
        parts = split_length_prefixed(buf, 9)
        timestamp, signature = ts_from_bytes(parts[6]), SignatureBlob.from_parts(*parts[7:])
        return cls(*parts[:6], timestamp, signature)


def evidence_verify(record: EvidenceRecord, public_key: bytes) -> bool:
    """Whether the doctor's signature verifies over the record's signed
    bytes under the raw public key; total, like CryptoSuite.verify_signed."""
    return CryptoSuite().verify_signed(public_key, record)


class EvidenceLedger:
    """Append-only store of evidence records.

    With a path, records are appended to a file of length-prefixed
    entries as they arrive; without one the ledger is memory-only.
    """

    def __init__(self, path: Optional[str] = None):
        self._path = path
        self._records: list[EvidenceRecord] = []
        if path and os.path.exists(path):
            self._records = self._read_file(path)

    @staticmethod
    def _read_file(path: str):
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            blobs = split_length_prefixed(data)
        except CryptoError:
            raise ValueError("truncated ledger file") from None
        try:
            return [EvidenceRecord.from_bytes(blob) for blob in blobs]
        except (CryptoError, WireError, UnicodeDecodeError):
            raise ValueError("corrupt ledger record") from None

    def append(self, record: EvidenceRecord):
        self._records.append(record)
        if self._path:
            with open(self._path, "ab") as fh:
                fh.write(length_prefixed(record.to_bytes()))

    @property
    def records(self) -> tuple[EvidenceRecord, ...]:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)
