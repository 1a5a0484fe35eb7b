"""Canonical message framing for the access-control protocols.

Frame layout: heading (1 byte), session number (8 bytes big-endian),
field count (1 byte), then the fields in crypto.length_prefixed form:
each a 4-byte big-endian length followed by its bytes.  MAC inputs
reuse the same encoding over exactly the components each protocol step
authenticates, in step order.

decode_message memoizes the last _DECODE_MEMO_SIZE (32) frames by their
exact bytes, so a frame delivered again, or read by an attacker and its
receiver alike, is parsed once.  32 holds the 17 distinct frames of a
default full session (18 sent; its two WRITE_READY frames are equal),
with room for a fuzz campaign's flipped copies.  Any bytes-like frame is
keyed as bytes; a WireError is raised on every call and never stored;
the shared WireMessage is frozen and holds only bytes.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence

from .crypto import CryptoError, length_prefixed, split_length_prefixed

__all__ = [
    "WireError",
    "Heading",
    "WireMessage",
    "encode_message",
    "decode_message",
    "auth_bytes",
    "u64_bytes",
    "freshness_check",
    "FRESHNESS_WINDOW",
]

FRESHNESS_WINDOW = 30  # simulated seconds
_DECODE_MEMO_SIZE = 32


class WireError(ValueError):
    pass


class Heading(IntEnum):
    PAIR_REQ = 1
    PAIR_SUCC = 2
    AUTH_REQ = 3
    OPTIONAL = 4
    READ_AUTH_REQ = 5
    READ_ALLOW = 6
    READ_READY = 7
    READ_REQ = 8
    WRITE_AUTH_REQ = 9
    WRITE_ALLOW = 10
    WRITE_READY = 11
    WRITE_REQ = 12
    SET_ALLOW = 13
    WRITE_SUCC = 14


@dataclass(frozen=True)
class WireMessage:
    heading: Heading
    session: int
    fields: tuple[bytes, ...] = ()

    def __post_init__(self):
        if not 0 <= self.session < 2**64:
            raise WireError("session number must fit in 64 bits")
        if len(self.fields) > 255:
            raise WireError("too many fields")
        object.__setattr__(self, "fields", tuple(bytes(f) for f in self.fields))


_PREFIX = struct.Struct(">BQB")


def encode_message(msg: WireMessage) -> bytes:
    prefix = _PREFIX.pack(int(msg.heading), msg.session, len(msg.fields))
    return prefix + length_prefixed(*msg.fields)


def decode_message(buf: bytes) -> WireMessage:
    return _decode(bytes(buf))


@functools.lru_cache(maxsize=_DECODE_MEMO_SIZE)
def _decode(buf: bytes) -> WireMessage:
    if len(buf) < _PREFIX.size:
        raise WireError("frame too short")
    heading, session, count = _PREFIX.unpack_from(buf, 0)
    try:
        heading = Heading(heading)
    except ValueError:
        raise WireError(f"unknown heading {heading}") from None
    try:
        fields = split_length_prefixed(buf[_PREFIX.size :], count)
    except CryptoError as exc:
        raise WireError(f"malformed frame: {exc}") from None
    return WireMessage(heading=heading, session=session, fields=tuple(fields))


def auth_bytes(heading: Optional[Heading], session: int, fields: Sequence[bytes]) -> bytes:
    """Bytes a MAC covers: optional heading byte, 8-byte session, then
    length-prefixed fields in step order."""
    out = bytearray()
    if heading is not None:
        out += struct.pack(">B", int(heading))
    out += u64_bytes(session)
    out += length_prefixed(*fields)
    return bytes(out)


def u64_bytes(value: int) -> bytes:
    """An 8-byte big-endian integer: a session number or a timestamp."""
    return struct.pack(">Q", int(value))


def ts_from_bytes(data: bytes) -> int:
    if len(data) != 8:
        raise WireError("timestamp must be 8 bytes")
    return struct.unpack(">Q", data)[0]


def freshness_check(ts: int, now: int) -> bool:
    """Accept timestamps within the closed window |now - ts| <= FRESHNESS_WINDOW."""
    return abs(int(now) - int(ts)) <= FRESHNESS_WINDOW
