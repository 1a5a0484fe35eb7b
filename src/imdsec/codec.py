"""Joint compression/encryption codec for bounded telemetry signals.

The sender masks each sample with a secret integer shift, wrapping
cyclically inside the signal's value window [L1, L2) and remembering a
one-bit wrap indicator per sample.  The masked vector is then compressed
by a wide random projection.  A receiver that knows the shift key can
subtract the projected shift (using the wrap bits) and recover the exact
compressed measurements of the original signal.  Everyone else sees the
measurements and, in the clear, the wrap bits: over 400 keys one default
ECG frame carries 57-100 wraps and a flat line 0-9, so one frame tells
the two apart.

A shift key, a carry vector and a ciphertext each hold one frame or a
(K, ...) stack of K frames, one row per key; k, m, n and len read the
last axis.  cs_enc, quantize and cs_deshift take either, so a sweep cell
runs the codec once over the stack of its shift keys, each check made
once for the stack, and cs_deshift broadcasts one ciphertext over a key
stack.  np.matvec gives every row of a stack the bits that phi @ row
gives it alone; a matrix product over the stack would not.  A wire form
holds one frame: CsCiphertext.row takes one out of a stack.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "CodecError",
    "BoundedSignal",
    "ShiftKey",
    "CarryVector",
    "CsCiphertext",
    "shift_bound",
    "wrap_add",
    "cs_gen",
    "cs_enc",
    "quantize",
    "cs_deshift",
    "serialize_ciphertext",
    "deserialize_ciphertext",
    "serialize_shift_key",
    "deserialize_shift_key",
]


class CodecError(ValueError):
    """Raised on invalid codec inputs (bounds, lengths, malformed bytes)."""


@dataclass(frozen=True)
class BoundedSignal:
    """A real-valued signal whose samples lie strictly inside (L1, L2).

    L1 and L2 are integers; the window width L2 - L1 is the wrap modulus
    used by the shifting arithmetic.
    """

    values: np.ndarray
    L1: int
    L2: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise CodecError("signal must be a non-empty 1-D vector")
        if not (isinstance(self.L1, int) and isinstance(self.L2, int)):
            raise CodecError("bounds must be integers")
        if self.L1 >= self.L2:
            raise CodecError(f"need L1 < L2, got ({self.L1}, {self.L2})")
        if not np.all((values > self.L1) & (values < self.L2)):
            raise CodecError("signal values must lie strictly inside (L1, L2)")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def value_range(self) -> int:
        return self.L2 - self.L1


@dataclass(frozen=True)
class ShiftKey:
    """Per-sample integer shifts, bounded by ceil(value_range / 2) in
    magnitude: one key, or a (K, N) stack of keys."""

    entries: np.ndarray
    value_range: int

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.int64)
        object.__setattr__(self, "entries", entries)
        if entries.ndim not in (1, 2) or entries.size == 0:
            raise CodecError("shift key must be a non-empty integer vector or stack")
        if self.value_range <= 0:
            raise CodecError("value_range must be positive")
        bound = shift_bound(self.value_range)
        if np.any(np.abs(entries) > bound):
            raise CodecError(f"shift entries exceed bound {bound}")

    @property
    def k(self) -> int:
        return self.entries.shape[-1]


@dataclass(frozen=True)
class CarryVector:
    """One wrap-indicator bit per sample (1 = the shift wrapped), for one
    frame or a (K, N) stack."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        object.__setattr__(self, "bits", bits)
        if bits.ndim not in (1, 2):
            raise CodecError("carry vector must be 1-D or a stack")
        if not np.all((bits == 0) | (bits == 1)):
            raise CodecError("carry bits must be 0 or 1")

    def __len__(self) -> int:
        return self.bits.shape[-1]

    def packed(self) -> bytes:
        """Pack bits into bytes, most significant bit first."""
        return np.packbits(self.bits).tobytes()

    @classmethod
    def unpack(cls, data: bytes, n: int) -> "CarryVector":
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n)
        return cls(bits=bits)


@dataclass(frozen=True)
class CsCiphertext:
    """Compressed-and-masked measurements plus the carry bits.

    quant_step is None for raw float measurements; otherwise every
    measurement is an integer multiple of quant_step.  One frame, or a
    (K, M) stack of measurements with a (K, N) stack of carries.
    """

    measurements: np.ndarray
    carries: CarryVector
    quant_step: Optional[int] = None

    def __post_init__(self):
        m = np.asarray(self.measurements, dtype=np.float64)
        object.__setattr__(self, "measurements", m)
        if m.ndim not in (1, 2) or m.size == 0:
            raise CodecError("measurements must be a non-empty vector or stack")
        if m.shape[:-1] != self.carries.bits.shape[:-1]:
            raise CodecError("measurement and carry stacks differ in rows")
        if m.shape[-1] >= len(self.carries):
            raise CodecError("measurement count must be smaller than sample count")
        if self.quant_step is not None:
            if self.quant_step <= 0:
                raise CodecError("quantization step must be positive")
            mult = m / self.quant_step
            if not np.allclose(mult, np.round(mult)):
                raise CodecError("quantized measurements must be step multiples")

    @property
    def m(self) -> int:
        return self.measurements.shape[-1]

    @property
    def n(self) -> int:
        return len(self.carries)

    @property
    def quantized(self) -> bool:
        return self.quant_step is not None

    def row(self, i: int) -> "CsCiphertext":
        """Frame i of a stack, as the implant would send it."""
        return CsCiphertext(
            measurements=self.measurements[i],
            carries=CarryVector(bits=self.carries.bits[i]),
            quant_step=self.quant_step,
        )

    def widest(self) -> "CsCiphertext":
        """The frame of a stack whose wire form is longest: a frame's
        length is fixed by N, M and its bit width, and raw frames are all
        alike."""
        if not self.quantized:
            return self.row(0)
        mult = _step_multiples(self.measurements, self.quant_step)
        return self.row(int(np.argmax(_width_magnitude(mult))))


def shift_bound(value_range: int) -> int:
    """The largest shift magnitude for a window of this width."""
    return math.ceil(value_range / 2)


def wrap_add(values: np.ndarray, shifts: np.ndarray, L1: int, L2: int):
    """Vectorized wrap-add and its carry bits, without the input-bound
    check (the zero-vector reference distribution needs out-of-window
    inputs); cs_enc checks.  shifts may be a (K, N) stack of rows; values
    broadcast over it."""
    rng = L2 - L1
    total = np.asarray(values, dtype=np.float64) + np.asarray(shifts, dtype=np.float64)
    u = (total - L1) % rng + L1
    u = np.where(u >= L2, u - rng, u)
    carries = ((total < L1) | (total >= L2)).astype(np.uint8)
    return u, carries


def cs_gen(seed: bytes, k: int, L1: int, L2: int) -> ShiftKey:
    """Generate k shift entries uniform on [-ceil(range/2), ceil(range/2)].

    Draws come from a seeded PRF stream, SHA-256 over seed || an 8-byte
    block counter, with rejection sampling, so the output is exactly
    uniform on the closed integer interval and fully determined by the
    seed.
    """
    if k <= 0:
        raise CodecError("key length must be positive")
    if L1 >= L2:
        raise CodecError(f"need L1 < L2, got ({L1}, {L2})")
    rng = L2 - L1
    bound = shift_bound(rng)
    span = 2 * bound + 1
    limit = (2**64 // span) * span
    seed = bytes(seed)
    entries = np.empty(k, dtype=np.int64)
    filled = counter = 0
    while filled < k:
        need = k - filled
        # each 32-byte block yields four u64 candidates
        blocks = range(counter, counter + max(1, (need + 3) // 4))
        counter = blocks.stop
        raw = b"".join(hashlib.sha256(seed + i.to_bytes(8, "big")).digest() for i in blocks)
        candidates = np.frombuffer(raw, dtype=">u8").astype(np.uint64)
        accepted = candidates[candidates < limit]
        take = accepted[:need]
        entries[filled : filled + take.size] = (
            take % np.uint64(span)
        ).astype(np.int64) - bound
        filled += take.size
    return ShiftKey(entries=entries, value_range=rng)


def cs_enc(key: ShiftKey, x: BoundedSignal, phi) -> CsCiphertext:
    """Mask the signal with the shift key, then project with phi; under a
    key stack, one ciphertext row per key.

    phi is a SensingMatrix (see recovery module); its column count must
    equal both the signal length and the key length, and the key must be
    drawn for the signal's window width.
    """
    if key.k != x.n:
        raise CodecError(f"key length {key.k} != signal length {x.n}")
    if key.value_range != x.value_range:
        raise CodecError(f"key window width {key.value_range} != signal's {x.value_range}")
    if phi.n != x.n:
        raise CodecError(f"matrix columns {phi.n} != signal length {x.n}")
    # values changed in place after construction must still be in the window
    if not np.all((x.values > x.L1) & (x.values < x.L2)):
        raise CodecError("input values must lie strictly inside (L1, L2)")
    masked, carries = wrap_add(x.values, key.entries, x.L1, x.L2)
    return CsCiphertext(
        measurements=np.matvec(phi.entries, masked), carries=CarryVector(bits=carries)
    )


def quantize(c: CsCiphertext, qs: int) -> CsCiphertext:
    """Snap each measurement to the nearest multiple of qs.

    Ties round away from zero so results are bit-reproducible.
    """
    if c.quantized:
        raise CodecError("ciphertext is already quantized")
    if not isinstance(qs, int) or qs <= 0:
        raise CodecError("quantization step must be a positive integer")
    y = c.measurements
    mult = np.sign(y) * np.floor(np.abs(y) / qs + 0.5)
    return CsCiphertext(measurements=mult * qs, carries=c.carries, quant_step=qs)


def cs_deshift(key: ShiftKey, c: CsCiphertext, phi, L1: int, L2: int) -> np.ndarray:
    """Remove the projected shift: y' + phi @ (range * (carries .* sign) - key),
    row for row; one ciphertext is de-shifted under every key of a stack.

    The key must be drawn for the window's width L2 - L1.  For an
    unquantized ciphertext this reproduces phi @ x exactly up to float
    round-off.
    """
    if key.k != c.n:
        raise CodecError(f"key length {key.k} != sample count {c.n}")
    if phi.n != c.n or phi.m != c.m:
        raise CodecError(
            f"matrix shape ({phi.m}, {phi.n}) does not match ciphertext ({c.m}, {c.n})"
        )
    if key.entries.ndim == c.measurements.ndim == 2 and len(key.entries) != len(c.measurements):
        raise CodecError(f"{len(key.entries)} keys for {len(c.measurements)} ciphertext rows")
    if key.value_range != L2 - L1:  # also refuses L1 >= L2
        raise CodecError(f"key window width {key.value_range} != L2 - L1 = {L2 - L1}")
    shifts = key.entries
    correction = (L2 - L1) * (c.carries.bits * np.sign(shifts)) - shifts
    return c.measurements + np.matvec(phi.entries, correction)


# --- wire form ---------------------------------------------------------
#
# header: N u32 | M u32 | qs u32 (0 = unquantized)
# unquantized: M float64 big-endian measurements
# quantized:   1 byte bit width b, then M signed b-bit step multiples,
#              two's complement, packed MSB-first and padded to a byte
# then ceil(N/8) bytes of carry bits, MSB-first.
#
# The packer picks the minimal width b, so the payload stays well below
# the raw signal size.  The decoder accepts any b from 1 to 32 and ignores
# the padding bits, so two byte strings can decode to one ciphertext; the
# telemetry frame's k_r MAC covers the bytes as sent.

_HEADER = struct.Struct(">III")


def _step_multiples(measurements: np.ndarray, qs: int) -> np.ndarray:
    return np.round(measurements / qs).astype(np.int64)


def _width_magnitude(mult: np.ndarray):
    # a signed v needs bit_length(max(v, ~v)) + 1 bits, as ~v == -v - 1;
    # bit_length is monotone, so a row's largest such magnitude sets its
    # width (one value per row of a stack)
    return np.maximum(mult, ~mult).max(axis=-1)


def serialize_ciphertext(c: CsCiphertext) -> bytes:
    if c.measurements.ndim != 1:
        raise CodecError("a wire frame holds one ciphertext, not a stack")
    out = [_HEADER.pack(c.n, c.m, c.quant_step or 0)]
    if c.quantized:
        mult = _step_multiples(c.measurements, c.quant_step)
        width = int(_width_magnitude(mult)).bit_length() + 1
        if width > 32:
            raise CodecError("quantized multiples exceed 32-bit range")
        out.append(struct.pack(">B", width))
        # arithmetic shifts read the two's complement bits, MSB first
        bits = (mult[:, None] >> np.arange(width - 1, -1, -1)) & 1
        out.append(np.packbits(bits.astype(np.uint8)).tobytes())
    else:
        out.append(np.asarray(c.measurements, dtype=">f8").tobytes())
    out.append(c.carries.packed())
    return b"".join(out)


def deserialize_ciphertext(buf: bytes) -> CsCiphertext:
    if len(buf) < _HEADER.size:
        raise CodecError("ciphertext buffer too short")
    n, m, qs = _HEADER.unpack_from(buf, 0)
    pos = _HEADER.size
    if n == 0 or m == 0 or m >= n:
        raise CodecError(f"bad ciphertext dimensions N={n} M={m}")
    if qs == 0:
        end = pos + 8 * m
        if len(buf) < end:
            raise CodecError("truncated measurement block")
        measurements = np.frombuffer(buf[pos:end], dtype=">f8").astype(np.float64)
        if not np.all(np.isfinite(measurements)):
            raise CodecError("non-finite measurement")
        pos = end
        quant_step = None
    else:
        if len(buf) < pos + 1:
            raise CodecError("missing bit-width byte")
        width = buf[pos]
        pos += 1
        if not 1 <= width <= 32:
            raise CodecError(f"bad multiple width {width}")
        end = pos + (m * width + 7) // 8
        if len(buf) < end:
            raise CodecError("truncated measurement block")
        block = np.frombuffer(buf[pos:end], dtype=np.uint8)
        bits = np.unpackbits(block, count=m * width).reshape(m, width)
        uv = bits @ (1 << np.arange(width - 1, -1, -1, dtype=np.int64))
        mult = uv - ((uv >> (width - 1)) << width)  # two's-complement sign fold
        measurements = mult.astype(np.float64) * qs
        pos = end
        quant_step = qs
    carry_bytes = (n + 7) // 8
    end = pos + carry_bytes
    if len(buf) != end:
        raise CodecError("ciphertext length mismatch")
    carries = CarryVector.unpack(buf[pos:end], n)
    return CsCiphertext(
        measurements=measurements, carries=carries, quant_step=quant_step
    )


_KEY_HEADER = struct.Struct(">II")


def serialize_shift_key(key: ShiftKey) -> bytes:
    if key.entries.ndim != 1:
        raise CodecError("a wire form holds one shift key, not a stack")
    return _KEY_HEADER.pack(key.k, key.value_range) + np.asarray(
        key.entries, dtype=">i4"
    ).tobytes()


def deserialize_shift_key(buf: bytes) -> ShiftKey:
    if len(buf) < _KEY_HEADER.size:
        raise CodecError("shift key buffer too short")
    k, rng = _KEY_HEADER.unpack_from(buf, 0)
    if k == 0 or rng == 0:
        raise CodecError("bad shift key header")
    end = _KEY_HEADER.size + 4 * k
    if len(buf) != end:
        raise CodecError("shift key length mismatch")
    entries = np.frombuffer(buf[_KEY_HEADER.size : end], dtype=">i4").astype(np.int64)
    return ShiftKey(entries=entries, value_range=rng)
