"""ECG record ingestion and synthetic fixture generation.

Records are one integer sample per line (optional '#' header lines),
each of magnitude below 2**51, resampled to 2 seconds at 256 Hz (SAMPLE_RATE).
Because the real arrhythmia corpus cannot be bundled, a generator
produces ECG-like fixtures: a few
dominant cosine atoms plus a decaying coefficient tail, so compression
degrades them gradually the way it degrades natural signals.

synth_ecg_like memoizes the last _SYNTH_MEMO_SIZE (16) records by their
exact arguments, the seed as bytes, so worlds rebuilt from one seed share
one synthesis; 16 covers a few worlds' records, 4 KiB each at N = 512.  A
refused argument raises on every call and is never stored, and a shared
record's samples are read-only.
"""

from __future__ import annotations

import functools
import hashlib
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .codec import BoundedSignal, shift_bound
from .recovery import build_basis, cached_operator, seed_int

__all__ = [
    "EcgRecord",
    "load_ecg_csv",
    "synth_ecg_like",
    "to_bounded_signal",
    "raw_signal_bytes",
    "write_fixture",
    "generate_fixture_files",
    "TARGET_SAMPLES",
    "SAMPLE_RATE",
    "WINDOW",
]

TARGET_SAMPLES = 512  # 2 seconds at 256 Hz
SAMPLE_RATE = 256
WINDOW = (590, 1487)  # the open signal window (L1, L2) of the operating point
# float64 holds integers exactly up to 2**53, and the shifting add forms
# sample - L1 + shift, up to three times the largest sample magnitude
_SAMPLE_LIMIT = 2**51
_SYNTH_MEMO_SIZE = 16


@dataclass(frozen=True)
class EcgRecord:
    samples: np.ndarray  # integer-valued
    source_id: str
    L1: int
    L2: int
    provenance: str = "file"

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.int64)
        object.__setattr__(self, "samples", samples)
        if samples.size == 0:
            raise ValueError("empty record")
        if not (samples.min() > self.L1 and samples.max() < self.L2):
            raise ValueError(
                f"samples must lie strictly inside ({self.L1}, {self.L2})"
            )

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def value_range(self) -> int:
        return self.L2 - self.L1

    @property
    def shift_bound(self) -> int:
        return shift_bound(self.value_range)


def _resample_linear(samples: np.ndarray, target: int) -> np.ndarray:
    if samples.size == target:
        return samples.astype(np.float64)
    src = np.linspace(0.0, 1.0, samples.size)
    dst = np.linspace(0.0, 1.0, target)
    return np.interp(dst, src, samples.astype(np.float64))


def load_ecg_csv(path, bounds: Optional[tuple[int, int]] = None) -> EcgRecord:
    """Read one-integer-per-line samples and resample to TARGET_SAMPLES.

    Bounds default to (min - 1, max + 1) of the resampled record; every
    sample must lie strictly inside an override.
    """
    path = Path(path)
    raw = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric sample {text!r}") from None
        if abs(value) >= _SAMPLE_LIMIT:
            raise ValueError(f"{path}:{lineno}: sample {value} is not below 2**51 in magnitude")
        raw.append(value)
    if not raw:
        raise ValueError(f"{path}: no samples")
    resampled = np.rint(_resample_linear(np.asarray(raw), TARGET_SAMPLES)).astype(np.int64)
    if resampled.min() == resampled.max():
        warnings.warn(
            f"{path.name}: constant signal is not sparse-compressible",
            stacklevel=2,
        )
    if bounds is None:
        bounds = (int(resampled.min()) - 1, int(resampled.max()) + 1)
    try:
        return EcgRecord(
            samples=resampled,
            source_id=path.stem,
            L1=int(bounds[0]),
            L2=int(bounds[1]),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def synth_ecg_like(seed: bytes, n: int = TARGET_SAMPLES, s: int = 12) -> EcgRecord:
    """Generate an integer ECG-like record: s dominant low-frequency atoms
    plus a 1/k coefficient tail at 6 % relative energy, scaled to keep a
    6 % margin inside WINDOW.  The atoms come from the lowest indices,
    1 up to n // 3 (at least 1 and 2, always below n); s is capped at
    their number.  The record is shared, so its samples are read-only."""
    return _synth(bytes(seed), n, s)


@functools.lru_cache(maxsize=_SYNTH_MEMO_SIZE)
def _synth(seed: bytes, n: int, s: int) -> EcgRecord:
    basis = cached_operator(build_basis, n)
    rng = np.random.default_rng(seed_int(seed, b"ecg"))
    pool = np.arange(1, min(n, max(3, n // 3)))
    s = min(s, pool.size)
    atoms = rng.choice(pool, size=s, replace=False)
    coeffs = np.zeros(n)
    coeffs[atoms] = rng.normal(0.0, 1.0, size=s) + np.sign(rng.normal(size=s)) * 0.6

    k = np.arange(1, n)
    tail = rng.normal(0.0, 1.0, size=n - 1) * (1.0 / k)
    tail *= 0.06 * np.linalg.norm(coeffs) / np.linalg.norm(tail)
    coeffs[1:] += tail

    raw = basis.synthesize(coeffs)
    L1, L2 = WINDOW
    span = L2 - L1
    lo, hi = L1 + 0.06 * span, L2 - 0.06 * span
    scale = (hi - lo) / (raw.max() - raw.min())
    values = scale * raw + (lo - scale * raw.min())
    record = EcgRecord(
        samples=np.rint(values).astype(np.int64),
        source_id="synth-" + hashlib.sha256(seed).hexdigest()[:10],
        L1=L1,
        L2=L2,
        provenance="synthetic",
    )
    record.samples.flags.writeable = False
    return record


def to_bounded_signal(record: EcgRecord) -> BoundedSignal:
    return BoundedSignal(
        values=record.samples.astype(np.float64), L1=record.L1, L2=record.L2
    )


def raw_signal_bytes(record: EcgRecord) -> bytes:
    """The uncompressed wire baseline: signed 16-bit big-endian samples."""
    if record.samples.min() < -(2**15) or record.samples.max() >= 2**15:
        raise ValueError("samples do not fit in 16 bits")
    return struct.pack(f">{record.n}h", *record.samples.tolist())


def write_fixture(record: EcgRecord, path):
    path = Path(path)
    lines = [f"# id={record.source_id} rate={SAMPLE_RATE}"]
    lines += [str(v) for v in record.samples.tolist()]
    path.write_text("\n".join(lines) + "\n")


def generate_fixture_files(directory, count: int = 4, seed: bytes = b"fixtures"):
    """Write a small corpus of synthetic records; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        record = synth_ecg_like(bytes(seed) + i.to_bytes(2, "big"), s=10 + i)
        path = directory / f"{record.source_id}.csv"
        write_fixture(record, path)
        paths.append(path)
    return paths
