"""ECG record ingestion and synthetic fixture generation.

Records are one integer sample per line (optional '#' header lines) and
are resampled to 2 seconds at 256 Hz.  Because the real arrhythmia
corpus cannot be bundled, a generator produces ECG-like fixtures: a few
dominant cosine atoms plus a decaying coefficient tail, so compression
degrades them gradually the way it degrades natural signals.
"""

from __future__ import annotations

import hashlib
import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .codec import BoundedSignal
from .recovery import build_basis, cached_operator

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
]

TARGET_SAMPLES = 512  # 2 seconds at 256 Hz
SAMPLE_RATE = 256


@dataclass(frozen=True)
class EcgRecord:
    samples: np.ndarray  # integer-valued
    source_id: str
    sample_rate: int
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
        return math.ceil(self.value_range / 2)


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
            raw.append(int(text))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric sample {text!r}") from None
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
            sample_rate=SAMPLE_RATE,
            L1=int(bounds[0]),
            L2=int(bounds[1]),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def synth_ecg_like(
    seed: bytes,
    n: int = TARGET_SAMPLES,
    s: int = 12,
    L1: int = 590,
    L2: int = 1487,
) -> EcgRecord:
    """Generate an integer ECG-like record: s dominant low-frequency atoms
    plus a 1/k coefficient tail at 6 % relative energy, scaled to keep a
    6 % margin inside (L1, L2)."""
    basis = cached_operator(build_basis, n)
    rng = np.random.default_rng(
        int.from_bytes(hashlib.sha256(b"ecg/" + bytes(seed)).digest(), "big")
    )
    atoms = rng.choice(np.arange(1, max(3, n // 3)), size=s, replace=False)
    coeffs = np.zeros(n)
    coeffs[atoms] = rng.normal(0.0, 1.0, size=s) + np.sign(rng.normal(size=s)) * 0.6

    k = np.arange(1, n)
    tail = rng.normal(0.0, 1.0, size=n - 1) * (1.0 / k)
    tail *= 0.06 * np.linalg.norm(coeffs) / np.linalg.norm(tail)
    coeffs[1:] += tail

    raw = basis.synthesize(coeffs)
    span = L2 - L1
    lo, hi = L1 + 0.06 * span, L2 - 0.06 * span
    scale = (hi - lo) / (raw.max() - raw.min())
    values = scale * raw + (lo - scale * raw.min())
    samples = np.rint(values).astype(np.int64)
    return EcgRecord(
        samples=samples,
        source_id="synth-" + hashlib.sha256(bytes(seed)).hexdigest()[:10],
        sample_rate=SAMPLE_RATE,
        L1=L1,
        L2=L2,
        provenance="synthetic",
    )


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
    lines = [f"# id={record.source_id} rate={record.sample_rate}"]
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
