"""Sensing matrices, sparsity bases, greedy reconstruction and PRD scoring.

Signals are modeled as x = Psi @ b with few significant entries in b.
Measurements y = Phi @ x are inverted by orthogonal matching pursuit on
the combined dictionary Theta = Phi @ Psi.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

__all__ = [
    "RecoveryError",
    "SensingMatrix",
    "SparsityBasis",
    "RecoveryParams",
    "QualityClass",
    "SyntheticSignal",
    "gen_sensing_matrix",
    "build_basis",
    "cached_operator",
    "omp_reconstruct",
    "prd",
    "classify_prd",
    "synth_sparse_signal",
    "cr_to_measurements",
]

from .codec import BoundedSignal


class RecoveryError(ValueError):
    """Raised on invalid reconstruction inputs or a singular solve."""


@dataclass(frozen=True)
class SensingMatrix:
    """M x N Gaussian projection with entries ~ N(0, 1/N), seeded."""

    entries: np.ndarray
    seed: bytes

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    @property
    def compression_rate(self) -> float:
        """CR = 100 (N - M) / N."""
        return 100.0 * (self.n - self.m) / self.n


@dataclass(frozen=True)
class SparsityBasis:
    """Real orthonormal N x N basis; columns are the atoms."""

    columns: np.ndarray

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    def analyze(self, x: np.ndarray) -> np.ndarray:
        return self.columns.T @ x

    def synthesize(self, b: np.ndarray) -> np.ndarray:
        return self.columns @ b


@dataclass(frozen=True)
class RecoveryParams:
    """Stopping rules for the greedy solver.

    Defaults resolve to max_atoms = M // 4 and residual_tol scaled to
    1e-6 * ||y||^2-norm at solve time.
    """

    max_atoms: Optional[int] = None
    residual_tol: Optional[float] = None

    def resolve(self, m: int, y_norm: float) -> tuple[int, float]:
        atoms = self.max_atoms if self.max_atoms is not None else max(1, m // 4)
        if atoms > m:
            raise RecoveryError(f"max_atoms {atoms} exceeds measurement count {m}")
        tol = self.residual_tol if self.residual_tol is not None else 1e-6 * y_norm
        if tol < 0:
            raise RecoveryError("residual tolerance must be non-negative")
        return atoms, tol


def _seed_int(seed: bytes, label: bytes) -> int:
    return int.from_bytes(hashlib.sha256(label + b"/" + bytes(seed)).digest(), "big")


def gen_sensing_matrix(seed: bytes, m: int, n: int) -> SensingMatrix:
    """Draw an M x N i.i.d. Gaussian matrix with variance 1/N, deterministically."""
    if not 0 < m < n:
        raise RecoveryError(f"need 0 < M < N, got M={m} N={n}")
    rng = np.random.default_rng(_seed_int(seed, b"sensing"))
    entries = rng.normal(0.0, 1.0 / np.sqrt(n), size=(m, n))
    return SensingMatrix(entries=entries, seed=bytes(seed))


def cr_to_measurements(n: int, cr: float) -> int:
    """Measurement count for a nominal compression rate."""
    m = int(round(n * (100.0 - cr) / 100.0))
    if not 0 < m < n:
        raise RecoveryError(f"compression rate {cr} leaves no valid M for N={n}")
    return m


def build_basis(n: int) -> SparsityBasis:
    """The orthonormal cosine transform of size N; columns are the atoms."""
    if n < 2:
        raise RecoveryError("basis size must be at least 2")
    j = np.arange(n)
    grid = np.pi * (2.0 * j[:, None] + 1.0) * j[None, :] / (2.0 * n)
    columns = np.cos(grid) * np.sqrt(2.0 / n)
    columns[:, 0] = np.sqrt(1.0 / n)
    return SparsityBasis(columns=columns)


@functools.lru_cache(maxsize=None)
def cached_operator(build, *args):
    """Build an operator once per argument tuple and share it:
    cached_operator(gen_sensing_matrix, seed, m, n) for Phi,
    cached_operator(build_basis, n) for Psi.  Callers must not
    mutate the result."""
    return build(*args)


def omp_reconstruct(
    y: np.ndarray,
    phi: SensingMatrix,
    psi: SparsityBasis,
    params: Optional[RecoveryParams] = None,
    return_info: bool = False,
):
    """Greedy sparse inversion of y = Phi Psi b.

    Each iteration picks the dictionary column best correlated with the
    residual (after column-norm scaling), re-solves least squares on the
    active set, and stops at max_atoms or once the residual norm falls
    to residual_tol.  Returns (b_hat, x_hat); with return_info=True a
    dict with the residual-norm history is appended.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size != phi.m:
        raise RecoveryError(f"measurement vector must have length {phi.m}")
    if not np.all(np.isfinite(y)):
        raise RecoveryError("non-finite measurements")
    if phi.n != psi.n:
        raise RecoveryError("sensing matrix and basis sizes differ")
    params = params or RecoveryParams()

    n = psi.n
    b_hat = np.zeros(n)
    y_norm = float(np.linalg.norm(y))
    info = {"residuals": [y_norm]}
    if y_norm == 0.0:
        result = (b_hat, np.zeros(n))
        return (*result, info) if return_info else result

    max_atoms, tol = params.resolve(phi.m, y_norm)
    theta = phi.entries @ psi.columns
    col_norms = np.linalg.norm(theta, axis=0)
    col_norms[col_norms == 0.0] = np.inf
    residual = y.copy()
    active: list[int] = []
    available = np.ones(n, dtype=bool)
    coef = np.zeros(0)

    while len(active) < max_atoms and np.linalg.norm(residual) > tol:
        scores = np.abs(theta.T @ residual) / col_norms
        scores[~available] = -1.0
        pick = int(np.argmax(scores))
        if scores[pick] <= 0.0:
            break
        active.append(pick)
        available[pick] = False
        sub = theta[:, active]
        coef, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
        if rank < len(active):
            raise RecoveryError("singular active-set system")
        residual = y - sub @ coef
        info["residuals"].append(float(np.linalg.norm(residual)))

    b_hat[active] = coef
    x_hat = psi.synthesize(b_hat)
    result = (b_hat, x_hat)
    return (*result, info) if return_info else result


def prd(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Percentage root-mean-square difference: 100 ||x - x_hat|| / ||x||."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise RecoveryError("vectors must have equal length")
    ref = np.linalg.norm(x)
    if ref == 0.0:
        raise RecoveryError("reference signal has zero norm")
    return 100.0 * float(np.linalg.norm(x - x_hat)) / float(ref)


class QualityClass(str, Enum):
    VERY_GOOD = "very-good"
    VERY_GOOD_OR_GOOD = "very-good-or-good"
    NOT_GOOD = "not-good"


def classify_prd(value: float) -> QualityClass:
    """Map a PRD percentage onto the perceptual quality bands."""
    if value < 0:
        raise RecoveryError("PRD cannot be negative")
    if value < 2.0:
        return QualityClass.VERY_GOOD
    if value < 9.0:
        return QualityClass.VERY_GOOD_OR_GOOD
    return QualityClass.NOT_GOOD


@dataclass(frozen=True)
class SyntheticSignal:
    """A generated test signal with its planted basis support."""

    signal: BoundedSignal
    support: np.ndarray
    coefficients: np.ndarray


def synth_sparse_signal(
    seed: bytes,
    n: int,
    s: int,
    L1: int,
    L2: int,
) -> SyntheticSignal:
    """Plant s random non-constant atoms and rescale into (L1, L2).

    The affine rescale adds a constant offset, so the returned support
    includes the constant atom (index 0) in addition to the s planted
    atoms.  Values keep a 5 % margin inside the window.  Deterministic
    per seed.
    """
    if s >= n:
        raise RecoveryError("sparsity must be below the signal length")
    if s < 1:
        raise RecoveryError("need at least one planted atom")
    basis = cached_operator(build_basis, n)
    rng = np.random.default_rng(_seed_int(seed, b"synth"))
    atoms = rng.choice(np.arange(1, n), size=s, replace=False)
    weights = rng.normal(0.0, 1.0, size=s) + np.sign(rng.normal(size=s)) * 0.5
    raw = basis.columns[:, atoms] @ weights

    span = L2 - L1
    lo = L1 + 0.05 * span
    hi = L2 - 0.05 * span
    raw_lo, raw_hi = float(raw.min()), float(raw.max())
    if raw_hi - raw_lo < 1e-12:
        raise RecoveryError("degenerate draw; use a different seed")
    scale = (hi - lo) / (raw_hi - raw_lo)
    offset = lo - scale * raw_lo
    values = scale * raw + offset

    signal = BoundedSignal(values=values, L1=L1, L2=L2)
    coeffs = basis.analyze(values)
    support = np.sort(np.concatenate(([0], atoms)))
    return SyntheticSignal(signal=signal, support=support, coefficients=coeffs)
