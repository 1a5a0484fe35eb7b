"""Sensing matrices, sparsity bases, greedy reconstruction and PRD scoring.

Signals are modeled as x = Psi @ b with few significant entries in b.
Measurements y = Phi @ x are inverted by orthogonal matching pursuit on
the combined dictionary Theta = Phi @ Psi.  Theta is built once per
(Phi, Psi) pair and held in a one-entry memo that lets go of it when
Phi or Psi is collected; the active set is kept as an incremental QR
factorisation, so no iteration re-solves least squares (the idea
behind Batch-OMP: Rubinstein, Zibulevsky & Elad, Technion CS-2008-08).
Only numpy is used: importing scipy.linalg would add a few tenths of a
second to every process start.
"""

from __future__ import annotations

import functools
import hashlib
import weakref
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
        if not 0 <= atoms <= m:
            raise RecoveryError(f"max_atoms {atoms} outside 0..{m} (the measurement count)")
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


# (weakref to Phi, weakref to Psi, Theta, column norms), or None
_DICTIONARY_MEMO: list = [None]


def _forget_dictionary(ref) -> None:
    entry = _DICTIONARY_MEMO[0]
    if entry is not None and (entry[0] is ref or entry[1] is ref):
        _DICTIONARY_MEMO[0] = None


def _dictionary(phi: SensingMatrix, psi: SparsityBasis) -> tuple[np.ndarray, np.ndarray]:
    """Theta = Phi Psi and its column norms (zero norms as inf), built once
    per (Phi, Psi) pair.

    One entry is kept.  It holds Phi and Psi by weak reference and drops
    itself when either is collected, so a Phi built for one call (one CR
    of a sweep) does not keep its Theta alive after the call.  Phi and
    Psi are matched by identity: their arrays must not be changed in
    place.
    """
    entry = _DICTIONARY_MEMO[0]
    if entry is not None and entry[0]() is phi and entry[1]() is psi:
        return entry[2], entry[3]
    theta = phi.entries @ psi.columns
    col_norms = np.linalg.norm(theta, axis=0)
    col_norms[col_norms == 0.0] = np.inf
    _DICTIONARY_MEMO[0] = (
        weakref.ref(phi, _forget_dictionary),
        weakref.ref(psi, _forget_dictionary),
        theta,
        col_norms,
    )
    return theta, col_norms


# A new active column whose component orthogonal to the active span is
# below this fraction of its norm makes the active-set system singular.
_SINGULAR_RTOL = 1e-10


def omp_reconstruct(
    y: np.ndarray,
    phi: SensingMatrix,
    psi: SparsityBasis,
    params: Optional[RecoveryParams] = None,
    return_info: bool = False,
):
    """Greedy sparse inversion of y = Phi Psi b.

    Each iteration picks the dictionary column best correlated with the
    residual (after column-norm scaling) and stops at max_atoms or once
    the residual norm falls to residual_tol.  The active columns are
    kept as an incremental QR factorisation (Gram-Schmidt with one
    re-orthogonalisation pass): each pick removes the residual's
    projection on the new direction, and R b = Q^T y is solved once at
    the end.  Theta = Phi Psi comes from a one-entry memo per (Phi, Psi)
    pair.  Returns (b_hat, x_hat); with return_info=True a dict is
    appended with the residual-norm history ("residuals") and the stop
    reason ("stop": "max_atoms", "residual_tol", "no_candidate" or
    "zero_measurements").
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
    info = {"residuals": [y_norm], "stop": "zero_measurements"}
    if y_norm == 0.0:
        result = (b_hat, np.zeros(n))
        return (*result, info) if return_info else result

    max_atoms, tol = params.resolve(phi.m, y_norm)
    theta, col_norms = _dictionary(phi, psi)
    residual = y.copy()
    active: list[int] = []
    q = np.empty((max_atoms, phi.m))  # orthonormal rows spanning the active columns
    r = np.zeros((max_atoms, max_atoms))
    qty = np.empty(max_atoms)

    while True:
        k = len(active)
        if k >= max_atoms:
            info["stop"] = "max_atoms"
            break
        if info["residuals"][-1] <= tol:
            info["stop"] = "residual_tol"
            break
        scores = np.abs(theta.T @ residual) / col_norms
        scores[active] = -1.0
        pick = int(np.argmax(scores))
        if scores[pick] <= 0.0:
            info["stop"] = "no_candidate"
            break
        column = theta[:, pick]
        h = q[:k] @ column
        w = column - h @ q[:k]
        h2 = q[:k] @ w
        w -= h2 @ q[:k]
        w_norm = float(np.linalg.norm(w))
        if w_norm <= _SINGULAR_RTOL * col_norms[pick]:
            raise RecoveryError("singular active-set system")
        q[k] = w / w_norm
        r[:k, k] = h + h2
        r[k, k] = w_norm
        qty[k] = q[k] @ residual  # = q[k] @ y: the residual is orthogonal to q[:k]
        residual -= qty[k] * q[k]
        active.append(pick)
        info["residuals"].append(float(np.linalg.norm(residual)))

    k = len(active)
    b_hat[active] = np.linalg.solve(r[:k, :k], qty[:k])
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
