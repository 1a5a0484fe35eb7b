"""Sensing matrices, sparsity bases, greedy reconstruction and PRD scoring.

Signals are modeled as x = Psi @ b with few significant entries in b.
Measurements y = Phi @ x are inverted by orthogonal matching pursuit on
the combined dictionary Theta = Phi @ Psi.  Theta is built once per
(Phi, Psi) pair and held by its Phi (SensingMatrix.dictionary), so it is
freed with Phi.  The package takes Phi and Psi from cached_operator,
which keeps one operator per build function, the latest asked for:
calls at one (seed, M, N) share Phi and its Theta, and moving to another
M frees the old pair.

There are two OMP loops, chosen by the shape of the input, and both
follow Batch-OMP (many signals coded over one dictionary: Rubinstein,
Zibulevsky & Elad, Technion CS-2008-08).  Only the scoring differs:
for one vector both make the same picks and return the same result, bit
for bit.  omp_reconstruct_batch solves a stack of rows that share
(Phi, Psi) and scores all running rows with one product R Theta per
pick, so the rows share each pass over Theta; the sweeps and the
guessing attacks use it.  omp_reconstruct solves one vector, as the
programmer and the keyed man-in-the-middle recovery do, from rows of
the Gram matrix G = Theta^T Theta: it computes Theta^T y once and updates the
correlations after each pick with a k x N product, and each row of G is
computed on its column's first pick and kept with Theta, so the calls
that share one Phi share G too.  Once G holds the column, a pick costs a
k x N product instead of an M x N pass over Theta.  The batch loop
scans Theta instead: Gram scoring there made a 20-row sweep cell at
CR 90 slower (3.3-3.9 ms against 5.2-7.5 ms on a shared 2-vCPU Xeon)
and gained nothing at CR 50, because its Theta^T q store grows with the
rows while Theta is shared by them.

Each row's active set is kept as an incremental QR factorisation, so no
iteration re-solves least squares.  Only numpy is used: importing
scipy.linalg would add a few tenths of a second to every process start.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

__all__ = [
    "RecoveryError",
    "SensingMatrix",
    "SparsityBasis",
    "RecoveryParams",
    "quantization_params",
    "QualityClass",
    "gen_sensing_matrix",
    "build_basis",
    "cached_operator",
    "omp_reconstruct",
    "omp_reconstruct_batch",
    "prd",
    "batch_prds",
    "classify_prd",
    "cr_to_measurements",
    "seed_int",
]


class RecoveryError(ValueError):
    """Raised on invalid reconstruction inputs or a singular solve."""


@dataclass(frozen=True)
class SensingMatrix:
    """M x N Gaussian projection with entries ~ N(0, 1/N), seeded."""

    entries: np.ndarray
    seed: bytes
    # (Psi, Theta, column norms, Gram rows) of the last dictionary() call, or None
    _dictionary: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def dictionary(self, psi: SparsityBasis) -> tuple[np.ndarray, np.ndarray, dict]:
        """Theta = Phi Psi, its column norms (zero norms as inf), and the
        Gram rows G[p] = theta[:, p] @ Theta that omp_reconstruct has
        computed so far, as a dict p -> row, filled on a column's first
        pick.  At most N rows of N float64 each: 2 MB at N = 512.

        They are kept on this matrix for the last Psi asked for, so Theta
        is built once per (Phi, Psi) pair and all three are freed with
        Phi.  The memo holds Psi itself and matches it by identity, so a
        reused id cannot fool it; the arrays of Phi and Psi must not be
        changed in place.
        """
        memo = self._dictionary
        if memo is None or memo[0] is not psi:
            theta = self.entries @ psi.columns
            col_norms = np.linalg.norm(theta, axis=0)
            col_norms[col_norms == 0.0] = np.inf
            memo = (psi, theta, col_norms, {})
            object.__setattr__(self, "_dictionary", memo)
        return memo[1:]


@dataclass(frozen=True)
class SparsityBasis:
    """Real orthonormal N x N basis; columns are the atoms."""

    columns: np.ndarray

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    def synthesize(self, b: np.ndarray) -> np.ndarray:
        return self.columns @ b


@dataclass(frozen=True)
class RecoveryParams:
    """Stopping rules for the greedy solver.

    Defaults resolve to max_atoms = M // 4 and residual_tol = 1e-6 * ||y||
    (the Euclidean norm of the measurements) at solve time.  The receiver
    of a quantized ciphertext stops at its rounding noise instead,
    residual_tol = qs * sqrt(M / 12) (quantization_params).
    """

    max_atoms: Optional[int] = None
    residual_tol: Optional[float] = None

    def resolve(self, m: int, y_norm: float) -> tuple[int, float]:
        atoms = self.max_atoms if self.max_atoms is not None else max(1, m // 4)
        if not 0 <= atoms <= m:
            raise RecoveryError(f"max_atoms {atoms} outside 0..{m} (the measurement count)")
        tol = self.residual_tol if self.residual_tol is not None else 1e-6 * y_norm
        if not tol >= 0:  # NaN too: it would never stop a solve
            raise RecoveryError("residual tolerance must be non-negative")
        return atoms, tol


def quantization_params(cipher) -> Optional[RecoveryParams]:
    """The key holder's stopping rule for a codec.CsCiphertext: rounding
    its M measurements to the step qs adds noise of norm about
    qs * sqrt(M / 12), so the solve stops there rather than fit the
    noise (the discrepancy principle for OMP with bounded noise, Cai &
    Wang, IEEE Trans. IT 2011).  None, the solver defaults, when raw.
    The programmer and the man-in-the-middle attacker's keyed recovery
    use it; the sweeps keep reports.sweep_solver_params."""
    if cipher.quant_step is None:
        return None
    return RecoveryParams(residual_tol=cipher.quant_step * math.sqrt(cipher.m / 12))


def seed_int(seed: bytes, label: bytes) -> int:
    """A numpy generator seed for one use (label) of a byte seed."""
    return int.from_bytes(hashlib.sha256(label + b"/" + bytes(seed)).digest(), "big")


def gen_sensing_matrix(seed: bytes, m: int, n: int) -> SensingMatrix:
    """Draw an M x N i.i.d. Gaussian matrix with variance 1/N, deterministically."""
    if not 0 < m < n:
        raise RecoveryError(f"need 0 < M < N, got M={m} N={n}")
    rng = np.random.default_rng(seed_int(seed, b"sensing"))
    entries = rng.normal(0.0, 1.0 / np.sqrt(n), size=(m, n))
    return SensingMatrix(entries=entries, seed=bytes(seed))


def cr_to_measurements(n: int, cr: float) -> int:
    """Measurement count for a nominal compression rate."""
    # NaN and inf fail the range test; they would not round
    m = int(round(n * (100.0 - cr) / 100.0)) if 0.0 < cr < 100.0 else 0
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


# build -> (args, operator) of the latest call with that build function
_operators: dict = {}


def cached_operator(build, *args):
    """The operator build(*args), shared by every caller:
    cached_operator(gen_sensing_matrix, seed, m, n) for Phi,
    cached_operator(build_basis, n) for Psi; the sweep's shift-key set
    comes from it too (reports._key_set).  One operator per build
    function is kept, the latest asked for: a walk over a CR grid holds
    one Phi (and the Theta it carries), and neither a Phi nor a key set
    evicts Psi.  Callers must not mutate the result."""
    held = _operators.get(build)
    if held is None or held[0] != args:
        held = _operators[build] = (args, build(*args))
    return held[1]


# A new active column whose component orthogonal to the active span is
# below this fraction of its norm makes the active-set system singular.
_SINGULAR_RTOL = 1e-10


def _check_operands(values: np.ndarray, phi: SensingMatrix, psi: SparsityBasis) -> None:
    if not np.all(np.isfinite(values)):
        raise RecoveryError("non-finite measurements")
    if phi.n != psi.n:
        raise RecoveryError("sensing matrix and basis sizes differ")


def _stop(k: int, max_atoms: int, residual_norm, tol) -> str:
    """Why a solve ended after k picks with this residual norm."""
    if k == max_atoms:
        return "max_atoms"
    return "residual_tol" if residual_norm <= tol else "no_candidate"


def _orthogonalise(w: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove from w, one vector or a stack, its components along the
    orthonormal rows of basis, in place: Gram-Schmidt with one
    re-orthogonalisation pass.  Returns the coefficients removed and the
    norm of what is left."""
    h = np.matvec(basis, w)
    w -= np.vecmat(h, basis)
    h2 = np.matvec(basis, w)
    w -= np.vecmat(h2, basis)
    return h + h2, np.sqrt(np.vecdot(w, w))


def omp_reconstruct_batch(
    Y: np.ndarray,
    phi: SensingMatrix,
    psi: SparsityBasis,
    params: Optional[RecoveryParams] = None,
    return_info: bool = False,
):
    """Greedy sparse inversion of each row y of Y, with y = Phi Psi b.

    Each iteration scores every running row with one product R Theta and
    picks, per row, the column best correlated with its residual (after
    column-norm scaling).  A row stops at max_atoms, once its residual
    norm falls to its own residual_tol, or when no column is left to
    pick; the others go on.  Each row's active columns are kept as an
    incremental QR factorisation (Gram-Schmidt with one
    re-orthogonalisation pass, batched over rows), and R b = Q^T y is
    solved once, when the row stops.  Returns (B_hat, X_hat), one row
    per row of Y; with return_info=True a list of per-row dicts is
    appended, each with the residual-norm history ("residuals") and the
    stop reason ("stop": "max_atoms", "residual_tol", "no_candidate" or
    "zero_measurements").
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[1] != phi.m:
        raise RecoveryError(f"measurement rows must form a 2-D array of width {phi.m}")
    _check_operands(Y, phi, psi)
    params = params or RecoveryParams()

    b_hat = np.zeros((Y.shape[0], psi.n))
    y_norms = np.sqrt(np.vecdot(Y, Y))
    infos = [{"residuals": [v], "stop": "zero_measurements"} for v in y_norms.tolist()]
    # State of the rows still running, one entry per row; a row that
    # stops is solved, recorded and dropped from every array at once.
    live = np.flatnonzero(y_norms)  # the row of Y behind each state entry
    limits = [params.resolve(phi.m, y_norms[i]) for i in live]
    max_atoms = limits[0][0] if limits else 0
    tol = np.array([t for _, t in limits])
    residual = Y[live]
    q = np.empty((live.size, max_atoms, phi.m))  # orthonormal rows spanning the active columns
    r = np.zeros((live.size, max_atoms, max_atoms))
    qty = np.empty((live.size, max_atoms))
    picks = np.empty((live.size, max_atoms), dtype=np.intp)
    history = np.empty((live.size, max_atoms + 1))  # residual norms
    history[:, 0] = y_norms[live]
    row_ids = np.arange(live.size)
    if live.size:
        theta, col_norms, _ = phi.dictionary(psi)
        singular = _SINGULAR_RTOL * col_norms
    k = 0

    while live.size:
        if k < max_atoms:
            scores = residual @ theta
            np.abs(scores, out=scores)
            scores /= col_norms
            scores[row_ids[:, None], picks[:, :k]] = -1.0
            # a row at its tolerance picks nothing, so it stops below
            scores[history[:, k] <= tol] = -1.0
            pick = scores.argmax(axis=1)
            ended = scores[row_ids, pick] <= 0.0
        else:
            ended = np.ones(live.size, dtype=bool)
        if np.count_nonzero(ended):
            rows = live[ended]
            coef = np.linalg.solve(r[ended, :k, :k], qty[ended, :k, None])
            b_hat[rows[:, None], picks[ended, :k]] = coef[..., 0]
            for j, i in zip(np.flatnonzero(ended).tolist(), rows.tolist()):
                infos[i]["residuals"] = history[j, : k + 1].tolist()
                infos[i]["stop"] = _stop(k, max_atoms, history[j, k], tol[j])
            if ended.all():
                break
            live, tol, residual, q, r, qty, picks, history, pick = (
                a[~ended] for a in (live, tol, residual, q, r, qty, picks, history, pick)
            )
            row_ids = np.arange(live.size)
        w = theta.T[pick]  # the picked columns, orthogonalised in place
        h, w_norm = _orthogonalise(w, q[:, :k])
        if np.count_nonzero(w_norm <= singular[pick]):
            raise RecoveryError("singular active-set system")
        np.divide(w, w_norm[:, None], out=q[:, k])
        r[:, :k, k] = h
        r[:, k, k] = w_norm
        qty[:, k] = np.vecdot(q[:, k], residual)  # = q[k] y: the residual is orthogonal to q[:k]
        residual -= qty[:, k, None] * q[:, k]
        history[:, k + 1] = np.sqrt(np.vecdot(residual, residual))
        picks[:, k] = pick
        k += 1

    x_hat = b_hat @ psi.columns.T
    return (b_hat, x_hat, infos) if return_info else (b_hat, x_hat)


def omp_reconstruct(
    y: np.ndarray,
    phi: SensingMatrix,
    psi: SparsityBasis,
    params: Optional[RecoveryParams] = None,
    return_info: bool = False,
):
    """Greedy sparse inversion of one measurement vector y = Phi Psi b.

    The same solve as a one-row omp_reconstruct_batch: the same picks,
    incremental QR, stop rules, singular guard and result, bit for bit.
    Only the scoring differs: the correlations c = Theta^T residual
    start as Theta^T y, and the k-th pick p updates them with
    c -= qty[k] Theta^T q[k], where
    Theta^T q[k] = (G[p] - r[:k, k] Theta^T q[:k]) / r[k, k]
    follows from the Gram row G[p] that phi keeps across calls
    (Batch-OMP).  Returns (b_hat, x_hat), and with return_info=True the
    info dict of omp_reconstruct_batch.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size != phi.m:
        raise RecoveryError(f"measurement vector must have length {phi.m}")
    _check_operands(y, phi, psi)
    params = params or RecoveryParams()

    b_hat = np.zeros(psi.n)
    y_norm = np.sqrt(np.vecdot(y, y))
    info = {"residuals": [float(y_norm)], "stop": "zero_measurements"}
    if y_norm:
        max_atoms, tol = params.resolve(phi.m, y_norm)
        theta, col_norms, gram = phi.dictionary(psi)
        q = np.empty((max_atoms, phi.m))  # orthonormal rows spanning the active columns
        tq = np.empty((max_atoms, psi.n))  # Theta^T q of each row of q
        r = np.zeros((max_atoms, max_atoms))
        qty = np.empty(max_atoms)
        picks = np.empty(max_atoms, dtype=np.intp)
        history = np.empty(max_atoms + 1)  # residual norms
        history[0] = y_norm
        residual = y.copy()
        corr = y @ theta
        scores = np.empty(psi.n)
        k = 0
        while k < max_atoms and history[k] > tol:
            np.abs(corr, out=scores)
            scores /= col_norms
            scores[picks[:k]] = -1.0
            pick = int(scores.argmax())
            if scores[pick] <= 0.0:
                break
            row = gram.get(pick)
            if row is None:
                row = gram[pick] = theta.T[pick] @ theta
            w = theta.T[pick].copy()  # the picked column, orthogonalised in place
            h, w_norm = _orthogonalise(w, q[:k])
            if w_norm <= _SINGULAR_RTOL * col_norms[pick]:
                raise RecoveryError("singular active-set system")
            np.divide(w, w_norm, out=q[k])
            r[:k, k] = h
            r[k, k] = w_norm
            np.divide(row - np.vecmat(h, tq[:k]), w_norm, out=tq[k])
            qty[k] = np.vecdot(q[k], residual)  # = q[k] y: the residual is orthogonal to q[:k]
            residual -= qty[k] * q[k]
            corr -= qty[k] * tq[k]
            history[k + 1] = np.sqrt(np.vecdot(residual, residual))
            picks[k] = pick
            k += 1
        b_hat[picks[:k]] = np.linalg.solve(r[:k, :k], qty[:k])
        info["residuals"] = history[: k + 1].tolist()
        info["stop"] = _stop(k, max_atoms, history[k], tol)
    x_hat = b_hat @ psi.columns.T
    return (b_hat, x_hat, info) if return_info else (b_hat, x_hat)


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


def batch_prds(
    Y, phi: SensingMatrix, psi: SparsityBasis, truth: np.ndarray,
    params: Optional[RecoveryParams],
) -> list[float]:
    """The PRD against truth of each row's recovery, in row order.  Y is
    a 2-D array or a sequence of measurement vectors, stacked and solved
    by one omp_reconstruct_batch call (params None: solver defaults)."""
    _, x_hats = omp_reconstruct_batch(Y, phi, psi, params)
    return [prd(truth, x_hat) for x_hat in x_hats]


class QualityClass(str, Enum):
    VERY_GOOD = "very-good"
    VERY_GOOD_OR_GOOD = "very-good-or-good"
    NOT_GOOD = "not-good"


def classify_prd(value: float) -> QualityClass:
    """Map a PRD percentage onto the perceptual quality bands: the one
    home of the 2 % and 9 % lines, which every check asks."""
    if value < 0:
        raise RecoveryError("PRD cannot be negative")
    if value < 2.0:
        return QualityClass.VERY_GOOD
    if value < 9.0:
        return QualityClass.VERY_GOOD_OR_GOOD
    return QualityClass.NOT_GOOD
