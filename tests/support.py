"""Test helpers shared by several test modules."""

from dataclasses import dataclass

import numpy as np

from imdsec.channel import TranscriptEntry
from imdsec.codec import BoundedSignal
from imdsec.recovery import RecoveryError, build_basis, cached_operator, seed_int
from imdsec.scenarios import SCENARIOS, build_world, drive
from imdsec.wire import FRESHNESS_WINDOW

CHECKPOINTS = ("fresh", "pair", "auth", "read")


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
    rng = np.random.default_rng(seed_int(seed, b"synth"))
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
    coeffs = basis.columns.T @ values
    support = np.sort(np.concatenate(([0], atoms)))
    return SyntheticSignal(signal=signal, support=support, coefficients=coeffs)


def party_state(world) -> dict:
    """The protocol state of a world's parties, for checks that a frame
    changed nothing."""
    state = {
        p.role: (
            p.expected,
            p.expected_link,
            p.outcome,
            p.current.session if p.current else None,
            sorted(p.completed),
        )
        for p in (world.smartphone, world.imd, world.programmer)
    }
    state["applied"] = len(world.imd.applied_commands)
    state["ledger"] = len(world.smartphone.ledger)
    state["paired"] = world.smartphone.paired
    return state


def replay_recorded(recorded, seed, checkpoints=CHECKPOINTS):
    """Replay every wire frame of a recorded session into fresh worlds of
    the same implant, one world per frame, each honestly advanced to a
    checkpoint first, with the recording's timestamps long stale.

    Yields (checkpoint, entry, world, party_state before the frame) once
    the world has run quiet after the frame."""
    config = recorded.world.config
    clock = recorded.world.scheduler.clock + FRESHNESS_WINDOW + 10
    for checkpoint in checkpoints:
        for entry in recorded.transcript.wire_entries():
            fresh = build_world(
                seed=seed,
                config=config,
                reconstruct=False,
                master_key=recorded.world.master_key,
            )
            fresh.scheduler.clock = clock
            if checkpoint != "fresh":
                drive(fresh, SCENARIOS[checkpoint])
            before = party_state(fresh)
            fresh.scheduler.submit(
                [TranscriptEntry("wire", entry.link, entry.sender, entry.receiver, entry.payload)]
            )
            fresh.scheduler.run_until_quiet()
            yield checkpoint, entry, fresh, before
