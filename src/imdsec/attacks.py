"""Ciphertext-only attacks and active-attacker experiments.

The guessing attacks model an eavesdropper who holds a telemetry
ciphertext and the public projection/basis but not the shift key: it
de-shifts with guessed keys and reconstructs.  Each returns the PRD of
every guess's recovery against the ground truth, in guess order, scored
by recovery.batch_prds outside the attacker logic; the caller takes the
best guess with min.  The duplicate-frame and bit-flip attackers replay
and mutate frames.  The man-in-the-middle scenario replays the
blocked-link attack on the read flow; when both factors are compromised
it derives the shift key from the transcript and recovers the telemetry
as the programmer does.  The statistical test checks that masked
telemetry is indistinguishable from masked silence.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import ecg
from .channel import Attacker, Transcript, TranscriptEntry
from .codec import (
    CsCiphertext,
    ShiftKey,
    cs_deshift,
    cs_gen,
    deserialize_ciphertext,
    deserialize_shift_key,
    shift_bound,
    wrap_add,
)
from .crypto import CryptoError, CryptoSuite
from .parties import STEPS, Step, SystemConfig, derive_k_p, step_of, unpack_signals
from .recovery import RecoveryParams, SensingMatrix, SparsityBasis, batch_prds, prd
from .recovery import omp_reconstruct, quantization_params
from .scenarios import SCENARIOS, build_world, drive, run_session
from .wire import Heading, WireError, decode_message, u64_bytes

__all__ = [
    "default_shift_grid",
    "uniform_guess_attack",
    "random_guess_attack",
    "MitmResult",
    "mitm_read_attack",
    "MitmReadAttacker",
    "DuplicateFrameAttacker",
    "BitFlipAttacker",
    "MAC_PROTECTED_FRAMES",
    "forge_read_auth_attempts",
    "KsResult",
    "indistinguishability_test",
]

# (sender, heading) pairs of frames that carry a MAC
MAC_PROTECTED_FRAMES = frozenset(
    (step.sender, step.heading) for step in STEPS if step.key is not None
)


def _frame_heading(payload: bytes) -> Optional[Heading]:
    try:
        return decode_message(payload).heading
    except WireError:
        return None


def _read(step: Step, entry: TranscriptEntry) -> Optional[SimpleNamespace]:
    """entry read by name as a frame of step's row; None when it is not one."""
    try:
        msg = decode_message(entry.payload)
    except WireError:
        return None
    if entry.sender != step.sender or msg.heading != step.heading:
        return None
    return step.read(msg)


def _first(step: Step, transcript: Transcript) -> Optional[SimpleNamespace]:
    """The first wire frame of the transcript on step's row, read by name."""
    for entry in transcript.wire_entries():
        frame = _read(step, entry)
        if frame is not None:
            return frame
    return None


class DuplicateFrameAttacker(Attacker):
    """Re-sends the first frame matching (sender, heading) immediately."""

    def __init__(self, sender: str, heading: Heading):
        self.sender = sender
        self.heading = heading
        self.duplicated = False

    def intercept(self, entry: TranscriptEntry):
        if self.duplicated or entry.sender != self.sender:
            return None
        if _frame_heading(entry.payload) != self.heading:
            return None
        self.duplicated = True
        return [entry.payload, entry.payload]


class BitFlipAttacker(Attacker):
    """Flips one bit in the n-th MAC-protected frame of a session."""

    def __init__(self, occurrence: int, bit_index: int):
        self.occurrence = occurrence
        self.bit_index = bit_index
        self.flipped_frame: Optional[tuple[str, Heading]] = None
        self._count = 0

    def intercept(self, entry: TranscriptEntry):
        heading = _frame_heading(entry.payload)
        if heading is None or (entry.sender, heading) not in MAC_PROTECTED_FRAMES:
            return None
        index = self._count
        self._count += 1
        if index != self.occurrence:
            return None
        bit = self.bit_index % (len(entry.payload) * 8)
        mutated = bytearray(entry.payload)
        mutated[bit // 8] ^= 1 << (7 - bit % 8)
        self.flipped_frame = (entry.sender, heading)
        return [bytes(mutated)]


def default_shift_grid(bound: int = shift_bound(ecg.WINDOW[1] - ecg.WINDOW[0])) -> list[int]:
    """Multiples of 50 inside [-bound, bound] plus the interval ends."""
    grid = {shift for shift in range(0, bound + 1, 50)}
    grid.update(-shift for shift in list(grid))
    grid.update((-bound, bound))
    return sorted(grid)


def uniform_guess_attack(
    cipher: CsCiphertext,
    phi: SensingMatrix,
    psi: SparsityBasis,
    truth: np.ndarray,
    grid: Optional[list[int]] = None,
    params: Optional[RecoveryParams] = None,
) -> list[float]:
    """De-shift with every constant guess; the PRD of each recovery, in
    grid order.

    The attacker cannot orient the carry bits without the key signs, so
    each de-shift assumes no wraps: y_guess = y' - shift * (phi @ 1).
    """
    grid = grid if grid is not None else default_shift_grid()
    column_sum = phi.entries @ np.ones(phi.n)
    shifts = np.array(grid, dtype=np.float64).reshape(-1, 1)
    return batch_prds(cipher.measurements - shifts * column_sum, phi, psi, truth, params)


def random_guess_attack(
    cipher: CsCiphertext,
    phi: SensingMatrix,
    psi: SparsityBasis,
    truth: np.ndarray,
    L1: int,
    L2: int,
    trials: int = 100,
    seed: bytes = b"random-guess",
    params: Optional[RecoveryParams] = None,
    planted_key: Optional[ShiftKey] = None,
) -> list[float]:
    """Draw fresh shift keys the way the smartphone would and de-shift;
    the PRD of each trial's recovery, in trial order.

    planted_key, when given, replaces the first trial's guess with the
    true key (sanity anchor: that trial must match legitimate recovery).
    """
    keys = np.stack([
        planted_key.entries
        if trial == 0 and planted_key is not None
        else cs_gen(bytes(seed) + trial.to_bytes(4, "big"), cipher.n, L1, L2).entries
        for trial in range(trials)
    ])
    guesses = cs_deshift(ShiftKey(entries=keys, value_range=L2 - L1), cipher, phi, L1, L2)
    return batch_prds(guesses, phi, psi, truth, params)


class MitmReadAttacker(Attacker):
    """Fake programmer wedged into the read flow.

    Blocks the telemetry response so the real programmer stalls.  With
    the out-of-band channel exposed (and the doctor's USB credentials
    stolen, the worst case the dual-factor design considers), it can
    rebuild the session keys from the wire frames of the transcript.
    """

    def __init__(self, degraded_oob: bool = False, stolen_sealing_key=None):
        self.degraded_oob = degraded_oob
        self.stolen_sealing_key = stolen_sealing_key
        self.rm: Optional[bytes] = None
        self.captured_c2: Optional[bytes] = None

    def observe_oob(self, entry: TranscriptEntry):
        self.rm = entry.payload

    def intercept(self, entry: TranscriptEntry):
        telemetry = step_of("imd", Heading.READ_REQ)
        frame = _read(telemetry, entry) if entry.link == telemetry.link else None
        if frame is None:
            return None
        self.captured_c2 = frame.c2
        return []  # the real programmer never sees its telemetry

    # -- offline analysis ------------------------------------------------

    def derive_shift_key(self, transcript: Transcript) -> Optional[ShiftKey]:
        """Only possible with both factors: the stolen X25519 sealing key
        (nonce) and RM."""
        if self.stolen_sealing_key is None or self.rm is None:
            return None
        challenge = _first(step_of("smartphone", Heading.AUTH_REQ), transcript)
        key_delivery = _first(step_of("smartphone", Heading.READ_READY), transcript)
        if challenge is None or key_delivery is None:
            return None
        suite = CryptoSuite()
        try:
            nonce = suite.pk_dec(self.stolen_sealing_key, challenge.challenge)
            k_p = derive_k_p(suite, self.rm, challenge.session, nonce)
            kd_bytes = suite.sym_dec(k_p, key_delivery.enc_kd)
            return deserialize_shift_key(kd_bytes)
        except (CryptoError, ValueError):
            return None


@dataclass(frozen=True)
class MitmResult:
    attacker_prd: float
    attacker_derived_key: bool
    honest_programmer_completed: bool
    honest_baseline_prd: float
    transcript: Transcript  # the attacked world's


def mitm_read_attack(
    seed: int = 0,
    config: Optional[SystemConfig] = None,
    degraded_oob: bool = False,
) -> MitmResult:
    """Paired runs: honest baseline, then the same session under attack."""
    config = config or SystemConfig()

    baseline = run_session("read", seed=seed, config=config)
    if not baseline.ok:
        raise RuntimeError("honest baseline run failed")
    truth = baseline.world.imd.data_source.records[0].samples.astype(float)
    baseline_prd = prd(truth, baseline.world.programmer.recovered_signals[0])

    stolen = None
    if degraded_oob:
        from .keymat import doctor_sealing_key

        stolen = doctor_sealing_key()
    attacker = MitmReadAttacker(degraded_oob=degraded_oob, stolen_sealing_key=stolen)
    world = build_world(seed=seed, config=config, attacker=attacker)
    drive(world, SCENARIOS["read"])

    if attacker.captured_c2 is None:
        raise RuntimeError("attacker never captured the telemetry frame")
    cipher = deserialize_ciphertext(unpack_signals(attacker.captured_c2)[0])
    phi = config.sensing_matrix()
    psi = config.basis()
    attacked_truth = world.imd.data_source.records[0].samples.astype(float)

    derived = attacker.derive_shift_key(world.scheduler.transcript)
    if derived is not None:
        y = cs_deshift(derived, cipher, phi, *ecg.WINDOW)
        _, x_hat = omp_reconstruct(y, phi, psi, quantization_params(cipher))
        attacker_prd = prd(attacked_truth, x_hat)
    else:
        attacker_prd = min(uniform_guess_attack(cipher, phi, psi, attacked_truth))
    return MitmResult(
        attacker_prd=attacker_prd,
        attacker_derived_key=derived is not None,
        honest_programmer_completed=world.programmer.read_complete,
        honest_baseline_prd=baseline_prd,
        transcript=world.scheduler.transcript,
    )


def forge_read_auth_attempts(attempts: int = 1000, seed: int = 0) -> int:
    """Brute-force RM guesses against the read-auth MAC.

    Models the worst-case adversary who already holds the decrypted
    nonce (stolen credentials) but not RM.  Returns how many forgeries
    the smartphone rejected; any acceptance stops the probe early.
    """
    result = run_session("auth", seed=seed, config=SystemConfig(n=64))
    if not result.ok:
        raise RuntimeError("auth setup failed")
    world = result.world
    smartphone = world.smartphone
    sn = world.programmer.current.session
    nonce = smartphone.current.nonce  # granted: first factor compromised
    rng = random.Random(seed ^ 0xF0F0)
    suite = CryptoSuite()
    step = step_of("programmer", Heading.READ_AUTH_REQ)

    rejected = 0
    for _ in range(attempts):
        rm_guess = rng.randbytes(16)
        if rm_guess == smartphone.current.rm:
            continue  # astronomically unlikely; keep the count honest
        k_guess = derive_k_p(suite, rm_guess, sn, nonce)
        frame = step.encode(sn, {"ts4": u64_bytes(smartphone.clock)}, suite, k_guess)
        outputs = smartphone.receive(frame, step.link)
        if outputs or smartphone.expected != Heading.READ_AUTH_REQ:
            break
        rejected += 1
    return rejected


@dataclass(frozen=True)
class KsResult:
    statistic: float
    pvalue: float
    passed: bool
    samples: int


def indistinguishability_test(
    samples: int = 100_000,
    seed: int = 0,
    degenerate_key: bool = False,
) -> KsResult:
    """Two-sample KS test: masked telemetry entries vs masked zeros.

    Telemetry entries come from a diverse pool of integer ECG-like
    records in the default system window; the shift key is uniform over
    its full interval (or all zeros for the degenerate negative control).
    Passing means the test cannot tell the two apart at the 1 % level.
    """
    from scipy import stats

    config = SystemConfig()
    L1, L2 = ecg.WINDOW
    records_needed = -(-samples // config.n)
    values = np.concatenate(
        [
            ecg.synth_ecg_like(f"ks/{seed}/{i}".encode(), n=config.n, s=10 + (i % 6)).samples
            for i in range(records_needed)
        ]
    )[:samples].astype(np.float64)

    if degenerate_key:
        entries = np.zeros(samples, dtype=np.int64)
    else:
        entries = cs_gen(
            hashlib.sha256(f"ks-key/{seed}".encode()).digest(), samples, L1, L2
        ).entries
    masked_signal, _ = wrap_add(values, entries, L1, L2)
    masked_zero, _ = wrap_add(np.zeros(samples), entries, L1, L2)
    result = stats.ks_2samp(masked_signal, masked_zero)
    return KsResult(
        statistic=float(result.statistic),
        pvalue=float(result.pvalue),
        passed=bool(result.pvalue > 0.01),
        samples=samples,
    )
