"""Ciphertext-only attacks and active-attacker experiments.

The guessing attacks model an eavesdropper who holds a telemetry
ciphertext and the public projection/basis but not the shift key: it
de-shifts with guessed keys and reconstructs.  Recovery quality is
scored against the ground truth by a separate scorer, never inside the
attacker logic.  The man-in-the-middle scenario replays the blocked-link
attack on the read flow; the statistical test checks that masked
telemetry is indistinguishable from masked silence.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ecg
from .channel import Attacker, TranscriptEntry
from .codec import (
    CsCiphertext,
    ShiftKey,
    _shift_core,
    cs_deshift,
    cs_gen,
    deserialize_ciphertext,
    deserialize_shift_key,
)
from .crypto import CryptoSuite
from .parties import STEPS, SystemConfig, derive_k_p, unpack_signals
from .recovery import RecoveryParams, SensingMatrix, SparsityBasis, omp_reconstruct, prd
from .scenarios import build_world, run_session
from .wire import (
    Heading,
    WireError,
    WireMessage,
    decode_message,
    encode_message,
    ts_bytes,
)

__all__ = [
    "default_shift_grid",
    "UniformGuessResult",
    "uniform_guess_attack",
    "RandomGuessResult",
    "random_guess_attack",
    "MitmResult",
    "mitm_read_attack",
    "MitmReadAttacker",
    "PassiveEavesdropper",
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


class PassiveEavesdropper(Attacker):
    """Records every frame; never touches delivery."""

    def __init__(self):
        self.seen: list[TranscriptEntry] = []

    def observe(self, entry: TranscriptEntry):
        self.seen.append(entry)


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


def default_shift_grid(bound: int = 449) -> list[int]:
    """Multiples of 50 inside [-bound, bound] plus the interval ends."""
    grid = {shift for shift in range(0, bound + 1, 50)}
    grid.update(-shift for shift in list(grid))
    grid.update((-bound, bound))
    return sorted(grid)


@dataclass(frozen=True)
class UniformGuessResult:
    best_shift: int
    best_prd: float
    curve: tuple[tuple[int, float], ...]


def uniform_guess_attack(
    cipher: CsCiphertext,
    phi: SensingMatrix,
    psi: SparsityBasis,
    truth: np.ndarray,
    grid: Optional[list[int]] = None,
    params: Optional[RecoveryParams] = None,
) -> UniformGuessResult:
    """De-shift with every constant guess and score each recovery.

    The attacker cannot orient the carry bits without the key signs, so
    each de-shift assumes no wraps: y_guess = y' - shift * (phi @ 1).
    """
    grid = grid if grid is not None else default_shift_grid()
    column_sum = phi.entries @ np.ones(phi.n)
    curve = []
    for shift in grid:
        y_guess = cipher.measurements - shift * column_sum
        _, x_hat = omp_reconstruct(y_guess, phi, psi, params)
        curve.append((shift, prd(truth, x_hat)))
    best_shift, best_prd = min(curve, key=lambda item: item[1])
    return UniformGuessResult(
        best_shift=best_shift, best_prd=best_prd, curve=tuple(curve)
    )


@dataclass(frozen=True)
class RandomGuessResult:
    prds: tuple[float, ...]
    min_prd: float


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
) -> RandomGuessResult:
    """Draw fresh shift keys the way the smartphone would and de-shift.

    planted_key, when given, replaces the first trial's guess with the
    true key (sanity anchor: that trial must match legitimate recovery).
    """
    prds = []
    for trial in range(trials):
        if trial == 0 and planted_key is not None:
            key = planted_key
        else:
            key = cs_gen(
                bytes(seed) + trial.to_bytes(4, "big"), cipher.n, L1, L2
            )
        y_guess = cs_deshift(key, cipher, phi, L1, L2)
        _, x_hat = omp_reconstruct(y_guess, phi, psi, params)
        prds.append(prd(truth, x_hat))
    return RandomGuessResult(prds=tuple(prds), min_prd=min(prds))


class MitmReadAttacker(Attacker):
    """Fake programmer wedged into the read flow.

    Blocks the telemetry response so the real programmer stalls, while
    keeping a copy of every frame it saw.  With the out-of-band channel
    exposed (and the doctor's USB credentials stolen, the worst case the
    dual-factor design considers), it can rebuild the session keys.
    """

    def __init__(self, degraded_oob: bool = False, stolen_private_key=None):
        self.degraded_oob = degraded_oob
        self.stolen_private_key = stolen_private_key
        self.seen: list[TranscriptEntry] = []
        self.rm: Optional[bytes] = None
        self.captured_c2: Optional[bytes] = None

    def observe(self, entry: TranscriptEntry):
        self.seen.append(entry)

    def observe_oob(self, entry: TranscriptEntry):
        self.rm = entry.payload

    def intercept(self, entry: TranscriptEntry):
        try:
            msg = decode_message(entry.payload)
        except WireError:
            return None
        if (
            entry.link == "d-i"
            and entry.sender == "imd"
            and msg.heading == Heading.READ_REQ
            and len(msg.fields) == 2
        ):
            self.captured_c2 = msg.fields[0]
            return []  # the real programmer never sees its telemetry
        return None

    # -- offline analysis ------------------------------------------------

    def _find(self, heading: Heading, sender: str):
        for entry in self.seen:
            try:
                msg = decode_message(entry.payload)
            except WireError:
                continue
            if msg.heading == heading and entry.sender == sender:
                return msg
        return None

    def derive_shift_key(self) -> Optional[ShiftKey]:
        """Only possible with both factors: stolen SK (nonce) and RM."""
        if self.stolen_private_key is None or self.rm is None:
            return None
        challenge = self._find(Heading.AUTH_REQ, "smartphone")
        key_delivery = self._find(Heading.READ_READY, "smartphone")
        if challenge is None or key_delivery is None:
            return None
        suite = CryptoSuite()
        try:
            nonce = suite.pk_dec(self.stolen_private_key, challenge.fields[1])
            k_p = derive_k_p(suite, self.rm, challenge.session, nonce)
            kd_bytes = suite.sym_dec(k_p, key_delivery.fields[0])
            return deserialize_shift_key(kd_bytes)
        except Exception:
            return None


@dataclass(frozen=True)
class MitmResult:
    attacker_prd: float
    attacker_derived_key: bool
    honest_programmer_completed: bool
    honest_baseline_prd: float


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
        from .keymat import doctor_private_key

        stolen = doctor_private_key()
    attacker = MitmReadAttacker(degraded_oob=degraded_oob, stolen_private_key=stolen)
    world = build_world(seed=seed, config=config, attacker=attacker)
    attacked = run_session("read", config=config, world=world)
    honest_completed = attacked.world.programmer.read_complete

    if attacker.captured_c2 is None:
        raise RuntimeError("attacker never captured the telemetry frame")
    cipher = deserialize_ciphertext(unpack_signals(attacker.captured_c2)[0])
    phi = config.sensing_matrix()
    psi = config.basis()
    attacked_truth = attacked.world.imd.data_source.records[0].samples.astype(float)

    derived = attacker.derive_shift_key()
    if derived is not None:
        y = cs_deshift(derived, cipher, phi, config.L1, config.L2)
        _, x_hat = omp_reconstruct(y, phi, psi)
        attacker_prd = prd(attacked_truth, x_hat)
    else:
        attacker_prd = uniform_guess_attack(cipher, phi, psi, attacked_truth).best_prd
    return MitmResult(
        attacker_prd=attacker_prd,
        attacker_derived_key=derived is not None,
        honest_programmer_completed=honest_completed,
        honest_baseline_prd=baseline_prd,
    )


def forge_read_auth_attempts(
    attempts: int = 1000,
    seed: int = 0,
    config: Optional[SystemConfig] = None,
) -> int:
    """Brute-force RM guesses against the read-auth MAC.

    Models the worst-case adversary who already holds the decrypted
    nonce (stolen credentials) but not RM.  Returns how many forgeries
    the smartphone rejected; any acceptance stops the probe early.
    """
    config = config or SystemConfig(n=64)
    result = run_session("auth", seed=seed, config=config)
    if not result.ok:
        raise RuntimeError("auth setup failed")
    world = result.world
    smartphone = world.smartphone
    sn = world.programmer.session
    nonce = smartphone.nonce  # granted: first factor compromised
    rng = random.Random(seed ^ 0xF0F0)
    suite = CryptoSuite()
    step = next(
        s for s in STEPS if s.sender == "programmer" and s.heading == Heading.READ_AUTH_REQ
    )

    rejected = 0
    for _ in range(attempts):
        rm_guess = rng.randbytes(16)
        if rm_guess == smartphone.rm:
            continue  # astronomically unlikely; keep the count honest
        k_guess = derive_k_p(suite, rm_guess, sn, nonce)
        ts4 = ts_bytes(smartphone.clock)
        tag = suite.mac(k_guess, step.covered(sn, [ts4]))
        frame = encode_message(WireMessage(step.heading, sn, (ts4, tag)))
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
    L1, L2 = config.L1, config.L2
    records_needed = -(-samples // config.n)
    values = np.concatenate(
        [
            ecg.synth_ecg_like(
                f"ks/{seed}/{i}".encode(), n=config.n, s=10 + (i % 6), L1=L1, L2=L2
            ).samples
            for i in range(records_needed)
        ]
    )[:samples].astype(np.float64)

    if degenerate_key:
        entries = np.zeros(samples, dtype=np.int64)
    else:
        entries = cs_gen(
            hashlib.sha256(f"ks-key/{seed}".encode()).digest(), samples, L1, L2
        ).entries
    masked_signal, _ = _shift_core(values, entries, L1, L2)
    masked_zero, _ = _shift_core(np.zeros(samples), entries, L1, L2)
    result = stats.ks_2samp(masked_signal, masked_zero)
    return KsResult(
        statistic=float(result.statistic),
        pvalue=float(result.pvalue),
        passed=bool(result.pvalue > 0.01),
        samples=samples,
    )
