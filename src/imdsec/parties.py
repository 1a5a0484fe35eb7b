"""Per-party state machines for pairing, authentication, read and write.

Every protocol step is one row of STEPS: who sends which heading to
whom on which link, the names of the frame's fields, the field holding
its timestamp, the key of its MAC, the party attribute its session
number must match, and what a failed MAC or unreadable content costs.
Party.receive checks every frame against its row in one fixed order:

    expected heading and link -> session -> field count -> timestamp
    parse -> freshness -> step pre-check -> MAC -> handler

Only PAIR_REQ and WRITE_ALLOW have a pre-check, which must run before
the MAC.  A MAC is always the last field and covers auth_bytes(heading,
session, earlier fields); the implant's telemetry READ_REQ leaves the
heading byte out.  A handler, named _on_<heading>, only computes: it
assigns its step's effects last, so a rejected frame changes nothing,
and Party.receive alone applies a policy, turning a decryption, parse
or codec error out of the handler into the row's ``unreadable``.  A
handler returns its reply's fields, if any, as a dict keyed by the
row's field names; a row without a handler has no effect past its
checks.  Party._send, which the start_* openers also call, orders the
named fields by the row, reads a timestamp field left out off the
party's clock, appends the MAC tag, and hands the frame to its row's
receiver as the channel.TranscriptEntry that the scheduler delivers and
records.  The smartphone's AUTH_REQ handler returns (fields, [RM
entry]), so the out-of-band RM follows its reply.

Each session key has one derivation, a single KDF call, used by every
party that needs the key (and by the attacks).  Its material starts
with the key's name (b"K_I", b"K_P" or b"K_R") as the first
length-prefixed part, so no two derivations share an input:

- derive_k_i: K_I from the patient's master key and both device ids;
- derive_k_p: K_P from the out-of-band RM, the session number and the
  nonce the doctor unseals with its X25519 key (both factors are needed);
- derive_k_r: K_R from the serialized shift key and the session number.

The smartphone keeps the session shift key only as kd_bytes, the
serialized form it derives K_R from, sends and logs.

Every row belongs to one of four flows, each a contiguous run of STEPS:
pair, auth, read and write.  The sender of a flow's first row opens it
with its start_<flow> method; every later row answers the row before
it.  Every party is single-threaded, and STEPS alone sets its progress:
it stores the one row it waits for, or none.  Once a party has received
or sent row i, it waits for the next row that involves it if it
receives that row, and otherwise for nothing.  Party.receive sends a
reply exactly when the party's next row is in the same flow and the
party sends it; a next row in a later flow waits for the party's opener.
A party's part of a flow ends with the last row of that flow that
involves it: the party's ``completed`` count of that flow then rises by
one, so a flow is done once every role named in its rows has completed it.
Once no later row at all involves the party, its outcome is "ok".  A
rejected frame meets one of three failure policies, and Party.receive
alone records it as one (policy, reason) in ``rejections``:

- drop: recorded and otherwise ignored.  Every structural failure takes
  this path, and so do an unparseable certificate, an unreadable key
  delivery and a failed pairing MAC, so probing an unpaired implant
  reveals nothing.  ``drops`` counts the drop and stay entries.
- stay: an incident; the flow keeps waiting.  A frame anyone could have
  injected takes this path: an AUTH_REQ whose doctor or certificate does
  not check out, an unreadable nonce challenge, shift key or command
  report, and a failed read-authorisation or read-allowance MAC.
- abort: the flow ends with ``outcome == "aborted"`` and the entry's
  reason as ``abort_reason``, and the party waits for nothing.  Every
  other failed MAC takes this path, and so do an unreadable telemetry
  payload or command, a command report that names another implant or a
  stale time, and a write signature that does not verify.

A party's name is its role, "smartphone", "imd" or "programmer": the
sender or receiver of its STEPS rows, its key in the scheduler's
registry and FLOW_ROLES, and the sender of its transcript entries.

Links: "s-i" smartphone<->implant, "s-d" smartphone<->programmer,
"d-i" programmer<->implant, plus the out-of-band channel to the
doctor's phone, which carries only the random message RM.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from . import codec, crypto, ecg, recovery
from .channel import TranscriptEntry
from .crypto import (
    Certificate,
    Credentials,
    CryptoError,
    CryptoSuite,
    SignatureBlob,
    SymmetricKey,
    length_prefixed,
    split_length_prefixed,
)
from .evidence import EvidenceLedger, EvidenceRecord
from .wire import (
    Heading,
    WireError,
    WireMessage,
    auth_bytes,
    decode_message,
    encode_message,
    freshness_check,
    ts_from_bytes,
    u64_bytes,
)

__all__ = [
    "ProtocolError",
    "NotReady",
    "Rejected",
    "SystemConfig",
    "Step",
    "STEPS",
    "FLOW_ROLES",
    "derive_k_i",
    "derive_k_p",
    "derive_k_r",
    "next_step",
    "step_of",
    "Party",
    "pack_signals",
    "unpack_signals",
    "Smartphone",
    "Imd",
    "Programmer",
]

LINK_SI = "s-i"
LINK_SD = "s-d"
LINK_DI = "d-i"
LINK_OOB = "s-ds"

NONCE_BYTES = 16
RM_BYTES = 16

DROP, STAY, ABORT = "drop", "stay", "abort"


class ProtocolError(Exception):
    pass


class NotReady(ProtocolError):
    """A flow's opener refused: an earlier flow has not completed."""


class Rejected(Exception):
    """A frame failed a check; policy is DROP, STAY or ABORT."""

    def __init__(self, policy: str, reason: str):
        super().__init__(reason)
        self.policy = policy
        self.reason = reason


@dataclass(frozen=True)
class SystemConfig:
    """The operating point: public parameters shared by all parties.

    n, cr and qs are settings, chosen per instance.  The seed of the
    sensing matrix is a constant of the class and the signal window is
    ecg.WINDOW; every record, report and session uses the same ones.
    """

    n: int = ecg.TARGET_SAMPLES
    cr: float = 50.0
    qs: int = 20  # 0 = transmit unquantized measurements
    matrix_seed: ClassVar[bytes] = b"public-sensing-matrix"

    def __post_init__(self):
        for name, value in (("N", self.n), ("qs", self.qs)):
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 2:
            raise ValueError(f"N must be at least 2, got {self.n}")
        if self.qs < 0:
            raise ValueError(f"qs must be at least 0, got {self.qs}")
        # raises RecoveryError, a ValueError, when CR leaves no valid M
        recovery.cr_to_measurements(self.n, self.cr)

    @property
    def m(self) -> int:
        return recovery.cr_to_measurements(self.n, self.cr)

    def sensing_matrix(self) -> recovery.SensingMatrix:
        return recovery.cached_operator(
            recovery.gen_sensing_matrix, self.matrix_seed, self.m, self.n
        )

    def basis(self) -> recovery.SparsityBasis:
        return recovery.cached_operator(recovery.build_basis, self.n)


@dataclass(frozen=True)
class Step:
    """One protocol frame, as its sender builds it and its receiver checks it.

    flow names the flow the row belongs to: "pair", "auth", "read" or
    "write".  fields name the frame's fields; with a key, a MAC tag under
    that party attribute follows them.  ts names the field holding an
    8-byte timestamp that must be fresh.  session names the receiver
    attribute the session number must equal (None: the step opens a
    session).  check names a receiver method run after freshness and
    before the MAC; it may raise Rejected or replace frame.key.
    unreadable is the (policy, reason) for a CryptoError or ValueError
    out of the handler; on a row without it, the error propagates.
    """

    flow: str
    sender: str
    receiver: str
    heading: Heading
    link: str
    fields: tuple[str, ...] = ()
    ts: Optional[str] = None
    key: Optional[str] = None
    on_mac_failure: tuple[str, str] = (ABORT, "MAC failure")
    session: Optional[str] = "session"
    check: Optional[str] = None
    mac_heading: bool = True
    unreadable: Optional[tuple[str, str]] = None

    def covered(self, session: int, fields: Sequence[bytes]) -> bytes:
        """The bytes the MAC covers."""
        return auth_bytes(self.heading if self.mac_heading else None, session, fields)

    def read(self, msg: WireMessage) -> Optional[SimpleNamespace]:
        """The frame's session number and its fields by name, a MAC tag
        last as "tag"; None when the field count does not fit the row."""
        names = self.fields + (("tag",) if self.key else ())
        if len(msg.fields) != len(names):
            return None
        return SimpleNamespace(session=msg.session, **dict(zip(names, msg.fields)))

    def encode(
        self,
        session: int,
        fields: dict[str, bytes],
        suite: CryptoSuite,
        key: Optional[SymmetricKey],
    ) -> bytes:
        """The frame of the named fields in row order, followed by their
        MAC tag under key when the row has a key."""
        values = tuple(fields[name] for name in self.fields)
        if self.key is not None:
            values += (suite.mac(key, self.covered(session, values)),)
        return encode_message(WireMessage(self.heading, session, values))


STEPS = (
    Step("pair", "smartphone", "imd", Heading.PAIR_REQ, LINK_SI, ("smartphone_id", "ts1"),
         ts="ts1", key="k_i", on_mac_failure=(DROP, "pairing MAC failure"),
         session=None, check="_derive_pairing_key"),
    Step("pair", "imd", "smartphone", Heading.PAIR_SUCC, LINK_SI, session="pair_session"),
    Step("auth", "programmer", "smartphone", Heading.AUTH_REQ, LINK_SD,
         ("doctor_id", "ts2", "sealing_key", "cert"), ts="ts2", session=None,
         unreadable=(DROP, "certificate unparseable")),
    Step("auth", "smartphone", "programmer", Heading.AUTH_REQ, LINK_SD,
         ("smartphone_id", "challenge"), unreadable=(STAY, "nonce challenge unreadable")),
    Step("read", "programmer", "smartphone", Heading.READ_AUTH_REQ, LINK_SD, ("ts4",),
         ts="ts4", key="k_p", on_mac_failure=(STAY, "read auth MAC failure")),
    Step("read", "smartphone", "imd", Heading.READ_ALLOW, LINK_SI,
         ("doctor_id", "c1", "ts5"), ts="ts5", key="k_i",
         on_mac_failure=(STAY, "read allow MAC failure"), session=None,
         unreadable=(DROP, "key delivery unreadable")),
    Step("read", "imd", "smartphone", Heading.READ_READY, LINK_SI),
    Step("read", "smartphone", "programmer", Heading.READ_READY, LINK_SD, ("enc_kd",),
         unreadable=(STAY, "shift key unreadable")),
    Step("read", "programmer", "imd", Heading.READ_REQ, LINK_DI),
    Step("read", "imd", "programmer", Heading.READ_REQ, LINK_DI, ("c2",), key="k_r",
         on_mac_failure=(ABORT, "telemetry MAC failure"), mac_heading=False,
         unreadable=(ABORT, "telemetry payload malformed")),
    Step("write", "programmer", "smartphone", Heading.WRITE_AUTH_REQ, LINK_SD,
         ("sig", "ts6"), ts="ts6", key="k_p",
         on_mac_failure=(ABORT, "write auth MAC failure")),
    Step("write", "smartphone", "imd", Heading.WRITE_ALLOW, LINK_SI, ("doctor_id", "ts7"),
         ts="ts7", key="k_i", on_mac_failure=(ABORT, "write enable MAC failure"),
         check="_check_session_doctor"),
    Step("write", "imd", "smartphone", Heading.WRITE_READY, LINK_SI),
    Step("write", "smartphone", "programmer", Heading.WRITE_READY, LINK_SD),
    Step("write", "programmer", "imd", Heading.WRITE_REQ, LINK_DI, ("c3",), key="k_r",
         on_mac_failure=(ABORT, "command MAC failure"),
         unreadable=(ABORT, "command decryption failure")),
    Step("write", "imd", "smartphone", Heading.WRITE_REQ, LINK_SI, ("c2", "report"),
         unreadable=(STAY, "command report unreadable")),
    Step("write", "smartphone", "imd", Heading.SET_ALLOW, LINK_SI, ("ts8",), ts="ts8",
         key="k_i", on_mac_failure=(ABORT, "apply authorization MAC failure")),
    Step("write", "imd", "programmer", Heading.WRITE_SUCC, LINK_DI),
)

# (sender, heading) names one row
_ROW = {(step.sender, step.heading): i for i, step in enumerate(STEPS)}

# next_step(role, row), built once so that no frame scans STEPS
_NEXT = {
    (role, row): next((s for s in STEPS[row + 1 :] if role in (s.sender, s.receiver)), None)
    for role in {step.sender for step in STEPS}
    for row in range(-1, len(STEPS))
}

# each flow, in protocol order -> the roles named in its rows, the
# sender of its first row (who opens it) first
FLOW_ROLES = {
    flow: tuple(dict.fromkeys(r for s in STEPS if s.flow == flow for r in (s.sender, s.receiver)))
    for flow in dict.fromkeys(step.flow for step in STEPS)
}


def step_of(sender: str, heading: Heading) -> Step:
    """The row on which sender sends heading."""
    return STEPS[_ROW[sender, heading]]


def next_step(role: str, row: int) -> Optional[Step]:
    """The first row after STEPS[row] (row -1: from the start) that
    involves role, or None when no later row does."""
    return _NEXT[role, row]


def derive_k_i(
    suite: CryptoSuite, master_key: SymmetricKey, smartphone_id: bytes, implant_id: bytes
) -> SymmetricKey:
    """Pairing key: the patient's master key bound to both device ids."""
    return suite.kdf(length_prefixed(b"K_I", master_key.data, smartphone_id, implant_id))


def derive_k_p(suite: CryptoSuite, rm: bytes, session: int, nonce: bytes) -> SymmetricKey:
    """Programmer key: the out-of-band RM plus the unsealed nonce."""
    return suite.kdf(length_prefixed(b"K_P", rm, u64_bytes(session), nonce))


def derive_k_r(suite: CryptoSuite, kd_bytes: bytes, session: int) -> SymmetricKey:
    """Read/write key bound to the serialized shift key."""
    return suite.kdf(length_prefixed(b"K_R", kd_bytes, u64_bytes(session)))


def pack_signals(blobs: list[bytes]) -> bytes:
    return len(blobs).to_bytes(4, "big") + length_prefixed(*blobs)


def unpack_signals(buf: bytes) -> list[bytes]:
    if len(buf) < 4:
        raise WireError("short telemetry payload")
    try:
        return split_length_prefixed(buf[4:], int.from_bytes(buf[:4], "big"))
    except CryptoError as exc:
        raise WireError(f"malformed telemetry payload: {exc}") from None


class Party:
    """Common machinery: the step verifier, the frame sender and clocks."""

    role: str  # this party's name: the sender/receiver of its STEPS rows

    def __init__(self, seed: int, config: SystemConfig):
        self.config = config
        self.rng = random.Random(seed)
        self.crypto = CryptoSuite(rng=random.Random(seed ^ 0x5EED))
        self.clock: int = 0
        self.outcome: str = "idle"
        self.rejections: list[tuple[str, str]] = []  # (policy, reason) per rejected frame
        self.completed: Counter[str] = Counter()  # times this party finished each flow
        self._advance(-1)

    @property
    def drops(self) -> int:
        return sum(policy != ABORT for policy, _ in self.rejections)

    @property
    def abort_reason(self) -> Optional[str]:
        return next((r for p, r in reversed(self.rejections) if p == ABORT), None)

    @property
    def expected(self) -> Optional[Heading]:
        """Heading of the awaited row; None while waiting for nothing."""
        return None if self._awaiting is None else self._awaiting.heading

    @property
    def expected_link(self) -> Optional[str]:
        return None if self._awaiting is None else self._awaiting.link

    def _advance(self, row: int):
        """STEPS[row] is done: wait for the next row involving this party
        if it receives that row, else for nothing.  Unless that row is in
        the same flow, this party has completed the flow; with no such
        row at all, its outcome is "ok"."""
        step = next_step(self.role, row)
        if row >= 0 and (step is None or step.flow != STEPS[row].flow):
            self.completed[STEPS[row].flow] += 1
        if step is None:
            self.outcome = "ok"
        elif step.sender == self.role:
            step = None
        self._awaiting = step

    def _fresh(self, ts: int) -> bool:
        return freshness_check(ts, self.clock)

    def receive(self, raw: bytes, link: str) -> list[TranscriptEntry]:
        """Check a frame against the awaited row, run the step's handler,
        if any, and send the reply when this party's next row answers the
        frame; a rejected or unreadable frame meets its failure policy."""
        try:
            step, frame = self._verify(raw, link)
            handler = getattr(self, "_on_" + step.heading.name.lower(), None)
            try:
                reply = handler(frame) if handler else None
            except (CryptoError, ValueError):
                if step.unreadable is None:
                    raise
                raise Rejected(*step.unreadable) from None
        except Rejected as rejected:
            self.rejections.append((rejected.policy, rejected.reason))
            if rejected.policy == ABORT:
                self.outcome = "aborted"
                self._awaiting = None
            return []
        row = _ROW[step.sender, step.heading]
        answer = next_step(self.role, row)
        if answer is None or answer.flow != step.flow or answer.sender != self.role:
            self._advance(row)
            return []
        fields, extra = reply if isinstance(reply, tuple) else (reply or {}, [])
        return [self._send(answer.heading, frame.session, **fields)] + extra

    def _verify(self, raw: bytes, link: str) -> tuple[Step, SimpleNamespace]:
        try:
            msg = decode_message(raw)
        except WireError:
            raise Rejected(DROP, "undecodable frame") from None
        step = self._awaiting
        if step is None or msg.heading != step.heading or link != step.link:
            raise Rejected(DROP, "unexpected heading")
        if step.session is not None and msg.session != getattr(self, step.session):
            raise Rejected(DROP, "session mismatch")
        frame = step.read(msg)
        if frame is None:
            raise Rejected(DROP, "field count")
        frame.ts = frame.key = None
        if step.ts is not None:
            try:
                frame.ts = ts_from_bytes(getattr(frame, step.ts))
            except WireError:
                raise Rejected(DROP, "bad timestamp") from None
            if not self._fresh(frame.ts):
                raise Rejected(DROP, "stale timestamp")
        if step.key is not None:
            frame.key = getattr(self, step.key)
        if step.check is not None:
            getattr(self, step.check)(frame)
        if step.key is not None and not self.crypto.mac_verify(
            frame.key,
            step.covered(msg.session, msg.fields[:-1]),
            frame.tag,
        ):
            raise Rejected(*step.on_mac_failure)
        return step, frame

    def _send(self, heading: Heading, session: int, **fields: bytes) -> TranscriptEntry:
        """Encode this party's frame for a step from its named fields,
        reading a timestamp left out off the clock, and advance past the
        step."""
        row = _ROW[self.role, heading]
        step = STEPS[row]
        if step.ts is not None:
            fields.setdefault(step.ts, u64_bytes(self.clock))
        key = None if step.key is None else getattr(self, step.key)
        payload = step.encode(session, fields, self.crypto, key)
        self._advance(row)
        return TranscriptEntry("wire", step.link, self.role, step.receiver, payload)


class Smartphone(Party):
    role = "smartphone"

    def __init__(
        self,
        seed: int,
        config: SystemConfig,
        smartphone_id: bytes,
        implant_id: bytes,
        ca_public_key,
        doctor_oob_directory: dict[bytes, str],
    ):
        super().__init__(seed, config)
        self.smartphone_id = smartphone_id
        self.implant_id = implant_id
        self.ca_public_key = ca_public_key
        self.doctor_oob_directory = dict(doctor_oob_directory)
        self.ledger = EvidenceLedger()

        self.pair_session: Optional[int] = None
        self.session: Optional[int] = None
        self.k_i: Optional[SymmetricKey] = None
        self.k_p: Optional[SymmetricKey] = None
        self.k_r: Optional[SymmetricKey] = None
        self.kd_bytes: Optional[bytes] = None  # the serialized session shift key
        self.doctor_id: Optional[bytes] = None
        self.doctor_public_key = None  # verifies the doctor's write signature
        self.nonce: Optional[bytes] = None
        self.ephemeral: Optional[bytes] = None  # the X25519 scalar the nonce was sealed with
        self.rm: Optional[bytes] = None
        self.pending_sig = None
        self.pending_ts6: Optional[int] = None

    # -- pairing -----------------------------------------------------------

    def start_pair(self, master_key: SymmetricKey) -> list[TranscriptEntry]:
        """The patient typed the master key; request pairing."""
        self.k_i = derive_k_i(self.crypto, master_key, self.smartphone_id, self.implant_id)
        self.pair_session = self.rng.getrandbits(64)
        return [self._send(Heading.PAIR_REQ, self.pair_session, smartphone_id=self.smartphone_id)]

    @property
    def paired(self) -> bool:
        return "pair" in self.completed

    # -- authentication ------------------------------------------------------

    def _on_auth_req(self, frame) -> tuple[dict[str, bytes], list[TranscriptEntry]]:
        certificate = Certificate.from_bytes(frame.cert)
        if frame.doctor_id not in self.doctor_oob_directory:
            raise Rejected(STAY, "unknown doctor")
        if (
            certificate.subject_id != frame.doctor_id
            or certificate.sealing_key != frame.sealing_key
            or not self.crypto.cert_verify(self.ca_public_key, certificate)
        ):
            raise Rejected(STAY, "certificate verification failed")
        signing_key = certificate.signing_public_key()
        sealing_key = certificate.sealing_public_key()
        nonce = self.crypto.random_bytes(NONCE_BYTES)
        rm = self.crypto.random_bytes(RM_BYTES)
        k_p = derive_k_p(self.crypto, rm, frame.session, nonce)
        ephemeral = self.crypto.random_bytes(crypto.X25519_BYTES)
        challenge = self.crypto.pk_enc(sealing_key, nonce, ephemeral)
        self.session, self.doctor_id = frame.session, frame.doctor_id
        self.doctor_public_key, self.nonce, self.rm, self.k_p = signing_key, nonce, rm, k_p
        self.ephemeral = ephemeral
        oob = TranscriptEntry(
            "oob", LINK_OOB, self.role, self.doctor_oob_directory[self.doctor_id], rm
        )
        return dict(smartphone_id=self.smartphone_id, challenge=challenge), [oob]

    # -- read ------------------------------------------------------------------

    def _on_read_auth_req(self, frame) -> dict[str, bytes]:
        key_seed = self.crypto.random_bytes(16)
        kd_bytes = codec.serialize_shift_key(codec.cs_gen(key_seed, self.config.n, *ecg.WINDOW))
        k_r = derive_k_r(self.crypto, kd_bytes, self.session)
        c1 = self.crypto.sym_enc(self.k_i, length_prefixed(kd_bytes, k_r.data))
        self.kd_bytes, self.k_r = kd_bytes, k_r
        return dict(doctor_id=self.doctor_id, c1=c1)

    def _on_read_ready(self, frame) -> dict[str, bytes]:
        return dict(enc_kd=self.crypto.sym_enc(self.k_p, self.kd_bytes))

    # -- write -------------------------------------------------------------------

    def _on_write_auth_req(self, frame) -> dict[str, bytes]:
        self.pending_sig = SignatureBlob(crypto.SIGNATURE_ALGORITHM, frame.sig)
        self.pending_ts6 = frame.ts
        return dict(doctor_id=self.doctor_id)

    def _on_write_req(self, frame) -> None:
        """Log the command the implant reports, once the doctor signed it."""
        plain = self.crypto.sym_dec(self.k_i, frame.report)
        command, implant_id, ts7_raw = split_length_prefixed(plain, 3)
        ts7 = ts_from_bytes(ts7_raw)
        if implant_id != self.implant_id or not self._fresh(ts7):
            raise Rejected(ABORT, "command report mismatch")
        record = EvidenceRecord(
            doctor_id=self.doctor_id,
            smartphone_id=self.smartphone_id,
            implant_id=self.implant_id,
            ciphertext=frame.c2,
            shift_key=self.kd_bytes,
            command=command,
            timestamp=self.pending_ts6,
            signature=self.pending_sig,
        )
        if not self.crypto.verify(
            self.doctor_public_key, record.signed_bytes(), record.signature
        ):
            raise Rejected(ABORT, "write signature invalid")
        self.ledger.append(record)


class Imd(Party):
    role = "imd"

    def __init__(
        self,
        seed: int,
        config: SystemConfig,
        implant_id: bytes,
        master_key: SymmetricKey,
        data_source: Callable[[], list[codec.BoundedSignal]],
    ):
        super().__init__(seed, config)
        self.implant_id = implant_id
        self._master_key = master_key
        self.data_source = data_source

        self.session: Optional[int] = None
        self.session_doctor: Optional[bytes] = None
        self.k_i: Optional[SymmetricKey] = None
        self.shift_key: Optional[codec.ShiftKey] = None
        self.k_r: Optional[SymmetricKey] = None
        self.c2_bytes: Optional[bytes] = None
        self.pending_cmd: Optional[bytes] = None
        self.applied_commands: list[bytes] = []

    def _derive_pairing_key(self, frame):
        """K_I for the claimed smartphone id; the PAIR_REQ MAC is under it."""
        frame.key = derive_k_i(
            self.crypto, self._master_key, frame.smartphone_id, self.implant_id
        )

    def _on_pair_req(self, frame) -> None:
        self.k_i = frame.key

    def _on_read_allow(self, frame) -> None:
        plain = self.crypto.sym_dec(self.k_i, frame.c1)
        kd_bytes, kr_bytes = split_length_prefixed(plain, 2)
        self.shift_key, self.k_r = codec.deserialize_shift_key(kd_bytes), SymmetricKey(kr_bytes)
        self.session, self.session_doctor = frame.session, frame.doctor_id

    def _on_read_req(self, frame) -> dict[str, bytes]:
        phi = self.config.sensing_matrix()
        blobs = []
        for signal in self.data_source():
            cipher = codec.cs_enc(self.shift_key, signal, phi)
            self.crypto.counters["cs_enc"] += 1
            if self.config.qs:
                cipher = codec.quantize(cipher, self.config.qs)
            blobs.append(codec.serialize_ciphertext(cipher))
        self.c2_bytes = pack_signals(blobs)
        return dict(c2=self.c2_bytes)

    def _check_session_doctor(self, frame):
        if frame.doctor_id != self.session_doctor:
            raise Rejected(DROP, "doctor mismatch")

    def _on_write_req(self, frame) -> dict[str, bytes]:
        cmd = self.crypto.sym_dec(self.k_r, frame.c3)
        report = self.crypto.sym_enc(
            self.k_i, length_prefixed(cmd, self.implant_id, u64_bytes(self.clock))
        )
        self.pending_cmd = cmd
        return dict(c2=self.c2_bytes, report=report)

    def _on_set_allow(self, frame) -> None:
        self.applied_commands.append(self.pending_cmd)
        self.pending_cmd = None


class Programmer(Party):
    role = "programmer"

    def __init__(
        self,
        seed: int,
        config: SystemConfig,
        credentials: Credentials,
        target_implant_id: bytes,
        reconstruct: bool = True,
    ):
        super().__init__(seed, config)
        self.credentials = credentials
        self.doctor_id = credentials.certificate.subject_id
        self.target_implant_id = target_implant_id
        self.reconstruct = reconstruct

        self.session: Optional[int] = None
        self.smartphone_id: Optional[bytes] = None
        self.nonce: Optional[bytes] = None
        self.rm: Optional[bytes] = None
        self.k_p: Optional[SymmetricKey] = None
        self.k_r: Optional[SymmetricKey] = None
        self.shift_key: Optional[codec.ShiftKey] = None
        self.kd_bytes: Optional[bytes] = None  # shift_key as received and signed
        self.c2_bytes: Optional[bytes] = None
        self.recovered_signals: list[np.ndarray] = []
        self.command: Optional[bytes] = None

    # -- authentication ----------------------------------------------------

    def start_auth(self) -> list[TranscriptEntry]:
        self.session = self.rng.getrandbits(64)
        cert = self.credentials.certificate
        fields = dict(doctor_id=self.doctor_id, sealing_key=cert.sealing_key, cert=cert.to_bytes())
        return [self._send(Heading.AUTH_REQ, self.session, **fields)]

    def _on_auth_req(self, frame) -> None:
        self.nonce = self.crypto.pk_dec(self.credentials.sealing_key, frame.challenge)
        self.smartphone_id = frame.smartphone_id

    def enter_rm(self, rm: bytes):
        """The doctor reads RM off their phone and types it in."""
        if "auth" not in self.completed:
            raise ProtocolError("authentication has not completed")
        self.rm = rm
        self.k_p = derive_k_p(self.crypto, rm, self.session, self.nonce)

    @property
    def authenticated(self) -> bool:
        """The auth flow completed and the doctor entered RM."""
        return "auth" in self.completed and self.rm is not None

    # -- read -------------------------------------------------------------------

    def start_read(self) -> list[TranscriptEntry]:
        if not self.authenticated:
            raise NotReady("read requires completed authentication")
        return [self._send(Heading.READ_AUTH_REQ, self.session)]

    def _on_read_ready(self, frame) -> None:
        kd_bytes = self.crypto.sym_dec(self.k_p, frame.enc_kd)
        shift_key = codec.deserialize_shift_key(kd_bytes)
        k_r = derive_k_r(self.crypto, kd_bytes, self.session)
        self.shift_key, self.kd_bytes, self.k_r = shift_key, kd_bytes, k_r

    def _on_read_req(self, frame) -> None:
        # every signal is de-shifted, so reconstruct changes no verdict
        phi = self.config.sensing_matrix()
        received = [
            (cipher, codec.cs_deshift(self.shift_key, cipher, phi, *ecg.WINDOW))
            for cipher in map(codec.deserialize_ciphertext, unpack_signals(frame.c2))
        ]
        signals = []
        if self.reconstruct:
            psi = self.config.basis()
            signals = [
                recovery.omp_reconstruct(y, phi, psi, recovery.quantization_params(cipher))[1]
                for cipher, y in received
            ]
        self.c2_bytes = frame.c2
        self.recovered_signals.extend(signals)

    @property
    def read_complete(self) -> bool:
        return "read" in self.completed

    # -- write --------------------------------------------------------------------

    def start_write(self, command: bytes) -> list[TranscriptEntry]:
        if not self.read_complete:
            raise NotReady("write requires a completed read in this session")
        if len(command) > 256:
            raise ProtocolError("command too long")
        self.command = command
        record = EvidenceRecord(
            doctor_id=self.doctor_id,
            smartphone_id=self.smartphone_id,
            implant_id=self.target_implant_id,
            ciphertext=self.c2_bytes,
            shift_key=self.kd_bytes,
            command=command,
            timestamp=self.clock,
        )
        sig = self.crypto.sign(self.credentials.signing_key, record.signed_bytes())
        return [self._send(Heading.WRITE_AUTH_REQ, self.session, sig=sig.data)]

    def _on_write_ready(self, frame) -> dict[str, bytes]:
        return dict(c3=self.crypto.sym_enc(self.k_r, self.command))

    @property
    def write_complete(self) -> bool:
        return "write" in self.completed
