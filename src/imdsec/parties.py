"""Per-party state machines for pairing, authentication, read and write.

Every protocol step is one row of STEPS: who sends which heading to
whom on which link, the names of the frame's fields, the field holding
its timestamp, the key of its MAC, the party attribute its session
number must match, and what a MAC failure does.  Party.receive checks
every frame against its row in one fixed order:

    expected heading and link -> session -> field count -> timestamp
    parse -> freshness -> step pre-check -> MAC -> handler

A MAC is always the last field and covers auth_bytes(heading, session,
earlier fields); the implant's telemetry READ_REQ leaves the heading
byte out.  Outgoing frames are built by Party._send from the same rows,
so each covered field list is written once, and each frame goes to its
row's receiver as the channel.TranscriptEntry that the scheduler
delivers and records.  Handlers, named _on_<heading>, hold only each
step's effects.

Each session key has one derivation, a single KDF call, used by every
party that needs the key (and by the attacks):

- derive_k_i: K_I from the patient's master key and both device ids;
- derive_k_p: K_P from the out-of-band RM, the session number and the
  nonce the doctor RSA-decrypts (both factors are needed);
- derive_k_r: K_R from the serialized shift key and the session number.

Every party is single-threaded, and STEPS alone sets its progress: it
stores the one row it waits for, or none.  Once a party has received or
sent row i, it waits for the first later row addressed to it.  If a row
that it sends comes first, it waits for nothing: either its handler is
sending that row, or it must open the next flow itself (start_read,
start_write).  Once no later row involves the party, its outcome is
"ok".  Party._send advances the party from the row it sent; a received
row advances it only when the handler sent nothing.  A rejected frame
meets one of three failure policies:

- drop: counted in ``drops`` and otherwise ignored.  Every structural
  failure takes this path, and so does a failed pairing MAC, so probing
  an unpaired implant reveals nothing.
- stay: a counted drop that also records the reason in ``incidents``;
  the flow keeps waiting.  A frame anyone could have injected takes this
  path: an AUTH_REQ whose doctor or certificate does not check out, an
  undecryptable challenge, shift key or command report, and a failed
  read-authorisation or read-allowance MAC.
- abort: the flow ends with ``outcome == "aborted"`` and an
  ``abort_reason``, and the party waits for nothing.

Links: "s-i" smartphone<->implant, "s-d" smartphone<->programmer,
"d-i" programmer<->implant, plus the out-of-band channel to the
doctor's phone, which carries only the random message RM.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from . import codec, recovery
from .channel import TranscriptEntry
from .crypto import (
    Certificate,
    CryptoError,
    CryptoSuite,
    DecryptionError,
    KeyPairWithCert,
    SignatureBlob,
    SymmetricKey,
    length_prefixed,
    split_length_prefixed,
)
from .evidence import EvidenceLedger, EvidenceRecord, signed_payload
from .wire import (
    Heading,
    WireError,
    WireMessage,
    auth_bytes,
    decode_message,
    encode_message,
    freshness_check,
    ts_bytes,
    ts_from_bytes,
    u64_bytes,
)

__all__ = [
    "ProtocolError",
    "Rejected",
    "SystemConfig",
    "Step",
    "STEPS",
    "derive_k_i",
    "derive_k_p",
    "derive_k_r",
    "next_step",
    "Party",
    "pack_signals",
    "unpack_signals",
    "Smartphone",
    "Imd",
    "Programmer",
    "DoctorPhone",
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


class Rejected(Exception):
    """A frame failed a check; policy is DROP, STAY or ABORT."""

    def __init__(self, policy: str, reason: str):
        super().__init__(reason)
        self.policy = policy
        self.reason = reason


@dataclass(frozen=True)
class SystemConfig:
    """Public parameters shared by all parties."""

    n: int = 512
    L1: int = 590
    L2: int = 1487
    cr: float = 50.0
    qs: int = 20  # 0 = transmit unquantized measurements
    matrix_seed: bytes = b"public-sensing-matrix"

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

    fields name the frame's fields; with a key, a MAC tag under that
    party attribute follows them.  ts names the field holding an 8-byte
    timestamp that must be fresh.  session names the receiver attribute
    the session number must equal (None: the step opens a session).
    check names a receiver method run after freshness and before the
    MAC; it may raise Rejected or replace frame.key.
    """

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

    def covered(self, session: int, fields: Sequence[bytes]) -> bytes:
        """The bytes the MAC covers."""
        return auth_bytes(self.heading if self.mac_heading else None, session, fields)


STEPS = (
    # pairing
    Step("smartphone", "imd", Heading.PAIR_REQ, LINK_SI, ("smartphone_id", "ts1"),
         ts="ts1", key="k_i", on_mac_failure=(DROP, "pairing MAC failure"),
         session=None, check="_derive_pairing_key"),
    Step("imd", "smartphone", Heading.PAIR_SUCC, LINK_SI, session="pair_session"),
    # authentication
    Step("programmer", "smartphone", Heading.AUTH_REQ, LINK_SD,
         ("doctor_id", "ts2", "pk_der", "cert"), ts="ts2", session=None,
         check="_check_certificate"),
    Step("smartphone", "programmer", Heading.AUTH_REQ, LINK_SD,
         ("smartphone_id", "challenge")),
    # read
    Step("programmer", "smartphone", Heading.READ_AUTH_REQ, LINK_SD, ("ts4",),
         ts="ts4", key="k_p", on_mac_failure=(STAY, "read auth MAC failure")),
    Step("smartphone", "imd", Heading.READ_ALLOW, LINK_SI, ("doctor_id", "c1", "ts5"),
         ts="ts5", key="k_i", on_mac_failure=(STAY, "read allow MAC failure"),
         session=None),
    Step("imd", "smartphone", Heading.READ_READY, LINK_SI),
    Step("smartphone", "programmer", Heading.READ_READY, LINK_SD, ("enc_kd",)),
    Step("programmer", "imd", Heading.READ_REQ, LINK_DI),
    Step("imd", "programmer", Heading.READ_REQ, LINK_DI, ("c2",), key="k_r",
         on_mac_failure=(ABORT, "telemetry MAC failure"), mac_heading=False),
    # write
    Step("programmer", "smartphone", Heading.WRITE_AUTH_REQ, LINK_SD, ("sig", "ts6"),
         ts="ts6", key="k_p", on_mac_failure=(ABORT, "write auth MAC failure")),
    Step("smartphone", "imd", Heading.WRITE_ALLOW, LINK_SI, ("doctor_id", "ts7"),
         ts="ts7", key="k_i", on_mac_failure=(ABORT, "write enable MAC failure"),
         check="_check_session_doctor"),
    Step("imd", "smartphone", Heading.WRITE_READY, LINK_SI),
    Step("smartphone", "programmer", Heading.WRITE_READY, LINK_SD),
    Step("programmer", "imd", Heading.WRITE_REQ, LINK_DI, ("c3",), key="k_r",
         on_mac_failure=(ABORT, "command MAC failure")),
    Step("imd", "smartphone", Heading.WRITE_REQ, LINK_SI, ("c2", "report"),
         check="_open_command_report"),
    Step("smartphone", "imd", Heading.SET_ALLOW, LINK_SI, ("ts8",), ts="ts8",
         key="k_i", on_mac_failure=(ABORT, "apply authorization MAC failure")),
    Step("imd", "programmer", Heading.WRITE_SUCC, LINK_DI),
)

# (sender, heading) names one row
_ROW = {(step.sender, step.heading): i for i, step in enumerate(STEPS)}


def next_step(role: str, row: int) -> Optional[Step]:
    """The first row after STEPS[row] (row -1: from the start) that
    involves role, or None when no later row does."""
    return next((s for s in STEPS[row + 1 :] if role in (s.sender, s.receiver)), None)


def derive_k_i(
    suite: CryptoSuite, master_key: SymmetricKey, smartphone_id: bytes, implant_id: bytes
) -> SymmetricKey:
    """Pairing key: the patient's master key bound to both device ids."""
    return suite.kdf(length_prefixed(master_key.data, smartphone_id, implant_id))


def derive_k_p(suite: CryptoSuite, rm: bytes, session: int, nonce: bytes) -> SymmetricKey:
    """Programmer key: the out-of-band RM plus the RSA-decrypted nonce."""
    return suite.kdf(length_prefixed(rm, u64_bytes(session), nonce))


def derive_k_r(suite: CryptoSuite, kd_bytes: bytes, session: int) -> SymmetricKey:
    """Read/write key bound to the serialized shift key."""
    return suite.kdf(length_prefixed(kd_bytes, u64_bytes(session)))


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

    role: str  # the sender/receiver name of this party's STEPS rows

    def __init__(self, name: str, seed: int, config: SystemConfig):
        self.name = name
        self.config = config
        self.rng = random.Random(seed)
        self.crypto = CryptoSuite(rng=random.Random(seed ^ 0x5EED))
        self.clock: int = 0
        self.outcome: str = "idle"
        self.abort_reason: Optional[str] = None
        self.drops: int = 0
        self.incidents: list[str] = []
        self._advance(-1)

    @property
    def expected(self) -> Optional[Heading]:
        """Heading of the awaited row; None while waiting for nothing."""
        return None if self._awaiting is None else self._awaiting.heading

    @property
    def expected_link(self) -> Optional[str]:
        return None if self._awaiting is None else self._awaiting.link

    def _advance(self, row: int):
        """STEPS[row] is done: wait for the next row involving this party
        if it receives that row, else for nothing; with no such row, the
        flow is over."""
        step = next_step(self.role, row)
        if step is None:
            self.outcome = "ok"
        elif step.sender == self.role:
            step = None
        self._awaiting = step

    def _fresh(self, ts: int) -> bool:
        return freshness_check(ts, self.clock)

    def receive(self, raw: bytes, link: str) -> list[TranscriptEntry]:
        """Check a frame against the awaited row and run the step's
        handler; a rejected frame is handled by its failure policy."""
        try:
            step, frame = self._verify(raw, link)
            sent = getattr(self, "_on_" + step.heading.name.lower())(frame)
        except Rejected as rejected:
            if rejected.policy == ABORT:
                self.outcome = "aborted"
                self.abort_reason = rejected.reason
                self._awaiting = None
            else:
                self.drops += 1
                if rejected.policy == STAY:
                    self.incidents.append(rejected.reason)
            return []
        if not sent:
            self._advance(_ROW[step.sender, step.heading])
        return sent

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
        names = step.fields + (("tag",) if step.key else ())
        if len(msg.fields) != len(names):
            raise Rejected(DROP, "field count")
        frame = SimpleNamespace(session=msg.session, ts=None, key=None)
        frame.__dict__.update(zip(names, msg.fields))
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

    def _send(self, heading: Heading, session: int, *fields: bytes) -> TranscriptEntry:
        """Encode this party's frame for a step, appending its MAC tag,
        and advance past the step."""
        row = _ROW[self.role, heading]
        step = STEPS[row]
        if step.key is not None:
            key = getattr(self, step.key)
            fields += (self.crypto.mac(key, step.covered(session, fields)),)
        self._advance(row)
        payload = encode_message(WireMessage(heading, session, fields))
        return TranscriptEntry("wire", step.link, self.role, step.receiver, payload)


class DoctorPhone:
    """Holds the doctor's out-of-band address; stores the RM it receives."""

    def __init__(self, name: str = "doctor-phone"):
        self.name = name
        self.rm: Optional[bytes] = None

    def receive_oob(self, payload: bytes):
        self.rm = payload


class Smartphone(Party):
    role = "smartphone"

    def __init__(
        self,
        name: str,
        seed: int,
        config: SystemConfig,
        smartphone_id: bytes,
        implant_id: bytes,
        ca_public_key,
        doctor_oob_directory: dict[bytes, str],
        ledger: Optional[EvidenceLedger] = None,
    ):
        super().__init__(name, seed, config)
        self.smartphone_id = smartphone_id
        self.implant_id = implant_id
        self.ca_public_key = ca_public_key
        self.doctor_oob_directory = dict(doctor_oob_directory)
        self.ledger = ledger if ledger is not None else EvidenceLedger()

        self.pair_session: Optional[int] = None
        self.session: Optional[int] = None
        self.paired = False
        self.k_i: Optional[SymmetricKey] = None
        self.k_p: Optional[SymmetricKey] = None
        self.k_r: Optional[SymmetricKey] = None
        self.shift_key: Optional[codec.ShiftKey] = None
        self.doctor_id: Optional[bytes] = None
        self.doctor_public_key = None
        self.nonce: Optional[bytes] = None
        self.rm: Optional[bytes] = None
        self.pending_sig = None
        self.pending_ts6: Optional[int] = None

    # -- pairing -----------------------------------------------------------

    def start_pair(self, master_key: SymmetricKey) -> list[TranscriptEntry]:
        """The patient typed the master key; request pairing."""
        self.k_i = derive_k_i(self.crypto, master_key, self.smartphone_id, self.implant_id)
        self.pair_session = self.rng.getrandbits(64)
        return [
            self._send(
                Heading.PAIR_REQ,
                self.pair_session,
                self.smartphone_id,
                ts_bytes(self.clock),
            )
        ]

    def _on_pair_succ(self, frame) -> list[TranscriptEntry]:
        self.paired = True
        return []

    # -- authentication ------------------------------------------------------

    def _check_certificate(self, frame):
        try:
            frame.certificate = Certificate.from_bytes(frame.cert)
        except (CryptoError, ValueError):
            raise Rejected(DROP, "certificate unparseable") from None
        if frame.doctor_id not in self.doctor_oob_directory:
            raise Rejected(STAY, "unknown doctor")
        if (
            frame.certificate.subject_id != frame.doctor_id
            or frame.certificate.public_key_der != frame.pk_der
            or not self.crypto.cert_verify(self.ca_public_key, frame.certificate)
        ):
            raise Rejected(STAY, "certificate verification failed")

    def _on_auth_req(self, frame) -> list[TranscriptEntry]:
        self.session = frame.session
        self.doctor_id = frame.doctor_id
        self.doctor_public_key = frame.certificate.public_key()
        self.nonce = self.crypto.random_bytes(NONCE_BYTES)
        self.rm = self.crypto.random_bytes(RM_BYTES)
        self.k_p = derive_k_p(self.crypto, self.rm, self.session, self.nonce)
        challenge = self.crypto.pk_enc(self.doctor_public_key, self.nonce)
        return [
            self._send(
                Heading.AUTH_REQ, self.session, self.smartphone_id, challenge
            ),
            TranscriptEntry(
                "oob", LINK_OOB, self.role, self.doctor_oob_directory[self.doctor_id], self.rm
            ),
        ]

    # -- read ------------------------------------------------------------------

    def _on_read_auth_req(self, frame) -> list[TranscriptEntry]:
        key_seed = self.crypto.random_bytes(16)
        self.shift_key = codec.cs_gen(
            key_seed, self.config.n, self.config.L1, self.config.L2
        )
        kd_bytes = codec.serialize_shift_key(self.shift_key)
        self.k_r = derive_k_r(self.crypto, kd_bytes, self.session)
        c1 = self.crypto.sym_enc(
            self.k_i, length_prefixed(kd_bytes, self.k_r.data)
        )
        return [
            self._send(
                Heading.READ_ALLOW,
                self.session,
                self.doctor_id,
                c1,
                ts_bytes(self.clock),
            )
        ]

    def _on_read_ready(self, frame) -> list[TranscriptEntry]:
        kd_bytes = codec.serialize_shift_key(self.shift_key)
        enc_kd = self.crypto.sym_enc(self.k_p, kd_bytes)
        return [self._send(Heading.READ_READY, self.session, enc_kd)]

    # -- write -------------------------------------------------------------------

    def _on_write_auth_req(self, frame) -> list[TranscriptEntry]:
        self.pending_sig = SignatureBlob("rsa-pkcs1v15-sha256", frame.sig)
        self.pending_ts6 = frame.ts
        return [
            self._send(
                Heading.WRITE_ALLOW,
                self.session,
                self.doctor_id,
                ts_bytes(self.clock),
            )
        ]

    def _on_write_ready(self, frame) -> list[TranscriptEntry]:
        return [self._send(Heading.WRITE_READY, self.session)]

    def _open_command_report(self, frame):
        """Decrypt the implant's report of the command it is about to apply."""
        try:
            plain = self.crypto.sym_dec(self.k_i, frame.report)
            frame.command, implant_id, ts7_raw = split_length_prefixed(plain, 3)
            ts7 = ts_from_bytes(ts7_raw)
        except (CryptoError, ValueError):
            raise Rejected(STAY, "command report unreadable") from None
        if implant_id != self.implant_id or not self._fresh(ts7):
            raise Rejected(ABORT, "command report mismatch")

    def _on_write_req(self, frame) -> list[TranscriptEntry]:
        kd_bytes = codec.serialize_shift_key(self.shift_key)
        payload = signed_payload(
            self.doctor_id,
            self.smartphone_id,
            self.implant_id,
            frame.c2,
            kd_bytes,
            frame.command,
            self.pending_ts6,
        )
        if not self.crypto.verify(self.doctor_public_key, payload, self.pending_sig):
            self.incidents.append("write signature verification failed")
            raise Rejected(ABORT, "write signature invalid")
        record = EvidenceRecord(
            doctor_id=self.doctor_id,
            smartphone_id=self.smartphone_id,
            implant_id=self.implant_id,
            shift_key=kd_bytes,
            ciphertext=frame.c2,
            command=frame.command,
            timestamp=self.pending_ts6,
            signature=self.pending_sig,
        )
        self.ledger.append(record)
        return [self._send(Heading.SET_ALLOW, self.session, ts_bytes(self.clock))]


class Imd(Party):
    role = "imd"

    def __init__(
        self,
        name: str,
        seed: int,
        config: SystemConfig,
        implant_id: bytes,
        master_key: SymmetricKey,
        data_source: Callable[[], list[codec.BoundedSignal]],
    ):
        super().__init__(name, seed, config)
        self.implant_id = implant_id
        self._master_key = master_key
        self.data_source = data_source

        self.pair_session: Optional[int] = None
        self.session: Optional[int] = None
        self.paired_smartphone: Optional[bytes] = None
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

    def _on_pair_req(self, frame) -> list[TranscriptEntry]:
        self.k_i = frame.key
        self.pair_session = frame.session
        self.paired_smartphone = frame.smartphone_id
        return [self._send(Heading.PAIR_SUCC, frame.session)]

    def _on_read_allow(self, frame) -> list[TranscriptEntry]:
        try:
            plain = self.crypto.sym_dec(self.k_i, frame.c1)
            kd_bytes, kr_bytes = split_length_prefixed(plain, 2)
            self.shift_key = codec.deserialize_shift_key(kd_bytes)
            self.k_r = SymmetricKey(kr_bytes)
        except (codec.CodecError, WireError, CryptoError):
            raise Rejected(DROP, "key delivery unreadable") from None
        self.session = frame.session
        self.session_doctor = frame.doctor_id
        return [self._send(Heading.READ_READY, frame.session)]

    def _on_read_req(self, frame) -> list[TranscriptEntry]:
        phi = self.config.sensing_matrix()
        blobs = []
        for signal in self.data_source():
            cipher = codec.cs_enc(self.shift_key, signal, phi)
            self.crypto.count_external("cs_enc")
            if self.config.qs:
                cipher = codec.quantize(cipher, self.config.qs)
            blobs.append(codec.serialize_ciphertext(cipher))
        self.c2_bytes = pack_signals(blobs)
        return [self._send(Heading.READ_REQ, frame.session, self.c2_bytes)]

    def _check_session_doctor(self, frame):
        if frame.doctor_id != self.session_doctor:
            raise Rejected(DROP, "doctor mismatch")

    def _on_write_allow(self, frame) -> list[TranscriptEntry]:
        return [self._send(Heading.WRITE_READY, frame.session)]

    def _on_write_req(self, frame) -> list[TranscriptEntry]:
        try:
            cmd = self.crypto.sym_dec(self.k_r, frame.c3)
        except DecryptionError:
            raise Rejected(ABORT, "command decryption failure") from None
        self.pending_cmd = cmd
        report = self.crypto.sym_enc(
            self.k_i,
            length_prefixed(cmd, self.implant_id, ts_bytes(self.clock)),
        )
        return [self._send(Heading.WRITE_REQ, frame.session, self.c2_bytes, report)]

    def _on_set_allow(self, frame) -> list[TranscriptEntry]:
        self.applied_commands.append(self.pending_cmd)
        self.pending_cmd = None
        return [self._send(Heading.WRITE_SUCC, frame.session)]


class Programmer(Party):
    role = "programmer"

    def __init__(
        self,
        name: str,
        seed: int,
        config: SystemConfig,
        credentials: KeyPairWithCert,
        target_implant_id: bytes,
        reconstruct: bool = True,
    ):
        super().__init__(name, seed, config)
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
        self.c2_bytes: Optional[bytes] = None
        self.recovered_signals: list[np.ndarray] = []
        self.command: Optional[bytes] = None
        self.write_complete = False

    # -- authentication ----------------------------------------------------

    def start_auth(self) -> list[TranscriptEntry]:
        self.session = self.rng.getrandbits(64)
        return [
            self._send(
                Heading.AUTH_REQ,
                self.session,
                self.doctor_id,
                ts_bytes(self.clock),
                self.credentials.certificate.public_key_der,
                self.credentials.certificate.to_bytes(),
            )
        ]

    def _on_auth_req(self, frame) -> list[TranscriptEntry]:
        try:
            self.nonce = self.crypto.pk_dec(self.credentials.private_key, frame.challenge)
        except DecryptionError:
            raise Rejected(STAY, "nonce challenge unreadable") from None
        self.smartphone_id = frame.smartphone_id
        return []

    def enter_rm(self, rm: bytes):
        """The doctor reads RM off their phone and types it in."""
        if self.nonce is None:
            raise ProtocolError("no authentication in progress")
        self.rm = rm
        self.k_p = derive_k_p(self.crypto, rm, self.session, self.nonce)

    @property
    def authenticated(self) -> bool:
        return self.k_p is not None

    # -- read -------------------------------------------------------------------

    def start_read(self) -> list[TranscriptEntry]:
        if not self.authenticated:
            raise ProtocolError("read requires completed authentication")
        return [self._send(Heading.READ_AUTH_REQ, self.session, ts_bytes(self.clock))]

    def _on_read_ready(self, frame) -> list[TranscriptEntry]:
        try:
            kd_bytes = self.crypto.sym_dec(self.k_p, frame.enc_kd)
            self.shift_key = codec.deserialize_shift_key(kd_bytes)
        except (DecryptionError, codec.CodecError):
            raise Rejected(STAY, "shift key unreadable") from None
        self.k_r = derive_k_r(self.crypto, kd_bytes, self.session)
        return [self._send(Heading.READ_REQ, self.session)]

    def _on_read_req(self, frame) -> list[TranscriptEntry]:
        try:
            ciphers = [
                codec.deserialize_ciphertext(b) for b in unpack_signals(frame.c2)
            ]
        except (WireError, codec.CodecError):
            raise Rejected(ABORT, "telemetry payload malformed") from None
        self.c2_bytes = frame.c2
        if self.reconstruct:
            phi = self.config.sensing_matrix()
            psi = self.config.basis()
            for cipher in ciphers:
                y = codec.cs_deshift(
                    self.shift_key, cipher, phi, self.config.L1, self.config.L2
                )
                _, x_hat = recovery.omp_reconstruct(y, phi, psi)
                self.recovered_signals.append(x_hat)
        return []

    @property
    def read_complete(self) -> bool:
        return self.c2_bytes is not None

    # -- write --------------------------------------------------------------------

    def start_write(self, command: bytes) -> list[TranscriptEntry]:
        if not self.read_complete:
            raise ProtocolError("write requires a completed read in this session")
        if len(command) > 256:
            raise ProtocolError("command too long")
        self.command = command
        ts6 = self.clock
        kd_bytes = codec.serialize_shift_key(self.shift_key)
        sig = self.crypto.sign(
            self.credentials.private_key,
            signed_payload(
                self.doctor_id,
                self.smartphone_id,
                self.target_implant_id,
                self.c2_bytes,
                kd_bytes,
                command,
                ts6,
            ),
        )
        return [
            self._send(Heading.WRITE_AUTH_REQ, self.session, sig.data, ts_bytes(ts6))
        ]

    def _on_write_ready(self, frame) -> list[TranscriptEntry]:
        c3 = self.crypto.sym_enc(self.k_r, self.command)
        return [self._send(Heading.WRITE_REQ, self.session, c3)]

    def _on_write_succ(self, frame) -> list[TranscriptEntry]:
        self.write_complete = True
        return []
