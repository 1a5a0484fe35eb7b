"""Deterministic message scheduler with attacker taps.

All traffic flows through one FIFO queue of TranscriptEntry records: a
party's send builds the record, and delivering it advances the
simulated clock by one second, stamps the record with that time and
appends it to the transcript.  An attacker hook may observe every wire
message and replace, drop, or inject frames on any link.  The
out-of-band channel (the RM text to the doctor's phone) is invisible to
the attacker unless the degraded flag is set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .parties import DoctorPhone, Party

__all__ = ["TranscriptEntry", "Transcript", "Attacker", "Scheduler"]


@dataclass(frozen=True)
class TranscriptEntry:
    kind: str  # "wire" or "oob"
    link: str
    sender: str
    receiver: str
    payload: bytes
    time: Optional[int] = None  # stamped on delivery

    def format(self) -> str:
        return (
            f"t={self.time} kind={self.kind} link={self.link} "
            f"from={self.sender} to={self.receiver} len={len(self.payload)} "
            f"data={self.payload.hex()}"
        )


class Transcript:
    """Append-only record of everything that crossed a channel."""

    def __init__(self):
        self._entries: list[TranscriptEntry] = []

    def append(self, entry: TranscriptEntry):
        self._entries.append(entry)

    @property
    def entries(self) -> tuple[TranscriptEntry, ...]:
        return tuple(self._entries)

    def wire_entries(self) -> tuple[TranscriptEntry, ...]:
        return tuple(e for e in self._entries if e.kind == "wire")

    def dump(self) -> str:
        return "\n".join(e.format() for e in self._entries) + "\n"

    def __len__(self) -> int:
        return len(self._entries)


class Attacker:
    """Base attacker: sees every wire frame, passes everything through.

    intercept() returns None to deliver the original frame, or a list of
    frames to deliver instead (empty list = drop).  observe_oob() fires
    only when the out-of-band channel is marked exposed.
    """

    degraded_oob = False

    def observe(self, entry: TranscriptEntry):
        pass

    def intercept(self, entry: TranscriptEntry) -> Optional[list[bytes]]:
        return None

    def observe_oob(self, entry: TranscriptEntry):
        pass


class Scheduler:
    """Owns the clock, the queue, and the party registry."""

    def __init__(
        self,
        parties: dict[str, Party],
        oob_parties: Optional[dict[str, DoctorPhone]] = None,
        attacker: Optional[Attacker] = None,
        start_clock: int = 0,
    ):
        self.parties = parties
        self.oob_parties = oob_parties or {}
        self.attacker = attacker
        self.clock = start_clock
        self.transcript = Transcript()
        self._queue: deque[TranscriptEntry] = deque()
        for party in parties.values():
            party.clock = self.clock

    def submit(self, frames: Iterable[TranscriptEntry]):
        """Queue the frames a party sent."""
        self._queue.extend(frames)

    def initiate(self, party_name: str, action) -> None:
        """Run an initiator callback (e.g. start_pair) at the current clock."""
        party = self.parties[party_name]
        party.clock = self.clock
        self.submit(action())

    def step(self) -> bool:
        """Deliver one queued message; returns False when idle."""
        if not self._queue:
            return False
        self.clock += 1
        entry = replace(self._queue.popleft(), time=self.clock)
        self.transcript.append(entry)

        if entry.kind == "oob":
            if self.attacker is not None and self.attacker.degraded_oob:
                self.attacker.observe_oob(entry)
            dest = self.oob_parties.get(entry.receiver)
            if dest is not None:
                dest.receive_oob(entry.payload)
            return True

        payloads: list[bytes] = [entry.payload]
        if self.attacker is not None:
            self.attacker.observe(entry)
            replacement = self.attacker.intercept(entry)
            if replacement is not None:
                payloads = replacement
        receiver = self.parties.get(entry.receiver)
        if receiver is None:
            return True
        for payload in payloads:
            receiver.clock = self.clock
            self.submit(receiver.receive(payload, entry.link))
        return True

    def run_until_quiet(self, max_steps: int = 10_000):
        steps = 0
        while self.step():
            steps += 1
            if steps > max_steps:
                raise RuntimeError("scheduler did not quiesce")

    def deliver_raw(self, link: str, sender: str, receiver: str, payload: bytes):
        """Inject a frame directly (used for replay experiments)."""
        self._queue.append(TranscriptEntry("wire", link, sender, receiver, payload))
