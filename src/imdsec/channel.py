"""Deterministic message scheduler with one attacker hook.

All traffic flows through one FIFO queue of TranscriptEntry records: a
party's send builds the record, and delivering it advances the
simulated clock by one second, stamps the record with that time and
appends it to the transcript as its sender sent it, before the
attacker's intercept hook runs.  The hook may then replace, drop or
inject frames on any link; what it delivers instead is not recorded, so
a flipped, duplicated or injected frame is not in the transcript.  An
eavesdropper's view is the transcript's wire entries.  The out-of-band
channel (the RM text to the doctor's phone) is invisible to the
attacker unless the degraded flag is set; its transcript entry is the
RM's only record.  The scheduler has one way in, submit (initiate runs a
flow's opener at the scheduler's clock and submits what it sends), and
one clock, which it sets on each party before the party acts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .parties import Party

__all__ = ["TranscriptEntry", "Transcript", "Attacker", "Scheduler"]

MAX_QUIET_STEPS = 10_000  # deliveries before run_until_quiet gives up


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
    """Append-only record of every frame sent on a channel."""

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
    """Base attacker: a passive tap that passes everything through.

    intercept() returns None to deliver the original frame, or a list of
    frames to deliver instead (empty list = drop).  observe_oob() fires
    only when the out-of-band channel is marked exposed.
    """

    degraded_oob = False

    def intercept(self, entry: TranscriptEntry) -> Optional[list[bytes]]:
        return None

    def observe_oob(self, entry: TranscriptEntry):
        pass


class Scheduler:
    """Owns the clock, the queue, and the party registry."""

    def __init__(self, parties: dict[str, Party], attacker: Optional[Attacker] = None):
        self.parties = parties
        self.attacker = attacker
        self.clock = 0
        self.transcript = Transcript()
        self._queue: deque[TranscriptEntry] = deque()

    def submit(self, frames: Iterable[TranscriptEntry]):
        """Queue the frames a party sent."""
        self._queue.extend(frames)

    def initiate(self, role: str, action) -> None:
        """Run an initiator callback (e.g. start_pair) at the current clock."""
        party = self.parties[role]
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
            return True

        payloads: list[bytes] = [entry.payload]
        if self.attacker is not None:
            replacement = self.attacker.intercept(entry)
            if replacement is not None:
                payloads = replacement
        receiver = self.parties[entry.receiver]
        for payload in payloads:
            receiver.clock = self.clock
            self.submit(receiver.receive(payload, entry.link))
        return True

    def run_until_quiet(self):
        steps = 0
        while self.step():
            steps += 1
            if steps > MAX_QUIET_STEPS:
                raise RuntimeError("scheduler did not quiesce")
