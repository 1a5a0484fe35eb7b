"""Golden behaviour: fixed-seed sessions must replay byte for byte.

One sha256 covers, for every session below, the transcript dump, each
party's (outcome, abort_reason, expected, expected_link), the implant's
crypto-operation counters, and the applied-command and ledger sizes.
Drop counters are left out on purpose: they count rejections, and which
rejections are counted is a policy, not wire behaviour.

The golden ledger, tests/data/golden_ledger.txt, holds the same facts
one session per line, so a change that moves GOLDEN_SHA256 shows which
sessions moved and in which column.  Columns, tab-separated: the label,
the smartphone's, implant's and programmer's state, the implant's op
counts, the (applied commands, ledger records) sizes and the sha256 of
the transcript dump.  Rewrite it with

    PYTHONPATH=src:tests python -m test_golden --write

Sessions: honest pair/auth/read/full at n=64 (seeds 0-2) and one default
full session; 64 bit-flip sessions (occurrences 0-7 x 8 bit indices);
every recorded frame of a full session replayed into fresh worlds at the
fresh/pair/auth/read checkpoints, as acceptance test c6 does.
"""

import hashlib
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

from imdsec.attacks import BitFlipAttacker
from imdsec.parties import SystemConfig
from imdsec.scenarios import build_world, run_session
from support import replay_recorded

SMALL = SystemConfig(n=64, qs=0)
FLIP_BITS = (0, 7, 77, 130, 513, 1024, 2047, 4099)
GOLDEN_SHA256 = "1cf87ce61a2c075481a0e63286ee36914941a2d391446e2da6b0a6703d829086"
LEDGER_FILE = Path(__file__).parent / "data" / "golden_ledger.txt"
WRITE_COMMAND = "PYTHONPATH=src:tests python -m test_golden --write"


def _facts(label, world, transcript, extra=b""):
    """One session's golden facts; extra is absorbed into the digest
    after them (a bit-flip session's flipped frame)."""
    states = []
    for party in (world.smartphone, world.imd, world.programmer):
        expected = party.expected.name if party.expected is not None else None
        states.append((party.role, party.outcome, party.abort_reason, expected,
                       party.expected_link))
    return dict(
        label=label,
        dump=transcript.dump().encode(),
        states=states,
        ops=sorted(world.imd.crypto.counters.items()),
        sizes=(len(world.imd.applied_commands), len(world.smartphone.ledger)),
        extra=extra,
    )


def golden_sessions():
    """The facts of every golden session, in digest order."""
    for scenario in ("pair", "auth", "read", "full"):
        for seed in range(3):
            result = run_session(scenario, seed=seed, config=SMALL)
            yield _facts(f"{scenario}/{seed}", result.world, result.transcript)
    result = run_session("full", seed=0, config=SystemConfig())
    yield _facts("full/0/default", result.world, result.transcript)

    for occurrence in range(8):
        for bit in FLIP_BITS:
            attacker = BitFlipAttacker(occurrence, bit)
            world = build_world(
                seed=103, config=SMALL, attacker=attacker, reconstruct=False
            )
            result = run_session("full", config=SMALL, world=world)
            yield _facts(f"flip/{occurrence}/{bit}", world, result.transcript,
                         repr(attacker.flipped_frame).encode())

    recorded = run_session("full", seed=101, config=SMALL, reconstruct=False)
    frames = len(recorded.transcript.wire_entries())
    for i, (checkpoint, _, fresh, _) in enumerate(replay_recorded(recorded, seed=102)):
        yield _facts(f"replay/{checkpoint}/{i % frames}", fresh, fresh.scheduler.transcript)


def golden_digest(sessions) -> str:
    h = hashlib.sha256()
    for s in sessions:
        h.update(s["dump"])
        for state in s["states"]:
            h.update(repr(state).encode())
        h.update(repr(s["ops"]).encode())
        h.update(repr(s["sizes"]).encode())
        h.update(s["extra"])
    return h.hexdigest()


def ledger_line(s) -> str:
    ops = ",".join(f"{op}={count}" for op, count in s["ops"]) or "-"
    columns = [s["label"], *(repr(state[1:]) for state in s["states"]), ops,
               repr(s["sizes"]), hashlib.sha256(s["dump"]).hexdigest()]
    return "\t".join(columns)


@pytest.fixture(scope="module")
def sessions():
    return list(golden_sessions())


def test_golden_behaviour_hash(sessions):
    assert golden_digest(sessions) == GOLDEN_SHA256


def test_golden_ledger(sessions):
    pinned = LEDGER_FILE.read_text().splitlines()
    current = [ledger_line(s) for s in sessions]
    changed = []
    for was, now in zip_longest(pinned, current):
        if was != now:
            label = (now or was).partition("\t")[0]
            changed.append(f"{label}\n  pinned:  {was}\n  current: {now}")
    assert not changed, (
        f"{len(changed)} golden sessions differ from {LEDGER_FILE.name}; if the change "
        f"is intended, rewrite it with `{WRITE_COMMAND}`:\n" + "\n".join(changed)
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {WRITE_COMMAND}")
    LEDGER_FILE.write_text("".join(ledger_line(s) + "\n" for s in golden_sessions()))
