"""Golden behaviour hash: fixed-seed sessions must replay byte for byte.

One sha256 covers, for every session below, the transcript dump, each
party's (outcome, abort_reason, expected, expected_link), the implant's
crypto-operation counters, and the applied-command and ledger sizes.
Drop counters are left out on purpose: they count rejections, and which
rejections are counted is a policy, not wire behaviour.

Sessions: honest pair/auth/read/full at n=64 (seeds 0-2) and one default
full session; 64 bit-flip sessions (occurrences 0-7 x 8 bit indices);
every recorded frame of a full session replayed into fresh worlds at the
fresh/pair/auth/read checkpoints, as acceptance test c6 does.
"""

import hashlib

from imdsec.attacks import BitFlipAttacker
from imdsec.parties import SystemConfig
from imdsec.scenarios import build_world, run_session
from support import replay_recorded

SMALL = SystemConfig(n=64, qs=0)
FLIP_BITS = (0, 7, 77, 130, 513, 1024, 2047, 4099)
GOLDEN_SHA256 = "ad21c702b8766ad1466ff25f55adc029cb556231af497a76da900e0f5ac9fb69"


def _absorb(h, world, transcript):
    h.update(transcript.dump().encode())
    for party in (world.smartphone, world.imd, world.programmer):
        expected = party.expected.name if party.expected is not None else None
        state = (party.role, party.outcome, party.abort_reason, expected,
                 party.expected_link)
        h.update(repr(state).encode())
    h.update(repr(sorted(world.imd.crypto.counters.items())).encode())
    sizes = (len(world.imd.applied_commands), len(world.smartphone.ledger))
    h.update(repr(sizes).encode())


def golden_digest() -> str:
    h = hashlib.sha256()
    for scenario in ("pair", "auth", "read", "full"):
        for seed in range(3):
            result = run_session(scenario, seed=seed, config=SMALL)
            _absorb(h, result.world, result.transcript)
    result = run_session("full", seed=0, config=SystemConfig())
    _absorb(h, result.world, result.transcript)

    for occurrence in range(8):
        for bit in FLIP_BITS:
            attacker = BitFlipAttacker(occurrence, bit)
            world = build_world(
                seed=103, config=SMALL, attacker=attacker, reconstruct=False
            )
            result = run_session("full", config=SMALL, world=world)
            _absorb(h, world, result.transcript)
            h.update(repr(attacker.flipped_frame).encode())

    recorded = run_session("full", seed=101, config=SMALL, reconstruct=False)
    for _, _, fresh, _ in replay_recorded(recorded, seed=102):
        _absorb(h, fresh, fresh.scheduler.transcript)
    return h.hexdigest()


def test_golden_behaviour_hash():
    assert golden_digest() == GOLDEN_SHA256
