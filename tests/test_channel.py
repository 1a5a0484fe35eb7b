import random

import pytest

from imdsec.attacks import MAC_PROTECTED_FRAMES, BitFlipAttacker, DuplicateFrameAttacker
from imdsec.channel import Attacker, TranscriptEntry
from imdsec.evidence import evidence_verify
from imdsec.parties import ProtocolError, SystemConfig
from imdsec.reports import EXPECTED_IMD_OPCOUNTS, OPCOUNT_OPS
from imdsec.scenarios import SCENARIOS, build_world, drive, run_session
from imdsec.wire import Heading
from support import CHECKPOINTS, party_state, replay_recorded

FAST = SystemConfig(n=64, qs=0)


class TestDeterminism:
    def test_identical_seeds_give_identical_transcripts(self):
        a = run_session("full", seed=5, config=FAST, reconstruct=False)
        b = run_session("full", seed=5, config=FAST, reconstruct=False)
        assert a.ok and b.ok
        assert a.transcript.dump() == b.transcript.dump()

    def test_different_seeds_differ(self):
        a = run_session("pair", seed=1, config=FAST)
        b = run_session("pair", seed=2, config=FAST)
        assert a.transcript.dump() != b.transcript.dump()

    def test_lossless_in_order_without_attacker(self):
        result = run_session("full", seed=6, config=FAST, reconstruct=False)
        times = [e.time for e in result.transcript.entries]
        assert times == sorted(times)
        assert result.ok

    def test_a_wire_frame_to_no_party_raises(self):
        world = build_world(seed=1, config=FAST)
        world.scheduler.submit([TranscriptEntry("wire", "s-i", "smartphone", "nobody", b"x")])
        with pytest.raises(KeyError, match="nobody"):
            world.scheduler.step()


class TestGivenWorld:
    @pytest.mark.parametrize(
        "setting, match",
        [
            ({"config": SystemConfig(n=64)}, "differs from the world's"),
            ({"seed": 3}, "a given world has its own"),
            ({"reconstruct": False}, "a given world has its own"),
        ],
        ids=["config", "seed", "reconstruct"],
    )
    def test_settings_of_another_world_are_refused(self, setting, match):
        world = build_world(seed=1)
        with pytest.raises(ValueError, match=match):
            run_session("pair", world=world, **setting)
        assert len(world.scheduler.transcript) == 0

    def test_the_worlds_own_config_is_accepted(self):
        world = build_world(seed=1, config=FAST)
        result = run_session("pair", config=SystemConfig(n=64, qs=0), world=world)
        assert result.ok and result.world is world

    def test_drive_continues_a_paired_world(self):
        world = build_world(seed=4, config=FAST)
        assert run_session("pair", world=world).ok
        result = drive(world, ("auth", "read", "write"))
        assert result.ok
        assert {
            flow: {op: counts[op] for op in OPCOUNT_OPS}
            for flow, counts in result.imd_op_counts.items()
        } == {flow: EXPECTED_IMD_OPCOUNTS[flow] for flow in ("auth", "read", "write")}
        whole = run_session("full", seed=4, config=FAST)
        assert world.scheduler.transcript.dump() == whole.transcript.dump()

    def test_a_flow_named_twice_is_refused(self):
        world = build_world(seed=4, config=FAST)
        with pytest.raises(ValueError, match="'pair' named twice"):
            drive(world, ("pair", "pair"))
        assert len(world.scheduler.transcript) == 0

    @pytest.mark.parametrize("flow", ["read", "write"])
    def test_a_flow_before_the_one_it_needs_reads_false(self, flow):
        world = build_world(seed=4, config=FAST, reconstruct=False)
        result = drive(world, (flow,))
        assert result.phases == {flow: False} and result.imd_op_counts == {}
        assert len(world.scheduler.transcript) == 0
        result = drive(world, ("pair", "auth", "write"))
        assert result.phases == {"pair": True, "auth": True, "write": False}

    def test_an_over_long_command_still_raises(self):
        world = build_world(seed=4, config=FAST, reconstruct=False)
        with pytest.raises(ProtocolError, match="command too long"):
            drive(world, SCENARIOS["full"], command=bytes(257))


class TestPassiveAttacker:
    def test_observer_never_alters_honest_outcomes(self):
        baseline = run_session("full", seed=7, config=FAST, reconstruct=False)
        world = build_world(seed=7, config=FAST, attacker=Attacker(), reconstruct=False)
        observed = run_session("full", config=FAST, world=world)
        assert observed.ok
        assert observed.transcript.dump() == baseline.transcript.dump()

    def test_eavesdropper_sees_ciphertext_but_no_secrets(self):
        world = build_world(seed=8, attacker=Attacker())
        result = run_session("read", world=world)
        assert result.ok
        # what a tap sees is the transcript's wire entries
        blob = b"".join(e.payload for e in result.transcript.wire_entries())
        assert world.imd.current.c2_bytes is not None
        assert world.imd.current.c2_bytes in blob  # the ciphertext is public
        for name, secret in world.secret_values().items():
            assert secret not in blob, name

    def test_result_reports_what_the_attacker_learned(self):
        tap = Attacker()
        world = build_world(seed=8, config=FAST, attacker=tap, reconstruct=False)
        result = run_session("read", config=FAST, world=world)
        assert result.world.scheduler.attacker is tap
        assert result.transcript is world.scheduler.transcript
        assert run_session("pair", seed=8, config=FAST).world.scheduler.attacker is None


class TestReplayImmunity:
    @pytest.mark.parametrize("checkpoint", CHECKPOINTS)
    def test_recorded_messages_never_advance_fresh_sessions(self, checkpoint):
        original = run_session("full", seed=9, config=FAST, reconstruct=False)
        assert original.ok
        for _, entry, fresh, before in replay_recorded(original, 10, (checkpoint,)):
            assert party_state(fresh) == before, (
                f"replayed frame at t={entry.time} advanced state "
                f"(checkpoint {checkpoint})"
            )


class TestActiveAttackers:
    def test_duplicate_command_frame_applies_once(self):
        attacker = DuplicateFrameAttacker("programmer", Heading.WRITE_REQ)
        world = build_world(seed=11, config=FAST, attacker=attacker, reconstruct=False)
        result = run_session("full", config=FAST, world=world)
        assert attacker.duplicated
        assert result.ok  # the duplicate is dropped, the flow still completes
        assert len(world.imd.applied_commands) == 1
        assert len(world.smartphone.ledger) == 1

    def test_bit_flip_sample_always_kills_session(self):
        rng = random.Random(123)
        for _ in range(40):
            occurrence = rng.randrange(8)
            bit = rng.randrange(4096)
            attacker = BitFlipAttacker(occurrence, bit)
            world = build_world(
                seed=12, config=FAST, attacker=attacker, reconstruct=False
            )
            result = run_session("full", config=FAST, world=world)
            assert attacker.flipped_frame is not None
            assert not result.ok, (
                f"session survived a flipped bit in {attacker.flipped_frame}"
            )
            # forensic soundness holds even mid-abort
            applied = world.imd.applied_commands
            records = world.smartphone.ledger.records
            assert len(applied) <= len(records)
            for record in records:
                assert evidence_verify(
                    record, world.programmer.credentials.public_key
                )

    def test_all_protected_frame_kinds_covered(self):
        seen = set()
        for occurrence in range(8):
            attacker = BitFlipAttacker(occurrence, 7)
            world = build_world(
                seed=13, config=FAST, attacker=attacker, reconstruct=False
            )
            run_session("full", config=FAST, world=world)
            if attacker.flipped_frame:
                seen.add(attacker.flipped_frame)
        assert seen == set(MAC_PROTECTED_FRAMES)

    def test_protected_frames_follow_the_step_table(self):
        assert MAC_PROTECTED_FRAMES == {
            ("smartphone", Heading.PAIR_REQ),
            ("programmer", Heading.READ_AUTH_REQ),
            ("smartphone", Heading.READ_ALLOW),
            ("imd", Heading.READ_REQ),
            ("programmer", Heading.WRITE_AUTH_REQ),
            ("smartphone", Heading.WRITE_ALLOW),
            ("programmer", Heading.WRITE_REQ),
            ("smartphone", Heading.SET_ALLOW),
        }
