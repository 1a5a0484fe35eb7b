import numpy as np
import pytest

from imdsec.channel import Attacker
from imdsec.crypto import SymmetricKey, generate_keypair
from imdsec.evidence import evidence_verify
from imdsec.parties import (
    STEPS,
    ProtocolError,
    SystemConfig,
    next_step,
    pack_signals,
    unpack_signals,
)
from imdsec.recovery import classify_prd, prd, QualityClass
from imdsec.scenarios import build_world, run_session
from imdsec.wire import (
    FRESHNESS_WINDOW,
    Heading,
    WireError,
    WireMessage,
    decode_message,
    encode_message,
    ts_bytes,
)

FAST = SystemConfig(n=64, cr=50.0, qs=0)


class TestHonestFlows:
    def test_pair_completes(self):
        result = run_session("pair", seed=1, config=FAST)
        assert result.ok
        assert result.world.smartphone.paired
        assert result.world.imd.k_i is not None

    def test_pair_key_agreement(self):
        result = run_session("pair", seed=2, config=FAST)
        assert result.world.smartphone.k_i == result.world.imd.k_i

    def test_auth_key_agreement(self):
        result = run_session("auth", seed=3, config=FAST)
        assert result.ok
        assert result.world.smartphone.k_p == result.world.programmer.k_p

    def test_read_key_and_shift_key_distribution(self):
        result = run_session("read", seed=4, config=FAST)
        assert result.ok
        w = result.world
        assert w.smartphone.k_r == w.imd.k_r == w.programmer.k_r
        np.testing.assert_array_equal(
            w.smartphone.shift_key.entries, w.imd.shift_key.entries
        )
        np.testing.assert_array_equal(
            w.smartphone.shift_key.entries, w.programmer.shift_key.entries
        )

    def test_read_recovers_telemetry(self):
        # full-size benchmark: half compression, step-20 quantizer
        result = run_session("read", seed=5, config=SystemConfig())
        assert result.ok
        w = result.world
        truth = w.imd.data_source.records[0].samples.astype(float)
        assert len(w.programmer.recovered_signals) == 1
        quality = prd(truth, w.programmer.recovered_signals[0])
        assert classify_prd(quality) == QualityClass.VERY_GOOD

    def test_write_applies_command_with_evidence(self):
        result = run_session("full", seed=6, config=FAST, command=b"cmd: rate=70")
        assert result.ok
        w = result.world
        assert w.imd.applied_commands == [b"cmd: rate=70"]
        assert len(w.smartphone.ledger) == 1
        record = w.smartphone.ledger.records[0]
        assert record.command == b"cmd: rate=70"
        assert evidence_verify(record, w.programmer.credentials.public_key)

    def test_wrong_master_key_stays_silent(self):
        world = build_world(seed=7, config=FAST)
        sched = world.scheduler
        wrong = SymmetricKey(b"\x42" * 16)
        sched.initiate("smartphone", lambda: world.smartphone.start_pair(wrong))
        sched.run_until_quiet()
        assert not world.smartphone.paired
        assert world.imd.k_i is None
        assert world.imd.drops == 1
        # the implant sent nothing back
        assert all(e.sender != "imd" for e in sched.transcript.entries)

    def test_multi_signal_read(self):
        result = run_session("read", seed=8, config=FAST, n_signals=3)
        assert result.ok
        assert len(result.world.programmer.recovered_signals) == 3


class TestOpCounts:
    def test_table_counts_single_read(self):
        result = run_session("full", seed=9, config=FAST)
        assert result.ok
        counts = result.imd_op_counts
        assert counts["pair"] == {"mac": 1, "kdf": 1}
        assert counts["auth"] == {}
        assert counts["read"] == {"sym_dec": 1, "mac": 2, "cs_enc": 1}
        assert counts["write"] == {"sym_enc": 1, "sym_dec": 1, "mac": 3}

    def test_read_scales_with_signal_count(self):
        result = run_session("read", seed=10, config=FAST, n_signals=3)
        assert result.imd_op_counts["read"] == {
            "sym_dec": 1,
            "mac": 2,
            "cs_enc": 3,
        }


@pytest.mark.parametrize(
    "step", STEPS, ids=[f"{s.sender}-{s.heading.name}" for s in STEPS]
)
class TestStepTable:
    def test_sender_and_receiver_differ(self, step):
        assert step.sender != step.receiver

    def test_link_joins_the_same_two_parties_in_every_row(self, step):
        ends = {frozenset((s.sender, s.receiver)) for s in STEPS if s.link == step.link}
        assert ends == {frozenset((step.sender, step.receiver))}

    def test_each_row_is_a_reply_or_opens_a_flow(self, step):
        row = STEPS.index(step)
        reply = row > 0 and STEPS[row - 1].receiver == step.sender
        # the sender's stored step once the row before is done
        waits_for_nothing = next_step(step.sender, row - 1) is step
        assert reply or waits_for_nothing


# (expected, expected_link, outcome) of smartphone, implant and programmer
# after each Scheduler.step of an honest full session
HONEST_FULL_STATES = [
    ("PAIR_SUCC s-i idle", "READ_ALLOW s-i idle", "- - idle"),
    ("AUTH_REQ s-d idle", "READ_ALLOW s-i idle", "- - idle"),
    ("READ_AUTH_REQ s-d idle", "READ_ALLOW s-i idle", "AUTH_REQ s-d idle"),
    ("READ_AUTH_REQ s-d idle", "READ_ALLOW s-i idle", "- - idle"),
    ("READ_AUTH_REQ s-d idle", "READ_ALLOW s-i idle", "- - idle"),
    ("READ_READY s-i idle", "READ_ALLOW s-i idle", "READ_READY s-d idle"),
    ("READ_READY s-i idle", "READ_REQ d-i idle", "READ_READY s-d idle"),
    ("WRITE_AUTH_REQ s-d idle", "READ_REQ d-i idle", "READ_READY s-d idle"),
    ("WRITE_AUTH_REQ s-d idle", "READ_REQ d-i idle", "READ_REQ d-i idle"),
    ("WRITE_AUTH_REQ s-d idle", "WRITE_ALLOW s-i idle", "READ_REQ d-i idle"),
    ("WRITE_AUTH_REQ s-d idle", "WRITE_ALLOW s-i idle", "- - idle"),
    ("WRITE_READY s-i idle", "WRITE_ALLOW s-i idle", "WRITE_READY s-d idle"),
    ("WRITE_READY s-i idle", "WRITE_REQ d-i idle", "WRITE_READY s-d idle"),
    ("WRITE_REQ s-i idle", "WRITE_REQ d-i idle", "WRITE_READY s-d idle"),
    ("WRITE_REQ s-i idle", "WRITE_REQ d-i idle", "WRITE_SUCC d-i idle"),
    ("WRITE_REQ s-i idle", "SET_ALLOW s-i idle", "WRITE_SUCC d-i idle"),
    ("- - ok", "SET_ALLOW s-i idle", "WRITE_SUCC d-i idle"),
    ("- - ok", "- - ok", "WRITE_SUCC d-i idle"),
    ("- - ok", "- - ok", "- - ok"),
]


def _state(party):
    heading = party.expected.name if party.expected else "-"
    return f"{heading} {party.expected_link or '-'} {party.outcome}"


def test_state_after_every_step_of_an_honest_full_session():
    world = build_world(seed=3, config=FAST)
    sched = world.scheduler
    parties = (world.smartphone, world.imd, world.programmer)

    def read():
        world.programmer.enter_rm(world.doctor_phone.rm)
        return world.programmer.start_read()

    flows = (
        ("smartphone", lambda: world.smartphone.start_pair(world.master_key)),
        ("programmer", world.programmer.start_auth),
        ("programmer", read),
        ("programmer", lambda: world.programmer.start_write(b"cmd")),
    )
    states = []
    for name, start in flows:
        sched.initiate(name, start)
        while sched.step():
            states.append(tuple(_state(p) for p in parties))
    assert states == HONEST_FULL_STATES
    assert world.imd.applied_commands == [b"cmd"]


class TestFailurePaths:
    def test_unknown_authority_certificate_is_refused(self):
        world = build_world(seed=11, config=FAST)
        # forge credentials under a different authority
        from imdsec.crypto import CryptoSuite, KeyPairWithCert
        from imdsec.keymat import doctor_private_key

        rogue = generate_keypair()
        suite = CryptoSuite()
        doctor = doctor_private_key()
        world.programmer.credentials = KeyPairWithCert(
            private_key=doctor,
            certificate=suite.cert_issue(rogue, doctor.public_key(), b"DR-ALICE"),
        )
        result = run_session("auth", config=FAST, world=world)
        # anyone can send an AUTH_REQ, so a bad one is refused without
        # ending the smartphone's wait for an honest doctor
        assert not result.phases["auth"]
        assert world.smartphone.outcome != "aborted"
        assert "certificate verification failed" in world.smartphone.incidents

    def test_write_requires_read(self):
        result = run_session("auth", seed=12, config=FAST)
        with pytest.raises(ProtocolError):
            result.world.programmer.start_write(b"cmd")

    def test_read_requires_auth(self):
        world = build_world(seed=13, config=FAST)
        with pytest.raises(ProtocolError):
            world.programmer.start_read()

    def test_command_mismatch_withholds_authorization(self):
        # programmer signs one command but transmits another
        world = build_world(seed=14, config=FAST)
        result = run_session("read", config=FAST, world=world)
        assert result.ok
        programmer = world.programmer

        outs = programmer.start_write(b"cmd: signed")
        programmer.command = b"cmd: injected"  # C3 will carry this instead
        world.scheduler.submit(outs)
        world.scheduler.run_until_quiet()

        assert world.imd.applied_commands == []
        assert len(world.smartphone.ledger) == 0
        assert world.smartphone.outcome == "aborted"
        assert "write signature verification failed" in world.smartphone.incidents
        assert not programmer.write_complete

    def test_tampered_telemetry_never_reaches_the_solver(self):
        from imdsec.attacks import BitFlipAttacker

        # occurrence 3 is the telemetry response; flip a payload bit
        attacker = BitFlipAttacker(3, 200)
        world = build_world(seed=21, config=FAST, attacker=attacker)
        result = run_session("read", config=FAST, world=world)
        assert attacker.flipped_frame == ("imd", Heading.READ_REQ)
        assert not result.phases["read"]
        assert world.programmer.recovered_signals == []
        assert world.programmer.abort_reason == "telemetry MAC failure"

    def test_stale_timestamp_dropped(self):
        world = build_world(seed=15, config=FAST, start_clock=1000)
        sched = world.scheduler
        sched.initiate(
            "smartphone", lambda: world.smartphone.start_pair(world.master_key)
        )
        # age the queued pairing request beyond the freshness window
        sched.clock += FRESHNESS_WINDOW + 10
        sched.run_until_quiet()
        assert not world.smartphone.paired
        assert world.imd.drops == 1

    def test_forged_read_auth_frames_are_counted_drops(self):
        result = run_session("auth", seed=19, config=FAST)
        assert result.ok
        smartphone = result.world.smartphone
        session = result.world.programmer.session
        drops = smartphone.drops
        expected = (smartphone.expected, smartphone.expected_link)
        forged = 5
        for i in range(forged):
            frame = encode_message(
                WireMessage(
                    Heading.READ_AUTH_REQ,
                    session,
                    (ts_bytes(smartphone.clock), bytes([i]) * 20),
                )
            )
            assert smartphone.receive(frame, "s-d") == []
        assert smartphone.drops == drops + forged
        assert (smartphone.expected, smartphone.expected_link) == expected
        assert smartphone.incidents == ["read auth MAC failure"] * forged
        assert smartphone.outcome == "idle"


class _InjectBefore(Attacker):
    """Delivers one forged frame ahead of the first (sender, heading) frame."""

    def __init__(self, sender, heading, forge):
        self.sender, self.heading, self.forge = sender, heading, forge
        self.injected = False

    def intercept(self, entry):
        if self.injected or entry.sender != self.sender:
            return None
        msg = decode_message(entry.payload)
        if msg.heading != self.heading:
            return None
        self.injected = True
        forged = WireMessage(msg.heading, msg.session, self.forge(msg.fields))
        return [encode_message(forged), entry.payload]


class TestInjectedFramesDoNotWedge:
    """Frames without a MAC, or whose decryption fails, can come from
    anyone who has seen the public session number; refusing one must
    leave the honest flow free to finish."""

    @pytest.mark.parametrize(
        "sender,heading,forge,victim,reason",
        [
            ("programmer", Heading.AUTH_REQ,
             lambda f: (b"DR-MALLORY",) + f[1:], "smartphone", "unknown doctor"),
            ("smartphone", Heading.AUTH_REQ,
             lambda f: (f[0], b"\x00" * len(f[1])), "programmer",
             "nonce challenge unreadable"),
            ("smartphone", Heading.READ_READY,
             lambda f: (b"\x00" * len(f[0]),), "programmer", "shift key unreadable"),
            ("imd", Heading.WRITE_REQ,
             lambda f: (f[0], b"\x00" * len(f[1])), "smartphone",
             "command report unreadable"),
        ],
        ids=["unknown-doctor", "junk-challenge", "junk-shift-key", "junk-report"],
    )
    def test_honest_session_completes(self, sender, heading, forge, victim, reason):
        attacker = _InjectBefore(sender, heading, forge)
        world = build_world(seed=22, config=FAST, attacker=attacker)
        result = run_session("full", config=FAST, world=world)
        assert attacker.injected
        assert result.ok, result.phases
        party = getattr(world, victim)
        assert party.outcome == "ok"
        assert party.abort_reason is None
        assert reason in party.incidents
        assert len(world.imd.applied_commands) == 1
        assert len(world.smartphone.ledger) == 1


class TestSingleThreadDiscipline:
    def test_unexpected_headings_never_change_state(self):
        world = build_world(seed=16, config=FAST)
        result = run_session("auth", config=FAST, world=world)
        assert result.ok
        sched = world.scheduler
        rng = np.random.default_rng(0)

        def snapshot(p):
            return (
                p.expected,
                p.expected_link,
                p.outcome,
                p.session,
            )

        parties = {
            "smartphone": world.smartphone,
            "imd": world.imd,
            "programmer": world.programmer,
        }
        before = {name: snapshot(p) for name, p in parties.items()}
        drops_before = {name: p.drops for name, p in parties.items()}

        sent = 0
        for _ in range(300):
            name = ["smartphone", "imd", "programmer"][rng.integers(3)]
            party = parties[name]
            heading = Heading(int(rng.integers(1, 15)))
            if heading == party.expected:
                continue  # only probe unexpected headings
            link = party.expected_link or "s-i"
            raw = encode_message(
                WireMessage(heading, int(rng.integers(0, 2**63)), (b"x",))
            )
            sched.deliver_raw(link, "attacker", name, raw)
            sent += 1
        sched.run_until_quiet()

        for name, party in parties.items():
            assert snapshot(party) == before[name]
        assert (
            sum(p.drops for p in parties.values())
            == sum(drops_before.values()) + sent
        )


class TestSecrecyOnWire:
    def test_no_secret_bytes_in_transcript(self):
        result = run_session("full", seed=17, config=SystemConfig())
        assert result.ok
        blob = b"".join(
            e.payload for e in result.transcript.entries if e.kind == "wire"
        )
        for name, secret in result.world.secret_values().items():
            assert secret not in blob, f"secret {name} leaked to the wire"

    def test_oob_channel_carries_rm_only(self):
        result = run_session("auth", seed=18, config=FAST)
        oob = [e for e in result.transcript.entries if e.kind == "oob"]
        assert len(oob) == 1
        assert oob[0].payload == result.world.smartphone.rm


class TestTelemetryPayload:
    def test_roundtrip(self):
        blobs = [b"", b"one", b"\x00" * 300]
        assert unpack_signals(pack_signals(blobs)) == blobs

    def test_malformed_payloads_raise_wire_error(self):
        good = pack_signals([b"abc", b"de"])
        for bad in (b"", good[:3], good[:-1], good + b"\x00", b"\xff" * 4):
            with pytest.raises(WireError):
                unpack_signals(bad)
