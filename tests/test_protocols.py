import ast
import inspect
import textwrap
from collections import Counter

import numpy as np
import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PublicKey
from hypothesis import given, settings
from hypothesis import strategies as st

from imdsec import codec, ecg, recovery
from imdsec.channel import Attacker, TranscriptEntry
from imdsec.crypto import Credentials, CryptoSuite, SymmetricKey, length_prefixed
from imdsec.evidence import evidence_verify
from imdsec.keymat import doctor_sealing_key, doctor_signing_key
from imdsec.parties import (
    ABORT,
    DROP,
    LINK_DI,
    LINK_OOB,
    LINK_SD,
    LINK_SI,
    STAY,
    STEPS,
    Imd,
    Programmer,
    ProtocolError,
    Smartphone,
    SystemConfig,
    next_step,
    pack_signals,
    step_of,
    unpack_signals,
)
from imdsec.recovery import classify_prd, prd, QualityClass
from imdsec.scenarios import SCENARIOS, build_world, drive, run_session
from imdsec.wire import (
    FRESHNESS_WINDOW,
    Heading,
    WireError,
    WireMessage,
    decode_message,
    encode_message,
    u64_bytes,
)
from support import CHECKPOINTS, party_state

FAST = SystemConfig(n=64, cr=50.0, qs=0)


class _Withhold(Attacker):
    """Drops the first frame that sender sends with heading, and keeps it."""

    def __init__(self, sender, heading):
        self.sender, self.heading, self.msg = sender, heading, None

    def intercept(self, entry):
        if self.msg is None and entry.sender == self.sender:
            msg = decode_message(entry.payload)
            if msg.heading == self.heading:
                self.msg = msg
                return []
        return None


def _withheld(sender, heading):
    """A world driven through every flow with sender's heading frame
    dropped, so that the row's receiver waits for it; returns the world,
    the row and the dropped message."""
    attacker = _Withhold(sender, heading)
    world = build_world(seed=3, config=FAST, attacker=attacker)
    drive(world, SCENARIOS["full"])
    step = step_of(sender, heading)
    assert getattr(world, step.receiver).expected == heading
    return world, step, attacker.msg


def _forged(step, msg, receiver, **fields):
    """msg with fields replaced, a fresh timestamp, and a MAC under the
    receiver's own key on a row with a MAC."""
    named = dict(zip(step.fields, msg.fields), **fields)
    if step.ts is not None:
        named[step.ts] = u64_bytes(receiver.clock)
    key = None if step.key is None else getattr(receiver, step.key)
    return step.encode(msg.session, named, CryptoSuite(), key)


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
        sent = codec.deserialize_shift_key(w.smartphone.kd_bytes)
        np.testing.assert_array_equal(sent.entries, w.imd.shift_key.entries)
        np.testing.assert_array_equal(sent.entries, w.programmer.shift_key.entries)

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
        assert world.smartphone.completed == Counter()
        assert world.imd.k_i is None
        assert world.imd.drops == 1
        # the implant sent nothing back
        assert all(e.sender != "imd" for e in sched.transcript.entries)

    def test_multi_signal_read(self):
        world = build_world(seed=8, config=FAST, n_signals=3)
        result = run_session("read", world=world)
        assert result.ok
        assert len(result.world.programmer.recovered_signals) == 3

    @pytest.mark.parametrize(
        "scenario, smartphone, imd, programmer",
        [
            ("pair", {"pair"}, {"pair"}, set()),
            ("auth", {"pair", "auth"}, {"pair"}, {"auth"}),
            ("read", {"pair", "auth", "read"}, {"pair", "read"}, {"auth", "read"}),
            ("full", {"pair", "auth", "read", "write"}, {"pair", "read", "write"},
             {"auth", "read", "write"}),
        ],
    )
    def test_completion_record_after_each_scenario(self, scenario, smartphone, imd, programmer):
        result = run_session(scenario, seed=23, config=FAST)
        assert result.ok
        w = result.world
        assert (w.smartphone.completed, w.imd.completed, w.programmer.completed) == (
            Counter(smartphone), Counter(imd), Counter(programmer)
        )


class TestDoctorSolveStop:
    """The programmer's solve of a received ciphertext, re-run here on the
    same de-shifted y: it stops at the ciphertext's quantization noise
    (recovery.quantization_params), and keeps the solver defaults where
    that rule cannot apply."""

    @staticmethod
    def received(seed, config):
        result = run_session("full", seed=seed, config=config)
        assert result.ok
        w = result.world
        phi = config.sensing_matrix()
        cipher = codec.deserialize_ciphertext(unpack_signals(w.programmer.c2_bytes)[0])
        y = codec.cs_deshift(w.programmer.shift_key, cipher, phi, *ecg.WINDOW)
        truth = w.imd.data_source.records[0].samples.astype(float)
        return w.programmer.recovered_signals[0], cipher, y, truth

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_session_stops_at_the_noise(self, seed):
        config = SystemConfig()
        recovered, cipher, y, truth = self.received(seed, config)
        phi, psi = config.sensing_matrix(), config.basis()
        params = recovery.quantization_params(cipher)
        _, x_hat, info = recovery.omp_reconstruct(y, phi, psi, params, return_info=True)
        np.testing.assert_array_equal(recovered, x_hat)
        assert info["stop"] == "residual_tol"
        assert len(info["residuals"]) - 1 < phi.m // 4
        _, full, full_info = recovery.omp_reconstruct(y, phi, psi, return_info=True)
        assert (full_info["stop"], len(full_info["residuals"]) - 1) == ("max_atoms", phi.m // 4)
        assert prd(truth, recovered) <= prd(truth, full)

    @pytest.mark.parametrize(
        "config", [SystemConfig(qs=0), SystemConfig(cr=90.0)], ids=["raw", "cr90"]
    )
    def test_session_matches_the_default_solve(self, config):
        recovered, _, y, _ = self.received(3, config)
        _, x_hat = recovery.omp_reconstruct(y, config.sensing_matrix(), config.basis())
        np.testing.assert_array_equal(recovered, x_hat)


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
        world = build_world(seed=10, config=FAST, n_signals=3)
        result = run_session("read", world=world)
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
        # within a flow every row but the first answers the row before it;
        # the first comes from its sender's start_<flow> opener
        first = row == 0 or STEPS[row - 1].flow != step.flow
        answers = not first and STEPS[row - 1].receiver == step.sender
        assert answers != first
        rows = [i for i, s in enumerate(STEPS) if s.flow == step.flow]
        assert rows == list(range(rows[0], rows[-1] + 1)), "flow rows not contiguous"
        party = {cls.role: cls for cls in (Smartphone, Imd, Programmer)}[step.sender]
        assert not first or callable(getattr(party, "start_" + step.flow, None))


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


def test_smartphone_doctor_frame_sizes_of_a_default_full_session():
    """Bytes on the wire of the s-d frames that carry public-key material:
    the doctor's certificate, the nonce challenge and the write signature,
    with the shift-key delivery next to them as a frame that carries none."""
    result = run_session("full")
    assert result.ok
    sizes = {
        (e.sender, decode_message(e.payload).heading): len(e.payload)
        for e in result.transcript.wire_entries()
        if e.link == LINK_SD
    }
    assert {
        ("programmer", Heading.AUTH_REQ): 237,
        ("smartphone", Heading.AUTH_REQ): 89,
        ("programmer", Heading.WRITE_AUTH_REQ): 114,
        ("smartphone", Heading.READ_READY): 2098,
    }.items() <= sizes.items()


class TestAuthenticationCoverage:
    """Which rows of STEPS complete a flow for their receiver without a MAC.

    A row completes a flow for its receiver when no later row of that
    flow involves the receiver.  A row without a MAC key can come from
    anyone who has seen the public session number.  The nonce challenge
    is sealed to the doctor's public X25519 key, which anyone can do, so
    it binds nothing the smartphone holds: that reply stays on the list
    until it is bound to such a secret (ROADMAP item 2)."""

    # (sender, heading, MAC key, completes a flow for the receiver)
    TABLE = [
        ("smartphone", Heading.PAIR_REQ, "k_i", False),
        ("imd", Heading.PAIR_SUCC, None, True),
        ("programmer", Heading.AUTH_REQ, None, False),
        ("smartphone", Heading.AUTH_REQ, None, True),
        ("programmer", Heading.READ_AUTH_REQ, "k_p", False),
        ("smartphone", Heading.READ_ALLOW, "k_i", False),
        ("imd", Heading.READ_READY, None, False),
        ("smartphone", Heading.READ_READY, None, False),
        ("programmer", Heading.READ_REQ, None, False),
        ("imd", Heading.READ_REQ, "k_r", True),
        ("programmer", Heading.WRITE_AUTH_REQ, "k_p", False),
        ("smartphone", Heading.WRITE_ALLOW, "k_i", False),
        ("imd", Heading.WRITE_READY, None, False),
        ("smartphone", Heading.WRITE_READY, None, False),
        ("programmer", Heading.WRITE_REQ, "k_r", False),
        ("imd", Heading.WRITE_REQ, None, False),
        ("smartphone", Heading.SET_ALLOW, "k_i", False),
        ("imd", Heading.WRITE_SUCC, None, True),
    ]
    # rows that break "no unauthenticated row completes a flow" today
    EXCEPTIONS = [
        ("imd", Heading.PAIR_SUCC),
        ("smartphone", Heading.AUTH_REQ),
        ("imd", Heading.WRITE_SUCC),
    ]

    @staticmethod
    def _derived():
        return [
            (step.sender, step.heading, step.key, not any(
                later.flow == step.flow and step.receiver in (later.sender, later.receiver)
                for later in STEPS[row + 1:]
            ))
            for row, step in enumerate(STEPS)
        ]

    def test_table_is_derived_from_the_steps(self):
        assert self._derived() == self.TABLE

    def test_no_unauthenticated_row_completes_a_flow_but_the_listed_ones(self):
        breaking = [(sender, heading) for sender, heading, key, completes in self._derived()
                    if key is None and completes]
        assert breaking == self.EXCEPTIONS


def _state(party):
    heading = party.expected.name if party.expected else "-"
    return f"{heading} {party.expected_link or '-'} {party.outcome}"


def test_state_after_every_step_of_an_honest_full_session():
    world = build_world(seed=3, config=FAST)
    sched = world.scheduler
    parties = (world.smartphone, world.imd, world.programmer)

    def read():
        rm = next(e.payload for e in sched.transcript.entries if e.kind == "oob")
        world.programmer.enter_rm(rm)
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
        # forge credentials under a different authority: the doctor
        # signs its own certificate
        doctor, sealing = doctor_signing_key(), doctor_sealing_key()
        world.programmer.credentials = Credentials(
            signing_key=doctor,
            sealing_key=sealing,
            certificate=CryptoSuite().cert_issue(
                doctor, b"DR-ALICE", doctor.public_key(), sealing.public_key()
            ),
        )
        result = run_session("auth", config=FAST, world=world)
        # anyone can send an AUTH_REQ, so a bad one is refused without
        # ending the smartphone's wait for an honest doctor
        assert not result.phases["auth"]
        assert world.smartphone.outcome != "aborted"
        assert (STAY, "certificate verification failed") in world.smartphone.rejections

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
        assert (ABORT, "write signature invalid") in world.smartphone.rejections
        assert not programmer.write_complete

    def test_write_signature_abort_changes_nothing_else(self):
        # the world above, with the implant's command report held back
        attacker = _Withhold("imd", Heading.WRITE_REQ)
        world = build_world(seed=14, config=FAST, attacker=attacker)
        assert run_session("read", config=FAST, world=world).ok
        outs = world.programmer.start_write(b"cmd: signed")
        world.programmer.command = b"cmd: injected"
        world.scheduler.submit(outs)
        world.scheduler.run_until_quiet()
        _only_the_verdict(world, world.smartphone, encode_message(attacker.msg), LINK_SI,
                          (ABORT, "write signature invalid"))

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

    def test_non_finite_telemetry_aborts_before_the_solver(self):
        # reaching this handler takes a valid k_r MAC; the payload itself
        # is still outside input and must abort, not raise
        world, step, msg = _withheld("imd", Heading.READ_REQ)
        programmer = world.programmer
        honest = codec.deserialize_ciphertext(unpack_signals(msg.fields[0])[0])
        measurements = honest.measurements.copy()
        measurements[0] = np.nan
        frame = codec.serialize_ciphertext(
            codec.CsCiphertext(measurements=measurements, carries=honest.carries)
        )
        recovered, seen = len(programmer.recovered_signals), len(programmer.rejections)
        raw = _forged(step, msg, programmer, c2=pack_signals([frame]))
        assert programmer.receive(raw, LINK_DI) == []
        assert programmer.rejections[seen:] == [(ABORT, "telemetry payload malformed")]
        assert len(programmer.recovered_signals) == recovered

    def test_stale_timestamp_dropped(self):
        world = build_world(seed=15, config=FAST)
        sched = world.scheduler
        sched.clock = 1000
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
                    (u64_bytes(smartphone.clock), bytes([i]) * 20),
                )
            )
            assert smartphone.receive(frame, "s-d") == []
        assert smartphone.drops == drops + forged
        assert (smartphone.expected, smartphone.expected_link) == expected
        assert smartphone.rejections == [(STAY, "read auth MAC failure")] * forged
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
        "sender,heading,forge,victim,policy,reason",
        [
            ("programmer", Heading.AUTH_REQ,
             lambda f: (b"DR-MALLORY",) + f[1:], "smartphone", STAY, "unknown doctor"),
            ("programmer", Heading.AUTH_REQ,
             lambda f: f[:3] + (b"junk",), "smartphone", DROP, "certificate unparseable"),
            ("smartphone", Heading.AUTH_REQ,
             lambda f: (f[0], b"\x00" * len(f[1])), "programmer",
             STAY, "nonce challenge unreadable"),
            ("smartphone", Heading.READ_READY,
             lambda f: (b"\x00" * len(f[0]),), "programmer", STAY, "shift key unreadable"),
            ("imd", Heading.WRITE_REQ,
             lambda f: (f[0], b"\x00" * len(f[1])), "smartphone",
             STAY, "command report unreadable"),
        ],
        ids=["unknown-doctor", "junk-certificate", "junk-challenge", "junk-shift-key",
             "junk-report"],
    )
    def test_honest_session_completes(self, sender, heading, forge, victim, policy, reason):
        attacker = _InjectBefore(sender, heading, forge)
        world = build_world(seed=22, config=FAST, attacker=attacker)
        result = run_session("full", config=FAST, world=world)
        assert attacker.injected
        assert result.ok, result.phases
        party = getattr(world, victim)
        assert party.outcome == "ok"
        assert party.abort_reason is None
        assert [r for p in (world.smartphone, world.imd, world.programmer)
                for r in p.rejections] == [(policy, reason)]
        assert party.rejections == [(policy, reason)]
        assert party.drops == 1
        assert len(world.imd.applied_commands) == 1
        assert len(world.smartphone.ledger) == 1


def _telemetry(world, config):
    """The implant's telemetry payload, encoded at config's operating point."""
    signal = world.imd.data_source()[0]
    cipher = codec.cs_enc(world.programmer.shift_key, signal, config.sensing_matrix())
    return pack_signals([codec.serialize_ciphertext(cipher)])


# (sender, heading) of each row that sets unreadable, what makes its
# content unreadable once every earlier check passes, and the verdict
UNREADABLE = [
    ("programmer", Heading.AUTH_REQ, lambda w: dict(cert=b"junk"),
     (DROP, "certificate unparseable")),
    ("smartphone", Heading.AUTH_REQ, lambda w: dict(challenge=bytes(256)),
     (STAY, "nonce challenge unreadable")),
    # decrypts and carries a shift key, but K_R is 5 bytes long
    ("smartphone", Heading.READ_ALLOW, lambda w: dict(c1=CryptoSuite().sym_enc(
        w.imd.k_i, length_prefixed(w.smartphone.kd_bytes, b"short"),
    )), (DROP, "key delivery unreadable")),
    ("smartphone", Heading.READ_READY,
     lambda w: dict(enc_kd=CryptoSuite().sym_enc(w.programmer.k_p, b"junk")),
     (STAY, "shift key unreadable")),
    # telemetry of another operating point: CR 75 sent to a CR-50 programmer
    ("imd", Heading.READ_REQ,
     lambda w: dict(c2=_telemetry(w, SystemConfig(n=FAST.n, cr=75.0, qs=0))),
     (ABORT, "telemetry payload malformed")),
    ("programmer", Heading.WRITE_REQ, lambda w: dict(c3=bytes(40)),
     (ABORT, "command decryption failure")),
    ("imd", Heading.WRITE_REQ,
     lambda w: dict(report=CryptoSuite().sym_enc(w.smartphone.k_i, b"junk")),
     (STAY, "command report unreadable")),
]

# what each policy may change on the party it rejects a frame for
RECORDED_BY = {
    DROP: {"rejections"},
    STAY: {"rejections"},
    ABORT: {"outcome", "rejections", "_awaiting"},
}


def _held(party):
    """A party's attributes, a list as a tuple of its items."""
    return {name: tuple(v) if isinstance(v, list) else v for name, v in vars(party).items()}


def _same(a, b):
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(x is y for x, y in zip(a, b))
    return a is b


def _only_the_verdict(world, victim, raw, link, verdict):
    """victim rejects raw with verdict, and changes nothing but what
    RECORDED_BY lets the verdict's policy change."""
    state, held = party_state(world), _held(victim)
    assert victim.receive(raw, link) == []
    assert victim.rejections[len(held["rejections"]):] == [verdict]
    policy = verdict[0]
    if policy == ABORT:
        state[victim.role] = (None, None, "aborted") + state[victim.role][3:]
    assert party_state(world) == state
    after = _held(victim)
    assert {name for name in after if not _same(after[name], held[name])} == RECORDED_BY[policy]


class TestUnreadableContent:
    """A frame that passes every check before its handler, but whose
    sealed or encoded content cannot be read, meets its row's declared
    policy and changes nothing else."""

    @pytest.mark.parametrize(
        "sender, heading, forge, verdict", UNREADABLE,
        ids=["certificate", "challenge", "key-delivery", "shift-key",
             "telemetry-at-another-operating-point", "command", "command-report"],
    )
    def test_row_verdict_and_nothing_else(self, sender, heading, forge, verdict):
        world, step, msg = _withheld(sender, heading)
        victim = getattr(world, step.receiver)
        _only_the_verdict(world, victim, _forged(step, msg, victim, **forge(world)), step.link,
                          verdict)

    def test_cases_cover_every_row_with_unreadable(self):
        rows = {(s.sender, s.heading) for s in STEPS if s.unreadable is not None}
        assert rows == {(sender, heading) for sender, heading, _, _ in UNREADABLE}
        for sender, heading, _, verdict in UNREADABLE:
            assert step_of(sender, heading).unreadable == verdict

    def test_an_error_on_a_row_without_unreadable_propagates(self):
        # the implant's own data failing to encode is a fault, not a frame to reject
        world = build_world(seed=3, config=FAST)
        world.imd.data_source = lambda: [codec.BoundedSignal(np.full(3, 1000.0), *ecg.WINDOW)]
        assert step_of("programmer", Heading.READ_REQ).unreadable is None
        with pytest.raises(codec.CodecError, match="key length"):
            drive(world, SCENARIOS["read"])

    def test_only_pair_req_and_write_allow_check_before_the_mac(self):
        assert [s.heading for s in STEPS if s.check] == [Heading.PAIR_REQ, Heading.WRITE_ALLOW]

    def test_handlers_hold_no_try(self):
        for cls in (Smartphone, Imd, Programmer):
            for name, method in vars(cls).items():
                if name.startswith("_on_"):
                    tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
                    tries = [n for n in ast.walk(tree) if isinstance(n, ast.Try)]
                    assert not tries, f"{cls.__name__}.{name}"

    def test_only_receive_writes_the_rejection_record(self):
        checks = {s.check for s in STEPS if s.check}
        for cls in (Smartphone, Imd, Programmer):
            for name, method in vars(cls).items():
                if name.startswith("_on_") or name in checks:
                    tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
                    named = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(tree)}
                    assert "rejections" not in named, f"{cls.__name__}.{name}"


class TestMalformedChallenge:
    """Variants of an honest nonce challenge (the ephemeral X25519 key,
    then the AES-GCM ciphertext and tag) that the programmer cannot
    unseal: each meets the row's verdict, raises nothing and changes no
    protocol state, and the honest reply still completes auth after it."""

    @pytest.mark.parametrize(
        "malform",
        [
            # low order: X25519 exchange with it raises ValueError
            lambda blob: bytes(32) + blob[32:],
            lambda blob: blob[:31] + blob[32:],
            lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]),
        ],
        ids=["all-zero-ephemeral-key", "31-byte-ephemeral-key", "flipped-tag-bit"],
    )
    def test_unreadable_and_nothing_else(self, malform):
        world, step, msg = _withheld("smartphone", Heading.AUTH_REQ)
        programmer = world.programmer
        challenge = dict(zip(step.fields, msg.fields))["challenge"]
        raw = _forged(step, msg, programmer, challenge=malform(challenge))
        _only_the_verdict(world, programmer, raw, step.link, step.unreadable)
        assert step.unreadable == (STAY, "nonce challenge unreadable")
        assert programmer.receive(_forged(step, msg, programmer), step.link) == []
        assert "auth" in programmer.completed
        assert programmer.nonce == world.smartphone.nonce


class _DropCommand(Attacker):
    """Drops the programmer's command WRITE_REQ and keeps its public
    session number."""

    session = None

    def intercept(self, entry):
        msg = decode_message(entry.payload)
        if entry.sender == "programmer" and msg.heading == Heading.WRITE_REQ:
            self.session = msg.session
            return []
        return None


class TestOpenBugs:
    """The intended behaviour for bugs that CHANGES.md names in FOUND
    lines or ROADMAP's State lists; ROADMAP item 2 mends them all."""

    @pytest.mark.xfail(
        strict=True,
        reason="CHANGES.md FOUND line on the WRITE_SUCC row without a MAC; "
        "ROADMAP item 2",
    )
    def test_forged_write_succ_does_not_complete_the_write(self):
        attacker = _DropCommand()
        world = build_world(seed=5, config=FAST, attacker=attacker)
        result = run_session("full", config=FAST, world=world)
        assert not result.phases["write"]
        forged = encode_message(WireMessage(Heading.WRITE_SUCC, attacker.session, ()))
        world.scheduler.submit([TranscriptEntry("wire", LINK_DI, "imd", "programmer", forged)])
        world.scheduler.run_until_quiet()
        assert world.imd.applied_commands == []
        assert len(world.smartphone.ledger) == 0
        assert not world.programmer.write_complete

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the PAIR_SUCC row has no MAC, so a forged empty one pairs the "
        "smartphone; ROADMAP item 2",
    )
    def test_forged_pair_succ_does_not_pair_the_smartphone(self):
        attacker = _Withhold("smartphone", Heading.PAIR_REQ)
        world = build_world(seed=5, config=FAST, attacker=attacker)
        assert not drive(world, ("pair",)).ok
        forged = encode_message(WireMessage(Heading.PAIR_SUCC, attacker.msg.session, ()))
        world.scheduler.submit([TranscriptEntry("wire", LINK_SI, "imd", "smartphone", forged)])
        world.scheduler.run_until_quiet()
        assert world.imd.k_i is None
        assert not world.smartphone.paired

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the AUTH_REQ reply has no MAC, so a challenge anyone encrypted to "
        "the doctor's public key completes the programmer's auth; ROADMAP item 2",
    )
    def test_forged_auth_reply_does_not_complete_the_programmer_auth(self):
        attacker = _Withhold("smartphone", Heading.AUTH_REQ)
        world = build_world(seed=5, config=FAST, attacker=attacker)
        assert not drive(world, ("pair", "auth")).phases["auth"]
        request = decode_message(next(
            e.payload for e in world.scheduler.transcript.wire_entries() if e.sender == "programmer"
        ))
        assert request.heading == Heading.AUTH_REQ
        fields = dict(zip(step_of("programmer", Heading.AUTH_REQ).fields, request.fields))
        nonce = bytes(range(16))
        sealing_key = X25519PublicKey.from_public_bytes(fields["sealing_key"])
        challenge = CryptoSuite().pk_enc(sealing_key, nonce, bytes(range(32)))
        step = step_of("smartphone", Heading.AUTH_REQ)
        forged = _forged(step, attacker.msg, world.programmer, challenge=challenge)
        world.scheduler.submit(
            [TranscriptEntry("wire", step.link, "smartphone", "programmer", forged)]
        )
        world.scheduler.run_until_quiet()
        assert world.programmer.nonce != nonce
        assert "auth" not in world.programmer.completed

    @pytest.mark.xfail(
        strict=True,
        reason="CHANGES.md FOUND line on Party._advance and session reuse; "
        "ROADMAP item 2",
    )
    def test_second_session_on_one_pairing_is_answered(self):
        world = run_session("full", seed=3, config=FAST).world
        smartphone, sched = world.smartphone, world.scheduler
        drops, sent = smartphone.drops, len(sched.transcript.entries)
        sched.initiate("programmer", world.programmer.start_auth)
        sched.run_until_quiet()
        assert smartphone.drops == drops
        replies = [
            decode_message(e.payload)
            for e in sched.transcript.entries[sent:]
            if e.sender == "smartphone"
        ]
        assert [(m.heading, m.session) for m in replies] == [
            (Heading.AUTH_REQ, world.programmer.session)
        ]

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="CHANGES.md FOUND line on Party._advance and session reuse; "
        "ROADMAP item 2",
    )
    def test_second_doctor_session_through_drive_passes(self):
        world = run_session("full", seed=3, config=FAST).world
        assert drive(world, ("auth", "read", "write")).ok


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
            sched.submit([TranscriptEntry("wire", link, "attacker", name, raw)])
            sent += 1
        sched.run_until_quiet()

        for name, party in parties.items():
            assert snapshot(party) == before[name]
        assert (
            sum(p.drops for p in parties.values())
            == sum(drops_before.values()) + sent
        )


def _checkpoint_world(checkpoint):
    world = build_world(seed=3, config=FAST)
    if checkpoint != "fresh":
        drive(world, SCENARIOS[checkpoint])
    return world


class TestTotality:
    """Party.receive is total over structured junk: any heading on any
    link, or the heading and link the party awaits, the party's own or a
    foreign session number, and up to six fields, some of them a fresh
    timestamp, at every checkpoint.  It never raises, returns a list, and
    a bytearray frame meets the same verdict as its bytes."""

    @settings(max_examples=200, deadline=None)
    @given(
        checkpoint=st.sampled_from(CHECKPOINTS),
        role=st.sampled_from(("smartphone", "imd", "programmer")),
        link=st.sampled_from((LINK_SI, LINK_SD, LINK_DI, LINK_OOB)),
        heading=st.sampled_from(Heading),
        aimed=st.booleans(),
        own_session=st.booleans(),
        foreign=st.integers(0, 2**64 - 1),
        fields=st.lists(st.one_of(st.none(), st.binary(max_size=48)), max_size=6),
    )
    def test_receive_never_raises(self, checkpoint, role, link, heading, aimed, own_session,
                                  foreign, fields):
        worlds = [_checkpoint_world(checkpoint) for _ in range(2)]
        party = getattr(worlds[0], role)
        if aimed and party.expected is not None:
            heading, link = party.expected, party.expected_link
        session = party.session if own_session and party.session is not None else foreign
        # None stands for a timestamp fresh at the party's clock
        frame = [u64_bytes(party.clock) if f is None else f for f in fields]
        raw = encode_message(WireMessage(heading, session, tuple(frame)))
        verdicts = []
        for world, form in zip(worlds, (bytes, bytearray)):
            receiver = getattr(world, role)
            assert isinstance(receiver.receive(form(raw), link), list)
            verdicts.append((party_state(world), receiver.rejections))
        assert verdicts[0] == verdicts[1]


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
