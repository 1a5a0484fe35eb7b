"""The dual-factor claim, one factor at a time (ROADMAP item 20).

The paper replaces the pre-shared programmer key with two factors: the
doctor's certificate, whose X25519 key unseals the nonce, and the
out-of-band RM.  Each test here gives the attacker some of the factors
and checks one thing the attacker must not achieve.  A cell that breaks
today is a strict xfail naming item 20."""

import pytest

from imdsec import codec, ecg
from imdsec.channel import Attacker, TranscriptEntry
from imdsec.crypto import CryptoSuite
from imdsec.parties import SystemConfig, derive_k_p, derive_k_r, pack_signals, step_of
from imdsec.scenarios import SCENARIOS, build_world, drive
from imdsec.wire import Heading, decode_message


class _RmOnlyAttacker(Attacker):
    """Reads the out-of-band RM and holds nothing else: no doctor key, no
    master key and no K_I.

    It replaces the smartphone's AUTH_REQ reply with a nonce of its own,
    sealed to the sealing key that the programmer's AUTH_REQ carries in
    the clear, so that the programmer's K_P, once the doctor enters the
    RM, is one the attacker can derive.  It then drops the programmer's
    read frames and answers them in place of the smartphone, with a
    shift key of its own under that K_P, and of the implant, with
    telemetry of its own under the matching K_R."""

    degraded_oob = True
    nonce = bytes(range(16))
    ephemeral = bytes(range(32, 64))

    def __init__(self, config):
        self.config = config
        self.scheduler = None  # set once the world is built
        self.suite = CryptoSuite()
        self.sealing_key = self.rm = self.kd_bytes = None
        self.signal = ecg.to_bounded_signal(ecg.synth_ecg_like(b"attacker", n=config.n))

    def observe_oob(self, entry):
        self.rm = entry.payload

    def _answer(self, sender, heading, session, key, **fields):
        """Send a frame as sender on its row, to the row's receiver."""
        step = step_of(sender, heading)
        raw = step.encode(session, fields, self.suite, key)
        self.scheduler.submit([TranscriptEntry("wire", step.link, sender, step.receiver, raw)])

    def intercept(self, entry):
        msg = decode_message(entry.payload)
        if entry.sender == "programmer" and msg.heading == Heading.AUTH_REQ:
            self.sealing_key = step_of("programmer", Heading.AUTH_REQ).read(msg).sealing_key
            return None
        if entry.sender == "smartphone" and msg.heading == Heading.AUTH_REQ:
            reply = step_of("smartphone", Heading.AUTH_REQ)
            challenge = self.suite.pk_enc(self.sealing_key, self.nonce, self.ephemeral)
            fields = dict(zip(reply.fields, msg.fields), challenge=challenge)
            return [reply.encode(msg.session, fields, self.suite, None)]
        if entry.sender == "programmer" and msg.heading == Heading.READ_AUTH_REQ:
            k_p = derive_k_p(self.suite, self.rm, msg.session, self.nonce)
            key = codec.cs_gen(b"attacker key", self.config.n, *ecg.WINDOW)
            self.kd_bytes = codec.serialize_shift_key(key)
            self._answer("smartphone", Heading.READ_READY, msg.session, None,
                         enc_kd=self.suite.sym_enc(k_p, self.kd_bytes))
            return []
        if entry.sender == "programmer" and msg.heading == Heading.READ_REQ:
            key = codec.deserialize_shift_key(self.kd_bytes)
            cipher = codec.cs_enc(key, self.signal, self.config.sensing_matrix())
            if self.config.qs:
                cipher = codec.quantize(cipher, self.config.qs)
            k_r = derive_k_r(self.suite, self.kd_bytes, msg.session)
            self._answer("imd", Heading.READ_REQ, msg.session, k_r,
                         c2=pack_signals([codec.serialize_ciphertext(cipher)]))
            return []
        return None


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="an attacker who reads the RM seals its own nonce to the doctor's public "
    "key and so holds K_P; ROADMAP item 20",
)
def test_rm_only_attacker_cannot_feed_the_programmer_telemetry():
    config = SystemConfig()
    attacker = _RmOnlyAttacker(config)
    world = build_world(seed=11, config=config, attacker=attacker)
    attacker.scheduler = world.scheduler
    result = drive(world, SCENARIOS["read"])
    assert result.phases["pair"]
    assert attacker.rm is not None and attacker.kd_bytes is not None
    # the real implant and smartphone did nothing on the attacker's behalf
    assert world.imd.applied_commands == []
    assert len(world.smartphone.ledger) == 0
    assert world.programmer.recovered_signals == []
    assert not world.programmer.read_complete
