import dataclasses
from pathlib import Path

import pytest

from imdsec.crypto import CryptoSuite, SignatureBlob, length_prefixed
from imdsec.evidence import (
    EvidenceLedger,
    EvidenceRecord,
    evidence_verify,
)
from imdsec.keymat import doctor_signing_key
from imdsec.parties import SystemConfig
from imdsec.scenarios import run_session

FAST = SystemConfig(n=64, cr=50.0, qs=0)
# the ledger of a full n=64 session (seed 31), written when records were
# signed with RSA-2048 PKCS#1 v1.5
RSA_ERA_LEDGER = Path(__file__).parent / "data" / "rsa_era_ledger.bin"


@pytest.fixture(scope="module")
def signed_record():
    suite = CryptoSuite()
    key = doctor_signing_key()
    fields = dict(
        doctor_id=b"DR-A",
        smartphone_id=b"SM-1",
        implant_id=b"IMD-9",
        shift_key=b"\x00\x00\x00\x02\x00\x00\x03\x81" + b"\x00" * 8,
        ciphertext=b"compressed-bytes",
        command=b"cmd: amplitude=3",
        timestamp=12345,
    )
    payload = EvidenceRecord(**fields).signed_bytes()
    record = EvidenceRecord(signature=suite.sign(key, payload), **fields)
    return record, key.public_key()


class TestVerification:
    def test_honest_record_accepts(self, signed_record):
        record, public = signed_record
        assert evidence_verify(record, public)

    def test_every_field_mutation_rejects(self, signed_record):
        record, public = signed_record
        mutations = {
            "doctor_id": b"DR-B",
            "smartphone_id": b"SM-2",
            "implant_id": b"IMD-0",
            "shift_key": record.shift_key[:-1] + b"\x01",
            "ciphertext": b"compressed-bytee",
            "command": b"cmd: amplitude=9",
            "timestamp": record.timestamp + 1,
            "signature": SignatureBlob(
                record.signature.algorithm,
                record.signature.data[:-1]
                + bytes([record.signature.data[-1] ^ 1]),
            ),
        }
        for field_name, value in mutations.items():
            mutated = dataclasses.replace(record, **{field_name: value})
            assert not evidence_verify(mutated, public), field_name

    def test_swapped_key_and_ciphertext_rejects(self, signed_record):
        # the signature fixes C2-before-key order; storing them swapped
        # must not verify even though the byte multiset is identical
        record, public = signed_record
        swapped = dataclasses.replace(
            record, shift_key=record.ciphertext, ciphertext=record.shift_key
        )
        assert not evidence_verify(swapped, public)

    def test_verify_is_total_on_junk(self, signed_record):
        record, public = signed_record
        junk = dataclasses.replace(
            record, signature=SignatureBlob("junk-alg", b"")
        )
        assert evidence_verify(junk, public) is False

    def test_an_unsigned_record_rejects(self, signed_record):
        # signature defaults to None until the doctor signs
        record, public = signed_record
        unsigned = dataclasses.replace(record, signature=None)
        assert evidence_verify(unsigned, public) is False

    def test_a_bytes_like_signature_accepts(self, signed_record):
        record, public = signed_record
        blob = SignatureBlob(record.signature.algorithm, bytearray(record.signature.data))
        assert evidence_verify(dataclasses.replace(record, signature=blob), public) is True


class TestLedgerFile:
    def test_roundtrip_and_append_only(self, tmp_path, signed_record):
        record, public = signed_record
        path = tmp_path / "ledger.bin"
        ledger = EvidenceLedger(str(path))
        ledger.append(record)
        second = dataclasses.replace(record, timestamp=99999)
        ledger.append(second)

        reopened = EvidenceLedger(str(path))
        assert len(reopened) == 2
        assert reopened.records[0] == record
        assert reopened.records[1] == second

    def test_truncated_file_raises_value_error(self, tmp_path, signed_record):
        record, _ = signed_record
        path = tmp_path / "ledger.bin"
        EvidenceLedger(str(path)).append(record)
        data = path.read_bytes()
        for cut in (2, 4, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="truncated ledger file"):
                EvidenceLedger(str(path))

    @pytest.mark.parametrize("corrupt", ["short record", "bad timestamp", "bad label"])
    def test_corrupt_record_raises_value_error(self, tmp_path, signed_record, corrupt):
        record, _ = signed_record
        fields = [
            record.doctor_id,
            record.smartphone_id,
            record.implant_id,
            record.ciphertext,
            record.shift_key,
            record.command,
            record.timestamp.to_bytes(8, "big"),
            record.signature.algorithm.encode(),
            record.signature.data,
        ]
        if corrupt == "short record":
            fields = fields[:-1]
        elif corrupt == "bad timestamp":
            fields[6] = b"\x00\x01"
        else:
            fields[7] = b"\xff\xfe"
        path = tmp_path / "ledger.bin"
        path.write_bytes(length_prefixed(length_prefixed(*fields)))
        with pytest.raises(ValueError, match="corrupt ledger record"):
            EvidenceLedger(str(path))

    def test_a_ledger_of_rsa_signed_records_loads_and_verifies_false(self, signed_record):
        _, public = signed_record
        ledger = EvidenceLedger(str(RSA_ERA_LEDGER))
        assert len(ledger) == 1
        record = ledger.records[0]
        signature = record.signature
        assert (signature.algorithm, len(signature.data)) == ("rsa-pkcs1v15-sha256", 256)
        relabelled = SignatureBlob("ed25519", signature.data)
        assert evidence_verify(record, public) is False
        assert evidence_verify(dataclasses.replace(record, signature=relabelled), public) is False

    def test_record_serialization_roundtrip(self, signed_record):
        record, _ = signed_record
        assert EvidenceRecord.from_bytes(record.to_bytes()) == record

    def test_stored_record_is_the_signed_bytes_then_the_signature(self, signed_record):
        record, _ = signed_record
        signature = record.signature
        assert record.to_bytes() == record.signed_bytes() + length_prefixed(
            signature.algorithm.encode(), signature.data
        )


class TestForensicSoundness:
    def test_each_applied_command_has_one_verifying_record(self):
        result = run_session("full", seed=31, config=FAST, command=b"cmd: x")
        assert result.ok
        world = result.world
        applied = world.imd.applied_commands
        records = world.smartphone.ledger.records
        assert len(applied) == len(records) == 1
        matching = [r for r in records if r.command == applied[0]]
        assert len(matching) == 1
        assert evidence_verify(matching[0], world.programmer.credentials.public_key)

    def test_no_authorization_without_stored_record(self):
        # scan the transcript: any set-allow frame must postdate a ledger entry
        result = run_session("full", seed=32, config=FAST)
        assert result.ok
        from imdsec.wire import Heading, decode_message

        set_allows = [
            e
            for e in result.transcript.wire_entries()
            if decode_message(e.payload).heading == Heading.SET_ALLOW
            and e.sender == "smartphone"
        ]
        assert len(set_allows) == 1
        assert len(result.world.smartphone.ledger) == 1
