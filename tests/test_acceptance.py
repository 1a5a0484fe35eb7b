"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured figures when it completes."""

import random
import time

import numpy as np
import pytest

from imdsec import codec, ecg, recovery, reports
from imdsec.attacks import BitFlipAttacker, indistinguishability_test
from imdsec.evidence import evidence_verify
from imdsec.parties import SystemConfig
from imdsec.scenarios import build_world, run_session
from support import party_state, replay_recorded, synth_sparse_signal

BOUNDS = ecg.WINDOW
FUZZ_CONFIG = SystemConfig(n=64, qs=0)


def _announce(criterion, detail):
    print(f"\nPASS criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def sweep_report():
    records = [
        ecg.synth_ecg_like(f"acceptance/{r}".encode(), s=8 + r) for r in range(2)
    ]
    return reports.sweep_prd(
        records,
        cr_grid=(50, 60, 70, 80, 90),
        qs_grid=(0, 10, 20, 30, 60, 100, 120),
        seeds=20,
    )


def test_c1_codec_roundtrip_exactness():
    start = time.monotonic()
    n, m = 512, 256
    phi = recovery.gen_sensing_matrix(b"acceptance-phi", m, n)
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for trial in range(1000):
        values = rng.uniform(BOUNDS[0] + 1e-6, BOUNDS[1] - 1e-6, size=n)
        x = codec.BoundedSignal(values=values, L1=BOUNDS[0], L2=BOUNDS[1])
        key = codec.cs_gen(trial.to_bytes(4, "big"), n, *BOUNDS)
        cipher = codec.cs_enc(key, x, phi)
        y = codec.cs_deshift(key, cipher, phi, *BOUNDS)
        worst = max(worst, float(np.max(np.abs(y - phi.entries @ values))))
    elapsed = time.monotonic() - start
    assert worst < 1e-6, f"worst deviation {worst}"
    assert elapsed < 30.0
    _announce(1, f"1000 round trips, worst |dev| {worst:.2e}, {elapsed:.1f}s")


def test_c2_unquantized_recovery_very_good():
    start = time.monotonic()
    n, m = 512, 256
    phi = recovery.gen_sensing_matrix(b"acceptance-phi", m, n)
    psi = recovery.build_basis(n)
    prds = []
    for seed in range(20):
        planted = synth_sparse_signal(
            f"c2/{seed}".encode(), n, s=5 + (seed % 16), L1=BOUNDS[0], L2=BOUNDS[1]
        )
        y = phi.entries @ planted.signal.values
        _, x_hat = recovery.omp_reconstruct(y, phi, psi)
        prds.append(recovery.prd(planted.signal.values, x_hat))
    elapsed = time.monotonic() - start
    median = float(np.median(prds))
    assert median < 2.0
    assert elapsed < 120.0
    _announce(2, f"median PRD {median:.4f}% over 20 sparse signals, {elapsed:.1f}s")


def test_c3_quantized_recovery_and_trends(sweep_report):
    benchmark = sweep_report.cell_median(50, 20)
    assert benchmark < 9.0
    qs_problems = reports.check_qs_trend(sweep_report)
    cr_problems = reports.check_cr_trend(sweep_report)
    assert qs_problems == [], qs_problems
    assert cr_problems == [], cr_problems
    _announce(
        3,
        f"CR=50/qs=20 median PRD {benchmark:.3f}% (<9), trends monotone "
        f"across CR {{50..90}} and qs {{10..120}}",
    )


def test_c4_attack_separation():
    start = time.monotonic()
    records = [
        ecg.synth_ecg_like(f"acceptance/{r}".encode(), s=8 + r) for r in range(2)
    ]
    report = reports.attack_report(
        records, cr_grid=(50,), qs=20, seeds=3, trials=100
    )
    problems = reports.check_attack_separation(report)
    assert problems == [], problems
    row = report.rows[0]
    extras = dict(row.extra)
    assert int(extras["uniform_best_shift"]) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _announce(
        4,
        f"legit {row.prd_median:.2f}% < 9 <= uniform "
        f"{float(extras['uniform_best_prd']):.2f}% (argmin 0) and random min "
        f"{float(extras['random_min_prd']):.2f}%, {elapsed:.0f}s",
    )


def test_c5_masking_indistinguishability():
    result = indistinguishability_test(samples=100_000, seed=0)
    control = indistinguishability_test(samples=100_000, seed=0, degenerate_key=True)
    assert result.passed, f"KS p={result.pvalue}"
    assert not control.passed
    _announce(
        5,
        f"KS D={result.statistic:.5f} p={result.pvalue:.3f} passes at 0.01; "
        f"degenerate control fails (D={control.statistic:.3f})",
    )


def test_c6_protocol_suite_fuzz():
    start = time.monotonic()

    # honest flows complete with byte-identical session keys
    honest = run_session("full", seed=100, config=SystemConfig())
    assert honest.ok
    w = honest.world
    assert w.smartphone.current.k_p == w.programmer.current.k_p
    assert w.smartphone.current.k_r == w.imd.current.k_r == w.programmer.current.k_r

    # no secret bytes anywhere on the wire
    wire_blob = b"".join(
        e.payload for e in honest.transcript.entries if e.kind == "wire"
    )
    for name, secret in w.secret_values().items():
        assert secret not in wire_blob, name

    # every recorded frame replayed into fresh sessions at every quiescent
    # checkpoint is rejected without a state change
    recorded = run_session("full", seed=101, config=FUZZ_CONFIG, reconstruct=False)
    assert recorded.ok
    replays = 0
    for checkpoint, _, fresh, before in replay_recorded(recorded, seed=102):
        assert party_state(fresh) == before, f"replay advanced state at {checkpoint}"
        replays += 1

    # 10^4 single-bit mutations of MAC-protected frames
    rng = random.Random(20260809)
    mutations = 10_000
    for i in range(mutations):
        attacker = BitFlipAttacker(rng.randrange(8), rng.randrange(1 << 14))
        world = build_world(
            seed=103, config=FUZZ_CONFIG, attacker=attacker, reconstruct=False
        )
        result = run_session("full", config=FUZZ_CONFIG, world=world)
        assert attacker.flipped_frame is not None
        assert not result.ok, f"mutation {i} survived: {attacker.flipped_frame}"
        assert len(world.imd.applied_commands) <= len(world.smartphone.ledger)

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _announce(
        6,
        f"honest flows ok, {replays} replays rejected, {mutations} bit "
        f"mutations all fatal, {elapsed:.0f}s",
    )


def test_c7_forensic_soundness():
    result = run_session("full", seed=104, config=FUZZ_CONFIG, command=b"cmd: c7")
    assert result.ok
    world = result.world
    applied = world.imd.applied_commands
    records = world.smartphone.ledger.records
    assert len(applied) == 1
    verifying = [
        r
        for r in records
        if r.command == applied[0]
        and evidence_verify(r, world.programmer.credentials.public_key)
    ]
    assert len(verifying) == 1

    import dataclasses

    record = verifying[0]
    field_mutations = {
        "doctor_id": b"DR-EVE",
        "smartphone_id": b"SM-XXXX",
        "implant_id": b"IMD-0000",
        "shift_key": record.shift_key[:-1] + bytes([record.shift_key[-1] ^ 1]),
        "ciphertext": record.ciphertext[:-1] + bytes([record.ciphertext[-1] ^ 1]),
        "command": b"cmd: evil",
        "timestamp": record.timestamp + 1,
    }
    for field_name, value in field_mutations.items():
        mutated = dataclasses.replace(record, **{field_name: value})
        assert not evidence_verify(
            mutated, world.programmer.credentials.public_key
        ), field_name
    _announce(
        7,
        "one verifying evidence record per applied command; all 7 field "
        "mutations rejected",
    )


def test_c8_imd_operation_counts():
    runs = reports.opcount_report(seeds=(0,))
    problems = reports.check_opcounts(runs)
    assert problems == [], problems

    world = build_world(seed=105, config=FUZZ_CONFIG, n_signals=3)
    multi = run_session("read", world=world)
    assert multi.imd_op_counts["read"] == {"sym_dec": 1, "mac": 2, "cs_enc": 3}
    _announce(
        8,
        "pair {mac 1, kdf 1}, auth {}, read {dec 1, mac 2, enc n}, "
        "write {enc 1, dec 1, mac 3}",
    )


def test_c9_communication_saving(sweep_report):
    problems = reports.check_communication_saving(sweep_report)
    assert problems == [], problems
    quantized = [r for r in sweep_report.rows if r.qs > 0]
    worst = max(r.payload_bytes / r.raw_bytes for r in quantized)
    _announce(
        9,
        f"every accepted-quality quantized cell fits in <= 50% of the raw "
        f"16-bit signal (worst ratio {worst:.2%})",
    )
