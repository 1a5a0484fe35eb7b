import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import imdsec
from imdsec import attacks, codec, ecg, recovery
from imdsec.attacks import (
    MitmReadAttacker,
    default_shift_grid,
    forge_read_auth_attempts,
    indistinguishability_test,
    mitm_read_attack,
    random_guess_attack,
    uniform_guess_attack,
)
from imdsec.channel import Transcript
from imdsec.crypto import CryptoSuite
from imdsec.keymat import doctor_sealing_key
from imdsec.parties import SystemConfig, step_of
from imdsec.reports import sweep_solver_params
from imdsec.scenarios import SCENARIOS, build_world, drive
from imdsec.wire import Heading, decode_message

L1, L2 = 590, 1487


@pytest.fixture(scope="module")
def bench():
    record = ecg.synth_ecg_like(b"attack-bench", s=11)
    psi = recovery.build_basis(512)
    phi = recovery.gen_sensing_matrix(b"public-sensing-matrix", 256, 512)
    key = codec.cs_gen(b"attack-key", 512, L1, L2)
    cipher = codec.quantize(
        codec.cs_enc(key, ecg.to_bounded_signal(record), phi), 20
    )
    truth = record.samples.astype(float)
    return record, psi, phi, key, cipher, truth


class TestShiftGrid:
    def test_contains_zero_and_endpoints(self):
        grid = default_shift_grid()
        assert 0 in grid and -449 in grid and 449 in grid
        assert grid == sorted(grid)

    def test_step_structure(self):
        grid = default_shift_grid()
        assert {0, 50, -50, 400, -400} <= set(grid)


class TestUniformGuess:
    def test_degenerate_zero_key_matches_legit(self, bench):
        record, psi, phi, _, _, truth = bench
        zero_key = codec.ShiftKey(
            entries=np.zeros(512, dtype=np.int64), value_range=L2 - L1
        )
        cipher = codec.cs_enc(zero_key, ecg.to_bounded_signal(record), phi)
        params = sweep_solver_params(phi.m)
        prds = uniform_guess_attack(cipher, phi, psi, truth, grid=[0], params=params)
        y = codec.cs_deshift(zero_key, cipher, phi, L1, L2)
        _, x_hat = recovery.omp_reconstruct(y, phi, psi, params)
        assert prds == [pytest.approx(recovery.prd(truth, x_hat))]

    def test_one_prd_per_shift_each_a_one_row_recovery(self, bench):
        _, psi, phi, _, cipher, truth = bench
        params = sweep_solver_params(phi.m)
        grid = default_shift_grid()
        prds = uniform_guess_attack(cipher, phi, psi, truth, params=params)
        assert len(prds) == len(grid)
        column_sum = phi.entries @ np.ones(phi.n)
        for shift, value in zip(grid, prds):
            y = cipher.measurements - shift * column_sum
            _, x_hat = recovery.omp_reconstruct(y, phi, psi, params)
            assert value == pytest.approx(recovery.prd(truth, x_hat)), shift

    @pytest.mark.parametrize("cr", [50, 75, 90])
    def test_best_guess_stays_not_good(self, cr):
        record = ecg.synth_ecg_like(b"attack-bench", s=11)
        truth = record.samples.astype(float)
        psi = recovery.build_basis(512)
        m = recovery.cr_to_measurements(512, cr)
        phi = recovery.gen_sensing_matrix(b"public-sensing-matrix", m, 512)
        key = codec.cs_gen(b"attack-key", 512, L1, L2)
        cipher = codec.quantize(
            codec.cs_enc(key, ecg.to_bounded_signal(record), phi), 20
        )
        best = min(uniform_guess_attack(cipher, phi, psi, truth, params=sweep_solver_params(m)))
        assert best >= 9.0
        assert recovery.classify_prd(best) == recovery.QualityClass.NOT_GOOD

    def test_curve_worsens_at_extremes(self, bench):
        _, psi, phi, _, cipher, truth = bench
        prds = uniform_guess_attack(cipher, phi, psi, truth, params=sweep_solver_params(phi.m))
        curve = dict(zip(default_shift_grid(), prds))
        assert curve[449] > curve[0]
        assert curve[-449] > curve[0]


class TestRandomGuess:
    def test_min_stays_not_good_and_planted_matches(self, bench):
        _, psi, phi, key, cipher, truth = bench
        params = sweep_solver_params(phi.m)
        prds = random_guess_attack(
            cipher, phi, psi, truth, L1, L2,
            trials=30, seed=b"rg", params=params, planted_key=key,
        )
        # the planted-true-key trial is the legitimate recovery
        y = codec.cs_deshift(key, cipher, phi, L1, L2)
        _, x_hat = recovery.omp_reconstruct(y, phi, psi, params)
        assert prds[0] == pytest.approx(recovery.prd(truth, x_hat))
        assert prds[0] < 9.0
        assert min(prds[1:]) >= 9.0

    def test_one_stacked_deshift_gives_the_per_key_prds(self, bench, monkeypatch):
        _, psi, phi, key, cipher, truth = bench
        params = sweep_solver_params(phi.m)
        keys = [key] + [
            codec.cs_gen(b"rg" + trial.to_bytes(4, "big"), phi.n, L1, L2)
            for trial in range(1, 8)
        ]
        per_key = [codec.cs_deshift(k, cipher, phi, L1, L2) for k in keys]
        deshifted = []
        deshift = attacks.cs_deshift

        def spying_deshift(*args):
            deshifted.append(deshift(*args))
            return deshifted[-1]

        monkeypatch.setattr(attacks, "cs_deshift", spying_deshift)
        prds = random_guess_attack(
            cipher, phi, psi, truth, L1, L2,
            trials=len(keys), seed=b"rg", params=params, planted_key=key,
        )
        assert len(deshifted) == 1
        np.testing.assert_array_equal(deshifted[0], np.stack(per_key))
        assert prds == recovery.batch_prds(per_key, phi, psi, truth, params)

    def test_deterministic_per_seed(self, bench):
        _, psi, phi, _, cipher, truth = bench
        params = sweep_solver_params(phi.m)
        a = random_guess_attack(
            cipher, phi, psi, truth, L1, L2, trials=5, seed=b"s", params=params
        )
        b = random_guess_attack(
            cipher, phi, psi, truth, L1, L2, trials=5, seed=b"s", params=params
        )
        assert a == b


class TestMitm:
    def test_blocked_programmer_and_bad_attacker_recovery(self):
        result = mitm_read_attack(seed=3)
        assert not result.honest_programmer_completed
        assert not result.attacker_derived_key
        assert result.attacker_prd >= 9.0
        assert result.honest_baseline_prd < 9.0

    def test_degraded_oob_flips_the_outcome(self):
        result = mitm_read_attack(seed=3, degraded_oob=True)
        assert result.attacker_derived_key
        assert result.attacker_prd < 9.0

    def test_rm_forgeries_all_rejected(self):
        attempts = 10_000
        assert forge_read_auth_attempts(attempts=attempts, seed=4) == attempts


def _rewritten(transcript, sender, heading, **fields):
    """transcript with the named fields of sender's heading frames
    replaced; the two rows rewritten here carry no MAC."""
    step = step_of(sender, heading)
    out = Transcript()
    for entry in transcript.entries:
        if entry.kind == "wire" and entry.sender == sender and entry.payload[0] == heading:
            msg = decode_message(entry.payload)
            named = dict(zip(step.fields, msg.fields), **fields)
            entry = replace(entry, payload=step.encode(msg.session, named, CryptoSuite(), None))
        out.append(entry)
    return out


class TestMitmKeyDerivation:
    """MitmReadAttacker.derive_shift_key holds both factors; content it
    cannot read gives None, and any other error propagates."""

    @pytest.fixture(scope="class")
    def mitm(self):
        attacker = MitmReadAttacker(degraded_oob=True, stolen_sealing_key=doctor_sealing_key())
        world = build_world(seed=3, config=SystemConfig(n=64, qs=0), attacker=attacker)
        drive(world, SCENARIOS["read"])
        assert attacker.derive_shift_key(world.scheduler.transcript) is not None
        return attacker, world

    @pytest.mark.parametrize(
        "sender, heading, junk",
        [
            # an all-zero ephemeral X25519 key: the unseal fails
            ("smartphone", Heading.AUTH_REQ, lambda k_p: dict(challenge=bytes(80))),
            # shorter than a GCM nonce
            ("smartphone", Heading.READ_READY, lambda k_p: dict(enc_kd=b"junk")),
            # opens under K_P, but holds no shift key
            ("smartphone", Heading.READ_READY,
             lambda k_p: dict(enc_kd=CryptoSuite().sym_enc(k_p, b"no shift key"))),
        ],
        ids=["junk-challenge", "junk-enc-kd", "enc-kd-without-a-shift-key"],
    )
    def test_unreadable_content_derives_no_key(self, mitm, sender, heading, junk):
        attacker, world = mitm
        fields = junk(world.smartphone.current.k_p)
        transcript = _rewritten(world.scheduler.transcript, sender, heading, **fields)
        assert attacker.derive_shift_key(transcript) is None

    def test_any_other_error_propagates(self, mitm, monkeypatch):
        attacker, world = mitm

        def renamed(buf):
            raise AttributeError("a renamed attribute")

        monkeypatch.setattr(attacks, "deserialize_shift_key", renamed)
        with pytest.raises(AttributeError):
            attacker.derive_shift_key(world.scheduler.transcript)


class TestIndistinguishability:
    def test_passes_at_default_benchmark(self):
        result = indistinguishability_test(samples=100_000, seed=0)
        assert result.passed
        assert result.pvalue > 0.01

    def test_degenerate_key_fails(self):
        result = indistinguishability_test(
            samples=100_000, seed=0, degenerate_key=True
        )
        assert not result.passed

    def test_doubling_never_flips_pass_to_fail(self):
        flips = []
        for seed in range(20):
            small = indistinguishability_test(samples=100_000, seed=seed)
            if not small.passed:
                continue
            large = indistinguishability_test(samples=200_000, seed=seed)
            if not large.passed:
                flips.append(seed)
        assert flips == []


def test_importing_attacks_and_reports_leaves_scipy_stats_unloaded():
    # only the KS test needs scipy; the fuzz and sweep paths must not pay for it
    src = str(Path(imdsec.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import imdsec.attacks, imdsec.reports; "
        "print('scipy.stats' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
