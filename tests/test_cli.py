import os
import subprocess
import sys
from pathlib import Path

import pytest

import imdsec
from imdsec import reports
from imdsec.attacks import mitm_read_attack
from imdsec.cli import main


class TestGenFixtures:
    def test_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "fixtures"
        assert main(["gen-fixtures", "--out", str(out), "--count", "2"]) == 0
        files = sorted(out.glob("*.csv"))
        assert len(files) == 2
        assert "wrote" in capsys.readouterr().out


class TestSweep:
    def test_small_grid_passes_checks(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--cr", "50", "70", "90",
                "--qs", "0", "20", "100",
                "--seeds", "4",
                "--out", str(out),
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert out.exists()
        assert "PASS CR trend" in captured
        assert "PASS communication saving" in captured
        assert "claim cr50_qs20_very_good: met" in captured

    def test_uses_fixture_dir_env(self, tmp_path, capsys, monkeypatch):
        fixture_dir = tmp_path / "recs"
        assert main(["gen-fixtures", "--out", str(fixture_dir), "--count", "1"]) == 0
        monkeypatch.setenv("IMDSEC_FIXTURE_DIR", str(fixture_dir))
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--cr", "50", "--qs", "0", "20", "--seeds", "2", "--out", str(out)]
        )
        assert code == 0
        content = out.read_text()
        record_id = sorted(fixture_dir.glob("*.csv"))[0].stem
        assert record_id in content


class TestRecordsFileErrors:
    # a sample on the benchmark bound L1 = 590; 512 lines are not resampled
    ON_BOUND = "590\n" + "700\n" * 511
    NON_NUMERIC = "700\nabc\n701\n"
    # past float64's exact integers: 10**20 wraps in the int64 cast, and
    # 2**53 + 1 rounds onto 2**53 and closes the (min - 1, max + 1) window
    HUGE = "700\n" * 511 + f"{10**20}\n"
    PAST_2_53 = "700\n" * 511 + f"{2**53 + 1}\n"

    @pytest.mark.parametrize(
        "verb, text, message",
        [
            ("attack", ON_BOUND, r"rec\.csv: samples must lie strictly inside \(590, 1487\)"),
            ("sweep", NON_NUMERIC, r"rec\.csv:2: non-numeric sample 'abc'"),
            ("sweep", HUGE, rf"rec\.csv:512: sample {10**20} is not below 2\*\*51"),
            ("sweep", PAST_2_53, rf"rec\.csv:512: sample {2**53 + 1} is not below 2\*\*51"),
        ],
        ids=["sample-on-bound", "non-numeric-line", "sample-1e20", "sample-2**53+1"],
    )
    def test_loader_message_instead_of_traceback(self, tmp_path, verb, text, message):
        path = tmp_path / "rec.csv"
        path.write_text(text)
        with pytest.raises(SystemExit, match=message):
            main([verb, "--records", str(path), "--cr", "50", "--seeds", "1"])

    @pytest.mark.parametrize(
        "verb, name, reason",
        [
            ("attack", "missing.csv", "No such file or directory"),
            ("sweep", "a-directory", "Is a directory"),
        ],
        ids=["missing-file", "directory"],
    )
    def test_unreadable_path_exits_with_its_reason(self, tmp_path, verb, name, reason):
        (tmp_path / "a-directory").mkdir()
        path = tmp_path / name
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--records", str(path), "--cr", "50", "--seeds", "1"])
        assert exit_info.value.code == f"{path}: {reason}"


    def test_samples_past_the_packer_exit_with_the_record_and_qs(self, tmp_path):
        # inside the loader's 2**51 limit, but 10**11 outgrows the 32-bit
        # step multiples the packer holds
        path = tmp_path / "big.csv"
        path.write_text(f"700\n{10**11}\n701\n")
        argv = ["sweep", "--records", str(path), "--cr", "50", "--qs", "1", "20", "--seeds", "1"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == "record big, qs 1: quantized multiples exceed 32-bit range"


class TestPathErrors:
    """A --out or --config path that cannot be written or read ends the
    run with one `<path>: <reason>` line, as a --records path does."""

    @pytest.mark.parametrize(
        "argv, name, reason",
        [
            (["session", "--scenario", "pair", "--n", "16", "--qs", "0", "--out"],
             "missing/x.txt", "No such file or directory"),
            (["session", "--scenario", "pair", "--n", "16", "--qs", "0", "--out"],
             "a-directory", "Is a directory"),
            (["sweep", "--cr", "50", "--qs", "0", "--seeds", "1", "--out"],
             "missing/x.csv", "No such file or directory"),
            (["attack", "--cr", "50", "--seeds", "1", "--trials", "1", "--out"],
             "missing/x.csv", "No such file or directory"),
            (["opcount", "--out"], "missing/x.csv", "No such file or directory"),
            (["session", "--config"], "missing.cfg", "No such file or directory"),
            (["session", "--config"], "a-directory", "Is a directory"),
            (["gen-fixtures", "--count", "1", "--out"], "a-file", "File exists"),
        ],
        ids=[
            "session-out-missing-dir", "session-out-directory", "sweep-out",
            "attack-out", "opcount-out", "config-missing", "config-directory",
            "gen-fixtures-out-file",
        ],
    )
    def test_exits_with_the_path_and_its_reason(self, tmp_path, argv, name, reason):
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "a-file").write_text("")
        path = tmp_path / name
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [str(path)])
        assert exit_info.value.code == f"{path}: {reason}"


class TestCountArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["attack", "--cr", "50", "--seeds", "0"],
            ["attack", "--cr", "50", "--seeds", "1", "--trials", "0"],
            ["opcount", "--seeds", "0"],
            ["sweep", "--cr", "50", "--qs", "20", "--seeds", "0"],
            ["gen-fixtures", "--count", "0"],
        ],
    )
    def test_count_below_one_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "must be at least 1, got 0" in capsys.readouterr().err


class TestOpcount:
    def test_table_and_exit_code(self, capsys):
        assert main(["opcount"]) == 0
        out = capsys.readouterr().out
        assert "process,sym_enc,sym_dec,mac,kdf,cs_enc" in out
        assert "pair,0,0,1,1,0" in out
        assert "read,0,1,2,0,1" in out
        assert "write,1,1,3,0,0" in out
        assert "PASS op-count table" in out

    def test_a_count_off_the_table_prints_fail_and_exits_1(self, capsys, monkeypatch):
        # the implant's write phase reports one MAC too many
        counts = {phase: dict(row) for phase, row in reports.EXPECTED_IMD_OPCOUNTS.items()}
        counts["write"]["mac"] += 1
        monkeypatch.setattr(reports, "opcount_report", lambda seeds: {0: counts})
        assert main(["opcount"]) == 1
        out = capsys.readouterr().out
        assert "write,1,1,4,0,0" in out
        want = reports.EXPECTED_IMD_OPCOUNTS["write"]
        assert out.endswith(
            f"FAIL op-count table\n  - seed 0 phase write: got {counts['write']}, want {want}\n"
        )


class TestSession:
    def test_honest_full_session(self, tmp_path, capsys):
        out = tmp_path / "transcript.txt"
        code = main(
            ["session", "--scenario", "full", "--n", "64", "--qs", "0",
             "--seed", "3", "--out", str(out)]
        )
        captured = capsys.readouterr().out
        assert code == 0, captured
        dump = out.read_text()
        assert "kind=wire" in dump and "link=s-i" in dump
        assert "PASS session invariants" in captured

    @pytest.mark.parametrize("n", [2, 16, 38])
    def test_short_records_run_a_full_session(self, n, capsys):
        code = main(["session", "--scenario", "full", "--n", str(n), "--qs", "0"])
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert "PASS session invariants" in captured

    def test_transcript_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert main(
                ["session", "--scenario", "read", "--n", "64", "--qs", "0",
                 "--seed", "9", "--out", str(path)]
            ) == 0
        assert a.read_text() == b.read_text()

    def test_replay_attacker_contained(self, capsys):
        code = main(
            ["session", "--scenario", "full", "--attacker", "replay",
             "--n", "64", "--qs", "0", "--seed", "4"]
        )
        captured = capsys.readouterr().out
        assert code == 0, captured

    def test_config_file_drives_the_run(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(
            "scenario = read\n"
            "attacker = none\n"
            "CR = 50\n"
            "qs = 0\n"
            "N = 64\n"
            "seeds = 11\n"
            "degraded_oob = false\n"
        )
        code = main(["session", "--config", str(config)])
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert "phases: {'pair': True, 'auth': True, 'read': True}" in captured

    def test_config_seeds_takes_one_integer(self, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text("scenario = pair\nN = 64\nseeds = 11, 12\n")
        with pytest.raises(SystemExit, match="seeds takes one integer"):
            main(["session", "--config", str(config)])

    @pytest.mark.parametrize("key, value", [("CR", "fifty"), ("qs", "2.5"), ("N", "")])
    def test_config_numbers_are_checked(self, tmp_path, key, value):
        config = tmp_path / "scenario.cfg"
        config.write_text(f"scenario = pair\n{key} = {value}\n")
        with pytest.raises(SystemExit, match=f"{key} takes one"):
            main(["session", "--config", str(config)])

    @pytest.mark.parametrize(
        "key, value, choices",
        [
            ("scenario", "bogus", "pair, auth, read, full"),
            ("attacker", "bogus", "none, passive, replay, mitm"),
            ("degraded_oob", "maybe", "true, yes, 1, false, no, 0"),
        ],
        ids=["scenario", "attacker", "degraded_oob"],
    )
    def test_config_choices_are_checked(self, tmp_path, key, value, choices):
        config = tmp_path / "scenario.cfg"
        config.write_text(f"N = 64\n{key} = {value}\n")
        message = f"scenario.cfg: {key} takes one of {choices}, got '{value}'"
        with pytest.raises(SystemExit, match=message):
            main(["session", "--config", str(config)])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["session", "--cr", "100"], "compression rate 100.0 leaves no valid M for N=512"),
            (["session", "--cr", "nan"], "compression rate nan leaves no valid M for N=512"),
            (["session", "--n", "0"], "N must be at least 2, got 0"),
            (["session", "--n", "1"], "N must be at least 2, got 1"),
            (["session", "--qs", "-5"], "qs must be at least 0, got -5"),
            (["sweep", "--cr"], "argument --cr: expected at least one argument"),
            (["attack", "--cr"], "argument --cr: expected at least one argument"),
            (["sweep", "--qs"], "argument --qs: expected at least one argument"),
            (["sweep", "--qs", "-10"], "argument --qs: qs must be at least 0, got -10"),
            (["attack", "--qs", "-5"], "argument --qs: qs must be at least 0, got -5"),
            (
                ["sweep", "--cr", "100"],
                "argument --cr: compression rate 100.0 leaves no valid M for N=512",
            ),
        ],
        ids=[
            "cr-100", "cr-nan", "n-0", "n-1", "qs-negative", "sweep-cr-empty", "attack-cr-empty",
            "sweep-qs-empty", "sweep-qs-negative", "attack-qs-negative", "sweep-cr-100",
        ],
    )
    def test_out_of_range_parameters_are_refused(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        # session exits with its message; argparse exits 2 and prints the
        # message last on stderr, after the usage
        refusal = exit_info.value.code
        if refusal == 2:
            refusal = capsys.readouterr().err.splitlines()[-1]
            message = f"imdsec {argv[0]}: error: {message}"
        assert refusal == message

    def test_config_line_without_equals_is_refused(self, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text("scenario = pair\nbogus line\n")
        with pytest.raises(SystemExit, match="scenario.cfg: bad config line 'bogus line'"):
            main(["session", "--config", str(config)])

    @pytest.mark.parametrize("line", ["cr = 70", "seed = 5"])
    def test_config_unknown_key_is_refused(self, tmp_path, line):
        config = tmp_path / "scenario.cfg"
        config.write_text(f"scenario = pair\nN = 64\n{line}\n")
        known = "scenario, attacker, CR, qs, N, seeds, degraded_oob"
        with pytest.raises(SystemExit, match=f"unknown config key .*known keys: {known}"):
            main(["session", "--config", str(config)])

    @pytest.mark.parametrize("verb", ["session", "attack"])
    def test_qs_takes_one_value(self, verb, capsys):
        with pytest.raises(SystemExit):
            main([verb, "--qs", "0", "20"])
        assert "unrecognized arguments: 20" in capsys.readouterr().err


class TestAttack:
    def test_default_qs_is_the_benchmark_step(self, tmp_path, capsys):
        out = tmp_path / "attack.csv"
        main(["attack", "--cr", "50", "--seeds", "1", "--trials", "3", "--out", str(out)])
        assert "# qs = 20" in out.read_text().splitlines()


class TestMitmVerb:
    def test_mitm_separation(self, capsys):
        code = main(["session", "--attacker", "mitm", "--seed", "2"])
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert "PASS mitm separation" in captured

    def test_degraded_oob(self, capsys):
        code = main(["session", "--attacker", "mitm", "--degraded-oob", "--seed", "2"])
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert "PASS degraded out-of-band attack succeeds" in captured

    def test_out_writes_the_attacked_transcript(self, tmp_path, capsys):
        out = tmp_path / "mitm.txt"
        code = main(["session", "--attacker", "mitm", "--seed", "2", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert f"wrote {out}" in captured
        assert out.read_text() == mitm_read_attack(seed=2).transcript.dump()

    MITM_NEEDS_READ = "the mitm attacker attacks the read flow, which scenario {} does not reach"
    DEGRADED_NEEDS_MITM = "degraded_oob applies to the mitm attacker only"

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["--attacker", "mitm", "--scenario", "pair"], "", MITM_NEEDS_READ.format("pair")),
            (["--attacker", "mitm", "--scenario", "auth"], "", MITM_NEEDS_READ.format("auth")),
            (["--degraded-oob"], "", DEGRADED_NEEDS_MITM),
            (["--degraded-oob", "--attacker", "replay"], "", DEGRADED_NEEDS_MITM),
            ([], "attacker = mitm\nscenario = pair\n", MITM_NEEDS_READ.format("pair")),
            (["--attacker", "mitm"], "scenario = auth\n", MITM_NEEDS_READ.format("auth")),
            ([], "degraded_oob = yes\n", DEGRADED_NEEDS_MITM),
            (["--degraded-oob"], "attacker = passive\n", DEGRADED_NEEDS_MITM),
        ],
        ids=["pair", "auth", "degraded-alone", "degraded-replay", "config-pair",
             "config-auth", "config-degraded", "config-passive-degraded"],
    )
    def test_a_flag_the_run_would_ignore_is_refused(self, tmp_path, capsys, argv, config,
                                                    message):
        out = tmp_path / "t.txt"
        if config:
            (tmp_path / "s.cfg").write_text(config)
            argv = argv + ["--config", str(tmp_path / "s.cfg")]
        with pytest.raises(SystemExit) as exit_info:
            main(["session", *argv, "--out", str(out)])
        assert exit_info.value.code == message
        assert capsys.readouterr().out == ""
        assert not out.exists()


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [["session", "--n", "16", "--qs", "0"], ["opcount"]])
    def test_a_reader_gone_before_any_write_ends_quietly(self, argv):
        src = str(Path(imdsec.__file__).resolve().parent.parent)
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader left before the verb wrote a byte
        try:
            done = subprocess.run(
                [sys.executable, "-m", "imdsec", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src},
            )
        finally:
            os.close(write_end)
        assert "BrokenPipeError" not in done.stderr
        assert "Traceback" not in done.stderr
        assert done.returncode == 1
