import pytest

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

    @pytest.mark.parametrize(
        "verb, text, message",
        [
            ("attack", ON_BOUND, r"rec\.csv: samples must lie strictly inside \(590, 1487\)"),
            ("sweep", NON_NUMERIC, r"rec\.csv:2: non-numeric sample 'abc'"),
        ],
        ids=["sample-on-bound", "non-numeric-line"],
    )
    def test_loader_message_instead_of_traceback(self, tmp_path, verb, text, message):
        path = tmp_path / "rec.csv"
        path.write_text(text)
        with pytest.raises(SystemExit, match=message):
            main([verb, "--records", str(path), "--cr", "50", "--seeds", "1"])


class TestOpcount:
    def test_table_and_exit_code(self, capsys):
        assert main(["opcount"]) == 0
        out = capsys.readouterr().out
        assert "process,sym_enc,sym_dec,mac,kdf,cs_enc" in out
        assert "pair,0,0,1,1,0" in out
        assert "read,0,1,2,0,1" in out
        assert "write,1,1,3,0,0" in out
        assert "PASS op-count table" in out


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
