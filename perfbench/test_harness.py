"""Self-tests of the benchmark harness (not of imdsec itself).

    python3 -m pytest -q perfbench/test_harness.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import imdsec  # noqa: E402
from imdsec import codec, recovery, reports, scenarios  # noqa: E402
from imdsec.parties import SystemConfig  # noqa: E402

import workloads  # noqa: E402
from spans import LAYER_FUNCTIONS, SpanRecorder, Tracer, layer_metrics  # noqa: E402
from workloads import ReadPath, Sweep, Tally  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_of_nested_spans():
    # outer [0, 100] holds a [10, 40] and b [50, 90]; b holds a [60, 70].
    rec = SpanRecorder(clock=FakeClock(0, 10, 40, 50, 60, 70, 90, 100))
    outer = rec.enter("outer")
    a = rec.enter("a")
    rec.exit(a)
    b = rec.enter("b")
    inner = rec.enter("a")
    rec.exit(inner)
    rec.exit(b)
    rec.exit(outer)
    summary = rec.summary()
    ns = 1e-9
    assert summary["outer"] == (1, pytest.approx(100 * ns), pytest.approx(30 * ns))
    assert summary["b"] == (1, pytest.approx(40 * ns), pytest.approx(30 * ns))
    assert summary["a"] == (2, pytest.approx(40 * ns), pytest.approx(40 * ns))
    assert rec.parents == [-1, 0, 0, 2]


def test_recursive_span_counts_busy_time_once():
    rec = SpanRecorder(clock=FakeClock(0, 10, 20, 30))
    outer = rec.enter("f")
    inner = rec.enter("f")
    rec.exit(inner)
    rec.exit(outer)
    calls, busy, own = rec.summary()["f"]
    assert calls == 2
    assert busy == pytest.approx(30e-9)
    assert own == pytest.approx(30e-9)


def _layer_attributes():
    """Every imdsec module attribute and class method the tracer touches."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("imdsec"):
            for attr, value in vars(module).items():
                if callable(value):
                    seen[(name, attr)] = value
    for cls in (imdsec.parties.Smartphone, imdsec.parties.Imd,
                imdsec.parties.Programmer, imdsec.crypto.CryptoSuite,
                imdsec.channel.Scheduler, imdsec.evidence.EvidenceLedger):
        seen[cls] = dict(vars(cls))
    return seen


def test_tracer_uninstall_restores_everything():
    import imdsec.attacks  # noqa: F401  (binds omp_reconstruct by name)

    before = _layer_attributes()
    with Tracer(SpanRecorder()):
        assert recovery.omp_reconstruct is not before[("imdsec.recovery", "omp_reconstruct")]
        assert imdsec.attacks.omp_reconstruct is recovery.omp_reconstruct
        assert "receive" in vars(imdsec.parties.Imd)
    assert _layer_attributes() == before


def test_traced_calls_return_what_untraced_calls_return():
    n, m = 128, 64
    phi = recovery.gen_sensing_matrix(b"harness", m, n)
    psi = recovery.build_basis(n)
    y = phi.entries @ psi.synthesize(np.eye(n)[3] * 5 + np.eye(n)[9])
    plain = recovery.omp_reconstruct(y, phi, psi)
    plain_info = recovery.omp_reconstruct(y, phi, psi, None, True)
    config = SystemConfig(n=64, qs=0)
    plain_session = scenarios.run_session(
        "full", seed=5, config=config, reconstruct=False
    )

    rec = SpanRecorder()
    with Tracer(rec):
        traced = recovery.omp_reconstruct(y, phi, psi)
        traced_info = recovery.omp_reconstruct(y, phi, psi, None, True)
        traced_kw = recovery.omp_reconstruct(y, phi, psi, return_info=True)
        traced_session = scenarios.run_session(
            "full", seed=5, config=config, reconstruct=False
        )

    assert len(traced) == 2 and len(traced_info) == 3
    for got, want in zip(traced, plain):
        np.testing.assert_array_equal(got, want)
    assert traced_info[2] == plain_info[2] == traced_kw[2]
    assert traced_session.transcript.dump() == plain_session.transcript.dump()
    assert traced_session.imd_op_counts == plain_session.imd_op_counts
    figures = layer_metrics(rec, items=1)
    assert figures["recovery.omp_reconstruct.calls"][0] == 3
    assert figures["recovery.omp_reconstruct.atoms"][0] == 3 * len(plain_info[2]["residuals"]) - 3
    assert figures["scenarios.run_session.calls"][0] == 1
    assert figures["channel.frames"][0] == len(traced_session.transcript)
    assert len(figures) == 3 * len(LAYER_FUNCTIONS) + 6


def test_read_path_rounds_pass_unchanged():
    workload = ReadPath(seed=3)
    tally = Tally()
    for _ in range(30):
        workload.run_round(tally)
    assert (tally.items, tally.failed) == (30, 0)


def test_corrupted_read_path_frame_counts_as_failed(monkeypatch):
    honest = codec.serialize_ciphertext

    def corrupted(cipher):
        frame = bytearray(honest(cipher))
        frame[13] ^= 0x10  # inside the measurement block
        return bytes(frame)

    monkeypatch.setattr(codec, "serialize_ciphertext", corrupted)
    workload = ReadPath(seed=3)
    tally = Tally()
    for _ in range(30):
        workload.run_round(tally)
    assert (tally.items, tally.failed) == (30, 30)


def test_joined_sweep_cells_equal_one_sweep_call(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    monkeypatch.setattr(reports, "DEFAULT_CR_GRID", (50, 90))
    monkeypatch.setattr(reports, "DEFAULT_QS_GRID", (0, 60))
    monkeypatch.setattr(Sweep, "seeds", 2)
    workload = Sweep(seed=4)
    tally = Tally()
    workload.run_round(tally)
    assert tally.items == 2 * 2 * 2 * 2
    direct = reports.sweep_prd(
        workload.records, cr_grid=(50, 90), qs_grid=(0, 60), seeds=2,
        master_seed=workload.master_seed,
    )
    reports.emit_report(direct, tmp_path / "direct.csv")
    joined = (tmp_path / "sweep-report.csv").read_bytes()
    assert joined == (tmp_path / "direct.csv").read_bytes()


ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py", "--workload", "read_path", "--seconds", "0.2"]


def _result(args, cwd=ROOT):
    import json
    import subprocess

    done = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_runs_print_exactly_the_metrics_benchmark_json_names():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = _result(RUN + ["--trace", "0"])
    traced = _result(RUN + ["--trace", "1"])
    assert plain["correct"] and traced["correct"]
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for metrics, listed in ((plain, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert [v["unit"] for v in metrics["metrics"].values()] == [m["unit"] for m in listed]


def test_run_without_the_package_fails_without_a_result(tmp_path):
    import shutil
    import subprocess

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(RUN + ["--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
