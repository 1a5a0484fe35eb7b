"""Golden report hash: fixed-seed report CSVs must replay byte for byte.

One sha256 covers two emitted reports: a small recovery sweep (two
synthetic records, CR 50 and 90, qs 0 and 20, two key seeds) and a small
attack report (CR 50, one key seed per record, three random guesses).
A change that must not alter what `imdsec sweep` and `imdsec attack`
write keeps this hash.

A second sha256 pins the CSV of bare `imdsec sweep`: the CLI's two
default records over DEFAULT_CR_GRID x DEFAULT_QS_GRID, 20 key seeds,
master seed 0.  It covers what the small grid does not: CR 95, where the
solver's atom cap is M // 2, and the packer's bit widths at qs 10 to 120.
"""

import hashlib

from imdsec import ecg
from imdsec.reports import (
    DEFAULT_CR_GRID,
    DEFAULT_QS_GRID,
    attack_report,
    emit_report,
    sweep_prd,
)

REPORT_SHA256 = "96a7d77631acd70573da54c4f2f2c1fd4753ac15ac0c494baccdeb4c7761e593"
DEFAULT_SWEEP_SHA256 = "ba16621a5d0de44727e2854faab10cbcc5a029db7ce9c5d589bb24200ee6ef52"


def report_digest(directory) -> str:
    records = [
        ecg.synth_ecg_like(f"golden-report/{i}".encode(), s=8 + i) for i in range(2)
    ]
    sweep = sweep_prd(records, cr_grid=(50, 90), qs_grid=(0, 20), seeds=2)
    attack = attack_report(records, cr_grid=(50,), seeds=1, trials=3)
    h = hashlib.sha256()
    for name, report in (("sweep", sweep), ("attack", attack)):
        path = directory / f"{name}.csv"
        emit_report(report, path)
        data = path.read_bytes()
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def test_golden_report_hash(tmp_path):
    assert report_digest(tmp_path) == REPORT_SHA256


def test_default_sweep_hash(tmp_path):
    records = [
        ecg.synth_ecg_like(f"cli-default/{i}".encode(), s=8 + i) for i in range(2)
    ]
    report = sweep_prd(records, DEFAULT_CR_GRID, DEFAULT_QS_GRID, seeds=20, master_seed=0)
    path = tmp_path / "sweep.csv"
    emit_report(report, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_SWEEP_SHA256
