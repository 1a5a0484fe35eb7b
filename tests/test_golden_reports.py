"""Golden report hash: fixed-seed report CSVs must replay byte for byte.

One sha256 covers two emitted reports: a small recovery sweep (two
synthetic records, CR 50 and 90, qs 0 and 20, two key seeds) and a small
attack report (CR 50, one key seed per record, three random guesses).
A change that must not alter what `imdsec sweep` and `imdsec attack`
write keeps this hash.
"""

import hashlib

from imdsec import ecg
from imdsec.reports import attack_report, emit_report, sweep_prd

REPORT_SHA256 = "96a7d77631acd70573da54c4f2f2c1fd4753ac15ac0c494baccdeb4c7761e593"


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
