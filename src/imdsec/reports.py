"""Parameter sweeps, attack benchmarks, op-count tables and CSV emission.

The sweep reproduces the usability experiment: for every (record, CR,
qs) cell it runs the full generate -> mask -> project -> quantize ->
de-shift -> reconstruct pipeline and reports the median PRD over seeds.
The solver capacity is held fixed across the compression grid so the CR
axis isolates measurement loss (noise folding) instead of varying the
reconstruction budget.  A cell runs the codec over the stack of its
shift keys, one cached set per master seed, and solves the stack in one
recovery.batch_prds call; its payload_bytes is the wire length of its
widest frame.  Sweeps and attack reports refuse fewer than one seed.

Reports are CSV files with a '#'-prefixed metadata block recording every
seed and parameter needed to regenerate them byte-for-byte.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import codec, ecg, recovery
from .attacks import default_shift_grid, random_guess_attack, uniform_guess_attack
from .scenarios import run_session
from .parties import SystemConfig

__all__ = [
    "SweepRow",
    "SweepReport",
    "sweep_prd",
    "attack_report",
    "opcount_report",
    "emit_report",
    "parse_report",
    "check_qs_trend",
    "check_cr_trend",
    "check_communication_saving",
    "check_attack_separation",
    "evaluate_claims",
    "OPCOUNT_OPS",
    "EXPECTED_IMD_OPCOUNTS",
    "DEFAULT_CR_GRID",
    "DEFAULT_QS_GRID",
    "ATTACK_CR_GRID",
    "sweep_solver_params",
]

DEFAULT_CR_GRID = (50, 60, 70, 80, 85, 90, 95)
DEFAULT_QS_GRID = (0, 10, 20, 30, 60, 100, 120)
ATTACK_CR_GRID = (50, 75, 90)
RAW_SAMPLE_BYTES = 2  # signed 16-bit baseline

# process -> implant-side crypto operation counts for one run (n=1 signal)
OPCOUNT_OPS = ("sym_enc", "sym_dec", "mac", "kdf", "cs_enc")
EXPECTED_IMD_OPCOUNTS = {
    phase: dict(zip(OPCOUNT_OPS, counts))
    for phase, counts in (
        ("pair", (0, 0, 1, 1, 0)),
        ("auth", (0, 0, 0, 0, 0)),
        ("read", (0, 1, 2, 0, 1)),
        ("write", (1, 1, 3, 0, 0)),
    )
}


def sweep_solver_params(m: int) -> recovery.RecoveryParams:
    """Fixed 25-atom budget (halved when measurements run short)."""
    return recovery.RecoveryParams(max_atoms=min(25, m // 2))


# (name, cell formatter, parser) of the base CSV columns, in order
_COLUMNS = (
    ("record_id", str, str),
    ("provenance", str, str),
    ("cr", "{:g}".format, float),
    ("qs", str, int),
    ("prd_median", "{:.6f}".format, float),
    ("quality", str, str),
    ("payload_bytes", str, int),
    ("raw_bytes", str, int),
)
_BASE_HEADER = ",".join(name for name, _, _ in _COLUMNS)


@dataclass(frozen=True)
class SweepRow:
    record_id: str
    provenance: str
    cr: float
    qs: int
    prd_median: float
    quality: str
    payload_bytes: int
    raw_bytes: int
    extra: tuple[tuple[str, str], ...] = ()

    def as_csv(self) -> str:
        cells = [format_cell(getattr(self, name)) for name, format_cell, _ in _COLUMNS]
        cells += [value for _, value in self.extra]
        return ",".join(cells)


@dataclass
class SweepReport:
    kind: str
    header: str
    rows: list[SweepRow]
    metadata: dict[str, str]

    def cell_median(self, cr: float, qs: int) -> float:
        values = [r.prd_median for r in self.rows if r.cr == cr and r.qs == qs]
        if not values:
            raise KeyError(f"no cell ({cr}, {qs})")
        return float(np.median(values))


def _key_set(
    master_seed: int, first: int, count: int, n: int, L1: int, L2: int
) -> codec.ShiftKey:
    """Shift keys first .. first + count - 1 of the master seed as one
    stack, one row per key, made read-only because
    recovery.cached_operator shares them."""
    entries = np.stack([
        codec.cs_gen(f"sweep-key/{master_seed}/{i}".encode(), n, L1, L2).entries
        for i in range(first, first + count)
    ])
    entries.flags.writeable = False
    return codec.ShiftKey(entries=entries, value_range=L2 - L1)


def _keys(signal: codec.BoundedSignal, master_seed: int, first: int, count: int) -> codec.ShiftKey:
    return recovery.cached_operator(
        _key_set, master_seed, first, count, signal.n, signal.L1, signal.L2
    )


def _check_counts(records, seeds: int) -> None:
    if not records:
        raise ValueError("need at least one record")
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")


def _trials(signal, keys, phi, psi, params, qs):
    """One signal under a stack of shift keys (qs 0: unquantized): the
    ciphertext stack as sent, and the recovery PRDs in key order."""
    cipher = codec.cs_enc(keys, signal, phi)
    if qs:
        cipher = codec.quantize(cipher, qs)
    deshifted = codec.cs_deshift(keys, cipher, phi, signal.L1, signal.L2)
    return cipher, recovery.batch_prds(deshifted, phi, psi, signal.values, params)


def _report(kind, header, rows, records, cr_grid, seeds, master_seed, **own) -> SweepReport:
    """A report whose metadata holds the keys every kind records, then
    the kind's own."""
    metadata = {
        "kind": kind,
        "n": str(records[0].n),
        "seeds": str(seeds),
        "master_seed": str(master_seed),
        "cr_grid": " ".join(str(c) for c in cr_grid),
        "records": " ".join(r.source_id for r in records),
        "matrix_seed": SystemConfig.matrix_seed.hex(),
        "basis": "cosine",
        **own,
    }
    return SweepReport(kind=kind, header=header, rows=rows, metadata=metadata)


def sweep_prd(
    records: Sequence[ecg.EcgRecord],
    cr_grid: Sequence[float] = DEFAULT_CR_GRID,
    qs_grid: Sequence[int] = DEFAULT_QS_GRID,
    seeds: int = 20,
    master_seed: int = 0,
) -> SweepReport:
    """Median recovery quality per (record, CR, qs) cell.

    The same shift keys are reused across cells (common random numbers)
    so grid trends reflect the parameters, not key luck.  They come from
    recovery.cached_operator, so records of one window, and calls that
    walk the grid one cell at a time, share one key set per master seed.
    """
    _check_counts(records, seeds)
    n = records[0].n
    psi = recovery.cached_operator(recovery.build_basis, n)
    signals = [ecg.to_bounded_signal(record) for record in records]
    keys = [_keys(signal, master_seed, 0, seeds) for signal in signals]
    rows = []
    for cr in cr_grid:
        config = SystemConfig(n=n, cr=cr)
        m, phi = config.m, config.sensing_matrix()
        params = sweep_solver_params(m)
        for qs in qs_grid:
            for record, signal, shifts in zip(records, signals, keys):
                cipher, prds = _trials(signal, shifts, phi, psi, params, qs)
                try:
                    payload = len(codec.serialize_ciphertext(cipher.widest()))
                except codec.CodecError as exc:
                    raise codec.CodecError(f"record {record.source_id}, qs {qs}: {exc}") from exc
                median = float(np.median(prds))
                rows.append(
                    SweepRow(
                        record_id=record.source_id,
                        provenance=record.provenance,
                        cr=float(cr),
                        qs=int(qs),
                        prd_median=median,
                        quality=recovery.classify_prd(median).value,
                        payload_bytes=payload,
                        raw_bytes=RAW_SAMPLE_BYTES * record.n,
                    )
                )
    return _report(
        "sweep", _BASE_HEADER, rows, records, cr_grid, seeds, master_seed,
        qs_grid=" ".join(str(q) for q in qs_grid), solver="omp max_atoms=min(25,M//2)",
    )


def attack_report(
    records: Sequence[ecg.EcgRecord],
    cr_grid: Sequence[float] = ATTACK_CR_GRID,
    qs: int = SystemConfig.qs,
    seeds: int = 3,
    trials: int = 100,
    master_seed: int = 0,
) -> SweepReport:
    """Guessing-attack quality next to the legitimate baseline per CR.

    The uniform-guess curve is averaged over records and keys before
    locating its best shift; the random guess runs `trials` fresh keys
    against the first record.
    """
    _check_counts(records, seeds)
    n = records[0].n
    psi = recovery.cached_operator(recovery.build_basis, n)
    grid = default_shift_grid(bound=records[0].shift_bound)
    signals = [ecg.to_bounded_signal(record) for record in records]
    keys = [_keys(s, master_seed, 1000 + ri * seeds, seeds) for ri, s in enumerate(signals)]
    rows = []
    for cr in cr_grid:
        config = SystemConfig(n=n, cr=cr)
        m, phi = config.m, config.sensing_matrix()
        params = sweep_solver_params(m)
        legit_prds = []
        curves = []
        for ri, (signal, shifts) in enumerate(zip(signals, keys)):
            cipher, prds = _trials(signal, shifts, phi, psi, params, qs)
            ciphers = [cipher.row(i) for i in range(seeds)]
            legit_prds += prds
            curves += [
                uniform_guess_attack(cipher, phi, psi, signal.values, grid=grid, params=params)
                for cipher in ciphers
            ]
            if ri == 0:
                random_min = min(random_guess_attack(
                    ciphers[0], phi, psi, signal.values, signal.L1, signal.L2,
                    trials=trials, seed=f"attack/{master_seed}".encode(), params=params,
                ))
        mean_curve = np.asarray(curves).mean(axis=0)
        best_idx = int(np.argmin(mean_curve))
        legit_median = float(np.median(legit_prds))
        rows.append(
            SweepRow(
                record_id="aggregate",
                provenance=records[0].provenance,
                cr=float(cr),
                qs=int(qs),
                prd_median=legit_median,
                quality=recovery.classify_prd(legit_median).value,
                payload_bytes=0,
                raw_bytes=RAW_SAMPLE_BYTES * n,
                extra=(
                    ("uniform_best_prd", f"{float(mean_curve[best_idx]):.6f}"),
                    ("uniform_best_shift", str(grid[best_idx])),
                    ("random_min_prd", f"{float(random_min):.6f}"),
                ),
            )
        )
    return _report(
        "attack", _BASE_HEADER + ",uniform_best_prd,uniform_best_shift,random_min_prd",
        rows, records, cr_grid, seeds, master_seed,
        qs=str(qs), trials=str(trials), shift_grid=" ".join(str(s) for s in grid),
    )


def opcount_report(seeds: Sequence[int] = (0,)):
    """Implant-side crypto-operation counts per protocol phase, at N = 64
    unquantized: the counts do not depend on the operating point."""
    runs = {}
    for seed in seeds:
        result = run_session(
            "full", seed=seed, config=SystemConfig(n=64, qs=0), reconstruct=False
        )
        if not result.ok:
            raise RuntimeError(f"scenario run failed for seed {seed}")
        runs[seed] = {
            phase: {op: counts.get(op, 0) for op in OPCOUNT_OPS}
            for phase, counts in result.imd_op_counts.items()
        }
    return runs


def check_opcounts(runs) -> list[str]:
    problems = []
    for seed, phases in runs.items():
        for phase, expected in EXPECTED_IMD_OPCOUNTS.items():
            if phases.get(phase) != expected:
                problems.append(
                    f"seed {seed} phase {phase}: got {phases.get(phase)}, "
                    f"want {expected}"
                )
    return problems


# --- report invariants ----------------------------------------------------


_TREND_TOL = 1e-9


def _falls(report: SweepReport, cells) -> list[tuple]:
    """(cell, median, previous median) for each (cr, qs) cell whose median
    falls more than _TREND_TOL below that of the cell before it."""
    medians = [report.cell_median(cr, qs) for cr, qs in cells]
    return [
        (cell, value, previous)
        for cell, value, previous in zip(cells[1:], medians[1:], medians)
        if value < previous - _TREND_TOL
    ]


def check_qs_trend(report: SweepReport) -> list[str]:
    """Medians must not decrease along the positive qs grid at SystemConfig.cr."""
    cr = SystemConfig.cr
    qs_values = sorted({r.qs for r in report.rows if r.qs > 0})
    return [
        f"qs trend violated at CR={cr:g}: PRD({qs})={value:.4f} < "
        f"PRD(previous)={previous:.4f}"
        for (_, qs), value, previous in _falls(report, [(cr, qs) for qs in qs_values])
    ]


def check_cr_trend(report: SweepReport) -> list[str]:
    """Medians must not decrease along CR, within every qs column."""
    cr_values = sorted({r.cr for r in report.rows})
    qs_values = sorted({r.qs for r in report.rows})
    return [
        f"CR trend violated at qs={qs}: PRD(CR={cr})={value:.4f} "
        f"< previous {previous:.4f}"
        for qs in qs_values
        for (cr, _), value, previous in _falls(report, [(cr, qs) for cr in cr_values])
    ]


def check_communication_saving(report: SweepReport) -> list[str]:
    """Quantized cells with acceptable quality must halve the raw size."""
    problems = []
    for row in report.rows:
        if row.qs <= 0 or row.quality == recovery.QualityClass.NOT_GOOD.value:
            continue
        if row.payload_bytes > row.raw_bytes // 2:
            problems.append(
                f"cell ({row.record_id}, CR={row.cr:g}, qs={row.qs}): payload "
                f"{row.payload_bytes} B exceeds half of {row.raw_bytes} B"
            )
    return problems


def _not_good(prd: float) -> bool:
    return recovery.classify_prd(prd) is recovery.QualityClass.NOT_GOOD


def check_attack_separation(report: SweepReport) -> list[str]:
    """Legitimate recovery must stay below the not-good line while every
    attack lands at or above it, in every attack cell."""
    problems = []
    for row in report.rows:
        extras = dict(row.extra)
        uniform = float(extras["uniform_best_prd"])
        rand_min = float(extras["random_min_prd"])
        if _not_good(row.prd_median):
            problems.append(f"CR={row.cr:g}: legitimate PRD {row.prd_median:.2f} >= 9")
        if not _not_good(uniform):
            problems.append(f"CR={row.cr:g}: uniform-guess PRD {uniform:.2f} < 9")
        if not _not_good(rand_min):
            problems.append(f"CR={row.cr:g}: random-guess min {rand_min:.2f} < 9")
    return problems


_VERY_GOOD = (recovery.QualityClass.VERY_GOOD,)
_GOOD = (*_VERY_GOOD, recovery.QualityClass.VERY_GOOD_OR_GOOD)
# claim -> (cr, qs, the quality classes that meet it)
_CLAIM_CELLS = {
    "cr50_qs20_very_good": (50, 20, _VERY_GOOD),
    "cr60_qs10_very_good": (60, 10, _VERY_GOOD),
    "cr85_qs100_good": (85, 100, _GOOD),
    "cr95_qs60_good": (95, 60, _GOOD),
    "cr90_qs100_good": (90, 100, _GOOD),
}


def evaluate_claims(report: SweepReport) -> dict[str, str]:
    """Check the headline compression/quality targets the evaluation
    states; cells outside the sweep grid come back 'not-evaluated'."""
    verdicts = {}
    for name, (cr, qs, meeting) in _CLAIM_CELLS.items():
        try:
            value = report.cell_median(cr, qs)
        except KeyError:
            verdicts[name] = "not-evaluated"
            continue
        verdicts[name] = "met" if recovery.classify_prd(value) in meeting else "not-met"
    return verdicts


# --- emission --------------------------------------------------------------


def emit_report(report: SweepReport, path) -> None:
    """Write metadata block plus CSV; stable ordering, byte-reproducible."""
    buf = io.StringIO()
    for key in sorted(report.metadata):
        buf.write(f"# {key} = {report.metadata[key]}\n")
    buf.write(report.header + "\n")
    for row in report.rows:
        buf.write(row.as_csv() + "\n")
    Path(path).write_text(buf.getvalue())


def parse_report(path) -> SweepReport:
    metadata: dict[str, str] = {}
    rows: list[SweepRow] = []
    header = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = value.strip()
            continue
        if header is None:
            header = line
            columns = line.split(",")
            continue
        named = dict(zip(columns, line.split(",")))
        base = {name: parse(named[name]) for name, _, parse in _COLUMNS}
        extra = tuple((name, named[name]) for name in columns if name not in base)
        rows.append(SweepRow(**base, extra=extra))
    if header is None:
        raise ValueError(f"{path}: not a report file")
    return SweepReport(
        kind=metadata.get("kind", "sweep"),
        header=header,
        rows=rows,
        metadata=metadata,
    )
