"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``__init__``
(the set-up), then runs one *round* per ``run_round`` call.  A round is
the smallest unit whose outputs can be checked: one item for
``read_path``, ``fuzz`` and ``session``, one whole CR x qs grid for
``sweep``.  Only calls into ``imdsec`` are timed; the output checks and
the digest run between the timed calls.  Each workload imports only the
modules it drives, so its set-up time holds only the imports it needs.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from imdsec import codec, ecg, recovery

OUT_DIR = Path(__file__).resolve().parent / "out"
MATRIX_SEED = b"public-sensing-matrix"


@dataclass
class Tally:
    """What the timed rounds produced so far."""

    items: int = 0
    failed: int = 0
    busy_s: float = 0.0  # time spent inside timed calls
    samples: list[float] = field(default_factory=list)  # per-item seconds


class Digest:
    """sha256 over the outputs of the first ``limit`` items of a run."""

    def __init__(self, limit: int):
        self.limit = limit
        self.items = 0
        self._hash = hashlib.sha256()

    def add(self, data: bytes) -> None:
        if self.items < self.limit:
            self._hash.update(len(data).to_bytes(8, "big") + data)
            self.items += 1

    def as_dict(self) -> dict:
        return {"items": self.items, "sha256": self._hash.hexdigest()}


def _blocks(rng: random.Random, choices):
    """Endless shuffled blocks that each hold every choice once, so every
    run carries the same mix of inputs, whatever its length."""
    choices = list(choices)
    while True:
        block = choices[:]
        rng.shuffle(block)
        yield from block


class Workload:
    """A workload whose round is one item: ``call`` is timed, ``check``
    returns a description of what is wrong with its result, or ''."""

    name = ""
    digest_items = 0

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.digest = Digest(self.digest_items)

    def next_input(self):
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def check(self, item, result) -> str:
        raise NotImplementedError

    def run_round(self, tally: Tally) -> None:
        item = self.next_input()
        start = time.perf_counter()
        try:
            result = self.call(item)
        except Exception:
            problem = traceback.format_exc()
        else:
            problem = None
        elapsed = time.perf_counter() - start
        tally.busy_s += elapsed
        tally.samples.append(elapsed)
        tally.items += 1
        if problem is None:
            problem = self.check(item, result)
        if problem:
            tally.failed += 1
            self.report(tally, f"{item}: {problem}")

    def report(self, tally: Tally, detail: str) -> None:
        # Print the first few failures in full; count all of them.
        if tally.failed <= 3:
            print(f"[{self.name}] item failed: {detail}", file=sys.stderr)

    def warm_up(self) -> None:
        """One untimed round, so lazy set-up is paid before timing."""
        self.run_round(Tally())
        self.digest = Digest(self.digest_items)


class Sweep(Workload):
    """The receiver-side evaluation grid, as ``imdsec sweep`` runs it.

    Records are the CLI's default synthetic corpus; the workload seed picks
    the master seed of the shift keys.  ``reports.sweep_prd`` is called once
    per (CR, qs, record) cell, so each cell of 20 pipelines is timed and
    gives one latency sample: its time per pipeline.  The rows are joined
    into one report in ``sweep_prd``'s own order, and the report checks run
    on it; if they fail, every item of the grid counts as failed.
    """

    name = "sweep"
    digest_items = 1
    seeds = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        from imdsec import reports

        self.reports = reports
        self.records = [
            ecg.synth_ecg_like(f"cli-default/{i}".encode(), s=8 + i)
            for i in range(2)
        ]
        self.master_seed = self.rng.getrandbits(31)
        self.cycle = 0

    def warm_up(self) -> None:
        # One pipeline, not a whole grid: a grid takes about 15 s.
        self.reports.sweep_prd(
            self.records[:1], cr_grid=(50,), qs_grid=(20,), seeds=1,
            master_seed=self.master_seed,
        )

    def _cell(self, tally: Tally, record, cr, qs, master_seed):
        start = time.perf_counter()
        try:
            return self.reports.sweep_prd(
                [record], cr_grid=(cr,), qs_grid=(qs,), seeds=self.seeds,
                master_seed=master_seed,
            )
        except Exception:
            self.report(tally, f"CR={cr} qs={qs}: {traceback.format_exc()}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            tally.busy_s += elapsed
            tally.samples.append(elapsed / self.seeds)
            tally.items += self.seeds

    def run_round(self, tally: Tally) -> None:
        reports = self.reports
        crs, qss = reports.DEFAULT_CR_GRID, reports.DEFAULT_QS_GRID
        master_seed = self.master_seed + self.cycle
        self.cycle += 1
        # Cells in sweep_prd's own order: CR, then qs, then record.
        cells = [
            self._cell(tally, record, cr, qs, master_seed)
            for cr in crs
            for qs in qss
            for record in self.records
        ]
        items = self.seeds * len(cells)
        if None in cells:
            tally.failed += items
            return
        metadata = dict(cells[0].metadata)
        metadata["cr_grid"] = " ".join(str(c) for c in crs)
        metadata["qs_grid"] = " ".join(str(q) for q in qss)
        metadata["records"] = " ".join(r.source_id for r in self.records)
        joined = reports.SweepReport(
            kind="sweep", header=cells[0].header,
            rows=[row for cell in cells for row in cell.rows], metadata=metadata,
        )
        problems = (
            reports.check_qs_trend(joined)
            + reports.check_cr_trend(joined)
            + reports.check_communication_saving(joined)
        )
        path = OUT_DIR / "sweep-report.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        reports.emit_report(joined, path)
        self.digest.add(path.read_bytes())
        if problems:
            tally.failed += items
            self.report(tally, "; ".join(problems[:3]))


class ReadPath(Workload):
    """One telemetry frame: implant encode and pack, receiver unpack and de-shift."""

    name = "read_path"
    digest_items = 1000
    crs = (50, 75, 90)
    qss = (0, 10, 20, 60, 120)
    pool = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        n = ecg.TARGET_SAMPLES
        records = [
            ecg.synth_ecg_like(f"read_path/{seed}/{i}".encode(), s=8 + i % 4)
            for i in range(self.pool)
        ]
        self.signals = [ecg.to_bounded_signal(r) for r in records]
        self.keys = [
            codec.cs_gen(f"read_path/{seed}/key/{i}".encode(), n, r.L1, r.L2)
            for i, r in enumerate(records)
        ]
        self.phis = {
            cr: recovery.gen_sensing_matrix(
                MATRIX_SEED, recovery.cr_to_measurements(n, cr), n
            )
            for cr in self.crs
        }
        # Phi x, the value de-shifting must give back.
        self.truth = {
            (i, cr): phi.entries @ signal.values
            for cr, phi in self.phis.items()
            for i, signal in enumerate(self.signals)
        }
        self.mix = _blocks(
            self.rng,
            [(i, cr, qs) for i in range(self.pool) for cr in self.crs for qs in self.qss],
        )

    def next_input(self):
        return next(self.mix)

    def call(self, item):
        i, cr, qs = item
        key, signal, phi = self.keys[i], self.signals[i], self.phis[cr]
        cipher = codec.cs_enc(key, signal, phi)
        if qs:
            cipher = codec.quantize(cipher, qs)
        frame = codec.serialize_ciphertext(cipher)
        got = codec.deserialize_ciphertext(frame)
        return cipher, frame, got, codec.cs_deshift(key, got, phi, signal.L1, signal.L2)

    def check(self, item, result) -> str:
        i, cr, qs = item
        sent, frame, got, y = result
        self.digest.add(frame)
        if got.quant_step != sent.quant_step:
            return f"quant step {got.quant_step} != {sent.quant_step}"
        if not np.array_equal(got.measurements, sent.measurements):
            return "measurements differ after the wire round trip"
        if not np.array_equal(got.carries.bits, sent.carries.bits):
            return "carry bits differ after the wire round trip"
        error = float(np.max(np.abs(y - self.truth[i, cr])))
        limit = qs / 2 + 1e-6
        if error > limit:
            return f"de-shifted y is {error:.3g} from Phi x (limit {limit:.3g})"
        return ""


class Fuzz(Workload):
    """The c6 bit-flip campaign: one mutated ``full`` session per item."""

    name = "fuzz"
    digest_items = 200

    def __init__(self, seed: int):
        super().__init__(seed)
        from imdsec import attacks, scenarios
        from imdsec.parties import SystemConfig

        self.attacks, self.scenarios = attacks, scenarios
        self.config = SystemConfig(n=64, qs=0)
        self.world_seed = self.rng.getrandbits(32)
        # Which frame is flipped sets how far a session gets, and so its cost.
        self.occurrences = _blocks(self.rng, range(8))

    def next_input(self):
        return next(self.occurrences), self.rng.randrange(1 << 14)

    def call(self, item):
        attacker = self.attacks.BitFlipAttacker(*item)
        world = self.scenarios.build_world(
            seed=self.world_seed, config=self.config, attacker=attacker,
            reconstruct=False,
        )
        return attacker, self.scenarios.run_session("full", config=self.config, world=world)

    def check(self, item, result) -> str:
        attacker, session = result
        self.digest.add(session.transcript.dump().encode())
        world = session.world
        if attacker.flipped_frame is None:
            return "no frame was flipped"
        if session.ok:
            return f"mutation survived: {attacker.flipped_frame}"
        if len(world.imd.applied_commands) > len(world.smartphone.ledger):
            return "command applied without an evidence record"
        return ""


class Session(Workload):
    """One honest ``full`` session at the default configuration."""

    name = "session"
    digest_items = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        from imdsec import evidence, scenarios

        self.evidence, self.scenarios = evidence, scenarios

    def next_input(self):
        return self.rng.getrandbits(32)

    def call(self, item):
        return self.scenarios.run_session("full", seed=item)

    def check(self, item, result) -> str:
        self.digest.add(result.transcript.dump().encode())
        if not result.ok:
            return f"session not ok: {result.phases}"
        world = result.world
        truth = world.imd.data_source.records[0].samples
        recovered = world.programmer.recovered_signals
        if not recovered:
            return "nothing reconstructed"
        quality = recovery.prd(truth, recovered[0])
        if not quality < 9.0:
            return f"recovered PRD {quality:.3f} >= 9"
        applied = world.imd.applied_commands
        if not applied:
            return "no command applied"
        public_key = world.programmer.credentials.public_key
        for command in applied:
            verifying = sum(
                1
                for record in world.smartphone.ledger.records
                if record.command == command
                and self.evidence.evidence_verify(record, public_key)
            )
            if verifying != 1:
                return f"{verifying} verifying evidence records for one command"
        wire = b"".join(e.payload for e in result.transcript.wire_entries())
        for name, secret in world.secret_values().items():
            if secret in wire:
                return f"secret {name} visible on the wire"
        return ""


WORKLOADS = {w.name: w for w in (Sweep, ReadPath, Fuzz, Session)}
