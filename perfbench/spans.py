"""Span recorder and layer wrappers for the benchmark's traced run.

The traced run replaces the public functions of each ``imdsec`` layer
with wrappers that open a span on entry and close it on exit.  Spans are
kept in flat in-memory lists (name, parent span, item, start, end) and
written out once, after the run.  A span's self time is its duration
minus the time its direct child spans cover; a function's busy time sums
only its outermost spans, so recursion is not counted twice.

Wrappers return exactly what the wrapped function returns.  Names bound
elsewhere with ``from ... import`` are replaced too, because ``install``
swaps every module attribute that holds the original function object.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from pathlib import Path

# The 31 wrapped functions, as "<module>.<function>" or
# "<module>.<Class>.<method>" under the imdsec package.
LAYER_FUNCTIONS = (
    "recovery.omp_reconstruct",
    "recovery.gen_sensing_matrix",
    "recovery.build_basis",
    "recovery.prd",
    "codec.cs_gen",
    "codec.cs_enc",
    "codec.quantize",
    "codec.serialize_ciphertext",
    "codec.deserialize_ciphertext",
    "codec.cs_deshift",
    "crypto.CryptoSuite.kdf",
    "crypto.CryptoSuite.mac",
    "crypto.CryptoSuite.mac_verify",
    "crypto.CryptoSuite.sym_enc",
    "crypto.CryptoSuite.sym_dec",
    "crypto.CryptoSuite.pk_enc",
    "crypto.CryptoSuite.pk_dec",
    "crypto.CryptoSuite.sign",
    "crypto.CryptoSuite.verify",
    "scenarios.build_world",
    "scenarios.run_session",
    "ecg.synth_ecg_like",
    "wire.encode_message",
    "wire.decode_message",
    "channel.Scheduler.step",
    "parties.Smartphone.receive",
    "parties.Imd.receive",
    "parties.Programmer.receive",
    "evidence.EvidenceLedger.append",
    "evidence.evidence_verify",
    "reports.sweep_prd",
)

# Counts taken at the same boundaries; each is reported per item.
COUNT_NAMES = (
    "recovery.omp_reconstruct.atoms",
    "codec.serialize_ciphertext.bytes",
    "channel.frames",
    "parties.drops",
    "parties.imd.ops_per_item",
)


class SpanRecorder:
    """Flat span store.  ``enter`` returns the span index ``exit`` needs."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.items: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.outermost: list[bool] = []
        self.counts: Counter = Counter()
        self.item = 0  # the benchmark item that later spans belong to
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def __len__(self) -> int:
        return len(self.names)

    def enter(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.items.append(self.item)
        self.outermost.append(self._open[name] == 0)
        self.ends.append(-1)
        self._open[name] += 1
        self._stack.append(index)
        self.starts.append(self._clock())
        return index

    def exit(self, index: int) -> None:
        self.ends[index] = self._clock()
        self._stack.pop()
        self._open[self.names[index]] -= 1

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, busy seconds, self seconds)."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[index]
        calls: Counter = Counter()
        busy: Counter = Counter()
        own: Counter = Counter()
        for index, name in enumerate(self.names):
            calls[name] += 1
            if self.outermost[index]:
                busy[name] += durations[index]
            own[name] += durations[index] - covered[index]
        return {
            name: (calls[name], busy[name] * 1e-9, own[name] * 1e-9)
            for name in calls
        }

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line, once, at the end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span\tparent\titem\tname\tstart_ns\tend_ns\n")
            for index, name in enumerate(self.names):
                fh.write(
                    f"{index}\t{self.parents[index]}\t{self.items[index]}\t"
                    f"{name}\t{self.starts[index]}\t{self.ends[index]}\n"
                )


def _resolve(target: str):
    """Return (owner, attribute, is_method) for a LAYER_FUNCTIONS entry."""
    parts = target.split(".")
    module = importlib.import_module("imdsec." + parts[0])
    if len(parts) == 2:
        return module, parts[1], False
    return getattr(module, parts[1]), parts[2], True


def _call_omp(rec, fn, args, kwargs):
    # Read the atom count through return_info=True and hand the caller
    # exactly the shape it asked for.
    args = list(args)
    wanted = kwargs.pop("return_info", args.pop(4) if len(args) > 4 else False)
    result = fn(*args, return_info=True, **kwargs)
    rec.counts["recovery.omp_reconstruct.atoms"] += len(result[2]["residuals"]) - 1
    return result if wanted else result[:2]


def _call_receive(rec, fn, args, kwargs):
    party = args[0]
    before = (party.drops, party.outcome, party.abort_reason)
    result = fn(*args, **kwargs)
    rec.counts["parties.received"] += 1
    dropped = party.drops != before[0]
    aborted = party.outcome == "aborted" and (
        party.outcome, party.abort_reason
    ) != before[1:]
    if not (dropped or aborted):
        rec.counts["parties.accepted"] += 1
    return result


def _call_plain(rec, fn, args, kwargs):
    return fn(*args, **kwargs)


def _after_serialize(rec, result):
    rec.counts["codec.serialize_ciphertext.bytes"] += len(result)


def _after_step(rec, result):
    if result:
        rec.counts["channel.frames"] += 1


def _after_session(rec, result):
    world = result.world
    rec.counts["parties.drops"] += sum(
        party.drops for party in (world.smartphone, world.imd, world.programmer)
    )
    rec.counts["parties.imd.ops_per_item"] += sum(world.imd.crypto.counters.values())


_CALLERS = {
    "recovery.omp_reconstruct": _call_omp,
    "parties.Smartphone.receive": _call_receive,
    "parties.Imd.receive": _call_receive,
    "parties.Programmer.receive": _call_receive,
}
_AFTER = {
    "codec.serialize_ciphertext": _after_serialize,
    "channel.Scheduler.step": _after_step,
    "scenarios.run_session": _after_session,
}


def _wrap(rec: SpanRecorder, name: str, fn):
    call = _CALLERS.get(name, _call_plain)
    after = _AFTER.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.enter(name)
        try:
            result = call(rec, fn, args, kwargs)
        finally:
            rec.exit(span)
        if after is not None:
            after(rec, result)
        return result

    return traced


class Tracer:
    """Installs the layer wrappers and takes them out again."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list = []

    def install(self) -> None:
        targets = [(target, *_resolve(target)) for target in LAYER_FUNCTIONS]
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "imdsec" or name.startswith("imdsec."))
        ]
        for target, owner, attr, is_method in targets:
            if is_method:
                own = attr in owner.__dict__
                original = getattr(owner, attr)
                setattr(owner, attr, _wrap(self.recorder, target, original))
                self._undo.append((owner, attr, original if own else None))
                continue
            original = getattr(owner, attr)
            traced = _wrap(self.recorder, target, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, traced)
                        self._undo.append((module, name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(rec: SpanRecorder, items: int) -> dict[str, tuple[float, str]]:
    """Per-item layer figures: name -> (value, unit)."""
    per = 1.0 / items
    summary = rec.summary()
    out: dict[str, tuple[float, str]] = {}
    for target in LAYER_FUNCTIONS:
        calls, busy, own = summary.get(target, (0, 0.0, 0.0))
        out[f"{target}.calls"] = (calls * per, "count/item")
        out[f"{target}.busy_s"] = (busy * per, "s/item")
        out[f"{target}.self_s"] = (own * per, "s/item")
    units = {
        "recovery.omp_reconstruct.atoms": "count/item",
        "codec.serialize_ciphertext.bytes": "B/item",
        "channel.frames": "count/item",
        "parties.drops": "count/item",
        "parties.imd.ops_per_item": "count/item",
    }
    for name in COUNT_NAMES:
        out[name] = (rec.counts[name] * per, units[name])
    received = rec.counts["parties.received"]
    accepted = rec.counts["parties.accepted"]
    out["parties.accept_ratio"] = (accepted / received if received else 0.0, "ratio")
    return out
