"""imdsec benchmark: one command, four workloads, one closed-loop caller.

    python3 perfbench/run.py --workload {sweep,read_path,fuzz,session} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The package is imported from that
checkout's ``src/``; the run fails without printing a result if
``imdsec`` resolves anywhere else.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time,
throughput, per-item latency (median and p90), and peak resident memory.
With ``--trace 1`` it runs the workload untraced for half the time and
then with every layer function wrapped for the other half, and reports
per-item layer figures plus the tracing overhead.

Every item's output is checked; a failed check or an exception counts the
item as failed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Seeds: 1 is the default seed used while writing a change; 7919 is held
out, for confirming a claimed gain on inputs the change was not tuned on.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_PROBES = 4  # extra fresh-process set-ups per untraced run
MIN_SAMPLES = 100  # so at least ten latency samples lie beyond p90
WALL_LIMIT_S = 120.0  # stop timing by then, whatever --seconds says


def load_imdsec():
    """Import imdsec from this checkout's src/ or stop the run."""
    # One caller, one core: a second BLAS thread gave the sweep no measurable
    # gain on a 2-core host and exposed every run to the other core's load.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    try:
        import imdsec
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import imdsec from {SRC}: {exc}")
    where = Path(imdsec.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imdsec came from {where}, not from {SRC}")


def measure(workload, seconds, min_samples, deadline, recorder=None):
    """Closed loop: run rounds until `seconds` of timed work and
    `min_samples` latency samples are collected."""
    from workloads import Tally

    tally = Tally()
    rounds = 0
    while tally.busy_s < seconds or len(tally.samples) < min_samples:
        if time.perf_counter() > deadline:
            print("perfbench: wall-clock limit reached", file=sys.stderr)
            break
        if recorder is not None:
            recorder.item = rounds
        workload.run_round(tally)
        rounds += 1
    return tally


def _percentiles(samples):
    ms = sorted(s * 1e3 for s in samples)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    beyond = sum(1 for v in ms if v > p90)
    return statistics.median(ms), p90, beyond


def _probe_setup(args) -> float:
    """Set the workload up in a fresh process and return its set-up time."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--setup-probe",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def _print_metric(name, value, unit, note=""):
    print(f"{name} = {value:.6g} {unit}{'  (' + note + ')' if note else ''}")


def end_to_end(args, workload, deadline):
    setup_own = time.perf_counter() - _T0
    tally = measure(workload, args.seconds, MIN_SAMPLES, deadline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_own] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
    p50, p90, beyond = _percentiles(tally.samples)
    n = len(tally.samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups: "
                    + " ".join(f"{s:.3f}" for s in setups)),
        "items_per_s": (tally.items / tally.busy_s, "1/s",
                        f"{tally.items} items in {tally.busy_s:.2f} s of timed calls"),
        "item_p50_ms": (p50, "ms", f"n={n}"),
        "item_p90_ms": (p90, "ms", f"n={n}, {beyond} beyond"),
        "peak_rss_mb": (peak_rss_mb, "MB", "peak resident set of this process"),
    }
    if beyond < 10:
        print(f"perfbench: only {beyond} samples beyond p90", file=sys.stderr)
    return tally, metrics


def traced(args, workload, deadline):
    from spans import SpanRecorder, Tracer, layer_metrics
    from workloads import OUT_DIR

    half = args.seconds / 2.0
    plain = measure(workload, half, 1, deadline)
    recorder = SpanRecorder()
    with Tracer(recorder):
        tally = measure(workload, half, 1, deadline, recorder)
    recorder.write(OUT_DIR / f"spans-{args.workload}.tsv")
    metrics = {
        name: (value, unit, "")
        for name, (value, unit) in layer_metrics(recorder, tally.items).items()
    }
    plain_rate = plain.items / plain.busy_s
    traced_rate = tally.items / tally.busy_s
    metrics["trace.untraced_items_per_s"] = (plain_rate, "1/s", f"{plain.items} items")
    metrics["trace.traced_items_per_s"] = (traced_rate, "1/s", f"{tally.items} items")
    metrics["trace.overhead_ratio"] = (
        plain_rate / traced_rate, "ratio",
        f"untraced over traced items_per_s; {len(recorder)} spans",
    )
    plain.items += tally.items
    plain.failed += tally.failed
    return plain, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "read_path", "fuzz", "session"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                        f"{HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    load_imdsec()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    if args.setup_probe:
        print(time.perf_counter() - _T0)
        return 0

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    deadline = time.perf_counter() + WALL_LIMIT_S
    run = traced if args.trace else end_to_end
    tally, metrics = run(args, workload, deadline)

    import meta

    print("meta " + json.dumps(meta.collect(ROOT), sort_keys=True))
    print("digest " + json.dumps(workload.digest.as_dict()))
    print(f"fail_ratio = {tally.failed / tally.items:.6g}  "
          f"({tally.failed} failed of {tally.items} attempted)")
    for name, (value, unit, note) in metrics.items():
        _print_metric(name, value, unit, note)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.items,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
