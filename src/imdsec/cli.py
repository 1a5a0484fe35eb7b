"""Command-line front end for the telemetry and protocol experiments.

Verbs: sweep (recovery-quality grid), attack (guessing attacks next to
the legitimate baseline), opcount (implant-side crypto-operation
table), session (one protocol scenario with a transcript dump), and
gen-fixtures (synthetic ECG-like records).  Every verb runs its own
invariant checks and exits non-zero if any fail.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import ecg, reports
from .attacks import (
    DuplicateFrameAttacker,
    PassiveEavesdropper,
    indistinguishability_test,
    mitm_read_attack,
)
from .parties import SystemConfig
from .scenarios import SCENARIOS, build_world, run_session
from .wire import Heading

FIXTURE_DIR_ENV = "IMDSEC_FIXTURE_DIR"
BENCHMARK_BOUNDS = (590, 1487)


def _load_records(paths, bounds=None):
    try:
        return [ecg.load_ecg_csv(path, bounds=bounds) for path in paths]
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _default_records(args, bounds=None):
    if args.records:
        return _load_records(args.records, bounds=bounds)
    fixture_dir = os.environ.get(FIXTURE_DIR_ENV)
    if fixture_dir and Path(fixture_dir).is_dir():
        paths = sorted(Path(fixture_dir).glob("*.csv"))
        if paths:
            return _load_records(paths, bounds=bounds)
    L1, L2 = bounds or BENCHMARK_BOUNDS
    return [
        ecg.synth_ecg_like(f"cli-default/{i}".encode(), s=8 + i, L1=L1, L2=L2)
        for i in range(2)
    ]


def _report_checks(name, problems):
    if problems:
        print(f"FAIL {name}")
        for problem in problems:
            print(f"  - {problem}")
        return False
    print(f"PASS {name}")
    return True


def _cmd_sweep(args) -> int:
    records = _default_records(args)
    report = reports.sweep_prd(
        records,
        cr_grid=tuple(args.cr),
        qs_grid=tuple(args.qs),
        seeds=args.seeds,
        master_seed=args.master_seed,
    )
    if args.out:
        reports.emit_report(report, args.out)
        print(f"wrote {args.out}")
    ok = True
    if reports.BENCHMARK_CR in args.cr:
        ok &= _report_checks(
            "qs trend (benchmark CR)", reports.check_qs_trend(report)
        )
    ok &= _report_checks("CR trend", reports.check_cr_trend(report))
    ok &= _report_checks(
        "communication saving", reports.check_communication_saving(report)
    )
    for claim, verdict in reports.evaluate_claims(report).items():
        print(f"claim {claim}: {verdict}")
    return 0 if ok else 1


def _cmd_attack(args) -> int:
    records = _default_records(args, bounds=BENCHMARK_BOUNDS)
    report = reports.attack_report(
        records,
        cr_grid=tuple(args.cr),
        qs=args.qs,
        seeds=args.seeds,
        trials=args.trials,
        master_seed=args.master_seed,
    )
    if args.out:
        reports.emit_report(report, args.out)
        print(f"wrote {args.out}")
    ok = _report_checks(
        "attack separation", reports.check_attack_separation(report)
    )
    ks = indistinguishability_test(seed=args.master_seed)
    ok &= _report_checks(
        "masking indistinguishability",
        [] if ks.passed else [f"KS statistic {ks.statistic:.5f} p={ks.pvalue:.4f}"],
    )
    return 0 if ok else 1


def _cmd_opcount(args) -> int:
    runs = reports.opcount_report(seeds=tuple(range(args.seeds)))
    lines = [",".join(("process",) + reports.OPCOUNT_OPS)]
    for phase in reports.EXPECTED_IMD_OPCOUNTS:
        counts = runs[0][phase]
        lines.append(",".join([phase] + [str(counts[op]) for op in reports.OPCOUNT_OPS]))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    ok = _report_checks("op-count table", reports.check_opcounts(runs))
    return 0 if ok else 1


# (config key, argument name, type) of the numeric session settings
_NUMERIC_CONFIG_KEYS = (
    ("CR", "cr", float),
    ("qs", "qs", int),
    ("N", "n", int),
    ("seeds", "seed", int),
)
_CONFIG_KEYS = (
    "scenario", "attacker", *(key for key, _, _ in _NUMERIC_CONFIG_KEYS), "degraded_oob"
)


def _parse_config_file(path) -> dict[str, str]:
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise SystemExit(f"{path}: bad config line {line!r}")
        if key not in _CONFIG_KEYS:
            raise SystemExit(
                f"{path}: unknown config key {key!r} (known keys: {', '.join(_CONFIG_KEYS)})"
            )
        values[key] = value.strip()
    return values


def _cmd_session(args) -> int:
    if args.config:
        cfg = _parse_config_file(args.config)
        args.scenario = cfg.get("scenario", args.scenario)
        args.attacker = cfg.get("attacker", args.attacker)
        for key, attr, kind in _NUMERIC_CONFIG_KEYS:
            if key in cfg:
                try:
                    setattr(args, attr, kind(cfg[key]))
                except ValueError:
                    noun = "number" if kind is float else "integer"
                    raise SystemExit(
                        f"{args.config}: {key} takes one {noun}, got {cfg[key]!r}"
                    ) from None
        if "degraded_oob" in cfg:
            args.degraded_oob = cfg["degraded_oob"].lower() in ("1", "true", "yes")

    config = SystemConfig(n=args.n, cr=args.cr, qs=args.qs)
    checks_ok = True

    if args.attacker == "mitm":
        result = mitm_read_attack(
            seed=args.seed, config=config, degraded_oob=args.degraded_oob
        )
        print(
            f"mitm: attacker PRD={result.attacker_prd:.2f} "
            f"derived_key={result.attacker_derived_key} "
            f"honest_completed={result.honest_programmer_completed} "
            f"baseline PRD={result.honest_baseline_prd:.2f}"
        )
        if args.degraded_oob:
            checks_ok = _report_checks(
                "degraded out-of-band attack succeeds",
                [] if result.attacker_derived_key else ["attacker was blocked"],
            )
        else:
            problems = []
            if result.attacker_prd < 9.0:
                problems.append(f"attacker PRD {result.attacker_prd:.2f} < 9")
            if result.honest_baseline_prd >= 9.0:
                problems.append("honest baseline not in acceptable band")
            if result.honest_programmer_completed:
                problems.append("programmer completed despite the block")
            checks_ok = _report_checks("mitm separation", problems)
        return 0 if checks_ok else 1

    attacker = None
    if args.attacker == "passive":
        attacker = PassiveEavesdropper()
    elif args.attacker == "replay":
        attacker = DuplicateFrameAttacker("programmer", Heading.WRITE_REQ)

    world = build_world(seed=args.seed, config=config, attacker=attacker)
    result = run_session(args.scenario, config=config, world=world)
    if args.out:
        Path(args.out).write_text(result.transcript.dump())
        print(f"wrote {args.out}")
    for name, outcome in sorted(result.outcomes.items()):
        print(f"{name}: outcome={outcome}")
    print(f"phases: {result.phases}")

    problems = []
    if not result.ok:
        problems.append("scenario did not complete")
    wire_blob = b"".join(e.payload for e in result.transcript.wire_entries())
    for name, secret in world.secret_values().items():
        if secret in wire_blob:
            problems.append(f"secret {name} visible on the wire")
    if args.attacker == "replay" and len(world.imd.applied_commands) > 1:
        problems.append("replayed command applied twice")
    checks_ok = _report_checks("session invariants", problems)
    return 0 if checks_ok else 1


def _cmd_gen_fixtures(args) -> int:
    out_dir = args.out or os.environ.get(FIXTURE_DIR_ENV) or "fixtures"
    paths = ecg.generate_fixture_files(
        out_dir, count=args.count, seed=args.fixture_seed.encode()
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imdsec",
        description="compressed-and-encrypted implant telemetry workbench",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--cr", type=float, nargs="*", default=list(reports.DEFAULT_CR_GRID))
        p.add_argument("--seeds", type=int, default=20)
        p.add_argument("--master-seed", type=int, default=0)
        p.add_argument("--records", nargs="*", help="ECG csv files")
        p.add_argument("--out", help="output file")

    p_sweep = sub.add_parser("sweep", help="recovery quality over the CR/qs grid")
    common(p_sweep)
    p_sweep.add_argument("--qs", type=int, nargs="*", default=list(reports.DEFAULT_QS_GRID))
    p_sweep.set_defaults(func=_cmd_sweep)

    p_attack = sub.add_parser("attack", help="guessing attacks vs legitimate recovery")
    common(p_attack)
    p_attack.set_defaults(cr=list(reports.ATTACK_CR_GRID), seeds=3)
    p_attack.add_argument(
        "--qs", type=int, default=reports.BENCHMARK_QS, help="quantizer step (0 = none)"
    )
    p_attack.add_argument("--trials", type=int, default=100)
    p_attack.set_defaults(func=_cmd_attack)

    p_op = sub.add_parser("opcount", help="implant-side crypto-operation counts")
    p_op.add_argument("--seeds", type=int, default=1)
    p_op.add_argument("--out", help="output file")
    p_op.set_defaults(func=_cmd_opcount)

    p_sess = sub.add_parser("session", help="run one scenario, dump the transcript")
    p_sess.add_argument("--scenario", choices=SCENARIOS, default="full")
    p_sess.add_argument("--attacker", choices=("none", "passive", "replay", "mitm"), default="none")
    p_sess.add_argument("--degraded-oob", action="store_true")
    p_sess.add_argument("--seed", type=int, default=0)
    p_sess.add_argument("--n", type=int, default=512)
    p_sess.add_argument("--cr", type=float, default=50.0)
    p_sess.add_argument("--qs", type=int, default=20)
    p_sess.add_argument("--config", help="key = value scenario file")
    p_sess.add_argument("--out", help="transcript dump path")
    p_sess.set_defaults(func=_cmd_session)

    p_fix = sub.add_parser("gen-fixtures", help="write synthetic ECG-like records")
    p_fix.add_argument("--out", help="directory (default $IMDSEC_FIXTURE_DIR or ./fixtures)")
    p_fix.add_argument("--count", type=int, default=4)
    p_fix.add_argument("--fixture-seed", default="fixtures")
    p_fix.set_defaults(func=_cmd_gen_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
