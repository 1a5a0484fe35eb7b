"""Command-line front end for the telemetry and protocol experiments.

Verbs: sweep (recovery-quality grid), attack (guessing attacks next to
the legitimate baseline), opcount (implant-side crypto-operation
table), session (one protocol scenario with a transcript dump), and
gen-fixtures (synthetic ECG-like records).  Every verb runs its own
invariant checks and exits non-zero if any fail; a verb whose reader
closes the pipe early exits 1 without a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import codec, ecg, recovery, reports
from .attacks import DuplicateFrameAttacker, indistinguishability_test, mitm_read_attack
from .channel import Attacker
from .parties import SystemConfig
from .scenarios import SCENARIOS, build_world, drive
from .wire import Heading

FIXTURE_DIR_ENV = "IMDSEC_FIXTURE_DIR"


def count(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _config_field(field, convert):
    """argparse type of one SystemConfig field, refused as a session at
    the default N refuses it."""
    def parse(text):
        value = convert(text)
        try:
            SystemConfig(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    parse.__name__ = field  # argparse names it in "invalid cr value"
    return parse


cr_value, qs_value = _config_field("cr", float), _config_field("qs", int)


def _load_records(paths, bounds=None):
    try:
        return [ecg.load_ecg_csv(path, bounds=bounds) for path in paths]
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _default_records(args, bounds=None):
    """The --records files, else the fixture directory, else two synthetic
    records; bounds apply to files only, synthetic records use ecg.WINDOW."""
    if args.records:
        return _load_records(args.records, bounds=bounds)
    fixture_dir = os.environ.get(FIXTURE_DIR_ENV)
    if fixture_dir and Path(fixture_dir).is_dir():
        paths = sorted(Path(fixture_dir).glob("*.csv"))
        if paths:
            return _load_records(paths, bounds=bounds)
    return [ecg.synth_ecg_like(f"cli-default/{i}".encode(), s=8 + i) for i in range(2)]


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
    try:
        report = reports.sweep_prd(
            records,
            cr_grid=tuple(args.cr),
            qs_grid=tuple(args.qs),
            seeds=args.seeds,
            master_seed=args.master_seed,
        )
    except codec.CodecError as exc:  # a file's samples can outgrow the packer
        raise SystemExit(str(exc)) from None
    if args.out:
        reports.emit_report(report, args.out)
        print(f"wrote {args.out}")
    ok = True
    if SystemConfig.cr in args.cr:
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
    records = _default_records(args, bounds=ecg.WINDOW)
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


ATTACKERS = ("none", "passive", "replay", "mitm")
_TRUTH = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

# config key -> (argument name, conversion, what the value must be) of
# the session settings; a conversion raises KeyError or ValueError on a
# value the matching flag would refuse
_CONFIG_KEYS = {
    "scenario": ("scenario", {s: s for s in SCENARIOS}.__getitem__,
                 f"one of {', '.join(SCENARIOS)}"),
    "attacker": ("attacker", {a: a for a in ATTACKERS}.__getitem__,
                 f"one of {', '.join(ATTACKERS)}"),
    "CR": ("cr", float, "one number"),
    "qs": ("qs", int, "one integer"),
    "N": ("n", int, "one integer"),
    "seeds": ("seed", int, "one integer"),
    "degraded_oob": ("degraded_oob", lambda text: _TRUTH[text.lower()],
                     f"one of {', '.join(_TRUTH)}"),
}


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
        for key, (attr, convert, expected) in _CONFIG_KEYS.items():
            if key in cfg:
                try:
                    setattr(args, attr, convert(cfg[key]))
                except (KeyError, ValueError):
                    raise SystemExit(
                        f"{args.config}: {key} takes {expected}, got {cfg[key]!r}"
                    ) from None

    if args.attacker == "mitm" and args.scenario in ("pair", "auth"):
        raise SystemExit(f"the mitm attacker attacks the read flow, which scenario "
                         f"{args.scenario} does not reach")
    if args.degraded_oob and args.attacker != "mitm":
        raise SystemExit("degraded_oob applies to the mitm attacker only")
    try:
        config = SystemConfig(n=args.n, cr=args.cr, qs=args.qs)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    if args.attacker == "mitm":
        result = mitm_read_attack(
            seed=args.seed, config=config, degraded_oob=args.degraded_oob
        )
        if args.out:
            Path(args.out).write_text(result.transcript.dump())
            print(f"wrote {args.out}")
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
            not_good = recovery.QualityClass.NOT_GOOD
            if recovery.classify_prd(result.attacker_prd) is not not_good:
                problems.append(f"attacker PRD {result.attacker_prd:.2f} < 9")
            if recovery.classify_prd(result.honest_baseline_prd) is not_good:
                problems.append("honest baseline not in acceptable band")
            if result.honest_programmer_completed:
                problems.append("programmer completed despite the block")
            checks_ok = _report_checks("mitm separation", problems)
        return 0 if checks_ok else 1

    attacker = None
    if args.attacker == "passive":
        attacker = Attacker()  # a plain tap: what it sees is the transcript
    elif args.attacker == "replay":
        attacker = DuplicateFrameAttacker("programmer", Heading.WRITE_REQ)

    world = build_world(seed=args.seed, config=config, attacker=attacker)
    result = drive(world, SCENARIOS[args.scenario])
    if args.out:
        Path(args.out).write_text(result.transcript.dump())
        print(f"wrote {args.out}")
    for name, party in sorted(world.scheduler.parties.items()):
        print(f"{name}: outcome={party.outcome}")
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
    return 0 if _report_checks("session invariants", problems) else 1


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
        p.add_argument("--cr", type=cr_value, nargs="+", default=list(reports.DEFAULT_CR_GRID))
        p.add_argument("--seeds", type=count, default=20)
        p.add_argument("--master-seed", type=int, default=0)
        p.add_argument("--records", nargs="*", help="ECG csv files")
        p.add_argument("--out", help="output file")

    p_sweep = sub.add_parser("sweep", help="recovery quality over the CR/qs grid")
    common(p_sweep)
    p_sweep.add_argument("--qs", type=qs_value, nargs="+", default=list(reports.DEFAULT_QS_GRID))
    p_sweep.set_defaults(func=_cmd_sweep)

    p_attack = sub.add_parser("attack", help="guessing attacks vs legitimate recovery")
    common(p_attack)
    p_attack.set_defaults(cr=list(reports.ATTACK_CR_GRID), seeds=3)
    p_attack.add_argument(
        "--qs", type=qs_value, default=SystemConfig.qs, help="quantizer step (0 = none)"
    )
    p_attack.add_argument("--trials", type=count, default=100)
    p_attack.set_defaults(func=_cmd_attack)

    p_op = sub.add_parser("opcount", help="implant-side crypto-operation counts")
    p_op.add_argument("--seeds", type=count, default=1)
    p_op.add_argument("--out", help="output file")
    p_op.set_defaults(func=_cmd_opcount)

    p_sess = sub.add_parser("session", help="run one scenario, dump the transcript")
    p_sess.add_argument("--scenario", choices=SCENARIOS, default="full")
    p_sess.add_argument("--attacker", choices=ATTACKERS, default="none")
    p_sess.add_argument("--degraded-oob", action="store_true")
    p_sess.add_argument("--seed", type=int, default=0)
    p_sess.add_argument("--n", type=int, default=SystemConfig.n)
    p_sess.add_argument("--cr", type=float, default=SystemConfig.cr)
    p_sess.add_argument("--qs", type=int, default=SystemConfig.qs)
    p_sess.add_argument("--config", help="key = value scenario file")
    p_sess.add_argument("--out", help="transcript dump path")
    p_sess.set_defaults(func=_cmd_session)

    p_fix = sub.add_parser("gen-fixtures", help="write synthetic ECG-like records")
    p_fix.add_argument("--out", help="directory (default $IMDSEC_FIXTURE_DIR or ./fixtures)")
    p_fix.add_argument("--count", type=count, default=4)
    p_fix.add_argument("--fixture-seed", default="fixtures")
    p_fix.set_defaults(func=_cmd_gen_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe fails here, not at exit
        return code
    except BrokenPipeError:  # end quietly; the exit-time flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        if exc.filename is None:  # not a --records, --config or --out path
            raise
        raise SystemExit(f"{exc.filename}: {exc.strerror}") from None


if __name__ == "__main__":
    sys.exit(main())
