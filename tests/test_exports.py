"""Every name a module exports through __all__ exists in that module and
is read by the package or the benchmark, not only by the tests, and so
is every function, method and property the package defines, or it is
listed in ENTRY_POINTS with the reason it stays.  Every defaulted
parameter of a public function, method or constructor is passed by some
call in the package or the benchmark, or is listed in TEST_ONLY with the
reason it stays."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import imdsec
from imdsec.parties import STEPS

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(imdsec.__path__)
    if info.name != "__main__"
)

ROOT = Path(__file__).resolve().parents[1]
CALLERS = [*(ROOT / "src" / "imdsec").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
# the names read (not defined) in the package and the benchmark run
READ = {
    node.id if isinstance(node, ast.Name) else node.attr
    for path in CALLERS if path.name != "test_harness.py"
    for node in ast.walk(ast.parse(path.read_text()))
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
}
# and the names Party.receive reads through getattr: each STEPS row's
# handler and pre-check
READ |= {"_on_" + s.heading.name.lower() for s in STEPS}
READ |= {s.check for s in STEPS if s.check}
# defined for the package's user, with no caller inside it
ENTRY_POINTS = {
    "reports.parse_report": "reads back a report that emit_report wrote",
    "attacks.forge_read_auth_attempts": "the brute-force experiment against the RM",
    "parties.Party.expected_link": "the link of the awaited row, next to expected",
    "parties.Smartphone.paired": "whether the pair flow completed, as README names it",
    "parties.Programmer.write_complete": "whether the write flow completed, next to read_complete",
}
# defaulted parameters that only the tests pass, each kept on purpose
TEST_ONLY = {
    "evidence.EvidenceLedger(path)": "the append-only ledger file, the forensic record",
    "scenarios.build_world(master_key)": "separate worlds of one implant",
    "scenarios.build_world(n_signals)": "several records in one telemetry frame",
    "scenarios.run_session(command)": "a write of another command",
    "attacks.random_guess_attack(planted_key)": "the true key as the attack's sanity anchor",
    "attacks.indistinguishability_test(samples)": "a KS test of unit-test size",
    "attacks.indistinguishability_test(degenerate_key)": "the all-zero key negative control",
    "attacks.forge_read_auth_attempts(attempts)": "a brute-force probe of unit-test size",
    "attacks.forge_read_auth_attempts(seed)": "the probe against another session",
    "cli.main(argv)": "the command line given as a list",
    "recovery.omp_reconstruct_batch(return_info)": "each row's residual history and stop "
    "reason, which TestOmpOracle and TestOmpBatch compare with the one-row solve",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"imdsec.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_all_names_have_callers(name):
    exported = getattr(importlib.import_module(f"imdsec.{name}"), "__all__", ())
    unread = [a for a in exported if a not in READ and f"{name}.{a}" not in ENTRY_POINTS]
    assert unread == []


def _definitions():
    """("module.function" or "module.Class.method", its name) of each
    function, method and property defined at the top of a package
    module, dunder methods left out."""
    for path in sorted((ROOT / "src" / "imdsec").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for item in members:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    where = f"{node.name}.{item.name}" if item is not node else item.name
                    yield f"{path.stem}.{where}", item.name


def test_definitions_have_callers():
    unread = {key for key, name in _definitions() if name not in READ}
    assert sorted(unread - set(ENTRY_POINTS)) == []
    # an entry whose definition gained a reader, or went, is stale
    assert sorted(set(ENTRY_POINTS) - unread) == []


def _defaulted(args: ast.arguments, method: bool) -> list[tuple[int, str]]:
    """(position, or -1 when keyword-only; name) of each defaulted
    parameter, self or cls left out of the positions of a method."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return [(i - method, a.arg) for i, a in enumerate(positional) if i >= first] + [
        (-1, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults) if default
    ]


def _fields(cls: ast.ClassDef) -> list[tuple[int, str]]:
    """(position, name) of each defaulted constructor field of a dataclass."""
    if not any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
        return []
    fields = [
        node for node in cls.body
        if isinstance(node, ast.AnnAssign) and "ClassVar" not in ast.unparse(node.annotation)
    ]
    return [
        (i, f.target.id) for i, f in enumerate(fields)
        if f.value is not None and "init=False" not in ast.unparse(f.value)
    ]


def _settings():
    """Each public defaulted parameter as ("module.callee(param)", param,
    the (called name, position) pairs that set it); a dataclass field is
    also set by keyword through dataclasses.replace."""
    for path in sorted((ROOT / "src" / "imdsec").glob("*.py")):
        public = [
            node for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        for node in public:
            if isinstance(node, ast.FunctionDef):
                for pos, param in _defaulted(node.args, method=False):
                    yield f"{path.stem}.{node.name}({param})", param, ((node.name, pos),)
                continue
            for pos, param in _fields(node):
                yield (f"{path.stem}.{node.name}({param})", param,
                       ((node.name, pos), ("replace", -1)))
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    callee, where = node.name, node.name
                elif not item.name.startswith("_"):
                    callee, where = item.name, f"{node.name}.{item.name}"
                else:
                    continue
                static = any("staticmethod" in ast.unparse(d) for d in item.decorator_list)
                for pos, param in _defaulted(item.args, method=not static):
                    yield f"{path.stem}.{where}({param})", param, ((callee, pos),)


def _passes(call: ast.Call, pos: int, param: str) -> bool:
    """Whether call sets the parameter at pos (-1: keyword only) named param."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return pos >= 0 and (starred or pos < len(call.args))


def test_defaulted_parameters_have_callers():
    calls = [
        (node.func.id if isinstance(node.func, ast.Name) else node.func.attr, node)
        for path in CALLERS
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    ]
    settings = list(_settings())
    passed = {
        key for key, param, setters in settings
        if any(
            name == callee and _passes(call, pos, param)
            for callee, pos in setters
            for name, call in calls
        )
    }
    assert [key for key, _, _ in settings if key not in passed | set(TEST_ONLY)] == []
    # an entry whose parameter gained a caller is stale
    assert sorted(set(TEST_ONLY) & passed) == []
    assert sorted(set(TEST_ONLY) - {key for key, _, _ in settings}) == []
