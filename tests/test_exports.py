"""Every name a module exports through __all__ exists in that module and
is read by the package or the benchmark, not only by the tests."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import imdsec

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
# exported for the package's user, with no caller inside it
ENTRY_POINTS = {
    "reports.parse_report": "reads back a report that emit_report wrote",
    "attacks.forge_read_auth_attempts": "the brute-force experiment against the RM",
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
