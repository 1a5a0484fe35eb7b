"""README names only what exists: every backticked dotted name resolves
in the package, every module of the layout table and every test a claim
cites exists, every `imdsec <verb>` and `--flag` it shows is one the
command line accepts, and its authentication table is the one derived
from parties.STEPS."""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest
import test_protocols

from imdsec import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
# the inline code spans, and each line of a fenced code block
SPANS = re.findall(r"(?<!`)`([^`\n]+)`(?!`)", README)
BLOCK_LINES = [
    line
    for block in re.findall(r"^```\w*\n(.*?)^```", README, re.M | re.S)
    for line in block.splitlines()
]
MODULES = sorted(p.stem for p in (ROOT / "src" / "imdsec").glob("*.py") if p.stem != "__main__")
SUBPARSERS = next(
    action for action in cli.build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
).choices


def _resolves(dotted):
    """Whether dotted is an attribute path from a package module
    (`recovery.prd`) or from a name a module defines (`Scheduler.submit`)."""
    first, *rest = dotted.split(".")
    modules = [importlib.import_module(f"imdsec.{name}") for name in MODULES]
    starts = [m for m in modules if m.__name__ == f"imdsec.{first}"] or [
        getattr(m, first) for m in modules if hasattr(m, first)
    ]
    for obj in starts:
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


DOTTED = sorted({s for s in SPANS if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+(\(\))?", s)})


def test_readme_has_dotted_names():
    # guards the parametrized test below against a regex that matches nothing
    assert "parties.SystemConfig" in DOTTED


@pytest.mark.parametrize("name", DOTTED)
def test_dotted_name_resolves(name):
    assert _resolves(name.removesuffix("()")), name


def _layout_modules():
    table = README.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    return [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]


def test_every_layout_module_exists():
    listed = _layout_modules()
    assert listed and all(name in MODULES for name in listed), listed


def _defined_tests():
    return {
        node.name
        for path in (ROOT / "tests").glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }


def test_every_cited_test_exists():
    cited = {s for s in SPANS if re.fullmatch(r"test_\w+", s)}
    assert len(cited) >= 9
    assert cited <= _defined_tests(), cited - _defined_tests()


def _commands():
    """(verb, flags) of each command README shows: a code-block line or
    code span that starts with `imdsec <verb>` or with a bare verb."""
    for text in BLOCK_LINES + SPANS:
        words = text.split("#", 1)[0].split()
        if words[:1] == ["imdsec"] and words[1:]:  # not the bare program name
            words = words[1:]
            assert words[0] in SUBPARSERS, text
        if words and words[0] in SUBPARSERS:
            yield words[0], [w for w in words[1:] if w.startswith("--")]


def test_every_verb_shown_is_a_subcommand():
    verbs = {verb for verb, _ in _commands()}
    assert verbs == set(SUBPARSERS), set(SUBPARSERS) - verbs


def test_every_flag_shown_with_a_verb_is_one_of_its_flags():
    for verb, flags in _commands():
        known = SUBPARSERS[verb]._option_string_actions
        assert all(flag in known for flag in flags), (verb, flags)


def test_every_bare_flag_belongs_to_some_verb():
    bare = {s for s in SPANS if re.fullmatch(r"--[a-z-]+", s)}
    known = {flag for parser in SUBPARSERS.values() for flag in parser._option_string_actions}
    assert bare and bare <= known, bare - known


def test_authentication_table_is_the_one_derived_from_the_steps():
    section = README.split("## Protocol authentication", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("| ").split(" | ") for line in section.splitlines()[1:] if line[:2] == "| "]
    assert rows[:2] == [
        ["sender", "frame", "MAC key", "completes a flow", "timestamp under the MAC"],
        ["---"] * 5,
    ]
    derived = test_protocols.TestAuthenticationCoverage._derived()
    words = {True: "yes", False: "no", None: "-"}
    assert rows[2:] == [
        [sender, heading.name, key or "none", words[completes], words[covered]]
        for sender, heading, key, completes, covered in derived
    ]
