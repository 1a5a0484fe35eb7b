"""No package module reads a private name of another package module,
whether as mod._x or as from .mod import _x: what modules share, they
share under a public name."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "imdsec"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _source(node: ast.ImportFrom) -> str:
    """The package-relative module an import reads from ("" for the
    package itself), or None for a module outside the package."""
    if node.level:
        return node.module or ""
    first, _, rest = (node.module or "").partition(".")
    return rest if first == "imdsec" else None


def private_reads(text: str, module: str) -> list[str]:
    """"owner._name" of each private name of another package module that
    the source text of module reads."""
    tree = ast.parse(text)
    aliases, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                first, _, rest = alias.name.partition(".")
                if first == "imdsec" and rest and alias.asname:
                    aliases[alias.asname] = rest
        elif isinstance(node, ast.ImportFrom) and _source(node) is not None:
            owner = _source(node)
            for alias in node.names:
                if not owner and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
                elif owner and owner != module and _private(alias.name):
                    reads.append(f"{owner}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and aliases.get(node.value.id, module) != module
            and _private(node.attr)
        ):
            reads.append(f"{aliases[node.value.id]}.{node.attr}")
    return reads


def test_the_check_finds_both_forms():
    text = (
        "from . import codec, ecg as e\n"
        "from .recovery import _seed, prd\n"
        "import imdsec.wire as w\n"
        "codec._encode(e.WINDOW, w._HEADER, e.__name__)\n"
    )
    assert sorted(private_reads(text, "reports")) == [
        "codec._encode", "recovery._seed", "wire._HEADER",
    ]
    assert private_reads("from . import codec\ncodec._encode()\n", "codec") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_of_another_module_is_read(module):
    assert private_reads((PACKAGE / f"{module}.py").read_text(), module) == []
