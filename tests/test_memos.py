"""Every memo in the package is bounded: each functools.lru_cache names
its maxsize as an integer literal, directly or through a module constant
bound to one, so no memo on a repeated path grows with run length."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "imdsec"


def _memo_bounds():
    """(file, line, maxsize) of each functools.cache or lru_cache use in
    the package; maxsize is None where it is not an integer literal."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        constants = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert not {a.name for a in node.names} & {"cache", "lru_cache"}, path.name
            if not (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
                and node.attr in ("cache", "lru_cache")
            ):
                continue
            call = calls.get(id(node)) if node.attr == "lru_cache" else None
            args = [] if call is None else call.args + [
                k.value for k in call.keywords if k.arg == "maxsize"
            ]
            bound = args[0] if len(args) == 1 else None
            if isinstance(bound, ast.Name):
                bound = ast.Constant(constants.get(bound.id))
            value = bound.value if isinstance(bound, ast.Constant) else None
            yield path.name, node.lineno, value if type(value) is int and value > 0 else None


def test_every_lru_cache_has_a_literal_integer_bound():
    bounds = list(_memo_bounds())
    assert [(name, line) for name, line, size in bounds if size is None] == []
    files = {name for name, _, _ in bounds}
    assert {"crypto.py", "ecg.py", "wire.py", "keymat.py"} <= files


def test_live_memos_are_bounded_as_written():
    bounds = sorted(size for _, _, size in _memo_bounds())
    live = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"imdsec.{path.stem}")
        live += [
            value.cache_info().maxsize
            for name, value in vars(module).items()
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__
        ]
    assert sorted(live) == bounds


def test_crypto_memoizes_public_key_results_only():
    """No process-wide memo holds a symmetric key or its material (the
    master key, RM, kd_bytes, or a derived K_I, K_P or K_R)."""
    crypto = importlib.import_module("imdsec.crypto")
    memos = {name for name, value in vars(crypto).items() if hasattr(value, "cache_info")}
    assert memos == {"_x25519_seal", "_x25519_unseal", "_ed25519_sign", "_ed25519_verify"}
