"""The operating point is defined once: SystemConfig holds N, CR and qs as
settings and the sensing-matrix seed as a constant, and the window is
ecg.WINDOW."""

import ast
import dataclasses
from pathlib import Path

import pytest

from imdsec import ecg
from imdsec.parties import SystemConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "imdsec"


def _literals(value):
    """(file, line) of each literal in the package equal to value, of its type."""
    return [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and type(node.value) is type(value)
        and node.value == value
    ]


@pytest.mark.parametrize("value", [512, 590, 1487, b"public-sensing-matrix"])
def test_each_value_of_the_operating_point_is_written_once(value):
    assert len(_literals(value)) == 1, _literals(value)


def test_the_not_good_line_is_written_once():
    # every 9 % PRD check asks recovery.classify_prd
    assert [name for name, _ in _literals(9.0)] == ["recovery.py"]


def test_settings_and_constants():
    assert [f.name for f in dataclasses.fields(SystemConfig)] == ["n", "cr", "qs"]
    assert SystemConfig().n == ecg.TARGET_SAMPLES
    config = SystemConfig(n=64, cr=75.0, qs=0)
    assert (*ecg.WINDOW, config.matrix_seed) == (590, 1487, b"public-sensing-matrix")
    assert config.sensing_matrix().seed == config.matrix_seed
    with pytest.raises(TypeError):
        SystemConfig(L1=0)


def test_the_window_is_not_copied_into_the_config():
    assert not hasattr(SystemConfig, "L1") and not hasattr(SystemConfig, "L2")


@pytest.mark.parametrize(
    "settings, name", [({"qs": 2.5}, "qs"), ({"n": 64.0, "qs": 0}, "N")], ids=["qs", "n"]
)
def test_a_non_integer_n_or_qs_is_refused_at_construction(settings, name):
    # accepted, either would fail a session midway: quantize refuses the
    # step, and the record synthesis the length
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        SystemConfig(**settings)
