"""Every module of the package parses with the grammar of Python 3.10, the
oldest version ``pyproject.toml`` allows, whatever newer Python runs the
suite. ``ast.parse(feature_version=...)`` checks this on a best-effort
basis: it rejects, for example, ``except*`` and ``type`` aliases."""

import ast
from pathlib import Path

import pytest

import panoroom

SOURCES = sorted(Path(panoroom.__file__).parent.glob("*.py"))


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "_kernels.py", "cli.py", "synth.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
