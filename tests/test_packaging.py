"""Tests for the package metadata in pyproject.toml."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_resolve():
    # An entry whose module or function is missing installs a script that
    # fails on its first import.
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
