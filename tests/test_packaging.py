"""Tests for the package metadata in pyproject.toml."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = PYPROJECT.parent / "src"


def test_console_scripts_resolve():
    # An entry whose module or function is missing installs a script that
    # fails on its first import.
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_no_module_imports_scipy_optimize():
    # Importing scipy.optimize adds about 22 MB to an eval run's ~101 MB
    # peak RSS, over its 15% bound, so no upm module may pull it in.
    # scipy.spatial (about 10 MB) is imported only where a KD-tree is built,
    # inside geometry._mean_min_sq_dists.  A fresh interpreter sees only
    # what upm itself imports.
    code = (
        "import importlib, pkgutil, sys, upm\n"
        "for module in pkgutil.iter_modules(upm.__path__):\n"
        "    importlib.import_module('upm.' + module.name)\n"
        "print('upm.probe' in sys.modules, 'scipy.optimize' in sys.modules,\n"
        "      'scipy.spatial' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout.split()
    assert out == ["True", "False", "False"]
