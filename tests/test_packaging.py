"""Tests for the package metadata in pyproject.toml and for what upm modules import."""

import ast
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
    # Importing scipy.optimize adds about 22 MB to an eval run's peak RSS,
    # over its 15% bound, so no upm module may pull it in; nor any other
    # part of scipy.  A fresh interpreter that imports every upm module
    # peaks at about 34 MB with no scipy loaded, against 55 MB when
    # engine imported scipy.special, and eval's peak is about 85 MB.
    # scipy.spatial (about 10 MB) is imported only where a KD-tree is built,
    # inside geometry._mean_min_sq_dists.  A fresh interpreter sees only
    # what upm itself imports.
    code = (
        "import importlib, pkgutil, sys, upm\n"
        "for module in pkgutil.iter_modules(upm.__path__):\n"
        "    importlib.import_module('upm.' + module.name)\n"
        "print('upm.probe' in sys.modules, 'scipy.optimize' in sys.modules,\n"
        "      'scipy.spatial' in sys.modules,\n"
        "      any(name.partition('.')[0] == 'scipy' for name in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout.split()
    assert out == ["True", "False", "False", "False"]


def test_only_the_container_packs_binary():
    # One binary format: upm.container holds the only writer and reader,
    # so no other upm module imports struct.
    importers = []
    for path in sorted((SRC / "upm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "struct" in names:
                importers.append(path.stem)
    assert importers == ["container"]


def test_only_engine_and_trainer_touch_gradients():
    # A gradient is a dense array or an engine.RowGrad; the engine makes
    # both and the trainer's clipping and AdamW read both.  Any other
    # module that reads ``.grad`` would be one more consumer to teach
    # about row gradients, so none may.
    readers = set()
    for path in sorted((SRC / "upm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "grad":
                readers.add(path.stem)
    assert sorted(readers) == ["engine", "trainer"]


# Public entry points that wait for the ``upm`` command line (generate,
# train, eval) to give them a caller.
AWAITING_THE_CLI = {"split_dataset", "load_split_scenes", "load_checkpoint",
                    "paper_encoder_config", "paper_train_config"}


def test_every_top_level_definition_has_a_caller():
    # Code with no caller is deleted.  A top-level function or class of
    # upm counts as called when its name is read, as a name or an
    # attribute, anywhere in upm or perfbench; tests do not count.  The
    # check is by name, so dead code whose name is read for something
    # else passes, and a name read only as a string does not count.
    defined, read = set(), set()
    for path in sorted((SRC / "upm").glob("*.py")) + sorted((SRC.parent / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent.name == "upm":
            defined |= {node.name for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined - read == AWAITING_THE_CLI
