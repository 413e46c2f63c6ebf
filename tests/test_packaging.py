"""Tests for the package metadata in pyproject.toml and for what upm modules import."""

import ast
import importlib
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from upm.config import DECLARED, check_fields
from upm.encoder import paper_encoder_config
from upm.trainer import paper_train_config

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = PYPROJECT.parent / "src"


def calls_by_function(path):
    """(innermost enclosing function's name or None, called name) for each call in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    enclosing = {}
    for node in ast.walk(tree):
        scope = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for child in ast.iter_child_nodes(node):
            enclosing[child] = scope or enclosing.get(node)
    return [(enclosing[node], getattr(node.func, "attr", getattr(node.func, "id", None)))
            for node in ast.walk(tree) if isinstance(node, ast.Call)]


def test_console_scripts_resolve():
    # An entry whose module or function is missing installs a script that
    # fails on its first import.
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_no_module_imports_scipy():
    # Importing scipy.optimize adds about 22 MB to an eval run's peak RSS,
    # so no upm module may pull in any part of scipy, not even to rank
    # views by Chamfer distance.  A fresh interpreter that imports every
    # upm module and computes Chamfer distances peaked at about 37 MB,
    # against 66 MB when geometry searched a scipy.spatial KD-tree.  A
    # fresh interpreter sees only what upm itself imports.
    code = (
        "import importlib, pkgutil, sys, numpy as np, upm\n"
        "for module in pkgutil.iter_modules(upm.__path__):\n"
        "    importlib.import_module('upm.' + module.name)\n"
        "points = np.random.default_rng(0).normal(size=(3, 5, 4, 3))\n"
        "ranks = upm.geometry.chamfer_ranks(points, np.ones((3, 5, 4), dtype=bool), 512, 0)\n"
        "print(ranks.shape, 'upm.probe' in sys.modules,\n"
        "      any(name.partition('.')[0] == 'scipy' for name in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.split() == ["(3,", "2)", "True", "False"]


def test_runtime_dependencies_are_numpy_alone():
    # scipy is a test dependency only: the probe tests use
    # scipy.optimize.minimize as their oracle.
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


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


def test_only_scene_views_builds_camera_records():
    # A scene's cameras are (V, ...) stacks that data.Scene checks once.
    # CameraIntrinsics and CameraPose are unchecked per-view records that
    # only Scene.views builds, for perfbench's reads, until perfbench
    # reads the stacks (ROADMAP item 3) and the records are deleted with
    # this one call site.
    builders = [(path.stem, function, name) for path in sorted((SRC / "upm").glob("*.py"))
                for function, name in calls_by_function(path)
                if name in ("CameraIntrinsics", "CameraPose")]
    assert sorted(builders) == [("data", "views", "CameraIntrinsics"), ("data", "views", "CameraPose")]


def test_only_the_engine_normalizes_rows():
    # One row normalization: engine.normalize_rows.  A second one could
    # disagree with it on which rows count as zero, and, once the engine's
    # norm is made safe from overflow, on rows whose squares overflow.  So
    # no upm module calls np.linalg.norm at all: a 1-D norm is BLAS ddot,
    # whose bits depend on the BLAS kernel.
    callers = set()
    for path in sorted((SRC / "upm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) == "norm"):
                callers.add(path.stem)
    assert callers == set()


def test_only_engine_and_trainer_touch_gradients():
    # The engine writes every gradient, a dense array, and only the
    # trainer's clipping and AdamW read them, inside train_step.  Any other
    # module that read ``.grad`` would see gradients that train_step has
    # not yet clipped or checked for non-finite values, so none may.
    readers = set()
    for path in sorted((SRC / "upm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "grad":
                readers.add(path.stem)
    assert sorted(readers) == ["engine", "trainer"]


def test_no_module_reads_per_view_windows():
    # A scene travels as (V, ...) stacks from rendering to encode_views,
    # and its visibility as one (V, O) matrix from geometry to the
    # grounded loss.  Scene.views and PreparedScene.views, per-view
    # windows onto the stacks, and PreparedScene.pairs, a (view, object)
    # list read off the matrix, exist only for perfbench's reads, until
    # perfbench reads the arrays (ROADMAP item 3) and the windows and
    # View are deleted; so no upm module reads an attribute named views
    # or pairs.
    readers = set()
    for path in sorted((SRC / "upm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("views", "pairs"):
                readers.add(path.stem)
    assert readers == set()


def test_only_train_step_steps_the_optimizer():
    # One optimizer step: zeroing, backward, clipping and AdamW are each
    # called once, in trainer.train_step, and nowhere else in upm, so
    # whatever hooks into train_step sees every step.
    step_calls = ("adamw_step", "backward", "clip_gradients", "zero_grads")
    calls = [(path.stem, function, name) for path in sorted((SRC / "upm").glob("*.py"))
             for function, name in calls_by_function(path) if name in step_calls]
    assert sorted(calls) == [("trainer", "train_step", name) for name in step_calls]


def test_only_the_encoder_names_modality():
    # One modality setting: EncoderConfig.modality, read by encode_views.
    # Any other upm module that names a modality, as a variable, attribute,
    # argument, keyword or import, would hold a second setting that could
    # disagree with the encoder's, and evaluation would not encode as
    # training did.
    identifier = {ast.Name: "id", ast.Attribute: "attr", ast.arg: "arg", ast.keyword: "arg",
                  ast.alias: "name"}
    namers = set()
    for path in sorted((SRC / "upm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, identifier.get(type(node), ""), None)
            if name and "modalit" in name.lower():
                namers.add(path.stem)
    assert namers == {"encoder"}


# Public entry points that wait for the ``upm`` command line (generate,
# train, eval) to give them a caller.
AWAITING_THE_CLI = {"split_dataset", "load_checkpoint", "paper_encoder_config",
                    "paper_train_config"}


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



def test_every_optional_parameter_is_passed():
    # One value in use is a constant, not a parameter.  Each defaulted
    # parameter of a public top-level upm function must be passed, by
    # keyword or by position, by some call in upm or perfbench; tests do
    # not count.  Calls match by the called name, as a name or an
    # attribute; a call that unpacks ``*args`` or ``**kwargs`` passes
    # every positional or keyword parameter of that name.
    paths = sorted((SRC / "upm").glob("*.py")) + sorted((SRC.parent / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    optional = set()  # (function, position or None for keyword-only, parameter)
    for node in (n for path, tree in trees.items() if path.parent.name == "upm" for n in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name[0] != "_":
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            optional |= {(node.name, i, arg.arg) for i, arg in enumerate(positional) if i >= first}
            optional |= {(node.name, None, arg.arg) for arg, default
                         in zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None}
    passed = set()
    for call in (n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(call.func, "attr", getattr(call.func, "id", None))
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        keywords = {k.arg for k in call.keywords}  # None for **kwargs
        passed |= {(function, position, parameter) for function, position, parameter in optional
                   if function == name and (parameter in keywords or None in keywords or (
                       position is not None and (starred or position < len(call.args))))}
    assert sorted(f"{f}({p})" for f, _, p in optional - passed) == []


def test_no_parameter_always_gets_one_constant():
    # A parameter that every caller sets to the same upm constant has one
    # value in use, so the function should read the constant itself.  A
    # parameter of a public top-level upm function fails when some call in
    # upm or perfbench reaches it and every such call gives it the same
    # name, as a name or an attribute, that a upm module defines as an
    # upper-case top-level constant; a call that leaves it out gives it
    # its default.  A call that unpacks ``*args`` or ``**kwargs`` into it
    # counts as a value other than a name.  Tests do not count.
    paths = sorted((SRC / "upm").glob("*.py")) + sorted((SRC.parent / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    upm_bodies = [node for path, tree in trees.items() if path.parent.name == "upm" for node in tree.body]
    constants = {target.id for node in upm_bodies if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name) and target.id.isupper()}
    functions = {node.name: node for node in upm_bodies
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name[0] != "_"}

    def name_of(expr):
        return getattr(expr, "id", getattr(expr, "attr", None))

    given = {}  # (function, parameter) -> the names the calls give it, None for anything else
    for call in (n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)):
        function = functions.get(name_of(call.func))
        if function is None:
            continue
        args = function.args
        positional = args.posonlyargs + args.args
        defaults = dict(zip([a.arg for a in positional][len(positional) - len(args.defaults):],
                            args.defaults))
        defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
        keywords = {k.arg: k.value for k in call.keywords}
        starred = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)), None)
        for index, arg in enumerate(positional + args.kwonlyargs):
            if index < len(positional) and index < len(call.args) and (starred is None or index < starred):
                value = name_of(call.args[index])
            elif arg.arg in keywords:
                value = name_of(keywords[arg.arg])
            elif None in keywords or (starred is not None and index < len(positional)):
                value = None
            else:
                value = name_of(defaults[arg.arg]) if arg.arg in defaults else None
            given.setdefault((function.name, arg.arg), set()).add(value)
    assert sorted(f"{f}({p}={name})" for (f, p), names in given.items() for name in names
                  if len(names) == 1 and name in constants) == []


def test_every_config_field_is_declared():
    # Each field of a config class, a dataclass of upm named *Config or
    # *Spec, states its kind and range once, through upm.config.declared,
    # and its annotation names the same kind; so a new field cannot land
    # without them.  The presets pass the one check.
    def spelling(kind):
        if isinstance(kind, tuple):
            return f"tuple[{', '.join('...' if k is Ellipsis else k.__name__ for k in kind)}]"
        return kind.__name__

    classes = {}
    for path in sorted((SRC / "upm").glob("*.py")):
        module = importlib.import_module(f"upm.{path.stem}")
        classes.update((name, value) for name, value in vars(module).items()
                       if name.endswith(("Config", "Spec")) and is_dataclass(value)
                       and value.__module__ == module.__name__)
    assert sorted(classes) == ["EncoderConfig", "ProbeConfig", "SceneSpec", "TrainConfig"]
    for name, cls in classes.items():
        declared = {f.name: f.metadata[DECLARED][0] for f in fields(cls) if DECLARED in f.metadata}
        assert list(declared) == [f.name for f in fields(cls)], name
        assert {f.name: f.type for f in fields(cls)} == {
            field: spelling(kind) for field, kind in declared.items()}, name
    check_fields(paper_train_config())
    check_fields(paper_encoder_config())
