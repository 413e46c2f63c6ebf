"""Config fields declared once, and the one check of them.

Each field of ``data.SceneSpec``, ``encoder.EncoderConfig``,
``trainer.TrainConfig`` and ``probe.ProbeConfig`` is ``declared`` with a
kind and bounds, and each ``__post_init__`` calls ``check_fields`` first.
A value is of its kind, as ``conforms`` tests it, when it is: for ``int``
an int; for ``float`` an int or float within float's finite range; for
``bool`` a bool; for ``str`` a str; for ``(int, int)`` a tuple of two
ints, and for ``(float, ...)`` a tuple of one or more floats.  Only a
``bool`` field takes a bool.  A bound, such as ``(">=", 0)`` or
``("in", choices)``, must hold for the value, or for every entry of a
tuple.  A value not of its kind or outside a bound raises ``ConfigError``
naming the class and the field.  Rules over more than one field, or over
the order of a tuple's entries, stay in ``__post_init__``.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import field, fields

from .errors import ConfigError

DECLARED = "upm.declared"
_BOUNDS = {">": (operator.gt, "greater than"), ">=": (operator.ge, "at least"),
           "<": (operator.lt, "less than"), "<=": (operator.le, "at most"),
           "in": (lambda value, choices: value in choices, "one of")}


def declared(default, kind, *bounds):
    """A dataclass field holding ``default``, of ``kind`` and within ``bounds``."""
    return field(default=default, metadata={DECLARED: (kind, bounds)})


def conforms(kind, value) -> bool:
    """Whether ``value`` is of ``kind``."""
    if isinstance(kind, tuple):
        if not isinstance(value, tuple):
            return False
        kinds = kind[:1] * len(value) if kind[-1] is Ellipsis else kind
        return 0 < len(value) == len(kinds) and all(map(conforms, kinds, value))
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def check_fields(config) -> None:
    """Raise ``ConfigError`` unless every field of ``config`` is of its kind and within its bounds."""
    for spec in fields(config):
        kind, bounds = spec.metadata[DECLARED]
        value = getattr(config, spec.name)
        if not conforms(kind, value):
            raise ConfigError(f"{type(config).__name__}.{spec.name} must be {_spelling(kind)}, "
                              f"got {value!r}")
        entries = value if isinstance(kind, tuple) else (value,)
        for op, operand in bounds:
            test, words = _BOUNDS[op]
            if not all(test(entry, operand) for entry in entries):
                if op in (">", ">=") and operand == 0:
                    words = "positive" if op == ">" else "nonnegative"
                else:
                    words = f"{words} {operand!r}"
                raise ConfigError(f"{type(config).__name__}.{spec.name} must be {words}, got {value!r}")


def _spelling(kind) -> str:
    if isinstance(kind, tuple):
        return f"a tuple[{', '.join('...' if k is Ellipsis else k.__name__ for k in kind)}]"
    return {int: "an int", float: "a finite float"}.get(kind, f"a {kind.__name__}")
