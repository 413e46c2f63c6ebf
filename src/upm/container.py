"""The one binary file format: named float64 arrays behind a JSON header.

A container is the magic ``UPMA``, the header's byte length as a
little-endian uint64, an ASCII JSON header
``{"arrays": [[name, shape], ...], "meta": {...}}`` written with sorted
keys and no NaN, then each array's little-endian float64 values in C
order, back to back in header order.  No offsets are stored: the shapes
must tile the payload exactly.  The layout follows safetensors
(https://github.com/huggingface/safetensors).  Scene directories and
checkpoints are both containers.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import ContractError, FormatError

MAGIC = b"UPMA"
_PREFIX = len(MAGIC) + 8


def write_arrays(path, meta: dict, arrays) -> None:
    """Write ``meta`` and the ``(name, array)`` pairs to ``path`` atomically.

    The header is encoded before anything touches the disk, so metadata
    that JSON cannot hold raises ``ValueError`` or ``TypeError`` and writes
    nothing, and a name given twice, which :func:`read_arrays` would
    refuse, raises ``ContractError`` and writes nothing; otherwise the
    parent directory is created if needed.
    """
    arrays = [(name, np.asarray(array, dtype="<f8", order="C")) for name, array in arrays]
    repeated = sorted(name for name, count in Counter(n for n, _ in arrays).items() if count > 1)
    if repeated:
        raise ContractError(f"array names {repeated} repeat: {path}")
    header = json.dumps({"arrays": [[name, list(array.shape)] for name, array in arrays],
                         "meta": meta}, sort_keys=True, allow_nan=False).encode("ascii")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as fh:
        fh.write(MAGIC + struct.pack("<Q", len(header)) + header)
        for _, array in arrays:
            fh.write(array.data)


def read_arrays(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata and the arrays, by name, of a container written by :func:`write_arrays`.

    Every malformed file raises :class:`FormatError`: a missing file or a
    directory, a bad magic, a truncated or non-ASCII or non-JSON header, a
    header entry that is not ``[name, shape]``, a repeated name, a shape
    beyond numpy's rank limit, and a payload that the shapes do not tile.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except (FileNotFoundError, IsADirectoryError) as exc:
        raise FormatError(f"unreadable file {path}: {exc.strerror}") from exc
    if len(blob) < _PREFIX or blob[:len(MAGIC)] != MAGIC:
        raise FormatError(f"bad magic in {path}")
    (size,) = struct.unpack_from("<Q", blob, len(MAGIC))
    offset = _PREFIX + size
    if offset > len(blob):
        raise FormatError(f"truncated header in {path}")
    try:
        header = json.loads(blob[_PREFIX:offset].decode("ascii"))
        if not (isinstance(header, dict) and header.keys() == {"arrays", "meta"}
                and isinstance(header["meta"], dict) and isinstance(header["arrays"], list)):
            raise ValueError("the header is not an object of 'arrays' and 'meta'")
        for entry in header["arrays"]:
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                    and isinstance(entry[1], list)
                    and all(type(dim) is int and dim >= 0 for dim in entry[1])):
                raise ValueError(f"array entry {entry!r} is not [name, shape]")
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid header in {path}: {exc}") from exc
    arrays: dict[str, np.ndarray] = {}
    for name, shape in header["arrays"]:
        if name in arrays:
            raise FormatError(f"array {name} appears twice in {path}")
        count = math.prod(shape)
        if 8 * count > len(blob) - offset:
            raise FormatError(f"truncated array {name} in {path}")
        try:
            arrays[name] = np.frombuffer(blob, "<f8", count, offset).reshape(shape).copy()
        except ValueError as exc:  # a rank beyond numpy's limit
            raise FormatError(f"array {name} has shape {shape} in {path}: {exc}") from exc
        offset += 8 * count
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes in {path}")
    return header["meta"], arrays
