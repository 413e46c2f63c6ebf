"""Whole-file writes that never leave a partial file at the target path."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Yield a binary handle on a temp file next to ``path``.

    When the block completes, the temp file replaces ``path`` in one
    ``os.replace``; when it raises, the temp file is removed and ``path``
    keeps its previous contents (or stays absent).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
