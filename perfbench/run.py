"""Benchmark entry point: one workload, one seed, one time budget.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

It builds nothing; it imports ``upm`` from ``src/`` under the current
directory and exits with status 2 when that is missing.  The process pins
BLAS and OpenMP to one thread before numpy loads, so that timings do not
depend on how many cores other processes leave free, and float results do
not depend on a threaded reduction order.

Standard output carries, in order: an ``env`` line (interpreter, numpy,
BLAS and its thread count, CPU count, git commit), an ``outputs`` line
(the digest of the workload's outputs, plus any named results), and, last,
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("ingest", "train", "eval")
WORK_DIR = ".perfbench_run"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _blas_threads() -> int | None:
    """Ask the OpenBLAS library numpy loaded for its thread count, if it is one."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` in ``root`` only (no parent lookup)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path) -> dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        cpus_usable = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus_usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "git_commit": _git_commit(root),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"

    root = Path.cwd()
    src = root / "src"
    if not (src / "upm" / "__init__.py").is_file():
        print(f"perfbench: no src/upm package under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads

    (root / WORK_DIR).mkdir(exist_ok=True)
    print("env " + json.dumps(environment(root), sort_keys=True), flush=True)
    try:
        with tempfile.TemporaryDirectory(dir=root / WORK_DIR) as workdir:
            result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                   Path(workdir))
    finally:
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    print("outputs " + json.dumps({"digest": result.digest, **result.outputs}), flush=True)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
