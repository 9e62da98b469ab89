"""Deterministic worker pool for independent tasks: solves, row and column blocks.

All parallelism comes from this pool: importing it sets every loaded
OpenBLAS to one thread for the whole process, overriding
``OPENBLAS_NUM_THREADS``.  Pool threads over threaded BLAS oversubscribe
the CPUs, and a GEMM's bits depend on the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy  # noqa: F401  (loads numpy's OpenBLAS)
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

from .errors import _checked_int

#: Columns per task of a column-independent computation.  Fixed, so the split
#: and with it every result never depends on the worker count.
COLUMN_BLOCK = 64


def _loaded_openblas() -> list:
    """Paths of the OpenBLAS libraries mapped into this process (Linux only)."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    return sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1]})


def _one_blas_thread(paths) -> str:
    """Set each OpenBLAS in `paths` to one thread; describe what was done.

    `openblas_set_num_threads_local` sets the count for the whole process
    and returns the previous one.  threadpoolctl (scikit-learn) is the
    published form of this control; it is not a dependency here.
    """
    done = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        done.append(f"{Path(path).name} {setter(1)} -> 1")
    found = ", ".join(Path(path).name for path in paths) or "none"
    why = f"unchanged: no openblas_set_num_threads_local in the OpenBLAS found ({found})"
    return "; ".join(done) or why


#: "library previous -> 1" per OpenBLAS set at import, or why none was.
BLAS_THREADS = _one_blas_thread(_loaded_openblas())


def _available_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


class WorkerPool:
    """Fan independent tasks out to workers; collect results in submission order.

    The pool runs at most one thread per CPU the process may use, because
    more concurrent solves only contend for the CPUs; with one thread tasks
    run inline.  Results never depend on the worker count: tasks are
    independent, and the ordered collection makes the merge order fixed.
    `workers` goes through the package's one count check,
    `errors._checked_int`.  Use as a context manager to release threads
    promptly.
    """

    def __init__(self, workers: int = 1):
        self.workers = min(_checked_int("workers", workers, 1), _available_cpus())
        self._executor = (
            ThreadPoolExecutor(max_workers=self.workers) if self.workers > 1 else None
        )

    def map(self, fn, items) -> list:
        if self._executor is None:
            return [fn(item) for item in items]
        return list(self._executor.map(fn, items))

    def shutdown(self):
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        return False


def column_blocks(count: int) -> list:
    """The COLUMN_BLOCK-wide slices covering `count` columns, in order."""
    return [slice(s, s + COLUMN_BLOCK) for s in range(0, count, COLUMN_BLOCK)]
