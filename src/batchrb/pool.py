"""Deterministic worker pool for independent tasks: solves and column-block peels."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigurationError

#: Columns per task of a column-independent computation.  Fixed, so the split
#: and with it every result never depends on the worker count.
COLUMN_BLOCK = 64


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
    Use as a context manager to release threads promptly.
    """

    def __init__(self, workers: int = 1):
        if int(workers) != workers or workers < 1:
            raise ConfigurationError(f"workers must be a positive integer, got {workers}")
        self.workers = min(int(workers), _available_cpus())
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


def map_column_blocks(pool, fn, count: int) -> list:
    """fn of each column block, in order; inline without a pool."""
    return (pool or WorkerPool()).map(fn, column_blocks(count))
