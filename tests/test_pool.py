"""Tests for the worker pool and its fixed-width column blocks."""

import ctypes
import math
import os
from pathlib import Path

import pytest

from batchrb import pool as pool_mod
from batchrb.errors import ConfigurationError
from batchrb.pool import COLUMN_BLOCK, WorkerPool, column_blocks


class TestWorkerPool:
    def test_threads_capped_at_affinity(self):
        cpus = len(os.sched_getaffinity(0))
        for requested in (1, 2, cpus, float(cpus), cpus + 1, 4 * cpus):
            with WorkerPool(requested) as pool:
                assert pool.workers == min(requested, cpus) and type(pool.workers) is int
                if pool._executor is not None:
                    assert pool._executor._max_workers == pool.workers

    def test_results_in_submission_order(self):
        items = list(range(50))
        for requested in (1, 3, 8):
            with WorkerPool(requested) as pool:
                assert pool.map(lambda x: x * x, items) == [x * x for x in items]

    @pytest.mark.parametrize("workers", [0, -1, 1.5, math.nan, math.inf, True, "2", None])
    def test_rejects_bad_worker_counts(self, workers):
        with pytest.raises(ConfigurationError, match="^workers=.* must be an integer >= 1"):
            WorkerPool(workers)


class TestColumnBlocks:
    @pytest.mark.parametrize("count", [1, 17, COLUMN_BLOCK, 81, 2 * COLUMN_BLOCK])
    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_fixed_width_blocks_cover_columns_in_order(self, count, workers):
        """The split depends on the count alone; a pool of any size (the
        default one without `workers`) maps it in order."""
        columns = list(range(count))
        with WorkerPool() if workers is None else WorkerPool(workers) as pool:
            blocks = pool.map(lambda block: columns[block], column_blocks(count))
        assert [len(block) for block in blocks[:-1]] == [COLUMN_BLOCK] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= COLUMN_BLOCK
        assert sum(blocks, []) == columns


def loaded_openblas_threads():
    """{library name: thread count} of every OpenBLAS mapped into the process."""
    maps = Path("/proc/self/maps").read_text().splitlines()
    counts = {}
    for path in {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}:
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts[Path(path).name] = getter()
                break
    return counts


class TestBlasThreads:
    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc")
    def test_every_loaded_openblas_runs_one_thread(self):
        counts = loaded_openblas_threads()
        if not counts:
            assert pool_mod.BLAS_THREADS.startswith("unchanged: no openblas_set_num")
        for name, threads in counts.items():
            assert threads == 1, name
            assert f"{name} " in pool_mod.BLAS_THREADS and " -> 1" in pool_mod.BLAS_THREADS

    def test_fallback_says_why(self):
        why = "unchanged: no openblas_set_num_threads_local in the OpenBLAS found"
        assert pool_mod._one_blas_thread([]) == f"{why} (none)"
        missing = pool_mod._one_blas_thread(["/nonexistent/libopenblas-test.so"])
        assert missing == f"{why} (libopenblas-test.so)"
