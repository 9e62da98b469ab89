"""Tests for the worker pool and its fixed-width column blocks."""

import os

import pytest

from batchrb.errors import ConfigurationError
from batchrb.pool import COLUMN_BLOCK, WorkerPool, map_column_blocks


class TestWorkerPool:
    def test_threads_capped_at_affinity(self):
        cpus = len(os.sched_getaffinity(0))
        for requested in (1, 2, cpus, cpus + 1, 4 * cpus):
            with WorkerPool(requested) as pool:
                assert pool.workers == min(requested, cpus)
                if pool._executor is not None:
                    assert pool._executor._max_workers == pool.workers

    def test_results_in_submission_order(self):
        items = list(range(50))
        for requested in (1, 3, 8):
            with WorkerPool(requested) as pool:
                assert pool.map(lambda x: x * x, items) == [x * x for x in items]

    @pytest.mark.parametrize("workers", [0, -1, 1.5])
    def test_rejects_bad_worker_counts(self, workers):
        with pytest.raises(ConfigurationError):
            WorkerPool(workers)


class TestColumnBlocks:
    @pytest.mark.parametrize("count", [1, 17, COLUMN_BLOCK, 81, 2 * COLUMN_BLOCK])
    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_fixed_width_blocks_cover_columns_in_order(self, count, workers):
        columns = list(range(count))
        pool = None if workers is None else WorkerPool(workers)
        blocks = map_column_blocks(pool, lambda block: columns[block], count)
        assert [len(block) for block in blocks[:-1]] == [COLUMN_BLOCK] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= COLUMN_BLOCK
        assert sum(blocks, []) == columns
        if pool is not None:
            pool.shutdown()
