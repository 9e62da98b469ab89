"""Tests for the worker pool of the concurrent full-order solves."""

import os

import pytest

from batchrb.errors import ConfigurationError
from batchrb.pool import WorkerPool


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
