"""Self-time arithmetic of nested and threaded spans."""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_covered_length_merges_overlaps_and_gaps():
    assert spans.covered_length([]) == 0.0
    assert spans.covered_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)


def test_nested_self_time_subtracts_children_once():
    recorded = [
        Span(1, "root", 0.0, 10.0, None, 1),
        Span(2, "child", 1.0, 4.0, 1, 1),
        Span(3, "grandchild", 2.0, 3.0, 2, 1),
        Span(4, "child", 6.0, 7.0, 1, 1),
    ]
    own = spans.self_times(recorded)
    assert own[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)
    table = spans.summarize(recorded)
    assert table["child"] == {"count": 2, "total_s": 4.0, "self_s": pytest.approx(3.0)}


def test_threaded_children_overlap_counts_their_union():
    # Two workers run concurrently under one map span, which also waits
    # before and after them.
    recorded = [
        Span(1, "map", 0.0, 10.0, None, 1),
        Span(2, "solve", 1.0, 6.0, 1, 2),
        Span(3, "solve", 2.0, 8.0, 1, 3),
        Span(4, "solve", 9.5, 12.0, 1, 2),  # ends after its parent
    ]
    own = spans.self_times(recorded)
    assert own[1] == pytest.approx(10.0 - 7.0 - 0.5)
    assert own[4] == pytest.approx(2.5)


def test_tracer_records_parents_across_threads():
    tracer = spans.Tracer()

    def solve():
        return threading.get_ident()

    traced_solve = tracer.wrap(solve, "solve")

    def fan_out():
        parent = tracer.current()

        def task():
            with tracer.adopt(parent):
                return traced_solve()

        workers = [threading.Thread(target=task) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
        assert not any(worker.is_alive() for worker in workers)

    tracer.wrap(fan_out, "map")()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (map_span,) = by_name["map"]
    assert len(by_name["solve"]) == 2
    assert all(span.parent == map_span.id for span in by_name["solve"])
    assert all(span.thread != map_span.thread for span in by_name["solve"])
    lookup = {span.id: span for span in tracer.spans}
    assert spans.has_ancestor(by_name["solve"][0], "map", lookup)
    assert not spans.has_ancestor(map_span, "solve", lookup)


def test_patched_restores_on_error():
    class Owner:
        def value(self):
            return 1

    with pytest.raises(RuntimeError):
        with spans.patched([(Owner, "value", lambda self: 2)]):
            assert Owner().value() == 2
            raise RuntimeError("boom")
    assert Owner().value() == 1
