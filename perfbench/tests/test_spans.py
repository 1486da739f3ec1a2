"""Self-time arithmetic and span parentage of the benchmark tracer.

    python3 -m pytest perfbench/tests
"""

import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Tracer, layer_totals, self_times  # noqa: E402


def test_self_time_of_synthetic_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3];
    # b holds d [6, 8] and e [7, 8.5], which overlap each other
    spans = [
        (1, "root", 0.0, 10.0, None),
        (2, "a", 1.0, 4.0, 1),
        (3, "c", 2.0, 3.0, 2),
        (4, "b", 5.0, 9.0, 1),
        (5, "d", 6.0, 8.0, 4),
        (6, "e", 7.0, 8.5, 4),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 1.5, 5: 2.0, 6: 1.5})
    totals = layer_totals(spans + [(7, "c", 8.7, 8.9, 4)])
    assert totals["c"] == (2, pytest.approx(1.2))
    assert totals["b"][1] == pytest.approx(1.3)


def test_self_times_add_up_to_root_duration_when_children_are_serial():
    spans = [(1, "root", 0.0, 5.0, None), (2, "x", 0.5, 1.5, 1), (3, "y", 1.5, 4.0, 1),
             (4, "x", 2.0, 3.0, 3)]
    assert sum(self_times(spans).values()) == pytest.approx(5.0)


def test_child_interval_is_clipped_to_its_parent():
    spans = [(1, "p", 1.0, 2.0, None), (2, "q", 0.5, 1.5, 1)]
    assert self_times(spans)[1] == pytest.approx(0.5)


def test_wrapped_calls_nest_and_pool_spans_attach_to_their_batch():
    tracer = Tracer("t")
    leaf = tracer.wrap("leaf", lambda x: x + 1)

    def batch(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(n)))

    batch = tracer.wrap("batch", batch)
    with tracer.span("bench.job"):
        assert batch(4) == [1, 2, 3, 4]
    by_id = {sid: (name, parent) for sid, name, _, _, parent in tracer.spans}
    batch_id = next(sid for sid, (name, _) in by_id.items() if name == "batch")
    leaves = [parent for name, parent in by_id.values() if name == "leaf"]
    assert leaves == [batch_id] * 4
    assert by_id[batch_id][1] == next(s for s, (n, _) in by_id.items() if n == "bench.job")


def test_same_name_reentry_and_under_filter_open_no_span():
    tracer = Tracer("t")
    inner = tracer.wrap("k", lambda: 1, under="spectra.")
    outer = tracer.wrap("spectra.f", lambda: inner() + tracer.wrap("spectra.f", lambda: 1)())
    assert inner() == 1  # not under a spectra span: untraced
    assert outer() == 2
    names = sorted(name for _, name, *_ in tracer.spans)
    assert names == ["k", "spectra.f"]
