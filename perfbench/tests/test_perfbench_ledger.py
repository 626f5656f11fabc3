"""Percentile, span and ledger arithmetic of the screen benchmark."""

import math
import types

import pytest

from repro.obs import Span, Tracer, chrome_trace

from ledger import (
    POOL_WAIT_ROW,
    REMAINDER_ROW,
    LedgerError,
    Recorder,
    innermost_segments,
    ledger,
    median,
    overlap,
    percentile,
    union,
)


def span(name, start, end, track=0, asynchronous=False):
    return Span(name, "test", {}, start, end, track=track,
                asynchronous=asynchronous)


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([4, 1, 3, 2], 0) == 1
    assert percentile([4, 1, 3, 2], 100) == 4
    assert percentile([7.0], 99) == 7.0
    assert percentile([], 50) == 0.0
    assert median([3, 1, 2]) == 2


def test_p99_of_a_screen_has_over_ten_cells_above_it():
    cells = list(range(1144))
    p99 = percentile(cells, 99)
    assert math.isclose(p99, 1131.57)
    assert sum(1 for c in cells if c > p99) == 12


def test_union_and_overlap():
    assert union([(5, 6), (0, 2), (1, 3), (4, 4)]) == [(0, 3), (5, 6)]
    assert overlap([(0, 10)], [(2, 3), (5, 7)]) == 3
    assert overlap([(0, 1), (2, 4)], [(0.5, 3)]) == 1.5
    assert overlap([(0, 1)], []) == 0


def test_segments_tile_the_root_and_go_to_the_innermost_call():
    root = span("screen", 0.0, 10.0)
    nested = [span("a", 1.0, 4.0), span("b", 2.0, 3.0),
              span("c", 5.0, 6.0)]
    segments = innermost_segments(root, nested)
    assert segments == [
        ("screen", 0.0, 1.0), ("a", 1.0, 2.0), ("b", 2.0, 3.0),
        ("a", 3.0, 4.0), ("screen", 4.0, 5.0), ("c", 5.0, 6.0),
        ("screen", 6.0, 10.0),
    ]


def test_segments_tolerate_clock_rounding_only():
    root = span("screen", 0.0, 10.0)
    nested = [span("p", 0.0, 5.0), span("c", 4.0, 5.0 + 1e-9),
              span("d", 5.0 - 1e-9, 6.0)]
    segments = innermost_segments(root, nested)
    assert ("c", 4.0, 5.0) in segments
    assert ("d", 5.0, 6.0) in segments
    assert sum(end - start for _, start, end in segments) == 10.0


def test_a_span_outside_the_screen_is_an_error():
    root = span("screen", 0.0, 10.0)
    with pytest.raises(LedgerError, match="outside"):
        innermost_segments(root, [span("late", 9.0, 11.0)])
    with pytest.raises(LedgerError, match="outside"):
        ledger(root, [span("exec.cache.put", -1.0, 0.5)])


def test_a_span_overlapping_without_nesting_is_an_error():
    root = span("screen", 0.0, 10.0)
    with pytest.raises(LedgerError, match="without nesting"):
        ledger(root, [span("grid", 0.0, 5.0),
                      span("exec.cache.put", 4.0, 6.0)])
    # Worker-track and asynchronous spans overlap freely.
    rows = ledger(root, [span("grid", 0.0, 5.0),
                         span("run", 4.0, 6.0, track=1),
                         span("queue", 1.0, 7.0, asynchronous=True)])
    assert sum(rows.values()) == 10.0


def test_serial_ledger_rows_sum_to_the_screen():
    root = span("screen", 0.0, 10.0)
    intervals = [
        span("grid", 0.5, 9.0),
        span("run", 1.0, 5.0),
        span("workloads.decode", 1.0, 1.5),
        span("exec.progress", 5.0, 5.25),
        span("pb-analyze", 9.0, 9.5),
        span("core.rank", 9.5, 9.75),
    ]
    rows = ledger(root, intervals)
    assert rows["cpu.simulate_s"] == 3.5
    assert rows["workloads.decode_s"] == 0.5
    assert rows["exec.progress_s"] == 0.25
    assert rows["core.analyze_s"] == 0.75
    assert rows[POOL_WAIT_ROW] == 0.0
    assert rows[REMAINDER_ROW] == 5.0
    assert sum(rows.values()) == root.duration


def test_pool_ledger_splits_uncovered_time_by_cells_in_flight():
    root = span("screen", 0.0, 10.0)
    intervals = [
        span("grid", 0.0, 10.0),
        span("run", 2.0, 6.0, track=1),
        span("run", 2.5, 5.0, track=2),
        span("queue", 0.0, 2.5, track=0, asynchronous=True),
        span("exec.cache.put", 3.0, 4.0),
    ]
    rows = ledger(root, intervals)
    assert rows["exec.cache.put_s"] == 1.0
    assert rows["cpu.simulate_s"] == 0.0
    assert rows[POOL_WAIT_ROW] == 3.0
    assert rows[REMAINDER_ROW] == 6.0
    assert sum(rows.values()) == root.duration


def test_recorder_times_wrapped_calls_and_restores_patches():
    rec = Recorder()
    box = types.SimpleNamespace(f=lambda x: x + 1)
    rec.wrap(box, "f", "layer.f")
    assert box.f(1) == 2
    module = types.SimpleNamespace(g=lambda: "g")
    original = module.g
    with rec.patched(module, "g", "layer.g"):
        assert module.g() == "g"
    assert module.g is original
    with pytest.raises(ZeroDivisionError):
        rec.call("layer.fail", lambda: 1 / 0)
    assert [s.name for s in rec.spans()] == \
        ["layer.f", "layer.g", "layer.fail"]
    assert all(s.end >= s.start and s.category == "layer"
               for s in rec.spans())


def test_recorder_adopts_engine_spans_on_its_own_timeline():
    rec = Recorder()
    engine = Tracer()
    engine.epoch = rec.epoch + 2.0
    engine.finish(engine.begin("run", "task", track=1))
    engine.begin("open", "phase")           # never closed: not adopted
    engine.finish(engine.begin("queue", "task", asynchronous=True))
    rec.adopt(engine)
    run, queue = rec.named("run")[0], rec.named("queue")[0]
    assert [s.name for s in rec.spans()] == ["run", "queue"]
    original = engine.spans()[0]
    assert run.start == pytest.approx(original.start + 2.0)
    assert run.duration == pytest.approx(original.duration)
    assert run.track == 1 and queue.asynchronous

    doc = chrome_trace(rec)
    phases = [e["ph"] for e in doc["traceEvents"]]
    assert phases.count("X") == 1
    assert phases.count("b") == phases.count("e") == 1
