"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == {"type": "counter", "value": 5}

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_counter_accepts_zero(self):
        c = Counter()
        c.inc(0)
        assert c.value == 0

    def test_gauge_tracks_peak_and_samples(self):
        g = Gauge()
        for value in (3, 7, 2):
            g.set(value)
        snap = g.snapshot()
        assert snap == {"type": "gauge", "value": 2, "peak": 7,
                        "samples": 3}

    def test_histogram_summary(self):
        h = Histogram()
        for value in (1.0, 3.0, 2.0):
            h.observe(value)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 1.0
        assert snap["max"] == 3.0
        assert snap["mean"] == pytest.approx(2.0)

    def test_empty_histogram_snapshot(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["mean"] is None


class TestRegistry:
    def test_instruments_created_on_first_use(self):
        registry = MetricsRegistry()
        registry.count("tasks.completed")
        registry.set_gauge("queue.depth", 4)
        registry.observe("task.seconds", 0.25)
        assert registry.names() == [
            "queue.depth", "task.seconds", "tasks.completed",
        ]

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.count("x")
        with pytest.raises(TypeError):
            registry.set_gauge("x", 1)

    def test_count_many_accumulates(self):
        registry = MetricsRegistry()
        registry.count_many({"sim.stall.fetch": 10,
                             "sim.stall.rob_full": 3})
        registry.count_many({"sim.stall.fetch": 5})
        snap = registry.snapshot()
        assert snap["sim.stall.fetch"]["value"] == 15
        assert snap["sim.stall.rob_full"]["value"] == 3

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        for name in ("b", "a", "c"):
            registry.count(name)
        assert list(registry.snapshot()) == ["a", "b", "c"]

    def test_contains_and_len(self):
        registry = MetricsRegistry()
        registry.count("a")
        assert "a" in registry
        assert "b" not in registry
        assert len(registry) == 1

    def test_items_sorted(self):
        registry = MetricsRegistry()
        registry.count("b")
        registry.count("a")
        assert [name for name, _ in registry.items()] == ["a", "b"]
