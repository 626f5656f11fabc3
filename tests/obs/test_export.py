"""Unit tests for the exporters (repro.obs.export)."""

import json

from repro.obs.export import (
    chrome_trace,
    scrub_trace,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer


def _sample_tracer():
    tracer = Tracer()
    grid = tracer.begin("grid", "grid", tasks=2)
    queued = tracer.begin("queue", "task", asynchronous=True, index=0)
    run = tracer.begin("run", "task", track=1, index=0, attempt=0)
    tracer.event("retry", "fault", index=1)
    tracer.finish(run, outcome="ok")
    tracer.finish(queued, outcome="dispatched")
    tracer.finish(grid, completed=2)
    return tracer


class TestChromeTrace:
    def test_sync_spans_become_complete_events(self):
        trace = chrome_trace(_sample_tracer())
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"grid", "run"}
        for event in complete:
            assert event["dur"] >= 0
            assert event["ts"] >= 0
            assert event["pid"] == 1

    def test_async_spans_become_paired_events(self):
        trace = chrome_trace(_sample_tracer())
        begins = [e for e in trace["traceEvents"] if e["ph"] == "b"]
        ends = [e for e in trace["traceEvents"] if e["ph"] == "e"]
        assert len(begins) == len(ends) == 1
        assert begins[0]["id"] == ends[0]["id"]
        # identity derives from content (category:name:attrs), never
        # from the clock or RNG
        assert begins[0]["id"].startswith("task:queue:index=0")

    def test_instants_and_metadata(self):
        trace = chrome_trace(_sample_tracer())
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["retry"]
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "repro" in names        # process_name
        assert "supervisor" in names   # track 0
        assert "worker-0" in names     # track 1

    def test_open_spans_closed_and_marked(self):
        tracer = Tracer()
        tracer.begin("grid", "grid")
        trace = chrome_trace(tracer)
        (event,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert event["args"]["interrupted"] is True

    def test_document_shape(self):
        trace = chrome_trace(_sample_tracer())
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"]["producer"] == "repro.obs"
        json.dumps(trace)  # must be JSON-serializable as-is


class TestScrubTrace:
    def test_identical_structure_scrubs_equal(self):
        a = scrub_trace(chrome_trace(_sample_tracer()))
        b = scrub_trace(chrome_trace(_sample_tracer()))
        assert a == b

    def test_timestamps_and_lanes_dropped(self):
        lines = scrub_trace(chrome_trace(_sample_tracer()))
        for line in lines:
            event = json.loads(line)
            for field in ("ts", "dur", "tid", "pid"):
                assert field not in event
            assert event["ph"] != "M"

    def test_structural_differences_detected(self):
        tracer = _sample_tracer()
        tracer.event("extra", "fault")
        assert scrub_trace(chrome_trace(tracer)) \
            != scrub_trace(chrome_trace(_sample_tracer()))

    def test_worker_attribute_dropped(self):
        tracer = Tracer()
        tracer.finish(tracer.begin("run", "task", worker=3, index=0))
        (line,) = scrub_trace(chrome_trace(tracer))
        assert "worker" not in json.loads(line)["args"]


class TestFileWriters:
    def test_write_chrome_trace(self, tmp_path):
        path = write_chrome_trace(_sample_tracer(),
                                  tmp_path / "trace.json")
        trace = json.loads(path.read_text())
        assert trace["traceEvents"]

    def test_write_metrics_jsonl(self, tmp_path):
        registry = MetricsRegistry()
        registry.count("tasks.completed", 7)
        registry.observe("task.seconds", 0.5)
        path = write_metrics_jsonl(registry, tmp_path / "m.jsonl")
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [entry["name"] for entry in lines] \
            == ["task.seconds", "tasks.completed"]
        assert lines[1] == {"name": "tasks.completed",
                            "type": "counter", "value": 7}

