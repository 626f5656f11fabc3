"""The event log (repro.obs.stream): sealed-line writer, torn-tail
tolerant reader, generation repair, and trace reconstruction."""

import json
import multiprocessing
import warnings

import pytest

from repro.obs import Telemetry
from repro.obs.export import scrub_trace
from repro.obs.fleet import fleet_snapshot
from repro.obs.stream import (
    EVENT_SCHEMA,
    EventWriter,
    find_stream_lanes,
    scan_stream,
    trace_from_streams,
)


def lane_path(tmp_path, name="main"):
    return tmp_path / "stream" / f"{name}.events.jsonl"


class TestWriter:
    def test_first_emit_opens_with_anchor(self, tmp_path):
        path = lane_path(tmp_path)
        writer = EventWriter(path, lane="main", version="vX")
        writer.mark("hello", answer=42)
        writer.close("completed")
        scan = scan_stream(path)
        assert [r.kind for r in scan.records] == [
            "stream-open", "instant", "stream-close"]
        anchor = scan.records[0]
        assert anchor.attrs["schema"] == EVENT_SCHEMA
        assert anchor.attrs["sim"] == "vX"
        assert "wall" in anchor.attrs and "pid" in anchor.attrs
        assert scan.records[-1].attrs["status"] == "completed"

    def test_attrs_may_reuse_record_field_names(self, tmp_path):
        """The engine's retry and task-failed instants carry a
        ``kind`` attribute; it must land in attrs, not collide."""
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("retry", "fault", index=3, kind="error")
        record = scan_stream(path).records[1]
        assert (record.kind, record.name) == ("instant", "retry")
        assert record.attrs == {"index": 3, "kind": "error"}

    def test_sequence_and_lane_on_every_record(self, tmp_path):
        path = lane_path(tmp_path, "w-1")
        with EventWriter(path, lane="w-1", version="v") as writer:
            for n in range(5):
                writer.mark(f"e{n}")
        scan = scan_stream(path)
        assert [r.seq for r in scan.records] == list(range(7))
        assert all(r.lane == "w-1" for r in scan.records)
        assert scan.lane == "w-1"

    def test_every_line_is_sealed(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("x")
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            assert len(entry.pop("sha")) == 64

    def test_span_pairing_by_sid(self, tmp_path):
        path = lane_path(tmp_path)
        writer = EventWriter(path, lane="main", version="v")
        sid = writer.open_span("task", "task", index=3)
        writer.close_span(sid, ok=True)
        writer.close()
        scan = scan_stream(path)
        opened = [r for r in scan.records if r.kind == "span-open"]
        closed = [r for r in scan.records if r.kind == "span-close"]
        assert opened[0].sid == closed[0].sid == sid
        assert opened[0].attrs == {"index": 3}
        assert closed[0].attrs == {"ok": True}

    def test_counter_streams_deltas(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.counter("tasks.completed", 2)
            writer.counter("tasks.completed", 3)
        scan = scan_stream(path)
        deltas = [r.attrs["delta"] for r in scan.records
                  if r.kind == "counter"]
        assert deltas == [2, 3]

    def test_gauge_deduplicates_unchanged_values(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            for value in (5, 5, 5, 4, 4, 7):
                writer.gauge("queue.depth", value)
        scan = scan_stream(path)
        values = [r.attrs["value"] for r in scan.records
                  if r.kind == "gauge"]
        assert values == [5, 4, 7]

    def test_context_manager_exception_marks_interrupted(self, tmp_path):
        path = lane_path(tmp_path)
        with pytest.raises(RuntimeError):
            with EventWriter(path, lane="main", version="v") as writer:
                writer.mark("before")
                raise RuntimeError("boom")
        scan = scan_stream(path)
        assert scan.records[-1].kind == "stream-close"
        assert scan.records[-1].attrs["status"] == "interrupted"

    def test_close_is_idempotent_and_final(self, tmp_path):
        path = lane_path(tmp_path)
        writer = EventWriter(path, lane="main", version="v")
        writer.mark("x")
        writer.close()
        writer.close()
        writer.mark("after close")  # silently dropped
        closes = [r for r in scan_stream(path).records
                  if r.kind == "stream-close"]
        assert len(closes) == 1
        assert scan_stream(path).records[-1].kind == "stream-close"

    def test_io_failure_warns_once_and_disables(self, tmp_path):
        target = tmp_path / "stream" / "main.events.jsonl"
        target.mkdir(parents=True)  # open() will fail: it is a dir
        writer = EventWriter(target, lane="main", version="v")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            writer.mark("a")
            writer.mark("b")
        relevant = [w for w in caught
                    if "disabling the lane" in str(w.message)]
        assert len(relevant) == 1


class TestReader:
    def test_torn_tail_is_tolerated_not_damage(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("x")
        with open(path, "ab") as handle:
            handle.write(b'{"v": 1, "lane": "main", "seq"')  # no \n
        scan = scan_stream(path)
        assert scan.torn_tail
        assert [reason for _, reason in scan.invalid] == ["torn"]
        assert scan.damage == ()
        assert len(scan.records) == 3  # torn line skipped, rest intact

    def test_midfile_checksum_damage_is_named(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("x", value=1)
            writer.mark("y", value=2)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"value":1', b'"value":9')
        path.write_bytes(b"".join(lines))
        scan = scan_stream(path)
        assert not scan.torn_tail
        assert scan.damage == ((2, "checksum"),)

    def test_midfile_malformed_line_is_named(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("x")
        lines = path.read_bytes().splitlines(keepends=True)
        lines.insert(1, b"not json at all\n")
        path.write_bytes(b"".join(lines))
        scan = scan_stream(path)
        assert scan.damage == ((2, "malformed"),)
        assert len(scan.records) == 3

    def test_schema_drift_is_named_not_misread(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("x")
        with open(path, "ab") as handle:
            handle.write(json.dumps({"v": EVENT_SCHEMA + 1}).encode()
                         + b"\n")
        scan = scan_stream(path)
        assert (4, "schema-drift") in scan.invalid
        assert scan.damage == ((4, "schema-drift"),)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("x")
        with open(path, "ab") as handle:
            handle.write(b"\n\n")
        scan = scan_stream(path)
        assert scan.invalid == ()
        assert len(scan.records) == 3

    def test_lane_inferred_from_filename_when_empty(self, tmp_path):
        path = lane_path(tmp_path, "w-7")
        path.parent.mkdir(parents=True)
        path.write_bytes(b"")
        assert scan_stream(path).lane == "w-7"


class TestGenerations:
    def test_reopen_repairs_torn_tail(self, tmp_path):
        path = lane_path(tmp_path)
        writer = EventWriter(path, lane="main", version="v")
        writer.mark("gen1")
        # Simulate a crash: the process dies mid-write, leaving an
        # unterminated line and no stream-close.
        writer._handle.close()
        with open(path, "ab") as handle:
            handle.write(b'{"v": 1, "torn":')
        second = EventWriter(path, lane="main", version="v")
        second.mark("gen2")
        second.close("completed")
        scan = scan_stream(path)
        # The residue was truncated before generation 2 appended:
        # every surviving line is valid.
        assert scan.invalid == ()
        generations = scan.generations()
        assert len(generations) == 2
        assert generations[0][0].kind == "stream-open"
        assert generations[1][0].kind == "stream-open"
        assert [r.name for r in generations[1]
                if r.kind == "instant"] == ["gen2"]

    def test_generations_split_at_stream_open(self, tmp_path):
        path = lane_path(tmp_path)
        for n in range(3):
            with EventWriter(path, lane="main", version="v") as writer:
                writer.mark(f"g{n}")
        scan = scan_stream(path)
        assert len(scan.generations()) == 3


class TestFindLanes:
    def test_run_dir_spool_and_bare_layouts(self, tmp_path):
        run_dir = tmp_path / "run"
        for rel in ("stream/main.events.jsonl",
                    "spool/stream/w-1.events.jsonl",
                    "spool/stream/w-2.events.jsonl"):
            target = run_dir / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(b"")
        assert len(find_stream_lanes(run_dir)) == 3
        assert len(find_stream_lanes(run_dir / "spool")) == 2
        assert len(find_stream_lanes(run_dir / "stream")) == 1
        assert find_stream_lanes(tmp_path / "empty") == []


class TestTraceReconstruction:
    def _scan(self, tmp_path):
        main = lane_path(tmp_path, "main")
        with EventWriter(main, lane="main", version="v") as writer:
            sid = writer.open_span("grid", "grid", tasks=4)
            writer.gauge("queue.depth", 3)
            writer.mark("retry", "event", index=1)
            writer.close_span(sid, completed=4)
        worker = lane_path(tmp_path, "w-1")
        writer = EventWriter(worker, lane="w-1", version="v")
        writer.open_span("task", "task", index=0)  # never closed
        del writer  # killed worker: no stream-close, span dangling
        return [scan_stream(main), scan_stream(worker)]

    def test_spans_become_complete_events(self, tmp_path):
        doc = trace_from_streams(self._scan(tmp_path))
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        grid = [e for e in complete if e["name"] == "grid"]
        assert grid[0]["args"] == {"tasks": 4, "completed": 4}
        assert grid[0]["dur"] >= 0

    def test_dangling_span_closed_as_interrupted(self, tmp_path):
        doc = trace_from_streams(self._scan(tmp_path))
        task = [e for e in doc["traceEvents"]
                if e["ph"] == "X" and e["name"] == "task"]
        assert task[0]["args"]["interrupted"] is True

    def test_gauges_and_instants_mapped(self, tmp_path):
        doc = trace_from_streams(self._scan(tmp_path))
        phases = {e["name"]: e["ph"] for e in doc["traceEvents"]
                  if e["ph"] in ("C", "i")}
        assert phases == {"queue.depth": "C", "retry": "i"}

    def test_lanes_become_named_threads_main_first(self, tmp_path):
        doc = trace_from_streams(self._scan(tmp_path))
        threads = {e["args"]["name"]: e["tid"]
                   for e in doc["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert threads == {"main": 0, "w-1": 1}

    def test_wall_anchor_from_main_lane(self, tmp_path):
        doc = trace_from_streams(self._scan(tmp_path))
        assert doc["otherData"]["epoch_wall_time"] > 0
        assert doc["otherData"]["event_schema"] == EVENT_SCHEMA

    def test_document_is_json_serializable(self, tmp_path):
        doc = trace_from_streams(self._scan(tmp_path))
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc


class TestInterruptedFlush:
    """Satellite: an interrupted run still flushes span closes and
    seals its generation (Telemetry.close)."""

    def test_close_flushes_open_spans_into_stream(self, tmp_path):
        path = lane_path(tmp_path)
        stream = EventWriter(path, lane="main", version="v")
        telemetry = Telemetry.armed(simulator_counters=True,
                                    stream=stream)
        telemetry.tracer.begin("grid", "grid", tasks=88)
        telemetry.metrics.count("tasks.completed", 17)
        telemetry.close("interrupted")
        scan = scan_stream(path)
        closes = [r for r in scan.records if r.kind == "span-close"]
        assert closes and closes[0].attrs["interrupted"] is True
        assert scan.records[-1].kind == "stream-close"
        assert scan.records[-1].attrs["status"] == "interrupted"

    def test_trace_reconstructs_after_interrupt(self, tmp_path):
        path = lane_path(tmp_path)
        stream = EventWriter(path, lane="main", version="v")
        telemetry = Telemetry.armed(stream=stream)
        telemetry.tracer.begin("pb-design", "phase")
        telemetry.close("interrupted")
        doc = trace_from_streams([scan_stream(path)])
        (span,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert span["name"] == "pb-design"
        assert span["args"]["interrupted"] is True

    def test_close_is_idempotent(self, tmp_path):
        path = lane_path(tmp_path)
        stream = EventWriter(path, lane="main", version="v")
        telemetry = Telemetry.armed(stream=stream)
        with telemetry.phase("x"):
            pass
        telemetry.close("completed")
        telemetry.close("completed")
        closes = [r for r in scan_stream(path).records
                  if r.kind == "stream-close"]
        assert len(closes) == 1


class TestSpanReplay:
    """The writer records a span's track; the reader rebuilds the
    span, so an export renders through chrome_trace's own code."""

    def test_track_recorded_off_the_supervisor_track_only(self, tmp_path):
        path = lane_path(tmp_path)
        telemetry = Telemetry.armed(
            stream=EventWriter(path, lane="main", version="v"))
        tracer = telemetry.tracer
        tracer.finish(tracer.begin("grid", "grid"))
        tracer.finish(tracer.begin("run", "task", track=2, index=0))
        tracer.event("worker-attach", "dist", track=3)
        tracer.finish(tracer.begin("queue", "task", asynchronous=True))
        telemetry.close()
        scan = scan_stream(path)
        attrs = {r.name: r.attrs for r in scan.records
                 if r.kind in ("span-open", "instant")}
        assert attrs == {"grid": {}, "run": {"index": 0, "track": 2},
                         "worker-attach": {"track": 3},
                         "queue": {"async": True}}
        spans = {span.name: span for span in scan.spans()}
        assert (spans["run"].track, spans["run"].attributes) \
            == (2, {"index": 0})
        assert spans["worker-attach"].instant
        assert spans["queue"].asynchronous
        assert spans["queue"].attributes == {}

    def test_lane_without_track_attrs_still_exports(self, tmp_path):
        """A lane written before tracks were recorded: pool runs land
        on the lane's own thread, queue waits still pair as async."""
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            grid = writer.open_span("grid", "grid", tasks=1)
            queue = writer.open_span("queue", "task", index=0,
                                     **{"async": True})
            writer.close_span(queue, index=0, outcome="dispatched")
            run = writer.open_span("run", "task", index=0, attempt=0)
            writer.close_span(run, index=0, attempt=0, outcome="ok")
            writer.close_span(grid, tasks=1, completed=1)
        doc = trace_from_streams([scan_stream(path)])
        events = doc["traceEvents"]
        threads = {e["tid"]: e["args"]["name"] for e in events
                   if e["name"] == "thread_name"}
        assert threads == {0: "main"}
        phases = sorted((e["name"], e["ph"], e["tid"]) for e in events
                        if e["ph"] != "M")
        assert phases == [("grid", "X", 0), ("queue", "b", 0),
                          ("queue", "e", 0), ("run", "X", 0)]


fork_available = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def pool_run(tmp_path_factory):
    """The smoke-obs grid: a streamed, traced ``--jobs 2`` screen with
    a worker kill, a task raising twice and a delayed task."""
    from repro.cli import main

    base = tmp_path_factory.mktemp("pool")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_FAULT_SPEC",
                     "kill:5,raise:12:2,delay:20:1:0.2")
        assert main([
            "screen", "-b", "gzip,mcf", "-n", "300", "--jobs", "2",
            "--retry", "4", "--on-error", "retry",
            "--run-dir", str(base / "run"),
            "--trace", str(base / "trace.json"),
        ]) == 0
    metrics = {entry.pop("name"): entry for entry in map(
        json.loads, (base / "run" / "metrics.jsonl").open())}
    assert metrics["workers.deaths"]["value"] == 1
    assert metrics["tasks.retried"]["value"] >= 2
    return {
        "run": base / "run",
        "trace": json.loads((base / "trace.json").read_text()),
        "metrics": metrics,
    }


@pytest.mark.skipif(not fork_available, reason="needs fork")
class TestExportParity:
    """``repro obs export`` renders what ``--trace`` and ``--metrics``
    render, from the run dir's event lane alone."""

    def _export(self, pool_run):
        scans = [scan_stream(path)
                 for path in find_stream_lanes(pool_run["run"])]
        return trace_from_streams(scans)

    def test_perfetto_scrubs_equal_to_the_trace(self, pool_run):
        export = self._export(pool_run)
        without_gauges = {**export, "traceEvents": [
            e for e in export["traceEvents"] if e["ph"] != "C"]}
        assert scrub_trace(without_gauges) \
            == scrub_trace(pool_run["trace"])
        assert any(e["ph"] == "C" for e in export["traceEvents"])

    def test_each_thread_nests_its_slices(self, pool_run):
        slices = {}
        for event in self._export(pool_run)["traceEvents"]:
            if event["ph"] == "X":
                slices.setdefault(event["tid"], []).append(
                    (event["ts"], -event["dur"]))
        # main, its two pool workers and the killed one's successor
        assert len(slices) == 4
        for spans in slices.values():
            ends = []
            for ts, negative in sorted(spans):
                while ends and ends[-1] <= ts:
                    ends.pop()
                assert not ends or ts - negative <= ends[-1]
                ends.append(ts - negative)

    def test_replayed_metrics_equal_the_registry(self, pool_run):
        replayed = fleet_snapshot(pool_run["run"]).metrics.snapshot()
        recorded = pool_run["metrics"]
        assert replayed.keys() == recorded.keys()
        for name, fields in recorded.items():
            # A lane streams a gauge only when its value changes.
            fields.pop("samples", None)
            assert {k: v for k, v in replayed[name].items()
                    if k != "samples"} == fields, name
        assert recorded["task.seconds"]["count"] == 176
