"""Event-line encoding and the folded counter record (repro.obs.stream).

Two contracts: every line :class:`EventWriter` appends is, byte for
byte, the record encoded canonically with its sha inserted — the
encoding a line had when the writer built it by encoding the record
twice — and a ``counter`` record carrying a ``deltas`` map reads back,
through every stream reader, as the per-name records it replaces.
"""

import hashlib
import json
import random
from decimal import Decimal
from pathlib import Path

import pytest

from repro.cli import main
from repro.cpu import MachineConfig
from repro.exec import grid_tasks, run_grid
from repro.obs import EVENT_SCHEMA, EventWriter, Telemetry, fleet_snapshot
from repro.obs import stream
from repro.obs.stream import READ_SCHEMAS, counter_deltas, scan_stream
from repro.workloads import benchmark_trace


def double_encoded(record):
    """The line as once built: encode for the sha, then again with it."""
    def canonical(value):
        return json.dumps(value, sort_keys=True, separators=(",", ":"),
                          default=str)

    sealed = dict(record)
    sealed["sha"] = hashlib.sha256(
        canonical(record).encode("utf-8")).hexdigest()
    return canonical(sealed) + "\n"


class Opaque:
    """A value JSON cannot carry; it is encoded through ``str()``."""

    def __init__(self, n):
        self.n = n

    def __str__(self):
        return f"<opaque {self.n}>"


#: Attribute keys that collide with the record's own keys.
TRICKY_KEYS = ("seq", "sha", "sid", "t", "v", "attrs", "kind", "lane",
               "name", "cat", "zz", "a", "sh", "shaz", "é")


def random_value(rng, depth=0):
    choice = rng.randrange(11 if depth < 2 else 8)
    if choice == 0:
        return rng.randint(-2 ** 40, 2 ** 40)
    if choice == 1:
        return rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-12, 12)
    if choice == 2:
        return rng.choice([0.0, -0.0, float("nan"), float("inf")])
    if choice == 3:
        return "".join(rng.choice('ab"\\\n\té€😀 ,:{}')
                       for _ in range(rng.randint(0, 8)))
    if choice == 4:
        return rng.choice([None, True, False])
    if choice == 5:
        return Path(f"/runs/{rng.randint(0, 99)}/x.json")
    if choice == 6:
        return Decimal(rng.randint(0, 10 ** 6)) / 1000
    if choice == 7:
        return Opaque(rng.randint(0, 9))
    if choice == 8:
        return [random_value(rng, depth + 1)
                for _ in range(rng.randint(0, 3))]
    return random_attrs(rng, depth + 1)


def random_attrs(rng, depth=0, exclude=()):
    keys = rng.sample([k for k in TRICKY_KEYS if k not in exclude],
                      rng.randint(0, 5))
    return {key: random_value(rng, depth) for key in keys}


#: Parameter names of the writer's entry points, which keyword
#: attributes cannot reuse (nested attributes can).
PARAMETERS = ("kind", "name", "category", "sid")


class TestLineEncoding:
    @pytest.mark.parametrize("seed", range(8))
    def test_sealed_line_matches_double_encode(self, seed):
        rng = random.Random(seed)
        for _ in range(250):
            head = {"attrs": random_attrs(rng),
                    "kind": rng.choice(stream.EVENT_KINDS),
                    "lane": rng.choice(["main", "w-1", "wörker"]),
                    "seq": rng.randint(0, 10 ** 6)}
            if rng.random() < 0.7:
                head["name"] = rng.choice(["run", "queue", "sha", "seq"])
            if rng.random() < 0.5:
                head["cat"] = rng.choice(["task", "fault", "sid"])
            # Instants and sids are floats and ints from the writer,
            # but any value must still encode as the encoder would.
            t = rng.choice([rng.uniform(0, 1e7), rng.uniform(0, 1e7),
                            rng.randint(0, 10 ** 9), 1e300, 5e-324,
                            float("nan"), float("-inf"), True,
                            Decimal("1.5")])
            sid = rng.choice([None, None, rng.randint(1, 10 ** 5),
                              2 ** 70, -3, False, 2.5, "7"])
            record = dict(head, t=t, v=EVENT_SCHEMA)
            if sid is not None:
                record["sid"] = sid
            assert stream._sealed_line(head, t, sid) \
                == double_encoded(record)

    def test_writer_lines_match_double_encode(self, tmp_path,
                                              monkeypatch):
        """Every line the writer appends, from every entry point, is the
        double-encoded record it describes."""
        instants = iter(range(10 ** 6))
        monkeypatch.setattr(stream.clock, "monotonic",
                            lambda: 1000.0 + next(instants) / 7)
        monkeypatch.setattr(stream.clock, "wall_time", lambda: 1.5e9)
        rng = random.Random(99)
        path = tmp_path / "main.events.jsonl"
        writer = EventWriter(path, lane="main", version="v")
        for _ in range(200):
            attrs = random_attrs(rng, exclude=PARAMETERS)
            entry = rng.randrange(4)
            if entry == 0:
                writer.mark(rng.choice(["restore", "seq"]), "cache",
                            **attrs)
            elif entry == 1:
                writer.close_span(writer.open_span("task", **attrs),
                                  **random_attrs(rng, exclude=PARAMETERS))
            elif entry == 2:
                writer.counters({"tasks.completed": 1,
                                 "sim.cycles": rng.randint(0, 10 ** 9)})
            else:
                writer.emit("instant", **attrs)
        writer.close()

        lines = path.read_text(encoding="utf-8").splitlines(True)
        assert len(lines) > 200
        for line in lines:
            record = json.loads(line)
            record.pop("sha")
            # Re-encoding the parsed record is exact: every value in
            # it is already what default=str and float repr produced.
            assert line == double_encoded(record)
        assert not scan_stream(path).invalid


class TestFoldedCounter:
    def test_counters_sink_writes_one_record(self, tmp_path):
        path = tmp_path / "main.events.jsonl"
        with EventWriter(path, lane="main", version="v") as writer:
            writer.counters({"tasks.completed": 1, "sim.cycles": 40})
        counters = [r for r in scan_stream(path).records
                    if r.kind == "counter"]
        assert len(counters) == 1
        assert counters[0].name == ""
        assert counter_deltas(counters[0]) == {
            "tasks.completed": 1, "sim.cycles": 40}

    def test_registry_count_many_matches_count(self, tmp_path):
        path = tmp_path / "main.events.jsonl"
        folded = Telemetry.armed(
            trace=False, stream=EventWriter(path, lane="main",
                                            version="v"))
        single = Telemetry.armed(trace=False)
        deltas = {"tasks.completed": 1, "sim.cycles": 7,
                  "sim.stall.fetch": 0}
        for _ in range(3):
            folded.metrics.count_many(deltas)
            for name, amount in deltas.items():
                single.metrics.count(name, amount)
        folded.close()
        assert folded.snapshot() == single.snapshot()
        assert sum(r.kind == "counter"
                   for r in scan_stream(path).records) == 3

    def test_mixed_lane_rolls_up_to_the_same_totals(self, tmp_path):
        """Per-name and folded records in one generation sum exactly
        like an all-per-name lane."""
        mixed, old = tmp_path / "mixed", tmp_path / "old"
        cells = [{"tasks.completed": 1, "sim.cycles": 100 + n,
                  "sim.stall.fetch": n % 3} for n in range(6)]
        with EventWriter(mixed / "stream" / "main.events.jsonl",
                         lane="main", version="v") as writer:
            for n, deltas in enumerate(cells):
                if n % 2:
                    writer.counters(deltas)
                else:
                    for name, amount in deltas.items():
                        writer.counter(name, amount)
        with EventWriter(old / "stream" / "main.events.jsonl",
                         lane="main", version="v") as writer:
            for deltas in cells:
                for name, amount in deltas.items():
                    writer.counter(name, amount)
        assert fleet_snapshot(mixed).counters \
            == fleet_snapshot(old).counters == {
                "tasks.completed": 6, "sim.cycles": 615,
                "sim.stall.fetch": 6}

    def test_v1_lane_still_reads(self, tmp_path):
        """A lane written before the folded record existed (schema 1)
        keeps rolling up."""
        path = tmp_path / "stream" / "main.events.jsonl"
        path.parent.mkdir(parents=True)
        records = [
            {"v": 1, "lane": "main", "seq": 0, "kind": "stream-open",
             "t": 1.0, "attrs": {"schema": 1, "sim": "v", "pid": 1,
                                 "wall": 0.0}},
            {"v": 1, "lane": "main", "seq": 1, "kind": "counter",
             "name": "tasks.completed", "t": 2.0, "attrs": {"delta": 4}},
        ]
        path.write_text("".join(double_encoded(r) for r in records))
        scan = scan_stream(path)
        assert not scan.invalid
        assert fleet_snapshot(tmp_path).counters == {"tasks.completed": 4}

    def test_unknown_schema_is_drift(self, tmp_path):
        path = tmp_path / "main.events.jsonl"
        record = {"v": max(READ_SCHEMAS) + 1, "lane": "main", "seq": 0,
                  "kind": "counter", "t": 1.0,
                  "attrs": {"deltas": {"x": 1}}}
        path.write_text(double_encoded(record))
        assert scan_stream(path).invalid == ((1, "schema-drift"),)

    @pytest.mark.parametrize("name, attrs", [
        ("", {"delta": 3}),                      # no name
        ("x", {"delta": "3"}),                   # non-integer delta
        ("x", {"deltas": {"y": 1}}),             # named and folded
        ("", {"deltas": {"y": 1.5}}),            # non-integer in map
        ("", {"deltas": [1]}),                   # not a map
    ])
    def test_malformed_counter_is_named(self, tmp_path, name, attrs):
        path = tmp_path / "main.events.jsonl"
        record = {"v": EVENT_SCHEMA, "lane": "main", "seq": 0,
                  "kind": "counter", "t": 1.0, "attrs": attrs}
        if name:
            record["name"] = name
        path.write_text(double_encoded(record))
        assert scan_stream(path).invalid == ((1, "malformed"),)


class TestStreamedGrid:
    @pytest.fixture(scope="class")
    def tasks(self):
        traces = {"gzip": benchmark_trace("gzip", 400),
                  "mcf": benchmark_trace("mcf", 400)}
        configs = [MachineConfig(),
                   MachineConfig().evolve(rob_entries=64),
                   MachineConfig().evolve(int_alus=1),
                   MachineConfig().evolve(l2_latency=20)]
        return grid_tasks(configs, traces)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_counter_record_per_cell(self, tmp_path, tasks, jobs):
        run_dir = tmp_path / "run"
        lane = run_dir / "stream" / "main.events.jsonl"
        telemetry = Telemetry.armed(
            simulator_counters=True,
            stream=EventWriter(lane, lane="main", version="v"))
        run_grid(tasks, jobs=jobs, telemetry=telemetry)
        snapshot = telemetry.snapshot()
        telemetry.close()

        records = scan_stream(lane).records
        folded = [r for r in records
                  if r.kind == "counter" and "deltas" in r.attrs]
        assert len(folded) == len(tasks)
        # Per cell: queue (pool only) and run spans, one task.seconds
        # observation, the folded tally, progress and (pool only) the
        # queue-depth gauge.
        per_cell = 8 if jobs > 1 else 5
        assert len(records) <= per_cell * len(tasks) + 12
        # The roll-up equals the registry, counter for counter.
        counters = {name: fields["value"]
                    for name, fields in snapshot.items()
                    if fields["type"] == "counter"}
        assert fleet_snapshot(run_dir).counters == counters
        assert counters["sim.instructions"] \
            == sum(len(task.trace) for task in tasks)

    def test_prometheus_export_reads_folded_records(self, tmp_path, tasks,
                                                    capsys):
        run_dir = tmp_path / "run"
        telemetry = Telemetry.armed(
            simulator_counters=True,
            stream=EventWriter(run_dir / "stream" / "main.events.jsonl",
                               lane="main", version="v"))
        run_grid(tasks, telemetry=telemetry)
        cycles = telemetry.snapshot()["sim.cycles"]["value"]
        telemetry.close()
        capsys.readouterr()
        assert main(["obs", "export", str(run_dir),
                     "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert f"repro_tasks_completed_total {len(tasks)}" in out
        assert f"repro_sim_cycles_total {cycles}" in out

