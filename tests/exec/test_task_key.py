"""Canonicalization of cache-key payloads (repro.exec.cache).

The content hash behind the result cache and the resume journal must
be a pure function of configuration *content*: representation
accidents (dict insertion order, ``-0.0`` vs ``0.0``, tuple vs list)
must not fork the key space, and values with no canonical form (NaN,
infinities, non-string mapping keys) must be rejected loudly rather
than hashed into silent cache aliasing.
"""

import math

import pytest

from repro.exec import canonical_blob, canonicalize


class TestMappingOrder:
    def test_insertion_order_does_not_change_blob(self):
        forward = {"rob": 32, "lsq": 16, "alus": 4}
        backward = {}
        for key in reversed(list(forward)):
            backward[key] = forward[key]
        assert list(forward) != list(backward)
        assert canonical_blob(forward) == canonical_blob(backward)

    def test_nested_mapping_order(self):
        a = {"config": {"x": 1, "y": 2}, "trace": "gzip"}
        b = {"trace": "gzip", "config": {"y": 2, "x": 1}}
        assert canonical_blob(a) == canonical_blob(b)

    def test_non_string_keys_rejected(self):
        with pytest.raises(ValueError, match="string keys"):
            canonicalize({1: "x"})

    def test_key_order_is_sorted(self):
        assert list(canonicalize({"b": 1, "a": 2})) == ["a", "b"]


class TestFloatCanonicalization:
    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonicalize({"latency": float("nan")})

    def test_infinities_rejected(self):
        for bad in (float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite"):
                canonicalize([bad])

    def test_negative_zero_normalized(self):
        assert canonical_blob({"x": -0.0}) == canonical_blob({"x": 0.0})
        value = canonicalize(-0.0)
        assert value == 0.0 and not math.copysign(1.0, value) < 0

    def test_ordinary_floats_unchanged(self):
        assert canonicalize(1.5) == 1.5
        assert canonicalize(-2.25) == -2.25


class TestContainers:
    def test_sets_become_sorted_lists(self):
        assert canonicalize({3, 1, 2}) == [1, 2, 3]
        assert canonicalize(frozenset({"b", "a"})) == ["a", "b"]

    def test_tuples_and_lists_converge(self):
        assert canonical_blob((1, 2, 3)) == canonical_blob([1, 2, 3])

    def test_bools_are_not_floats(self):
        # bool is an int subclass; it must survive untouched rather
        # than normalize through the float path.
        assert canonicalize(True) is True

    def test_fallback_stringifies_exotic_scalars(self):
        class Tag:
            def __str__(self):
                return "tag"

        assert canonicalize(Tag()) == "tag"

    def test_blob_is_compact_stable_json(self):
        blob = canonical_blob({"b": [2.0, {"z": 1}], "a": None})
        assert blob == b'{"a":null,"b":[2.0,{"z":1}]}'


class TestTaskKeyIntegration:
    def test_key_stable_across_payload_representation(self):
        """task_key level: two tasks whose configs differ only in
        field *ordering* of the underlying dict hash identically
        (dataclasses fix the order; this guards the hashing layer
        against regressions if the payload is ever built by hand)."""
        from repro.cpu import MachineConfig
        from repro.exec import SimTask, task_key
        from repro.workloads import benchmark_trace

        trace = benchmark_trace("gzip", 600)
        a = SimTask(config=MachineConfig(), trace=trace)
        b = SimTask(config=MachineConfig(), trace=trace)
        assert task_key(a) == task_key(b)

    def test_precompute_table_insertion_order_irrelevant(self):
        from repro.cpu import MachineConfig
        from repro.exec import SimTask, task_key
        from repro.workloads import benchmark_trace

        trace = benchmark_trace("gzip", 600)
        a = SimTask(config=MachineConfig(), trace=trace,
                    precompute_table=frozenset([3, 1, 2]))
        b = SimTask(config=MachineConfig(), trace=trace,
                    precompute_table=frozenset([2, 3, 1]))
        assert task_key(a) == task_key(b)


class TestCoreFamily:
    """Only the normalized core *family* enters a cache key: the
    equivalent batched variants share entries, while the reference
    oracle's measurements never mix with the cores it arbitrates."""

    def test_batched_variants_share_keys(self):
        from repro.cpu import MachineConfig
        from repro.exec import SimTask, task_key
        from repro.workloads import benchmark_trace

        trace = benchmark_trace("gzip", 600)
        keys = {
            task_key(SimTask(config=MachineConfig(), trace=trace,
                             core=core))
            for core in ("batched", "batched-native", "batched-python")
        }
        assert len(keys) == 1

    def test_reference_is_segregated(self):
        from repro.cpu import MachineConfig
        from repro.exec import SimTask, task_key
        from repro.workloads import benchmark_trace

        trace = benchmark_trace("gzip", 600)
        batched = task_key(SimTask(config=MachineConfig(),
                                   trace=trace, core="batched"))
        reference = task_key(SimTask(config=MachineConfig(),
                                     trace=trace, core="reference"))
        assert batched != reference

    def test_family_normalization(self):
        from repro.exec import core_family

        assert core_family("reference") == "reference"
        for core in ("batched", "batched-native", "batched-python"):
            assert core_family(core) == "batched"


class TestKeyBytes:
    """``task_key`` memoizes each configuration's canonical fields; the
    keys must stay exactly those of the unmemoized payload, which
    every existing cache entry and journal line is filed under."""

    @staticmethod
    def unmemoized_key(task):
        import dataclasses
        import hashlib

        from repro.cpu import SIMULATOR_VERSION
        from repro.exec import core_family

        payload = {
            "version": SIMULATOR_VERSION,
            "config": dataclasses.asdict(task.config),
            "trace": task.trace.fingerprint(),
            "precompute_table": (
                sorted(task.precompute_table)
                if task.precompute_table is not None else None
            ),
            "prefetch_lines": task.prefetch_lines,
            "warmup": task.warmup,
            "core": core_family(task.core),
        }
        return hashlib.sha256(canonical_blob(payload)).hexdigest()

    def test_foldover_grid_keys_unchanged(self):
        from repro.core import PBExperiment
        from repro.exec import grid_tasks, task_key
        from repro.workloads import benchmark_suite

        traces = benchmark_suite(length=300)
        configs = PBExperiment(traces).configs()
        tasks = grid_tasks(configs, traces)
        assert len(tasks) == 88 * 13
        keys = [task_key(task) for task in tasks]
        assert keys == [self.unmemoized_key(task) for task in tasks]
        # Memo hits (second pass) give the same bytes as misses.
        assert keys == [task_key(task) for task in tasks]
        assert len(set(keys)) == len(keys)

    def test_configs_differing_in_one_field(self):
        import dataclasses

        from repro.cpu import MachineConfig
        from repro.cpu.params import PARAMETER_SPACE
        from repro.exec import SimTask, task_key
        from repro.workloads import benchmark_trace

        trace = benchmark_trace("gzip", 300)
        base = MachineConfig()
        fields = {f.name for f in dataclasses.fields(MachineConfig)}
        base_key = task_key(SimTask(config=base, trace=trace))
        seen = {base_key}
        varied = 0
        for spec in PARAMETER_SPACE:
            if spec.field not in fields:
                continue
            value = spec.high if getattr(base, spec.field) != spec.high \
                else spec.low
            try:
                config = dataclasses.replace(base, **{spec.field: value})
            except ValueError:
                continue  # violates a cross-field constraint
            task = SimTask(config=config, trace=trace)
            key = task_key(task)
            assert key == self.unmemoized_key(task), spec.field
            assert key not in seen, spec.field
            seen.add(key)
            varied += 1
        assert varied >= 30
        # An equal configuration built anew keys identically.
        assert task_key(SimTask(config=MachineConfig(), trace=trace)) \
            == base_key

    def test_memo_holds_no_configuration_alive(self):
        import gc

        from repro.cpu import MachineConfig
        from repro.exec import SimTask, cache, task_key
        from repro.workloads import benchmark_trace

        config = MachineConfig().evolve(rob_entries=48)
        task_key(SimTask(config=config, trace=benchmark_trace("gzip", 300)))
        key = id(config)
        assert key in cache._fields_memo
        del config
        gc.collect()
        assert key not in cache._fields_memo

    def test_canonicalize_leaves_dataclasses_as_strings(self):
        from repro.cpu import MachineConfig

        config = MachineConfig()
        assert canonicalize(config) == str(config)
