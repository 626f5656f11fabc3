"""Tests for the batched structure-of-arrays core (repro.cpu.batched).

The contract under test is *field-exact equivalence* with the
interpreted reference model — same CoreStats, same watchdog behaviour,
same diagnostics — plus the static trace decode it runs on.
"""

import dataclasses
import random

import pytest

from repro.cpu import (
    Instruction,
    MachineConfig,
    OpClass,
    SimulationError,
    simulate,
)
from repro.cpu.equivalence import (
    LARGE_ROBS,
    ODD_GEOMETRIES,
    TINY_TLBS,
    _branch_loop,
    _negative_pc,
    _page_stride,
    compare_cores,
    differential_sweep,
    negative_pc_trace,
)
from repro.guard.errors import SimulationHang
from repro.workloads import benchmark_trace
from repro.workloads.trace import Trace


def _stats_dict(stats):
    return dataclasses.asdict(stats)


def _native_available() -> bool:
    from repro.cpu.native import _load

    return _load() is not None


needs_native = pytest.mark.skipif(
    not _native_available(),
    reason="no C toolchain / native kernel build failed",
)

CORES = [
    "batched-python",
    pytest.param("batched-native", marks=needs_native),
]


class TestEquivalence:
    @pytest.mark.parametrize("core", CORES)
    @pytest.mark.parametrize("bench", ["gzip", "mcf", "mesa"])
    def test_field_exact_on_golden_traces(self, bench, core):
        trace = benchmark_trace(bench, 2000)
        ref = simulate(MachineConfig(), trace, warmup=True,
                       core="reference")
        bat = simulate(MachineConfig(), trace, warmup=True, core=core)
        assert _stats_dict(ref) == _stats_dict(bat)

    @pytest.mark.parametrize("core", CORES)
    def test_differential_sweep_clean(self, core):
        """A small randomized sweep (config corners x trace corners)
        finds zero divergences; CI runs a bigger one."""
        assert differential_sweep(6, seed=1234, core=core) == []

    def test_unknown_core_rejected(self):
        trace = benchmark_trace("gzip", 200)
        with pytest.raises(ValueError, match="unknown simulator core"):
            simulate(MachineConfig(), trace, core="fast")


class TestDecode:
    def test_producers_are_causal_and_cached(self):
        trace = benchmark_trace("mcf", 1500)
        decoded = trace.decoded()
        assert decoded is trace.decoded()   # memoised
        trace.validate_decode()

    def test_register_producer_is_last_writer(self):
        instrs = [
            Instruction(pc=0x100, op=OpClass.IALU, dst=3),
            Instruction(pc=0x104, op=OpClass.IALU, dst=3),
            Instruction(pc=0x108, op=OpClass.IALU, src1=3, src2=3, dst=4),
            Instruction(pc=0x10C, op=OpClass.IALU, src1=4, src2=3),
        ]
        d = Trace.from_instructions(instrs).decoded()
        assert d.prod1[2] == 1 and d.prod2[2] == 1   # dup edges kept
        assert d.prod1[3] == 2 and d.prod2[3] == 1
        assert d.prod1[0] == -1

    def test_store_producer_is_latest_earlier_store(self):
        instrs = [
            Instruction(pc=0x100, op=OpClass.STORE, mem_addr=0x1000),
            Instruction(pc=0x104, op=OpClass.STORE, mem_addr=0x1000),
            Instruction(pc=0x108, op=OpClass.LOAD, mem_addr=0x1000, dst=1),
            Instruction(pc=0x10C, op=OpClass.LOAD, mem_addr=0x2000, dst=2),
        ]
        d = Trace.from_instructions(instrs).decoded()
        assert d.store_prod[2] == 1
        assert d.store_prod[3] == -1

    def test_decode_cache_dropped_on_pickle(self):
        import pickle

        trace = benchmark_trace("gzip", 300)
        trace.decoded()
        clone = pickle.loads(pickle.dumps(trace))
        assert clone._decoded is None
        assert clone.fingerprint() == trace.fingerprint()
        assert len(clone.decoded().prod1) == len(trace)


class TestWatchdogParity:
    """Both cores trip every watchdog at the same cycle with the same
    message and the same machine-state dump (ISSUE 6 satellite)."""

    def _hang(self, core, trace, config, **kwargs):
        with pytest.raises(SimulationHang) as err:
            simulate(config, trace, core=core, **kwargs)
        return str(err.value), err.value.dump

    @pytest.mark.parametrize("core", CORES)
    def test_hang_diagnostics_identical_cold_fetch(self, core):
        trace = benchmark_trace("gzip", 800)
        ref = self._hang("reference", trace, MachineConfig(),
                         hang_cycles=1)
        bat = self._hang(core, trace, MachineConfig(), hang_cycles=1)
        assert ref == bat

    @pytest.mark.parametrize("core", CORES)
    def test_hang_diagnostics_identical_with_populated_rob(self, core):
        instrs = [Instruction(pc=0x100 + 4 * i, op=OpClass.IDIV,
                              dst=1, src1=1) for i in range(12)]
        trace = Trace.from_instructions(instrs, name="divchain")
        config = MachineConfig(int_div_latency=40)
        ref = self._hang("reference", trace, config,
                         hang_cycles=20, warmup=True)
        bat = self._hang(core, trace, config,
                         hang_cycles=20, warmup=True)
        assert ref == bat
        assert ref[1]["rob_head"]["seq"] == 0
        assert ref[1]["rob_occupancy"] == 12

    @pytest.mark.parametrize("core", CORES)
    def test_cycle_budget_identical(self, core):
        trace = benchmark_trace("gzip", 800)
        messages = []
        for which in ("reference", core):
            with pytest.raises(SimulationError) as err:
                simulate(MachineConfig(), trace, core=which,
                         max_cycles=40)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("core", CORES)
    def test_instruction_budget_identical(self, core):
        trace = benchmark_trace("gzip", 800)
        messages = []
        for which in ("reference", core):
            with pytest.raises(SimulationError, match="budget") as err:
                simulate(MachineConfig(), trace, core=which,
                         max_instructions=100)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


#: Every odd-geometry corner at once (they are independent fields).
_ODD_GEOMETRY = {k: v for corner in ODD_GEOMETRIES for k, v in corner.items()}

CORNER_MACHINES = {
    "rob-65": MachineConfig().evolve(**LARGE_ROBS[0]),
    "rob-256-tournament": MachineConfig(
        branch_predictor="tournament", width=8, ifq_entries=32,
    ).evolve(**LARGE_ROBS[-1]),
    "odd-geometry": MachineConfig().evolve(**_ODD_GEOMETRY),
    "tiny-tlbs-bimodal-random": MachineConfig(
        branch_predictor="bimodal", replacement_policy="random",
    ).evolve(**TINY_TLBS),
}

CORNER_TRACES = {
    "page-stride": _page_stride,
    "negative-pcs": _negative_pc,
    "branch-loop": _branch_loop,
}


class TestKernelCorners:
    """Machines and traces the compiled kernel has separate code for:
    multi-word ready sets, division-indexed geometry, full TLB sets,
    negative program counters, a growing tournament table and seeded
    random replacement."""

    @pytest.mark.parametrize("core", CORES)
    def test_negative_pcs_golden(self, core):
        # Trace.validate() accepts negative PCs; the kernel used to
        # index a negative set with them and crash the process.
        trace = negative_pc_trace()
        trace.validate()
        ref = simulate(MachineConfig(), trace, warmup=True,
                       core="reference")
        assert ref.cycles == 1004
        got = simulate(MachineConfig(), trace, warmup=True, core=core)
        assert _stats_dict(got) == _stats_dict(ref)

    @needs_native
    @pytest.mark.parametrize("machine", sorted(CORNER_MACHINES))
    @pytest.mark.parametrize("trace_name", sorted(CORNER_TRACES))
    def test_field_exact_on_corner(self, machine, trace_name):
        trace = CORNER_TRACES[trace_name](random.Random(7))
        assert compare_cores(CORNER_MACHINES[machine], trace,
                             core="batched-native") == []


class TestKernelArguments:
    """The loader builds the kernel's inputs once per object and keeps
    the per-call work to the four per-call scalars."""

    def test_config_vector_memoised_until_config_dies(self):
        import gc

        from repro.cpu import native

        config = MachineConfig(rob_entries=48, lsq_entries=24)
        vector = native._config_vector(config)
        assert native._config_vector(config) is vector
        assert list(vector[:4]) == [4, 16, 48, 24]
        key = id(config)
        assert key in native._vector_memo
        del config
        gc.collect()
        assert key not in native._vector_memo

    def test_trace_pointers_built_once_per_decode(self):
        from repro.cpu import native

        trace = benchmark_trace("gzip", 300)
        address = native._trace_arrays(trace)
        assert native._trace_arrays(trace) == address
        assert trace.decoded().kernel_args[1].n == len(trace)

    def test_precompute_flags_are_uint8(self):
        from repro.cpu.native import _precompute_flags

        instrs = [
            Instruction(pc=0x100, op=OpClass.IALU, redundancy_key=7),
            Instruction(pc=0x104, op=OpClass.IALU, redundancy_key=8),
            Instruction(pc=0x108, op=OpClass.LOAD, mem_addr=0x40,
                        redundancy_key=7),
            Instruction(pc=0x10C, op=OpClass.IALU),
        ]
        trace = Trace.from_instructions(instrs)
        assert _precompute_flags(trace, None) is None
        flags = _precompute_flags(trace, {7})
        assert flags.dtype.name == "uint8"
        assert flags.tolist() == [1, 0, 0, 0]
        assert _precompute_flags(trace, set()).tolist() == [0, 0, 0, 0]
