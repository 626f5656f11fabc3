"""Tests for the statistical workload generator (repro.workloads.synthetic)."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.replication import replicated_suite
from repro.cpu import BranchKind, OpClass, native
from repro.workloads import SyntheticProgram, WorkloadProfile, generate_trace
from repro.workloads import synthetic
from repro.workloads.profiles import BENCHMARK_NAMES, default_length, profile
from repro.workloads.synthetic import _integers_below, _mix_cdf
from repro.workloads.trace import Trace

needs_native = pytest.mark.skipif(
    native._load() is None,
    reason="no C toolchain / native kernel build failed",
)

needs_build = pytest.mark.skipif(
    not hasattr(native._load(), "repro_build_program"),
    reason="kernel library built without numpy's sampler archive",
)

#: The twelve arrays of a program.
PROGRAM_ARRAYS = ("block_pc", "block_end_pc", "block_kind",
                  "block_dominant", "block_bias", "block_others",
                  "slot_start", "slot_op", "slot_mode", "slot_key",
                  "slot_stream_start", "hot_cursor")

#: The ten arrays of a trace, in constructor order.
TRACE_ARRAYS = ("pc", "op", "src1", "src2", "dst", "mem_addr",
                "branch_kind", "taken", "target", "redundancy_key")


def small_profile(**kw):
    defaults = dict(name="unit", seed=42, n_blocks=32, n_functions=4)
    defaults.update(kw)
    return WorkloadProfile(**defaults)


class TestProfileValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            small_profile(loop_fraction=1.5)
        with pytest.raises(ValueError):
            small_profile(stack_fraction=-0.1)

    def test_stack_plus_hot_bounded(self):
        with pytest.raises(ValueError):
            small_profile(stack_fraction=0.7, hot_fraction=0.5)

    def test_block_length_minimum(self):
        with pytest.raises(ValueError):
            small_profile(block_len_mean=1.0)

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            small_profile(ialu_weight=-0.5)

    def test_lookback_bounds(self):
        with pytest.raises(ValueError):
            small_profile(dep_lookback_p=0.0)

    @pytest.mark.parametrize("knobs", [
        dict(region_bytes=0),
        dict(function_blocks=0),
        dict(function_blocks=-1, n_functions=0),
        dict(loop_span=-1),
        dict(n_blocks=0),
        dict(n_functions=-1),
        dict(n_streams=-1),
        dict(n_arenas=-1),
        dict(max_call_depth=-1),
        dict(n_redundant_keys=-1),
        dict(data_footprint=-1),
        dict(stack_bytes=-1),
        dict(hot_bytes=-1),
        dict(stream_region=-1),
        dict(hot_bytes=1 << 63),
        dict(n_blocks=1 << 63),
        dict(block_len_mean=math.nan),
        dict(block_len_mean=math.inf),
        dict(ialu_weight=math.nan),
        dict(load_weight=math.inf),
        dict(bias_alpha=math.nan),
        dict(bias_alpha=math.inf),
        dict(bias_alpha=0.0),
        dict(bias_alpha=-1.0),
        dict(bias_beta=math.nan),
        dict(bias_beta=0.0),
        dict(bias_beta=-0.5),
        dict(loop_bias_cap=math.nan),
        dict(loop_bias_cap=1.5),
        dict(loop_bias_cap=-0.1),
        dict(redundancy_exponent=-1.0),
        dict(redundancy_exponent=math.nan),
        dict(redundancy_exponent=math.inf),
    ], ids=lambda knobs: ",".join(f"{k}={v}" for k, v in knobs.items()))
    def test_knobs_the_emitters_cannot_use(self, knobs):
        with pytest.raises(ValueError):
            small_profile(**knobs)

    def test_functionless_program_needs_no_function_blocks(self):
        small_profile(n_functions=0, function_blocks=0)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        p = small_profile()
        a = generate_trace(p, 2000)
        b = generate_trace(p, 2000)
        assert np.array_equal(a.pc, b.pc)
        assert np.array_equal(a.mem_addr, b.mem_addr)
        assert np.array_equal(a.taken, b.taken)

    def test_different_seed_differs(self):
        a = generate_trace(small_profile(seed=1), 2000)
        b = generate_trace(small_profile(seed=2), 2000)
        assert not np.array_equal(a.pc, b.pc)

    def test_seed_override(self):
        p = small_profile()
        a = generate_trace(p, 1000, seed=99)
        b = generate_trace(p, 1000, seed=99)
        c = generate_trace(p, 1000, seed=100)
        assert np.array_equal(a.mem_addr, b.mem_addr)
        assert not np.array_equal(a.mem_addr, c.mem_addr)


class TestTraceStructure:
    def test_exact_length(self):
        for n in (1, 17, 1000):
            assert len(generate_trace(small_profile(), n)) == n

    def test_trace_validates(self):
        generate_trace(small_profile(), 3000).validate()

    def test_mix_tracks_profile(self):
        p = small_profile(
            ialu_weight=0.2, falu_weight=0.4, load_weight=0.2,
            store_weight=0.1, imult_weight=0, idiv_weight=0,
        )
        mix = generate_trace(p, 8000).instruction_mix()
        assert mix["FALU"] > mix["IALU"]
        assert mix.get("LOAD", 0) > mix.get("STORE", 0)

    def test_branch_frequency_tracks_block_length(self):
        short = generate_trace(small_profile(block_len_mean=4.0), 6000)
        long = generate_trace(small_profile(block_len_mean=12.0), 6000)
        assert short.branch_count() > long.branch_count()

    def test_memory_ops_have_addresses(self):
        tr = generate_trace(small_profile(), 4000)
        mem = np.isin(tr.op, (int(OpClass.LOAD), int(OpClass.STORE)))
        assert (tr.mem_addr[mem] >= 0).all()

    def test_calls_and_returns_nest(self):
        """Returns always target the instruction after their call."""
        p = small_profile(call_fraction=0.2, n_functions=6,
                          max_call_depth=4)
        tr = generate_trace(p, 8000)
        stack = []
        ok = True
        for i in range(len(tr)):
            kind = int(tr.branch_kind[i])
            if kind == int(BranchKind.CALL) and tr.taken[i]:
                stack.append(int(tr.pc[i]) + 4)
            elif kind == int(BranchKind.RETURN) and stack:
                ok &= int(tr.target[i]) == stack.pop()
        assert ok

    def test_call_depth_bounded(self):
        p = small_profile(call_fraction=0.3, nested_call_fraction=0.5,
                          max_call_depth=3)
        tr = generate_trace(p, 8000)
        depth = max_depth = 0
        for i in range(len(tr)):
            kind = int(tr.branch_kind[i])
            if kind == int(BranchKind.CALL) and tr.taken[i]:
                depth += 1
                max_depth = max(max_depth, depth)
            elif kind == int(BranchKind.RETURN) and depth:
                depth -= 1
        assert max_depth <= 3


class TestDataModel:
    def test_footprint_respected(self):
        p = small_profile(data_footprint=1 << 16)
        tr = generate_trace(p, 8000)
        from repro.workloads.synthetic import _DATA_BASE

        cold = tr.mem_addr[(tr.mem_addr >= _DATA_BASE)
                           & (tr.mem_addr < _DATA_BASE + (1 << 28))]
        if len(cold):
            assert (cold < _DATA_BASE + (1 << 16)).all()

    def test_stack_region_small(self):
        from repro.workloads.synthetic import _STACK_BASE

        p = small_profile(stack_fraction=0.9, hot_fraction=0.0,
                          stack_bytes=2048)
        tr = generate_trace(p, 6000)
        stack = tr.mem_addr[tr.mem_addr >= _STACK_BASE]
        assert len(stack) > 0
        assert (stack < _STACK_BASE + 2048).all()

    def test_larger_footprint_touches_more_pages(self):
        small = generate_trace(
            small_profile(data_footprint=1 << 18, n_arenas=8,
                          stack_fraction=0.2, hot_fraction=0.1,
                          reuse_exponent=1.0), 20000)
        large = generate_trace(
            small_profile(data_footprint=1 << 24, n_arenas=8,
                          stack_fraction=0.2, hot_fraction=0.1,
                          reuse_exponent=1.0), 20000)

        def pages(tr):
            addrs = tr.mem_addr[tr.mem_addr >= 0]
            return len(np.unique(addrs // 4096))

        assert pages(large) > pages(small)

    def test_pointer_loads_self_dependent(self):
        from repro.workloads.synthetic import _POINTER_REG

        p = small_profile(pointer_fraction=0.5, streaming_fraction=0.0)
        tr = generate_trace(p, 6000)
        loads = tr.op == int(OpClass.LOAD)
        pointer_loads = loads & (tr.src1 == _POINTER_REG)
        assert pointer_loads.sum() > 0
        assert (tr.dst[pointer_loads] == _POINTER_REG).all()


class TestStaticStructure:
    def test_program_reusable_for_multiple_lengths(self):
        program = SyntheticProgram(small_profile())
        a = program.emit(1000)
        b = program.emit(2000)
        assert len(a) == 1000 and len(b) == 2000

    def test_code_footprint_scales_with_blocks(self):
        small = SyntheticProgram(small_profile(n_blocks=16))
        large = SyntheticProgram(small_profile(n_blocks=256))
        assert large.code_bytes > small.code_bytes

    def test_redundancy_keys_bounded(self):
        p = small_profile(redundancy_fraction=0.5, n_redundant_keys=100)
        tr = generate_trace(p, 5000)
        keys = tr.redundancy_key[tr.redundancy_key >= 0]
        assert len(keys) > 0
        assert (keys < 100).all()


@given(st.integers(1, 3000), st.integers(0, 2 ** 16))
@settings(max_examples=15, deadline=None)
def test_generator_always_produces_valid_traces(length, seed):
    """Any (length, seed) yields a structurally valid trace."""
    p = WorkloadProfile(name="prop", seed=seed or 1, n_blocks=24,
                        n_functions=3)
    tr = generate_trace(p, length)
    assert len(tr) == length
    tr.validate()


#: sha-256 ``Trace.fingerprint()`` of every golden case, recorded from
#: the per-object generator that preceded the flat arrays and synth.c.
GOLDEN = {
    "gcc/len1":
        "91fa61cfc0617276ce72af04b7a96e1af5aa2080c61600c86b207ef7c0d444f4",
    "gcc/len17":
        "9ed82a387b364a73610644ceed68633def6601fa02e444156a69b9f521dd60f8",
    "gcc/len200000":
        "4a5fe973acea2531badcd05f4be5759067e3e19f455b4177023269dd9214f6c8",
    "gzip/emit1":
        "bc4eedaaaf9a660f43f3e6bac57b14705f1be0a67255f7301a32a5c2d4219b8c",
    "gzip/emit2":
        "1d6b4dbba8b914932ece156c1192070f7296361b942582b38babc302c74faa56",
    "replicated/gzip#0":
        "485bc43315bc994c942f67a0048cb1b00c2d9d778ef0613c8d397d655847d6d9",
    "replicated/gzip#1":
        "3f3dce390c53600a51555a42307de79a14dae0faf75ed630750e2696ba5c08e7",
    "replicated/gzip#2":
        "5317bc0f47058094fa89a5381a89e788e660a76df243bd54578668846928d968",
    "replicated/mcf#0":
        "74f6ddf2cee704ef96468380bc6b4bb22fd9ebebe4da6a9aa7d421ffef5c2464",
    "replicated/mcf#1":
        "5d5e8f766d551592df61572cb55dc53ff9183de11fb52d86b344a52dedd224dc",
    "replicated/mcf#2":
        "2f81d26441f3f48d1af2a48843db7ca18d321231f2b05f71baa97aabd4edd189",
    "seed+0/ammp":
        "6da95bf7656457bb9437e4de81c62b0fdff406fa5a9b174fbbb590edce499a2a",
    "seed+0/art":
        "5f5e5345561b9cbbbb9f155421c4b4bb53ffef7607b5142a6dc9e8033531d5de",
    "seed+0/bzip2":
        "0b8e45a8247c372ba4d4895c361a396fd0a0331dd8e38a7a9c734dfc95c0b964",
    "seed+0/equake":
        "9a105cb111cf12a32189215c5c15a9c978ef354689d8378764ae1d2e3d050cb3",
    "seed+0/gcc":
        "e66d1e6704dd4784eb58810fff9f8d19161e57cd8a47a7b2201701e4721ec7b8",
    "seed+0/gzip":
        "a753f3269a19ccd44deae66d85861d2331b00b9c4b6bb8ca108b27e5d0219dd3",
    "seed+0/mcf":
        "d18a14d0fff5b6d5edf76d20607b57b615794a8f64d5e8ade7ce0e48f2c3b977",
    "seed+0/mesa":
        "23034976ab19c5c5eff4682a9cc937211654a5cd2e0f4fbea570495676f32a6d",
    "seed+0/parser":
        "1f851bc655bffafd7b6980e82b210236cd48fe156c0828fbb70d965d8a27f596",
    "seed+0/twolf":
        "3fc4fc21f23c36302e538cc8f73ccb929373194327a64f491c4c6be6809d7f0e",
    "seed+0/vortex":
        "f5fab30f35c91c3747aca8cd8d6db600e3bca4f7621f3cd4d05274bc1a338fcb",
    "seed+0/vpr-Place":
        "8ecd776f96e4640d781f5c407c867436b7f5bdb125f120cbdbd042f916d63dab",
    "seed+0/vpr-Route":
        "78666d0a5d32af8c21424cfe8f8dff43f9b49f6400645037bc4001708e917928",
    "seed+29/ammp":
        "01863bd3f906b094e42092dbcf19e50b974a4a20a3bdb24dfc3c06c1fedcaee6",
    "seed+29/art":
        "7f65d84d1e578cf45f0be84258ee42a3ec54c6ba9e8566adbf892800d1f41ef7",
    "seed+29/bzip2":
        "0e6c1c166593586190fb7fa26119144f8cef3e6760f83db0ae0b976227ddeda0",
    "seed+29/equake":
        "e13f52b1621965ad2eceba218994e9c5c312631825813fca6248d78d73794cd9",
    "seed+29/gcc":
        "87793c14422311574e3652f17d9b49b94b8265606b40eea427fbf290cc3646aa",
    "seed+29/gzip":
        "0da08aa99d72ba79f901c7a8ee6441a90c061e0a3346d1a9ab98c7cae90c99f8",
    "seed+29/mcf":
        "d76a1e74cd43b9817478956adaf4f98f7daf5a59a3d1c7be7648e72c1e1c7340",
    "seed+29/mesa":
        "575bfc704ec6dd3909c9ef27f2543c46f47275df431a5a37e3039167ebe4430f",
    "seed+29/parser":
        "3ec755f7fb4f4e9f0fa9181bd172e5cfd6ba7853bedf9a36100d6b41fccf43b7",
    "seed+29/twolf":
        "55eb19e212133e3202d66df5b24bf8f21172e764e09f36cef3be1d5095311a63",
    "seed+29/vortex":
        "67d039963d5f28f7733bb9fb85ec124658df00bac9fea56a174fc71c8f7a3c73",
    "seed+29/vpr-Place":
        "6b162885db300caa834a45fc1b50af01bf102ee9565f2249447ad478611c5bea",
    "seed+29/vpr-Route":
        "19871303445c91eb8ef8b4851953d515b46052dfd1c7544141c4151ba014f669",
    "seed+801/ammp":
        "57b31737ce4764a061957b2bf683505e84222d2a10be44e6e58bf33790bf7e3b",
    "seed+801/art":
        "5570a8722eaf5b778b7c52348abfb6149a532a0c9ce34d7d8634233fdf8232a6",
    "seed+801/bzip2":
        "46ab6cd84c7fca771a367720a90057026e174a90fb3e7c0fa8a53fd110c7f998",
    "seed+801/equake":
        "5c8ff99828e4e2bfb4342b6cd7b0254666de2f536c09219678104b62e0255d0e",
    "seed+801/gcc":
        "7abe647824df7f27be28f105e9e6fccc8d2aa250c60f9e878ca0ceab9a5a2ee1",
    "seed+801/gzip":
        "3f56249bf62002d33c35aca28e533ad6b519cc49e710eb477a2c9a4075827f9d",
    "seed+801/mcf":
        "64c5dd379329255e8f5a3c17a08696a49a2a71db35b49d7e49ee20e36ddfc843",
    "seed+801/mesa":
        "78df22cf8bd61781f81fc57f9fd2ea4ccdbff5e4d453898afcc8e667762321a6",
    "seed+801/parser":
        "e4276aaad277d8ebd42d612a21edee6140cef3d22037cf4e2fe8ea7adb46ba53",
    "seed+801/twolf":
        "e9175999b1519347c4472760c62f862699495f33661962aeea1b328414d3cd05",
    "seed+801/vortex":
        "1880a08474c007d32006313dd1854650f803e7fcae87bf06711db0f97e44bc2a",
    "seed+801/vpr-Place":
        "d93e7eabc51f55e3749f24318532d65b6d2aa1f374f1b16ceafe9e72f0c52e08",
    "seed+801/vpr-Route":
        "5226f14dd721118039bb63e67932475832029bd455c82ee9e0f4a28204f1f784",
}


PATHS = [pytest.param("native", marks=needs_native),
         pytest.param("python-build", marks=needs_native), "python"]


@pytest.fixture
def path(request, monkeypatch):
    """Build and emit in synth.c; build in Python and emit in synth.c;
    or, with the kernel switched off as ``REPRO_NATIVE=0`` does, build
    and emit in Python."""
    if request.param == "python-build":
        monkeypatch.setattr(native, "build_program", lambda **_: False)
    if request.param == "python":
        monkeypatch.setattr(native, "_lib", False)
    return request.param


@pytest.mark.parametrize("path", PATHS, indirect=True)
class TestGoldenBytes:
    """Synthesis is pinned byte for byte: every task key and cached
    result depends on these traces."""

    @pytest.mark.parametrize("offset", [0, 29, 801])
    def test_suite_at_scale_5(self, path, offset):
        for name in BENCHMARK_NAMES:
            base = profile(name)
            program = SyntheticProgram(
                dataclasses.replace(base, seed=base.seed + offset))
            trace = program.emit(default_length(name), name=name)
            assert trace.fingerprint() == GOLDEN[f"seed+{offset}/{name}"]

    @pytest.mark.parametrize("length", [1, 17, 200_000])
    def test_gcc_lengths(self, path, length):
        trace = SyntheticProgram(profile("gcc")).emit(length, name="gcc")
        assert trace.fingerprint() == GOLDEN[f"gcc/len{length}"]

    def test_second_emit_continues_hot_cursors(self, path):
        program = SyntheticProgram(profile("gzip"))
        first = program.emit(5000, name="gzip")
        second = program.emit(5000, name="gzip")
        assert first.fingerprint() == GOLDEN["gzip/emit1"]
        assert second.fingerprint() == GOLDEN["gzip/emit2"]
        # Only hot-heap addresses move; everything else repeats.
        assert not np.array_equal(first.mem_addr, second.mem_addr)
        for field in TRACE_ARRAYS:
            if field != "mem_addr":
                assert np.array_equal(getattr(first, field),
                                      getattr(second, field))

    def test_replicated_suite(self, path):
        suite = replicated_suite(("gzip", "mcf"), 3000, 3)
        for name, traces in suite.items():
            for r, trace in enumerate(traces):
                assert trace.fingerprint() == GOLDEN[f"replicated/{name}#{r}"]


def _python_program(profile: WorkloadProfile) -> SyntheticProgram:
    with mock.patch.object(native, "_lib", False):
        return SyntheticProgram(profile)


def _assert_same_program(program, oracle):
    for field in PROGRAM_ARRAYS:
        x, y = getattr(program, field), getattr(oracle, field)
        assert x.dtype == y.dtype and np.array_equal(x, y), field
    assert program.code_bytes == oracle.code_bytes
    assert program.n_main == oracle.n_main


@needs_build
@given(seed=st.integers(1, 2 ** 32), knobs=st.fixed_dictionaries(dict(
    n_blocks=st.integers(1, 60),
    n_functions=st.integers(0, 6),
    function_blocks=st.integers(1, 4),
    block_len_mean=st.floats(2.0, 16.0),
    loop_fraction=st.sampled_from([0.0, 0.35, 1.0]),
    loop_span=st.integers(0, 12),
    loop_bias_cap=st.sampled_from([0.0, 0.5, 0.75, 1.0]),
    bias_alpha=st.sampled_from([0.3, 1.0, 2.5, 8.0]),
    bias_beta=st.sampled_from([0.5, 1.0, 3.0]),
    call_fraction=st.sampled_from([0.0, 0.04, 0.5, 1.0]),
    nested_call_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    hot_bytes=st.sampled_from([0, 7, 8, 96, 32 * 1024, 8 << 32, 8 << 40]),
    streaming_fraction=st.sampled_from([0.0, 0.1, 1.0]),
    pointer_fraction=st.sampled_from([0.0, 0.05, 1.0]),
    redundancy_fraction=st.sampled_from([0.0, 0.25, 1.0]),
    n_redundant_keys=st.sampled_from([0, 1, 2048]),
    redundancy_exponent=st.sampled_from([0.0, 0.5, 2.0, 7.0]),
    ialu_weight=st.sampled_from([0.0, 0.5]),
    falu_weight=st.sampled_from([0.0, 0.3]),
    idiv_weight=st.sampled_from([0.0, 0.002]),
    load_weight=st.sampled_from([0.0, 0.25]),
    store_weight=st.sampled_from([0.01, 0.1]),
)))
@settings(max_examples=40, deadline=None)
@example(seed=3, knobs=dict(block_len_mean=14.5))       # PTRS Poisson
@example(seed=5, knobs=dict(block_len_mean=2.0))        # empty bodies
@example(seed=7, knobs=dict(bias_alpha=0.5, bias_beta=0.8))   # Johnk beta
@example(seed=11, knobs=dict(hot_bytes=8 << 32))        # whole 32-bit word
@example(seed=13, knobs=dict(hot_bytes=(8 << 32) + 8))  # 64-bit draws
@example(seed=17, knobs=dict(hot_bytes=7))              # bound 1: no draw
@example(seed=19, knobs=dict(n_functions=0, function_blocks=1, loop_span=0,
                             call_fraction=1.0, loop_fraction=1.0))
@example(seed=23, knobs=dict(n_redundant_keys=0, redundancy_fraction=1.0))
@example(seed=29, knobs=dict(n_redundant_keys=(1 << 63) - 1,
                             redundancy_exponent=0.0,
                             redundancy_fraction=1.0))  # keys past 2**63
def test_native_build_matches_python_builder(seed, knobs):
    """Both builders draw the same program, all twelve arrays and the
    code size, over the knob space and numpy's sampler branches the
    thirteen profiles never reach."""
    p = small_profile(name="parity", seed=seed, **knobs)
    _assert_same_program(SyntheticProgram(p), _python_program(p))


@needs_build
def test_native_build_reruns_a_program_that_overflows(monkeypatch):
    """A program with more slots than the arrays hold is reported, never
    written past, and built again with room for it, whether it
    overflows in the main program or in a function."""
    p = small_profile(n_blocks=2, n_functions=6, function_blocks=4)
    oracle = _python_program(p)
    calls = []

    def build_program(**fields):
        slots = real(**fields)
        calls.append((fields["slot_capacity"], slots))
        return slots

    real = native.build_program
    monkeypatch.setattr(native, "build_program", build_program)
    monkeypatch.setattr(synthetic, "_slot_capacity", lambda *_: 1)
    _assert_same_program(SyntheticProgram(p), oracle)
    total, main = int(oracle.slot_start[-1]), int(oracle.slot_start[2])
    assert calls[-1] == (calls[-1][0], total) and calls[-1][0] >= total
    assert all(capacity < slots <= total for capacity, slots in calls[:-1])
    # Overflows reported inside the main program and inside a function.
    assert {slots <= main for _, slots in calls[:-1]} == {True, False}


@needs_native
@given(
    length=st.integers(1, 2500),
    seed=st.integers(1, 2 ** 20),
    n_blocks=st.integers(1, 40),
    n_functions=st.integers(0, 6),
    function_blocks=st.integers(1, 4),
    max_call_depth=st.integers(0, 4),
    call_fraction=st.sampled_from([0.0, 0.1, 0.5]),
    nested_call_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    loop_span=st.integers(0, 8),
    fractions=st.sampled_from([
        (0.0, 0.0), (0.45, 0.30), (0.0, 1.0), (1.0, 0.0), (0.7, 0.3),
        (0.1, 0.2), (0.0, 0.5),
    ]),
    streaming_fraction=st.sampled_from([0.0, 0.1, 1.0]),
    pointer_fraction=st.sampled_from([0.0, 0.05, 0.5]),
    n_streams=st.integers(0, 5),
    n_arenas=st.integers(0, 6),
    hot_bytes=st.sampled_from([0, 8, 96, 4096]),
    region_bytes=st.sampled_from([1, 64, 4096]),
    data_footprint=st.sampled_from([0, 4096, 1 << 16]),
    reuse_exponent=st.sampled_from([0.5, 1.0, 2.1, 4.0]),
)
@settings(max_examples=40, deadline=None)
@example(length=1, seed=7, n_blocks=8, n_functions=3, function_blocks=2,
         max_call_depth=2, call_fraction=0.3, nested_call_fraction=0.3,
         loop_span=4, fractions=(0.45, 0.30), streaming_fraction=0.1,
         pointer_fraction=0.05, n_streams=2, n_arenas=4, hot_bytes=4096,
         region_bytes=4096, data_footprint=1 << 16, reuse_exponent=2.1)
@example(length=3000, seed=11, n_blocks=16, n_functions=0,
         function_blocks=1, max_call_depth=0, call_fraction=0.5,
         nested_call_fraction=0.0, loop_span=3, fractions=(0.0, 1.0),
         streaming_fraction=1.0, pointer_fraction=0.5, n_streams=0,
         n_arenas=0, hot_bytes=96, region_bytes=64, data_footprint=4096,
         reuse_exponent=4.0)
@example(length=3000, seed=13, n_blocks=24, n_functions=4,
         function_blocks=3, max_call_depth=4, call_fraction=0.5,
         nested_call_fraction=1.0, loop_span=0, fractions=(0.7, 0.3),
         streaming_fraction=0.0, pointer_fraction=0.5, n_streams=3,
         n_arenas=2, hot_bytes=8, region_bytes=1, data_footprint=0,
         reuse_exponent=0.5)
@example(length=3000, seed=17, n_blocks=12, n_functions=2,
         function_blocks=2, max_call_depth=1, call_fraction=0.1,
         nested_call_fraction=0.3, loop_span=8, fractions=(0.0, 0.0),
         streaming_fraction=0.0, pointer_fraction=0.05, n_streams=1,
         n_arenas=6, hot_bytes=0, region_bytes=64, data_footprint=1 << 16,
         reuse_exponent=1.0)
def test_native_synthesis_matches_python_loop(
        length, seed, fractions, **knobs):
    """Both emitters fill the same ten arrays and leave the same
    hot-heap cursors, emit after emit on one program, over the knob
    space, corners included: no functions, no call depth, no stack or
    no cold tier, all streaming, pointer chasing, no streams and
    one-instruction traces.
    """
    stack_fraction, hot_fraction = fractions
    p = WorkloadProfile(name="parity", seed=seed,
                        stack_fraction=stack_fraction,
                        hot_fraction=hot_fraction, **knobs)
    fast, oracle = SyntheticProgram(p), SyntheticProgram(p)
    for _ in range(2):
        a = fast.emit(length)
        with mock.patch.object(native, "_lib", False):
            b = oracle.emit(length)
        for field in TRACE_ARRAYS:
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and np.array_equal(x, y), field
        assert np.array_equal(fast.hot_cursor, oracle.hot_cursor)


@needs_native
def test_return_without_a_caller_restarts_the_program():
    """A return with no frame to pop goes back to block 0.  Generated
    programs only return from called functions, so this edits one."""
    p = small_profile(call_fraction=0.0)
    programs = SyntheticProgram(p), SyntheticProgram(p)
    for program in programs:
        program.block_kind[3] = int(BranchKind.RETURN)
    trace = programs[0].emit(2000)
    with mock.patch.object(native, "_lib", False):
        oracle = programs[1].emit(2000)
    for field in TRACE_ARRAYS:
        assert np.array_equal(getattr(trace, field), getattr(oracle, field))
    returns = trace.branch_kind == int(BranchKind.RETURN)
    assert returns.any()
    assert (trace.target[returns] == programs[0].block_pc[0]).all()


@needs_native
def test_rounding_below_the_cold_tier_picks_walkers_like_python():
    """Stack + hot fractions a few ulps short of 1 leave a cold tier
    whose draws can map to a negative ``v``; Python's floor ``%`` still
    picks a valid walker, and so must synth.c."""
    p = small_profile(stack_fraction=0.3, hot_fraction=0.6999999999999998,
                      streaming_fraction=0.0, n_arenas=5, n_functions=0)
    n = 400
    draws = np.full(2 * n + 16, 0.9999999999999998)
    assert int((draws[0] - 0.3 - p.hot_fraction)
               / (1.0 - 0.3 - p.hot_fraction) * 7919.0) < 0
    traces = []
    for emit in ("_emit_native", "_emit_python"):
        trace = Trace(np.zeros(n, np.int64), np.zeros(n, np.uint8),
                      *(np.full(n, -1, np.int16) for _ in range(3)),
                      np.full(n, -1, np.int64), np.zeros(n, np.uint8),
                      np.zeros(n, np.bool_), np.full(n, -1, np.int64),
                      np.full(n, -1, np.int64))
        getattr(SyntheticProgram(p), emit)(
            trace, np.full(2 * n + 16, 0.5), np.ones(2 * n + 16, np.int64),
            draws, [0])
        traces.append(trace)
    for field in TRACE_ARRAYS:
        assert np.array_equal(getattr(traces[0], field),
                              getattr(traces[1], field)), field


@needs_native
class TestNativeEntryChecks:
    """synth.c gets only arrays it can index within bounds."""

    def _emit(self, program, length=100, pool=None):
        trace = program.emit(length)
        pool = 2 * length + 16 if pool is None else pool
        return program._emit_native(trace, np.zeros(pool),
                                    np.ones(pool, np.int64), np.zeros(pool),
                                    [0])

    def test_accepts_what_emit_allocates(self):
        assert self._emit(SyntheticProgram(small_profile()))

    def test_wrong_dtype(self):
        program = SyntheticProgram(small_profile())
        program.block_bias = program.block_bias.astype(np.float32)
        with pytest.raises(TypeError, match="block_bias"):
            self._emit(program)

    def test_too_few_draws(self):
        with pytest.raises(ValueError, match="uniforms"):
            self._emit(SyntheticProgram(small_profile()), pool=100)

    def test_successor_outside_the_program(self):
        program = SyntheticProgram(small_profile())
        program.block_dominant[0] = len(program.block_pc)
        with pytest.raises(ValueError, match="successor"):
            self._emit(program)


@needs_build
class TestBuildEntryChecks:
    """synth.c's build gets only arrays it can write within bounds and
    sampler parameters numpy's Python layer would accept."""

    @pytest.fixture
    def fields(self):
        """The arguments ``SyntheticProgram`` passes ``build_program``."""
        calls = []

        def build_program(**fields):
            calls.append(fields)
            return False

        with mock.patch.object(native, "build_program", build_program):
            SyntheticProgram(small_profile())
        return calls[0]

    def test_accepts_what_the_builder_allocates(self, fields):
        slots = native.build_program(**fields)
        assert 0 < slots <= fields["slot_capacity"]

    def test_wrong_dtype(self, fields):
        fields["block_bias"] = fields["block_bias"].astype(np.float32)
        with pytest.raises(TypeError, match="block_bias"):
            native.build_program(**fields)

    def test_not_a_generator(self, fields):
        fields["bitgen"] = fields["bitgen"].bit_generator
        with pytest.raises(TypeError, match="Generator"):
            native.build_program(**fields)

    def test_capacity_past_the_slot_arrays(self, fields):
        fields["slot_capacity"] = fields["slot_op"].size + 1
        with pytest.raises(ValueError, match="slot_op"):
            native.build_program(**fields)

    @pytest.mark.parametrize("knob", ["bias_alpha", "bias_beta", "lam",
                                      "exponent"])
    def test_sampler_parameters_numpy_rejects(self, fields, knob):
        fields[knob] = -1.0
        with pytest.raises(ValueError, match="sampler"):
            native.build_program(**fields)


class TestInlinedDraws:
    """The build skips numpy's per-call overhead by doing what
    ``Generator.choice`` and ``Generator.integers`` do; if a numpy
    release changes either, these fail instead of traces drifting."""

    @pytest.mark.parametrize("seed", range(40))
    def test_cdf_search_is_generator_choice(self, seed):
        mix = np.random.default_rng(1000 + seed)
        weights = mix.random(9) * (mix.random(9) < 0.7)
        weights[mix.integers(9)] += 0.01           # never all zero
        p = small_profile(**dict(zip(
            ("ialu_weight", "imult_weight", "idiv_weight", "falu_weight",
             "fmult_weight", "fdiv_weight", "fsqrt_weight", "load_weight",
             "store_weight"), weights.tolist())))
        ops, cdf = _mix_cdf(p)
        probs = weights / weights.sum()
        ours, numpy = (np.random.default_rng(seed) for _ in range(2))
        for k in (1, 2, 5, 17, 300):
            expected = numpy.choice(ops, size=k, p=probs)
            got = ops[cdf.searchsorted(ours.random(k), side="right")]
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        assert ours.random() == numpy.random()

    @pytest.mark.parametrize("seed", range(20))
    def test_integers_below_is_generator_integers(self, seed):
        bounds = [1, 2, 3, 7, 12, 64, 1000, 4096, 65536, 2 ** 31 + 1,
                  2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5, 2 ** 40]
        ours, numpy = (np.random.default_rng(seed) for _ in range(2))
        integers = _integers_below(ours)
        pick = np.random.default_rng(seed + 99)
        for _ in range(400):
            bound = bounds[pick.integers(len(bounds))]
            assert integers(bound) == numpy.integers(0, bound)
            # Whole-word draws in between leave the spare half alone.
            if pick.random() < 0.3:
                assert ours.random() == numpy.random()
            if pick.random() < 0.1:
                assert ours.beta(8.0, 1.0) == numpy.beta(8.0, 1.0)
            if pick.random() < 0.1:
                low = int(pick.integers(0, 50))
                high = low + int(pick.integers(1, 30))
                assert [low + integers(high - low) for _ in range(4)] == \
                    numpy.integers(low, high, size=4).tolist()
        assert ours.random() == numpy.random()


class TestLibraryBuild:
    """The program build links numpy's sampler archive; without it the
    library still builds and emits, and either way the artifact name
    follows the archive's and the header's bytes."""

    @needs_build
    def test_library_without_samplers_still_emits(self, tmp_path,
                                                  monkeypatch):
        compiler = native._toolchain()
        full = native._recipe(compiler)[0]
        monkeypatch.setattr(native, "_samplers", lambda: None)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(native, "_lib", None)
        lib = native._load()
        assert lib is not None and not hasattr(lib, "repro_build_program")
        assert native._recipe(compiler)[0] != full
        assert [path.name for path in tmp_path.glob("*.so")] == \
            [native._recipe(compiler)[0]]
        assert native.build_program() is False
        emitted = []

        def synthesize(**fields):
            emitted.append(real(**fields))
            return emitted[-1]

        real = native.synthesize
        monkeypatch.setattr(native, "synthesize", synthesize)
        trace = SyntheticProgram(profile("gcc")).emit(17, name="gcc")
        assert emitted == [True]
        assert trace.fingerprint() == GOLDEN["gcc/len17"]

    def test_sampler_bytes_enter_the_artifact_name(self, tmp_path,
                                                   monkeypatch):
        header, archive = tmp_path / "bitgen.h", tmp_path / "libnpyrandom.a"
        header.write_bytes(b"typedef struct bitgen bitgen_t;\n")
        archive.write_bytes(b"!<arch>\n")
        monkeypatch.setattr(native, "_samplers", lambda: (header, archive))
        names = [native._recipe("cc")[0]]
        archive.write_bytes(b"!<arch>\n\n")
        names.append(native._recipe("cc")[0])
        header.write_bytes(b"typedef struct bitgen bitgen_t; \n")
        names.append(native._recipe("cc")[0])
        monkeypatch.setattr(native, "_samplers", lambda: None)
        names.append(native._recipe("cc")[0])
        assert len(set(names)) == 4
