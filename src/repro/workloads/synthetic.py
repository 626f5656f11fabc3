"""Statistical workload generation.

The paper runs MinneSPEC reduced inputs of 13 SPEC 2000 benchmarks.
Those binaries (and a SimpleScalar toolchain to run them) are not
reproducible here, so this module generates *synthetic dynamic traces*
whose statistical structure exercises the same machine mechanisms:

* **code model** — a static program of basic blocks with per-block
  instruction slots; control flow follows a per-block successor model
  (dominant successor with a persistent per-branch bias, loop back
  edges, calls into linear functions with bounded nesting).  Re-executed
  blocks re-execute the *same* static slots, so instruction mix,
  branch biases and I-cache locality behave like real code;
* **data model** — every static memory slot is bound to one of three
  access behaviours: *working-set* (power-law reuse over the data
  footprint: small caches miss, large ones hit), *streaming*
  (sequential, exercising block size and memory bandwidth), or
  *pointer-chasing* (loads feeding their own address register,
  serializing on memory latency);
* **dependence model** — source registers are drawn from recently
  written registers with a geometric lookback, setting the available ILP;
* **redundancy model** — a fraction of compute slots carry a persistent
  redundancy key drawn from a power-law pool, feeding the instruction
  precomputation enhancement.

A :class:`WorkloadProfile` fixes all of these knobs; thirteen profiles
tuned to the paper's benchmark fingerprints live in
:mod:`repro.workloads.profiles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cpu import native
from repro.cpu.isa import NO_REG, NO_VALUE, BranchKind, OpClass
from .trace import Trace

_POINTER_REG = 30              # dedicated pointer-chase register
_WORD = 8                      # bytes per data access
# Segment bases are staggered at *both* page granularities Table 8 uses
# (4 KB and 4 MB): aligned bases would land every segment in the same
# TLB set and ping-pong catastrophically under 2-way associativity.
_CODE_BASE = 0x0040_0000
_DATA_BASE = 0x1040_0000 + 0x35 * 4096
_HEAP_BASE = 0x2140_0000 + 0x61 * 4096
_STREAM_BASE = 0x4240_0000 + 0xD3 * 4096
_STACK_BASE = 0x7FFF_0000 + 0x1F * 4096


@dataclass(frozen=True)
class WorkloadProfile:
    """All the knobs of one synthetic benchmark.

    The defaults describe a bland integer program; the named SPEC-like
    profiles override nearly everything (see ``profiles.py``).
    """

    name: str
    seed: int = 1

    # Instruction mix (weights; normalized internally).  Branch
    # frequency is set by block length, loads/stores/computes by these.
    ialu_weight: float = 0.50
    imult_weight: float = 0.01
    idiv_weight: float = 0.002
    falu_weight: float = 0.0
    fmult_weight: float = 0.0
    fdiv_weight: float = 0.0
    fsqrt_weight: float = 0.0
    load_weight: float = 0.25
    store_weight: float = 0.10

    # Code model
    n_blocks: int = 256                # main-program basic blocks
    block_len_mean: float = 6.0        # instructions per block (incl. branch)
    loop_fraction: float = 0.35        # blocks whose dominant successor is a back edge
    loop_span: int = 12                # how far back edges reach (blocks)
    loop_bias_cap: float = 0.75        # max P(take a back edge): bounds loop trip counts
    bias_alpha: float = 8.0            # Beta() of dominant-successor probability:
    bias_beta: float = 1.0             #   high alpha/low beta = predictable branches
    call_fraction: float = 0.04        # blocks ending in a call
    n_functions: int = 12
    function_blocks: int = 3           # linear blocks per function
    nested_call_fraction: float = 0.2  # function blocks that call deeper
    max_call_depth: int = 4

    # Data model
    data_footprint: int = 1 << 20      # bytes of working-set data
    reuse_exponent: float = 4.0        # >1: power-law concentration of reuse
    stack_fraction: float = 0.45       # accesses hitting the tiny stack region
    stack_bytes: int = 2048            # stack/locals region size
    hot_fraction: float = 0.30         # accesses walking the hot heap region
    hot_bytes: int = 32 * 1024         # hot heap size (between the L1D levels)
    n_arenas: int = 36                 # concurrent cold-tier walkers (page pressure)
    n_streams: int = 4                 # concurrent sequential streams
    region_bytes: int = 4096           # cold-tier region (page) granularity
    streaming_fraction: float = 0.10   # memory slots that stream sequentially
    pointer_fraction: float = 0.05     # load slots that pointer-chase
    stream_region: int = 1 << 24       # bytes a stream walks before wrapping

    # Dependence / ILP model
    dep_lookback_p: float = 0.25       # geometric(p): small p = long lookback = high ILP

    # Redundancy model (instruction precomputation)
    redundancy_fraction: float = 0.25  # compute slots that are redundant
    n_redundant_keys: int = 2048       # size of the redundant-computation pool
    redundancy_exponent: float = 2.0   # power-law skew of key popularity

    def __post_init__(self):
        if not 2 <= self.block_len_mean < math.inf:
            raise ValueError("block_len_mean must be finite and leave "
                             "room for at least branch + 1 op")
        weights = self._weights()
        if not all(0 <= w < math.inf for w in weights.values()) \
                or sum(weights.values()) <= 0:
            raise ValueError("instruction-mix weights must be finite and "
                             "non-negative")
        for frac in (self.loop_fraction, self.call_fraction,
                     self.streaming_fraction, self.pointer_fraction,
                     self.redundancy_fraction, self.nested_call_fraction,
                     self.stack_fraction, self.hot_fraction):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("fractions must lie in [0, 1]")
        if self.stack_fraction + self.hot_fraction > 1.0:
            raise ValueError("stack + hot fractions exceed 1")
        if not 0.0 < self.dep_lookback_p <= 1.0:
            raise ValueError("dep_lookback_p must lie in (0, 1]")
        # The build's samplers: numpy checks these only in Python, so the
        # C build must never see them, and min(beta, nan) would differ.
        if not (0 < self.bias_alpha < math.inf
                and 0 < self.bias_beta < math.inf):
            raise ValueError("bias_alpha and bias_beta must be finite and "
                             "positive")
        if not 0.0 <= self.loop_bias_cap <= 1.0:
            raise ValueError("loop_bias_cap must lie in [0, 1]")
        if not 0 <= self.redundancy_exponent < math.inf:
            raise ValueError("redundancy_exponent must be finite and "
                             "non-negative")
        # The emitters index and divide by these; reject what would
        # crash the Python loop or read out of bounds in the C one, which
        # takes them as int64.
        for knob in ("n_blocks", "loop_span", "n_functions",
                     "function_blocks", "max_call_depth", "data_footprint",
                     "stack_bytes", "hot_bytes", "n_arenas", "n_streams",
                     "stream_region", "n_redundant_keys", "region_bytes"):
            if not 0 <= getattr(self, knob) < 1 << 63:
                raise ValueError(f"{knob} must be a non-negative int64")
        if self.n_blocks < 1:
            raise ValueError("the main program needs at least one block")
        if self.n_functions and self.function_blocks < 1:
            raise ValueError("functions need at least one block")
        if self.region_bytes < 1:
            raise ValueError("region_bytes must be at least 1")

    def _weights(self) -> Dict[OpClass, float]:
        return {
            OpClass.IALU: self.ialu_weight,
            OpClass.IMULT: self.imult_weight,
            OpClass.IDIV: self.idiv_weight,
            OpClass.FALU: self.falu_weight,
            OpClass.FMULT: self.fmult_weight,
            OpClass.FDIV: self.fdiv_weight,
            OpClass.FSQRT: self.fsqrt_weight,
            OpClass.LOAD: self.load_weight,
            OpClass.STORE: self.store_weight,
        }


_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_FP_OPS = frozenset(int(o) for o in (
    OpClass.FALU, OpClass.FMULT, OpClass.FDIV, OpClass.FSQRT))
_CONDITIONAL = int(BranchKind.CONDITIONAL)
_CALL = int(BranchKind.CALL)
_RETURN = int(BranchKind.RETURN)
_N_OTHERS = 5                  # non-dominant successors per main block
#: The per-slot program arrays.
_SLOTS = ("slot_op", "slot_mode", "slot_key", "slot_stream_start",
          "hot_cursor")


def _mix_cdf(profile: WorkloadProfile) -> Tuple[np.ndarray, np.ndarray]:
    """The op classes and the normalised cumulative mix over them.

    ``ops[cdf.searchsorted(rng.random(k), side="right")]`` is what
    ``rng.choice(ops, size=k, p=probs)`` computes, without re-checking
    ``probs`` on every call.
    """
    weights = profile._weights()
    ops = np.array([int(op) for op in weights], dtype=np.int64)
    probs = np.array([weights[op] for op in weights], dtype=np.float64)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return ops, cdf


def _slot_capacity(blocks: int, lam: float) -> int:
    """Room for the slots of ``blocks`` blocks of ``max(1, Poisson(lam))``
    slots each: their mean and eight standard deviations over it.  The
    native build reports a program that needs more, and is re-run."""
    return int(blocks * (lam + 1) + 8 * math.sqrt(blocks * lam)) + 16


def _integers_below(rng: np.random.Generator):
    """``bound -> rng.integers(0, bound)``, same draws, less overhead.

    For ``bound <= 2**32`` numpy takes 32-bit halves of the bit
    generator's 64-bit words, low half first, keeping the high half for
    the next 32-bit draw, and scales them by Lemire's method.  Nothing
    else the build calls draws 32-bit halves, so the spare half can
    live here while ``random``, ``poisson`` and ``beta`` keep drawing
    whole words from the same generator.
    """
    raw = rng.bit_generator.random_raw
    spare: List[int] = []

    def next32() -> int:
        if spare:
            return spare.pop()
        word = raw()
        spare.append(word >> 32)
        return word & 0xFFFF_FFFF

    def integers(bound: int) -> int:
        if bound == 1:
            return 0                        # numpy draws nothing
        if bound > 1 << 32:                 # whole 64-bit words
            return int(rng.integers(0, bound))
        if bound == 1 << 32:
            return next32()
        m = next32() * bound
        if m & 0xFFFF_FFFF < bound:
            threshold = ((1 << 32) - bound) % bound
            while m & 0xFFFF_FFFF < threshold:
                m = next32() * bound
        return m >> 32

    return integers


class SyntheticProgram:
    """The static structure generated from one profile.

    Building the program is separated from emitting a trace so tests
    can inspect the static structure, and so multiple trace lengths
    share one layout.

    The program is a set of flat ``int64`` arrays (``block_bias`` is
    ``float64``).  Blocks ``[0, n_main)`` are the main program; function
    ``f`` is the linear chain starting at block
    ``n_main + f * profile.function_blocks``.  Per block: its first
    pc, its branch's pc (``block_end_pc``), its ``BranchKind``, its
    dominant successor, the probability of taking it, and
    ``_N_OTHERS`` other successors (main conditional blocks only).
    Block ``b`` owns slots ``slot_start[b]:slot_start[b + 1]``.  Per
    slot: its op class, its mode (0 working set, 1 stream, 2 pointer
    chase), its redundancy key or ``NO_VALUE``, its stream pick and its
    ``hot_cursor`` into the hot heap, which :meth:`emit` advances.

    The build runs in the compiled kernel library when it loads and in
    :meth:`_build_python` otherwise; the two are bit-identical.
    """

    def __init__(self, profile: WorkloadProfile):
        self.profile = profile
        if not self._build_native():
            self._build_python()

    def _build_native(self) -> bool:
        """Build the program in synth.c; False if it is absent."""
        profile = self.profile
        ops, cdf = _mix_cdf(profile)
        n = profile.n_blocks
        blocks = n + profile.n_functions * profile.function_blocks
        lam = profile.block_len_mean - 1
        capacity = _slot_capacity(blocks, lam)
        while True:
            arrays = {name: np.empty(blocks, np.int64) for name in (
                "block_pc", "block_end_pc", "block_kind", "block_dominant")}
            arrays.update(
                block_bias=np.empty(blocks, np.float64),
                block_others=np.empty(_N_OTHERS * blocks, np.int64),
                slot_start=np.empty(blocks + 1, np.int64),
                **{name: np.empty(capacity, np.int64) for name in _SLOTS})
            slots = native.build_program(
                bitgen=np.random.default_rng(profile.seed),
                n_ops=len(ops), ops=ops, cdf=cdf, lam=lam,
                hot_words=max(1, profile.hot_bytes // _WORD),
                streaming=profile.streaming_fraction,
                pointer=profile.streaming_fraction + profile.pointer_fraction,
                redundancy=profile.redundancy_fraction,
                n_keys=profile.n_redundant_keys,
                exponent=profile.redundancy_exponent,
                n_main=n, loop_span=profile.loop_span,
                call_fraction=profile.call_fraction,
                loop_fraction=profile.loop_fraction,
                loop_bias_cap=profile.loop_bias_cap,
                bias_alpha=profile.bias_alpha, bias_beta=profile.bias_beta,
                n_functions=profile.n_functions,
                function_blocks=profile.function_blocks,
                nested_call_fraction=profile.nested_call_fraction,
                code_base=_CODE_BASE, slot_capacity=capacity, **arrays)
            if slots is False:
                return False
            if slots <= capacity:
                break
            capacity = max(slots, 2 * capacity)
        for name in _SLOTS:
            arrays[name] = arrays[name][:slots]
        for name, array in arrays.items():
            setattr(self, name, array)
        self.code_bytes = int(self.block_end_pc[-1]) + 4 - _CODE_BASE
        self.n_main = n
        return True

    def _build_python(self) -> None:
        """Build the program in Python: the reference for ``synth.c``."""
        profile = self.profile
        rng = np.random.default_rng(profile.seed)
        random, poisson, beta = rng.random, rng.poisson, rng.beta
        integers = _integers_below(rng)
        ops, cdf = _mix_cdf(profile)
        lam = profile.block_len_mean - 1
        hot_words = max(1, profile.hot_bytes // _WORD)
        streaming = profile.streaming_fraction
        pointer = streaming + profile.pointer_fraction
        redundancy = profile.redundancy_fraction
        n_keys = profile.n_redundant_keys
        exponent = profile.redundancy_exponent

        slot_op: List[int] = []
        slot_mode: List[int] = []
        slot_key: List[int] = []
        slot_stream: List[int] = []
        slot_hot: List[int] = []
        slot_start: List[int] = []
        block_pc: List[int] = []
        block_end_pc: List[int] = []

        def make_block(pc: int) -> int:
            body_len = max(1, int(poisson(lam)))
            slot_start.append(len(slot_op))
            for op in ops[cdf.searchsorted(random(body_len),
                                           side="right")].tolist():
                mode = 0
                key = NO_VALUE
                stream = 0
                hot = 0
                if op == _LOAD or op == _STORE:
                    u = random()
                    hot = integers(hot_words) * _WORD
                    if u < streaming:
                        mode = 1
                        stream = integers(1 << 16)  # pool index
                    elif op == _LOAD and u < pointer:
                        mode = 2
                elif random() < redundancy:
                    # Redundant compute slot: persistent power-law key.
                    key = min(int(n_keys * random() ** exponent),
                              n_keys - 1)
                slot_op.append(op)
                slot_mode.append(mode)
                slot_key.append(key)
                slot_stream.append(stream)
                slot_hot.append(hot)
            block_pc.append(pc)
            block_end_pc.append(pc + 4 * body_len)   # the branch's own pc
            return pc + 4 * body_len + 4

        next_pc = _CODE_BASE
        n = profile.n_blocks
        for _ in range(n):
            next_pc = make_block(next_pc)

        # Main control flow.
        kind = [_CONDITIONAL] * n
        dominant = [0] * n
        bias = [1.0] * n
        others = [0] * (_N_OTHERS * n)
        span = max(1, profile.loop_span)
        for i in range(n):
            if random() < profile.call_fraction and profile.n_functions:
                kind[i] = _CALL
                continue
            back_edge = random() < profile.loop_fraction and i > 0
            if back_edge:
                low = max(0, i - profile.loop_span)
                dominant[i] = low + integers(i + 1 - low)
            else:
                dominant[i] = (i + 1) % n
            # Back-edge bias bounds the loop trip count; uncapped biases
            # would trap the walk in one loop and shrink the code
            # working set to a handful of blocks.
            cap = profile.loop_bias_cap if back_edge else 0.98
            bias[i] = min(float(beta(profile.bias_alpha, profile.bias_beta)),
                          cap)
            # Non-dominant successors are mostly local (nearby blocks,
            # preserving I-cache locality) with one rare far jump.
            low = max(0, i - span)
            high = min(n, i + span + 1)
            base = _N_OTHERS * i
            for k in range(_N_OTHERS - 1):
                others[base + k] = low + integers(high - low)
            others[base + _N_OTHERS - 1] = integers(n)

        # Functions: linear chains ending in a return, falling through
        # (or occasionally calling deeper) on the way.
        for _ in range(profile.n_functions):
            for j in range(profile.function_blocks):
                next_pc = make_block(next_pc)
                others.extend([0] * _N_OTHERS)
                if j == profile.function_blocks - 1:
                    kind.append(_RETURN)
                    dominant.append(0)
                else:
                    call = random() < profile.nested_call_fraction
                    kind.append(_CALL if call else _CONDITIONAL)
                    dominant.append(len(dominant) + 1)
                bias.append(1.0)
        slot_start.append(len(slot_op))

        self.code_bytes = next_pc - _CODE_BASE
        self.n_main = n
        self.block_pc = np.array(block_pc, np.int64)
        self.block_end_pc = np.array(block_end_pc, np.int64)
        self.block_kind = np.array(kind, np.int64)
        self.block_dominant = np.array(dominant, np.int64)
        self.block_bias = np.array(bias, np.float64)
        self.block_others = np.array(others, np.int64)
        self.slot_start = np.array(slot_start, np.int64)
        self.slot_op = np.array(slot_op, np.int64)
        self.slot_mode = np.array(slot_mode, np.int64)
        self.slot_key = np.array(slot_key, np.int64)
        self.slot_stream_start = np.array(slot_stream, np.int64)
        self.hot_cursor = np.array(slot_hot, np.int64)

    # -- trace emission ---------------------------------------------------------

    def emit(self, length: int, seed: Optional[int] = None,
             name: Optional[str] = None) -> Trace:
        """Generate a dynamic trace of exactly ``length`` instructions.

        The trace is a function of the profile, ``length``, ``seed``
        and the program's ``hot_cursor`` array.  Emitting advances the
        hot-heap cursors in place, and a second ``emit`` on the same
        program continues from where the first stopped, so only its
        hot-heap addresses differ from a fresh program's.  A fresh
        program (as :func:`generate_trace` and
        :func:`~repro.workloads.benchmark_trace` build) therefore always
        yields the identical trace for the same arguments.

        The loop runs in the compiled kernel library when it loads and
        in :meth:`_emit_python` otherwise; the two are bit-identical.
        """
        if length < 1:
            raise ValueError("trace length must be positive")
        profile = self.profile
        rng = np.random.default_rng(
            profile.seed * 1_000_003 + 17 if seed is None else seed
        )
        n = length
        trace = Trace(
            np.zeros(n, np.int64),                 # pc
            np.zeros(n, np.uint8),                 # op
            np.full(n, NO_REG, np.int16),          # src1
            np.full(n, NO_REG, np.int16),          # src2
            np.full(n, NO_REG, np.int16),          # dst
            np.full(n, NO_VALUE, np.int64),        # mem_addr
            np.zeros(n, np.uint8),                 # branch_kind
            np.zeros(n, np.bool_),                 # taken
            np.full(n, NO_VALUE, np.int64),        # target
            np.full(n, NO_VALUE, np.int64),        # redundancy_key
            name=name or profile.name,
        )
        # Pre-drawn randomness in bulk (much faster than per-call).
        pool = 2 * n + 16
        uniforms = rng.random(pool)
        lookbacks = rng.geometric(profile.dep_lookback_p, pool)
        reuse_draws = rng.random(pool)
        # Start offset of each shared sequential stream.  Starts are
        # spread across distinct pages (and therefore cache/TLB sets)
        # deterministically, with a small in-page jitter.
        stream_bytes = max(1, profile.stream_region // _WORD) * _WORD
        stream_rng = np.random.default_rng(profile.seed + 7)
        streams = [
            (((3 + 2 * k) * 4096) + int(stream_rng.integers(0, 64)) * _WORD)
            % stream_bytes
            for k in range(max(1, profile.n_streams))
        ]
        if not self._emit_native(trace, uniforms, lookbacks, reuse_draws,
                                 streams):
            self._emit_python(trace, uniforms, lookbacks, reuse_draws,
                              streams)
        return trace

    def _emit_native(self, trace: Trace, uniforms: np.ndarray,
                     lookbacks: np.ndarray, reuse_draws: np.ndarray,
                     stream_starts: List[int]) -> bool:
        """Fill ``trace``'s arrays in synth.c; False if it is absent."""
        profile = self.profile
        n = len(trace)
        streams = np.zeros((len(stream_starts), 2), np.int64)
        streams[:, 0] = stream_starts
        regions = max(1, profile.data_footprint // profile.region_bytes)
        walkers = np.zeros((max(1, profile.n_arenas), 2), np.int64)
        walkers[:, 0] = np.arange(len(walkers)) % regions
        # One frame per call: never more frames than instructions.
        call_stack = np.zeros(
            (max(1, min(profile.max_call_depth, n)), 2), np.int64)
        return native.synthesize(
            n=n, n_blocks=len(self.block_pc), n_main=self.n_main,
            n_functions=profile.n_functions,
            function_blocks=profile.function_blocks,
            max_call_depth=profile.max_call_depth,
            block_pc=self.block_pc, block_end_pc=self.block_end_pc,
            block_kind=self.block_kind, block_dominant=self.block_dominant,
            block_bias=self.block_bias, block_others=self.block_others,
            slot_start=self.slot_start, slot_op=self.slot_op,
            slot_mode=self.slot_mode, slot_key=self.slot_key,
            slot_stream_start=self.slot_stream_start,
            hot_cursor=self.hot_cursor,
            stack_fraction=profile.stack_fraction,
            hot_fraction=profile.hot_fraction,
            reuse_exponent=profile.reuse_exponent,
            stack_bytes=profile.stack_bytes, hot_bytes=profile.hot_bytes,
            region_bytes=profile.region_bytes,
            data_footprint=profile.data_footprint,
            stream_region=profile.stream_region,
            data_base=_DATA_BASE, heap_base=_HEAP_BASE,
            stream_base=_STREAM_BASE, stack_base=_STACK_BASE,
            uniforms=uniforms, reuse_draws=reuse_draws, lookbacks=lookbacks,
            n_streams=len(streams), n_walkers=len(walkers),
            streams=streams, walkers=walkers, call_stack=call_stack,
            pc=trace.pc, op=trace.op, src1=trace.src1, src2=trace.src2,
            dst=trace.dst, mem_addr=trace.mem_addr,
            branch_kind=trace.branch_kind, taken=trace.taken,
            target=trace.target, redundancy_key=trace.redundancy_key,
        )

    def _emit_python(self, trace: Trace, uniforms: np.ndarray,
                     lookbacks: np.ndarray, reuse_draws: np.ndarray,
                     stream_starts: List[int]) -> None:
        """Fill ``trace``'s arrays: the reference for ``synth.c``."""
        profile = self.profile
        n = len(trace)
        pc, op, src1, src2, dst = (trace.pc, trace.op, trace.src1,
                                   trace.src2, trace.dst)
        mem_addr, branch_kind, taken, target, redundancy_key = (
            trace.mem_addr, trace.branch_kind, trace.taken, trace.target,
            trace.redundancy_key)
        block_pc = self.block_pc.tolist()
        block_end_pc = self.block_end_pc.tolist()
        block_kind = self.block_kind.tolist()
        block_dominant = self.block_dominant.tolist()
        block_bias = self.block_bias.tolist()
        block_others = self.block_others.tolist()
        slot_start = self.slot_start.tolist()
        slot_op = self.slot_op.tolist()
        slot_mode = self.slot_mode.tolist()
        slot_key = self.slot_key.tolist()
        slot_stream_start = self.slot_stream_start.tolist()
        hot_cursor = self.hot_cursor.tolist()
        n_blocks = len(block_pc)
        n_main = self.n_main
        n_functions = profile.n_functions
        function_blocks = profile.function_blocks

        def fallthrough_of(block_id: int) -> int:
            nxt = block_id + 1
            if nxt >= n_blocks:
                return 0
            # Main blocks wrap within main program; function chains continue.
            if block_id < n_main <= nxt:
                return 0
            return nxt

        # Working-set / pointer-chase accesses are a three-tier mixture:
        #
        # * stack — a tiny region with near-total reuse (L1 resident);
        # * hot heap — per-slot sequential walks over a region sized
        #   between the paper's low and high L1 D-cache settings, so the
        #   L1D size/latency contrast has real traffic;
        # * cold tail — a power-law choice of a page-sized region plus a
        #   sequential per-slot offset within it: hot pages are revisited
        #   (L2-capacity and D-TLB reach contrasts) while the long tail
        #   keeps missing to DRAM (memory latency/bandwidth contrasts).
        f_stack = profile.stack_fraction
        f_hot = profile.hot_fraction
        stack_words = max(1, profile.stack_bytes // _WORD)
        hot_bytes = profile.hot_bytes
        stream_bytes = max(1, profile.stream_region // _WORD) * _WORD
        # [start offset, bytes advanced] per shared sequential stream.
        streams = [[start, 0] for start in stream_starts]

        # The cold tail comes from a pool of ``n_arenas`` concurrent
        # walkers (live arenas), each walking its region in sequential
        # runs before jumping on.  A small pool bounds the *concurrent*
        # page working set (TLB pressure) while the power law still
        # grades the total footprint (cache-capacity pressure).
        # [region, access-count] per walker; walkers start on contiguous
        # regions (the hottest arenas), like real allocators laying hot
        # structures out together.
        region_bytes = profile.region_bytes
        n_regions = max(1, profile.data_footprint // region_bytes)
        walkers = [[w % n_regions, 0]
                   for w in range(max(1, profile.n_arenas))]
        cold_count = 0
        active_walker = 0
        run_words = 48

        recent_int: List[int] = [1, 2, 3, 4]
        recent_fp: List[int] = [32, 33, 34, 35]
        call_stack: List[int] = []      # block ids to return to
        ret_addr_stack: List[int] = []  # return pcs (targets of RETURN)
        current = 0                     # block id
        slot = slot_start[0]
        u_i = 0
        i = 0

        while i < n:
            if slot < slot_start[current + 1]:
                o = slot_op[slot]
                pc[i] = block_pc[current] + 4 * (slot - slot_start[current])
                op[i] = o
                if o == _LOAD or o == _STORE:
                    draw = reuse_draws[u_i]
                    if slot_mode[slot] == 1:
                        # Streaming: one of the program's shared streams.
                        pick = slot_stream_start[slot] + int(draw * 524287.0)
                        stream = streams[pick % len(streams)]
                        addr = _STREAM_BASE + (
                            stream[0] + stream[1]) % stream_bytes
                        stream[1] += _WORD
                    elif draw < f_stack:
                        index = int(stack_words * (draw / f_stack))
                        addr = _STACK_BASE + min(
                            index, stack_words - 1) * _WORD
                    elif draw < f_stack + f_hot:
                        addr = _HEAP_BASE + hot_cursor[slot]
                        hot_cursor[slot] += _WORD
                        if hot_cursor[slot] >= hot_bytes:
                            hot_cursor[slot] = 0
                    else:
                        rest = 1.0 - f_stack - f_hot
                        v = (draw - f_stack - f_hot) / rest \
                            if rest > 0 else 0.0
                        # Walkers are *sticky*: the program works on one
                        # arena for a phase of accesses before switching
                        # (real code walks one structure at a time), so
                        # conflicting pages do not alternate rapidly,
                        # which is what actually costs TLB misses.
                        cold_count += 1
                        if cold_count % 24 == 0:
                            active_walker = int(v * 7919.0) % len(walkers)
                        walker = walkers[active_walker]
                        # After a 48-access sequential run a walker
                        # usually advances to the *next* region (real data
                        # structures are contiguous page runs, which index
                        # TLB and cache sets uniformly) and occasionally
                        # reseeds to a power-law-selected region (temporal
                        # reuse of hot arenas).
                        if walker[1] and walker[1] % run_words == 0:
                            if (walker[1] // run_words) % 6:
                                walker[0] = (walker[0] + 1) % n_regions
                            else:
                                walker[0] = min(
                                    int(n_regions
                                        * v ** profile.reuse_exponent),
                                    n_regions - 1,
                                )
                        offset = (walker[1] * _WORD) % region_bytes
                        walker[1] += 1
                        addr = (_DATA_BASE + walker[0] * region_bytes
                                + offset)
                    mem_addr[i] = addr
                    if slot_mode[slot] == 2:  # pointer chase
                        src1[i] = _POINTER_REG
                        if o == _LOAD:
                            dst[i] = _POINTER_REG
                    else:
                        src1[i] = _pick_source(recent_int, lookbacks[u_i])
                        if o == _LOAD:
                            d = int(1 + (lookbacks[u_i + 1] % 29))
                            dst[i] = d
                            _record_write(recent_int, d)
                        else:
                            src2[i] = _pick_source(
                                recent_int, lookbacks[u_i + 1]
                            )
                else:
                    fp = o in _FP_OPS
                    recent = recent_fp if fp else recent_int
                    src1[i] = _pick_source(recent, lookbacks[u_i])
                    src2[i] = _pick_source(recent, lookbacks[u_i + 1])
                    base = 32 if fp else 1
                    span = 31 if fp else 29
                    d = int(base + (int(uniforms[u_i] * 1e9) % span))
                    dst[i] = d
                    _record_write(recent, d)
                    redundancy_key[i] = slot_key[slot]
                u_i = (u_i + 2) % (2 * n)
                slot += 1
                i += 1
                continue

            # Block-terminating control transfer.
            end_pc = block_end_pc[current]
            pc[i] = end_pc
            op[i] = int(OpClass.BRANCH)
            kind = block_kind[current]
            branch_kind[i] = kind
            src1[i] = recent_int[-1]
            if kind == _CALL:
                if len(call_stack) >= profile.max_call_depth or \
                        not n_functions:
                    # Too deep: degrade to a fall-through branch.
                    branch_kind[i] = _CONDITIONAL
                    taken[i] = False
                    next_block = fallthrough_of(current)
                else:
                    callee_entry = n_main + function_blocks * (
                        int(uniforms[u_i] * n_functions) % n_functions)
                    call_stack.append(fallthrough_of(current))
                    ret_addr_stack.append(end_pc + 4)
                    taken[i] = True
                    target[i] = block_pc[callee_entry]
                    next_block = callee_entry
            elif kind == _RETURN:
                taken[i] = True
                if call_stack:
                    next_block = call_stack.pop()
                    target[i] = ret_addr_stack.pop()
                else:
                    next_block = 0
                    target[i] = block_pc[0]
            else:  # conditional
                if uniforms[u_i] < block_bias[current]:
                    next_block = block_dominant[current]
                else:
                    next_block = block_others[
                        _N_OTHERS * current
                        + int(uniforms[u_i] * 977) % _N_OTHERS
                    ]
                if next_block == fallthrough_of(current):
                    taken[i] = False
                else:
                    taken[i] = True
                    target[i] = block_pc[next_block]
            u_i = (u_i + 1) % (2 * n)
            current = next_block
            slot = slot_start[current]
            i += 1
        self.hot_cursor[:] = hot_cursor


def _pick_source(recent: List[int], lookback: int) -> int:
    # Deep lookbacks fall off the recent-writer window: the value
    # is old enough to be "always ready" (no dependence edge).
    if lookback > 6:
        return NO_REG
    return recent[-1 - (int(lookback) - 1) % len(recent)]


def _record_write(recent: List[int], reg: int) -> None:
    recent.append(reg)
    if len(recent) > 16:
        recent.pop(0)


def generate_trace(
    profile: WorkloadProfile, length: int, seed: Optional[int] = None
) -> Trace:
    """Build the static program for ``profile`` and emit one trace."""
    return SyntheticProgram(profile).emit(length, seed=seed)
