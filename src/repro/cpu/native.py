"""Loader for the compiled simulator kernel.

The default core runs ``_native/core.c``, a compiled cycle loop that
produces **field-exact** :class:`~repro.cpu.stats.CoreStats` against
the interpreted reference model, enforced by
:mod:`repro.cpu.equivalence` over every core.  The same library
carries ``_native/synth.c``, both halves of trace synthesis, each
byte-identical to the Python it replaces: the static program build
behind :class:`repro.workloads.synthetic.SyntheticProgram`
(:func:`build_program`) and the emit loop behind its ``emit``
(:func:`synthesize`).  The build draws through numpy's own samplers,
so the library links numpy's static sampler archive
(``numpy/random/lib/libnpyrandom.a``); where a numpy install lacks it,
the library is built without the program build.

This module owns the build-and-load machinery:

* the kernel is compiled on demand with whatever C compiler is on
  ``PATH`` (``cc``/``gcc``/``clang``) into a **content-addressed**
  shared object — the cache key hashes every source, the flags, the
  compiler and numpy's sampler header and archive, so editing a source
  or upgrading numpy can never pick up a stale build;
* builds are atomic (temp file + ``os.replace``), so concurrent
  worker processes racing to build produce one good artifact;
* everything degrades gracefully: no toolchain, a failed build, or
  ``REPRO_NATIVE=0`` simply returns ``None``: ``core="batched"``
  runs the reference model instead and synthesis runs its Python
  loop.  ``core="batched-native"`` makes the failure loud.

The compiled kernel is a pure function from (config vector, trace
arrays) to a counter vector: no global state, no threads, no
callbacks into Python — safe under ``fork`` and trivially
deterministic.  Functional warm-up is shared through an explicit warm
context: the kernel keeps each component's warm state per distinct
key for one trace in the context it is handed, and this module keeps
one live context per process (:class:`_LiveContext`), freed when a
call brings another trace.  A result never depends on the context's
contents, only the time it takes.  The program build draws from the
bit generator of the ``numpy.random.Generator`` it is handed, under
that generator's lock.
The per-call Python work is kept to a minimum: the config vector is
built once per :class:`MachineConfig` object and the trace pointers
once per :class:`~repro.workloads.trace.DecodedTrace`.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.guard.errors import SimulationHang

from .isa import COMPUTE_CLASSES, NO_VALUE, BranchKind, OpClass
from .params import MachineConfig
from .pipeline import SimulationError
from .stats import CacheSnapshot, CoreStats

_SOURCES = tuple(
    Path(__file__).resolve().parent / "_native" / name
    for name in ("core.c", "synth.c")
)
# No FP contraction: synth.c must round like the Python it mirrors.
_CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")


def _cflags() -> tuple:
    """The effective compiler flags, including any sanitizer extras.

    ``REPRO_NATIVE_CFLAGS`` appends flags to the defaults — the CI
    sanitizer job uses it to build the kernel with
    ``-fsanitize=address,undefined``.  The flags enter the build
    digest, so a sanitized artifact never shadows a production one.
    """
    extra = os.environ.get("REPRO_NATIVE_CFLAGS")  # repro: noqa[REP006] -- build-flag knob for the CI sanitizer job; flags enter the content address and every kernel build is bit-identical by contract
    if not extra:
        return _CFLAGS
    return _CFLAGS + tuple(extra.split())

#: Loaded kernel (ctypes CDLL), or False after a failed load attempt
#: so we never retry a broken toolchain on every simulation.
_lib = None
_failure: Optional[str] = None

# The C side hardcodes these ISA values; fail loudly if they drift.
assert int(OpClass.LOAD) == 7 and int(OpClass.STORE) == 8 \
    and int(OpClass.BRANCH) == 9 and len(OpClass) == 10
assert int(BranchKind.CONDITIONAL) == 1 and int(BranchKind.CALL) == 2 \
    and int(BranchKind.RETURN) == 3 and int(BranchKind.JUMP) == 4

_PREDICTOR_KINDS = {
    "2level": 0, "bimodal": 1, "taken": 2, "tournament": 3, "perfect": 4,
}
_REPLACEMENT = {"lru": 0, "fifo": 1, "random": 2}

#: Cache/TLB RNG seed (Cache.__init__ default rng_seed).
_RNG_SEED = 12345

# Config vector layout (core.c's CFG_* enum): the machine fields, the
# per-call scalars (prefetch lines, warm-up, max cycles, hang cycles),
# the unit counts and RNG seed, then three OpClass-indexed tables
# (unit, latency, interval).
_CFG_PER_CALL = 34
_N_CFG = 44 + 3 * len(OpClass)
_N_OUT = 53

_ConfigVector = ctypes.c_int64 * _N_CFG
_OutVector = ctypes.c_int64 * _N_OUT

# Output vector indices (core.c's OUT_* enum).
_O_STATUS = 0
_O_CYCLES = 1
_O_INSTRUCTIONS = 2
_O_BRANCHES = 3
_O_MISPREDICTIONS = 4
_O_BTB_MISFETCHES = 5
_O_RAS_MISPREDICTIONS = 6
_O_L1I = 7          # accesses, misses, writebacks
_O_L1D = 10
_O_L2 = 13
_O_ITLB = 16        # accesses, misses
_O_DTLB = 18
_O_OPS = 20         # IntALU, FPALU, IntMultDiv, FPMultDiv, MemPort
_O_DISPATCH_STALL_ROB = 25
_O_DISPATCH_STALL_LSQ = 26
_O_ROB_OCCUPANCY_SUM = 27
_O_STALL_FETCH = 28
_O_STALL_FU = 29
_O_STALL_LSQ = 30
_O_STALL_MISPREDICT = 31
_O_STALL_ROB = 32
_O_PRECOMPUTE_HITS = 33
_O_ERR_CYCLE = 34
_O_ERR_COMMITTED = 35
_O_ERR_LAST_COMMIT = 36
_O_ERR_FETCH_INDEX = 37
_O_ERR_FETCH_STALL_UNTIL = 38
_O_ERR_FETCH_BLOCK_MISPREDICT = 39
_O_ERR_IFQ_OCC = 40
_O_ERR_ROB_OCC = 41
_O_ERR_LSQ_OCC = 42
_O_ERR_READY = 43
_O_ERR_PENDING = 44
_O_ERR_HAS_HEAD = 45
_O_ERR_HEAD_SEQ = 46
_O_ERR_HEAD_OP = 47
_O_ERR_HEAD_STATE = 48
_O_ERR_HEAD_DEPS = 49
_O_ERR_HEAD_PC = 50
_O_ERR_HEAD_IS_BRANCH = 51
_O_ERR_HEAD_PRECOMPUTED = 52


def _toolchain() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")  # repro: noqa[REP006] -- build-artifact location only; the artifact is content-addressed so the knob cannot change results
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "native"


def _samplers() -> Optional[Tuple[Path, Path]]:
    """numpy's sampler header (``bitgen.h``) and static archive
    (``libnpyrandom.a``), or None when this numpy install lacks either."""
    header = Path(np.get_include()) / "numpy" / "random" / "bitgen.h"
    archive = Path(np.__file__).resolve().parent / "random" / "lib" \
        / "libnpyrandom.a"
    if header.is_file() and archive.is_file():
        return header, archive
    return None


def _recipe(compiler: str) -> Tuple[str, List[str], List[str]]:
    """The library's content-addressed file name, and the compiler
    flags and inputs that build it.

    With numpy's samplers the library links their archive and gains
    the program build (``REPRO_BUILD_PROGRAM``): the define, the
    header's bytes and the archive's bytes enter the digest, so a
    numpy upgrade rebuilds the library.
    """
    flags = _cflags()
    inputs = [str(source) for source in _SOURCES]
    samplers = _samplers()
    if samplers is not None:
        flags += ("-DREPRO_BUILD_PROGRAM",)
    digest = hashlib.sha256()
    for source in (*_SOURCES, *(samplers or ())):
        digest.update(source.name.encode() + b"\0" + source.read_bytes()
                      + b"\0")
    digest.update(" ".join(flags).encode() + b"\0" + compiler.encode())
    if samplers is not None:
        flags += (f"-I{np.get_include()}",)
        inputs.append(str(samplers[1]))
    return f"core-{digest.hexdigest()[:20]}.so", list(flags), inputs


def _build(compiler: str) -> Path:
    """Compile the kernel into the content-addressed cache; idempotent."""
    name, flags, inputs = _recipe(compiler)
    cache = _cache_dir()
    artifact = cache / name
    if artifact.exists():
        return artifact
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(cache), suffix=".so.tmp")
    os.close(fd)
    try:
        result = subprocess.run(
            [compiler, *flags, "-o", tmp, *inputs, "-lm"],
            capture_output=True, text=True,
        )
        if result.returncode != 0:
            raise RuntimeError(
                f"kernel build failed ({compiler}): {result.stderr.strip()}"
            )
        os.replace(tmp, artifact)  # atomic under concurrent builders
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return artifact


def _load():
    """The kernel library, building it if needed; None when unavailable."""
    global _lib, _failure  # repro: noqa[REP004] -- once-per-process memo of the build probe
    if _lib is not None:
        return _lib or None
    if os.environ.get("REPRO_NATIVE") == "0":  # repro: noqa[REP006] -- explicit opt-out knob; all cores are bit-identical so it cannot change results
        _lib = False
        _failure = "disabled via REPRO_NATIVE=0"
        return None
    try:
        compiler = _toolchain()
        if compiler is None:
            raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
        lib = ctypes.CDLL(str(_build(compiler)))
        lib.repro_simulate.restype = ctypes.c_int64
        lib.repro_simulate.argtypes = [
            ctypes.c_void_p,                      # cfg
            ctypes.c_void_p,                      # _TraceArrays
            ctypes.c_void_p,                      # pre_flag (nullable)
            ctypes.c_void_p,                      # WarmContext (nullable)
            ctypes.c_void_p,                      # out
        ]
        lib.repro_warm_new.restype = ctypes.c_void_p
        lib.repro_warm_new.argtypes = []
        lib.repro_warm_free.restype = None
        lib.repro_warm_free.argtypes = [ctypes.c_void_p]
        lib.repro_synthesize.restype = None
        lib.repro_synthesize.argtypes = [ctypes.c_void_p]  # _SynthArgs
        if hasattr(lib, "repro_build_program"):  # built with the samplers
            lib.repro_build_program.restype = ctypes.c_int64
            lib.repro_build_program.argtypes = [ctypes.c_void_p]  # _BuildArgs
        _lib = lib
    except Exception as exc:
        _lib = False
        _failure = str(exc)
        return None
    return _lib


class _TraceArrays(ctypes.Structure):
    """core.c's ``TraceArrays``: the trace length and the addresses of
    the trace and decode arrays the kernel reads."""

    _fields_ = [("n", ctypes.c_int64)] + [
        (name, ctypes.c_void_p) for name in (
            "pc", "op", "addr", "kind", "taken", "target",
            "prod1", "prod2", "store_prod",
        )
    ]


def _trace_arrays(trace) -> int:
    """Address of the kernel's :class:`_TraceArrays` for ``trace``,
    built once per decode and kept on it together with the arrays it
    points into."""
    decoded = trace.decoded()
    packed = decoded.kernel_args
    if packed is None:
        arrays = (
            trace.pc, trace.op, trace.mem_addr, trace.branch_kind,
            trace.taken.view(np.uint8), trace.target,
            decoded.prod1, decoded.prod2, decoded.store_prod,
        )
        block = _TraceArrays(len(trace), *(a.ctypes.data for a in arrays))
        packed = decoded.kernel_args = (
            ctypes.addressof(block), block, arrays,
        )
    return packed[0]


#: ``id(config) -> (weak reference to config, its config vector)`` for
#: the live configurations :func:`_config_vector` has seen.  Keyed by
#: identity like :func:`repro.exec.cache._config_fields`; an entry
#: leaves with its configuration.
_vector_memo: Dict[int, Tuple[weakref.ref, ctypes.Array]] = {}


def _config_vector(config: MachineConfig) -> ctypes.Array:
    """The kernel's config vector for ``config`` with the per-call
    slots unset, memoised per object.  Callers copy it."""
    key = id(config)
    entry = _vector_memo.get(key)
    if entry is None:
        vector = _build_config_vector(config)
        try:
            ref = weakref.ref(config, lambda _: _vector_memo.pop(key, None))
        except TypeError:  # no __weakref__ slot: build every time
            return vector
        entry = _vector_memo[key] = (ref, vector)
    return entry[1]


def _build_config_vector(config: MachineConfig) -> ctypes.Array:
    machine = (
        config.width, config.ifq_entries, config.rob_entries,
        config.lsq_entries, config.mispredict_penalty,
        _PREDICTOR_KINDS[config.branch_predictor],
        int(config.speculative_update == "decode"),
        config.ras_entries, config.btb_entries, config.btb_assoc,
        config.l1i_size, config.l1i_assoc, config.l1i_block,
        config.l1i_latency,
        config.l1d_size, config.l1d_assoc, config.l1d_block,
        config.l1d_latency,
        config.l2_size, config.l2_assoc, config.l2_block,
        config.l2_latency,
        _REPLACEMENT[config.replacement_policy],
        config.mem_latency_first, config.mem_latency_following,
        config.mem_bandwidth,
        config.itlb_entries, config.itlb_page_size, config.itlb_assoc,
        config.itlb_latency,
        config.dtlb_entries, config.dtlb_page_size, config.dtlb_assoc,
        config.dtlb_latency,
    )
    per_call = (0, 0, 0, 0)  # set by each simulate_native call
    units = (
        config.int_alus, config.fp_alus, config.int_mult_div_units,
        config.fp_mult_div_units, config.memory_ports, _RNG_SEED,
    )
    # OpClass -> (unit class, latency, interval): the mapping
    # FunctionalUnitPool builds (funits._dispatch).
    op_unit = (0, 2, 2, 1, 3, 3, 3, 4, 4, 0)
    op_latency = (
        config.int_alu_latency, config.int_mult_latency,
        config.int_div_latency, config.fp_alu_latency,
        config.fp_mult_latency, config.fp_div_latency,
        config.fp_sqrt_latency, 1, 1, config.int_alu_latency,
    )
    op_interval = (
        config.int_alu_interval, config.int_mult_interval,
        config.int_div_interval, config.fp_alu_interval,
        config.fp_mult_interval, config.fp_div_interval,
        config.fp_sqrt_interval, 1, 1, config.int_alu_interval,
    )
    return _ConfigVector(*machine, *per_call, *units, *op_unit,
                         *op_latency, *op_interval)


_COMPUTE_LIST = sorted(int(c) for c in COMPUTE_CLASSES)


def _precompute_flags(trace, table) -> Optional[np.ndarray]:
    """Precomputation-table membership, one ``uint8`` flag per
    instruction (None when the enhancement is off)."""
    if table is None:
        return None
    hit = np.isin(trace.op, _COMPUTE_LIST)
    keys = trace.redundancy_key
    hit &= keys != NO_VALUE
    if len(table):
        hit &= np.isin(keys, np.fromiter(table, np.int64, len(table)))
    else:
        hit[:] = False
    return hit.view(np.uint8)


def _stats_from(out: list) -> CoreStats:
    return CoreStats(
        cycles=out[_O_CYCLES],
        instructions=out[_O_INSTRUCTIONS],
        branches=out[_O_BRANCHES],
        mispredictions=out[_O_MISPREDICTIONS],
        btb_misfetches=out[_O_BTB_MISFETCHES],
        ras_mispredictions=out[_O_RAS_MISPREDICTIONS],
        l1i=CacheSnapshot(*out[_O_L1I:_O_L1I + 3]),
        l1d=CacheSnapshot(*out[_O_L1D:_O_L1D + 3]),
        l2=CacheSnapshot(*out[_O_L2:_O_L2 + 3]),
        itlb=CacheSnapshot(out[_O_ITLB], out[_O_ITLB + 1], 0),
        dtlb=CacheSnapshot(out[_O_DTLB], out[_O_DTLB + 1], 0),
        unit_operations={
            "IntALU": out[_O_OPS],
            "FPALU": out[_O_OPS + 1],
            "IntMultDiv": out[_O_OPS + 2],
            "FPMultDiv": out[_O_OPS + 3],
            "MemPort": out[_O_OPS + 4],
        },
        dispatch_stall_rob=out[_O_DISPATCH_STALL_ROB],
        dispatch_stall_lsq=out[_O_DISPATCH_STALL_LSQ],
        rob_occupancy_sum=out[_O_ROB_OCCUPANCY_SUM],
        stall_cycles={
            "fetch": out[_O_STALL_FETCH],
            "fu_busy": out[_O_STALL_FU],
            "lsq_full": out[_O_STALL_LSQ],
            "mispredict": out[_O_STALL_MISPREDICT],
            "rob_full": out[_O_STALL_ROB],
        },
        precompute_hits=out[_O_PRECOMPUTE_HITS],
    )


def _hang_dump_from(trace, n: int, out: list) -> dict:
    """Reassemble Pipeline._hang_dump from the kernel's error fields."""
    dump = {
        "trace": trace.name,
        "cycle": out[_O_ERR_CYCLE],
        "committed": out[_O_ERR_COMMITTED],
        "instructions": n,
        "fetch_index": out[_O_ERR_FETCH_INDEX],
        "fetch_stall_until": out[_O_ERR_FETCH_STALL_UNTIL],
        "fetch_block_mispredict":
            bool(out[_O_ERR_FETCH_BLOCK_MISPREDICT]),
        "ifq_occupancy": out[_O_ERR_IFQ_OCC],
        "rob_occupancy": out[_O_ERR_ROB_OCC],
        "lsq_occupancy": out[_O_ERR_LSQ_OCC],
        "ready_instructions": out[_O_ERR_READY],
        "pending_completions": out[_O_ERR_PENDING],
    }
    if out[_O_ERR_HAS_HEAD]:
        dump["rob_head"] = {
            "seq": out[_O_ERR_HEAD_SEQ],
            "op": out[_O_ERR_HEAD_OP],
            "state": out[_O_ERR_HEAD_STATE],
            "unresolved_deps": out[_O_ERR_HEAD_DEPS],
            "pc": out[_O_ERR_HEAD_PC],
            "is_branch": bool(out[_O_ERR_HEAD_IS_BRANCH]),
            "precomputed": bool(out[_O_ERR_HEAD_PRECOMPUTED]),
        }
    return dump


class _LiveContext:
    """The process's one live warm context (core.c's ``WarmContext``).

    The kernel warms each component of a machine (predictor, BTB, both
    TLBs, both L1s) once per distinct key on a trace and keeps the
    warm states in the context it is handed, so the grid's cells of one
    trace share their functional warm-up.  A context serves one trace:
    it is freed, and a new one made, when a call brings another decode.
    The engine runs a trace's cells one after another, so one context
    is live at a time.  ``lock`` keeps two threads out of it at once.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self._decoded = None        # weak reference to the served decode
        self._address = None

    def serving(self, lib, decoded) -> Optional[int]:
        """The context for ``decoded`` (the caller holds ``lock``), or
        None when a new one cannot be allocated."""
        if self._decoded is None or self._decoded() is not decoded:
            self.drop(lib)
            self._address = lib.repro_warm_new() or None
            if self._address is not None:
                self._decoded = weakref.ref(decoded)
        return self._address

    def drop(self, lib) -> None:
        """Free the live context, if any."""
        if self._address is not None:
            lib.repro_warm_free(self._address)
        self._decoded = self._address = None


_live = _LiveContext()


def simulate_native(
    config: MachineConfig,
    trace,
    precompute_table: Optional[Set[int]],
    max_cycles: Optional[int],
    warmup: bool,
    prefetch_lines: int,
    hang_cycles: Optional[int],
    max_instructions: Optional[int],
    *,
    required: bool = False,
) -> Optional[CoreStats]:
    """Run one trace on the compiled kernel.

    Returns ``None`` when the kernel is unavailable (no toolchain,
    failed build, or ``REPRO_NATIVE=0``) so the caller can fall back;
    with ``required=True`` that becomes a loud :class:`RuntimeError`.
    Raises exactly the exceptions the reference model raises — same
    messages, same :class:`SimulationHang` dump.
    """
    lib = _load()
    if lib is None:
        if required:
            raise RuntimeError(
                f"native simulator kernel unavailable: {_failure}"
            )
        return None
    if prefetch_lines < 0:
        raise ValueError("prefetch_lines cannot be negative")
    n = len(trace)
    if max_instructions is not None and n > max_instructions:
        raise SimulationError(
            f"{trace.name}: trace has {n} instructions, over the "
            f"{max_instructions}-instruction budget"
        )
    if max_cycles is None:
        max_cycles = 400 * n + 100_000

    cfg = _ConfigVector.from_buffer_copy(_config_vector(config))
    cfg[_CFG_PER_CALL:_CFG_PER_CALL + 4] = (
        prefetch_lines, warmup, max_cycles,
        -1 if hang_cycles is None else hang_cycles,
    )
    pre = _precompute_flags(trace, precompute_table)
    out = _OutVector()
    args = (cfg, _trace_arrays(trace),
            None if pre is None else pre.ctypes.data)
    if warmup and _live.lock.acquire(blocking=False):
        try:
            status = lib.repro_simulate(
                *args, _live.serving(lib, trace.decoded()), out)
        finally:
            _live.lock.release()
    else:
        # No warm-up, or another thread is in the live context: the
        # kernel warms for this call alone.
        status = lib.repro_simulate(*args, None, out)
    values = out[:]
    if status == 1:
        committed = values[_O_ERR_COMMITTED]
        raise SimulationError(
            f"{trace.name}: exceeded {max_cycles} cycles with "
            f"{committed}/{n} committed — model deadlock?"
        )
    if status == 2:
        cycle = values[_O_ERR_CYCLE]
        committed = values[_O_ERR_COMMITTED]
        gap = cycle - values[_O_ERR_LAST_COMMIT]
        raise SimulationHang(
            f"{trace.name}: no instruction retired for {gap} cycles "
            f"({committed}/{n} committed at cycle {cycle}) — "
            "livelocked simulation",
            dump=_hang_dump_from(trace, n, values),
        )
    if status != 0:
        raise RuntimeError(
            f"native simulator kernel internal error {status} on "
            f"{trace.name}"
        )
    return _stats_from(values).validate(trace.name)


class _SynthArgs(ctypes.Structure):
    """synth.c's ``SynthArgs``: scalars and array addresses, in order."""

    _fields_ = [(name, ctypes.c_int64) for name in (
        "n", "n_blocks", "n_main", "n_functions", "function_blocks",
        "max_call_depth",
    )] + [(name, ctypes.c_void_p) for name in (
        "block_pc", "block_end_pc", "block_kind", "block_dominant",
        "block_bias", "block_others", "slot_start", "slot_op", "slot_mode",
        "slot_key", "slot_stream_start", "hot_cursor",
    )] + [(name, ctypes.c_double) for name in (
        "stack_fraction", "hot_fraction", "reuse_exponent",
    )] + [(name, ctypes.c_int64) for name in (
        "stack_bytes", "hot_bytes", "region_bytes", "data_footprint",
        "stream_region", "data_base", "heap_base", "stream_base",
        "stack_base",
    )] + [(name, ctypes.c_void_p) for name in (
        "uniforms", "reuse_draws", "lookbacks",
    )] + [(name, ctypes.c_int64) for name in ("n_streams", "n_walkers")] + [
        (name, ctypes.c_void_p) for name in (
            "streams", "walkers", "call_stack", "pc", "op", "src1", "src2",
            "dst", "mem_addr", "branch_kind", "taken", "target",
            "redundancy_key",
        )]


#: numpy dtype of each ``SynthArgs`` array that is not ``int64``.
_SYNTH_DTYPES = {
    "block_bias": np.float64, "uniforms": np.float64,
    "reuse_draws": np.float64, "op": np.uint8, "branch_kind": np.uint8,
    "taken": np.bool_, "src1": np.int16, "src2": np.int16, "dst": np.int16,
}


def _synth_check(fields: dict) -> None:
    """Raise unless synth.c can run on ``fields`` within its arrays."""
    names = [name for name, _ in _SynthArgs._fields_]
    if sorted(fields) != sorted(names):
        raise TypeError("synthesize() needs exactly synth.c's SynthArgs "
                        f"fields, got {sorted(fields)}")
    n, blocks = fields["n"], fields["n_blocks"]
    functions = fields["n_functions"] * fields["function_blocks"]
    if min(n, fields["n_main"], fields["n_streams"], fields["n_walkers"],
           fields["region_bytes"]) < 1 or fields["n_functions"] < 0 or (
               fields["n_functions"] and fields["function_blocks"] < 1) \
            or fields["n_main"] + functions > blocks:
        raise ValueError("synthesize() scalars out of range")
    for name, kind in _SynthArgs._fields_:
        array = fields[name]
        if kind is ctypes.c_void_p and not (
                isinstance(array, np.ndarray) and array.flags.c_contiguous
                and array.dtype == _SYNTH_DTYPES.get(name, np.int64)):
            raise TypeError(f"synthesize(): {name} must be a C-contiguous "
                            f"{np.dtype(_SYNTH_DTYPES.get(name, np.int64))} "
                            "array")
    start = fields["slot_start"]
    if start.size != blocks + 1 or start[0] != 0 \
            or (np.diff(start) < 0).any():
        raise ValueError("synthesize(): slot_start must rise from 0 over "
                         "n_blocks + 1 entries")
    slots = int(start[-1])
    sizes = dict.fromkeys(("block_pc", "block_end_pc", "block_kind",
                           "block_dominant", "block_bias"), blocks)
    sizes.update(dict.fromkeys(("slot_op", "slot_mode", "slot_key",
                                "slot_stream_start", "hot_cursor"), slots))
    sizes.update(dict.fromkeys(("uniforms", "reuse_draws", "lookbacks"),
                               2 * n + 1))
    sizes.update(dict.fromkeys(("pc", "op", "src1", "src2", "dst",
                                "mem_addr", "branch_kind", "taken",
                                "target", "redundancy_key"), n))
    sizes.update(
        block_others=5 * blocks,                # synth.c's N_OTHERS
        streams=2 * fields["n_streams"], walkers=2 * fields["n_walkers"],
        call_stack=2 * min(max(fields["max_call_depth"], 0), n),
    )
    for name, size in sizes.items():
        if fields[name].size < size:
            raise ValueError(f"synthesize(): {name} holds "
                             f"{fields[name].size} < {size} entries")
    successors = (fields["block_dominant"], fields["block_others"])
    if any(a.size and (a.min() < 0 or a.max() >= blocks) for a in successors):
        raise ValueError("synthesize(): successor outside the program")


def synthesize(**fields) -> bool:
    """Run synth.c's emit loop on ``fields``, every ``SynthArgs``
    field by name: C-contiguous numpy arrays of the C field's type for
    the pointers, numbers for the rest.  The arrays are checked against
    the sizes and block indices the loop relies on.

    Returns False, touching nothing, when the kernel library is
    unavailable, so the caller runs its Python loop instead.
    """
    lib = _load()
    if lib is None:
        return False
    _synth_check(fields)
    args = _SynthArgs(**{
        name: value.ctypes.data if isinstance(value, np.ndarray) else value
        for name, value in fields.items()
    })
    lib.repro_synthesize(ctypes.byref(args))
    return True


class _BuildArgs(ctypes.Structure):
    """synth.c's ``BuildArgs``: scalars and array addresses, in order."""

    _fields_ = [("bitgen", ctypes.c_void_p), ("n_ops", ctypes.c_int64)] + [
        (name, ctypes.c_void_p) for name in ("ops", "cdf")
    ] + [("lam", ctypes.c_double), ("hot_words", ctypes.c_int64)] + [
        (name, ctypes.c_double) for name in (
            "streaming", "pointer", "redundancy")
    ] + [("n_keys", ctypes.c_int64), ("exponent", ctypes.c_double)] + [
        (name, ctypes.c_int64) for name in ("n_main", "loop_span")
    ] + [(name, ctypes.c_double) for name in (
        "call_fraction", "loop_fraction", "loop_bias_cap", "bias_alpha",
        "bias_beta",
    )] + [(name, ctypes.c_int64) for name in (
        "n_functions", "function_blocks",
    )] + [("nested_call_fraction", ctypes.c_double)] + [
        (name, ctypes.c_int64) for name in ("code_base", "slot_capacity")
    ] + [(name, ctypes.c_void_p) for name in (
        "block_pc", "block_end_pc", "block_kind", "block_dominant",
        "block_bias", "block_others", "slot_start", "slot_op", "slot_mode",
        "slot_key", "slot_stream_start", "hot_cursor",
    )]


#: numpy dtype of each ``BuildArgs`` array that is not ``int64``.
_BUILD_DTYPES = {"cdf": np.float64, "block_bias": np.float64}


def _build_check(fields: dict) -> None:
    """Raise unless synth.c can build a program from ``fields`` within
    its arrays, with sampler parameters numpy's Python layer accepts."""
    names = [name for name, _ in _BuildArgs._fields_]
    if sorted(fields) != sorted(names):
        raise TypeError("build_program() needs exactly synth.c's BuildArgs "
                        f"fields, got {sorted(fields)}")
    if not isinstance(fields["bitgen"], np.random.Generator):
        raise TypeError("build_program(): bitgen must be a "
                        "numpy.random.Generator")
    blocks = fields["n_main"] + fields["n_functions"] \
        * fields["function_blocks"]
    if min(fields["n_main"], fields["n_ops"], fields["hot_words"]) < 1 \
            or min(fields["n_functions"], fields["loop_span"],
                   fields["n_keys"], fields["slot_capacity"]) < 0 \
            or (fields["n_functions"] and fields["function_blocks"] < 1):
        raise ValueError("build_program() scalars out of range")
    # Generator.poisson and Generator.beta check these; their C does not.
    if not (math.isfinite(fields["lam"]) and fields["lam"] >= 0
            and math.isfinite(fields["exponent"]) and fields["exponent"] >= 0
            and all(math.isfinite(fields[name]) and fields[name] > 0
                    for name in ("bias_alpha", "bias_beta"))):
        raise ValueError("build_program() sampler parameters out of range")
    for name, kind in _BuildArgs._fields_[1:]:
        array = fields[name]
        if kind is ctypes.c_void_p and not (
                isinstance(array, np.ndarray) and array.flags.c_contiguous
                and array.dtype == _BUILD_DTYPES.get(name, np.int64)):
            raise TypeError(f"build_program(): {name} must be a C-contiguous "
                            f"{np.dtype(_BUILD_DTYPES.get(name, np.int64))} "
                            "array")
    sizes = dict.fromkeys(("ops", "cdf"), fields["n_ops"])
    sizes.update(dict.fromkeys(("block_pc", "block_end_pc", "block_kind",
                                "block_dominant", "block_bias"), blocks))
    sizes.update(dict.fromkeys(("slot_op", "slot_mode", "slot_key",
                                "slot_stream_start", "hot_cursor"),
                               fields["slot_capacity"]))
    sizes.update(block_others=5 * blocks,         # synth.c's N_OTHERS
                 slot_start=blocks + 1)
    for name, size in sizes.items():
        if fields[name].size < size:
            raise ValueError(f"build_program(): {name} holds "
                             f"{fields[name].size} < {size} entries")


def build_program(**fields):
    """Run synth.c's program build on ``fields``, every ``BuildArgs``
    field by name: the ``numpy.random.Generator`` to draw from as
    ``bitgen``, C-contiguous numpy arrays of the C field's type for the
    other pointers, numbers for the rest.  The arrays are checked
    against the sizes the build writes.

    Returns False, touching nothing, when the kernel library or its
    program build is unavailable, so the caller runs its Python builder
    instead.  Otherwise returns the number of slots the program needs.
    A number above ``slot_capacity`` means the slot arrays were too
    small and the arrays are incomplete: build again from a freshly
    seeded Generator with room for at least that many.
    """
    lib = _load()
    if lib is None or not hasattr(lib, "repro_build_program"):
        return False
    _build_check(fields)
    bit_generator = fields["bitgen"].bit_generator
    args = _BuildArgs(**{
        name: value.ctypes.data if isinstance(value, np.ndarray) else value
        for name, value in fields.items() if name != "bitgen"
    }, bitgen=bit_generator.ctypes.bit_generator.value)
    with bit_generator.lock:
        return lib.repro_build_program(ctypes.byref(args))
