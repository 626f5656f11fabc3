"""Loader for the compiled simulator kernel.

The default core runs ``_native/core.c``, a compiled cycle loop that
produces **field-exact** :class:`~repro.cpu.stats.CoreStats` against
the interpreted reference model, enforced by
:mod:`repro.cpu.equivalence` over every core.

This module owns the build-and-load machinery:

* the kernel is compiled on demand with whatever C compiler is on
  ``PATH`` (``cc``/``gcc``/``clang``) into a **content-addressed**
  shared object — the cache key hashes the source, the flags and the
  compiler, so editing ``core.c`` can never pick up a stale build;
* builds are atomic (temp file + ``os.replace``), so concurrent
  worker processes racing to build produce one good artifact;
* everything degrades gracefully: no toolchain, a failed build, or
  ``REPRO_NATIVE=0`` simply returns ``None`` and the caller falls
  back to the batched Python loop.  ``core="batched-native"`` makes
  the failure loud instead.

The compiled kernel is a pure function from (config vector, trace
arrays) to a counter vector: no global state, no threads, no
callbacks into Python — safe under ``fork`` and trivially
deterministic.  The per-call Python work is kept to a minimum: the
config vector is built once per :class:`MachineConfig` object and the
trace pointers once per :class:`~repro.workloads.trace.DecodedTrace`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import weakref
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.guard.errors import SimulationHang

from .isa import COMPUTE_CLASSES, NO_VALUE, BranchKind, OpClass
from .params import MachineConfig
from .pipeline import SimulationError
from .stats import CacheSnapshot, CoreStats

_SOURCE = Path(__file__).resolve().parent / "_native" / "core.c"
_CFLAGS = ("-O2", "-std=c99", "-fPIC", "-shared")


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


def _build(compiler: str) -> Path:
    """Compile the kernel into the content-addressed cache; idempotent."""
    source = _SOURCE.read_bytes()
    cflags = _cflags()
    digest = hashlib.sha256(
        source + b"\0" + " ".join(cflags).encode() + b"\0"
        + compiler.encode()
    ).hexdigest()[:20]
    cache = _cache_dir()
    artifact = cache / f"core-{digest}.so"
    if artifact.exists():
        return artifact
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(cache), suffix=".so.tmp")
    os.close(fd)
    try:
        result = subprocess.run(
            [compiler, *cflags, "-o", tmp, str(_SOURCE)],
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
            ctypes.c_void_p,                      # out
        ]
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
    Raises exactly the exceptions the Python cores raise — same
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
    status = lib.repro_simulate(
        cfg, _trace_arrays(trace),
        None if pre is None else pre.ctypes.data, out,
    )
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
