"""The out-of-order superscalar pipeline.

A cycle-level model of a SimpleScalar-style machine with the five
classic stages, each bounded by the Table 6 resources:

* **fetch** — up to ``width`` instructions per cycle into the IFQ,
  breaking at taken branches; I-TLB + L1 I-cache timing on each new
  block; direction prediction, BTB target lookup and RAS push/pop
  happen here, and a mispredicted (or misfetched) branch stalls fetch
  until it resolves plus the misprediction penalty;
* **dispatch** — up to ``width`` per cycle from the IFQ into the
  reorder buffer (and LSQ for memory ops), building register and
  memory dependences;
* **issue** — up to ``width`` ready instructions per cycle to free
  functional units (Table 7 latencies/intervals), loads additionally
  needing a memory port and paying D-TLB + D-cache time;
* **writeback** — completed results wake dependents; branches resolve;
* **commit** — up to ``width`` per cycle in order; stores write the
  cache; the branch predictor trains.

Stages are evaluated oldest-first within a cycle (commit, writeback,
issue, dispatch, fetch) so information flows one stage per cycle.

The *instruction precomputation* enhancement (paper Section 4.3) hooks
in at issue: a compute instruction whose redundancy key is in the
precomputation table completes in one cycle without occupying a
functional unit.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set

from repro.guard.errors import SimulationHang

from .branch import (
    BranchTargetBuffer,
    ReturnAddressStack,
    make_direction_predictor,
)
from .cache import MemoryHierarchy
from .funits import FunctionalUnitPool
from .isa import COMPUTE_CLASSES, NO_VALUE, BranchKind, OpClass
from .params import MachineConfig
from .stats import CacheSnapshot, CoreStats

#: Version tag for the timing model.  Bump whenever a change alters the
#: cycle counts produced for an identical (config, trace) pair — the
#: execution engine's result cache keys on it, so stale measurements
#: from an older model are never reused.
#:
#: * ``"2"`` — differential-equivalence bugfix sweep (see
#:   CHANGELOG.md): circular RAS pops instead of ``None`` on
#:   underflow, the BTB misfetch bubble stalls the documented
#:   ``_MISFETCH_BUBBLE`` cycles (was one short), committing stores
#:   acquire a memory port (commit stops when none is free), and
#:   predictor history is repaired after mispredictions during
#:   functional warm-up.  Stall *attribution* also changed (front-end
#:   stalls only count when the IFQ has room), which alters
#:   ``stall_cycles`` but not timing.
#: * ``"1"`` — original timing model.
SIMULATOR_VERSION = "2"

_WAITING = 0
_ISSUED = 1
_DONE = 2

_NEVER = 1 << 60  # sentinel for "stalled until further notice"

#: Default retirement-progress watchdog threshold: a simulation that
#: commits nothing for this many consecutive cycles is declared hung
#: (:class:`~repro.guard.errors.SimulationHang`).  The longest
#: *legitimate* commit gap is bounded by draining a full ROB through
#: the slowest dependence chain — memory latencies plus FU intervals,
#: a few thousand cycles on any Table 6-8 configuration — so fifty
#: thousand cycles of silence is diagnostic, not conservative.  The
#: cycle-budget guard (``max_cycles``) still backstops pathological
#: configurations that commit one instruction per epoch.
HANG_CYCLES = 50_000

#: Cycles lost when a predicted-taken branch misses the BTB and the
#: target must be recomputed at decode.
_MISFETCH_BUBBLE = 3

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
_COMPUTE = frozenset(int(c) for c in COMPUTE_CLASSES)

_KIND_COND = int(BranchKind.CONDITIONAL)
_KIND_CALL = int(BranchKind.CALL)
_KIND_RETURN = int(BranchKind.RETURN)
_KIND_JUMP = int(BranchKind.JUMP)


class _RobEntry:
    """One in-flight instruction."""

    __slots__ = (
        "seq", "op", "state", "deps", "dependents", "dispatch_cycle",
        "mem_addr", "dst", "pc", "is_branch", "taken", "target",
        "kind", "mispredicted", "history_snapshot", "precomputed",
    )

    def __init__(self, seq: int, op: int):
        self.seq = seq
        self.op = op
        self.state = _WAITING
        self.deps = 0
        self.dependents: List["_RobEntry"] = []
        self.dispatch_cycle = 0
        self.mem_addr = NO_VALUE
        self.dst = -1
        self.pc = 0
        self.is_branch = False
        self.taken = False
        self.target = NO_VALUE
        self.kind = 0
        self.mispredicted = False
        self.history_snapshot = 0
        self.precomputed = False


class SimulationError(RuntimeError):
    """Raised when a run exceeds its cycle budget (a model deadlock)."""


class Pipeline:
    """One configured machine, ready to execute traces.

    Parameters
    ----------
    config:
        The machine to model.
    precompute_table:
        Optional set of redundancy keys pre-loaded into the
        instruction-precomputation table (see
        :mod:`repro.cpu.precompute` for building it).  ``None`` disables
        the enhancement entirely.
    prefetch_lines:
        Next-N-line data prefetching on L1D misses (0 = off), the
        second modelled enhancement.
    """

    def __init__(
        self,
        config: MachineConfig,
        precompute_table: Optional[Set[int]] = None,
        prefetch_lines: int = 0,
    ):
        self.config = config
        self.hierarchy = MemoryHierarchy(config, prefetch_lines)
        self.funits = FunctionalUnitPool(config)
        self.predictor = make_direction_predictor(
            config.branch_predictor, config.speculative_update
        )
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_assoc)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.precompute_table = precompute_table
        self.stats = CoreStats()

    # -- public API -----------------------------------------------------------

    def warm(self, trace) -> None:
        """Functionally warm caches, TLBs, BTB and predictor on a trace.

        Runs the reference stream through the memory structures and the
        branch predictor with no timing, then clears all counters —
        the standard warm-start discipline that keeps short-trace
        measurements from being dominated by compulsory misses.
        """
        hierarchy = self.hierarchy
        predictor = self.predictor
        block_size = self.config.l1i_block
        op_arr = trace.op.tolist()
        pc_arr = trace.pc.tolist()
        addr_arr = trace.mem_addr.tolist()
        kind_arr = trace.branch_kind.tolist()
        taken_arr = trace.taken.tolist()
        target_arr = trace.target.tolist()
        last_block = -1
        for i in range(len(trace)):
            pc = int(pc_arr[i])
            block = pc // block_size
            if block != last_block:
                hierarchy.instruction_fetch(pc)
                last_block = block
            op = int(op_arr[i])
            if op == _LOAD:
                hierarchy.data_access(int(addr_arr[i]), write=False)
            elif op == _STORE:
                hierarchy.data_access(int(addr_arr[i]), write=True)
            elif op == _BRANCH and int(kind_arr[i]) == _KIND_COND:
                taken = bool(taken_arr[i])
                if predictor is not None:
                    history = predictor.history
                    predicted = predictor.predict(pc)
                    predictor.update(pc, taken, history)
                    if predicted != taken:
                        # Mirror the timed pipeline: a speculative
                        # history update is repaired on misprediction,
                        # otherwise warm-up leaves the history register
                        # corrupted under speculative_update="decode".
                        predictor.repair(history, taken)
                if taken:
                    self.btb.insert(pc, int(target_arr[i]))
        hierarchy.reset_stats()

    def run(
        self,
        trace,
        max_cycles: Optional[int] = None,
        *,
        hang_cycles: Optional[int] = HANG_CYCLES,
        max_instructions: Optional[int] = None,
    ) -> CoreStats:
        """Execute a trace to completion and return its statistics.

        Three watchdogs guard the run (all diagnostic only — they can
        raise, never alter a successful run's numbers):

        * ``max_instructions`` — refuse a trace longer than the
          caller budgeted for, *before* burning cycles on it;
        * ``hang_cycles`` — raise
          :class:`~repro.guard.errors.SimulationHang` (with a
          pipeline/ROB/LSQ state dump) when no instruction retires
          for that many consecutive cycles; ``None`` disables;
        * ``max_cycles`` — the overall cycle budget
          (:class:`SimulationError`), defaulting to
          ``400 * len(trace) + 100_000``.

        A finished run's statistics are integrity-checked
        (:meth:`~repro.cpu.stats.CoreStats.validate`) before being
        returned, so NaN or overflowed derivations fail loudly here
        instead of skewing downstream effect tables.
        """
        n = len(trace)
        if max_instructions is not None and n > max_instructions:
            raise SimulationError(
                f"{trace.name}: trace has {n} instructions, over the "
                f"{max_instructions}-instruction budget"
            )
        if max_cycles is None:
            max_cycles = 400 * n + 100_000
        config = self.config
        stats = self.stats
        hierarchy = self.hierarchy
        funits = self.funits
        predictor = self.predictor
        perfect = predictor is None and config.branch_predictor == "perfect"

        # Plain Python lists index an order of magnitude faster than
        # numpy scalars in this per-instruction loop.
        op_arr = trace.op.tolist()
        pc_arr = trace.pc.tolist()
        src1_arr = trace.src1.tolist()
        src2_arr = trace.src2.tolist()
        dst_arr = trace.dst.tolist()
        addr_arr = trace.mem_addr.tolist()
        kind_arr = trace.branch_kind.tolist()
        taken_arr = trace.taken.tolist()
        target_arr = trace.target.tolist()
        key_arr = trace.redundancy_key.tolist()

        width = config.width
        ifq_capacity = config.ifq_entries
        rob_capacity = config.rob_entries
        lsq_capacity = config.lsq_entries
        penalty = config.mispredict_penalty
        redirect_extra = config.l1i_latency - 1
        block_size = config.l1i_block
        table = self.precompute_table

        # Fetch state
        fetch_index = 0
        fetch_stall_until = 0
        last_fetch_block = -1
        #: True while the pending fetch stall is misprediction
        #: recovery, False while it is I-side latency (cache/TLB time
        #: or a BTB misfetch bubble) — drives stall attribution only.
        fetch_block_mispredict = False

        # Stall-cycle attribution (observational; see
        # CoreStats.stall_cycles).  Plain local ints in the hot loop,
        # folded into the stats dict once at the end.
        stall_fetch = 0
        stall_mispredict = 0
        stall_rob = 0
        stall_lsq = 0
        stall_fu = 0
        #: per fetched-branch info awaiting dispatch: index -> (mispredicted, history)
        fetch_info: Dict[int, tuple] = {}
        ifq: deque = deque()  # (trace index, fetch cycle)

        # Backend state
        rob: deque = deque()
        lsq_occupancy = 0
        ready: List[_RobEntry] = []
        reg_producer: Dict[int, _RobEntry] = {}
        store_for_addr: Dict[int, _RobEntry] = {}
        completions: Dict[int, List[_RobEntry]] = {}
        committed = 0
        seq = 0

        cycle = 0
        last_commit_cycle = 0
        while committed < n:
            cycle += 1
            if cycle > max_cycles:
                raise SimulationError(
                    f"{trace.name}: exceeded {max_cycles} cycles with "
                    f"{committed}/{n} committed — model deadlock?"
                )
            if hang_cycles is not None \
                    and cycle - last_commit_cycle > hang_cycles:
                raise SimulationHang(
                    f"{trace.name}: no instruction retired for "
                    f"{cycle - last_commit_cycle} cycles "
                    f"({committed}/{n} committed at cycle {cycle}) — "
                    "livelocked simulation",
                    dump=self._hang_dump(
                        trace, cycle, committed, n, fetch_index,
                        ifq, rob, lsq_occupancy, ready, completions,
                        fetch_stall_until, fetch_block_mispredict,
                    ),
                )

            # ---- commit ------------------------------------------------------
            budget = width
            while budget and rob and rob[0].state == _DONE:
                entry = rob[0]
                if entry.op == _STORE \
                        and not funits.can_issue(_STORE, cycle):
                    # The store's cache write needs a memory port at
                    # commit; none free means commit stops here this
                    # cycle (sim-outorder's ruu_commit discipline).
                    break
                rob.popleft()
                budget -= 1
                committed += 1
                last_commit_cycle = cycle
                if entry.op == _STORE:
                    funits.issue(_STORE, cycle, count=False)
                    hierarchy.data_access(entry.mem_addr, write=True)
                    if store_for_addr.get(entry.mem_addr) is entry:
                        del store_for_addr[entry.mem_addr]
                    lsq_occupancy -= 1
                elif entry.op == _LOAD:
                    lsq_occupancy -= 1
                if entry.is_branch and predictor is not None \
                        and entry.kind == _KIND_COND:
                    predictor.update(
                        entry.pc, entry.taken, entry.history_snapshot
                    )

            # ---- writeback ---------------------------------------------------
            done_now = completions.pop(cycle, None)
            if done_now:
                for entry in done_now:
                    entry.state = _DONE
                    for dependent in entry.dependents:
                        dependent.deps -= 1
                        if dependent.deps == 0 and dependent.state == _WAITING:
                            ready.append(dependent)
                    entry.dependents = []
                    if entry.is_branch:
                        if entry.mispredicted:
                            fetch_stall_until = cycle + penalty + redirect_extra
                            fetch_block_mispredict = True
                            if predictor is not None \
                                    and entry.kind == _KIND_COND:
                                predictor.repair(
                                    entry.history_snapshot, entry.taken
                                )
                        if entry.kind == _KIND_COND and entry.taken:
                            self.btb.insert(entry.pc, entry.target)

            # ---- issue -------------------------------------------------------
            if ready:
                ready.sort(key=lambda e: e.seq)
                budget = width
                issued_any: List[int] = []
                fu_blocked = False
                for pos, entry in enumerate(ready):
                    if budget == 0:
                        break
                    if entry.dispatch_cycle >= cycle:
                        continue
                    if entry.precomputed:
                        latency = 1
                        stats.precompute_hits += 1
                    elif funits.can_issue(entry.op, cycle):
                        latency = funits.issue(entry.op, cycle)
                        if entry.op == _LOAD:
                            latency = max(
                                latency,
                                hierarchy.data_access(
                                    entry.mem_addr, write=False
                                ),
                            )
                    else:
                        fu_blocked = True
                        continue
                    entry.state = _ISSUED
                    when = cycle + latency
                    completions.setdefault(when, []).append(entry)
                    issued_any.append(pos)
                    budget -= 1
                for pos in reversed(issued_any):
                    ready.pop(pos)
                if fu_blocked and not issued_any:
                    # Ready work existed but every candidate waited on
                    # a busy functional unit: a fully FU-bound cycle.
                    stall_fu += 1

            # ---- dispatch ----------------------------------------------------
            budget = width
            while budget and ifq:
                index, fetched_at = ifq[0]
                if fetched_at >= cycle:
                    break
                op = int(op_arr[index])
                is_mem = op == _LOAD or op == _STORE
                if len(rob) >= rob_capacity:
                    stats.dispatch_stall_rob += 1
                    stall_rob += 1
                    break
                if is_mem and lsq_occupancy >= lsq_capacity:
                    stats.dispatch_stall_lsq += 1
                    stall_lsq += 1
                    break
                ifq.popleft()
                budget -= 1
                entry = _RobEntry(seq, op)
                seq += 1
                entry.dispatch_cycle = cycle
                entry.pc = int(pc_arr[index])
                if table is not None and op in _COMPUTE:
                    key = int(key_arr[index])
                    if key != NO_VALUE and key in table:
                        entry.precomputed = True
                # Register dependences.
                for reg in (int(src1_arr[index]), int(src2_arr[index])):
                    if reg >= 0:
                        producer = reg_producer.get(reg)
                        if producer is not None and producer.state != _DONE:
                            entry.deps += 1
                            producer.dependents.append(entry)
                dst = int(dst_arr[index])
                if dst >= 0:
                    reg_producer[dst] = entry
                # Memory dependences and LSQ occupancy.
                if is_mem:
                    addr = int(addr_arr[index])
                    entry.mem_addr = addr
                    lsq_occupancy += 1
                    if op == _LOAD:
                        store = store_for_addr.get(addr)
                        if store is not None and store.state != _DONE:
                            entry.deps += 1
                            store.dependents.append(entry)
                    else:
                        store_for_addr[addr] = entry
                # Branch bookkeeping (prediction happened at fetch).
                if op == _BRANCH:
                    entry.is_branch = True
                    entry.taken = bool(taken_arr[index])
                    entry.target = int(target_arr[index])
                    entry.kind = int(kind_arr[index])
                    info = fetch_info.pop(index, None)
                    if info is not None:
                        entry.mispredicted, entry.history_snapshot = info
                rob.append(entry)
                if entry.deps == 0:
                    ready.append(entry)

            # ---- fetch -------------------------------------------------------
            if fetch_index < n and fetch_stall_until > cycle:
                # Front end stalled this whole cycle; attribute it —
                # but only when fetch could otherwise have progressed
                # (a full IFQ means the stall is hidden behind a
                # back-end bottleneck, not a front-end one).
                if len(ifq) < ifq_capacity:
                    if fetch_block_mispredict:
                        stall_mispredict += 1
                    else:
                        stall_fetch += 1
            elif fetch_index < n:
                budget = width
                while budget and len(ifq) < ifq_capacity and fetch_index < n:
                    index = fetch_index
                    pc = int(pc_arr[index])
                    block = pc // block_size
                    if block != last_fetch_block:
                        latency = hierarchy.instruction_fetch(pc)
                        last_fetch_block = block
                        extra = latency - config.l1i_latency
                        if extra > 0:
                            fetch_stall_until = cycle + extra
                            fetch_block_mispredict = False
                            break
                    ifq.append((index, cycle))
                    fetch_index += 1
                    budget -= 1
                    if op_arr[index] == _BRANCH:
                        stop = self._fetch_branch(
                            index, pc, int(kind_arr[index]),
                            bool(taken_arr[index]), int(target_arr[index]),
                            perfect, fetch_info, pc_arr, n,
                        )
                        if stop == 2:  # mispredicted: wait for resolution
                            fetch_stall_until = _NEVER
                            fetch_block_mispredict = True
                            break
                        if stop == 3:  # BTB misfetch: decode redirect
                            # Stall the *next* _MISFETCH_BUBBLE whole
                            # cycles (the stall test is strict, so the
                            # +1 is what makes the bubble full-width).
                            fetch_stall_until = \
                                cycle + _MISFETCH_BUBBLE + 1
                            fetch_block_mispredict = False
                            break
                        if stop == 1:  # predicted taken: fetch group ends
                            break

            stats.rob_occupancy_sum += len(rob)

        stats.cycles = cycle
        stats.instructions = committed
        stats.stall_cycles = {
            "fetch": stall_fetch,
            "fu_busy": stall_fu,
            "lsq_full": stall_lsq,
            "mispredict": stall_mispredict,
            "rob_full": stall_rob,
        }
        self._snapshot_memory(stats)
        stats.unit_operations = funits.utilization()
        return stats.validate(trace.name)

    # -- helpers ---------------------------------------------------------------

    def _hang_dump(self, trace, cycle, committed, n, fetch_index,
                   ifq, rob, lsq_occupancy, ready, completions,
                   fetch_stall_until, fetch_block_mispredict) -> dict:
        """Machine-state snapshot attached to a :class:`SimulationHang`.

        Everything a post-mortem needs to localize a livelock without
        re-running: where fetch stopped, what the buffers hold, and
        the instruction blocking the head of the ROB.
        """
        dump = {
            "trace": trace.name,
            "cycle": cycle,
            "committed": committed,
            "instructions": n,
            "fetch_index": fetch_index,
            "fetch_stall_until": fetch_stall_until,
            "fetch_block_mispredict": fetch_block_mispredict,
            "ifq_occupancy": len(ifq),
            "rob_occupancy": len(rob),
            "lsq_occupancy": lsq_occupancy,
            "ready_instructions": len(ready),
            "pending_completions": sum(
                len(batch) for batch in completions.values()
            ),
        }
        if rob:
            head = rob[0]
            dump["rob_head"] = {
                "seq": head.seq,
                "op": int(head.op),
                "state": head.state,
                "unresolved_deps": head.deps,
                "pc": head.pc,
                "is_branch": head.is_branch,
                "precomputed": head.precomputed,
            }
        return dump

    def _fetch_branch(
        self, index, pc, kind, taken, target, perfect, fetch_info,
        pc_arr, n,
    ) -> int:
        """Predict one fetched branch.

        Returns 0 to continue fetching inline, 1 to end this cycle's
        fetch group (predicted-taken), 2 on a misprediction (fetch must
        wait for resolution plus the penalty), 3 on a BTB misfetch (a
        short decode-redirect bubble).  Records (mispredicted, history
        snapshot) for dispatch in ``fetch_info``.
        """
        stats = self.stats
        stats.branches += 1
        if perfect:
            fetch_info[index] = (False, 0)
            return 1 if taken else 0
        if kind == _KIND_COND:
            history = self.predictor.history
            predicted_taken = self.predictor.predict(pc)
            if predicted_taken != taken:
                stats.mispredictions += 1
                fetch_info[index] = (True, history)
                return 2
            if not taken:
                fetch_info[index] = (False, history)
                return 0
            # Correctly predicted taken: need the target from the BTB.
            # A miss is a *misfetch*: the target is recomputed at decode,
            # costing a short fixed bubble rather than the full
            # misprediction penalty (the branch direction was right).
            cached = self.btb.lookup(pc)
            if cached is None or cached != target:
                stats.btb_misfetches += 1
                fetch_info[index] = (False, history)
                return 3
            fetch_info[index] = (False, history)
            return 1
        if kind == _KIND_CALL:
            # Target is decoded from the instruction; push the return
            # address for the matching return.
            self.ras.push(pc + 4)
            fetch_info[index] = (False, 0)
            return 1
        if kind == _KIND_RETURN:
            predicted = self.ras.pop()
            if predicted != target:
                stats.mispredictions += 1
                stats.ras_mispredictions += 1
                fetch_info[index] = (True, 0)
                return 2
            fetch_info[index] = (False, 0)
            return 1
        # Direct unconditional jump: target known at decode.
        fetch_info[index] = (False, 0)
        return 1

    def _snapshot_memory(self, stats: CoreStats) -> None:
        h = self.hierarchy
        for name, unit in (
            ("l1i", h.l1i), ("l1d", h.l1d), ("l2", h.l2),
            ("itlb", h.itlb), ("dtlb", h.dtlb),
        ):
            s = unit.stats
            setattr(stats, name, CacheSnapshot(
                accesses=s.accesses, misses=s.misses,
                writebacks=getattr(s, "writebacks", 0),
            ))


#: The selectable simulator cores.  There are two implementations: the
#: compiled kernel (:mod:`repro.cpu.native`) and the interpreted
#: per-instruction model above, ``"reference"`` — the equivalence
#: oracle.  ``"batched"`` (the default) runs the kernel when it loads
#: and the reference model otherwise (no C toolchain, a failed build,
#: or ``REPRO_NATIVE=0``); ``"batched-native"`` demands the kernel and
#: fails loudly without it.  Both implementations produce bit-identical
#: :class:`CoreStats` (enforced by :mod:`repro.cpu.equivalence`), so
#: the choice never enters a result-cache key beyond the normalized
#: family (see :func:`repro.exec.cache.task_key`).
SIMULATOR_CORES = ("batched", "batched-native", "reference")


def simulate(
    config: MachineConfig,
    trace,
    precompute_table: Optional[Set[int]] = None,
    max_cycles: Optional[int] = None,
    warmup: bool = False,
    prefetch_lines: int = 0,
    hang_cycles: Optional[int] = HANG_CYCLES,
    max_instructions: Optional[int] = None,
    core: str = "batched",
) -> CoreStats:
    """Run one trace on a freshly-built machine; the main entry point.

    Every call builds a fresh machine, so results are deterministic
    functions of ``(config, trace, warmup)``.  With ``warmup=True`` the
    trace is first replayed functionally through the caches, TLBs, BTB
    and predictor (no timing), so the measurement reflects steady-state
    behaviour rather than compulsory misses — the discipline the
    experiment layer uses for every Plackett-Burman run.

    ``core`` picks the implementation (:data:`SIMULATOR_CORES`); every
    core is required to produce identical statistics, so this is a
    speed knob, not a model knob.

    ``hang_cycles`` and ``max_instructions`` are the watchdog knobs of
    :meth:`Pipeline.run`: a run that stops retiring raises
    :class:`~repro.guard.errors.SimulationHang` with a state dump, an
    oversized trace is refused up front, and a numerically broken
    result raises :class:`~repro.guard.errors.StatsInvalid` instead of
    polluting downstream rank sums.
    """
    if core not in SIMULATOR_CORES:
        raise ValueError(
            f"unknown simulator core {core!r}; pick one of "
            f"{', '.join(SIMULATOR_CORES)}"
        )
    if core in ("batched", "batched-native"):
        from .native import simulate_native

        stats = simulate_native(
            config, trace, precompute_table, max_cycles, warmup,
            prefetch_lines, hang_cycles, max_instructions,
            required=core == "batched-native",
        )
        if stats is not None:
            return stats
        # No kernel: the reference model is exactly equivalent.
    pipeline = Pipeline(config, precompute_table, prefetch_lines)
    if warmup:
        pipeline.warm(trace)
    return pipeline.run(
        trace, max_cycles,
        hang_cycles=hang_cycles, max_instructions=max_instructions,
    )
