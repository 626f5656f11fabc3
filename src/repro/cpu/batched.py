"""The batched structure-of-arrays simulator core.

This is the same machine as :class:`~repro.cpu.pipeline.Pipeline` —
bit-identical statistics, enforced by the differential-equivalence
harness (:mod:`repro.cpu.equivalence`) — with the hot loop
restructured for speed:

* the trace is decoded **once** into typed dependence arrays
  (:meth:`~repro.workloads.trace.Trace.decoded`): register and store
  producers become static ``int32`` indices instead of dictionaries
  rebuilt per run;
* per-instruction ROB entries become parallel flat arrays (state,
  dependence counts, history snapshots) indexed by trace position —
  the sequence number *is* the index;
* per-configuration properties that are state-independent are
  precomputed as vectorized passes at run start (precomputation-table
  membership via ``np.isin``, instruction-block boundaries);
* the remaining cycle loop walks plain Python ints over those arrays
  — no per-instruction object allocation, no attribute dispatch.

State-*dependent* machinery (cache/TLB contents, predictor counters,
BTB/RAS, functional-unit occupancy) cannot be precomputed without
changing the model, so the batched core drives the **same** component
objects the reference core uses — one implementation of each
structure, shared by both cores, keeps the equivalence surface small.

When a C toolchain is available the cycle loop itself is replaced by
a compiled kernel (:mod:`repro.cpu.native`) over the same decoded
arrays; this module is the portable fallback.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.guard.errors import SimulationHang

from .isa import BranchKind, OpClass
from .native import _precompute_flags
from .pipeline import (
    HANG_CYCLES,
    Pipeline,
    SimulationError,
    _DONE,
    _ISSUED,
    _MISFETCH_BUBBLE,
    _NEVER,
    _WAITING,
)
from .stats import CoreStats

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
_KIND_COND = int(BranchKind.CONDITIONAL)


def run_batched(
    pipeline: Pipeline,
    trace,
    max_cycles: Optional[int] = None,
    *,
    hang_cycles: Optional[int] = HANG_CYCLES,
    max_instructions: Optional[int] = None,
) -> CoreStats:
    """Execute ``trace`` on ``pipeline``'s components, batched.

    Mirrors :meth:`Pipeline.run` stage for stage — commit, writeback,
    issue, dispatch, fetch, oldest first — including every watchdog
    (same thresholds, same messages, same state dump).
    """
    n = len(trace)
    if max_instructions is not None and n > max_instructions:
        raise SimulationError(
            f"{trace.name}: trace has {n} instructions, over the "
            f"{max_instructions}-instruction budget"
        )
    if max_cycles is None:
        max_cycles = 400 * n + 100_000
    config = pipeline.config
    stats = pipeline.stats
    hierarchy = pipeline.hierarchy
    funits = pipeline.funits
    predictor = pipeline.predictor
    perfect = predictor is None and config.branch_predictor == "perfect"

    decoded = trace.decoded()
    op_arr = trace.op.tolist()
    pc_arr = trace.pc.tolist()
    addr_arr = trace.mem_addr.tolist()
    kind_arr = trace.branch_kind.tolist()
    taken_arr = trace.taken.tolist()
    target_arr = trace.target.tolist()
    prod1 = decoded.prod1.tolist()
    prod2 = decoded.prod2.tolist()
    store_prod = decoded.store_prod.tolist()
    pre_flags = _precompute_flags(trace, pipeline.precompute_table)
    if pre_flags is not None:
        pre_flags = pre_flags.tolist()

    width = config.width
    ifq_capacity = config.ifq_entries
    rob_capacity = config.rob_entries
    lsq_capacity = config.lsq_entries
    penalty = config.mispredict_penalty
    redirect_extra = config.l1i_latency - 1
    block_arr = (trace.pc // config.l1i_block).tolist()

    # Per-instruction flat state (sequence number == trace index).
    state = bytearray(n)            # _WAITING/_ISSUED/_DONE
    deps = [0] * n
    dependents: List[Optional[list]] = [None] * n
    dispatch_cycle = [0] * n
    mispred_flag = bytearray(n)
    history_arr = [0] * n
    precomputed = bytearray(n)

    # Fetch state
    fetch_index = 0
    fetch_stall_until = 0
    last_fetch_block = -1
    fetch_block_mispredict = False
    stall_fetch = 0
    stall_mispredict = 0
    stall_rob = 0
    stall_lsq = 0
    stall_fu = 0
    fetch_info: Dict[int, tuple] = {}
    ifq: deque = deque()            # (trace index, fetch cycle)

    # Backend state
    rob: deque = deque()            # trace indices, oldest first
    lsq_occupancy = 0
    ready: List[int] = []
    completions: Dict[int, List[int]] = {}
    committed = 0

    misfetch_resume = _MISFETCH_BUBBLE + 1
    fetch_branch = pipeline._fetch_branch

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
                dump=_hang_dump(
                    trace, cycle, committed, n, fetch_index,
                    ifq, rob, lsq_occupancy, ready, completions,
                    fetch_stall_until, fetch_block_mispredict,
                    op_arr, pc_arr, state, deps, precomputed,
                ),
            )

        # ---- commit ----------------------------------------------------------
        budget = width
        while budget and rob and state[rob[0]] == _DONE:
            index = rob[0]
            op = op_arr[index]
            if op == _STORE and not funits.can_issue(_STORE, cycle):
                break
            rob.popleft()
            budget -= 1
            committed += 1
            last_commit_cycle = cycle
            if op == _STORE:
                funits.issue(_STORE, cycle, count=False)
                hierarchy.data_access(addr_arr[index], write=True)
                lsq_occupancy -= 1
            elif op == _LOAD:
                lsq_occupancy -= 1
            elif op == _BRANCH and predictor is not None \
                    and kind_arr[index] == _KIND_COND:
                predictor.update(
                    pc_arr[index], taken_arr[index], history_arr[index]
                )

        # ---- writeback -------------------------------------------------------
        done_now = completions.pop(cycle, None)
        if done_now:
            for index in done_now:
                state[index] = _DONE
                waiting = dependents[index]
                if waiting:
                    for dep in waiting:
                        deps[dep] -= 1
                        if deps[dep] == 0 and state[dep] == _WAITING:
                            ready.append(dep)
                    dependents[index] = None
                if op_arr[index] == _BRANCH:
                    kind = kind_arr[index]
                    if mispred_flag[index]:
                        fetch_stall_until = cycle + penalty + redirect_extra
                        fetch_block_mispredict = True
                        if predictor is not None and kind == _KIND_COND:
                            predictor.repair(
                                history_arr[index], taken_arr[index]
                            )
                    if kind == _KIND_COND and taken_arr[index]:
                        pipeline.btb.insert(
                            pc_arr[index], target_arr[index]
                        )

        # ---- issue -----------------------------------------------------------
        if ready:
            ready.sort()
            budget = width
            issued_any: List[int] = []
            fu_blocked = False
            for pos, index in enumerate(ready):
                if budget == 0:
                    break
                if dispatch_cycle[index] >= cycle:
                    continue
                op = op_arr[index]
                if precomputed[index]:
                    latency = 1
                    stats.precompute_hits += 1
                elif funits.can_issue(op, cycle):
                    latency = funits.issue(op, cycle)
                    if op == _LOAD:
                        latency = max(
                            latency,
                            hierarchy.data_access(
                                addr_arr[index], write=False
                            ),
                        )
                else:
                    fu_blocked = True
                    continue
                state[index] = _ISSUED
                when = cycle + latency
                batch = completions.get(when)
                if batch is None:
                    completions[when] = [index]
                else:
                    batch.append(index)
                issued_any.append(pos)
                budget -= 1
            for pos in reversed(issued_any):
                ready.pop(pos)
            if fu_blocked and not issued_any:
                stall_fu += 1

        # ---- dispatch --------------------------------------------------------
        budget = width
        while budget and ifq:
            index, fetched_at = ifq[0]
            if fetched_at >= cycle:
                break
            op = op_arr[index]
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
            dispatch_cycle[index] = cycle
            if pre_flags is not None and pre_flags[index]:
                precomputed[index] = 1
            count = 0
            producer = prod1[index]
            if producer >= 0 and state[producer] != _DONE:
                count += 1
                waiting = dependents[producer]
                if waiting is None:
                    dependents[producer] = [index]
                else:
                    waiting.append(index)
            producer = prod2[index]
            if producer >= 0 and state[producer] != _DONE:
                count += 1
                waiting = dependents[producer]
                if waiting is None:
                    dependents[producer] = [index]
                else:
                    waiting.append(index)
            if is_mem:
                lsq_occupancy += 1
                if op == _LOAD:
                    producer = store_prod[index]
                    if producer >= 0 and state[producer] != _DONE:
                        count += 1
                        waiting = dependents[producer]
                        if waiting is None:
                            dependents[producer] = [index]
                        else:
                            waiting.append(index)
            elif op == _BRANCH:
                info = fetch_info.pop(index, None)
                if info is not None:
                    mispred_flag[index] = info[0]
                    history_arr[index] = info[1]
            deps[index] = count
            rob.append(index)
            if count == 0:
                ready.append(index)

        # ---- fetch -----------------------------------------------------------
        if fetch_index < n and fetch_stall_until > cycle:
            if len(ifq) < ifq_capacity:
                if fetch_block_mispredict:
                    stall_mispredict += 1
                else:
                    stall_fetch += 1
        elif fetch_index < n:
            budget = width
            while budget and len(ifq) < ifq_capacity and fetch_index < n:
                index = fetch_index
                block = block_arr[index]
                if block != last_fetch_block:
                    latency = hierarchy.instruction_fetch(pc_arr[index])
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
                    stop = fetch_branch(
                        index, pc_arr[index], kind_arr[index],
                        taken_arr[index], target_arr[index],
                        perfect, fetch_info, pc_arr, n,
                    )
                    if stop == 2:
                        fetch_stall_until = _NEVER
                        fetch_block_mispredict = True
                        break
                    if stop == 3:
                        fetch_stall_until = cycle + misfetch_resume
                        fetch_block_mispredict = False
                        break
                    if stop == 1:
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
    pipeline._snapshot_memory(stats)
    stats.unit_operations = funits.utilization()
    return stats.validate(trace.name)


def _hang_dump(trace, cycle, committed, n, fetch_index, ifq, rob,
               lsq_occupancy, ready, completions, fetch_stall_until,
               fetch_block_mispredict, op_arr, pc_arr, state, deps,
               precomputed) -> dict:
    """Same shape and content as ``Pipeline._hang_dump`` — watchdog
    diagnostics must not depend on which core tripped them."""
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
            "seq": head,
            "op": int(op_arr[head]),
            "state": state[head],
            "unresolved_deps": deps[head],
            "pc": pc_arr[head],
            "is_branch": op_arr[head] == _BRANCH,
            "precomputed": bool(precomputed[head]),
        }
    return dump
