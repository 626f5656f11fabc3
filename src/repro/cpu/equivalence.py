"""Differential equivalence: the compiled kernel against the oracle.

The compiled kernel (:mod:`repro.cpu.native`, core ``batched-native``)
must produce **field-exact** :class:`~repro.cpu.stats.CoreStats` for
every (configuration, trace) pair the interpreted reference model
handles.  This module is the harness that earns that claim:

* :func:`random_machine` samples configurations across the full
  Plackett-Burman ±1 design space *plus* off-space corners the screen
  never visits (one-entry RAS, two-entry IFQ, tournament/bimodal/
  static predictors, random replacement, tiny ROBs) — the corners are
  where the version-2 bugfix sweep found every reference-model bug —
  and the corners the compiled kernel has separate code for (ROBs
  past 64 entries, set counts, blocks and pages that are not powers
  of two, TLBs small enough to evict);
* :func:`random_trace` mixes the 13 synthetic benchmark profiles with
  hand-built corner traces (deep call chains that wrap the RAS,
  misfetch storms, same-address store bursts, precompute-saturated
  streams, page-stride accesses, negative program counters, tight
  branch loops);
* :func:`compare_cores` runs one pair on the kernel and the oracle
  and reports the exact fields that disagree (empty = equivalent);
* :func:`differential_sweep` drives N randomized pairs and collects
  every divergence.

``repro diffcore`` is the CLI face of the sweep; CI runs it as a
smoke on every push.  Both functions demand the kernel: without it
they raise :class:`RuntimeError` naming the loader's reason rather
than compare the reference with itself.  A divergence here means
either a kernel bug (fix it) or an intentional timing change (bump
``SIMULATOR_VERSION`` and re-pin the goldens) — never a tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.cpu.isa import NO_VALUE, BranchKind, Instruction, OpClass
from repro.cpu.params import (
    DEFAULT_CONFIG,
    KIB,
    PARAMETER_NAMES,
    MachineConfig,
)
from repro.cpu.pipeline import simulate
from repro.cpu.stats import CoreStats
from repro.guard.audit import differing_fields
from repro.workloads import PROFILES
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import Trace

#: Predictor kinds beyond the PB levels (low=2level, high=perfect).
_PREDICTORS = ("2level", "bimodal", "taken", "tournament", "perfect")


def random_machine(rng: random.Random) -> MachineConfig:
    """One randomized machine: a PB design-space point, then with
    probability ~1/2 pushed into an off-space corner."""
    from repro.cpu.params import config_from_levels

    levels = {name: rng.choice((-1, 1)) for name in PARAMETER_NAMES}
    config = config_from_levels(levels, base=DEFAULT_CONFIG)
    if rng.random() < 0.5:
        return config
    corners = {}
    if rng.random() < 0.4:
        corners["ras_entries"] = rng.choice((1, 2, 3))
    if rng.random() < 0.4:
        corners["ifq_entries"] = rng.choice((1, 2))
    if rng.random() < 0.4:
        rob = rng.choice((2, 4, 6))
        corners["rob_entries"] = rob
        corners["lsq_entries"] = max(1, rob // 2)
    if rng.random() < 0.4:
        corners["width"] = rng.choice((1, 2, 8))
    if rng.random() < 0.4:
        corners["branch_predictor"] = rng.choice(_PREDICTORS)
    if rng.random() < 0.3:
        corners["memory_ports"] = 1
    if rng.random() < 0.3:
        corners["replacement_policy"] = rng.choice(("lru", "random"))
    if rng.random() < 0.3:
        corners["speculative_update"] = rng.choice(("commit", "decode"))
    if rng.random() < 0.25:
        corners.update(rng.choice(LARGE_ROBS))
    if rng.random() < 0.3:
        corners.update(rng.choice(ODD_GEOMETRIES))
    if rng.random() < 0.2:
        corners.update(TINY_TLBS)
    if not corners:
        return config
    return config.evolve(**corners)


#: Reorder buffers past one 64-slot word of the compiled kernel's
#: ready set (65 and 96 are not powers of two either).
LARGE_ROBS = tuple(
    {"rob_entries": rob, "lsq_entries": lsq}
    for rob, lsq in ((65, 32), (96, 96), (128, 64), (256, 128))
)

#: Geometry whose set counts, block sizes or page sizes are not powers
#: of two, so the kernel indexes by division instead of shift and mask.
ODD_GEOMETRIES = (
    {"l1d_size": 48 * KIB, "l1d_assoc": 4},
    {"l2_size": 768 * KIB, "l2_assoc": 4},
    {"btb_entries": 96, "btb_assoc": 4},
    {"itlb_entries": 48, "itlb_assoc": 4,
     "dtlb_entries": 48, "dtlb_assoc": 4},
    {"itlb_page_size": 6 * KIB},
    {"l1i_size": 48 * KIB, "l1i_block": 48, "l1i_assoc": 2},
)

#: TLBs small enough that ordinary traces fill their sets and evict.
TINY_TLBS = {"itlb_entries": 4, "itlb_assoc": 2,
             "dtlb_entries": 8, "dtlb_assoc": 2}


# -- corner traces ------------------------------------------------------------


def _deep_call_chain(rng: random.Random) -> Trace:
    """Calls nested past any RAS depth, then the unwind — exercises
    RAS wraparound and underflow on every return."""
    depth = rng.randint(20, 80)
    instrs: List[Instruction] = []
    stack = []
    pc = 0x1000
    for level in range(depth):
        target = 0x8000 + 0x100 * level
        instrs.append(Instruction(
            pc=pc, op=OpClass.BRANCH, branch_kind=BranchKind.CALL,
            taken=True, target=target,
        ))
        stack.append(pc + 4)
        pc = target
        instrs.append(Instruction(pc=pc, op=OpClass.IALU,
                                  dst=1 + level % 8))
        pc += 4
    while stack:
        ret = stack.pop()
        instrs.append(Instruction(
            pc=pc, op=OpClass.BRANCH, branch_kind=BranchKind.RETURN,
            taken=True, target=ret,
        ))
        pc = ret
        instrs.append(Instruction(pc=pc, op=OpClass.IALU))
        pc += 4
    return Trace.from_instructions(instrs, name="corner-deep-calls")


def _misfetch_storm(rng: random.Random) -> Trace:
    """Taken branches over many distinct sites: cold-BTB misfetches,
    BTB conflict evictions, and misfetch bubbles back to back."""
    sites = rng.randint(8, 200)
    rounds = rng.randint(2, 5)
    instrs: List[Instruction] = []
    for _ in range(rounds):
        for s in range(sites):
            pc = 0x2000 + 0x40 * s
            instrs.append(Instruction(
                pc=pc, op=OpClass.BRANCH,
                branch_kind=BranchKind.CONDITIONAL,
                taken=True, target=pc + 0x20,
            ))
            instrs.append(Instruction(pc=pc + 0x20, op=OpClass.IALU,
                                      dst=1 + s % 8))
    return Trace.from_instructions(instrs, name="corner-misfetch-storm")


def _store_burst(rng: random.Random) -> Trace:
    """Stores and loads hammering a handful of addresses: store-load
    forwarding edges, same-address rewrites, commit-port pressure."""
    addrs = [0x10000 + 8 * k for k in range(rng.randint(1, 4))]
    instrs: List[Instruction] = []
    pc = 0x3000
    for i in range(rng.randint(60, 200)):
        addr = rng.choice(addrs)
        if rng.random() < 0.5:
            instrs.append(Instruction(pc=pc, op=OpClass.STORE,
                                      mem_addr=addr, src1=1 + i % 4))
        else:
            instrs.append(Instruction(pc=pc, op=OpClass.LOAD,
                                      mem_addr=addr, dst=1 + i % 8))
        pc += 4
    return Trace.from_instructions(instrs, name="corner-store-burst")


def _precompute_stream(rng: random.Random) -> Trace:
    """Compute ops with few distinct redundancy keys — saturates the
    precomputation table path when one is supplied."""
    keys = [100 + k for k in range(rng.randint(2, 6))]
    ops = (OpClass.IALU, OpClass.IMULT, OpClass.FALU, OpClass.FMULT)
    instrs = []
    pc = 0x4000
    for i in range(rng.randint(80, 240)):
        instrs.append(Instruction(
            pc=pc + 4 * (i % 16), op=rng.choice(ops),
            dst=1 + i % 8, src1=1 + (i + 1) % 8,
            redundancy_key=rng.choice(keys),
        ))
    return Trace.from_instructions(instrs, name="corner-precompute")


def _page_stride(rng: random.Random) -> Trace:
    """Code and data one page apart: every access touches a new TLB
    page, so TLB sets fill and evict on both sides."""
    stride = rng.choice((4 * KIB, 8 * KIB))
    pages = rng.randint(16, 96)
    instrs = []
    for i in range(rng.randint(200, 600)):
        pc = 0x10000 + stride * (i % pages)
        addr = 0x800000 + stride * rng.randrange(pages) + 8 * (i % 4)
        if rng.random() < 0.3:
            instrs.append(Instruction(pc=pc, op=OpClass.STORE,
                                      mem_addr=addr, src1=1 + i % 4))
        else:
            instrs.append(Instruction(pc=pc, op=OpClass.LOAD,
                                      mem_addr=addr, dst=1 + i % 8))
    return Trace.from_instructions(instrs, name="corner-page-stride")


def negative_pc_trace(length: int = 2000) -> Trace:
    """Integer ops at program counters below zero (``Trace.validate``
    accepts them): floor ``//`` and ``%`` must still map every fetch
    to a valid I-cache, I-TLB and BTB set."""
    instrs = [Instruction(pc=-0x4000 + 4 * k, op=OpClass.IALU)
              for k in range(length)]
    return Trace.from_instructions(instrs, name="corner-negative-pc")


def _negative_pc(rng: random.Random) -> Trace:
    """Negative program counters with loads, stores and branches: the
    predictor, BTB and RAS index them too."""
    instrs = []
    pc = -rng.randint(1, 64) * 0x1000
    for i in range(rng.randint(200, 800)):
        roll = rng.random()
        if roll < 0.15:
            taken = rng.random() < 0.5
            instrs.append(Instruction(
                pc=pc, op=OpClass.BRANCH,
                branch_kind=BranchKind.CONDITIONAL, taken=taken,
                target=0x100 + 4 * (i % 32) if taken else NO_VALUE,
            ))
        elif roll < 0.2:
            instrs.append(Instruction(
                pc=pc, op=OpClass.BRANCH, branch_kind=BranchKind.CALL,
                taken=True, target=0x200,
            ))
        elif roll < 0.25:
            instrs.append(Instruction(
                pc=pc, op=OpClass.BRANCH, branch_kind=BranchKind.RETURN,
                taken=True, target=0x300,
            ))
        elif roll < 0.45:
            instrs.append(Instruction(
                pc=pc, op=rng.choice((OpClass.LOAD, OpClass.STORE)),
                mem_addr=0x4000 + 8 * rng.randrange(64), src1=1 + i % 4,
                dst=1 + i % 8,
            ))
        else:
            instrs.append(Instruction(pc=pc, op=OpClass.IALU,
                                      dst=1 + i % 8, src1=1 + i % 4))
        pc += rng.choice((4, 4, 4, -0x40, 0x100))
    return Trace.from_instructions(instrs, name="corner-negative-pcs")


def _branch_loop(rng: random.Random) -> Trace:
    """A short loop of conditional branches run many times: the same
    branch is in flight more than once, and more distinct branches
    are in flight than a tournament predictor's table starts with."""
    sites = rng.randint(4, 24)
    bias = [rng.choice((0.0, 0.0, 0.0, 1.0, 0.5)) for _ in range(sites)]
    instrs = []
    for _ in range(rng.randint(8, 30)):
        pc = 0x6000
        for s in range(sites):
            taken = rng.random() < bias[s]
            instrs.append(Instruction(
                pc=pc, op=OpClass.BRANCH,
                branch_kind=BranchKind.CONDITIONAL, taken=taken,
                target=pc + 8 if taken else NO_VALUE,
            ))
            pc += 8 if taken else 4
            instrs.append(Instruction(pc=pc, op=OpClass.IALU,
                                      dst=1 + s % 8, src1=1 + (s + 3) % 8))
            pc += 4
    return Trace.from_instructions(instrs, name="corner-branch-loop")


_CORNER_BUILDERS: Sequence[Callable[[random.Random], Trace]] = (
    _deep_call_chain, _misfetch_storm, _store_burst, _precompute_stream,
    _page_stride, _negative_pc, _branch_loop,
)


def random_trace(rng: random.Random) -> Trace:
    """A synthetic-benchmark trace (fresh seed, random length) or one
    of the hand-built corner shapes."""
    if rng.random() < 0.35:
        return rng.choice(_CORNER_BUILDERS)(rng)
    name = rng.choice(sorted(PROFILES))
    length = rng.randint(200, 1500)
    return generate_trace(PROFILES[name], length,
                          seed=rng.randrange(1 << 30))


# -- comparison ---------------------------------------------------------------


@dataclass
class Divergence:
    """One (config, trace) pair on which two cores disagreed."""

    seed: int
    trace_name: str
    config: MachineConfig
    fields: List[str]
    expected: CoreStats
    actual: CoreStats
    warmup: bool = True
    prefetch_lines: int = 0
    precompute_keys: Optional[List[int]] = None

    def describe(self) -> str:
        parts = [
            f"seed={self.seed}", f"trace={self.trace_name}",
            f"fields={','.join(self.fields)}",
            f"warmup={self.warmup}",
        ]
        if self.prefetch_lines:
            parts.append(f"prefetch={self.prefetch_lines}")
        if self.precompute_keys is not None:
            parts.append(f"precompute={len(self.precompute_keys)} keys")
        return " ".join(parts)


def _run_pair(config, trace, **kwargs):
    """``(expected, actual)``: the oracle's and the kernel's stats.

    The kernel runs first, so a missing kernel fails before the
    reference spends any time."""
    actual = simulate(config, trace, core="batched-native", **kwargs)
    return simulate(config, trace, core="reference", **kwargs), actual


def compare_cores(
    config: MachineConfig,
    trace: Trace,
    *,
    warmup: bool = True,
    precompute_table=None,
    prefetch_lines: int = 0,
) -> List[str]:
    """Names of the :class:`CoreStats` fields on which the kernel
    disagrees with the reference for this pair (empty = equivalent)."""
    return differing_fields(*_run_pair(
        config, trace, precompute_table=precompute_table,
        warmup=warmup, prefetch_lines=prefetch_lines,
    ))


def differential_sweep(
    pairs: int = 25,
    seed: int = 0,
    *,
    progress: Optional[Callable[[int, int, Optional[Divergence]], None]]
        = None,
) -> List[Divergence]:
    """Run ``pairs`` randomized (config, trace) comparisons.

    Deterministic in ``seed``.  Returns every divergence found (an
    empty list is the pass verdict, so ``pairs`` must be at least 1).
    ``progress(done, total, div)`` is called after each pair, ``div``
    non-None when it diverged.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be at least 1, got {pairs}")
    rng = random.Random(seed)
    found: List[Divergence] = []
    for k in range(pairs):
        pair_seed = rng.randrange(1 << 30)
        pair_rng = random.Random(pair_seed)
        config = random_machine(pair_rng)
        trace = random_trace(pair_rng)
        warmup = pair_rng.random() < 0.7
        prefetch = pair_rng.choice((0, 0, 0, 1, 2))
        table = None
        keys = None
        if pair_rng.random() < 0.3:
            counts = trace.redundancy_counts()
            if counts:
                universe = sorted(counts)
                keys = pair_rng.sample(
                    universe, min(len(universe), 32)
                )
                table = frozenset(keys)
        expected, actual = _run_pair(
            config, trace, precompute_table=table, warmup=warmup,
            prefetch_lines=prefetch,
        )
        diff = differing_fields(expected, actual)
        div = None
        if diff:
            div = Divergence(
                seed=pair_seed, trace_name=trace.name, config=config,
                fields=diff, expected=expected, actual=actual,
                warmup=warmup, prefetch_lines=prefetch,
                precompute_keys=keys,
            )
            found.append(div)
        if progress is not None:
            progress(k + 1, pairs, div)
    return found
