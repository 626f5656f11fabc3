"""Packed dynamic-instruction traces.

A :class:`Trace` is the unit of work the simulator executes: a
structure-of-arrays encoding of a dynamic instruction stream.  The
packed form (numpy arrays) keeps trace generation and simulation fast;
:meth:`Trace.instruction` and :meth:`Trace.from_instructions` bridge to
the friendly :class:`~repro.cpu.isa.Instruction` objects for tests and
hand-built workloads.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, List, Sequence

import numpy as np

from repro.cpu.isa import NO_REG, NO_VALUE, BranchKind, Instruction, OpClass


class Trace:
    """A dynamic instruction stream in structure-of-arrays form.

    All arrays have the same length; see :class:`Instruction` for field
    semantics.  Instances should be treated as immutable.
    """

    __slots__ = (
        "pc", "op", "src1", "src2", "dst", "mem_addr",
        "branch_kind", "taken", "target", "redundancy_key", "name",
        "_fingerprint", "_decoded",
    )

    def __init__(
        self,
        pc: np.ndarray,
        op: np.ndarray,
        src1: np.ndarray,
        src2: np.ndarray,
        dst: np.ndarray,
        mem_addr: np.ndarray,
        branch_kind: np.ndarray,
        taken: np.ndarray,
        target: np.ndarray,
        redundancy_key: np.ndarray,
        name: str = "trace",
    ):
        n = len(pc)
        arrays = dict(
            pc=pc, op=op, src1=src1, src2=src2, dst=dst, mem_addr=mem_addr,
            branch_kind=branch_kind, taken=taken, target=target,
            redundancy_key=redundancy_key,
        )
        for field, arr in arrays.items():
            if len(arr) != n:
                raise ValueError(f"array {field!r} length mismatch")
        self.pc = np.ascontiguousarray(pc, dtype=np.int64)
        self.op = np.ascontiguousarray(op, dtype=np.uint8)
        self.src1 = np.ascontiguousarray(src1, dtype=np.int16)
        self.src2 = np.ascontiguousarray(src2, dtype=np.int16)
        self.dst = np.ascontiguousarray(dst, dtype=np.int16)
        self.mem_addr = np.ascontiguousarray(mem_addr, dtype=np.int64)
        self.branch_kind = np.ascontiguousarray(branch_kind, dtype=np.uint8)
        self.taken = np.ascontiguousarray(taken, dtype=np.bool_)
        self.target = np.ascontiguousarray(target, dtype=np.int64)
        self.redundancy_key = np.ascontiguousarray(
            redundancy_key, dtype=np.int64
        )
        self.name = name
        self._fingerprint = None
        self._decoded = None

    def __len__(self) -> int:
        return len(self.pc)

    def __getstate__(self):
        # Drop the decode cache when pickling (it is derived data and
        # can be large); keep the memoised fingerprint, which is tiny
        # and saves rehashing in forked workers.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__ if slot != "_decoded"
        }

    def __setstate__(self, state):
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
        self._decoded = None

    def decoded(self) -> "DecodedTrace":
        """The compiled simulator kernel's static decode of this trace.

        Computed lazily on first use and memoised (instances are
        treated as immutable); dropped when pickling.  See
        :class:`DecodedTrace` for what the decode contains and why it
        is exact.
        """
        if self._decoded is None:
            self._decoded = DecodedTrace(self)
        return self._decoded

    def fingerprint(self) -> str:
        """Content hash identifying this trace (arrays + name).

        Two traces with equal arrays and name share a fingerprint
        regardless of how they were built, which is what lets the
        execution engine's result cache recognise previously simulated
        workloads across processes and sessions.  Computed lazily and
        memoised; instances are treated as immutable.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(self.name.encode("utf-8"))
            for field in (
                "pc", "op", "src1", "src2", "dst", "mem_addr",
                "branch_kind", "taken", "target", "redundancy_key",
            ):
                array = getattr(self, field)
                digest.update(field.encode("ascii"))
                digest.update(str(array.dtype).encode("ascii"))
                digest.update(array.tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def instruction(self, i: int) -> Instruction:
        """Instruction ``i`` as a rich object."""
        return Instruction(
            pc=int(self.pc[i]),
            op=OpClass(int(self.op[i])),
            src1=int(self.src1[i]),
            src2=int(self.src2[i]),
            dst=int(self.dst[i]),
            mem_addr=int(self.mem_addr[i]),
            branch_kind=BranchKind(int(self.branch_kind[i])),
            taken=bool(self.taken[i]),
            target=int(self.target[i]),
            redundancy_key=int(self.redundancy_key[i]),
        )

    def __iter__(self) -> Iterator[Instruction]:
        for i in range(len(self)):
            yield self.instruction(i)

    @classmethod
    def from_instructions(
        cls, instructions: Sequence[Instruction], name: str = "trace"
    ) -> "Trace":
        """Pack a sequence of :class:`Instruction` objects."""
        n = len(instructions)
        pc = np.empty(n, np.int64)
        op = np.empty(n, np.uint8)
        src1 = np.empty(n, np.int16)
        src2 = np.empty(n, np.int16)
        dst = np.empty(n, np.int16)
        mem_addr = np.empty(n, np.int64)
        branch_kind = np.empty(n, np.uint8)
        taken = np.empty(n, np.bool_)
        target = np.empty(n, np.int64)
        redundancy_key = np.empty(n, np.int64)
        for i, ins in enumerate(instructions):
            pc[i] = ins.pc
            op[i] = int(ins.op)
            src1[i] = ins.src1
            src2[i] = ins.src2
            dst[i] = ins.dst
            mem_addr[i] = ins.mem_addr
            branch_kind[i] = int(ins.branch_kind)
            taken[i] = ins.taken
            target[i] = ins.target
            redundancy_key[i] = ins.redundancy_key
        return cls(pc, op, src1, src2, dst, mem_addr, branch_kind,
                   taken, target, redundancy_key, name=name)

    # -- summary helpers ------------------------------------------------------

    def instruction_mix(self) -> dict:
        """Fraction of each op class present in the trace."""
        n = len(self)
        if n == 0:
            return {}
        counts = np.bincount(self.op, minlength=len(OpClass))
        return {
            OpClass(i).name: counts[i] / n
            for i in range(len(OpClass))
            if counts[i]
        }

    def branch_count(self) -> int:
        return int((self.op == int(OpClass.BRANCH)).sum())

    def memory_count(self) -> int:
        loads = self.op == int(OpClass.LOAD)
        stores = self.op == int(OpClass.STORE)
        return int(loads.sum() + stores.sum())

    def redundancy_counts(self) -> dict:
        """Dynamic execution count per redundancy key (key -> count).

        This is what the "compiler" of the instruction-precomputation
        enhancement profiles to fill the precomputation table with the
        highest-frequency redundant computations.
        """
        keys = self.redundancy_key[self.redundancy_key != NO_VALUE]
        unique, counts = np.unique(keys, return_counts=True)
        return {int(k): int(c) for k, c in zip(unique, counts)}

    def validate_decode(self) -> None:  # pragma: no cover - debug aid
        """Force and sanity-check the decode (debugging helper)."""
        d = self.decoded()
        n = len(self)
        for arr in (d.prod1, d.prod2, d.store_prod):
            if len(arr) != n or (arr >= np.arange(n)).any():
                raise ValueError("decode produced a non-causal producer")

    def validate(self) -> None:
        """Check internal consistency; raises ValueError on corruption."""
        is_mem = np.isin(self.op, (int(OpClass.LOAD), int(OpClass.STORE)))
        if (self.mem_addr[is_mem] < 0).any():
            raise ValueError("memory op without address")
        is_branch = self.op == int(OpClass.BRANCH)
        if (self.branch_kind[is_branch] == int(BranchKind.NONE)).any():
            raise ValueError("branch without a kind")
        if (self.branch_kind[~is_branch] != int(BranchKind.NONE)).any():
            raise ValueError("non-branch carrying a branch kind")
        taken_branches = is_branch & self.taken
        if (self.target[taken_branches] < 0).any():
            raise ValueError("taken branch without target")


class DecodedTrace:
    """Static dependence decode of one :class:`Trace`.

    The compiled kernel replaces the reference model's dynamic
    ``reg_producer`` / ``store_for_addr`` dictionaries with arrays
    computed once per trace:

    ``prod1[i]`` / ``prod2[i]``
        Index of the instruction producing ``src1``/``src2`` of
        instruction ``i`` (the last earlier writer of that register),
        or -1.  Exact because dispatch is in trace order: when ``i``
        dispatches, the reference dictionary necessarily maps the
        register to its last earlier writer.  Duplicate operands
        (``src1 == src2``) keep *two* edges, matching the reference's
        per-operand loop.

    ``store_prod[i]``
        For loads: index of the latest earlier store to the same
        address, or -1.  Exact for the same in-order reason; the
        reference's commit-time deletion (a committed store removes
        itself only while still newest for its address) is subsumed
        by the dynamic ``state != DONE`` check both cores apply at
        dispatch, because in-order commit means a deleted store is
        always DONE by the time any later load dispatches.

    Everything here is configuration-independent — per-configuration
    arrays (cache block ids, unit latencies, precompute-table flags)
    are derived by the core at run start.
    """

    __slots__ = ("n", "prod1", "prod2", "store_prod", "kernel_args")

    def __init__(self, trace: "Trace"):
        from repro.cpu.isa import OpClass

        n = len(trace)
        self.n = n
        #: The compiled kernel's pointer block over this decode and its
        #: trace, built on first use by :mod:`repro.cpu.native`.
        self.kernel_args = None
        prod1 = np.full(n, -1, np.int32)
        prod2 = np.full(n, -1, np.int32)
        store_prod = np.full(n, -1, np.int32)
        src1 = trace.src1.tolist()
        src2 = trace.src2.tolist()
        dst = trace.dst.tolist()
        op = trace.op.tolist()
        addr = trace.mem_addr.tolist()
        load_op = int(OpClass.LOAD)
        store_op = int(OpClass.STORE)
        last_writer: dict = {}
        last_store: dict = {}
        p1 = prod1.tolist()
        p2 = prod2.tolist()
        sp = store_prod.tolist()
        for i in range(n):
            reg = src1[i]
            if reg >= 0:
                p1[i] = last_writer.get(reg, -1)
            reg = src2[i]
            if reg >= 0:
                p2[i] = last_writer.get(reg, -1)
            o = op[i]
            if o == load_op:
                sp[i] = last_store.get(addr[i], -1)
            elif o == store_op:
                last_store[addr[i]] = i
            if dst[i] >= 0:
                last_writer[dst[i]] = i
        self.prod1 = np.asarray(p1, np.int32)
        self.prod2 = np.asarray(p2, np.int32)
        self.store_prod = np.asarray(sp, np.int32)
