"""Saving and loading traces.

Traces are plain structure-of-arrays, so they serialize naturally to
compressed ``.npz`` archives.  This lets expensive generated workloads
(or externally converted ones — any tool that can emit the nine arrays
can feed the simulator) be reused across sessions and shared between
machines.

Archives written by :func:`save_trace` are **sealed**
(:mod:`repro.guard.seal`): the ``.npz`` payload travels inside an
envelope naming its kind, format version and content checksum, so a
truncated copy or a flipped bit is detected at load instead of
surfacing as a silent simulation difference.  Plain unsealed ``.npz``
archives (from external tools, or pre-seal versions of this library)
still load — they just skip the envelope check and rely on the
structural validation alone.

:func:`load_trace` has two validation levels: the default structural
check (:meth:`~repro.workloads.trace.Trace.validate`), and
``strict=True``, which additionally verifies per-record invariants —
opcode and branch-kind domains, non-negative PCs and addresses, and
sequential-PC control flow — raising
:class:`~repro.guard.errors.TraceCorrupt` with the offending record
index.
"""

from __future__ import annotations

import io
import os
import zipfile
from typing import Union

import numpy as np

from repro.cpu.isa import BranchKind, OpClass
from repro.guard import faults
from repro.guard.errors import TraceCorrupt
from repro.guard.seal import (
    MAGIC as SEAL_MAGIC,
    check as check_seal,
    seal as make_seal,
)

from .trace import Trace

#: Archive format version, stored alongside the arrays (and echoed in
#: the seal header's ``schema`` field).
FORMAT_VERSION = 1

#: Seal ``kind`` tag for trace archives.
TRACE_KIND = "trace"

_FIELDS = (
    "pc", "op", "src1", "src2", "dst", "mem_addr",
    "branch_kind", "taken", "target", "redundancy_key",
)


def save_trace(trace: Trace, path: Union[str, os.PathLike]) -> None:
    """Write a trace to a sealed, compressed ``.npz`` archive.

    The benchmark name and a format version travel with the arrays,
    and the whole archive is wrapped in a seal envelope
    (:func:`repro.guard.seal.seal`) so :func:`load_trace` can validate
    both what it reads and that it read all of it.  The write is
    atomic (temp file + rename): a crash mid-save leaves either the
    old archive or none, never a torn one.
    """
    arrays = {field: getattr(trace, field) for field in _FIELDS}
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        __version__=np.int64(FORMAT_VERSION),
        __name__=np.bytes_(trace.name.encode("utf-8")),
        **arrays,
    )
    blob = make_seal(
        buffer.getvalue(), kind=TRACE_KIND, schema=FORMAT_VERSION,
    )
    # The sanctioned publish seam: temp name + replace, every step
    # fault-injectable, the destination never visible torn.
    faults.publish_bytes(path, blob, retries=2)


def _strict_validate(trace: Trace, artifact) -> None:
    """Per-record invariant checks behind ``load_trace(strict=True)``.

    Raises :class:`TraceCorrupt` carrying the index of the *first*
    offending record, the field concerned, and a stable reason slug.
    """

    def fail(mask: np.ndarray, field: str, reason: str,
             message: str) -> None:
        if mask.any():
            index = int(np.argmax(mask))
            raise TraceCorrupt(
                f"{artifact}: record {index}: {message}",
                index=index, field=field, reason=reason,
                artifact=artifact,
            )

    op_domain = np.array([int(o) for o in OpClass], dtype=np.int64)
    fail(~np.isin(trace.op, op_domain), "op", "opcode-domain",
         "opcode outside the OpClass domain")
    kind_domain = np.array([int(k) for k in BranchKind], dtype=np.int64)
    fail(~np.isin(trace.branch_kind, kind_domain), "branch_kind",
         "branch-kind-domain", "branch kind outside the domain")
    fail(trace.pc < 0, "pc", "pc-domain", "negative program counter")
    is_mem = np.isin(
        trace.op, (int(OpClass.LOAD), int(OpClass.STORE))
    )
    fail(is_mem & (trace.mem_addr < 0), "mem_addr", "address-domain",
         "memory operation with a negative address")
    is_branch = trace.op == int(OpClass.BRANCH)
    fail(is_branch & trace.taken & (trace.target < 0), "target",
         "address-domain", "taken branch with a negative target")
    fail(is_branch & (trace.branch_kind == int(BranchKind.NONE)),
         "branch_kind", "structure", "branch without a kind")
    fail(~is_branch & (trace.branch_kind != int(BranchKind.NONE)),
         "branch_kind", "structure", "non-branch carrying a branch kind")
    if len(trace) > 1:
        # Control-flow monotonicity: the PC advances by one slot (4
        # bytes) except across a taken branch, which lands on its
        # recorded target.  Violations mean reordered, duplicated or
        # spliced records.
        expected = trace.pc[:-1] + 4
        redirect = is_branch[:-1] & trace.taken[:-1]
        expected = np.where(redirect, trace.target[:-1], expected)
        mismatch = trace.pc[1:] != expected
        if mismatch.any():
            index = int(np.argmax(mismatch)) + 1
            raise TraceCorrupt(
                f"{artifact}: record {index}: PC {int(trace.pc[index])} "
                f"does not follow from record {index - 1} "
                f"(expected {int(expected[index - 1])})",
                index=index, field="pc", reason="pc-flow",
                artifact=artifact,
            )


def load_trace(path: Union[str, os.PathLike], *,
               strict: bool = False) -> Trace:
    """Read a trace archive written by :func:`save_trace`.

    A sealed archive has its envelope verified first (checksum,
    truncation, kind, format version — the typed
    :class:`~repro.guard.errors.SealError` family on failure); a plain
    ``.npz`` from an external tool skips that and is validated
    structurally only.  With ``strict=True`` the per-record invariants
    of :func:`_strict_validate` run too, so a corrupt or hand-rolled
    archive fails loudly here — naming the offending record — rather
    than deep inside a simulation.
    """
    blob = None
    with open(path, "rb") as handle:
        head = handle.read(len(SEAL_MAGIC))
        if head == SEAL_MAGIC:
            blob = head + handle.read()
    if blob is not None:
        payload = check_seal(
            blob, kind=TRACE_KIND, schema=FORMAT_VERSION,
        )
        source = io.BytesIO(payload)
    else:
        source = os.fspath(path)
    try:
        archive_handle = np.load(source)
    except (ValueError, OSError, zipfile.BadZipFile) as exc:
        # Not a readable npz at all: a corrupted legacy archive, or a
        # sealed one whose magic itself was damaged.  Named, like
        # every other detection.
        raise TraceCorrupt(
            f"{path}: unreadable trace archive: {exc}",
            reason="malformed", artifact=os.fspath(path),
        ) from None
    with archive_handle as archive:
        try:
            version = int(archive["__version__"])
        except KeyError:
            raise ValueError(f"{path}: not a repro trace archive") from None
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{path}: trace format v{version}, expected "
                f"v{FORMAT_VERSION}"
            )
        # The name travels as a 0-d NumPy scalar array.  Extract the
        # scalar explicitly with .item(): coercing the array itself
        # with bytes(...) reads the raw buffer, which is only correct
        # for bytes dtypes (a unicode-dtype archive, e.g. one written
        # by an external tool, would yield UTF-32 garbage).
        raw_name = archive["__name__"].item()
        if isinstance(raw_name, bytes):
            name = raw_name.decode("utf-8")
        else:
            name = str(raw_name)
        arrays = {}
        for field in _FIELDS:
            if field not in archive:
                raise ValueError(f"{path}: missing array {field!r}")
            arrays[field] = archive[field]
    trace = Trace(name=name, **arrays)
    trace.validate()
    if strict:
        _strict_validate(trace, os.fspath(path))
    return trace
