"""Sampled re-execution audits of restored simulation results.

The result cache and checkpoint journal are trusted because a
simulation is a pure function of its content-hashed inputs.  The
audit closes the remaining gap — *is the store still telling the
truth?* — by deterministically re-running a configurable fraction of
cache/journal hits in-process and comparing bit-exact.  A mismatch
means a stale or tampered entry, version drift that key salting
failed to catch, or a non-deterministic simulator bug; all of them
must stop the run, because every further rank sum would be built on
an unverifiable foundation.

Selection is a pure function of ``(seed, task key)``, so two runs of
the same grid audit the same cells (reproducible), cells are audited
independently of grid order (a reordered screen audits the same
work), and no RNG state is consumed (the determinism lint stays
quiet).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, is_dataclass
from typing import List

from .errors import AuditMismatch

__all__ = ["AuditPolicy", "differing_fields", "verify_restored"]


@dataclass(frozen=True)
class AuditPolicy:
    """How aggressively restored results are re-verified.

    Parameters
    ----------
    fraction:
        Probability mass of restored cells to re-execute, in
        ``[0, 1]``.  ``0`` disables the audit, ``1`` re-runs every
        hit (a full replication pass).
    seed:
        Salt mixed into the per-key selection hash; two policies with
        different seeds audit different (deterministic) subsets, so
        repeated screens with rotating seeds eventually cover the
        whole store.
    """

    fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(
                f"audit fraction must be in [0, 1], got {self.fraction}"
            )

    def selects(self, key: str) -> bool:
        """True when the cell stored under ``key`` must be re-run.

        A pure function of ``(seed, key)``: the first 8 bytes of
        ``sha256(seed ':' key)`` read as a fraction of 2**64,
        compared against :attr:`fraction`.
        """
        if self.fraction <= 0.0:
            return False
        if self.fraction >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self.seed}:{key}".encode("ascii")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return draw < self.fraction


def differing_fields(expected, actual) -> List[str]:
    """Names of the dataclass fields on which two stats disagree.

    Field-by-field equality over :class:`~repro.cpu.stats.CoreStats`
    (or any dataclass): nested dataclasses and dicts compare by
    value, exactly the bit-exactness the determinism contract
    promises.  Non-dataclass inputs fall back to one synthetic
    ``"value"`` entry on inequality.
    """
    if not (is_dataclass(expected) and is_dataclass(actual)) \
            or type(expected) is not type(actual):
        return [] if expected == actual else ["value"]
    return [
        f.name for f in fields(expected)
        if getattr(expected, f.name) != getattr(actual, f.name)
    ]


def verify_restored(key: str, index: int, source: str,
                    expected, actual) -> None:
    """Raise :class:`AuditMismatch` unless the re-run reproduced the
    restored result exactly.

    ``expected`` is what the cache/journal claimed, ``actual`` what a
    fresh in-process execution produced.  Both travel on the raised
    exception so the divergence can be diffed post-mortem.
    """
    diff = differing_fields(expected, actual)
    if not diff:
        return
    raise AuditMismatch(
        f"audit re-execution of task {index} (restored from {source}, "
        f"key {key[:12]}...) diverged on {', '.join(diff)} — the "
        "stored result is stale, tampered with, or the simulator is "
        "non-deterministic",
        key=key, index=index, source=source,
        expected=expected, actual=actual, fields=diff,
    )
