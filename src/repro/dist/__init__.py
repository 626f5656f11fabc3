"""repro.dist — the crash-safe distributed grid runtime.

Turns :func:`repro.exec.run_grid` from a single-host fork pool into a
multi-process experiment service coordinated through a shared *spool*
directory: the broker (:func:`repro.dist.broker.run_dist`, entered
via ``run_grid(dist=...)``) publishes sealed task tickets, any number
of independent worker processes (``repro worker`` /
:class:`repro.dist.worker.DistWorker`) claim them under atomic-rename
leases, heartbeat while they compute, and seal results back for the
broker to harvest into the ordinary cache/journal/telemetry path.

The design constraints, in order:

1. **Nothing a crash can corrupt.**  Every durable record is written
   whole-then-renamed and sealed; every claim is a single atomic
   rename.  Any process — worker or broker — may die at any
   instruction and the spool remains a consistent, resumable ledger.
2. **Results identical to single-host.**  The broker reuses the
   engine's storage/retry bookkeeping, the simulator is deterministic,
   and dedup is content-keyed, so a chaos-ridden distributed screen
   seals byte-identical results to a quiet in-process one (the
   acceptance tests prove this).
3. **Graceful degradation.**  A spool nobody attaches to is not an
   outage: the broker withdraws its tickets and the grid completes
   locally.

See ``docs/distributed.md`` for the lease protocol, the failure
matrix, and the exactly-once argument.
"""

from .options import DistOptions

__all__ = ["DistOptions"]
