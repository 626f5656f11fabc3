"""The :class:`Telemetry` facade the execution layers carry around.

One object bundles the per-run observability state — a
:class:`~repro.obs.span.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry`, and the opt-in simulator
counter hook — so every API that learned a ``telemetry=`` keyword
(:func:`repro.exec.run_grid`, :meth:`repro.core.PBExperiment.run`,
:func:`repro.core.sweep`, :func:`repro.core.analyze_enhancement`, the
CLI commands) threads a single optional argument instead of three.

Any component may be absent: ``Telemetry(metrics=registry)`` collects
counters without paying for span recording, and ``telemetry=None``
(the default everywhere) is the zero-overhead off switch.  The
:meth:`phase` helper degrades to a no-op context manager when there is
no tracer, so instrumented code reads identically either way.

Telemetry is **strictly observational**: the engine invokes every
tracer/metrics call through a guarded path (a raising hook warns once
and is ignored), results are bit-identical with telemetry on or off,
and nothing recorded here feeds back into execution.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager, nullcontext
from typing import ContextManager, Optional

from .metrics import MetricsRegistry
from .span import Tracer

__all__ = ["Telemetry", "phase_of"]


class Telemetry:
    """Bundled tracer + metrics registry + simulator-counter opt-in.

    Parameters
    ----------
    tracer:
        Span recorder, or ``None`` to skip span collection.
    metrics:
        Metrics registry, or ``None`` to skip counters.
    simulator_counters:
        When true, the engine folds each completed cell's
        :class:`~repro.cpu.stats.CoreStats` counters (cycles,
        instructions, stall-cycle attribution, precompute hits) into
        the registry under ``sim.*`` — opt-in because an 88-run screen
        emits them 1144 times.
    stream:
        A :class:`~repro.obs.stream.EventWriter` lane that the tracer
        and registry fan out to, making the run watchable while it
        executes.  Held here so shutdown (:meth:`close`) can flush
        open spans into the stream and seal the generation.
    profiler:
        A :class:`~repro.obs.profile.PhaseProfiler` capturing a
        cProfile per engine phase; :meth:`phase` composes it with the
        tracer span so instrumented code is unchanged.
    """

    def __init__(self, *, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 simulator_counters: bool = False,
                 stream=None, profiler=None):
        self.tracer = tracer
        self.metrics = metrics
        self.simulator_counters = simulator_counters
        self.stream = stream
        self.profiler = profiler

    @classmethod
    def armed(cls, *, trace: bool = True, metrics: bool = True,
              simulator_counters: bool = False,
              stream=None, profiler=None) -> "Telemetry":
        """A telemetry bundle with the requested components built.

        When a ``stream`` lane is given it is installed as the sink of
        every component built here, so arming the stream alone is
        enough to get live span and metric events.
        """
        return cls(
            tracer=Tracer(sink=stream) if trace else None,
            metrics=MetricsRegistry(sink=stream) if metrics else None,
            simulator_counters=simulator_counters,
            stream=stream, profiler=profiler,
        )

    def phase(self, name: str, **attributes) -> ContextManager:
        """A coarse phase span, or a no-op without a tracer::

            with telemetry.phase("effects", benchmarks=13):
                ...

        With a profiler attached the phase body is also profiled
        (outermost phase only — cProfile cannot nest).

        Safe on a ``None``-less call site only; the execution layers
        use ``telemetry.phase(...) if telemetry else nullcontext()``
        via :func:`phase_of`.
        """
        span = (self.tracer.span(name, "phase", **attributes)
                if self.tracer is not None else nullcontext())
        if self.profiler is None:
            return span
        return _stacked(span, self.profiler.phase(name))

    def close(self, status: str = "completed") -> None:
        """Flush and seal the telemetry for shutdown — clean or not.

        Closes every still-open span (which, with a stream sink
        attached, emits their ``span-close`` records marked
        ``interrupted``) and seals the stream generation with a
        ``stream-close`` carrying ``status``.  Idempotent; safe to
        call from interrupt handlers.
        """
        if self.tracer is not None:
            self.tracer.close_open_spans()
        if self.stream is not None:
            self.stream.close(status)

    def count(self, name: str, amount: int = 1) -> None:
        """Increment a counter if a registry is attached."""
        if self.metrics is not None:
            self.metrics.count(name, amount)

    def snapshot(self) -> dict:
        """The metrics snapshot, or ``{}`` without a registry."""
        if self.metrics is None:
            return {}
        return self.metrics.snapshot()


@contextmanager
def _stacked(*managers):
    """Enter several context managers as one (span + profiler)."""
    with ExitStack() as stack:
        results = [stack.enter_context(cm) for cm in managers]
        yield results[0]


def phase_of(telemetry: Optional[Telemetry], name: str,
             **attributes) -> ContextManager:
    """``telemetry.phase(...)`` that also accepts ``None``.

    The standard guard for instrumenting a pipeline stage without
    forcing every caller to carry a telemetry object.
    """
    if telemetry is None:
        return nullcontext()
    return telemetry.phase(name, **attributes)
