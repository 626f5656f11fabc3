"""Counters, gauges and histograms with a deterministic snapshot API.

A :class:`MetricsRegistry` is a flat, name-keyed collection of three
instrument kinds:

* :class:`Counter` — monotonically increasing integers (tasks
  completed, cache hits, worker deaths);
* :class:`Gauge` — a sampled level (queue depth), remembering both the
  last and the maximum value observed;
* :class:`Histogram` — a streaming summary (count / sum / min / max)
  of a measured quantity (per-task wall seconds).

The *snapshot* is deterministic in **shape**: `snapshot()` always
returns the same keys in sorted order with the same per-kind fields,
so two metric dumps diff line-for-line.  Whether the *values* are
deterministic depends on the instrument: everything counted from task
content (completions, retries, cache hits) is identical across runs of
the same grid, while wall-time histograms vary — the catalogue in
``docs/observability.md`` marks which is which.

Instruments are created on first use (:meth:`MetricsRegistry.counter`
et al.), so emitting code never needs registration boilerplate, and a
registry can be shared across several grids (an enhancement analysis
accumulates both of its screens into one registry).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing integer."""

    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A sampled level; remembers the last and the peak sample."""

    kind = "gauge"

    def __init__(self):
        self.value: Union[int, float] = 0
        self.peak: Union[int, float] = 0
        self.samples = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value
        self.samples += 1
        if value > self.peak:
            self.peak = value

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": self.kind, "value": self.value,
            "peak": self.peak, "samples": self.samples,
        }


class Histogram:
    """A streaming count/sum/min/max summary of observations."""

    kind = "histogram"

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": self.kind, "count": self.count,
            "sum": self.total, "min": self.min, "max": self.max,
            "mean": self.mean,
        }


_Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A flat namespace of instruments, created on first use.

    Names are dotted strings (``"tasks.completed"``,
    ``"cache.hits"``); asking for an existing name with a different
    instrument kind is a programming error and raises ``TypeError``
    rather than silently shadowing data.

    An optional *sink* (duck-typed ``counter(name, amount)`` /
    ``counters(deltas)`` / ``gauge(name, value)`` /
    ``observe(name, value)`` — in practice a
    :class:`~repro.obs.stream.EventWriter`) sees every emission made
    through the convenience methods, streaming counter deltas, gauge
    changes and observations live.  Direct instrument mutation
    (``registry.counter(n).inc()``) bypasses the sink; the execution
    layers emit exclusively through the convenience methods.
    """

    def __init__(self, sink=None):
        self._instruments: Dict[str, _Instrument] = {}
        self.sink = sink

    def _get(self, name: str, cls) -> _Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls()
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is a {instrument.kind}, "
                f"not a {cls.kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created if new)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created if new)."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created if new)."""
        return self._get(name, Histogram)

    # -- convenience emission ---------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Increment the counter ``name`` by ``amount``."""
        self.counter(name).inc(amount)
        if self.sink is not None:
            self.sink.counter(name, amount)

    def set_gauge(self, name: str, value: Union[int, float]) -> None:
        """Sample the gauge ``name`` at ``value``."""
        self.gauge(name).set(value)
        if self.sink is not None:
            self.sink.gauge(name, value)

    def observe(self, name: str, value: Union[int, float]) -> None:
        """Add one observation to the histogram ``name``."""
        self.histogram(name).observe(value)
        if self.sink is not None:
            self.sink.observe(name, value)

    def count_many(self, deltas: Dict[str, int]) -> None:
        """Increment several counters as one emission.

        The registry ends up exactly as after one :meth:`count` per
        entry, but the sink sees a single ``counters(deltas)`` call —
        one folded stream record instead of one per name.  Used for
        the engine's per-cell completion tally.  Names are visited in
        sorted order, so instrument creation order never depends on
        the mapping's insertion order.
        """
        for name in sorted(deltas):
            self.counter(name).inc(deltas[name])
        if self.sink is not None:
            self.sink.counters(deltas)

    # -- snapshots --------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> List[str]:
        """All instrument names, sorted."""
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """``name -> fields`` for every instrument, keys sorted.

        The shape is stable across runs: same names, same per-kind
        fields, sorted iteration order — a metrics dump of one run
        diffs cleanly against another's.
        """
        return {
            name: self._instruments[name].snapshot()
            for name in self.names()
        }

    def items(self) -> Iterator[Tuple[str, _Instrument]]:
        """(name, instrument) pairs in sorted-name order."""
        for name in self.names():
            yield name, self._instruments[name]
