"""Process-local telemetry registry: counters, spans and the event ring.

One :class:`Telemetry` instance lives per process (the ``repro.obs``
facade owns the singleton).  It collects four kinds of data:

* **counters / gauges / histograms** — named scalar metrics,
* **spans** — nested timed sections with self-time attribution,
* **events** — the structured decision stream (:mod:`repro.obs.events`),
* **context** — the ``(host, epoch)`` pair the emitting code is working
  on, tracked at module level so it is available even when telemetry is
  disabled (worker exception notes use it for attribution).

Everything is cheaply serialisable: :meth:`Telemetry.snapshot` detaches
the collected data as a :class:`TelemetrySnapshot` which a worker sends
back with each fleet host step and the controller folds back in with
:meth:`Telemetry.merge`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs.clock import Clock
from repro.obs.events import DEFAULT_CAPACITY, Event, EventRing

__all__ = [
    "Telemetry",
    "TelemetrySnapshot",
    "set_context",
    "current_context",
    "clear_context",
]

#: Sentinel for "leave this context component unchanged".
_KEEP = object()

# The (host, epoch) the current process is working on.  Module-level —
# not per-Telemetry — so exception attribution works with telemetry off.
_context: list[int | None] = [None, None]


def set_context(host: object = _KEEP, epoch: object = _KEEP) -> None:
    """Update the process-local ``(host, epoch)`` attribution context.

    Omitted components keep their previous value; pass ``None``
    explicitly to clear one.
    """
    if host is not _KEEP:
        _context[0] = host  # type: ignore[assignment]
    if epoch is not _KEEP:
        _context[1] = epoch  # type: ignore[assignment]


def current_context() -> tuple[int | None, int | None]:
    """The process-local ``(host, epoch)`` pair."""
    return (_context[0], _context[1])


def clear_context() -> None:
    set_context(host=None, epoch=None)


@dataclass
class TelemetrySnapshot:
    """Detached, picklable telemetry state for cross-process merging."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    #: name -> (count, total, min, max, samples, stride)
    histograms: dict[str, tuple] = field(default_factory=dict)
    #: name -> [count, total_s, child_s]
    span_stats: dict[str, list] = field(default_factory=dict)
    #: (name, host, start_s, duration_s, depth) tuples for trace export.
    span_trace: list[tuple] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    emitted: int = 0
    sampled: int = 0
    dropped: int = 0
    span_dropped: int = 0


class _SpanHandle:
    """Context manager for one timed section.

    Tracks accumulated child time so the owning :class:`Telemetry` can
    attribute *self* time (total minus children) per span name.
    """

    __slots__ = ("_telemetry", "name", "_start", "_child", "_depth")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self.name = name

    def __enter__(self) -> "_SpanHandle":
        telemetry = self._telemetry
        self._child = 0.0
        self._depth = len(telemetry._span_stack)
        telemetry._span_stack.append(self)
        self._start = telemetry.clock.now()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        telemetry = self._telemetry
        elapsed = telemetry.clock.now() - self._start
        telemetry._span_stack.pop()
        stat = telemetry._span_stats.get(self.name)
        if stat is None:
            stat = telemetry._span_stats[self.name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += self._child
        if telemetry._span_stack:
            telemetry._span_stack[-1]._child += elapsed
        if len(telemetry._span_trace) < telemetry.span_capacity:
            telemetry._span_trace.append(
                (self.name, _context[0], self._start, elapsed, self._depth)
            )
        else:
            telemetry.spans_dropped += 1
        return False


class Telemetry:
    """The per-process telemetry registry.

    Not thread-safe by design: the simulator is single-threaded per
    process, and the cross-*process* path goes through snapshots.
    """

    #: Bound on per-histogram quantile samples.  When a reservoir fills
    #: up, every other sample is discarded and the keep-stride doubles —
    #: a deterministic decimation, so serial and merged runs agree.
    RESERVOIR_CAP = 256

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sample: float = 1.0,
        clock: Clock | None = None,
        span_capacity: int = 20000,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.span_capacity = span_capacity
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: name -> [count, total, min, max, reservoir, stride]
        self._histograms: dict[str, list] = {}
        self._span_stack: list[_SpanHandle] = []
        #: name -> [count, total_s, child_s]
        self._span_stats: dict[str, list] = {}
        self._span_trace: list[tuple] = []
        self.spans_dropped = 0
        self.ring = EventRing(capacity, sample)
        #: Per-host event sequence counters; survive snapshot resets so
        #: each snapshot continues a host's sequence where it left off.
        self._seqs: dict[int | None, int] = {}
        #: Optional online consumer of the event stream (a
        #: :class:`repro.obs.health.HealthMonitor`).  Fed every buffered
        #: event — local emissions and merged worker snapshots alike.
        self.monitor = None

    # -- scalar metrics ------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        stat = self._histograms.get(name)
        if stat is None:
            self._histograms[name] = [1, value, value, value, [value], 1]
            return
        stat[0] += 1
        stat[1] += value
        if value < stat[2]:
            stat[2] = value
        if value > stat[3]:
            stat[3] = value
        if (stat[0] - 1) % stat[5] == 0:
            stat[4].append(value)
            if len(stat[4]) > self.RESERVOIR_CAP:
                del stat[4][1::2]
                stat[5] *= 2

    def histogram(self, name: str) -> tuple[int, float, float, float] | None:
        """``(count, total, min, max)`` for *name*, or None."""
        stat = self._histograms.get(name)
        return tuple(stat[:4]) if stat is not None else None

    def quantiles(
        self, name: str, qs: tuple[float, ...] = (0.5, 0.95, 0.99)
    ) -> dict[float, float] | None:
        """Approximate quantiles from the bounded reservoir, or None.

        Nearest-rank over the kept samples; exact while fewer than
        ``RESERVOIR_CAP`` values have been observed.
        """
        stat = self._histograms.get(name)
        if stat is None or not stat[4]:
            return None
        samples = sorted(stat[4])
        top = len(samples) - 1
        return {
            q: samples[min(top, max(0, math.ceil(q * len(samples)) - 1))]
            for q in qs
        }

    def histogram_summary(self) -> dict[str, dict[str, float]]:
        """Per-name histogram roll-up including p50/p95/p99."""
        out: dict[str, dict[str, float]] = {}
        for name, stat in self._histograms.items():
            quantiles = self.quantiles(name) or {}
            out[name] = {
                "count": stat[0],
                "mean": stat[1] / stat[0] if stat[0] else 0.0,
                "min": stat[2],
                "max": stat[3],
                "p50": quantiles.get(0.5, stat[3]),
                "p95": quantiles.get(0.95, stat[3]),
                "p99": quantiles.get(0.99, stat[3]),
            }
        return out

    # -- spans ---------------------------------------------------------

    def span(self, name: str) -> _SpanHandle:
        return _SpanHandle(self, name)

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per-name span summary: count, total and self seconds."""
        return {
            name: {
                "count": stat[0],
                "total_s": stat[1],
                "self_s": max(0.0, stat[1] - stat[2]),
            }
            for name, stat in self._span_stats.items()
        }

    def span_trace(self) -> list[tuple]:
        """``(name, host, start_s, duration_s, depth)`` per closed span."""
        return list(self._span_trace)

    # -- events --------------------------------------------------------

    def emit(self, kind: str, **fields: object) -> None:
        """Record an event attributed to the current (host, epoch)."""
        self.emit_at(kind, _context[0], _context[1], **fields)

    def emit_at(
        self,
        kind: str,
        host: int | None,
        epoch: int | None,
        **fields: object,
    ) -> None:
        """Record an event with explicit attribution.

        The per-host sequence number advances even for sampled-out
        events, so sampling never perturbs the deterministic ordering
        of the events that *are* kept.
        """
        seq = self._seqs.get(host, 0) + 1
        self._seqs[host] = seq
        if not self.ring.want(kind, host):
            return
        event = Event(
            kind=kind,
            host=host,
            epoch=epoch,
            seq=seq,
            wall=self.clock.now(),
            fields=tuple(sorted(fields.items())),
        )
        self.ring.append(event)
        if self.monitor is not None:
            self.monitor.feed(self, event)

    def events(self) -> list[Event]:
        return self.ring.events()

    # -- snapshots -----------------------------------------------------

    def snapshot(self, reset: bool = True) -> TelemetrySnapshot:
        """Detach collected data for sending to the controller.

        With ``reset`` (the default) the metrics, spans and buffered
        events are cleared; sequence and sampling counters are *kept* so
        subsequent emissions continue their deterministic streams.
        """
        snapshot = TelemetrySnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms={
                name: (*stat[:4], tuple(stat[4]), stat[5])
                for name, stat in self._histograms.items()
            },
            span_stats={
                name: list(stat) for name, stat in self._span_stats.items()
            },
            span_trace=list(self._span_trace),
            events=self.ring.drain() if reset else self.ring.events(),
            emitted=self.ring.emitted,
            sampled=self.ring.sampled,
            dropped=self.ring.dropped,
            span_dropped=self.spans_dropped,
        )
        if reset:
            self.counters.clear()
            self.gauges.clear()
            self._histograms.clear()
            self._span_stats.clear()
            self._span_trace.clear()
            self.spans_dropped = 0
            # Volume counters are per-interval so repeated merges add
            # cleanly; the sampling stride counters are kept.
            self.ring.emitted = 0
            self.ring.sampled = 0
            self.ring.dropped = 0
        return snapshot

    def merge(self, snapshot: TelemetrySnapshot) -> None:
        """Fold a worker's snapshot into this (controller) registry."""
        for name, value in snapshot.counters.items():
            self.count(name, value)
        self.gauges.update(snapshot.gauges)
        for name, stat in snapshot.histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = [
                    *stat[:4], list(stat[4]), stat[5]
                ]
            else:
                mine[0] += stat[0]
                mine[1] += stat[1]
                mine[2] = min(mine[2], stat[2])
                mine[3] = max(mine[3], stat[3])
                mine[4].extend(stat[4])
                mine[5] = max(mine[5], stat[5])
                while len(mine[4]) > self.RESERVOIR_CAP:
                    del mine[4][1::2]
                    mine[5] *= 2
        for name, stat in snapshot.span_stats.items():
            mine = self._span_stats.get(name)
            if mine is None:
                self._span_stats[name] = list(stat)
            else:
                mine[0] += stat[0]
                mine[1] += stat[1]
                mine[2] += stat[2]
        room = self.span_capacity - len(self._span_trace)
        kept = max(0, min(room, len(snapshot.span_trace)))
        if kept:
            self._span_trace.extend(snapshot.span_trace[:kept])
        self.spans_dropped += snapshot.span_dropped
        self.spans_dropped += len(snapshot.span_trace) - kept
        self.ring.emitted += snapshot.emitted
        self.ring.sampled += snapshot.sampled
        self.ring.dropped += snapshot.dropped
        if self.monitor is None:
            self.ring.extend(snapshot.events)
        else:
            # Interleave watchdog feeding with the append so any
            # ``health.*`` finding lands right after its trigger — the
            # same relative position it gets when the trigger is emitted
            # locally (serial runs), keeping per-host streams identical
            # across process layouts.
            for event in snapshot.events:
                self.ring.extend((event,))
                self.monitor.feed(self, event)

    def stats(self) -> dict[str, object]:
        """Volume accounting for reports and overhead checks."""
        return {
            "events_emitted": self.ring.emitted,
            "events_sampled": self.ring.sampled,
            "events_dropped": self.ring.dropped,
            "events_buffered": len(self.ring),
            "spans_closed": sum(s[0] for s in self._span_stats.values()),
            "spans_dropped": self.spans_dropped,
        }
