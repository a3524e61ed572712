"""Span/trace recording: ring-buffered structured events on simulated time.

The paper's story is *temporal* — upcall storms at attack onset,
revalidator sweeps racing the covert refresh, RETA remaps stranding
attacker variants — so the observability layer records not just
counters but *events*: what happened, when (simulated seconds), on
which node and shard, with structured arguments.

:class:`TraceRecorder` is a fixed-capacity ring buffer of
:class:`SpanEvent` rows.  The capacity bound is load-bearing: a
long-running ``repro serve`` must never grow its trace without bound,
so once the ring wraps the oldest events are overwritten and
``dropped`` counts what was lost (exports report it — silent
truncation would read as "nothing happened early on").

Two export formats:

- :meth:`TraceRecorder.to_jsonl` — one compact JSON object per line,
  keys sorted, byte-deterministic for a given seed (the exporter
  determinism tests pin this).
- :meth:`TraceRecorder.to_chrome_trace` — Chrome trace-event JSON
  (the ``traceEvents`` array of complete ``"X"`` spans plus ``"M"``
  metadata naming each process/thread), loadable directly in Perfetto
  / ``chrome://tracing``.  Nodes map to trace *processes* and shards
  to *threads*, so a fleet trace lays out one swimlane per PMD per
  node.

With telemetry off there is no recorder: each event source holds
``trace = None`` and records only when it is given one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["SpanEvent", "TraceRecorder"]

#: default ring capacity — plenty for a full campaign (one event per
#: sweep/rebalance/burst, not per packet), bounded for serve
DEFAULT_TRACE_CAPACITY = 65536

#: simulated seconds → trace microseconds (Chrome traces are in µs)
_US_PER_SECOND = 1_000_000.0


@dataclass(frozen=True)
class SpanEvent:
    """One structured trace event on the simulated clock.

    ``dur == 0`` spans are instants (rendered as zero-width slices);
    ``shard == -1`` means "whole datapath" (no single PMD).
    """

    name: str
    ts: float
    dur: float = 0.0
    node: str = ""
    shard: int = -1
    args: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "ts": self.ts,
            "dur": self.dur,
            "node": self.node,
            "shard": self.shard,
            "args": self.args,
        }


class TraceRecorder:
    """A fixed-capacity ring buffer of :class:`SpanEvent` rows."""

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: list[SpanEvent] = []
        self._head = 0  # next overwrite slot once the ring is full
        #: events recorded over the recorder's lifetime
        self.total = 0
        #: events overwritten after the ring wrapped
        self.dropped = 0

    def record(self, name: str, ts: float, *, dur: float = 0.0,
               node: str = "", shard: int = -1, **args: Any) -> None:
        """Record one span.  ``args`` become the event's structured
        payload (must be JSON-serialisable)."""
        event = SpanEvent(name=name, ts=ts, dur=dur, node=node,
                          shard=shard, args=args)
        self.total += 1
        if len(self._ring) < self.capacity:
            self._ring.append(event)
            return
        self._ring[self._head] = event
        self._head = (self._head + 1) % self.capacity
        self.dropped += 1

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> list[SpanEvent]:
        """Events in recording order (oldest surviving event first)."""
        if self._head == 0:
            return list(self._ring)
        return self._ring[self._head:] + self._ring[:self._head]

    def __iter__(self) -> Iterator[SpanEvent]:
        return iter(self.events())

    # -- exports ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One sorted-key JSON object per event per line (byte
        deterministic for a given seed)."""
        lines = [
            json.dumps(event.to_dict(), sort_keys=True,
                       separators=(",", ":"))
            for event in self.events()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_chrome_trace(self) -> dict[str, Any]:
        """The Chrome trace-event JSON document (Perfetto-loadable).

        Nodes become trace processes (pids in first-seen order) and
        shards become threads (``tid = shard + 1``, so the whole-
        datapath shard ``-1`` renders as thread 0).  Timestamps are
        simulated seconds scaled to microseconds.
        """
        pids: dict[str, int] = {}
        tids: dict[tuple[str, int], int] = {}
        trace_events: list[dict[str, Any]] = []
        spans: list[dict[str, Any]] = []
        for event in self.events():
            node = event.node or "repro"
            if node not in pids:
                pids[node] = len(pids) + 1
                trace_events.append({
                    "ph": "M", "name": "process_name", "pid": pids[node],
                    "tid": 0, "args": {"name": node},
                })
            tid = event.shard + 1
            if (node, tid) not in tids:
                tids[(node, tid)] = tid
                label = "datapath" if tid == 0 else f"shard {event.shard}"
                trace_events.append({
                    "ph": "M", "name": "thread_name", "pid": pids[node],
                    "tid": tid, "args": {"name": label},
                })
            spans.append({
                "ph": "X",
                "name": event.name,
                "cat": event.name.split(".")[0],
                "ts": event.ts * _US_PER_SECOND,
                "dur": event.dur * _US_PER_SECOND,
                "pid": pids[node],
                "tid": tid,
                "args": event.args,
            })
        trace_events.extend(spans)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "simulated-seconds",
                "recorded": self.total,
                "dropped": self.dropped,
            },
        }

    def summary(self) -> dict[str, int]:
        """The trace's bookkeeping view for the JSON snapshot schema."""
        return {
            "events": len(self._ring),
            "recorded": self.total,
            "dropped": self.dropped,
        }
