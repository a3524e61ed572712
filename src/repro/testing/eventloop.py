"""A deterministic heap-based event scheduler.

The EMC micro-simulation's discrete-event core
(:mod:`repro.testing.eventsim`): a single binary heap orders every
scheduled callback by ``(time, phase, seq)`` —

* **time** — any totally ordered numeric clock (the micro-simulation
  schedules float arrival times);
* **phase** — same-time events execute in a fixed phase order, making
  a tie-break rule explicit in the ordering key rather than implicit in
  scheduling order;
* **seq** — a monotone counter breaking remaining ties FIFO.

No wall clock and no global :mod:`random` anywhere: given the same
schedule, two runs execute the identical event sequence.  The clock is
monotonic — scheduling into the past is an error, mirroring the
dataplane clocks.
"""

from __future__ import annotations

import heapq
from typing import Callable


class EventLoop:
    """A heap-based scheduler with (time, phase, seq) ordering."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Callable[[], None]]] = []
        self._seq = 0
        #: the time of the event currently (or last) executed
        self.now: float = 0.0
        #: events executed so far
        self.processed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, when: float, fn: Callable[[], None],
                 phase: int = 0) -> None:
        """Schedule ``fn`` at ``when``; scheduling into the past is an
        error (monotonic-clock contract)."""
        if when < self.now:
            raise ValueError(
                f"cannot schedule at {when!r}: the loop clock is already "
                f"at {self.now!r} (monotonic-clock contract)"
            )
        heapq.heappush(self._heap, (when, phase, self._seq, fn))
        self._seq += 1

    def run(self, until: float | None = None) -> int:
        """Execute events in order until the heap drains (or the next
        event lies beyond ``until``); returns events executed."""
        executed = 0
        while self._heap:
            when, _phase, _seq, fn = self._heap[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._heap)
            self.now = when
            fn()
            self.processed += 1
            executed += 1
        return executed
