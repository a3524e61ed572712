"""Wall-clock spans recorded from outside the program.

The benchmark never edits ``src/``: a :class:`Tracer` wraps *public*
callables (class-level, or a generator on one instance) in spans
``(name, start, end, parent)`` kept in memory, and the traced run
writes them out once at exit.  A layer's **self time** is its span's
duration minus the part of that interval its child spans cover, so the
self times of one tree sum exactly to the root's duration — which is
how the per-layer table is checked against the traced wall.

Per-key calls (``MicroflowCache.lookup`` / ``insert``) are *not*
spanned — a span costs about as much as the call — they are counted
from the program's public counters instead.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: candidate tail percentiles in per-mille, highest first (see
#: :func:`tail_percentile`; integers, so 10 000 samples × 0.1 % is exactly 10)
TAIL_PERMILLES = (999, 990, 950, 900, 750, 500)

#: a percentile is only reported with at least this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def tail_percentile(samples: int) -> float | None:
    """The highest candidate percentile that still has at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it, or ``None`` when even
    the median does not (fewer than 20 samples)."""
    for permille in TAIL_PERMILLES:
        if samples * (1000 - permille) >= MIN_SAMPLES_BEYOND * 1000:
            return permille / 10.0
    return None


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class LayerTotals:
    """One layer's spans folded together."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    #: sum of the wrapped call's sized argument (keys per burst), when
    #: the wrap asked for it
    size: int = 0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """An in-memory span recorder plus the monkey-patching that feeds it.

    Single-threaded by design: the benchmark is a closed loop with one
    burst in flight, so the innermost open span is one integer.  Forked
    workers inherit the patched classes and record into their own copy
    of the lists, which dies with them — only parent-side spans are
    ever reported.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self._open = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, size: int = 0) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open)
        self.sizes.append(size)
        self.ends.append(0.0)
        self._open = index
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open = self.parents[index]

    @contextmanager
    def span(self, name: str, size: int = 0) -> Iterator[None]:
        index = self.begin(name, size)
        try:
            yield
        finally:
            self.end(index)

    # -- patching ------------------------------------------------------------

    def wrap(self, owner: type, attr: str, name: str,
             sized: bool = False) -> None:
        """Replace the function ``owner.attr`` of a class with a
        span-recording wrapper.  A call that re-enters the layer it is
        already in — ``VecSwitch`` handing a small burst to the
        inherited ``OvsSwitch.process_batch`` — is passed through
        unrecorded, so one burst is one span.  ``sized`` records
        ``len()`` of the first argument after ``self``."""
        original = vars(owner)[attr]
        names = self.names
        tracer = self

        def traced(*args, **kwargs):
            if tracer._open >= 0 and names[tracer._open] == name:
                return original(*args, **kwargs)
            index = tracer.begin(name, len(args[1]) if sized else 0)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def wrap_iterator(self, owner: object, attr: str, name: str) -> None:
        """Instance-level wrap of a generator method: each ``next()``
        is one span, so the time a consumer spends *inside* the
        producer is separated from the consumer's own."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                index = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                yield item

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every patched attribute (latest first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                # the instance attribute shadowed the class's method
                delattr(owner, attr)

    # -- reading -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus covered child time."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def subtree(self, index: int) -> tuple[int, int]:
        """The index range ``[index, stop)`` holding a span and all its
        descendants (spans are appended in start order by one thread)."""
        end = self.ends[index]
        stop = index + 1
        while stop < len(self.names) and self.starts[stop] < end:
            stop += 1
        return index, stop

    def layers(self, first: int = 0,
               stop: int | None = None) -> dict[str, LayerTotals]:
        """Spans ``[first, stop)`` folded per layer name."""
        totals: dict[str, LayerTotals] = {}
        own = self.self_times()
        for index in range(first, len(self.names) if stop is None else stop):
            name = self.names[index]
            layer = totals.get(name)
            if layer is None:
                layer = totals[name] = LayerTotals()
            duration = self.ends[index] - self.starts[index]
            layer.calls += 1
            layer.busy_s += duration
            layer.self_s += own[index]
            layer.size += self.sizes[index]
            layer.durations.append(duration)
        return totals

    def to_chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (loads in Perfetto):
        complete ``X`` events in microseconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"span": index, "parent": parent, "size": size},
            }
            for index, (name, start, end, parent, size) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents,
                    self.sizes)
            )
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class NullTracer:
    """The untraced runs' stand-in: ``span()`` costs one no-op context
    manager and nothing is ever patched."""

    @contextmanager
    def span(self, name: str, size: int = 0) -> Iterator[None]:
        yield

    def wrap_iterator(self, owner: object, attr: str, name: str) -> None:
        pass


NULL_TRACER = NullTracer()
