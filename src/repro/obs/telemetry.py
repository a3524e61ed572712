"""The metrics registry: counters, gauges, histograms on simulated time.

One :class:`Telemetry` instance is the umbrella for a run's whole
observability surface: the metric registry itself, the span
:class:`~repro.obs.trace.TraceRecorder`, and the cycle-attribution
:class:`~repro.obs.profile.CycleProfile`.  Layers receive it as an
optional constructor argument; ``None`` is telemetry off, and a layer
given ``None`` registers no instrument and records nothing — it checks
``telemetry is not None`` once, where it is built, and caches what the
hot path needs.

Contracts the lint rule ``metric-hygiene`` enforces at the call sites:

- metric and span **names are lowercase dotted identifiers** (at least
  two dot-separated ``[a-z][a-z0-9_]*`` segments, e.g.
  ``sim.attacker.cycles``) and are passed as string literals;
- dimensions beyond the name travel as **labels** (``node=``,
  ``shard=``), never baked into the name, so exporters can aggregate;
- no ad-hoc dict-key counters in instrumented modules — everything
  registered here, where the registry can detect type conflicts and
  export one coherent schema.

Determinism: the registry holds insertion-ordered dicts but every
export sorts by ``(name, labels)``, histograms use fixed bucket
bounds, and all timestamps come from the *simulated* clock fed through
:meth:`Telemetry.advance` — so a seeded run produces byte-identical
Prometheus text and JSON snapshots every time.
"""

from __future__ import annotations

import re
from typing import Any

from repro.obs.profile import CycleProfile
from repro.obs.trace import TraceRecorder

__all__ = [
    "METRIC_NAME_RE",
    "Counter",
    "Gauge",
    "Histogram",
    "Telemetry",
]

#: lowercase dotted identifiers, two+ segments: ``sim.attacker.cycles``
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: default histogram bounds: 1-2-5 decades spanning sub-cycle costs to
#: the million-cycle deep-scan regime (fixed — never derived from data)
DEFAULT_BUCKETS: tuple[float, ...] = (
    10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0,
    100_000.0, 200_000.0, 500_000.0, 1_000_000.0,
)

LabelItems = tuple[tuple[str, str], ...]


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def sample(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """A point-in-time level (set, not accumulated)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def sample(self) -> dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics:
    ``le`` buckets count observations ``<= bound``, plus ``+Inf``)."""

    kind = "histogram"
    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(
                f"histogram bounds must be non-empty and sorted: {bounds!r}"
            )
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last slot = +Inf
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        slot = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                slot = i
                break
        self.counts[slot] += 1
        self.count += 1
        self.total += value

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le_bound, cumulative_count)`` pairs, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def sample(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": [
                [bound, count] for bound, count in
                zip(self.bounds, self.counts)
            ],
            "overflow": self.counts[-1],
        }


def _label_items(labels: dict[str, str]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Telemetry:
    """The live registry: named, labeled instruments plus the trace
    recorder and cycle profile, all stamped with simulated time."""

    def __init__(self) -> None:
        #: simulated seconds — the max ``now`` any layer reported
        self.clock = 0.0
        self.trace = TraceRecorder()
        self.profile = CycleProfile()
        self._metrics: dict[tuple[str, LabelItems], Any] = {}
        self._kinds: dict[str, str] = {}

    # -- clock --------------------------------------------------------------

    def advance(self, now: float) -> None:
        """Move the simulated timestamp forward (monotonic clamp)."""
        if now > self.clock:
            self.clock = now

    # -- registry -----------------------------------------------------------

    def _instrument(self, kind: str, name: str,
                    labels: dict[str, str], factory) -> Any:
        if not METRIC_NAME_RE.match(name):
            raise ValueError(
                f"metric name {name!r} is not a lowercase dotted "
                "identifier (expected e.g. 'sim.attacker.cycles')"
            )
        registered = self._kinds.get(name)
        if registered is not None and registered != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {registered}, "
                f"cannot re-register as a {kind}"
            )
        key = (name, _label_items(labels))
        instrument = self._metrics.get(key)
        if instrument is None:
            instrument = factory()
            self._metrics[key] = instrument
            self._kinds[name] = kind
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._instrument("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._instrument("gauge", name, labels, Gauge)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._instrument("histogram", name, labels, Histogram)

    def series(self) -> list[tuple[str, LabelItems, Any]]:
        """Every registered instrument, sorted by (name, labels)."""
        return sorted(
            (name, labels, instrument)
            for (name, labels), instrument in self._metrics.items()
        )

    # -- wiring -------------------------------------------------------------

    def attach(self, datapath, node: str = "") -> None:
        """Wire the trace recorder into a datapath's event sources:
        per-shard revalidators, the PMD rebalancer, and (for the
        parallel runtime) the mailbox round-trip hook."""
        # late import: obs must stay importable from every layer
        from repro.ovs.pmd import shard_views

        name = node or getattr(datapath, "name", "") or ""
        attach_trace = getattr(datapath, "attach_trace", None)
        if attach_trace is not None:
            attach_trace(self.trace, node=name)
        rebalancer = getattr(datapath, "rebalancer", None)
        if rebalancer is not None:
            rebalancer.trace = self.trace
            rebalancer.trace_node = name
        views = shard_views(datapath)
        multi = len(views) > 1
        for index, shard in enumerate(views):
            revalidator = getattr(shard, "revalidator", None)
            if revalidator is not None:
                revalidator.trace = self.trace
                revalidator.trace_node = name
                revalidator.trace_shard = index if multi else -1

    # -- snapshot -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The stable JSON snapshot schema (shared by Session,
        FleetSession and ``repro serve``): simulated clock, every
        metric sorted by (name, labels), trace bookkeeping, profile."""
        return {
            "schema": "repro.obs/v1",
            "clock": self.clock,
            "metrics": [
                {
                    "name": name,
                    "type": instrument.kind,
                    "labels": dict(labels),
                    **instrument.sample(),
                }
                for name, labels, instrument in self.series()
            ],
            "trace": self.trace.summary(),
            "profile": self.profile.to_dict(),
        }
