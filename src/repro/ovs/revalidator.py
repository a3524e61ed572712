"""The revalidator: periodic eviction of idle datapath flows.

ovs-vswitchd's revalidator threads sweep the datapath roughly twice per
second, deleting flows idle longer than ``max-idle`` (10 s by default).
The attack must outpace this reaper: the covert stream refreshes each of
its megaflows at least once per idle window, which is precisely why the
paper's 1–2 Mbps stream suffices (8192 flows / 10 s ≈ 820 pps).
"""

from __future__ import annotations

from repro.ovs.megaflow import MegaflowCache
from repro.ovs.microflow import MicroflowCache
from repro.util.cadence import advance_if_due

#: seconds between sweeps, on a grid anchored at time 0
SWEEP_INTERVAL = 0.5


class Revalidator:
    """Sweeps idle megaflows and purges stale microflow references
    every :data:`SWEEP_INTERVAL` seconds, re-sorting a ranked subtable
    order on every sweep."""

    #: optional span recorder (``Telemetry.attach`` wires these three;
    #: class-level defaults keep the un-instrumented path branch-cheap)
    trace = None
    trace_node = ""
    trace_shard = -1

    def __init__(self, cache: MegaflowCache,
                 microflow: MicroflowCache | None = None) -> None:
        self.cache = cache
        self.microflow = microflow
        self.last_sweep = 0.0
        self.sweeps = 0
        self.evicted_total = 0

    def maybe_sweep(self, now: float) -> int:
        """Run a sweep if the interval has elapsed; returns evictions.

        ``last_sweep`` is aligned to the sweep-interval grid rather than
        set to ``now``: a long idle gap still yields one (catch-up)
        sweep, but the *cadence* — the sweep count over a span of
        simulated time, and with it the ranked re-sort rhythm —
        depends only on simulated time, never on when callers happened
        to check.  (An off-grid ``now`` would otherwise
        phase-shift every subsequent sweep.)
        """
        anchor = advance_if_due(self.last_sweep, now, SWEEP_INTERVAL)
        if anchor is None:
            return 0
        evicted = self.sweep(now)  # sets last_sweep = now ...
        self.last_sweep = anchor   # ... which the grid anchor overrides
        if self.trace is not None:
            self.trace.record(
                "ovs.revalidator.sweep", now,
                node=self.trace_node, shard=self.trace_shard,
                evicted=evicted, sweeps=self.sweeps,
                megaflows=self.cache.entry_count,
            )
        return evicted

    def sweep(self, now: float) -> int:
        """Unconditionally evict idle megaflows (and clean the EMC),
        then re-rank a ranked subtable order — the tuple space's one
        re-sort, always between bursts."""
        self.last_sweep = now
        self.sweeps += 1
        evicted = self.cache.expire_idle(now)
        self.evicted_total += evicted
        if evicted and self.microflow is not None:
            self.microflow.invalidate_dead()
        self.cache.tss.resort()
        return evicted
