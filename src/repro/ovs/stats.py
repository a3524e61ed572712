"""Aggregated dataplane statistics for one switch."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass
class SwitchStats:
    """Counters a real OVS exposes via ``ovs-appctl`` / ``dpctl``.

    The experiment harness samples these each tick; Fig. 3's right axis
    is ``masks`` over time, and the degradation tables derive from the
    scan counters.  A burst counts into its own
    :class:`~repro.ovs.switch.BatchResult` (these counters, for one
    burst), which the datapath folds in here once (:meth:`add`), as
    OVS adds its PMD counters once per batch.
    """

    #: packets processed (in an aggregate-only burst, the only
    #: population count)
    packets: int = 0
    #: packets served by the exact-match (microflow) layer
    emc_hits: int = 0
    #: packets served by the megaflow (TSS) layer
    megaflow_hits: int = 0
    upcalls: int = 0
    drops: int = 0
    forwarded: int = 0
    upcalls_rejected: int = 0
    tuples_scanned: int = 0
    hash_probes: int = 0

    def add(self, other: "SwitchStats") -> None:
        """Add every counter of ``other`` (a burst's, a shard's) into
        these — the one fold, so no caller sums fields by hand.  It is
        spelled out, not a loop over :data:`COUNTERS`: it runs once per
        burst, and a ``getattr`` / ``setattr`` pair per field costs
        several times as much (``tests/ovs/test_pmd.py`` holds it to
        every field)."""
        self.packets += other.packets
        self.emc_hits += other.emc_hits
        self.megaflow_hits += other.megaflow_hits
        self.upcalls += other.upcalls
        self.drops += other.drops
        self.forwarded += other.forwarded
        self.upcalls_rejected += other.upcalls_rejected
        self.tuples_scanned += other.tuples_scanned
        self.hash_probes += other.hash_probes

    @classmethod
    def merge(cls, *stats: "SwitchStats") -> "SwitchStats":
        """Sum counters across several stats objects into a fresh one —
        how the sharded per-PMD backend merges its shards' snapshots,
        and how fleet runs can fold per-node stats."""
        merged = cls()
        for one in stats:
            merged.add(one)
        return merged

    @property
    def emc_hit_rate(self) -> float:
        """Fraction of packets served by the exact-match cache."""
        return self.emc_hits / self.packets if self.packets else 0.0

    @property
    def avg_tuples_per_megaflow_lookup(self) -> float:
        """Mean subtables scanned per TSS lookup — the attack's lever."""
        lookups = self.megaflow_hits + self.upcalls
        return self.tuples_scanned / lookups if lookups else 0.0

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy for time-series recording."""
        snap: dict[str, float] = {name: getattr(self, name)
                                  for name in COUNTERS}
        snap["emc_hit_rate"] = self.emc_hit_rate
        snap["avg_tuples_per_megaflow_lookup"] = (
            self.avg_tuples_per_megaflow_lookup
        )
        return snap

    def reset(self) -> None:
        """Zero every counter."""
        for name in COUNTERS:
            setattr(self, name, 0)


#: the counter fields, in declaration order
COUNTERS = tuple(spec.name for spec in dataclasses.fields(SwitchStats))
