"""Aggregated dataplane statistics for one switch."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass
class SwitchStats:
    """Counters a real OVS exposes via ``ovs-appctl`` / ``dpctl``.

    The experiment harness samples these each tick; Fig. 3's right axis
    is ``masks`` over time, and the degradation tables derive from the
    scan counters.
    """

    packets: int = 0
    emc_hits: int = 0
    megaflow_hits: int = 0
    upcalls: int = 0
    drops: int = 0
    forwarded: int = 0
    upcalls_rejected: int = 0
    tuples_scanned: int = 0
    hash_probes: int = 0

    def record_scan(self, tuples_scanned: int, hash_probes: int) -> None:
        """Accumulate one TSS scan's cost."""
        self.tuples_scanned += tuples_scanned
        self.hash_probes += hash_probes

    @classmethod
    def merge(cls, *stats: "SwitchStats") -> "SwitchStats":
        """Sum counters across several stats objects into a fresh one.

        The aggregation point for multi-switch datapaths — the sharded
        per-PMD backend merges its shards' snapshots this way, and fleet
        runs can fold per-node stats the same way — so consumers never
        hand-sum fields (and silently miss new counters)."""
        merged = cls()
        for one in stats:
            for spec in dataclasses.fields(cls):
                setattr(
                    merged,
                    spec.name,
                    getattr(merged, spec.name) + getattr(one, spec.name),
                )
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
        return {
            "packets": self.packets,
            "emc_hits": self.emc_hits,
            "megaflow_hits": self.megaflow_hits,
            "upcalls": self.upcalls,
            "drops": self.drops,
            "forwarded": self.forwarded,
            "upcalls_rejected": self.upcalls_rejected,
            "tuples_scanned": self.tuples_scanned,
            "hash_probes": self.hash_probes,
            "emc_hit_rate": self.emc_hit_rate,
            "avg_tuples_per_megaflow_lookup": self.avg_tuples_per_megaflow_lookup,
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.packets = 0
        self.emc_hits = 0
        self.megaflow_hits = 0
        self.upcalls = 0
        self.drops = 0
        self.forwarded = 0
        self.upcalls_rejected = 0
        self.tuples_scanned = 0
        self.hash_probes = 0
