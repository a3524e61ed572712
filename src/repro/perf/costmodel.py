"""Per-packet cycle costs for the OVS pipeline paths.

Calibration (DESIGN.md §6).  Let ``C_b`` be the megaflow-path base cost
(flow extraction, EMC miss, action execution) and ``C_p`` the cost of
probing one TSS subtable.  Flow-diverse traffic that misses the
exact-match layer costs ``C_b + s·C_p`` where ``s`` is the number of
subtables scanned — ``(n+1)/2`` expected over an unordered mask array
with ``n`` masks.  The paper's anchor "512 masks ⇒ ≈10 % of peak" pins
the ratio ``C_b ≈ 26·C_p``; with the conventional ``C_p = 130`` cycles
(one hash + compare over a masked key) that gives ``C_b ≈ 3400``, in the
right range for a kernel-path per-packet cost.  The other anchors then
*follow* rather than being fitted: 8192 masks ⇒ 0.7 % (full DoS) and
8 masks ⇒ 93 % (the paper's single-field warm-up barely hurts).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class DatapathProfile:
    """Structural parameters of one OVS datapath flavour."""

    name: str
    #: exact-match cache entries (kernel: tiny per-CPU cache; netdev: EMC)
    emc_entries: int
    emc_ways: int
    #: probability a missed flow is admitted to the EMC
    emc_insertion_prob: float
    #: datapath flow limit
    flow_limit: int
    #: idle timeout enforced by the revalidator, seconds
    idle_timeout: float
    #: default TSS subtable visit order ("insertion" models the kernel
    #: mask array; "ranked" the netdev dpcls subtable ranking)
    scan_order: str = "insertion"
    #: forwarding shards (PMD threads, one classifier instance each);
    #: 1 = the single-datapath setting the paper measures
    shards: int = 1
    #: RSS indirection-table buckets on sharded datapaths (rounded up
    #: to a multiple of the shard count; NICs ship 64–512 bucket RETAs)
    reta_size: int = 128
    #: PMD auto-load-balance interval in seconds — how often the
    #: rebalancer remaps RETA buckets from the hottest PMD to the
    #: coolest; 0 disables (the static-RSS setting, bit-identical to a
    #: RETA that never moves)
    rebalance_interval: float = 0.0


#: the kernel datapath (what a Kubernetes node uses — Fig. 3's setting):
#: only a small per-CPU exact-match/mask cache fronts the megaflows
KERNEL_PROFILE = DatapathProfile(
    name="kernel",
    emc_entries=256,
    emc_ways=1,
    emc_insertion_prob=1.0,
    flow_limit=200_000,
    idle_timeout=10.0,
)

#: the userspace (netdev/DPDK) datapath: 8192-entry 2-way EMC with
#: probabilistic insertion
NETDEV_PROFILE = DatapathProfile(
    name="netdev",
    emc_entries=8192,
    emc_ways=2,
    emc_insertion_prob=1.0,
    flow_limit=200_000,
    idle_timeout=10.0,
)


#: the calibrated megaflow-path base / per-probe cycle constants, as
#: importable module values — the PMD rebalancer weighs its per-bucket
#: load window with these same numbers, so recalibrating here keeps
#: every load view on one scale
DEFAULT_CYCLES_MEGAFLOW_BASE = 3400.0
DEFAULT_CYCLES_TUPLE_PROBE = 130.0


@dataclass(frozen=True)
class CostModel:
    """Cycle costs per pipeline path plus the node's cycle budget."""

    #: cycles/second one forwarding core contributes
    cpu_hz: float = 2.4e9
    #: exact-match (microflow) cache hit
    cycles_emc_hit: float = 300.0
    #: megaflow-path base: extraction, EMC miss, action execution
    cycles_megaflow_base: float = DEFAULT_CYCLES_MEGAFLOW_BASE
    #: one TSS subtable probe (hash + masked compare)
    cycles_tuple_probe: float = DEFAULT_CYCLES_TUPLE_PROBE
    #: one *staged* probe (cheaper: incremental hash over one stage)
    cycles_staged_probe: float = 55.0
    #: slow-path upcall round trip (netlink, classification overhead)
    cycles_upcall: float = 120_000.0
    #: examining one slow-path rule during classification
    cycles_slow_rule: float = 600.0
    #: revalidating one datapath flow (per revalidator sweep)
    cycles_revalidate_flow: float = 1_000.0

    # -- per-path packet costs ----------------------------------------------

    def emc_hit_cost(self) -> float:
        """Cost of a packet served by the exact-match cache."""
        return self.cycles_emc_hit

    def megaflow_hit_cost(self, tuples_scanned: float, staged: bool = False) -> float:
        """Cost of a packet served by the megaflow cache after scanning
        ``tuples_scanned`` subtables."""
        probe = self.cycles_staged_probe if staged else self.cycles_tuple_probe
        return self.cycles_megaflow_base + tuples_scanned * probe

    def miss_cost(self, mask_count: float, rules_examined: float = 1.0,
                  staged: bool = False) -> float:
        """Cost of a packet that misses both caches: a full scan of all
        subtables plus the upcall and slow-path classification."""
        probe = self.cycles_staged_probe if staged else self.cycles_tuple_probe
        return (
            self.cycles_megaflow_base
            + mask_count * probe
            + self.cycles_upcall
            + rules_examined * self.cycles_slow_rule
        )

    # -- expected costs under the unordered-mask-array convention ----------

    def expected_hit_scan(self, mask_count: float) -> float:
        """Expected subtables scanned by a hit: ``(n+1)/2``."""
        return (mask_count + 1.0) / 2.0 if mask_count > 0 else 0.0

    def expected_megaflow_hit_cost(self, mask_count: float, staged: bool = False) -> float:
        """Expected megaflow-hit cost over an unordered mask array."""
        return self.megaflow_hit_cost(self.expected_hit_scan(mask_count), staged)

    # -- capacity -----------------------------------------------------------

    def capacity_pps(self, avg_cycles_per_packet: float,
                     available_cycles: float | None = None) -> float:
        """Packets/second a core can sustain at a given per-packet cost."""
        if avg_cycles_per_packet <= 0:
            raise ValueError("per-packet cost must be positive")
        budget = self.cpu_hz if available_cycles is None else max(available_cycles, 0.0)
        return budget / avg_cycles_per_packet

    def megaflow_path_capacity_pps(self, mask_count: float, staged: bool = False) -> float:
        """The paper's "effective peak performance": capacity for
        flow-diverse traffic that is served by the megaflow cache (the
        exact-match layer cannot help when flows vastly outnumber its
        entries).  This is the quantity the 80–90 % reduction and the
        "10 % of peak" claims are about."""
        return self.capacity_pps(self.expected_megaflow_hit_cost(mask_count, staged))

    def degradation_ratio(self, mask_count: float, baseline_masks: float = 2.0,
                          staged: bool = False) -> float:
        """Attacked capacity as a fraction of pre-attack capacity."""
        peak = self.megaflow_path_capacity_pps(baseline_masks, staged)
        attacked = self.megaflow_path_capacity_pps(mask_count, staged)
        return attacked / peak

    def scaled(self, factor: float) -> "CostModel":
        """A model with the CPU budget scaled (e.g. multiple cores)."""
        return replace(self, cpu_hz=self.cpu_hz * factor)
