"""Fleet-level defense: aggregate per-node observations, quarantine.

Per-node defenses (mask limits, anomaly detectors...) see one
hypervisor; the operator sees the fleet.  The :class:`FleetDetector`
samples every node on a fixed cadence, aggregates the per-node signals
— the same :class:`~repro.defense.detector.MaskAnomalyDetector`
observations the single-node detector defense uses (per PMD shard, via
``shard_views``), plus the install-guard counters
(:class:`~repro.defense.mask_limit.MaskLimitGuard` degradations /
rejections, rate-limit throttles) of any per-node defenses attached —
and flags nodes whose classifier looks poisoned.

The fleet response is **quarantine**: the flagged node is isolated from
the fabric and its victim load is migrated (over the fabric, as real
per-flow messages that install state on the receiving nodes) onto the
healthy remainder.  Quarantine trades fleet capacity for blast-radius
containment — the "quarantine vs dwell time" ablation in E11 measures
exactly that trade against the rolling attacker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.defense.detector import DEFAULT_MASK_THRESHOLD, MaskAnomalyDetector
from repro.ovs.pmd import shard_views


@dataclass
class NodeObservation:
    """One node's sampled state at one detector round."""

    node: str
    t: float
    mask_count: int
    total_mask_count: int
    megaflow_count: int
    #: tenants the node's mask-anomaly detector flagged this round
    flagged: tuple[str, ...]
    #: cumulative install-guard pressure (degraded + rejected +
    #: throttled + coarsened) across the node's attached guards
    guard_pressure: int


@dataclass
class FleetVerdict:
    """One fleet observation round."""

    t: float
    observations: list[NodeObservation] = field(default_factory=list)
    #: node names newly flagged for quarantine this round
    flagged_nodes: list[str] = field(default_factory=list)

    @property
    def attack_detected(self) -> bool:
        return bool(self.flagged_nodes)


#: the guard counter names that signal install pressure, across the
#: shipped guard types (absent attributes read as 0)
GUARD_PRESSURE_COUNTERS = ("degraded", "rejected", "throttled", "coarsened")


def guard_pressure(guards) -> int:
    """Sum the pressure counters over a node's install guards."""
    total = 0
    for guard in guards:
        for counter in GUARD_PRESSURE_COUNTERS:
            total += int(getattr(guard, counter, 0) or 0)
    return total


class FleetDetector:
    """Samples every node and flags the poisoned ones.

    A node is flagged when its per-node mask-anomaly detector flags any
    tenant on any PMD shard (footprint > ``threshold`` distinct masks),
    *or* when its install guards report new pressure since the last
    round (a capped node never grows its mask count — the guard
    counters are how its distress is visible fleet-side).
    """

    def __init__(self, threshold: int = DEFAULT_MASK_THRESHOLD) -> None:
        self.threshold = threshold
        self.history: list[FleetVerdict] = []
        self._detectors: dict[str, MaskAnomalyDetector] = {}
        self._last_pressure: dict[str, int] = {}

    def _detector_for(self, node_name: str) -> MaskAnomalyDetector:
        detector = self._detectors.get(node_name)
        if detector is None:
            detector = MaskAnomalyDetector(threshold=self.threshold)
            self._detectors[node_name] = detector
        return detector

    def observe_node(self, node_name: str, datapath, guards,
                     t: float) -> NodeObservation:
        """Sample one node: detector verdicts per PMD shard plus the
        guard counters."""
        detector = self._detector_for(node_name)
        flagged: set[str] = set()
        for shard in shard_views(datapath):
            if getattr(shard, "megaflow", None) is None:
                continue  # cacheless shards have nothing to observe
            verdict = detector.observe(shard)
            flagged.update(verdict.flagged)
        return NodeObservation(
            node=node_name,
            t=t,
            mask_count=datapath.mask_count,
            total_mask_count=getattr(
                datapath, "total_mask_count", datapath.mask_count
            ),
            megaflow_count=datapath.megaflow_count,
            flagged=tuple(sorted(flagged)),
            guard_pressure=guard_pressure(guards),
        )

    def observe(self, nodes, t: float) -> FleetVerdict:
        """One fleet round over ``(name, datapath, guards)`` triples."""
        verdict = FleetVerdict(t=t)
        for name, datapath, guards in nodes:
            observation = self.observe_node(name, datapath, guards, t)
            verdict.observations.append(observation)
            pressure_delta = observation.guard_pressure - self._last_pressure.get(
                name, 0
            )
            self._last_pressure[name] = observation.guard_pressure
            if observation.flagged or pressure_delta > 0:
                verdict.flagged_nodes.append(name)
        self.history.append(verdict)
        return verdict
