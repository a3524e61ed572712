"""The fleet facade: N hypervisor nodes, one deterministic timeline.

A :class:`FleetSession` resolves a :class:`~repro.fleet.spec.FleetSpec`,
builds one per-node campaign per hypervisor (each node wraps a real
:class:`~repro.scenario.datapath.Datapath` — ``OvsSwitch`` or
``ShardedDatapath`` per the scenario's backend — re-seeded via
:func:`~repro.ovs.pmd.shard_seed`, so node 0 keeps the base seed), wires
the nodes onto a :class:`~repro.topo.fabric.Fabric`, and runs one loop
over the ticks.  Each tick makes four calls in order:

* **control** — the attacker agent consults its mobility windows and
  ships each due covert burst over the fabric (from the fleet's border
  uplink to the mallory pod on the target node); undeliverable bursts
  (a quarantined node is detached) are *warned about and counted*,
  never silently dropped, and gate that node's covert replay off for
  the tick;
* **deliver** — each node, in index order, installs its ``inbox`` (the
  victim flows migrated onto it at the previous observe) as one
  ``process_batch`` call on its datapath — the batch-first contract at
  fleet scope;
* **step** — each node advances its
  :class:`~repro.perf.simulator.DataplaneSimulator` one tick (the same
  arithmetic a `Session` run executes, which is why a one-node fleet is
  bit-identical to one — the ``tests/fleet/test_fleet.py`` gate);
* **observe** — the fleet detector samples the nodes on its cadence and
  quarantines flagged ones: victim load migrates over the fabric onto
  the healthy remainder's inboxes, and the node is detached.

A node's step reads only its own state, so each node's series is the
one its simulator produces alone.  Everything is seeded and
wall-clock-free: the same spec + seed replays the identical run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import cycle, islice
from pathlib import Path
from typing import Mapping

from repro.attack.analysis import POISONED_FRACTION, reachable_mask_count
from repro.fleet.defense import FleetDetector, FleetVerdict
from repro.fleet.mobility import MOBILITY, ScheduledAttacker
from repro.fleet.spec import FleetSpec
from repro.flow.key import FlowKey
from repro.obs.export import mask_census
from repro.ovs.pmd import shard_seed
from repro.perf.series import TimeSeries
from repro.scenario.session import Session
from repro.topo.fabric import Fabric
from repro.util.ascii_chart import AsciiChart, AsciiTable
from repro.util.cadence import advance_if_due

#: the fabric link covert command-and-control bursts originate from
#: (the fleet's border uplink — never a quarantine target)
WAN_LINK = "wan"


@dataclass
class MigrationEvent:
    """One quarantine action in the fleet timeline."""

    t: float
    node: str
    #: masks on the node when it was flagged
    mask_count: int
    #: healthy nodes its victim flows migrated to (empty: none left,
    #: or the run ended before the flows could land)
    migrated_to: tuple[str, ...]
    #: victim flow keys released from the node (they reach the nodes in
    #: ``migrated_to``; with none listed, they are lost with the node)
    flows_moved: int


@dataclass
class FleetNode:
    """One hypervisor in the fleet."""

    index: int
    name: str
    session: Session
    simulator: object  # DataplaneSimulator
    quarantined: bool = False
    #: fraction of one node's worth of victim load this node serves
    #: (1.0 initially; quarantine redistributes)
    victim_share: float = 1.0
    #: victim flow keys migrated onto this node at the last observe,
    #: installed as one batch before its next step
    inbox: list[FlowKey] = field(default_factory=list)

    @property
    def datapath(self):
        return self.simulator.switch

    @property
    def guards(self) -> list:
        return [
            defense.guard
            for defense in self.session.defenses
            if hasattr(defense, "guard")
        ]


@dataclass
class FleetResult:
    """The uniform result every fleet run returns."""

    spec: FleetSpec
    #: fleet-level series (one row per tick)
    aggregate: TimeSeries
    #: per-node campaign series, node order (each bit-identical to what
    #: a standalone Session produces for that node's spec + windows)
    node_series: list[TimeSeries]
    node_names: list[str]
    #: per-node final worst-shard mask counts
    final_node_masks: list[int]
    #: the attack's reachable mask cross-product (the poison yardstick)
    predicted_masks: int
    migrations: list[MigrationEvent]
    #: fabric counter snapshot (``undeliverable`` > 0 means bursts or
    #: migrations were dropped — each was warned about at run time)
    fabric: dict[str, int]
    detector_history: list[FleetVerdict] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)

    @property
    def nodes(self) -> int:
        return len(self.node_names)

    def poisoned_at_end(self) -> int:
        return int(self.aggregate.last("poisoned_nodes"))

    def time_to_poison(self, k: int) -> float | None:
        """First simulated second at which ``k`` nodes are poisoned
        simultaneously (``None``: never happened)."""
        times = self.aggregate.column("t")
        poisoned = self.aggregate.column("poisoned_nodes")
        for t, count in zip(times, poisoned):
            if count >= k:
                return t
        return None

    def poison_curve(self) -> list[tuple[int, float | None]]:
        """``(k, time_to_poison(k))`` for every fleet size prefix."""
        return [(k, self.time_to_poison(k)) for k in range(1, self.nodes + 1)]

    def fleet_throughput_mean_bps(self, t0: float = 0.0,
                                  t1: float = float("inf")) -> float:
        times = self.aggregate.column("t")
        values = self.aggregate.column("fleet_throughput_bps")
        window = [v for t, v in zip(times, values) if t0 <= t < t1]
        if not window:
            raise ValueError("no samples in window")
        return sum(window) / len(window)

    def headline(self) -> str:
        worst = self.time_to_poison(max(1, self.nodes // 2))
        return (
            f"fleet={self.nodes} mobility={self.spec.mobility} "
            f"poisoned={self.poisoned_at_end()}/{self.nodes} "
            f"quarantined={len(self.quarantined)} "
            f"t_poison_half={'never' if worst is None else f'{worst:.0f}s'} "
            f"undeliverable={self.fabric.get('undeliverable', 0)}"
        )

    def render(self) -> str:
        """Two stacked fleet panels plus the per-node summary table."""
        times = self.aggregate.column("t")
        throughput = AsciiChart(
            title=f"{self.spec.name}: fleet victim throughput [Gbps] vs time [s]",
            width=75,
            height=10,
        )
        throughput.add_series(
            "fleet",
            times,
            [v / 1e9 for v in self.aggregate.column("fleet_throughput_bps")],
        )
        poisoned = AsciiChart(
            title=f"{self.spec.name}: poisoned / quarantined nodes vs time [s]",
            width=75,
            height=8,
        )
        poisoned.add_series(
            "poisoned", times, self.aggregate.column("poisoned_nodes"), marker="#"
        )
        poisoned.add_series(
            "quarantined", times, self.aggregate.column("quarantined_nodes"),
            marker="q",
        )
        table = AsciiTable(
            ["Node", "Final masks", "Poisoned", "Quarantined"],
            title="per-node outcome",
        )
        threshold = POISONED_FRACTION * self.predicted_masks
        for name, masks in zip(self.node_names, self.final_node_masks):
            table.add_row(
                [
                    name,
                    masks,
                    "yes" if masks >= threshold else "no",
                    "yes" if name in self.quarantined else "no",
                ]
            )
        lines = [throughput.render(), "", poisoned.render(), "", table.render()]
        for event in self.migrations:
            lines.append(
                f"t={event.t:.0f}s quarantine {event.node} "
                f"({event.mask_count} masks): {event.flows_moved} victim "
                f"flows -> {', '.join(event.migrated_to) or 'nowhere (fleet dead)'}"
            )
        lines.append("=> " + self.headline())
        return "\n".join(lines)

    def to_csv(self, path: str | Path) -> Path:
        """Dump the aggregate series (plus one CSV per node) into a
        directory; returns the aggregate CSV path."""
        target = Path(path)
        target.mkdir(parents=True, exist_ok=True)
        aggregate = target / f"{self.spec.name}.csv"
        self.aggregate.to_csv(aggregate)
        for name, series in zip(self.node_names, self.node_series):
            series.to_csv(target / f"{self.spec.name}-{name}.csv")
        return aggregate


class FleetSession:
    """Builds and runs one fleet campaign; the fleet-scale analogue of
    :class:`~repro.scenario.session.Session`."""

    def __init__(self, spec: "FleetSpec | str | Mapping",
                 telemetry=None) -> None:
        if isinstance(spec, str):
            from repro.fleet.presets import FLEETS

            spec = FLEETS.get(spec)
        elif isinstance(spec, Mapping):
            spec = FleetSpec.from_dict(spec)
        self.spec = spec.validate()
        #: one shared observability umbrella for the whole fleet: every
        #: node Session gets it, so per-node series land in one registry
        #: labeled by node (None = the shared null telemetry)
        self.telemetry = telemetry
        enabled = telemetry is not None and telemetry.enabled
        self._trace = telemetry.trace if enabled else None
        self._fleet_gauges = (
            {
                "poisoned": telemetry.gauge("fleet.poisoned_nodes"),
                "quarantined": telemetry.gauge("fleet.quarantined_nodes"),
                "total_masks": telemetry.gauge("fleet.total_masks"),
                "throughput": telemetry.gauge("fleet.throughput_bps"),
            }
            if enabled
            else None
        )
        self.base = spec.scenario
        self.policy = MOBILITY.get(spec.mobility)
        self.fabric = Fabric(f"{spec.name}-fabric")
        self.nodes: list[FleetNode] = []
        self.detector: FleetDetector | None = (
            FleetDetector(threshold=spec.detect_threshold)
            if spec.fleet_defense == "quarantine"
            else None
        )
        self.migrations: list[MigrationEvent] = []
        self._warned_routes: set[tuple[str, str]] = set()
        #: the grid anchor of the fleet detector's last observation
        self._last_detect = 0.0
        self._built = False
        self._ran = False

    # -- building ----------------------------------------------------------

    def node_victim_keys(self, session: Session, index: int) -> list[FlowKey]:
        """Node ``index``'s representative victim flows.  Node 0 keeps
        the session's exact keys (the N=1 bit-identity anchor); other
        nodes host their own pods, so their flows differ in ``ip_src``
        — which makes a migration install genuinely new state on the
        receiving node."""
        keys = session.victim_keys()
        if index == 0:
            return keys
        return [key.replace(ip_src=key.get("ip_src") + (index << 16))
                for key in keys]

    def build(self) -> "FleetSession":
        """Instantiate every node: per-node Session (re-seeded), real
        datapath with the spec's defenses attached, campaign simulator,
        mobility-windowed attacker, and the fabric link."""
        if self._built:
            return self
        spec = self.spec
        base = self.base
        windows = self.policy(
            spec.nodes, base.attack_start, base.duration, spec.dwell,
            spec.stagger,
        )
        if len(windows) != spec.nodes:
            raise ValueError(
                f"mobility {spec.mobility!r} produced {len(windows)} window "
                f"sets for {spec.nodes} nodes"
            )
        self.fabric.attach(WAN_LINK)
        for index in range(spec.nodes):
            name = f"n{index}"
            node_spec = base.evolve(seed=shard_seed(base.seed, index))
            session = Session(node_spec, telemetry=self.telemetry)
            datapath = session.build_datapath(name=f"{spec.name}-{name}")
            simulator = session.simulator(datapath)
            simulator.set_attacker(
                ScheduledAttacker(
                    rate_bps=base.covert_rate_bps,
                    frame_bytes=base.covert_frame_bytes,
                    windows=windows[index],
                )
            )
            simulator.set_victim_keys(self.node_victim_keys(session, index))
            self.fabric.attach(name)
            self.nodes.append(
                FleetNode(
                    index=index,
                    name=name,
                    session=session,
                    simulator=simulator,
                )
            )
        self.predicted_masks = reachable_mask_count(
            self.nodes[0].session.dimensions
        )
        self._built = True
        return self

    # -- the four calls of a tick -------------------------------------------

    def _warn_undeliverable(self, src: str, dst: str, what: str) -> None:
        route = (src, dst)
        if route in self._warned_routes:
            return
        self._warned_routes.add(route)
        warnings.warn(
            f"fabric could not deliver {what} from {src!r} to {dst!r} "
            f"(node detached?) — dropping and counting as undeliverable",
            RuntimeWarning,
            stacklevel=2,
        )

    def _attacker_tick(self, t0: float, t1: float) -> None:
        """Control: ship every due covert burst over the fabric to its
        target node, and gate the node's covert replay on delivery."""
        for node in self.nodes:
            attacker = node.simulator.attacker
            due = attacker.packets_due(t0, t1)
            if due <= 0:
                node.simulator.covert_gate = True
                continue
            delivered = self.fabric.transmit_many(
                WAN_LINK, node.name, due, attacker.frame_bytes
            )
            node.simulator.covert_gate = delivered
            if not delivered:
                self._warn_undeliverable(
                    WAN_LINK, node.name, f"a {due}-packet covert burst"
                )

    def _deliver(self, node: FleetNode) -> None:
        """Deliver: the victim flows migrated onto the node go through
        its datapath as ONE batch, and the node adopts them.  (The
        covert replay itself runs inside the node's simulator step.)"""
        keys, node.inbox = node.inbox, []
        if not keys:
            return
        simulator = node.simulator
        batch = simulator.switch.process_batch(keys, now=simulator.t)
        simulator.adopt_victim_flows(
            keys, [result.entry for result in batch.results]
        )

    def _step_node(self, node: FleetNode) -> None:
        """Step: advance one node one tick (reading no other node)."""
        simulator = node.simulator
        if simulator.t >= simulator.duration:
            return
        simulator.offered_scale = node.victim_share
        simulator.step()

    def _quarantine_round(self, flagged: list[FleetNode], t: float,
                          final: bool) -> None:
        """The global quarantine action for one detector round: mark
        every flagged node first (so none of them is picked as a
        migration destination by another member of the same round),
        then migrate each one's victim load over the fabric onto the
        healthy remainder and detach it."""
        for node in flagged:
            node.quarantined = True
            node.victim_share = 0.0
        healthy = [n for n in self.nodes if not n.quarantined]
        if healthy:
            # the whole fleet's victim load redistributes over the
            # survivors (each node carried 1 node-unit before)
            share = len(self.nodes) / len(healthy)
            for survivor in healthy:
                survivor.victim_share = share
        # flows can only land on a tick that still runs: a quarantine
        # on the final observe has nowhere to migrate to, and must not
        # claim (or count fabric frames for) a migration that never
        # installs
        can_deliver = bool(healthy) and not final
        for node in flagged:
            keys = node.simulator.release_victim_flows()
            migrated_to: list[str] = []
            if can_deliver:
                frame_bytes = node.simulator.victim.frame_bytes
                for key, dest in zip(keys, islice(cycle(healthy), len(keys))):
                    if self.fabric.transmit(node.name, dest.name, frame_bytes):
                        dest.inbox.append(key)
                        if dest.name not in migrated_to:
                            migrated_to.append(dest.name)
                    else:
                        self._warn_undeliverable(
                            node.name, dest.name, "a migrated victim flow"
                        )
            self.fabric.detach(node.name)
            event = MigrationEvent(
                t=t,
                node=node.name,
                mask_count=node.datapath.mask_count,
                migrated_to=tuple(migrated_to),
                flows_moved=len(keys),
            )
            self.migrations.append(event)
            if self._trace is not None:
                self._trace.record(
                    "fleet.quarantine", t, node=node.name,
                    mask_count=event.mask_count,
                    flows_moved=event.flows_moved,
                )
                if migrated_to:
                    self._trace.record(
                        "fleet.migration", t, node=node.name,
                        to=",".join(migrated_to), flows=len(keys),
                    )

    def _observe_tick(self, t0: float, t1: float, aggregate: TimeSeries,
                      final: bool) -> None:
        """Observe: run the fleet detector on its cadence, then sample
        the aggregate series row for this tick (``final``: the run's
        last tick, after which no migrated flow can land)."""
        detector = self.detector
        if detector is not None:
            anchor = advance_if_due(
                self._last_detect, t1, self.spec.detect_interval
            )
            if anchor is not None:
                self._last_detect = anchor
                verdict = detector.observe(
                    [
                        (n.name, n.datapath, n.guards)
                        for n in self.nodes
                        if not n.quarantined
                    ],
                    t1,
                )
                flagged = [
                    node
                    for node in self.nodes
                    if node.name in verdict.flagged_nodes
                    and not node.quarantined
                ]
                if flagged:
                    self._quarantine_round(flagged, t1, final)
        threshold = POISONED_FRACTION * self.predicted_masks
        throughput = 0.0
        capacity = 0.0
        masks = []
        total_masks = 0
        for node in self.nodes:
            series = node.simulator.series
            throughput += series.last("victim_throughput_bps")
            capacity += series.last("victim_capacity_bps")
            worst, total = mask_census(node.datapath)
            masks.append(worst)
            total_masks += total
        counters = self.fabric.counters()
        aggregate.append(
            t=t1,
            fleet_throughput_bps=throughput,
            fleet_capacity_bps=capacity,
            max_node_masks=max(masks),
            mean_node_masks=sum(masks) / len(masks),
            total_masks=total_masks,
            poisoned_nodes=sum(m >= threshold for m in masks),
            quarantined_nodes=sum(n.quarantined for n in self.nodes),
            attacker_nodes=sum(
                n.simulator.attacker.active_at(t0) for n in self.nodes
            ),
            migrations=len(self.migrations),
            fabric_delivered=counters["delivered"],
            fabric_undeliverable=counters["undeliverable"],
        )
        if self._fleet_gauges is not None:
            gauges = self._fleet_gauges
            self.telemetry.advance(t1)
            gauges["poisoned"].set(float(aggregate.last("poisoned_nodes")))
            gauges["quarantined"].set(
                float(aggregate.last("quarantined_nodes"))
            )
            gauges["total_masks"].set(float(total_masks))
            gauges["throughput"].set(throughput)

    # -- running ------------------------------------------------------------

    def _tick_times(self) -> list[float]:
        """The per-tick start times, accumulated exactly like the
        simulator's own ``run`` loop (so a one-node fleet executes the
        identical step count and float clocks)."""
        simulator = self.nodes[0].simulator
        times: list[float] = []
        t = 0.0
        while t < simulator.duration:
            times.append(t)
            t += simulator.dt
        return times

    def run(self) -> FleetResult:
        """Execute the fleet campaign: per tick, control → deliver →
        step → observe."""
        if self._ran:
            raise RuntimeError(
                "a FleetSession runs once (its datapaths carry the run's "
                "state); build a fresh session to run again"
            )
        self._ran = True
        self.build()
        aggregate = TimeSeries(
            columns=[
                "t",
                "fleet_throughput_bps",
                "fleet_capacity_bps",
                "max_node_masks",
                "mean_node_masks",
                "total_masks",
                "poisoned_nodes",
                "quarantined_nodes",
                "attacker_nodes",
                "migrations",
                "fabric_delivered",
                "fabric_undeliverable",
            ]
        )
        for node in self.nodes:
            node.simulator.start()
        tick_times = self._tick_times()
        dt = self.nodes[0].simulator.dt
        for tick, t0 in enumerate(tick_times):
            t1 = t0 + dt
            self._attacker_tick(t0, t1)
            for node in self.nodes:
                self._deliver(node)
            for node in self.nodes:
                self._step_node(node)
            self._observe_tick(t0, t1, aggregate,
                               final=tick + 1 == len(tick_times))
        return FleetResult(
            spec=self.spec,
            aggregate=aggregate,
            node_series=[node.simulator.series for node in self.nodes],
            node_names=[node.name for node in self.nodes],
            final_node_masks=[node.datapath.mask_count for node in self.nodes],
            predicted_masks=self.predicted_masks,
            migrations=list(self.migrations),
            fabric=self.fabric.counters(),
            detector_history=list(self.detector.history) if self.detector else [],
            quarantined=[n.name for n in self.nodes if n.quarantined],
        )
