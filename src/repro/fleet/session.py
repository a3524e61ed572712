"""The fleet facade: N hypervisor nodes, one deterministic timeline.

A :class:`FleetSession` resolves a :class:`~repro.fleet.spec.FleetSpec`,
builds one per-node campaign per hypervisor (each node wraps a real
:class:`~repro.scenario.datapath.Datapath` — ``OvsSwitch`` or
``ShardedDatapath`` per the scenario's backend — re-seeded via
:func:`~repro.ovs.pmd.shard_seed`, so node 0 keeps the base seed), wires
the nodes onto a :class:`~repro.topo.fabric.Fabric`, and drives
everything from a single :class:`~repro.fleet.loop.EventLoop`:

* **control phase** — the attacker agent consults its mobility windows
  and ships each due covert burst over the fabric (from the fleet's
  border uplink to the mallory pod on the target node) into the node's
  mailbox; undeliverable bursts (a quarantined node is detached) are
  *warned about and counted*, never silently dropped, and gate that
  node's covert replay off for the tick;
* **deliver phase** — each node drains its mailbox once per tick; all
  same-tick payload keys (victim flows migrating in) coalesce into one
  ``process_batch`` call on the node's datapath — the PR 3 batch-first
  contract at fleet scope;
* **step phase** — each node advances its
  :class:`~repro.perf.simulator.DataplaneSimulator` one tick (the same
  arithmetic a `Session` run executes, which is why a one-node fleet is
  bit-identical to one — the ``tests/fleet/test_fleet.py`` gate);
* **observe phase** — the fleet detector samples the nodes on its
  cadence and quarantines flagged ones: victim load migrates over the
  fabric onto the healthy remainder, and the node is detached.

Everything is integer-tick scheduled, seeded, and wall-clock-free: the
same spec + seed replays the identical event sequence.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import cycle, islice
from pathlib import Path
from typing import Mapping, Sequence

from repro.attack.analysis import POISONED_FRACTION, reachable_mask_count
from repro.fleet.defense import FleetDetector, FleetVerdict
from repro.fleet.loop import (
    PHASE_CONTROL,
    PHASE_DELIVER,
    PHASE_OBSERVE,
    PHASE_STEP,
    EventLoop,
)
from repro.fleet.mobility import MOBILITY, ScheduledAttacker
from repro.fleet.spec import FleetSpec
from repro.flow.key import FlowKey
from repro.obs.export import mask_census
from repro.ovs.pmd import shard_seed
from repro.perf.series import TimeSeries
from repro.scenario.session import Session
from repro.topo.fabric import Fabric
from repro.topo.node import Node as TopoNode
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
    topo: TopoNode
    quarantined: bool = False
    #: fraction of one node's worth of victim load this node serves
    #: (1.0 initially; quarantine redistributes)
    victim_share: float = 1.0
    #: covert packets that arrived over the fabric
    covert_received: int = 0
    #: mailbox messages coalesced into batch drains
    coalesced: int = 0

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
        self._drains_pending: set[tuple[int, int]] = set()
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
            topo = TopoNode(
                name,
                space=session.space,
                switch=datapath,
                install_default_route=False,
            )
            self.fabric.attach(name)
            self.nodes.append(
                FleetNode(
                    index=index,
                    name=name,
                    session=session,
                    simulator=simulator,
                    topo=topo,
                )
            )
        self.predicted_masks = reachable_mask_count(
            self.nodes[0].session.dimensions
        )
        self._built = True
        return self

    # -- event handlers -----------------------------------------------------

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

    def _ensure_drain(self, loop: EventLoop, node: FleetNode, tick: int,
                      when: float) -> None:
        pending = (node.index, tick)
        if pending in self._drains_pending:
            return
        self._drains_pending.add(pending)
        loop.schedule(when, lambda: self._drain(node), phase=PHASE_DELIVER)

    def _attacker_tick(self, loop: EventLoop, tick: int, t0: float,
                       t1: float) -> None:
        """Control phase: ship every due covert burst over the fabric
        into its target node's mailbox."""
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
                continue
            node.covert_received += due
            node.topo.enqueue(("covert", due))
            self._ensure_drain(loop, node, tick, t0)

    def _drain(self, node: FleetNode) -> None:
        """Deliver phase: one mailbox drain — all payload keys that
        arrived this tick go through the datapath as ONE batch."""
        messages = node.topo.drain_mailbox()
        if not messages:
            return
        keys: list[FlowKey] = []
        for message in messages:
            kind = message[0]
            if kind == "migrate":
                keys.append(message[1])
            # "covert" messages carry only their count: the covert
            # replay itself runs inside the node's simulator step (the
            # same hybrid-fidelity shortcut the single-node simulator
            # uses), so draining it here would double-install
        node.coalesced += len(messages)
        if not keys:
            return
        simulator = node.simulator
        batch = simulator.switch.process_batch(keys, now=simulator.t)
        simulator.adopt_victim_flows(
            keys, [result.entry for result in batch.results]
        )

    def _step_node(self, node: FleetNode) -> None:
        """Step phase: advance one node one tick (independent of every
        other node — the event-order-invariance contract)."""
        simulator = node.simulator
        if simulator.t >= simulator.duration:
            return
        simulator.offered_scale = node.victim_share
        simulator.step()

    def _quarantine_round(self, loop: EventLoop, flagged: list[FleetNode],
                          tick: int, t: float, n_ticks: int,
                          tick_times: list[float]) -> None:
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
        next_tick = tick + 1
        can_deliver = bool(healthy) and next_tick < n_ticks
        for node in flagged:
            keys = node.simulator.release_victim_flows()
            migrated_to: list[str] = []
            if can_deliver:
                frame_bytes = node.simulator.victim.frame_bytes
                for key, dest in zip(keys, islice(cycle(healthy), len(keys))):
                    if self.fabric.transmit(node.name, dest.name, frame_bytes):
                        dest.topo.enqueue(("migrate", key))
                        self._ensure_drain(
                            loop, dest, next_tick, tick_times[next_tick]
                        )
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

    def _observe_tick(self, loop: EventLoop, tick: int, t0: float, t1: float,
                      aggregate: TimeSeries, n_ticks: int,
                      tick_times: list[float], detect_state: dict) -> None:
        """Observe phase: run the fleet detector on its cadence, then
        sample the aggregate series row for this tick."""
        detector = self.detector
        if detector is not None:
            anchor = advance_if_due(
                detect_state["last"], t1, self.spec.detect_interval
            )
            if anchor is not None:
                detect_state["last"] = anchor
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
                    self._quarantine_round(
                        loop, flagged, tick, t1, n_ticks, tick_times
                    )
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

    def run(self, node_step_order: Sequence[int] | None = None) -> FleetResult:
        """Execute the fleet campaign.  ``node_step_order`` reorders
        how same-tick node steps are *scheduled* (a determinism audit
        hook — the result must not depend on it)."""
        if self._ran:
            raise RuntimeError(
                "a FleetSession runs once (its datapaths carry the run's "
                "state); build a fresh session to run again"
            )
        self._ran = True
        self.build()
        loop = EventLoop()
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
        n_ticks = len(tick_times)
        dt = self.nodes[0].simulator.dt
        order = list(node_step_order) if node_step_order is not None else list(
            range(len(self.nodes))
        )
        if sorted(order) != list(range(len(self.nodes))):
            raise ValueError(
                f"node_step_order must permute 0..{len(self.nodes) - 1}"
            )
        detect_state = {"last": 0.0}
        for tick, t0 in enumerate(tick_times):
            t1 = t0 + dt
            loop.schedule(
                t0,
                (lambda k=tick, a=t0, b=t1:
                 self._attacker_tick(loop, k, a, b)),
                phase=PHASE_CONTROL,
            )
            for index in order:
                loop.schedule(
                    t0,
                    (lambda n=self.nodes[index]: self._step_node(n)),
                    phase=PHASE_STEP,
                )
            loop.schedule(
                t0,
                (lambda k=tick, a=t0, b=t1: self._observe_tick(
                    loop, k, a, b, aggregate, n_ticks, tick_times,
                    detect_state,
                )),
                phase=PHASE_OBSERVE,
            )
        loop.run()
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
