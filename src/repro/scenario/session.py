"""The Session facade: one object that runs any scenario end to end.

A :class:`Session` resolves a :class:`~repro.scenario.spec.ScenarioSpec`
against the registries, builds the datapath backend, compiles the CMS
policy, runs the attack through the perf layer, and returns a uniform
:class:`ScenarioResult` — series, mask counts, degradation, scan stats,
CSV/render hooks — regardless of which cell of the scenario matrix was
requested.

Two run modes:

* :meth:`Session.run` — the full timed campaign, the paper's Fig. 3
  storyline on one victim node.  :meth:`Session.simulator` assembles
  it on a datapath: before the attack the node carries the victim
  tenant's traffic behind a baseline forwarding rule; at
  ``inject_time`` the attacker's policy is accepted by the CMS and
  compiled into the slow path (a perfectly legitimate operation — that
  is the point of the attack); from ``attack_start`` the covert stream
  installs one megaflow mask per packet and keeps them refreshed; every
  defense's timed response rides in the same schedule.  ``run()`` steps
  it to the end and adds the closed-form prediction.
* :meth:`Session.measure` — the static mask probe (E1/E2/E3-style):
  compile the policy, replay the covert stream once, report predicted
  vs measured mask counts and the resulting megaflow table.

Both send the one covert stream :meth:`Session.covert_stream` builds
for their datapath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from repro.attack.analysis import AttackPrediction, predict, reachable_mask_count
from repro.attack.packets import REPROBE_TRIES, CovertStreamGenerator
from repro.cms.base import PRIORITY_BASELINE_FORWARD, PolicyTarget
from repro.flow.actions import Output
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.net.addresses import ip_to_int
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.ipv4 import PROTO_TCP
from repro.obs.export import mask_census, scan_stats
from repro.ovs.pmd import shard_views
from repro.perf.costmodel import CostModel
from repro.perf.factory import DatapathConfig
from repro.perf.simulator import DataplaneSimulator, SimulationResult
from repro.perf.workload import AttackerWorkload, VictimWorkload
from repro.scenario.datapath import Datapath
from repro.scenario.registry import DEFENSES, PROFILES, SURFACES, Surface
from repro.scenario.spec import ScenarioSpec
from repro.util.ascii_chart import AsciiChart, AsciiTable
from repro.util.bits import ones

if TYPE_CHECKING:
    from repro.perf.series import TimeSeries


@dataclass
class MaskProbe:
    """Outcome of a static replay: predicted vs measured mask counts."""

    predicted: int
    measured: int
    #: the resulting megaflow table as (key, mask, action) text rows,
    #: in install order (empty for backends without a megaflow cache)
    rows: list[tuple[str, str, str]]
    datapath: Datapath
    #: covert packets replayed (the probe-mode counterpart of
    #: :attr:`ScenarioResult.covert_packets`)
    covert_packets: int

    @property
    def matches_prediction(self) -> bool:
        return self.predicted == self.measured


@dataclass
class DefenseOutcome:
    """One defense's post-run accounting."""

    name: str
    label: str
    tradeoff: str


@dataclass
class ScenarioResult:
    """The uniform result every Session run returns."""

    spec: ScenarioSpec
    #: the timed run (campaign mode).  ``None`` in probe mode, where
    #: :attr:`series` and the mean accessors raise ``ValueError``
    simulation: SimulationResult | None = None
    #: the closed-form prediction for the spec's policy (campaign mode)
    prediction: AttackPrediction | None = None
    #: covert packets the timed run's stream held at its end (campaign
    #: mode; a probe's count is :attr:`MaskProbe.covert_packets`)
    covert_packets: int | None = None
    probe: MaskProbe | None = None
    defenses: list[DefenseOutcome] = field(default_factory=list)
    datapath: Datapath | None = None
    #: settle seconds before post-attack means are representative
    settle: float = 10.0

    # -- uniform accessors ---------------------------------------------------

    def _timed(self) -> SimulationResult:
        if self.simulation is None:
            raise ValueError(f"scenario {self.spec.name!r} ran in probe mode (no series)")
        return self.simulation

    @property
    def series(self) -> "TimeSeries":
        return self._timed().series

    def final_mask_count(self) -> int:
        """Masks at the end of the run (either mode)."""
        if self.simulation is not None:
            return self.simulation.final_mask_count()
        assert self.probe is not None
        return self.probe.measured

    def pre_attack_mean_bps(self) -> float:
        return self._timed().pre_attack_mean_bps()

    def post_attack_mean_bps(self, settle: float | None = None) -> float:
        return self._timed().post_attack_mean_bps(
            settle=self.settle if settle is None else settle
        )

    def degradation(self, settle: float | None = None) -> float:
        """Post-attack victim throughput as a fraction of pre-attack."""
        return self.post_attack_mean_bps(settle) / self.pre_attack_mean_bps()

    def scan_stats(self) -> dict[str, float]:
        """Datapath-level scan accounting, where the backend exposes it
        (a subset of :meth:`~repro.ovs.stats.SwitchStats.snapshot`)."""
        return scan_stats(self.datapath)

    # -- hooks ---------------------------------------------------------------

    def to_csv(self, path: str | Path) -> Path:
        """Dump the run as CSV: the time series (campaign mode) or the
        megaflow table plus counts (probe mode).  ``path`` may be a
        directory — existing, or spelled with a trailing separator
        (``to_csv("out/")``) — in which case it is created and
        ``<scenario-name>.csv`` is written inside it."""
        target = Path(path)
        if target.is_dir() or str(path).endswith(("/", "\\")):
            target = target / f"{self.spec.name}.csv"
        target.parent.mkdir(parents=True, exist_ok=True)
        if self.simulation is not None:
            self.series.to_csv(target)
            return target
        assert self.probe is not None
        lines = ["key,mask,action"]
        lines += [",".join(f'"{cell}"' for cell in row) for row in self.probe.rows]
        lines.append(f'"# predicted_masks={self.probe.predicted}",'
                     f'"measured_masks={self.probe.measured}",""')
        target.write_text("\n".join(lines) + "\n")
        return target

    def headline(self) -> str:
        """The paper-style one-liner.  In campaign mode a window the run
        holds no sample of — an attack starting at 0, or after the run
        ends — reads ``n/a``, and the ratio is left out."""
        sim = self.simulation
        if sim is None:
            assert self.probe is not None
            return (
                f"masks predicted={self.probe.predicted} measured={self.probe.measured} "
                f"({'match' if self.probe.matches_prediction else 'MISMATCH'})"
            )
        pre = _mean_or_none(sim.pre_attack_mean_bps)
        post = _mean_or_none(sim.post_attack_mean_bps)
        line = (
            f"masks={sim.final_mask_count()} "
            + ("pre=n/a " if pre is None else f"pre={pre / 1e9:.2f} Gbps ")
            + ("post=n/a" if post is None else f"post={post / 1e9:.3f} Gbps")
        )
        if pre is None or post is None:
            return line
        return f"{line} ({post / pre:.1%} of baseline)"

    def render(self) -> str:
        """Human-readable report: two stacked panels for campaigns, the
        megaflow table for probes."""
        if self.simulation is None:
            assert self.probe is not None
            table = AsciiTable(
                ["Key", "Mask", "Action"],
                title=f"{self.spec.name} — resulting megaflow table",
            )
            for row in self.probe.rows:
                table.add_row(row)
            return table.render() + "\n=> " + self.headline()

        times = self.series.column("t")
        throughput = AsciiChart(
            title=f"{self.spec.name}: victim throughput [Gbps] vs time [s]",
            width=75,
            height=12,
        )
        throughput.add_series(
            "victim", times, [v / 1e9 for v in self.series.column("victim_throughput_bps")]
        )
        masks = AsciiChart(
            title=f"{self.spec.name}: # megaflow masks (log) vs time [s]",
            width=75,
            height=10,
            log_y=True,
        )
        masks.add_series(
            "#megaflows",
            times,
            [max(m, 1.0) for m in self.series.column("megaflows")],
            marker="#",
        )
        lines = [throughput.render(), "", masks.render(), "", self.headline()]
        for outcome in self.defenses:
            lines.append(f"defense {outcome.label}: {outcome.tradeoff}")
        return "\n".join(lines)


class Session:
    """Builds and runs one scenario; the single public experiment API."""

    def __init__(
        self,
        spec: ScenarioSpec | str | dict,
        cost_model: CostModel | None = None,
        telemetry=None,
    ) -> None:
        if isinstance(spec, str):
            from repro.scenario.presets import SCENARIOS

            spec = SCENARIOS.get(spec)
        elif isinstance(spec, dict):
            spec = ScenarioSpec.from_dict(spec)
        self.spec = spec.validate()
        #: observability umbrella threaded down to the simulator
        #: (None = telemetry off; zero overhead)
        self.telemetry = telemetry
        self.surface: Surface = SURFACES.get(spec.surface)
        self.profile = PROFILES.get(spec.profile)
        self.cost_model = cost_model or CostModel()
        self.defenses = [
            DEFENSES.get(use.name)(**use.params) for use in spec.defenses
        ]
        self.space = self.surface.space()
        self.policy, self.dimensions = self.surface.build()
        self.target = PolicyTarget(
            pod_ip=ip_to_int(spec.attacker_pod_ip),
            output_port=42,
            tenant="mallory",
            pod_name="mallory-pod",
        )

    # -- building blocks -----------------------------------------------------

    def build_datapath(self, name: str | None = None) -> Datapath:
        """The configured backend with every defense guard attached."""
        datapath = DatapathConfig.from_spec(
            self.spec, self.profile, self.space,
            name or f"{self.spec.name}-node",
        ).build()
        for defense in self.defenses:
            defense.attach(datapath)
        return datapath

    def attack_rules(self) -> list["FlowRule"]:
        """The slow-path rules the attacker's policy compiles to."""
        return self.surface.compile_rules(self.policy, self.target, self.space)

    def covert_stream(
        self, datapath: Datapath
    ) -> tuple[list["FlowKey"], Callable[[], list["FlowKey"]] | None]:
        """The covert key sequence for ``datapath`` plus its re-steer
        hook — the one stream :meth:`run` and :meth:`measure` send.

        The ``naive`` strategy is the surface's stream, the paper's one
        key per mask.  The ``spread`` strategy (hash-aware) steers one
        variant per mask *per PMD shard* against the datapath's
        dispatcher; with ``reprobe_interval > 0`` the returned refresh
        hook re-steers against the *live* RETA with the larger
        :data:`~repro.attack.packets.REPROBE_TRIES` budget.  Unsharded
        datapaths fall back to the naive stream — there is nothing to
        spread over — unless a re-probe interval was requested, which
        would then be a silent no-op and is rejected instead.
        """
        spec = self.spec
        if spec.attacker_strategy == "spread":
            shards = len(shard_views(datapath))
            shard_of = getattr(datapath, "shard_of", None)
            if shards > 1 and shard_of is not None:
                generator = CovertStreamGenerator(
                    self.dimensions, dst_ip=self.target.pod_ip,
                    space=self.space,
                )
                keys = generator.spread_keys(shards, shard_of)

                def refresh() -> list["FlowKey"]:
                    return generator.spread_keys(
                        shards, shard_of, max_tries_per_shard=REPROBE_TRIES,
                    )

                return keys, (refresh if spec.reprobe_interval > 0 else None)
            if spec.reprobe_interval > 0:
                raise ValueError(
                    "reprobe_interval needs a multi-shard datapath: on "
                    f"{shards} shard(s) the spread stream falls back to "
                    "the naive keys and there is no dispatcher to "
                    "re-steer against (drop the interval, or use a "
                    "sharded backend)"
                )
        return self.surface.covert_keys(
            self.dimensions, self.target, self.space
        ), None

    def victim_keys(self) -> list[FlowKey]:
        """Representative victim flow keys (kept hot by the simulator).

        The victim tenant's pods live behind baseline forwarding rules;
        their traffic shares the node's megaflow cache with the
        attacker's masks — that sharing *is* the cross-tenant DoS.
        """
        return [
            FlowKey(
                self.space,
                {
                    "in_port": 1,
                    "eth_type": ETHERTYPE_IPV4,
                    "ip_src": 0x0A000100 + i,
                    "ip_dst": 0x0A000200,
                    "ip_proto": PROTO_TCP,
                    "tp_src": 33000 + i,
                    "tp_dst": 5201,
                },
            )
            for i in range(4)
        ]

    def simulator(self, datapath: Datapath) -> DataplaneSimulator:
        """The timed campaign on ``datapath``, ready to run or step: the
        victim's baseline rule installed now, the policy injected at
        ``inject_time`` (default: one second before the covert stream
        starts), :meth:`covert_stream`'s keys from ``attack_start``, and
        every defense's timed response in the schedule."""
        surface = self.surface
        if not surface.is_campaign:
            raise ValueError(
                f"surface {surface.name!r} has no CMS compiler; only "
                f"Session.measure() applies (campaign surfaces: "
                f"{[n for n, s in SURFACES.items() if s.is_campaign]})"
            )
        spec = self.spec
        datapath.add_rule(FlowRule(
            match=FlowMatch(
                self.space,
                {
                    "eth_type": (ETHERTYPE_IPV4, ones(16)),
                    "ip_dst": (0x0A000200, ones(32)),
                },
            ),
            action=Output(7),
            priority=PRIORITY_BASELINE_FORWARD,
            tenant="victim",
            comment="baseline forwarding: victim pod",
        ))
        rules = self.attack_rules()

        def inject(switch: Datapath) -> None:
            switch.add_rules(rules)

        inject_time = (
            spec.inject_time if spec.inject_time is not None
            else max(spec.attack_start - 1.0, 0.0)
        )
        covert_keys, covert_refresh = self.covert_stream(datapath)
        return DataplaneSimulator(
            switch=datapath,
            cost_model=self.cost_model,
            victim=VictimWorkload(
                offered_bps=spec.victim_offered_bps,
                frame_bytes=spec.victim_frame_bytes,
                concurrent_flows=spec.victim_concurrent_flows,
                new_flows_per_sec=spec.victim_new_flows_per_sec,
                skew=spec.workload_skew,
            ),
            attacker=AttackerWorkload(
                rate_bps=spec.covert_rate_bps,
                frame_bytes=spec.covert_frame_bytes,
                start_time=spec.attack_start,
            ),
            covert_keys=covert_keys,
            victim_keys=self.victim_keys(),
            events=[
                (inject_time, inject),
                *(event for defense in self.defenses
                  for event in defense.events(spec.attack_start)),
            ],
            duration=spec.duration,
            workload_seed=spec.seed,
            covert_refresh=covert_refresh,
            reprobe_interval=spec.reprobe_interval,
            covert_replay=spec.covert_replay,
            telemetry=self.telemetry,
        )

    def build_campaign(self, datapath: Datapath) -> SimpleNamespace:
        """``build_campaign(datapath).build_simulator()`` is
        :meth:`simulator` on ``datapath``, spelled as its one caller
        spells it: the pipeline benchmark's ``CampaignWorkload.execute``
        (``benchmarks/pipeline/workloads.py:311``).  ROADMAP item 9's
        benchmark change moves that line to :meth:`simulator` and
        deletes this adapter."""
        return SimpleNamespace(build_simulator=partial(self.simulator, datapath))

    # -- running -------------------------------------------------------------

    def run(self) -> ScenarioResult:
        """Execute the scenario: the full timed campaign for CMS
        surfaces, the static mask probe otherwise."""
        if not self.surface.is_campaign:
            return self.run_probe()

        datapath = self.build_datapath()
        prediction = predict(
            self.dimensions,
            cost_model=self.cost_model,
            idle_timeout=min(datapath.idle_timeout, 1e9),
        )
        simulator = self.simulator(datapath)
        simulation = simulator.run()
        return ScenarioResult(
            spec=self.spec,
            simulation=simulation,
            prediction=prediction,
            # read after the run: a re-probe replaces the key list
            covert_packets=len(simulator.covert_keys),
            defenses=self._defense_outcomes(),
            datapath=datapath,
            settle=max((d.settle for d in self.defenses), default=10.0),
        )

    def measure(self) -> MaskProbe:
        """Static replay: compile the policy into a fresh datapath, send
        :meth:`covert_stream`'s keys once, report predicted vs measured
        masks.

        Every key takes the known-miss slow-path shortcut
        (:meth:`~repro.ovs.switch.OvsSwitch.handle_miss`), which installs
        what the cache pipeline would without its quadratic miss-scan
        bill.  The stream's refresh hook is ignored: a static replay has
        no later tick to re-steer on.
        """
        datapath = self.build_datapath(name=f"{self.spec.name}-probe")
        datapath.add_rules(self.attack_rules())
        keys, _refresh = self.covert_stream(datapath)
        for key in keys:
            datapath.handle_miss(key, now=0.0)
        # a sharded datapath scatters the masks across its shards; the
        # figure comparable to the closed-form prediction is their sum
        measured = mask_census(datapath)[1]
        return MaskProbe(
            predicted=reachable_mask_count(self.dimensions),
            measured=measured,
            rows=_megaflow_rows(datapath),
            datapath=datapath,
            covert_packets=len(keys),
        )

    def run_probe(self) -> ScenarioResult:
        """:meth:`measure`, wrapped in the uniform result type (what
        :meth:`run` returns for measure-only surfaces)."""
        probe = self.measure()
        return ScenarioResult(
            spec=self.spec,
            probe=probe,
            defenses=self._defense_outcomes(),
            datapath=probe.datapath,
        )

    # -- internals -----------------------------------------------------------

    def _defense_outcomes(self) -> list[DefenseOutcome]:
        return [
            DefenseOutcome(name=use.name, label=defense.label, tradeoff=defense.tradeoff())
            for use, defense in zip(self.spec.defenses, self.defenses)
        ]


def _mean_or_none(mean: Callable[[], float]) -> float | None:
    """``mean()``, or ``None`` when its window holds no sample."""
    try:
        return mean()
    except ValueError:
        return None


def _megaflow_rows(datapath: Datapath) -> list[tuple[str, str, str]]:
    """The megaflow cache as (key, mask, action) text rows in install
    order — the format of the paper's Fig. 2b.  A sharded datapath
    contributes its shards' caches in shard order; backends without a
    megaflow cache contribute nothing."""
    rows: list[tuple[str, str, str]] = []
    for view in shard_views(datapath):
        megaflow = getattr(view, "megaflow", None)
        if megaflow is None:
            continue
        space = view.space
        for entry in megaflow.entries():
            key_text = ",".join(
                spec.format(value)
                for spec, value in zip(space.specs, entry.match.values)
            )
            mask_text = ",".join(
                spec.format(mask)
                for spec, mask in zip(space.specs, entry.match.masks)
            )
            rows.append((key_text, mask_text, entry.action.kind))
    return rows
