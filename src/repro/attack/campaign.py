"""End-to-end attack orchestration: policy injection + covert stream.

An :class:`AttackCampaign` reproduces the paper's Fig. 3 storyline on
one victim node:

1. before the attack, the node carries the victim tenant's traffic and
   a baseline of forwarding rules;
2. at ``inject_time`` the attacker's policy is accepted by the CMS and
   compiled into the node's slow path (a perfectly legitimate operation
   — that is the point of the attack);
3. from ``attacker.start_time`` the covert stream feeds the ACL,
   installing one megaflow mask per packet until the cross product is
   saturated, then keeps refreshing them within the idle timeout.

The campaign assembles the :class:`~repro.perf.simulator.
DataplaneSimulator` with the right events and returns its result plus
attack-side accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.attack.analysis import (
    AttackDimension,
    AttackPrediction,
    predict,
)
from repro.attack.packets import CovertStreamGenerator
from repro.cms.base import CloudManagementSystem, PolicyTarget
from repro.flow.fields import OVS_FIELDS, FieldSpace
from repro.flow.key import FlowKey
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.ipv4 import PROTO_TCP
from repro.ovs.switch import OvsSwitch
from repro.perf.costmodel import CostModel
from repro.perf.simulator import DataplaneSimulator, SimulationResult
from repro.perf.workload import AttackerWorkload, VictimWorkload

if TYPE_CHECKING:
    from repro.scenario.datapath import Datapath


@dataclass
class CampaignReport:
    """Everything a campaign run produces."""

    prediction: AttackPrediction
    simulation: SimulationResult
    covert_packet_count: int

    def headline(self) -> str:
        """The paper-style one-liner.  A window the run holds no sample
        of — an attack starting at 0, or after the run ends — reads
        ``n/a``, and the ratio is left out."""
        sim = self.simulation
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


def _mean_or_none(mean: Callable[[], float]) -> float | None:
    """``mean()``, or ``None`` when its window holds no sample."""
    try:
        return mean()
    except ValueError:
        return None


class AttackCampaign:
    """Builds and runs one policy-injection attack scenario."""

    def __init__(
        self,
        cms: CloudManagementSystem,
        policy: object,
        dimensions: list[AttackDimension],
        attacker_pod_ip: int,
        attacker_port: int = 101,
        tenant: str = "mallory",
        victim: VictimWorkload | None = None,
        attacker: AttackerWorkload | None = None,
        inject_time: float | None = None,
        duration: float = 150.0,
        cost_model: CostModel | None = None,
        switch: "Datapath | None" = None,
        space: FieldSpace = OVS_FIELDS,
        seed: int = 7,
        attacker_strategy: str = "naive",
        reprobe_interval: float = 0.0,
        reprobe_tries: int = 128,
        covert_replay: str = "model",
        telemetry=None,
    ) -> None:
        if attacker_strategy not in ("naive", "spread"):
            raise ValueError(
                f"unknown attacker_strategy {attacker_strategy!r}: naive | spread"
            )
        if reprobe_interval < 0:
            raise ValueError("reprobe_interval must be >= 0 (0 = never re-probe)")
        self.cms = cms
        self.policy = policy
        self.dimensions = dimensions
        self.tenant = tenant
        self.victim = victim or VictimWorkload()
        self.attacker = attacker or AttackerWorkload()
        #: policy lands slightly before the covert stream starts
        self.inject_time = (
            inject_time if inject_time is not None else max(self.attacker.start_time - 1.0, 0.0)
        )
        self.duration = duration
        self.cost_model = cost_model or CostModel()
        self.space = space
        self.seed = seed
        self.switch = switch or OvsSwitch(space=space, name="victim-node")
        self.target = PolicyTarget(
            pod_ip=attacker_pod_ip,
            output_port=attacker_port,
            tenant=tenant,
            pod_name=f"{tenant}-pod",
        )
        self.attacker_strategy = attacker_strategy
        self.reprobe_interval = reprobe_interval
        self.reprobe_tries = reprobe_tries
        #: "model" | "datapath" — forwarded to the simulator (see
        #: :class:`~repro.perf.simulator.DataplaneSimulator`)
        self.covert_replay = covert_replay
        #: observability umbrella forwarded to the simulator (None =
        #: the shared null telemetry; zero overhead)
        self.telemetry = telemetry
        self.generator = CovertStreamGenerator(
            dimensions, dst_ip=attacker_pod_ip, space=space
        )

    def covert_stream(self):
        """The covert key sequence plus its re-steer hook.

        The ``naive`` strategy is the paper's one-key-per-mask stream.
        The ``spread`` strategy (hash-aware, PR 3/4) steers one variant
        per mask *per PMD shard* against the datapath's dispatcher; with
        ``reprobe_interval > 0`` the returned refresh hook re-steers
        against the *live* RETA (E10 showed a rebalanced table needs a
        bigger search budget, hence ``reprobe_tries`` > the default 32).
        Unsharded datapaths fall back to the naive stream — there is
        nothing to spread over — unless a re-probe interval was
        requested, which would then be a silent no-op and is rejected
        instead.
        """
        if self.attacker_strategy == "spread":
            from repro.ovs.pmd import shard_views

            shards = len(shard_views(self.switch))
            shard_of = getattr(self.switch, "shard_of", None)
            if shards > 1 and shard_of is not None:
                keys = self.generator.spread_keys(shards, shard_of)

                def refresh() -> list[FlowKey]:
                    return self.generator.spread_keys(
                        shards, shard_of,
                        max_tries_per_shard=self.reprobe_tries,
                    )

                return keys, (refresh if self.reprobe_interval > 0 else None)
            if self.reprobe_interval > 0:
                raise ValueError(
                    "reprobe_interval needs a multi-shard datapath: on "
                    f"{shards} shard(s) the spread stream falls back to "
                    "the naive keys and there is no dispatcher to "
                    "re-steer against (drop the interval, or use a "
                    "sharded backend)"
                )
        return self.generator.keys(), None

    def compiled_rules(self):
        """The flow rules the CMS will install for the malicious policy."""
        return self.cms.compile(self.policy, self.target, self.space)

    def victim_keys(self, count: int = 4) -> list[FlowKey]:
        """Representative victim flow keys (kept hot by the simulator).

        The victim tenant's pods live behind baseline forwarding rules;
        their traffic shares the node's megaflow cache with the
        attacker's masks — that sharing *is* the cross-tenant DoS.
        """
        keys = []
        for i in range(count):
            keys.append(
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
            )
        return keys

    def build_simulator(self, extra_events=()) -> DataplaneSimulator:
        """Assemble the simulator with the injection event wired in;
        ``extra_events`` (e.g. a defense's timed response) are merged
        into the schedule."""
        from repro.cms.base import PRIORITY_BASELINE_FORWARD
        from repro.flow.actions import Output
        from repro.flow.match import FlowMatch
        from repro.flow.rule import FlowRule
        from repro.util.bits import ones

        # baseline forwarding for the victim pod (pre-existing state)
        victim_forward = FlowRule(
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
        )
        self.switch.add_rule(victim_forward)

        rules = self.compiled_rules()

        def inject(switch: OvsSwitch) -> None:
            switch.add_rules(rules)

        covert_keys, covert_refresh = self.covert_stream()
        return DataplaneSimulator(
            switch=self.switch,
            cost_model=self.cost_model,
            victim=self.victim,
            attacker=self.attacker,
            covert_keys=covert_keys,
            victim_keys=self.victim_keys(),
            events=[(self.inject_time, inject), *extra_events],
            duration=self.duration,
            workload_seed=self.seed,
            covert_refresh=covert_refresh,
            reprobe_interval=self.reprobe_interval,
            covert_replay=self.covert_replay,
            telemetry=self.telemetry,
        )

    def run(self, extra_events=()) -> CampaignReport:
        """Execute the full campaign."""
        prediction = predict(
            self.dimensions,
            cost_model=self.cost_model,
            idle_timeout=min(self.switch.idle_timeout, 1e9),
        )
        simulator = self.build_simulator(extra_events)
        result = simulator.run()
        return CampaignReport(
            prediction=prediction,
            simulation=result,
            covert_packet_count=len(simulator.covert_keys),
        )
