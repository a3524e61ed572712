"""End-to-end attack orchestration: policy injection + covert stream.

An :class:`AttackCampaign` reproduces the paper's Fig. 3 storyline on
one victim node:

1. before the attack, the node carries the victim tenant's traffic and
   a baseline of forwarding rules;
2. at ``inject_time`` the attacker's policy is accepted by the CMS and
   compiled into the node's slow path (a perfectly legitimate operation
   — that is the point of the attack);
3. from ``attack_start`` the covert stream feeds the ACL, installing
   one megaflow mask per packet until the cross product is saturated,
   then keeps refreshing them within the idle timeout.

The campaign is built from the :class:`~repro.scenario.session.Session`
it belongs to — every knob is read from its spec, the policy is
compiled against its attacker target, the covert stream is the
session's for this datapath — and assembles the
:class:`~repro.perf.simulator.DataplaneSimulator` with the injection
event and the session's defense events wired in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.attack.analysis import AttackPrediction, predict
from repro.flow.key import FlowKey
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.ipv4 import PROTO_TCP
from repro.perf.simulator import DataplaneSimulator, SimulationResult
from repro.perf.workload import AttackerWorkload, VictimWorkload

if TYPE_CHECKING:
    from repro.scenario.datapath import Datapath
    from repro.scenario.session import Session


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
    """One session's policy-injection attack on ``datapath``."""

    def __init__(self, session: "Session", datapath: "Datapath") -> None:
        surface = session.surface
        if not surface.is_campaign:
            from repro.scenario.registry import SURFACES

            raise ValueError(
                f"surface {surface.name!r} has no CMS compiler; only "
                f"Session.measure() applies (campaign surfaces: "
                f"{[n for n, s in SURFACES.items() if s.is_campaign]})"
            )
        spec = session.spec
        self.session = session
        self.switch = datapath
        self.victim = VictimWorkload(
            offered_bps=spec.victim_offered_bps,
            frame_bytes=spec.victim_frame_bytes,
            concurrent_flows=spec.victim_concurrent_flows,
            new_flows_per_sec=spec.victim_new_flows_per_sec,
            skew=spec.workload_skew,
        )
        self.attacker = AttackerWorkload(
            rate_bps=spec.covert_rate_bps,
            frame_bytes=spec.covert_frame_bytes,
            start_time=spec.attack_start,
        )
        #: policy lands slightly before the covert stream starts
        self.inject_time = (
            spec.inject_time if spec.inject_time is not None
            else max(spec.attack_start - 1.0, 0.0)
        )

    def victim_keys(self) -> list[FlowKey]:
        """Representative victim flow keys (kept hot by the simulator).

        The victim tenant's pods live behind baseline forwarding rules;
        their traffic shares the node's megaflow cache with the
        attacker's masks — that sharing *is* the cross-tenant DoS.
        """
        return [
            FlowKey(
                self.session.space,
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

    def build_simulator(self) -> DataplaneSimulator:
        """Assemble the simulator: the victim's baseline rule installed
        now, the policy injected at ``inject_time``, and every defense's
        timed response in the schedule."""
        from repro.cms.base import PRIORITY_BASELINE_FORWARD
        from repro.flow.actions import Output
        from repro.flow.match import FlowMatch
        from repro.flow.rule import FlowRule
        from repro.util.bits import ones

        session = self.session
        spec = session.spec
        # baseline forwarding for the victim pod (pre-existing state)
        self.switch.add_rule(FlowRule(
            match=FlowMatch(
                session.space,
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

        rules = session.attack_rules()

        def inject(switch: "Datapath") -> None:
            switch.add_rules(rules)

        covert_keys, covert_refresh = session.covert_stream(self.switch)
        return DataplaneSimulator(
            switch=self.switch,
            cost_model=session.cost_model,
            victim=self.victim,
            attacker=self.attacker,
            covert_keys=covert_keys,
            victim_keys=self.victim_keys(),
            events=[
                (self.inject_time, inject),
                *(event for defense in session.defenses
                  for event in defense.events(spec.attack_start)),
            ],
            duration=spec.duration,
            workload_seed=spec.seed,
            covert_refresh=covert_refresh,
            reprobe_interval=spec.reprobe_interval,
            covert_replay=spec.covert_replay,
            telemetry=session.telemetry,
        )

    def run(self) -> CampaignReport:
        """Execute the full campaign."""
        prediction = predict(
            self.session.dimensions,
            cost_model=self.session.cost_model,
            idle_timeout=min(self.switch.idle_timeout, 1e9),
        )
        simulator = self.build_simulator()
        result = simulator.run()
        return CampaignReport(
            prediction=prediction,
            simulation=result,
            covert_packet_count=len(simulator.covert_keys),
        )
