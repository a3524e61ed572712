"""E4 — Fig. 3: "OVS degradation in Kubernetes".

The paper's figure shows, over 150 seconds on a Kubernetes node:

* victim throughput ≈1 Gbps until t = 60 s;
* at t = 60 s the attacker feeds her (previously injected) Calico ACL
  with low-bandwidth covert packets;
* the megaflow count (log right axis) jumps from a handful to ~10⁴;
* victim throughput collapses to near zero ("full-blown DoS").

This experiment reruns that storyline end to end through the Scenario
API: the ``fig3`` scenario resolves the Calico surface, the kernel
datapath profile and the paper's workloads, the
:class:`~repro.scenario.session.Session` compiles the malicious policy
and generates the covert stream, megaflow state lives in a real OVS
model, and the victim series comes from the calibrated cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scenario.presets import SCENARIOS
from repro.scenario.session import ScenarioResult, Session
from repro.util.ascii_chart import AsciiChart

ATTACK_START = 60.0
DURATION = 150.0


@dataclass
class Fig3Result:
    """The regenerated Fig. 3."""

    #: the underlying Session result (series, CSV hook, defense accounting)
    scenario: ScenarioResult = field(repr=False)

    @property
    def series(self):
        return self.scenario.series

    def shape_holds(self) -> bool:
        """The paper's qualitative claims, checked quantitatively:
        pre-attack plateau near the offered 1 Gbps, ≥8192 masks after
        the attack, post-attack mean below 5 % of the plateau."""
        sim = self.scenario.simulation
        pre = sim.pre_attack_mean_bps()
        post = sim.post_attack_mean_bps()
        return (
            pre > 0.9e9
            and sim.final_mask_count() >= 8192
            and post < 0.05 * pre
        )

    def render(self) -> str:
        """Fig. 3 as two stacked ASCII panels (throughput + masks)."""
        times = self.series.column("t")
        throughput = AsciiChart(
            title="Fig. 3 (top): victim throughput [Gbps] vs time [s]",
            width=75,
            height=12,
        )
        throughput.add_series(
            "victim", times, [v / 1e9 for v in self.series.column("victim_throughput_bps")]
        )
        masks = AsciiChart(
            title="Fig. 3 (bottom): # megaflow masks (log) vs time [s]",
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
        sim = self.scenario.simulation
        summary = (
            f"pre-attack mean: {sim.pre_attack_mean_bps() / 1e9:.2f} Gbps | "
            f"post-attack mean: {sim.post_attack_mean_bps() / 1e9:.3f} Gbps | "
            f"masks: {sim.final_mask_count()} | "
            f"shape {'HOLDS' if self.shape_holds() else 'BROKEN'}"
        )
        return "\n".join([throughput.render(), "", masks.render(), "", summary])


def run_fig3(
    duration: float = DURATION,
    attack_start: float = ATTACK_START,
    covert_rate_bps: float = 2e6,
    seed: int = 7,
) -> Fig3Result:
    """Run the Fig. 3 campaign with the paper's parameters."""
    spec = SCENARIOS.get("fig3").evolve(
        duration=duration,
        attack_start=attack_start,
        covert_rate_bps=covert_rate_bps,
        seed=seed,
    )
    result = Session(spec).run()
    return Fig3Result(scenario=result)
