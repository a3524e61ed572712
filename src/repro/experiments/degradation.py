"""E5 — the headline: "reduce its effective peak performance by 80-90%,
and, in certain cases, denying network access altogether".

"Effective peak performance" is the switch's packet-processing capacity
for flow-diverse traffic — the megaflow-path capacity (DESIGN.md §6).
This sweep runs every campaign surface in the scenario registry through
a full :class:`~repro.scenario.session.Session` on a kernel-profile
switch and reports, per attack surface, the measured mask count and the
attacked capacity as a fraction of the pre-attack peak, plus the
end-to-end victim throughput ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf.costmodel import CostModel
from repro.scenario.registry import SURFACES
from repro.scenario.session import ScenarioResult, Session
from repro.scenario.spec import ScenarioSpec
from repro.util.ascii_chart import AsciiTable

#: the surfaces the sweep covers, in the paper's presentation order
SWEEP_SURFACES = ("prefix8", "k8s", "openstack", "calico")


@dataclass
class DegradationRow:
    """One attack surface's degradation summary."""

    surface: str
    cms: str
    masks: int
    #: megaflow-path capacity, attacked / peak (the paper's headline metric)
    capacity_ratio: float
    #: end-to-end victim throughput, post-attack / pre-attack
    victim_ratio: float
    #: measured mean subtables scanned per megaflow lookup (from the
    #: datapath's :meth:`~repro.ovs.stats.SwitchStats.snapshot`)
    avg_tuples_per_lookup: float = 0.0
    #: the underlying Session result (CSV hook, series access)
    result: ScenarioResult | None = field(default=None, repr=False)

    @property
    def reduction_pct(self) -> float:
        """Peak-performance reduction in percent."""
        return (1.0 - self.capacity_ratio) * 100.0


def run_degradation_sweep(
    duration: float = 120.0,
    attack_start: float = 30.0,
    cost_model: CostModel | None = None,
) -> list[DegradationRow]:
    """Run every surface through a full campaign on a kernel-profile
    switch and summarise."""
    model = cost_model or CostModel()
    rows: list[DegradationRow] = []
    for name in SWEEP_SURFACES:
        surface = SURFACES.get(name)
        spec = ScenarioSpec(
            surface=name,
            name=f"degradation-{name}",
            duration=duration,
            attack_start=attack_start,
        )
        result = Session(spec, cost_model=model).run()
        masks = result.final_mask_count()
        scan = result.scan_stats()
        rows.append(
            DegradationRow(
                surface=surface.short_label,
                cms=surface.cms_name,
                masks=masks,
                capacity_ratio=model.degradation_ratio(masks),
                victim_ratio=result.degradation(),
                avg_tuples_per_lookup=scan.get(
                    "avg_tuples_per_megaflow_lookup", 0.0
                ),
                result=result,
            )
        )
    return rows


def render(rows: list[DegradationRow]) -> str:
    """Tabulate the sweep (the paper's headline row is kubernetes/512)."""
    table = AsciiTable(
        ["Surface", "CMS", "Masks", "Avg scan", "Peak capacity", "Reduction",
         "Victim tput"],
        title="Headline degradation sweep (E5)",
    )
    for row in rows:
        table.add_row(
            [
                row.surface,
                row.cms,
                row.masks,
                f"{row.avg_tuples_per_lookup:.1f}",
                f"{row.capacity_ratio:.1%} of peak",
                f"{row.reduction_pct:.0f}%",
                f"{row.victim_ratio:.1%} of baseline",
            ]
        )
    return table.render()
