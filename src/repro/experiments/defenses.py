"""E7 — mitigation ablation: each defense under the Fig. 3 attack.

For every defense in the scenario registry the experiment runs the full
Calico (8192-mask) campaign with the defense active — one declarative
:class:`~repro.scenario.spec.ScenarioSpec` per row — and reports the
victim's post-attack throughput ratio plus the defense's trade-off
metric, quantifying the "mitigation techniques and their trade-offs"
discussion of the demo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scenario.session import ScenarioResult, Session
from repro.scenario.spec import DefenseUse, ScenarioSpec
from repro.util.ascii_chart import AsciiTable

#: the ablation: every registered defense with its E7 parameters
ABLATION_DEFENSES: tuple[DefenseUse, ...] = (
    DefenseUse("none"),
    DefenseUse("mask-limit", {"max_masks": 64, "mode": "exact"}),
    DefenseUse("rate-limit", {"rate_per_sec": 100.0, "burst": 200.0}),
    DefenseUse("prefix-rounding", {"granularity": 8}),
    DefenseUse("detector", {"threshold": 64, "respond_delay": 20.0}),
)


@dataclass
class DefenseRow:
    """One defense's outcome under the 8192-mask attack."""

    defense: str
    masks_final: int
    victim_ratio: float
    tradeoff: str
    #: the underlying Session result (CSV hook, series access)
    result: ScenarioResult | None = field(default=None, repr=False)


def run_defense_ablation(
    duration: float = 120.0,
    attack_start: float = 30.0,
) -> list[DefenseRow]:
    """Baseline (no defense) plus each mitigation."""
    rows: list[DefenseRow] = []
    for use in ABLATION_DEFENSES:
        spec = ScenarioSpec(
            surface="calico",
            name=f"defenses-{use.name}",
            defenses=(use,),
            duration=duration,
            attack_start=attack_start,
        )
        result = Session(spec).run()
        outcome = result.defenses[0]
        rows.append(
            DefenseRow(
                defense=outcome.label,
                masks_final=result.final_mask_count(),
                victim_ratio=result.degradation(),
                tradeoff=outcome.tradeoff,
                result=result,
            )
        )
    return rows


def render(rows: list[DefenseRow]) -> str:
    """Tabulate the ablation."""
    table = AsciiTable(
        ["Defense", "Final masks", "Victim throughput", "Trade-off"],
        title="Mitigation ablation under the 8192-mask attack (E7)",
    )
    for row in rows:
        table.add_row(
            [
                row.defense,
                row.masks_final,
                f"{row.victim_ratio:.1%} of baseline",
                row.tradeoff,
            ]
        )
    return table.render()
