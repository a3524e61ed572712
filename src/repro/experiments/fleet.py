"""E11 — fleet campaigns: the rolling attacker vs per-node and
fleet-level defenses.

The paper's measurement is one hypervisor; E11 asks the fleet
questions a provider actually faces:

* **Part A — time-to-poison-K-of-N.**  A rolling attacker walks N
  nodes, ``dwell`` seconds each.  Per-node damage *decays* one idle
  timeout after the attacker moves on, so the number of simultaneously
  poisoned nodes saturates near ``dwell·K ≈ idle_timeout + dwell`` —
  the walk cannot hold the whole fleet down at once unless it dwells
  long enough (or returns before the decay).  Per-node mask budgets
  (``mask-limit``) flatten the curve outright: no node ever crosses
  the poison threshold, at the usual exact-match degradation cost.
* **Part B — quarantine vs dwell time.**  The fleet detector samples
  every node and quarantines flagged ones: victim load migrates over
  the fabric onto the healthy remainder and the node is detached
  (subsequent covert bursts to it are undeliverable — counted and
  warned, never silent).  Quarantine trades fleet capacity for
  blast-radius containment; the faster the walk (short dwell), the
  more nodes the attacker touches before detection lands, and the
  more capacity the quarantine response itself burns.

Both parts run the full :class:`~repro.fleet.session.FleetSession`
stack — real per-node datapaths, fabric-delivered bursts, the
deterministic event loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from repro.fleet.session import FleetResult, FleetSession
from repro.fleet.spec import FleetSpec
from repro.scenario.presets import SCENARIOS
from repro.scenario.spec import DefenseUse
from repro.util.ascii_chart import AsciiTable

#: the per-node cell E11 runs: the k8s surface (512 masks, kernel
#: profile) with an early attack start so short fleets saturate
DEFAULT_NODES = 8
DEFAULT_DWELL = 5.0
DEFAULT_ATTACK_START = 10.0


def _node_scenario(duration: float, defended: bool):
    spec = SCENARIOS.get("k8s").evolve(
        duration=duration, attack_start=DEFAULT_ATTACK_START
    )
    if defended:
        spec = spec.evolve(
            defenses=(DefenseUse("mask-limit"),), name="k8s-mask-limit"
        )
    return spec


@dataclass
class PoisonCurveRow:
    """Part A: one (defense setting) rolling campaign."""

    label: str
    nodes: int
    dwell: float
    #: time_to_poison(k) per k in 1..nodes (None: never)
    curve: list[tuple[int, float | None]]
    #: most nodes poisoned at once
    peak_poisoned: int
    final_max_masks: int


@dataclass
class QuarantineRow:
    """Part B: one (dwell, quarantine setting) cell."""

    dwell: float
    quarantine: bool
    peak_poisoned: int
    poisoned_at_end: int
    quarantined: int
    migrations: int
    undeliverable: int
    #: mean fleet victim throughput once the attack is underway, bit/s
    attacked_throughput_bps: float


@dataclass
class FleetReport:
    """The full E11 result."""

    nodes: int
    poison_rows: list[PoisonCurveRow]
    quarantine_rows: list[QuarantineRow]


def _rolling_spec(nodes: int, dwell: float, defended: bool = False,
                  quarantine: bool = False, seed: int = 7) -> FleetSpec:
    """One rolling-walk fleet spec sized so the walk covers the fleet."""
    duration = DEFAULT_ATTACK_START + nodes * dwell + 10.0
    return FleetSpec(
        scenario=_node_scenario(duration, defended).evolve(seed=seed),
        nodes=nodes,
        mobility="rolling",
        dwell=dwell,
        fleet_defense="quarantine" if quarantine else "none",
        name=(
            f"e11-roll-n{nodes}-d{dwell:g}"
            f"{'-guarded' if defended else ''}"
            f"{'-quarantine' if quarantine else ''}"
        ),
    )


def _run(spec: FleetSpec) -> FleetResult:
    # quarantine runs legitimately sever fabric routes; the warnings
    # are the operator-facing signal, not an experiment failure
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return FleetSession(spec).run()


def run_poison_curve(nodes: int = DEFAULT_NODES, dwell: float = DEFAULT_DWELL,
                     seed: int = 7) -> list[PoisonCurveRow]:
    """Part A: the time-to-poison-K-of-N curve, undefended vs per-node
    mask budgets."""
    rows = []
    for defended, label in ((False, "no defense"),
                            (True, "mask-limit per node")):
        result = _run(_rolling_spec(nodes, dwell, defended=defended,
                                    seed=seed))
        rows.append(
            PoisonCurveRow(
                label=label,
                nodes=nodes,
                dwell=dwell,
                curve=result.poison_curve(),
                peak_poisoned=int(
                    max(result.aggregate.column("poisoned_nodes"))
                ),
                final_max_masks=max(result.final_node_masks),
            )
        )
    return rows


def run_quarantine_ablation(
    nodes: int = DEFAULT_NODES,
    dwells: tuple[float, ...] = (4.0, 8.0, 16.0),
    seed: int = 7,
) -> list[QuarantineRow]:
    """Part B: quarantine on/off across attacker dwell times."""
    rows = []
    for dwell in dwells:
        for quarantine in (False, True):
            spec = _rolling_spec(nodes, dwell, quarantine=quarantine,
                                 seed=seed)
            result = _run(spec)
            attack_start = spec.scenario.attack_start
            rows.append(
                QuarantineRow(
                    dwell=dwell,
                    quarantine=quarantine,
                    peak_poisoned=int(
                        max(result.aggregate.column("poisoned_nodes"))
                    ),
                    poisoned_at_end=result.poisoned_at_end(),
                    quarantined=len(result.quarantined),
                    migrations=len(result.migrations),
                    undeliverable=result.fabric["undeliverable"],
                    attacked_throughput_bps=result.fleet_throughput_mean_bps(
                        attack_start, float("inf")
                    ),
                )
            )
    return rows


def run_fleet_ablation(nodes: int = DEFAULT_NODES,
                       seed: int = 7) -> FleetReport:
    """The full E11."""
    return FleetReport(
        nodes=nodes,
        poison_rows=run_poison_curve(nodes=nodes, seed=seed),
        quarantine_rows=run_quarantine_ablation(nodes=nodes, seed=seed),
    )


def render(report: FleetReport) -> str:
    """Tabulate both parts."""
    lines = []
    curve_table = AsciiTable(
        ["Defense", "Peak poisoned", "t(1)", f"t(half)",
         f"t(all {report.nodes})", "Final worst masks"],
        title=f"E11a — rolling attacker over {report.nodes} nodes: "
        "time to poison K",
    )

    def t_at(row: PoisonCurveRow, k: int) -> str:
        value = dict(row.curve).get(k)
        return "never" if value is None else f"{value:.0f}s"

    for row in report.poison_rows:
        curve_table.add_row(
            [
                row.label,
                f"{row.peak_poisoned}/{row.nodes}",
                t_at(row, 1),
                t_at(row, max(1, row.nodes // 2)),
                t_at(row, row.nodes),
                row.final_max_masks,
            ]
        )
    lines.append(curve_table.render())
    undefended, defended = report.poison_rows
    lines.append(
        f"=> the walk peaks at {undefended.peak_poisoned}/{report.nodes} "
        f"simultaneously poisoned nodes (decay caps the blast radius); "
        f"per-node mask budgets hold every node at "
        f"{defended.final_max_masks} masks — the curve never starts."
    )

    quarantine_table = AsciiTable(
        ["Dwell", "Quarantine", "Peak poisoned", "Quarantined",
         "Migrations", "Undeliverable", "Fleet Gbps under attack"],
        title="E11b — quarantine vs dwell time",
    )
    for row in report.quarantine_rows:
        quarantine_table.add_row(
            [
                f"{row.dwell:g}s",
                "on" if row.quarantine else "off",
                f"{row.peak_poisoned}/{report.nodes}",
                row.quarantined,
                row.migrations,
                row.undeliverable,
                f"{row.attacked_throughput_bps / 1e9:.2f}",
            ]
        )
    lines.append("")
    lines.append(quarantine_table.render())
    on = [r for r in report.quarantine_rows if r.quarantine]
    lines.append(
        f"=> quarantine caps the peak at "
        f"{max(r.peak_poisoned for r in on)}/{report.nodes} poisoned and "
        f"drops every covert burst to an isolated node "
        f"({sum(r.undeliverable for r in on)} frames undeliverable across "
        f"the sweep) — paying for it in migrated load on the survivors."
    )
    return "\n".join(lines)


def to_csv_rows(report: FleetReport) -> list[str]:
    """CSV lines for the runner's ``--csv`` hook."""
    lines = ["section,label,dwell,k,value"]
    for row in report.poison_rows:
        for k, t in row.curve:
            lines.append(
                f"poison-curve,{row.label},{row.dwell},{k},"
                f"{'' if t is None else t}"
            )
    for row in report.quarantine_rows:
        label = "quarantine" if row.quarantine else "none"
        lines.append(
            f"quarantine,{label},{row.dwell},,"
            f"peak={row.peak_poisoned};quarantined={row.quarantined};"
            f"migrations={row.migrations};undeliverable={row.undeliverable};"
            f"attacked_bps={row.attacked_throughput_bps:.1f}"
        )
    return lines
