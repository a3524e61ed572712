"""E9 — multi-PMD sharding: does the tuple-space explosion scale out?

Real deployments run one PMD thread per core, each with its **own**
dpcls — its own subtable pvector and megaflow cache — and the NIC's RSS
hash scatters flows across them.  The paper measures a single datapath
thread; this ablation asks the scale question: when the node grows to N
shards, does the attack's mask explosion stay confined to the shards
the covert flows happen to hash to, or can the attacker poison all of
them?

Both, depending on the attacker:

* the **naive** attacker replays the paper's stream unchanged (one
  packet per mask).  RSS scatters the masks ≈ evenly, so each shard
  carries only ``≈ total/N`` of them — sharding *dilutes* the damage
  roughly N-fold, and benign capacity scales out with the cores;
* the **hash-aware** attacker
  (:meth:`~repro.attack.packets.CovertStreamGenerator.spread_keys`)
  exploits the bits each megaflow wildcards anyway (everything below
  the witness bit) as free RSS entropy: per mask it crafts one variant
  per shard, so **every** PMD receives the full cross-product.  The
  cost is N× covert packets/bandwidth — still a trickle — and the
  degradation is back to the single-datapath cliff on every core.

The megaflow state is installed by :meth:`~repro.scenario.session.
Session.measure` — the session's covert stream for the spec's
``attacker_strategy``, through the real slow path of a real
:class:`~repro.ovs.pmd.ShardedDatapath` (k8s surface, 512 masks, kernel
profile); the degradation columns come from the calibrated cost model,
per shard, exactly as the simulator charges them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attack.analysis import POISONED_FRACTION
from repro.ovs.pmd import shard_views
from repro.perf.costmodel import CostModel
from repro.scenario.session import Session
from repro.scenario.spec import ScenarioSpec
from repro.util.ascii_chart import AsciiTable

#: PMD shard counts the ablation sweeps
DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)

#: the unattacked reference mask population (the convention the
#: degradation headline uses throughout the repo)
BASELINE_MASKS = 2


@dataclass
class ShardingRow:
    """One (attacker, shard count) cell of the ablation."""

    attacker: str
    shards: int
    #: covert packets the attacker needs (N× for the spread attacker)
    covert_packets: int
    #: masks summed over shards / on the fullest shard / on the emptiest
    total_masks: int
    max_shard_masks: int
    min_shard_masks: int
    #: shards carrying >= POISONED_FRACTION of the full cross-product
    poisoned_shards: int
    #: mean per-shard victim capacity vs an unattacked core (the
    #: degradation a victim flow sees on average)
    degradation: float
    #: aggregate node capacity vs ONE unattacked core (benign scale-out
    #: minus attack damage): shards × degradation
    aggregate_capacity_x: float


def run_sharding_ablation(
    shard_counts: tuple[int, ...] = DEFAULT_SHARD_COUNTS,
    cost_model: CostModel | None = None,
    seed: int = 7,
) -> list[ShardingRow]:
    """Sweep {naive, spread} × shard counts; naive damage must dilute
    with the shard count while spread damage must not."""
    model = cost_model or CostModel()
    full_masks: int | None = None
    rows: list[ShardingRow] = []
    for attacker in ("naive", "spread"):
        for shards in shard_counts:
            probe = Session(ScenarioSpec(
                surface="k8s", name=f"e9-{attacker}-{shards}",
                attacker_strategy=attacker, shards=shards, seed=seed,
            )).measure()
            per_shard = [view.mask_count for view in shard_views(probe.datapath)]
            if full_masks is None:
                # the single-shard naive run carries the whole cross-product
                full_masks = probe.measured
            degradation = sum(
                model.degradation_ratio(masks, baseline_masks=BASELINE_MASKS)
                for masks in per_shard
            ) / shards
            rows.append(
                ShardingRow(
                    attacker=attacker,
                    shards=shards,
                    covert_packets=probe.covert_packets,
                    total_masks=probe.measured,
                    max_shard_masks=max(per_shard),
                    min_shard_masks=min(per_shard),
                    poisoned_shards=sum(
                        masks >= POISONED_FRACTION * full_masks
                        for masks in per_shard
                    ),
                    degradation=degradation,
                    aggregate_capacity_x=shards * degradation,
                )
            )
    return rows


def render(rows: list[ShardingRow]) -> str:
    """Tabulate the ablation."""
    table = AsciiTable(
        ["Attacker", "Shards", "Covert pkts", "Masks (max/min per shard)",
         "Poisoned", "Victim capacity", "Node capacity"],
        title="Multi-PMD sharding ablation (E9)",
    )
    for row in rows:
        table.add_row(
            [
                row.attacker,
                row.shards,
                row.covert_packets,
                f"{row.total_masks} ({row.max_shard_masks}/{row.min_shard_masks})",
                f"{row.poisoned_shards}/{row.shards}",
                f"{row.degradation:.1%} of peak",
                f"{row.aggregate_capacity_x:.2f}x one core",
            ]
        )
    by_cell = {(r.attacker, r.shards): r for r in rows}
    most = max(r.shards for r in rows)
    naive = by_cell[("naive", most)]
    spread = by_cell[("spread", most)]
    lines = [table.render()]
    lines.append(
        f"=> at {most} shards the naive stream poisons "
        f"{naive.poisoned_shards}/{naive.shards} shards "
        f"(damage diluted to {naive.degradation:.1%}), while the "
        f"hash-aware stream poisons {spread.poisoned_shards}/{spread.shards} "
        f"({spread.degradation:.1%} — the single-datapath cliff on every "
        f"core) for {spread.covert_packets // max(naive.covert_packets, 1)}x "
        "the covert packets."
    )
    return "\n".join(lines)


def to_csv_rows(rows: list[ShardingRow]) -> list[str]:
    """CSV lines for the runner's ``--csv`` hook."""
    lines = [
        "attacker,shards,covert_packets,total_masks,max_shard_masks,"
        "min_shard_masks,poisoned_shards,degradation,aggregate_capacity_x"
    ]
    for row in rows:
        lines.append(
            f"{row.attacker},{row.shards},{row.covert_packets},"
            f"{row.total_masks},{row.max_shard_masks},{row.min_shard_masks},"
            f"{row.poisoned_shards},{row.degradation:.6f},"
            f"{row.aggregate_capacity_x:.6f}"
        )
    return lines
