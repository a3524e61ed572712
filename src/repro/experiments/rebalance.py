"""E10 — RETA rebalancing: asymmetric PMD load, and the moving target.

Real multi-PMD nodes face two load problems the paper's single-thread
measurement cannot show:

* **benign asymmetry** — real traffic is heavy-tailed (elephant flows,
  hot prefixes), so a static RSS spread leaves some PMDs overloaded
  while others idle.  OVS answers with PMD auto-load-balancing: remap
  RSS indirection-table (RETA) buckets from the hottest PMD to the
  coolest.  Part A runs the skewed-victim campaign with rebalancing
  off and on and compares the worst/mean shard-load ratio;
* **the hash-aware attacker** — PR 3's ``spread_keys`` stream steers
  one covert variant per mask per shard, but its steering is computed
  against a *snapshot* of the dispatcher.  Part B rebalances under
  skewed benign load and measures how many of the attacker's
  carefully-placed variants are stranded on wrong shards (where their
  old shard's megaflow idles out).  Part C lets the attacker re-probe
  the live dispatcher and shows coverage is restored — rebalancing is
  a moving target, not a defense: it buys one idle-timeout of relief
  per remap and raises the attacker's probing bill.

Part A uses the full Session/simulator stack (the ``workload_skew``,
``rebalance_interval`` scenario axes); parts B/C drive the
:class:`~repro.ovs.pmd.PmdRebalancer` directly on the session's sharded
datapath (:meth:`~repro.scenario.session.Session.build_datapath`) with
the k8s-surface attack installed through the slow path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attack.analysis import POISONED_FRACTION
from repro.attack.packets import (
    REPROBE_TRIES,
    CovertStreamGenerator,
    SpreadCoverage,
)
from repro.ovs.pmd import ShardedDatapath
from repro.perf.workload import VictimWorkload
from repro.scenario.session import Session
from repro.scenario.spec import ScenarioSpec
from repro.util.ascii_chart import AsciiTable

#: the scale of the synthetic benign-load window parts B/C charge into
#: the rebalancer before asking for a remap (only relative bucket
#: weights matter; the magnitude is arbitrary)
BENIGN_LOAD_CYCLES = 1e9


@dataclass
class SkewedLoadRow:
    """Part A: one (rebalance setting) campaign under skewed load."""

    label: str
    rebalance_interval: float
    #: time-mean worst/mean shard-load ratio over the settled half
    imbalance: float
    rebalances: int
    #: mean victim throughput over the settled half, bit/s
    victim_throughput_bps: float


@dataclass
class StrandReport:
    """Parts B/C: the spread attacker vs a rebalanced RETA."""

    shards: int
    reta_size: int
    covert_packets: int
    buckets_moved: int
    #: shards carrying >= POISONED_FRACTION of the cross-product when
    #: the spread stream was steered against the initial RETA
    poisoned_before: int
    #: ... still *refreshed* to that level after the remap (static
    #: attacker: same packets, new dispatch)
    poisoned_after_remap: int
    #: mean fraction of each shard's masks that lost their refresh
    #: stream in the remap (those megaflows idle out within one
    #: idle-timeout window)
    stranded_mask_fraction: float
    #: shards re-poisoned once the attacker re-probes the live RETA
    poisoned_after_reprobe: int
    #: covert packets the re-probed stream needs
    reprobe_packets: int
    #: mean fraction of the mask cross-product refreshed per shard at
    #: each stage (before the remap / stranded / after re-probing)
    mean_refreshed_before: float = 0.0
    mean_refreshed_after_remap: float = 0.0
    mean_refreshed_after_reprobe: float = 0.0


@dataclass
class RebalanceReport:
    """The full E10 result."""

    skew: float
    shards: int
    rows: list[SkewedLoadRow]
    strand: StrandReport

    @property
    def static_row(self) -> SkewedLoadRow:
        return next(r for r in self.rows if r.rebalance_interval == 0)

    @property
    def rebalanced_row(self) -> SkewedLoadRow:
        return next(r for r in self.rows if r.rebalance_interval > 0)


def run_skewed_campaign(
    rebalance_interval: float,
    shards: int = 4,
    skew: float = 1.2,
    duration: float = 60.0,
    seed: int = 7,
) -> SkewedLoadRow:
    """One attack-free campaign under a skewed (elephant-flow) victim
    workload; the attack surface is compiled but the covert stream
    never starts, so every cycle of imbalance is benign."""
    spec = ScenarioSpec(
        surface="k8s",
        name=f"e10-skew-{'alb' if rebalance_interval else 'static'}",
        shards=shards,
        workload_skew=skew,
        rebalance_interval=rebalance_interval,
        duration=duration,
        attack_start=duration * 10.0,  # never fires
        seed=seed,
    )
    result = Session(spec).run()
    series = result.series
    times = series.column("t")
    settled = [i for i, t in enumerate(times) if t >= duration / 2]
    imbalances = series.column("shard_load_imbalance")
    throughput = series.column("victim_throughput_bps")
    return SkewedLoadRow(
        label="auto-lb" if rebalance_interval else "static RSS",
        rebalance_interval=rebalance_interval,
        imbalance=sum(imbalances[i] for i in settled) / len(settled),
        rebalances=int(series.last("rebalances")),
        victim_throughput_bps=sum(throughput[i] for i in settled) / len(settled),
    )


def _combos_refreshed_per_shard(
    datapath: ShardedDatapath, coverage: SpreadCoverage
) -> list[set[int]]:
    """Which mask combinations each shard still receives a refresh
    variant for, under the datapath's *current* RETA."""
    per_shard: list[set[int]] = [set() for _ in datapath.shards]
    for key, combo in zip(coverage.keys, coverage.combo_of):
        per_shard[datapath.shard_of(key)].add(combo)
    return per_shard


def _poisoned(per_shard: list[set[int]], combos: int) -> int:
    return sum(len(reached) >= POISONED_FRACTION * combos for reached in per_shard)


def run_spread_strand(
    shards: int = 4,
    skew: float = 1.2,
    seed: int = 7,
) -> StrandReport:
    """Parts B/C: install the spread attack against the initial RETA,
    rebalance under skewed benign load, and measure stranding before
    and after the attacker re-probes.

    The re-probe uses a larger search budget
    (:data:`~repro.attack.packets.REPROBE_TRIES` per shard vs the
    default 32): a rebalanced RETA concentrates the
    hottest buckets on one PMD, which can leave that PMD owning only a
    handful of buckets — a 1-in-``reta_size`` steering target the
    default budget cannot reliably hit.  That asymmetry *is* the
    moving-target payoff: every remap multiplies the attacker's
    probing bill."""
    session = Session(ScenarioSpec(
        surface="k8s", shards=shards, seed=seed, rebalance_interval=1.0,
    ))
    datapath = session.build_datapath(name=f"e10-strand-{shards}")
    datapath.add_rules(session.attack_rules())
    # its own generator, not Session.covert_stream: only E10 asks which
    # mask combination each variant carries (spread_coverage)
    generator = CovertStreamGenerator(
        session.dimensions, dst_ip=session.target.pod_ip, space=session.space
    )

    # the attacker steers against a snapshot of the dispatcher ...
    coverage = generator.spread_coverage(shards, datapath.shard_of)
    for key in coverage.keys:
        datapath.handle_miss(key, now=0.0)
    before = _combos_refreshed_per_shard(datapath, coverage)

    # ... then skewed benign load drives one auto-lb pass
    weights = VictimWorkload(skew=skew).bucket_weights(
        datapath.reta_size, seed=seed
    )
    for bucket, weight in enumerate(weights):
        datapath.record_bucket_cycles(bucket, weight * BENIGN_LOAD_CYCLES)
    moved = datapath.rebalancer.rebalance()

    # static attacker: same packets, new dispatch — variants strand.
    # Clamped at 0 per shard: a shard that *gained* combos in the remap
    # must not cancel real stranding on the shards that lost them.
    after = _combos_refreshed_per_shard(datapath, coverage)
    stranded = [
        max(0.0, 1.0 - len(now) / len(was)) if was else 0.0
        for was, now in zip(before, after)
    ]

    # adaptive attacker: re-probe the live dispatcher, regain coverage
    reprobe = generator.spread_coverage(
        shards, datapath.shard_of, max_tries_per_shard=REPROBE_TRIES
    )
    reprobed = _combos_refreshed_per_shard(datapath, reprobe)

    combos = coverage.combos

    def mean_fraction(per_shard: list[set[int]]) -> float:
        return sum(len(reached) for reached in per_shard) / (combos * shards)

    return StrandReport(
        shards=shards,
        reta_size=datapath.reta_size,
        covert_packets=len(coverage.keys),
        buckets_moved=moved,
        poisoned_before=_poisoned(before, combos),
        poisoned_after_remap=_poisoned(after, combos),
        stranded_mask_fraction=sum(stranded) / len(stranded),
        poisoned_after_reprobe=_poisoned(reprobed, combos),
        reprobe_packets=len(reprobe.keys),
        mean_refreshed_before=mean_fraction(before),
        mean_refreshed_after_remap=mean_fraction(after),
        mean_refreshed_after_reprobe=mean_fraction(reprobed),
    )


def run_rebalance_ablation(
    shards: int = 4,
    skew: float = 1.2,
    duration: float = 60.0,
    rebalance_interval: float = 2.0,
    seed: int = 7,
) -> RebalanceReport:
    """The full E10: skewed-load campaigns (static vs auto-lb) plus the
    spread-attacker stranding story."""
    rows = [
        run_skewed_campaign(0.0, shards=shards, skew=skew,
                            duration=duration, seed=seed),
        run_skewed_campaign(rebalance_interval, shards=shards, skew=skew,
                            duration=duration, seed=seed),
    ]
    strand = run_spread_strand(shards=shards, skew=skew, seed=seed)
    return RebalanceReport(skew=skew, shards=shards, rows=rows, strand=strand)


def render(report: RebalanceReport) -> str:
    """Tabulate the ablation."""
    table = AsciiTable(
        ["Dispatch", "Rebalances", "Worst/mean shard load", "Victim Gbps"],
        title=f"RETA rebalancing under skewed load (E10, skew={report.skew})",
    )
    for row in report.rows:
        table.add_row(
            [
                row.label,
                row.rebalances,
                f"{row.imbalance:.2f}x",
                f"{row.victim_throughput_bps / 1e9:.3f}",
            ]
        )
    strand = report.strand
    lines = [table.render()]
    lines.append(
        f"=> auto-lb closes the worst-shard gap from "
        f"{report.static_row.imbalance:.2f}x to "
        f"{report.rebalanced_row.imbalance:.2f}x the mean."
    )
    lines.append(
        f"=> spread attack: {strand.poisoned_before}/{strand.shards} shards "
        f"poisoned against the initial RETA "
        f"({strand.mean_refreshed_before:.1%} of masks refreshed/shard); "
        f"one remap ({strand.buckets_moved} buckets) strands "
        f"{strand.stranded_mask_fraction:.1%} of each shard's refresh "
        f"stream (down to {strand.mean_refreshed_after_remap:.1%}, "
        f"{strand.poisoned_after_remap}/{strand.shards} still poisoned) — "
        f"until the attacker re-probes the live dispatcher and recovers "
        f"to {strand.mean_refreshed_after_reprobe:.1%} "
        f"({strand.poisoned_after_reprobe}/{strand.shards} poisoned) for "
        f"{strand.reprobe_packets} covert packets."
    )
    return "\n".join(lines)


def to_csv_rows(report: RebalanceReport) -> list[str]:
    """CSV lines for the runner's ``--csv`` hook."""
    lines = [
        "section,label,rebalance_interval,imbalance,rebalances,"
        "victim_throughput_bps"
    ]
    for row in report.rows:
        lines.append(
            f"skewed-load,{row.label},{row.rebalance_interval},"
            f"{row.imbalance:.6f},{row.rebalances},"
            f"{row.victim_throughput_bps:.1f}"
        )
    strand = report.strand
    lines.append(
        "strand,spread-attacker,,"
        f"poisoned={strand.poisoned_before}->{strand.poisoned_after_remap}"
        f"->{strand.poisoned_after_reprobe},"
        f"{strand.buckets_moved},"
        f"stranded={strand.stranded_mask_fraction:.6f}"
    )
    return lines
