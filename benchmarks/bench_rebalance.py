"""Wall-clock + ablation record for RETA rebalancing, with a built-in
disabled-rebalance equivalence gate.

Four measurements, emitted as a ``BENCH_rebalance.json`` perf record:

1. **Equivalence gate** — the RETA must be pure plumbing when auto-lb
   is off: (a) identity-table dispatch must equal the pre-RETA
   ``rss_hash(key) % shards`` for every shard count (including ones
   that do not divide the table size); (b) a ``rebalance_interval=0``
   campaign must be series-identical to one that never mentions the
   knob; (c) a one-shard datapath with rebalancing *enabled* must be
   series-identical to a bare ``OvsSwitch`` (one PMD has nothing to
   rebalance).  Any mismatch exits non-zero, failing CI.
2. **Skewed-load imbalance** — the E10 campaign pair: time-mean
   worst/mean shard load under a Zipf-skewed victim workload, static
   RSS vs auto-lb (``rebalanced_vs_static_imbalance`` < 1 is the win).
3. **Spread-attack stranding** — how much of the hash-aware attacker's
   refresh stream one remap strands, and the re-probe bill.
4. **Dispatch overhead** — covert-refresh keys/s through
   ``process_batch`` with the rebalancer off vs on (``≈1``: the load
   accounting is two list increments per packet).

Usage::

    PYTHONPATH=src python benchmarks/bench_rebalance.py          # full
    PYTHONPATH=src python benchmarks/bench_rebalance.py --quick  # CI
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.attack.packets import CovertStreamGenerator  # noqa: E402
from repro.attack.policy import kubernetes_attack_policy  # noqa: E402
from repro.experiments.rebalance import (  # noqa: E402
    run_skewed_campaign,
    run_spread_strand,
)
from repro.experiments.sharding import build_attacked_shards  # noqa: E402
from repro.flow.fields import OVS_FIELDS  # noqa: E402
from repro.net.addresses import ip_to_int  # noqa: E402
from repro.flow.key import FlowKey  # noqa: E402
from repro.net.ethernet import ETHERTYPE_IPV4  # noqa: E402
from repro.net.ipv4 import PROTO_TCP  # noqa: E402
from repro.ovs.pmd import rss_hash  # noqa: E402
from repro.perf.factory import sharded_switch_for_profile  # noqa: E402
from repro.scenario.presets import SCENARIOS  # noqa: E402
from repro.scenario.session import Session  # noqa: E402


def _sample_keys(count: int) -> list[FlowKey]:
    return [
        FlowKey(
            OVS_FIELDS,
            {"eth_type": ETHERTYPE_IPV4, "ip_src": 0x0A000000 + i * 7,
             "ip_dst": 0x0A0200FF ^ i, "ip_proto": PROTO_TCP,
             "tp_src": 1024 + (i * 13) % 50000, "tp_dst": (i * 31) % 65536},
        )
        for i in range(count)
    ]


def check_equivalence(duration: float = 20.0) -> list[str]:
    """The disabled-rebalance contract; returns mismatch descriptions."""
    problems: list[str] = []

    # (a) identity-RETA dispatch == rss_hash % shards, every shard count
    keys = _sample_keys(256)
    for shards in (1, 2, 3, 4, 8):
        datapath = sharded_switch_for_profile("kernel", shards=shards, seed=0)
        for key in keys:
            direct = rss_hash(key.packed & datapath._rss_mask) % shards
            if datapath.shard_of(key) != direct:
                problems.append(
                    f"identity RETA dispatch != rss_hash % {shards} "
                    f"(reta_size={datapath.reta_size})"
                )
                break

    # (b) rebalance_interval=0 must be series-identical to the
    # knob-never-mentioned spec
    base = SCENARIOS.get("k8s").evolve(
        duration=duration, attack_start=duration / 3, shards=4,
    )
    default = Session(base).run()
    disabled = Session(base.evolve(rebalance_interval=0.0)).run()
    if default.series.rows != disabled.series.rows:
        problems.append("rebalance_interval=0 series != default series")
    if default.scan_stats() != disabled.scan_stats():
        problems.append("rebalance_interval=0 scan stats != default")

    # (c) shards=1 with rebalancing enabled == bare OvsSwitch (a spec
    # rejects the knob on one shard, so the dispatcher is built by hand)
    session = Session(base.evolve(shards=1))
    plain = session.run()
    one = session.build_campaign(
        sharded_switch_for_profile(
            session.profile, space=session.space, shards=1,
            seed=session.spec.seed, rebalance_interval=2.0,
        )
    ).run()
    if plain.series.rows != one.simulation.series.rows:
        problems.append("shards=1 (rebalance on) series != bare switch series")
    return problems


def _covert_refresh_stream(count: int) -> list[FlowKey]:
    """Round-robin over the naive (one-per-mask) k8s covert key set —
    the sustained refresh pattern every state is measured with."""
    from itertools import cycle, islice

    _policy, dimensions = kubernetes_attack_policy()
    keys = CovertStreamGenerator(
        dimensions, dst_ip=ip_to_int("10.0.9.10")
    ).keys()
    return list(islice(cycle(keys), count))


def measure_overhead(lookups: int, warmup: int, seed: int) -> dict:
    """Covert-refresh keys/s through an attacked 4-shard datapath in
    three modes: rebalancer off; enabled but never firing (the pure
    per-packet accounting bill); and actively remapping every tick —
    whose slowdown is not bookkeeping but the stranding effect in
    wall-clock form (remapped covert flows miss their new shard's
    megaflow cache and pay re-installs)."""
    stream = _covert_refresh_stream(warmup + lookups)
    rates = {}
    imbalances = {}
    for mode, interval in (
        ("static", 0.0),
        ("accounting", 1e12),  # enabled, never due within the run
        ("active", 0.5),
    ):
        datapath, _ = build_attacked_shards(4, attacker="spread", seed=seed)
        datapath.rebalancer.interval = interval
        datapath.process_batch(stream[:warmup], now=0.0)
        measured = stream[warmup:]
        chunk = max(len(measured) // 16, 1)
        start = time.perf_counter()
        for i in range(0, len(measured), chunk):
            datapath.process_batch(measured[i:i + chunk], now=float(i) / chunk)
        rates[mode] = len(measured) / (time.perf_counter() - start)
        # per-shard served load from the stats snapshots, weighted the
        # same way the rebalancer weighs its bucket windows
        loads = [shard.stats.scan_weighted_load() for shard in datapath.shards]
        imbalances[mode] = max(loads) / (sum(loads) / len(loads))
        print(f"{mode:10s} {rates[mode]:>10.0f} keys/s  "
              f"(rebalances={datapath.rebalancer.rebalances}, "
              f"served-load imbalance {imbalances[mode]:.2f}x)")
    return {
        "static_keys_per_sec": rates["static"],
        "accounting_keys_per_sec": rates["accounting"],
        "active_keys_per_sec": rates["active"],
        "accounting_overhead": rates["static"] / rates["accounting"],
        "active_slowdown": rates["static"] / rates["active"],
        "served_load_imbalance": imbalances,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--lookups", type=int, default=None,
                        help="measured lookups (default 4096, quick 1024)")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warmup lookups (default 1024, quick 512)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_rebalance.json"))
    args = parser.parse_args(argv)

    lookups = args.lookups or (1024 if args.quick else 4096)
    warmup = args.warmup or (512 if args.quick else 1024)
    duration = 30.0 if args.quick else 60.0

    problems = check_equivalence(duration=20.0 if args.quick else 30.0)
    if problems:
        print("disabled-rebalance equivalence FAILED:")
        for problem in problems:
            print(f"  - {problem}")
    else:
        print("disabled-rebalance equivalence: ok")

    static = run_skewed_campaign(0.0, duration=duration, seed=args.seed)
    rebalanced = run_skewed_campaign(2.0, duration=duration, seed=args.seed)
    print(f"skewed load: static imbalance {static.imbalance:.2f}x, "
          f"auto-lb {rebalanced.imbalance:.2f}x "
          f"({rebalanced.rebalances} rebalances)")

    strand = run_spread_strand(seed=args.seed)
    print(f"spread attack: stranded {strand.stranded_mask_fraction:.1%}, "
          f"poisoned {strand.poisoned_before}->{strand.poisoned_after_remap}"
          f"->{strand.poisoned_after_reprobe}")

    overhead = measure_overhead(lookups, warmup, args.seed)

    ratios = {
        # < 1: auto-lb closes the worst-shard gap under skewed load
        "rebalanced_vs_static_imbalance":
            rebalanced.imbalance / static.imbalance,
        # > 0: one remap strands part of the spread refresh stream
        "stranded_spread_fraction": strand.stranded_mask_fraction,
        # ~1: the per-packet bucket accounting is noise
        "rebalance_accounting_overhead": overhead["accounting_overhead"],
        # > 1: active remaps make the *attacker's* refresh stream pay
        # re-install bills (the moving-target effect in wall-clock form)
        "rebalance_active_attacker_slowdown": overhead["active_slowdown"],
    }

    record = {
        "benchmark": "reta_rebalance",
        "quick": args.quick,
        "params": {
            "lookups": lookups,
            "warmup": warmup,
            "duration": duration,
            "seed": args.seed,
        },
        "equivalence_ok": not problems,
        "equivalence_problems": problems,
        "skewed_load": {
            "static_imbalance": static.imbalance,
            "rebalanced_imbalance": rebalanced.imbalance,
            "rebalances": rebalanced.rebalances,
        },
        "spread_strand": {
            "covert_packets": strand.covert_packets,
            "buckets_moved": strand.buckets_moved,
            "poisoned_before": strand.poisoned_before,
            "poisoned_after_remap": strand.poisoned_after_remap,
            "poisoned_after_reprobe": strand.poisoned_after_reprobe,
            "stranded_mask_fraction": strand.stranded_mask_fraction,
            "mean_refreshed_before": strand.mean_refreshed_before,
            "mean_refreshed_after_remap": strand.mean_refreshed_after_remap,
            "mean_refreshed_after_reprobe": strand.mean_refreshed_after_reprobe,
            "reprobe_packets": strand.reprobe_packets,
        },
        "overhead": overhead,
        "ratios": ratios,
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")

    print(f"\nwrote {args.output}")
    for name, value in ratios.items():
        print(f"  {name}: {value:.2f}x" if "overhead" in name or "imbalance" in name
              else f"  {name}: {value:.2f}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
