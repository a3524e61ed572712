"""Named, ready-to-run scenarios (``repro scenario <name>``).

Each entry is a plain :class:`~repro.scenario.spec.ScenarioSpec`; the
experiment scripts and the CLI both draw from this registry, and new
cells of the matrix are one ``SCENARIOS.register(...)`` away.
"""

from __future__ import annotations

from repro.scenario.spec import DefenseUse, ScenarioSpec
from repro.util.registry import Registry

SCENARIOS: Registry[ScenarioSpec] = Registry("scenario")

SCENARIOS.register(
    "fig2",
    ScenarioSpec(
        surface="fig2",
        name="fig2",
        description="regenerate the Fig. 2b megaflow table bit-exactly",
    ),
)
SCENARIOS.register(
    "fig3",
    ScenarioSpec(
        surface="calico",
        name="fig3",
        duration=150.0,
        attack_start=60.0,
        description="Fig. 3: the full-blown Kubernetes/Calico DoS timeline",
    ),
)
SCENARIOS.register(
    "prefix8",
    ScenarioSpec(
        surface="prefix8",
        duration=120.0,
        attack_start=30.0,
        description="the /8 warm-up campaign (8 masks, mild)",
    ),
)
SCENARIOS.register(
    "k8s",
    ScenarioSpec(
        surface="k8s",
        duration=120.0,
        attack_start=30.0,
        description="Kubernetes ip_src+tp_dst campaign (512 masks, ~90% loss)",
    ),
)
SCENARIOS.register(
    "openstack",
    ScenarioSpec(
        surface="openstack",
        duration=120.0,
        attack_start=30.0,
        description="OpenStack security-group campaign (512 masks)",
    ),
)
SCENARIOS.register(
    "calico",
    ScenarioSpec(
        surface="calico",
        duration=120.0,
        attack_start=30.0,
        description="Calico source-port campaign (8192 masks, full DoS)",
    ),
)
SCENARIOS.register(
    "calico-netdev",
    ScenarioSpec(
        surface="calico",
        name="calico-netdev",
        profile="netdev",
        duration=120.0,
        attack_start=30.0,
        description="the 8192-mask attack against the userspace/DPDK profile",
    ),
)
SCENARIOS.register(
    "calico-staged",
    ScenarioSpec(
        surface="calico",
        name="calico-staged",
        staged_lookup=True,
        duration=120.0,
        attack_start=30.0,
        description="staged TSS lookup: cheaper probes, same subtable count",
    ),
)
SCENARIOS.register(
    "calico-ranked",
    ScenarioSpec(
        surface="calico",
        name="calico-ranked",
        scan_order="ranked",
        duration=120.0,
        attack_start=30.0,
        description="subtable ranking vs the attack: uniform covert hits"
        " keep the expected scan near n/2",
    ),
)
SCENARIOS.register(
    "calico-netdev-ranked",
    ScenarioSpec(
        surface="calico",
        name="calico-netdev-ranked",
        profile="netdev-ranked",
        duration=120.0,
        attack_start=30.0,
        description="the 8192-mask attack vs the ranked userspace dpcls",
    ),
)
SCENARIOS.register(
    "calico-sharded",
    ScenarioSpec(
        surface="calico",
        name="calico-sharded",
        shards=4,
        duration=120.0,
        attack_start=30.0,
        description="the 8192-mask attack vs 4 RSS-sharded PMD datapaths",
    ),
)
SCENARIOS.register(
    "calico-vec",
    ScenarioSpec(
        surface="calico",
        name="calico-vec",
        duration=120.0,
        attack_start=30.0,
        description="field for field 'calico' under another name, kept "
        "only because the pipeline benchmark's mask-churn workload "
        "names it",
    ),
)
SCENARIOS.register(
    "calico-netdev-pmd4",
    ScenarioSpec(
        surface="calico",
        name="calico-netdev-pmd4",
        profile="netdev-pmd4",
        duration=120.0,
        attack_start=30.0,
        description="the 8192-mask attack vs the 4-PMD userspace profile",
    ),
)
SCENARIOS.register(
    "calico-netdev-pmd4-alb",
    ScenarioSpec(
        surface="calico",
        name="calico-netdev-pmd4-alb",
        profile="netdev-pmd4-alb",
        workload_skew=1.1,
        duration=120.0,
        attack_start=30.0,
        description="skewed victim load on 4 PMDs with RETA auto-"
        "rebalancing (the attack meets a moving hash→shard map)",
    ),
)
SCENARIOS.register(
    "k8s-deepscan",
    ScenarioSpec(
        surface="k8s",
        name="k8s-deepscan",
        profile="kernel-noemc",
        covert_replay="datapath",
        duration=120.0,
        attack_start=30.0,
        description="the 512-mask victim-deep-scan campaign: EMC "
        "insertion off (the documented operator response to cache "
        "thrashing) and every covert packet replayed through the real "
        "pipeline as one coalesced burst per tick — the wall clock is "
        "the TSS deep scan itself, which is what the pipeline benchmark's "
        "deepscan-campaign workload measures",
    ),
)
SCENARIOS.register(
    "k8s-serve",
    ScenarioSpec(
        surface="k8s",
        name="k8s-serve",
        profile="kernel-noemc",
        shards=4,
        duration=30.0,
        attack_start=0.0,
        description="the deep-scan serve workload: the 512-mask "
        "Kubernetes covert stream replayed live through `repro serve` "
        "— EMC insertion off, so every packet after the first lap "
        "deep-scans the exploded subtable list on its shard, through "
        "the columnar engine (scalar without NumPy).  Serial "
        "and parallel runs of this spec are byte-identical "
        "(tests/runtime/test_serve.py); the measured speedup is the "
        "pipeline benchmark's serve-parallel "
        "runtime.parallel.speedup_vs_serial row",
    ),
)
SCENARIOS.register(
    "spread-campaign",
    ScenarioSpec(
        surface="k8s",
        name="spread-campaign",
        shards=4,
        workload_skew=1.1,
        rebalance_interval=5.0,
        attacker_strategy="spread",
        reprobe_interval=10.0,
        victim_offered_bps=4e9,  # a 4-core node's worth of offered load
        duration=120.0,
        attack_start=30.0,
        description="hash-aware spread attacker vs 4 auto-balanced PMDs,"
        " re-probing the live RETA every 10 s (the E10 arms race as one"
        " Session timeline)",
    ),
)
SCENARIOS.register(
    "calico-cacheless",
    ScenarioSpec(
        surface="calico",
        name="calico-cacheless",
        backend="cacheless",
        duration=120.0,
        attack_start=30.0,
        description="the ESwitch-style cacheless backend: nothing to poison",
    ),
)
SCENARIOS.register(
    "calico-mask-limit",
    ScenarioSpec(
        surface="calico",
        name="calico-mask-limit",
        defenses=(DefenseUse("mask-limit"),),
        duration=120.0,
        attack_start=30.0,
        description="mitigation: 64-mask budget, overflow degraded to exact",
    ),
)
SCENARIOS.register(
    "calico-rate-limit",
    ScenarioSpec(
        surface="calico",
        name="calico-rate-limit",
        defenses=(DefenseUse("rate-limit"),),
        duration=120.0,
        attack_start=30.0,
        description="mitigation: per-tenant install rate limiting (weak)",
    ),
)
SCENARIOS.register(
    "calico-prefix-rounding",
    ScenarioSpec(
        surface="calico",
        name="calico-prefix-rounding",
        defenses=(DefenseUse("prefix-rounding"),),
        duration=120.0,
        attack_start=30.0,
        description="mitigation: coarse-grained wildcarding (g=8)",
    ),
)
SCENARIOS.register(
    "calico-detector",
    ScenarioSpec(
        surface="calico",
        name="calico-detector",
        defenses=(DefenseUse("detector"),),
        duration=120.0,
        attack_start=30.0,
        description="mitigation: mask-anomaly detection + tenant eviction",
    ),
)
