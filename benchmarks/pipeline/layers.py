"""Which public callables are spanned, and the per-layer metrics a
traced iteration's spans and counters fold into.

The layer names are the repo's module names (``ovs.process_batch``,
``runtime.parallel`` …); BENCHMARK.json lists every metric emitted
here, and the README says which end-to-end metric each should move.
"""

from __future__ import annotations

from spans import LayerTotals, Tracer, percentile, tail_percentile
from workloads import Observation

from repro.attack.packets import CovertStreamGenerator
from repro.cms.calico import CalicoCms
from repro.cms.kubernetes import KubernetesCms
from repro.ovs.megaflow import MegaflowCache
from repro.ovs.pmd import ShardedDatapath
from repro.ovs.revalidator import Revalidator
from repro.ovs.switch import OvsSwitch
from repro.ovs.upcall import SlowPath
from repro.perf.simulator import DataplaneSimulator
from repro.runtime.parallel import ParallelDatapath
from repro.runtime.service import ServeService
from repro.scenario import Session
from repro.vec.engine import VecSwitch

#: (owner class, method, layer name, record len() of the first argument)
WRAPS = (
    (Session, "build_datapath", "scenario.build", False),
    (KubernetesCms, "compile", "cms.compile", False),
    (CalicoCms, "compile", "cms.compile", False),
    (CovertStreamGenerator, "keys", "attack.covert_keys", False),
    (DataplaneSimulator, "step", "perf.simulator.step", False),
    (OvsSwitch, "process_batch", "ovs.process_batch", False),
    (VecSwitch, "process_batch", "ovs.process_batch", False),
    (ShardedDatapath, "process_batch", "ovs.pmd.dispatch", False),
    (MegaflowCache, "lookup_batch", "ovs.megaflow.lookup_batch", True),
    (SlowPath, "handle", "ovs.upcall", False),
    (Revalidator, "sweep", "ovs.revalidator.sweep", False),
    (ServeService, "run", "runtime.service.run", False),
    (ParallelDatapath, "process_batch", "runtime.parallel.process_batch",
     False),
    (ParallelDatapath, "start", "runtime.parallel.start", False),
    (ParallelDatapath, "close", "runtime.parallel.close", False),
)

#: root spans the harness opens around each phase
GENERATE, PREPARE, EXECUTE, CLOSE = (
    "workload.generate", "workload.prepare", "workload.execute",
    "workload.close",
)

_EMPTY = LayerTotals()


def install(tracer: Tracer) -> None:
    for owner, attr, name, sized in WRAPS:
        tracer.wrap(owner, attr, name, sized)


#: set-up layers, each reported as ``<layer>_s``
SETUP_LAYERS = ("scenario.build", "cms.compile", "attack.covert_keys",
                "feed.generate", "net.pcap.write")


def setup_metrics(layers: dict[str, LayerTotals]) -> dict[str, float]:
    """Busy seconds of the set-up layers in ``tracer.layers()`` (the
    generate phase's, or a whole iteration's)."""
    return {f"{name}_s": layers.get(name, _EMPTY).busy_s
            for name in SETUP_LAYERS}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def iteration_metrics(tracer: Tracer, obs: Observation, parent_cpu_s: float,
                      worker_cpu_s: float) -> dict[str, float]:
    """One traced iteration's per-layer metrics.

    Run-time layers are folded over the ``workload.execute`` subtree
    only — the attack pre-install also calls ``process_batch``, and its
    spans belong to set-up."""
    execute = tracer.names.index(EXECUTE)
    inside = tracer.layers(*tracer.subtree(execute))
    everywhere = tracer.layers()
    counters = obs.counters

    def layer(name: str) -> LayerTotals:
        return inside.get(name, _EMPTY)

    metrics = setup_metrics(everywhere)
    wall = inside[EXECUTE].busy_s
    metrics["workload.execute.self_s"] = inside[EXECUTE].self_s
    metrics["trace.self_sum_frac"] = _ratio(
        sum(totals.self_s for totals in inside.values()), wall
    )

    step = layer("perf.simulator.step")
    metrics["perf.simulator.step.calls"] = step.calls
    metrics["perf.simulator.step.busy_s"] = step.busy_s
    metrics["perf.simulator.step.self_s"] = step.self_s

    batch = layer("ovs.process_batch")
    metrics["ovs.process_batch.calls"] = batch.calls
    metrics["ovs.process_batch.busy_s"] = batch.busy_s
    metrics["ovs.process_batch.self_s"] = batch.self_s
    metrics["ovs.process_batch.self_ns_per_pkt"] = _ratio(
        batch.self_s * 1e9, counters["packets"]
    )
    ordered = sorted(batch.durations)
    tail = tail_percentile(len(ordered))
    metrics["ovs.process_batch.p50_us"] = (
        percentile(ordered, 50.0) * 1e6 if ordered else 0.0
    )
    metrics["ovs.process_batch.tail_pct"] = tail or 0.0
    metrics["ovs.process_batch.tail_us"] = (
        percentile(ordered, tail) * 1e6 if tail else 0.0
    )

    metrics["ovs.microflow.lookups"] = counters["emc.lookups"]
    metrics["ovs.microflow.hit_frac"] = _ratio(
        counters["emc.hits"], counters["emc.lookups"]
    )
    metrics["ovs.microflow.insertions"] = counters["emc.insertions"]
    metrics["ovs.microflow.evictions"] = counters["emc.evictions"]

    lookup = layer("ovs.megaflow.lookup_batch")
    tuples = counters["tuples_scanned"]
    metrics["ovs.megaflow.lookup_batch.calls"] = lookup.calls
    metrics["ovs.megaflow.lookup_batch.busy_s"] = lookup.busy_s
    metrics["ovs.megaflow.lookup_batch.keys_per_call"] = _ratio(
        lookup.size, lookup.calls
    )
    metrics["ovs.tss.tuples_scanned"] = tuples
    metrics["ovs.tss.tuples_per_lookup"] = _ratio(
        tuples, counters["megaflow_hits"] + counters["upcalls"]
    )
    metrics["ovs.tss.ns_per_tuple"] = _ratio(lookup.busy_s * 1e9, tuples)

    upcall = layer("ovs.upcall")
    metrics["ovs.upcall.calls"] = upcall.calls
    metrics["ovs.upcall.busy_s"] = upcall.busy_s
    metrics["ovs.upcall.us_per_install"] = _ratio(
        upcall.busy_s * 1e6, upcall.calls
    )

    metrics["ovs.revalidator.sweeps"] = counters["reval.sweeps"]
    metrics["ovs.revalidator.busy_s"] = layer("ovs.revalidator.sweep").busy_s
    metrics["ovs.revalidator.evicted"] = counters["reval.evicted"]

    shard_packets = counters["shard_packets"]
    metrics["ovs.pmd.dispatch.self_s"] = layer("ovs.pmd.dispatch").self_s
    metrics["ovs.pmd.shard_imbalance"] = _ratio(
        max(shard_packets) * len(shard_packets), sum(shard_packets)
    ) - 1.0 if sum(shard_packets) else 0.0

    service = layer("runtime.service.run")
    metrics["runtime.service.run.busy_s"] = service.busy_s
    metrics["runtime.service.source.busy_s"] = (
        layer("runtime.service.source").busy_s
    )
    metrics["runtime.service.run.self_s"] = service.self_s
    metrics["runtime.service.snapshots"] = obs.snapshots

    mailbox = layer("runtime.parallel.process_batch")
    metrics["runtime.parallel.process_batch.busy_s"] = mailbox.busy_s
    parallel = bool(mailbox.calls)
    metrics["runtime.parallel.parent_cpu_s"] = (
        parent_cpu_s if parallel else 0.0
    )
    metrics["runtime.parallel.worker_cpu_s"] = worker_cpu_s
    metrics["runtime.parallel.parent_cpu_frac"] = _ratio(
        parent_cpu_s, parent_cpu_s + worker_cpu_s
    ) if parallel else 0.0
    metrics["runtime.parallel.start_s"] = (
        everywhere.get("runtime.parallel.start", _EMPTY).busy_s
    )
    metrics["runtime.parallel.close_s"] = (
        everywhere.get("runtime.parallel.close", _EMPTY).busy_s
    )

    metrics["vec.active"] = counters["vec"]
    metrics.update(obs.sim_counts())
    return metrics
