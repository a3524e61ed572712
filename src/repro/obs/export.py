"""Exporters and the one shared datapath-snapshot encoder.

Before this module existed, three layers hand-rolled the same dict
flattening: ``Session.scan_stats`` picked fields off
``SwitchStats.snapshot()``, the serve loop assembled per-shard
observations into its ``state`` dict, and the fleet tick re-derived
mask censuses per node.  They now all route through here, so the JSON
snapshot schema exists exactly once:

- :func:`observe_switch` / :func:`observe_shards` — the per-shard
  observable snapshot (also the parallel runtime's ``observe`` wire
  payload);
- :func:`datapath_state` — the canonical aggregated state dict
  (stats, per-shard masks, megaflows, EMC counters, TSS lookups, and
  which path of the columnar engine answered them);
- :func:`vec_tss_paths` / :func:`record_vec_tss` — that code-path
  census summed over shards, and its ``vec.tss.*`` metric family;
- :func:`emc_counters` / :func:`record_emc` — the exact-match cache's
  counters summed over shards, and their ``ovs.emc.*`` family;
- :func:`scan_stats` — the scan-cost subset the scenario layer
  reports;
- :func:`mask_census` — the ``(max_per_shard, total)`` mask pair the
  fleet detector and ``Session.measure`` read;
- :func:`prometheus_text` — Prometheus text exposition of a
  :class:`~repro.obs.telemetry.Telemetry` registry (sorted series,
  deterministic number formatting: byte-identical for a given seed);
- :func:`telemetry_json` / :func:`write_metrics` — the stable JSON
  snapshot (``repro.obs/v1``) and the ``--metrics-out`` writer;
- :func:`wall_pps_snapshot` — the *one* wall-clock read outside
  benchmarks (allowlisted by the ``wall-clock`` lint rule): the serve
  loop's operator-facing packets-per-second field, never part of any
  deterministic view.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Any

from repro.ovs.stats import SwitchStats
from repro.vec import VEC_TSS_FALLBACK_REASONS, VEC_TSS_PATHS

__all__ = [
    "observe_switch",
    "observe_shards",
    "datapath_state",
    "vec_tss_paths",
    "record_vec_tss",
    "emc_counters",
    "record_emc",
    "scan_stats",
    "mask_census",
    "prometheus_text",
    "telemetry_json",
    "write_metrics",
    "wall_pps_snapshot",
]

#: the scan-cost subset ``ScenarioResult.scan_stats`` exposes
SCAN_STAT_FIELDS = (
    "packets",
    "tuples_scanned",
    "hash_probes",
    "avg_tuples_per_megaflow_lookup",
)

#: what a :class:`~repro.ovs.microflow.MicroflowCache` counts
EMC_COUNTERS = (
    "lookups",
    "hits",
    "insertions",
    "evictions",
    "stale_hits",
    "occupancy",
)


def _shard_vec_tss(switch) -> dict | None:
    """One shard's TSS code-path census; ``None`` for engines without
    the columnar TSS."""
    return getattr(switch, "vec_tss_paths", None)


def _shard_emc(switch) -> dict | None:
    """One shard's EMC counters; ``None`` for a cacheless shard."""
    microflow = getattr(switch, "microflow", None)
    if microflow is None:
        return None
    return {name: getattr(microflow, name) for name in EMC_COUNTERS}


def observe_switch(switch) -> dict:
    """One shard's observable snapshot — plain ints plus one picklable
    stats dataclass (this exact dict is the parallel runtime's
    ``observe`` mailbox reply payload)."""
    return {
        "stats": switch.stats,
        "mask_count": switch.mask_count,
        "megaflow_count": switch.megaflow_count,
        "tss_lookups": switch.tss_lookups,
        "expected_scan_depth": switch.expected_scan_depth(),
        "rule_count": switch.rule_count,
        "vec_tss": _shard_vec_tss(switch),
        "emc": _shard_emc(switch),
    }


def observe_shards(datapath) -> list[dict]:
    """Per-shard snapshots for any runtime: the parallel datapath's
    one-round-per-shard ``observe()``, or the same dicts built directly
    from a serial datapath's shard views."""
    observe = getattr(datapath, "observe", None)
    if observe is not None:
        return observe()
    from repro.ovs.pmd import shard_views

    return [observe_switch(shard) for shard in shard_views(datapath)]


def datapath_state(datapath, observed: list[dict] | None = None) -> dict:
    """The canonical aggregated-state dict (the serve snapshot's
    ``state`` body and the fleet's per-node census, one encoder).

    Pass ``observed`` to reuse per-shard snapshots already fetched this
    tick (the parallel runtime pays one mailbox round per shard per
    ``observe``)."""
    if observed is None:
        observed = observe_shards(datapath)
    stats = SwitchStats.merge(*(o["stats"] for o in observed))
    masks = [o["mask_count"] for o in observed]
    return {
        "stats": dataclasses.asdict(stats),
        "shard_mask_counts": masks,
        "mask_count": max(masks),
        "total_mask_count": sum(masks),
        "megaflows": sum(o["megaflow_count"] for o in observed),
        "tss_lookups": sum(o["tss_lookups"] for o in observed),
        "vec_tss": vec_tss_paths(datapath, observed),
        "emc": emc_counters(datapath, observed),
    }


def _shard_sum(names: tuple, datapath, observed: list[dict] | None,
               field: str, read) -> dict:
    """Per-shard reports (``observed[...][field]`` when snapshots were
    already fetched, else ``read(shard)`` off the shards directly) summed
    name by name; a shard reporting ``None`` counts for nothing."""
    if observed is not None:
        reports = [o[field] for o in observed]
    else:
        from repro.ovs.pmd import shard_views

        reports = [read(shard) for shard in shard_views(datapath)]
    totals = dict.fromkeys(names, 0)
    for report in reports:
        if report is not None:
            for name, count in report.items():
                totals[name] += count
    return totals


def vec_tss_paths(datapath, observed: list[dict] | None = None) -> dict:
    """TSS lookups by the code path that answered them, summed over
    shards: the scan ``memo`` (the one columnar answer), or the scalar
    fallback by reason (:data:`~repro.vec.VEC_TSS_PATHS`).  All zero
    for engines without the columnar TSS — which is how a "vectorized"
    run that silently went scalar shows.  Without ``observed`` the
    shards are read directly (cheap enough for a per-tick sample)."""
    return _shard_sum(VEC_TSS_PATHS, datapath, observed, "vec_tss",
                      _shard_vec_tss)


def record_vec_tss(telemetry, paths: dict, **labels: str) -> None:
    """Publish a :func:`vec_tss_paths` census as the ``vec.tss.*``
    family: cumulative lookup counts since the datapath was built,
    sampled (hence gauges), deterministic like every ``sim.*`` count.
    Of the fallback reasons, ``memo_invalidated`` is the one a write
    causes (a scalar answer behind a write no live memo absorbed: a
    removal, a re-sort, or an install with no pre-scan in front of it)
    and ``small_burst`` the one the caller's burst shape does (a key
    no pre-scan covered: the columnar switch pre-scans every key
    after a burst's hit prefix, so its evicted EMC residents are
    ``memo`` answers)."""
    telemetry.gauge("vec.tss.memo_lookups", **labels).set(paths["memo"])
    for reason in VEC_TSS_FALLBACK_REASONS:
        telemetry.gauge(
            "vec.tss.fallback_lookups", reason=reason, **labels
        ).set(paths[reason])


def emc_counters(datapath, observed: list[dict] | None = None) -> dict:
    """The exact-match cache's counters (:data:`EMC_COUNTERS`) summed
    over shards — ``occupancy`` too: slots held datapath-wide.  All zero
    for a cacheless datapath."""
    return _shard_sum(EMC_COUNTERS, datapath, observed, "emc", _shard_emc)


def record_emc(telemetry, emc: dict, **labels: str) -> None:
    """Publish an :func:`emc_counters` sample as the ``ovs.emc.*``
    family: cumulative counts since the datapath was built (and the
    current occupancy), sampled, hence gauges."""
    telemetry.gauge("ovs.emc.lookups", **labels).set(emc["lookups"])
    telemetry.gauge("ovs.emc.hits", **labels).set(emc["hits"])
    telemetry.gauge("ovs.emc.insertions", **labels).set(emc["insertions"])
    telemetry.gauge("ovs.emc.evictions", **labels).set(emc["evictions"])
    telemetry.gauge("ovs.emc.stale_hits", **labels).set(emc["stale_hits"])
    telemetry.gauge("ovs.emc.occupancy", **labels).set(emc["occupancy"])


def scan_stats(datapath) -> dict:
    """The scenario layer's scan-cost view: packets, tuples scanned,
    hash probes, and mean tuples per megaflow lookup.  ``{}`` for
    datapaths without a stats surface."""
    stats = getattr(datapath, "stats", None)
    if stats is None:
        return {}
    snapshot = stats.snapshot()
    return {field: snapshot[field] for field in SCAN_STAT_FIELDS}


def mask_census(datapath) -> tuple[int, int]:
    """``(max_per_shard, total)`` megaflow mask counts — the per-shard
    scan bound a packet actually meets, and the fleet-wide inventory.
    Unsharded datapaths report the same number for both."""
    mask_count = datapath.mask_count
    return mask_count, getattr(datapath, "total_mask_count", mask_count)


# ---------------------------------------------------------------------------
# telemetry exporters
# ---------------------------------------------------------------------------

def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_")


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _prom_labels(labels: tuple[tuple[str, str], ...],
                 extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = labels + extra
    if not items:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in items)
    return "{" + body + "}"


def prometheus_text(telemetry) -> str:
    """Prometheus text exposition of the registry: one ``# TYPE`` line
    per metric family, series sorted by (name, labels), deterministic
    value formatting.  Metric names swap dots for underscores under the
    ``repro_`` prefix."""
    lines: list[str] = []
    current = None
    for name, labels, instrument in telemetry.series():
        pname = _prom_name(name)
        if name != current:
            lines.append(f"# TYPE {pname} {instrument.kind}")
            current = name
        if instrument.kind == "histogram":
            for bound, count in instrument.cumulative():
                le = "+Inf" if bound == float("inf") else _prom_value(bound)
                lines.append(
                    f"{pname}_bucket"
                    f"{_prom_labels(labels, (('le', le),))} {count}"
                )
            lines.append(
                f"{pname}_sum{_prom_labels(labels)} "
                f"{_prom_value(instrument.total)}"
            )
            lines.append(
                f"{pname}_count{_prom_labels(labels)} {instrument.count}"
            )
        else:
            lines.append(
                f"{pname}{_prom_labels(labels)} "
                f"{_prom_value(instrument.value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def telemetry_json(telemetry) -> str:
    """The stable JSON snapshot document (schema ``repro.obs/v1``)."""
    return json.dumps(telemetry.snapshot(), indent=2, sort_keys=True) + "\n"


def write_metrics(telemetry, path: str | Path) -> Path:
    """The ``--metrics-out`` writer: Prometheus text exposition for
    ``.prom``/``.txt`` paths, the JSON snapshot otherwise."""
    path = Path(path)
    if path.suffix in (".prom", ".txt"):
        path.write_text(prometheus_text(telemetry), encoding="utf-8")
    else:
        path.write_text(telemetry_json(telemetry), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# wall-clock pps (the one allowlisted wall read outside benchmarks)
# ---------------------------------------------------------------------------

def wall_pps_snapshot(packets: int, started: float) -> dict:
    """The serve loop's operator-facing throughput fields: wall seconds
    since ``started`` (a ``time.perf_counter()`` origin) and packets
    per wall second.  Lives outside every deterministic view — the
    wall-clock lint allowlist names exactly this function."""
    elapsed = time.perf_counter() - started
    return {
        "elapsed_s": elapsed,
        "pps": packets / elapsed if elapsed > 0 else 0.0,
    }
