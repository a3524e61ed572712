"""repro.obs — the unified observability layer.

One :class:`Telemetry` object per run carries three coordinated
surfaces, all stamped with *simulated* time and all byte-deterministic
for a given seed:

- a **metrics registry** (:mod:`repro.obs.telemetry`): counters,
  gauges and fixed-bucket histograms, named by lowercase dotted
  identifiers and labeled by node/shard;
- a **span/trace recorder** (:mod:`repro.obs.trace`): ring-buffered
  structured events — upcall bursts, revalidator sweeps, RETA
  rebalances, fleet quarantines/migrations, mailbox round-trips —
  exportable as JSONL and Chrome trace-event JSON (Perfetto);
- a **cycle-attribution profile** (:mod:`repro.obs.profile`):
  :class:`~repro.perf.costmodel.CostModel` charges aggregated by
  (layer, phase, node, shard) into a flamegraph-style tree.

Layers accept ``telemetry=None``, and ``None`` is the one off switch:
a layer given it registers no instrument and records no span, so the
disabled path costs one cached ``is not None`` check.  Enabling
telemetry changes no deterministic output byte
(``tests/obs/test_determinism.py``), and what it costs in wall clock is
the pipeline benchmark's ``obs.telemetry_overhead_frac`` row.

Exporters live in :mod:`repro.obs.export`: Prometheus text exposition,
the stable ``repro.obs/v1`` JSON snapshot, and the one shared
datapath-state encoder the scenario, fleet and serve layers all use.
"""

from repro.obs.export import (
    datapath_state,
    emc_counters,
    mask_census,
    observe_shards,
    observe_switch,
    prometheus_text,
    record_emc,
    record_vec_tss,
    scan_stats,
    telemetry_json,
    vec_tss_paths,
    wall_pps_snapshot,
    write_metrics,
)
from repro.obs.profile import CycleProfile
from repro.obs.telemetry import (
    DEFAULT_BUCKETS,
    METRIC_NAME_RE,
    Counter,
    Gauge,
    Histogram,
    Telemetry,
)
from repro.obs.trace import SpanEvent, TraceRecorder

__all__ = [
    "DEFAULT_BUCKETS",
    "METRIC_NAME_RE",
    "Counter",
    "CycleProfile",
    "Gauge",
    "Histogram",
    "SpanEvent",
    "Telemetry",
    "TraceRecorder",
    "datapath_state",
    "emc_counters",
    "mask_census",
    "observe_shards",
    "observe_switch",
    "prometheus_text",
    "record_emc",
    "record_vec_tss",
    "scan_stats",
    "telemetry_json",
    "vec_tss_paths",
    "wall_pps_snapshot",
    "write_metrics",
]
