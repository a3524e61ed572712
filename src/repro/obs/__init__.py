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

Layers accept ``telemetry=None`` and fall back to
:data:`NULL_TELEMETRY`, whose instruments are shared no-ops — the
zero-overhead-when-disabled contract: enabling telemetry changes no
deterministic output byte (``tests/obs/test_determinism.py``), and what
it costs in wall clock is the pipeline benchmark's
``obs.telemetry_overhead_frac`` row.

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
from repro.obs.profile import NULL_PROFILE, CycleProfile, NullProfile
from repro.obs.telemetry import (
    DEFAULT_BUCKETS,
    METRIC_NAME_RE,
    NULL_TELEMETRY,
    Counter,
    Gauge,
    Histogram,
    NullTelemetry,
    Telemetry,
)
from repro.obs.trace import NULL_TRACE, NullTrace, SpanEvent, TraceRecorder

__all__ = [
    "DEFAULT_BUCKETS",
    "METRIC_NAME_RE",
    "NULL_PROFILE",
    "NULL_TELEMETRY",
    "NULL_TRACE",
    "Counter",
    "CycleProfile",
    "Gauge",
    "Histogram",
    "NullProfile",
    "NullTelemetry",
    "NullTrace",
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
