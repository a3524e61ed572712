"""The true-parallel execution runtime and the long-running service.

Two layers, both aggregate-only by design:

* :mod:`repro.runtime.parallel` — :class:`ParallelDatapath`: the
  :class:`~repro.ovs.pmd.RetaDispatcher` the inline runtime also is,
  with each shard's switch moved onto its own ``multiprocessing``
  worker behind a handle; only the burst round trip is its own (the
  columnar aggregate-only result mode *is* the IPC wire format).  The
  serial :class:`~repro.ovs.pmd.ShardedDatapath` stays the
  deterministic reference its results must match exactly —
  ``tests/runtime/test_parallel.py`` and ``tests/runtime/test_serve.py``
  gate that equivalence.

* :mod:`repro.runtime.service` — :class:`ServeService`: the
  ``repro serve`` engine, a long-running loop ingesting a packet stream
  (pcap replay or a synthetic covert-lap feed) with periodic live
  stats/detector snapshots, graceful SIGINT/SIGTERM shutdown and loud
  worker-crash diagnostics.
"""

from repro.runtime.parallel import ParallelDatapath, WorkerCrashError
from repro.runtime.service import (
    PcapSource,
    ServeReport,
    ServeService,
    SyntheticSource,
    build_service,
)

__all__ = [
    "ParallelDatapath",
    "PcapSource",
    "ServeReport",
    "ServeService",
    "SyntheticSource",
    "WorkerCrashError",
    "build_service",
]
