"""The long-running packet service behind ``repro serve``.

A scenario run answers "what happened over 150 simulated seconds"; the
serve loop answers the operational question — *what does the datapath
look like right now, while the stream is still flowing?*  It ingests a
packet stream (a pcap replayed through the real parser, or the
scenario's synthetic covert-lap feed), pushes every burst through
``process_batch(materialize=False)`` on either the serial
:class:`~repro.ovs.pmd.ShardedDatapath` reference or the
:class:`~repro.runtime.parallel.ParallelDatapath`, and emits periodic
snapshots: cumulative switch stats, per-shard mask counts, and a
mask-count detector verdict.

Two invariants ``tests/runtime/test_serve.py`` pins:

* **Determinism** — every snapshot splits into a ``state`` part
  (driven purely by simulated time and traffic: stats counters, mask
  counts, detector) and a ``wall`` part (elapsed seconds, packets/s).
  The ``state`` series is byte-identical between the serial and
  parallel runtimes, and between repeated runs.

* **Graceful shutdown** — SIGINT/SIGTERM never tears mid-burst: the
  handler sets a flag, the loop finishes the in-flight burst, flushes
  a final snapshot, and joins the workers.  A worker that *dies* is a
  loud :class:`~repro.runtime.parallel.WorkerCrashError`, never a
  hang.
"""

from __future__ import annotations

import dataclasses
import signal
import threading
import time
from pathlib import Path
from typing import Iterator

from repro.defense.detector import DEFAULT_MASK_THRESHOLD
from repro.flow.fields import OVS_FIELDS, FieldSpace
from repro.flow.key import FlowKey
from repro.obs.export import (
    datapath_state,
    observe_shards,
    record_emc,
    record_vec_tss,
    wall_pps_snapshot,
)
from repro.perf.burst import KeyBurst
from repro.perf.workload import AttackerWorkload

#: seconds of simulated time per synthetic burst (matches the
#: simulator's coalescing granularity: one burst per tick)
DEFAULT_TICK = 0.1


class SyntheticSource:
    """The scenario's covert stream as a deterministic live feed.

    Lap structure and pacing mirror the simulator's coalesced replay:
    each :data:`DEFAULT_TICK` of simulated time, from 0, emits the
    integer number of packets due by drift-free cumulative arithmetic,
    sliced cyclically from the covert key set.  Entirely simulated-
    time-driven — no wall clock — so two runs (or two runtimes) see
    byte-identical bursts.
    """

    def __init__(
        self,
        keys: list[FlowKey],
        rate_pps: float,
        duration: float,
        max_packets: int | None = None,
    ) -> None:
        if not keys:
            raise ValueError("synthetic source needs a non-empty key set")
        if rate_pps <= 0:
            raise ValueError(f"rate_pps must be positive, got {rate_pps}")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        self.burst = KeyBurst(keys)
        self.rate_pps = rate_pps
        self.duration = duration
        self.max_packets = max_packets

    def describe(self) -> dict:
        return {
            "type": "synthetic",
            "keys": len(self.burst),
            "rate_pps": self.rate_pps,
            "duration": self.duration,
            "tick": DEFAULT_TICK,
        }

    def batches(self) -> Iterator[tuple[float, list[FlowKey]]]:
        """Yield ``(now, keys)`` bursts until the duration (or packet
        budget) is exhausted.  Idle ticks yield empty bursts so the
        datapath clock — and its revalidator — keeps advancing."""
        t = 0.0
        end = self.duration
        sent = 0
        cursor = 0
        while t < end:
            t = min(t + DEFAULT_TICK, end)
            due = int(round(t * self.rate_pps)) - sent
            if self.max_packets is not None:
                due = min(due, self.max_packets - sent)
            keys = self.burst.cyclic_slice(cursor, due)
            cursor += due
            sent += due
            yield t, keys
            if self.max_packets is not None and sent >= self.max_packets:
                return


class PcapSource:
    """Replay a capture as bursts of flow keys.

    The capture is read a bounded block at a time
    (:meth:`~repro.net.pcap.PcapReader.blocks`) and each block's keys
    come from :class:`~repro.vec.ingest.FlowExtractor`: columnar for
    frames of the common shape, the per-frame parser
    (:func:`~repro.flow.extract.flow_key_from_packet`, the oracle) for
    everything else.  Keys are grouped into bursts of ``batch_size`` (a
    NIC rx-ring drain, not a timer), whatever the block edges; each
    burst carries the capture timestamp of its last frame so the
    datapath clock follows recorded time.

    The capture is data, and data never stops the service: a frame the
    parser rejects, a record longer than the capture's snaplen and a
    capture cut short mid-record are each counted — in ``malformed``
    and, by reason, under ``serve.ingest.malformed`` — and skipped.
    Only a file that cannot be opened or is not a pcap at all raises,
    and it raises here, at construction.  ``frames`` (and
    ``serve.ingest.frames``) count the records read by the path that
    extracted them.
    """

    def __init__(
        self,
        path: str | Path,
        space: FieldSpace = OVS_FIELDS,
        batch_size: int = 256,
        in_port: int = 0,
        telemetry=None,
    ) -> None:
        # imported here, not with the module: only a pcap replay pays
        # for (or needs) the extractor
        from repro.net.pcap import PcapReader
        from repro.vec.ingest import FlowExtractor

        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.path = Path(path)
        self.space = space
        self.batch_size = batch_size
        self.in_port = in_port
        self.telemetry = telemetry
        #: frames / records skipped or clamped so far, all reasons
        self.malformed = 0
        #: records read so far, by the ingest path that extracted them
        self.frames = {"columnar": 0, "reference": 0}
        self.extractor = FlowExtractor(space, in_port)
        PcapReader(self.path).read_header()

    def describe(self) -> dict:
        return {
            "type": "pcap",
            "path": str(self.path),
            "batch_size": self.batch_size,
            "extractor": self.extractor.name,
        }

    def _note_malformed(self, reason: str, count: int = 1) -> None:
        self.malformed += count
        if self.telemetry is not None:
            self.telemetry.counter(
                "serve.ingest.malformed", reason=reason
            ).inc(count)

    def _note_frames(self, path: str, count: int) -> None:
        if count:
            self.frames[path] += count
            if self.telemetry is not None:
                self.telemetry.counter(
                    "serve.ingest.frames", path=path
                ).inc(count)

    def batches(self) -> Iterator[tuple[float, list[FlowKey]]]:
        from repro.net.pcap import PcapReader, PcapTruncatedError

        batch_size = self.batch_size
        batch: list[FlowKey] = []
        last = 0.0
        reader = PcapReader(self.path)
        try:
            for buf, starts, lengths, stamps in reader.blocks():
                keys, columnar = self.extractor.extract(buf, starts, lengths)
                self._note_frames("columnar", columnar)
                self._note_frames("reference", len(keys) - columnar)
                if columnar < len(keys):
                    # only the reference path rejects a frame
                    kept = [i for i, key in enumerate(keys)
                            if key is not None]
                    if len(kept) < len(keys):
                        self._note_malformed("runt_frame",
                                             len(keys) - len(kept))
                        stamps = [stamps[i] for i in kept]
                        keys = [keys[i] for i in kept]
                done = 0
                room = batch_size - len(batch)
                while len(keys) - done >= room:
                    batch += keys[done:done + room]
                    done += room
                    yield stamps[done - 1], batch
                    batch = []
                    room = batch_size
                if done < len(keys):
                    batch += keys[done:]
                    last = stamps[-1]
        except PcapTruncatedError:
            self._note_malformed("truncated_capture")
        finally:
            if reader.oversized_records:
                self._note_malformed("oversized_record",
                                     reader.oversized_records)
        if batch:
            yield last, batch


@dataclasses.dataclass
class ServeReport:
    """Everything one serve run produced.

    ``snapshots`` and ``final`` each split into ``state`` (simulated-
    time deterministic — the equivalence gate compares exactly this),
    ``detector`` and ``wall`` (timing; never compared).
    """

    source: dict
    workers: int  #: worker processes (0 = the serial reference ran)
    snapshots: list[dict]
    final: dict
    packets: int
    batches: int
    wall_seconds: float
    stopped_by: str  #: "end-of-stream" | "signal:SIGINT" | ...

    @property
    def packets_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.packets / self.wall_seconds

    def deterministic_view(self) -> dict:
        """The wall-clock-free projection: what must match between the
        serial reference and the parallel runtime, byte for byte."""
        return {
            "series": [
                {"state": s["state"], "detector": s["detector"]}
                for s in self.snapshots
            ],
            "final": {
                "state": self.final["state"],
                "detector": self.final["detector"],
            },
            "packets": self.packets,
            "batches": self.batches,
        }

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "workers": self.workers,
            "snapshots": self.snapshots,
            "final": self.final,
            "packets": self.packets,
            "batches": self.batches,
            "wall_seconds": self.wall_seconds,
            "packets_per_second": self.packets_per_second,
            "stopped_by": self.stopped_by,
        }

    def render(self) -> str:
        """The operator-facing final report."""
        state = self.final["state"]
        detector = self.final["detector"]
        runtime = (
            f"parallel ({self.workers} workers)" if self.workers else "serial"
        )
        lines = [
            f"serve finished: {self.stopped_by}",
            f"  runtime        {runtime}",
            f"  packets        {self.packets} in {self.batches} bursts "
            f"({self.packets_per_second:,.0f} pkt/s wall)",
            f"  masks          {state['mask_count']} max/shard, "
            f"{state['total_mask_count']} total "
            f"(per shard: {state['shard_mask_counts']})",
            f"  megaflows      {state['megaflows']}",
            f"  emc hits       {state['stats']['emc_hits']}",
            f"  megaflow hits  {state['stats']['megaflow_hits']}",
            f"  upcalls        {state['stats']['upcalls']}",
            f"  tuples scanned {state['stats']['tuples_scanned']}",
            f"  detector       "
            + (
                f"ALERT (>= {detector['threshold']} masks on a shard)"
                if detector["alert"]
                else f"quiet (threshold {detector['threshold']})"
            ),
        ]
        return "\n".join(lines)


class ServeService:
    """The serve loop: drain a source into a datapath, snapshot on a
    simulated-time cadence, shut down gracefully.

    Signal handlers (SIGINT/SIGTERM) are installed only for the
    duration of :meth:`run` and only on the main thread; they request a
    stop, which the loop honours *after* the in-flight burst — so the
    final snapshot always reflects a burst boundary, never a torn one.
    """

    def __init__(
        self,
        datapath,
        source,
        report_interval: float = 1.0,
        detect_threshold: int = DEFAULT_MASK_THRESHOLD,
        workers: int = 0,
        close_datapath: bool = True,
        telemetry=None,
    ) -> None:
        if report_interval <= 0:
            raise ValueError(
                f"report_interval must be positive, got {report_interval}"
            )
        self.datapath = datapath
        self.source = source
        self.report_interval = report_interval
        self.detect_threshold = detect_threshold
        self.workers = workers
        self.close_datapath = close_datapath
        self.packets = 0
        self.batches = 0
        self._stop_requested = False
        self._stop_reason = "signal"
        self._installed_handlers: dict[int, object] = {}
        self.telemetry = telemetry
        # the per-burst wire counters: eight of the BatchResult
        # counters the parallel workers ship over the mailbox, each
        # paired with its telemetry series by name (None when telemetry
        # is disabled — the hot loop then skips instrumentation entirely)
        self._wire_counters = None
        if telemetry is not None:
            telemetry.attach(datapath)
            counter = telemetry.counter
            self._wire_counters = (
                ("packets", counter("serve.batch.packets")),
                ("tuples_scanned", counter("serve.batch.tuples_scanned")),
                ("hash_probes", counter("serve.batch.hash_probes")),
                ("forwarded", counter("serve.batch.forwarded")),
                ("drops", counter("serve.batch.drops")),
                ("upcalls", counter("serve.batch.upcalls")),
                ("emc_hits", counter("serve.batch.emc_hits")),
                ("megaflow_hits", counter("serve.batch.megaflow_hits")),
            )

    # -- shutdown ------------------------------------------------------------

    def request_stop(self, reason: str = "stop-requested") -> None:
        """Ask the loop to stop after the in-flight burst (what the
        signal handlers call; safe from any thread)."""
        self._stop_requested = True
        self._stop_reason = reason

    def _handle_signal(self, signum, frame) -> None:
        self.request_stop(f"signal:{signal.Signals(signum).name}")

    def _install_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return  # signal.signal() only works on the main thread
        for signum in (signal.SIGINT, signal.SIGTERM):
            self._installed_handlers[signum] = signal.signal(
                signum, self._handle_signal
            )

    def _restore_signal_handlers(self) -> None:
        for signum, previous in self._installed_handlers.items():
            signal.signal(signum, previous)
        self._installed_handlers.clear()

    # -- snapshots -----------------------------------------------------------

    def snapshot(self, now: float, started: float) -> dict:
        """One live snapshot: deterministic ``state`` + ``detector``
        (compared by the equivalence gate) and ``wall`` timing (not).
        ``started`` is the run's ``time.perf_counter()`` origin."""
        observed = observe_shards(self.datapath)
        state = {
            "time": now,
            "packets": self.packets,
            **datapath_state(self.datapath, observed),
        }
        detector = {
            "threshold": self.detect_threshold,
            "max_shard_masks": state["mask_count"],
            "alert": state["mask_count"] >= self.detect_threshold,
        }
        snap = {
            "state": state,
            "detector": detector,
            "wall": wall_pps_snapshot(self.packets, started),
        }
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.advance(now)
            telemetry.gauge("serve.datapath.mask_count").set(
                state["mask_count"]
            )
            telemetry.gauge("serve.datapath.total_masks").set(
                state["total_mask_count"]
            )
            telemetry.gauge("serve.datapath.megaflows").set(
                state["megaflows"]
            )
            record_vec_tss(telemetry, state["vec_tss"])
            record_emc(telemetry, state["emc"])
            telemetry.trace.record(
                "serve.snapshot", now, node=getattr(
                    self.datapath, "name", ""
                ),
                packets=self.packets, mask_count=state["mask_count"],
                alert=detector["alert"],
            )
        return snap

    # -- the loop ------------------------------------------------------------

    def run(self, on_snapshot=None) -> ServeReport:
        """Drain the source.  ``on_snapshot(snap)`` is called for each
        periodic snapshot (the CLI prints them live); the final
        snapshot is always taken, whatever stopped the loop."""
        t0 = time.perf_counter()
        stopped_by = "end-of-stream"
        snapshots: list[dict] = []
        next_report: float | None = None
        now = 0.0
        self._install_signal_handlers()
        wire_counters = self._wire_counters
        try:
            for now, keys in self.source.batches():
                batch = self.datapath.process_batch(
                    keys, now=now, materialize=False
                )
                self.packets += batch.packets
                self.batches += 1
                if wire_counters is not None:
                    for field, counter in wire_counters:
                        counter.inc(getattr(batch, field))
                if next_report is None:
                    next_report = now + self.report_interval
                if now + 1e-12 >= next_report:
                    snap = self.snapshot(now, t0)
                    snapshots.append(snap)
                    if on_snapshot is not None:
                        on_snapshot(snap)
                    while next_report <= now + 1e-12:
                        next_report += self.report_interval
                if self._stop_requested:
                    stopped_by = self._stop_reason
                    break
            final = self.snapshot(now, t0)
            report = ServeReport(
                source=self.source.describe(),
                workers=self.workers,
                snapshots=snapshots,
                final=final,
                packets=self.packets,
                batches=self.batches,
                wall_seconds=time.perf_counter() - t0,
                stopped_by=stopped_by,
            )
        finally:
            self._restore_signal_handlers()
            if self.close_datapath:
                close = getattr(self.datapath, "close", None)
                if close is not None:
                    close()
        return report


def build_service(
    spec,
    workers: int = 0,
    pcap: str | Path | None = None,
    rate_pps: float | None = None,
    duration: float = 10.0,
    max_packets: int | None = None,
    batch_size: int = 256,
    report_interval: float = 1.0,
    detect_threshold: int = DEFAULT_MASK_THRESHOLD,
    close_datapath: bool = True,
    telemetry=None,
) -> ServeService:
    """Assemble a serve service from a scenario spec.

    The spec contributes the attack surface (compiled rules + covert
    key set: :meth:`~repro.scenario.session.Session.covert_stream` for
    the datapath built, so a ``spread`` attacker steers against its
    dispatcher) and the datapath (engine, profile, shard/RSS
    configuration); ``workers`` picks the runtime — 0 runs the spec's
    inline datapath, the serial reference, ``N > 0`` runs the same
    configuration on ``N`` worker processes.  Both come out of the one
    :class:`~repro.perf.factory.DatapathConfig` shard factory, which is
    what makes the two runtimes' snapshot series byte-comparable.

    Serve always runs with the PMD auto-lb and defenses disabled: both
    live outside the aggregate-only wire format, and the serial run
    must stay a valid reference for the parallel one.  It has no
    refresh tick either, so a spec with a ``reprobe_interval`` is
    refused.
    """
    from repro.perf.factory import DatapathConfig
    from repro.scenario.session import Session

    session = Session(spec)
    spec = session.spec
    if spec.defenses:
        raise ValueError(
            "serve runs the raw datapath: defenses attach install guards, "
            "which the parallel runtime rejects and which would desync "
            "the serial reference; use `repro scenario` for defended runs"
        )
    if spec.rebalance_interval:
        raise ValueError(
            "serve always runs with the PMD auto-lb disabled (the "
            "aggregate-only wire carries no per-bucket load); drop "
            "rebalance_interval from the spec"
        )
    if spec.reprobe_interval > 0:
        raise ValueError(
            "serve replays its covert stream as steered once: it has no "
            "refresh tick to re-probe the RETA on; drop reprobe_interval "
            "from the spec"
        )
    config = dataclasses.replace(
        DatapathConfig.from_spec(
            spec, session.profile, session.space, f"{spec.name}-serve"
        ),
        rebalance_interval=0.0,  # a profile's auto-lb default stays off too
    )
    if workers:
        config = dataclasses.replace(
            config, runtime="processes", shards=workers
        )
    if pcap is not None:
        # first: a capture that cannot be read fails before anything
        # is built
        source = PcapSource(
            pcap, space=session.space, batch_size=batch_size,
            telemetry=telemetry,
        )
    datapath = config.build()
    if pcap is None:
        keys, _refresh = session.covert_stream(datapath)
        default_rate = AttackerWorkload(
            rate_bps=spec.covert_rate_bps,
            frame_bytes=spec.covert_frame_bytes,
        ).rate_pps
        source = SyntheticSource(
            keys,
            rate_pps=rate_pps or default_rate,
            duration=duration,
            max_packets=max_packets,
        )
    # applied before any fork: parallel workers inherit the compiled
    # tables by memory, exactly as the serial shards hold them
    datapath.add_rules(session.attack_rules())
    return ServeService(
        datapath,
        source,
        report_interval=report_interval,
        detect_threshold=detect_threshold,
        workers=workers,
        close_datapath=close_datapath,
        telemetry=telemetry,
    )
