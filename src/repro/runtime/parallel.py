"""True-parallel multi-PMD execution: one worker process per shard.

:class:`~repro.ovs.pmd.ShardedDatapath` models N per-PMD shards but
runs them serially on one interpreter — correct, deterministic, and
bounded by one core.  :class:`ParallelDatapath` keeps the exact same
structure and moves each shard's switch state onto its own
``multiprocessing`` worker:

* the **parent** keeps RETA dispatch — the same ``rss_hash`` /
  indirection-table arithmetic as the serial datapath, so a key steers
  to the same shard index either way — and splits every burst into
  per-shard sub-bursts in arrival order;
* each **worker** owns one :class:`~repro.ovs.switch.OvsSwitch` (or
  drop-in subclass such as the vectorized engine) and serves a small
  mailbox protocol over a duplex pipe;
* batch replies are **compact aggregates** — the eight
  :class:`~repro.ovs.switch.BatchResult` counters as a plain tuple,
  never per-packet :class:`PacketResult` objects — so the IPC wire
  format is exactly the columnar aggregate-only result mode
  (``materialize=False``), and the wire cost per burst is O(1) on the
  reply side regardless of burst size.

Keys cross the pipe as their packed integers (every
:class:`~repro.flow.key.FlowKey` caches one) and are rebuilt worker-side
from the shared :class:`~repro.flow.fields.FieldSpace` — far cheaper
than pickling key objects, and bit-exact by construction.

**Determinism contract.**  Workers are forked *after* the parent builds
every shard switch and applies initial rule state, so worker ``i``
starts from memory identical to serial shard ``i`` (same
:func:`~repro.ovs.pmd.shard_seed`-derived RNG, same compiled tables).
Dispatch, sub-burst order and per-shard clock advancement mirror the
serial aggregate path operation for operation, which is why the serial
datapath remains the *reference*: ``tests/runtime/test_parallel.py``
(per burst) and ``tests/runtime/test_serve.py`` (whole serve runs) gate
byte-identical stats/series between the two.

What the parallel runtime deliberately refuses (loudly, never
silently):

* ``materialize=True`` — per-packet results cannot cross the pipe
  without becoming the bottleneck the runtime exists to remove;
* ``process`` / ``handle_miss`` — both return cache entries, and a
  worker-owned :class:`MegaflowEntry` mutated in the parent would
  silently diverge from the worker's copy;
* install guards and PMD auto-load-balancing — guard counters and the
  bucket load window live in parent memory and would not see worker
  traffic.

A worker that dies (OOM-kill, bug, stray signal) is detected by the
mailbox's poll loop and surfaces as :class:`WorkerCrashError` naming
the shard, pid and exit code — never a silent hang on a dead pipe.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.connection import Connection
from typing import Callable, Iterable, Sequence

from repro.flow.fields import FieldSpace
from repro.flow.key import FlowKey
from repro.flow.rule import FlowRule
from repro.obs.export import observe_switch as _observe_switch
from repro.ovs.megaflow import MegaflowEntry
from repro.ovs.pmd import (
    DEFAULT_RETA_SIZE,
    RSS_FIELDS,
    effective_reta_size,
    rss_hash,
)
from repro.ovs.stats import SwitchStats
from repro.ovs.switch import BatchResult, OvsSwitch, PacketResult
from repro.ovs.upcall import InstallGuard

#: the aggregate counters a batch reply carries, in wire order — the
#: :class:`BatchResult` columnar fields (``installed`` pairs stay
#: worker-side: entries never cross the pipe)
BATCH_WIRE_FIELDS = (
    "packets",
    "tuples_scanned",
    "hash_probes",
    "forwarded",
    "drops",
    "upcalls",
    "emc_hits",
    "megaflow_hits",
)

#: seconds between liveness checks while waiting on a worker reply
_POLL_INTERVAL = 0.2


class WorkerCrashError(RuntimeError):
    """A shard worker died (or errored) mid-protocol.

    Raised by the parent instead of hanging on the dead pipe; the
    message names the shard, pid, exit code and the command in flight
    so the failure is diagnosable from the traceback alone.
    """




def _worker_main(conn: Connection, switch: OvsSwitch) -> None:
    """The worker loop: own one shard switch, serve mailbox commands.

    Replies are ``("ok", payload)`` or ``("error", message)``; an
    unexpected exception ships its description back before the worker
    dies, so the parent reports the real failure rather than a bare
    exit code.
    """
    space = switch.space
    unpack = space.unpack
    from_tuple = FlowKey.from_tuple
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return  # parent went away; nothing left to serve
            op = message[0]
            if op == "batch":
                _, packed_keys, now = message
                keys = [from_tuple(space, unpack(p)) for p in packed_keys]
                sub = switch.process_batch(keys, now=now, materialize=False)
                conn.send(
                    ("ok", tuple(getattr(sub, f) for f in BATCH_WIRE_FIELDS))
                )
            elif op == "observe":
                conn.send(("ok", _observe_switch(switch)))
            elif op == "advance":
                switch.advance_clock(message[1])
                conn.send(("ok", None))
            elif op == "add_rules":
                switch.add_rules(message[1])
                conn.send(("ok", None))
            elif op == "remove_tenant_rules":
                conn.send(("ok", switch.remove_tenant_rules(message[1])))
            elif op == "invalidate":
                switch.invalidate_caches()
                conn.send(("ok", None))
            elif op == "stop":
                conn.send(("ok", None))
                return
            else:
                conn.send(("error", f"unknown mailbox command {op!r}"))
                return
    except Exception as exc:  # ship the diagnosis before dying loudly
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        raise


class ParallelDatapath:
    """N per-PMD shards, each on its own worker process.

    Construction mirrors :class:`~repro.ovs.pmd.ShardedDatapath`:
    ``shard_factory(i)`` builds shard ``i``'s switch in the *parent*.
    Workers start lazily on the first batch (or an explicit
    :meth:`start`), so rule state applied before that is plain local
    mutation and is inherited by every worker at fork time.  After
    start, rule management broadcasts over the mailboxes.

    Observables (``stats``, ``mask_count``, ``shard_mask_counts``, …)
    query the workers; :meth:`observe` fetches everything in one
    round-trip per shard and is what the serve loop's snapshots use.
    Always :meth:`close` (or use as a context manager) — workers are
    real processes.
    """

    has_flow_cache = True

    def __init__(
        self,
        space: FieldSpace,
        shard_factory: Callable[[int], OvsSwitch],
        shards: int = 1,
        name: str = "pmd-mp",
        rss_fields: Sequence[str] | None = None,
        reta_size: int = DEFAULT_RETA_SIZE,
        rebalance_interval: float = 0.0,
        rebalance_improvement: float = 0.0,
        rebalance_load_floor: float = 0.0,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if rebalance_interval or rebalance_improvement or rebalance_load_floor:
            raise ValueError(
                "the parallel runtime cannot run the PMD auto-lb: the "
                "per-bucket load window needs per-packet scan depths, "
                "which never cross the aggregate-only wire; use the "
                "serial ShardedDatapath for rebalancing studies"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise WorkerCrashError(
                "the parallel runtime needs the 'fork' start method "
                "(workers inherit pre-built shard state by forking); "
                "this platform offers only "
                f"{multiprocessing.get_all_start_methods()}"
            )
        self.name = name
        self.space = space
        self.shard_count = shards
        # built in the parent so pre-fork state is the serial reference
        # state; dropped at start() — workers own them from then on
        self._switches: list[OvsSwitch] | None = [
            shard_factory(i) for i in range(shards)
        ]
        fields = tuple(f for f in (rss_fields or RSS_FIELDS) if f in space)
        self._rss_mask = space.pack(
            tuple(
                spec.max_value if spec.name in fields else 0
                for spec in space.specs
            )
        ) if fields else 0
        self.rss_fields = fields
        self.reta_size = effective_reta_size(reta_size, shards)
        self.reta: list[int] = [b % shards for b in range(self.reta_size)]
        self.clock = 0.0
        # static config, captured before the switches cross the fork
        first = self._switches[0]
        self._static = {
            "staged": first.staged,
            "scan_order": first.scan_order,
            "idle_timeout": first.idle_timeout,
            "cache_capacity": sum(s.cache_capacity for s in self._switches),
        }
        self._ctx = multiprocessing.get_context("fork")
        self._procs: list[multiprocessing.Process] = []
        self._pipes: list[Connection] = []
        self._closed = False
        # optional span recorder for mailbox round-trips (parent-side
        # only: the trace never crosses the fork)
        self._trace = None
        self._trace_node = ""

    # -- lifecycle ----------------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def start(self) -> None:
        """Fork the shard workers (idempotent).  Every worker inherits
        its switch — and all rule state applied so far — by fork, then
        the parent drops its references: from here on the workers'
        copies are the truth and all access goes over the mailboxes."""
        if self._procs:
            return
        if self._closed:
            raise WorkerCrashError(f"{self.name}: datapath already closed")
        assert self._switches is not None
        for i, switch in enumerate(self._switches):
            parent_end, worker_end = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=_worker_main,
                args=(worker_end, switch),
                name=f"{self.name}-shard{i}",
                daemon=True,
            )
            proc.start()
            worker_end.close()  # the worker holds its end now
            self._procs.append(proc)
            self._pipes.append(parent_end)
        self._switches = None  # workers own the shard state now

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers: polite ``stop`` round, join, and terminate
        stragglers.  Idempotent; safe on a never-started datapath."""
        if self._closed:
            return
        self._closed = True
        for shard, conn in enumerate(self._pipes):
            proc = self._procs[shard]
            try:
                if proc.is_alive():
                    conn.send(("stop",))
                    if conn.poll(timeout):
                        conn.recv()
            except (BrokenPipeError, OSError, EOFError):
                pass  # already dead: join/terminate below cleans up
        for proc in self._procs:
            proc.join(timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout)
        for conn in self._pipes:
            conn.close()

    def __enter__(self) -> "ParallelDatapath":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- mailbox ------------------------------------------------------------

    def _send(self, shard: int, message: tuple) -> None:
        try:
            self._pipes[shard].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise self._crash(shard, message[0], str(exc)) from exc

    def _recv(self, shard: int, op: str):
        conn = self._pipes[shard]
        proc = self._procs[shard]
        while not conn.poll(_POLL_INTERVAL):
            if not proc.is_alive():
                raise self._crash(shard, op, "worker process died")
        try:
            kind, payload = conn.recv()
        except EOFError as exc:
            raise self._crash(shard, op, "pipe closed mid-reply") from exc
        if kind != "ok":
            raise WorkerCrashError(
                f"{self.name}: shard worker {shard} "
                f"(pid {proc.pid}) failed serving {op!r}: {payload}"
            )
        return payload

    def _crash(self, shard: int, op: str, detail: str) -> WorkerCrashError:
        proc = self._procs[shard]
        return WorkerCrashError(
            f"{self.name}: shard worker {shard} (pid {proc.pid}, exit code "
            f"{proc.exitcode}) is gone while serving {op!r}: {detail}. "
            f"Shard state is lost; the run cannot continue."
        )

    def _request(self, shard: int, message: tuple):
        self._send(shard, message)
        return self._recv(shard, message[0])

    def _broadcast(self, message: tuple) -> list:
        """Send to every worker first, then collect every reply — the
        same send-all-then-recv-all discipline as batches, so even
        management rounds overlap across workers."""
        for shard in range(self.shard_count):
            self._send(shard, message)
        replies = [
            self._recv(shard, message[0]) for shard in range(self.shard_count)
        ]
        if self._trace is not None:
            self._trace.record(
                "runtime.mailbox.broadcast", self.clock,
                node=self._trace_node, op=message[0],
                shards=self.shard_count,
            )
        return replies

    def attach_trace(self, trace, node: str = "") -> None:
        """Record one span per mailbox round-trip (batch dispatch and
        management broadcast) into ``trace`` — the parallel-runtime
        event source :meth:`Telemetry.attach` wires up."""
        self._trace = trace
        self._trace_node = node or self.name

    # -- dispatch -----------------------------------------------------------

    def _advance(self, now: float | None) -> None:
        if now is not None and now > self.clock:
            self.clock = now

    def bucket_of(self, key: FlowKey) -> int:
        """Same RETA arithmetic as the serial dispatcher — a key's
        bucket (and with the identity table, its shard) is identical
        under either runtime."""
        return rss_hash(key.packed & self._rss_mask) % self.reta_size

    def shard_of(self, key: FlowKey) -> int:
        if self.shard_count == 1:
            return 0
        return self.reta[self.bucket_of(key)]

    # -- datapath -----------------------------------------------------------

    def process(self, key_or_packet, in_port: int = 0,
                now: float | None = None) -> PacketResult:
        raise ValueError(
            "the parallel runtime is aggregate-only: per-packet results "
            "(and their cache entries) never cross the worker pipe; use "
            "process_batch(materialize=False), or the serial "
            "ShardedDatapath reference when results are needed"
        )

    def handle_miss(self, key: FlowKey, now: float = 0.0) -> MegaflowEntry | None:
        raise ValueError(
            "the parallel runtime cannot hand out megaflow entries: "
            "they live in worker memory, and a parent-side mutation "
            "would silently diverge from the worker's copy; replay "
            "misses through process_batch(materialize=False) instead"
        )

    def process_batch(self, keys: Sequence[FlowKey] | Iterable[FlowKey],
                      now: float | None = None,
                      materialize: bool = False) -> BatchResult:
        """Dispatch a burst across the workers and fold their aggregate
        replies.  Sub-bursts are sent to *all* involved workers before
        any reply is awaited — that send/recv split is the whole point:
        every shard scans its sub-burst concurrently on its own core.

        Mirrors the serial aggregate path exactly: with one shard the
        whole burst (even an empty one) goes to worker 0, whose switch
        advances its clock and sweeps; with several, only the shards
        that received keys run, and the parent advances its wrapper
        clock — same rules as :class:`ShardedDatapath`.
        """
        if materialize:
            raise ValueError(
                "the parallel runtime returns aggregate-only batches: "
                "PacketResult objects never cross the worker pipe "
                "(that per-packet traffic is what the runtime exists "
                "to avoid); use the serial ShardedDatapath when "
                "materialized results are needed"
            )
        if not self._procs:
            self.start()
        if self.shard_count == 1:
            by_shard = {0: [key.packed for key in keys]}
        else:
            self._advance(now)
            reta = self.reta
            by_shard = {}
            for key in keys:
                by_shard.setdefault(
                    reta[self.bucket_of(key)], []
                ).append(key.packed)
        for shard, packed in by_shard.items():
            self._send(shard, ("batch", packed, now))
        batch = BatchResult()
        for shard in by_shard:
            counters = self._recv(shard, "batch")
            for field, value in zip(BATCH_WIRE_FIELDS, counters):
                setattr(batch, field, getattr(batch, field) + value)
        if self._trace is not None:
            self._trace.record(
                "runtime.mailbox.batch",
                self.clock if now is None else now,
                node=self._trace_node,
                shards=len(by_shard), packets=batch.packets,
                upcalls=batch.upcalls,
            )
        return batch

    def advance_clock(self, now: float) -> None:
        self._advance(now)
        if self._procs:
            self._broadcast(("advance", now))
        else:
            assert self._switches is not None
            for switch in self._switches:
                switch.advance_clock(now)

    # -- slow-path rule management (broadcast) -------------------------------

    def add_rule(self, rule: FlowRule) -> FlowRule:
        if self._procs:
            self._broadcast(("add_rules", [rule]))
            return rule
        assert self._switches is not None
        added = rule
        for switch in self._switches:
            added = switch.add_rule(rule)
        return added

    def add_rules(self, rules: list[FlowRule]) -> None:
        if self._procs:
            self._broadcast(("add_rules", list(rules)))
        else:
            assert self._switches is not None
            for switch in self._switches:
                switch.add_rules(rules)

    def remove_tenant_rules(self, tenant: str) -> int:
        if self._procs:
            return max(self._broadcast(("remove_tenant_rules", tenant)))
        assert self._switches is not None
        return max(s.remove_tenant_rules(tenant) for s in self._switches)

    def add_install_guard(self, guard: InstallGuard) -> None:
        raise ValueError(
            "install-guard defenses are not supported on the parallel "
            "runtime: the guard object's counters live in parent memory "
            "and would never see worker traffic; use the serial "
            "ShardedDatapath for defended runs"
        )

    def invalidate_caches(self) -> None:
        if self._procs:
            self._broadcast(("invalidate",))
        else:
            assert self._switches is not None
            for switch in self._switches:
                switch.invalidate_caches()

    # -- observables ---------------------------------------------------------

    def observe(self) -> list[dict]:
        """Per-shard observable snapshots in shard order, one mailbox
        round-trip per shard (the serve loop's snapshot primitive —
        every property below is a view over this)."""
        if self._procs:
            return self._broadcast(("observe",))
        assert self._switches is not None
        return [_observe_switch(switch) for switch in self._switches]

    @property
    def stats(self) -> SwitchStats:
        return SwitchStats.merge(*(o["stats"] for o in self.observe()))

    @property
    def shard_mask_counts(self) -> list[int]:
        return [o["mask_count"] for o in self.observe()]

    @property
    def mask_count(self) -> int:
        return max(self.shard_mask_counts)

    @property
    def total_mask_count(self) -> int:
        return sum(self.shard_mask_counts)

    @property
    def megaflow_count(self) -> int:
        return sum(o["megaflow_count"] for o in self.observe())

    @property
    def tss_lookups(self) -> int:
        return sum(o["tss_lookups"] for o in self.observe())

    def expected_scan_depth(self) -> float:
        """Lookup-weighted mean of per-shard depths — the same
        aggregation as the serial datapath."""
        observed = self.observe()
        depths = [o["expected_scan_depth"] for o in observed]
        weights = [o["tss_lookups"] for o in observed]
        total = sum(weights)
        if not total:
            return sum(depths) / len(depths)
        return sum(d * w for d, w in zip(depths, weights)) / total

    @property
    def rule_count(self) -> int:
        return self.observe()[0]["rule_count"]  # broadcast: identical

    @property
    def cache_capacity(self) -> int:
        return self._static["cache_capacity"]

    @property
    def staged(self) -> bool:
        return self._static["staged"]

    @property
    def scan_order(self) -> str:
        return self._static["scan_order"]

    @property
    def idle_timeout(self) -> float:
        return self._static["idle_timeout"]

    def __repr__(self) -> str:
        state = (
            f"{sum(p.is_alive() for p in self._procs)}/{self.shard_count} "
            "workers live"
            if self._procs
            else "not started"
        )
        return (
            f"ParallelDatapath({self.name}: {self.shard_count} shards, "
            f"reta={self.reta_size}, {state})"
        )
