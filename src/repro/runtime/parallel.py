"""True-parallel multi-PMD execution: one worker process per shard.

:class:`~repro.ovs.pmd.ShardedDatapath` runs its N per-PMD shards
serially on one interpreter — correct, deterministic, and bounded by
one core.  :class:`ParallelDatapath` is the same
:class:`~repro.ovs.pmd.RetaDispatcher` — RSS mask, indirection table,
per-shard burst split, rule broadcast and merged observables are
inherited, not restated — and changes only *where a shard runs*:

* until :meth:`~ParallelDatapath.start`, ``shards`` holds the switches
  the shard factory built, exactly as the inline runtime's does;
* ``start()`` forks one worker per shard and replaces each switch in
  ``shards`` with a :class:`_WorkerShard` handle that answers the
  shard-facing calls the dispatcher makes (``_SHARD_CALLS`` and the
  observable reads) with one mailbox round trip — the parent keeps no
  reference to a forked switch, so no parent-side copy can diverge;
* only the burst path and :meth:`~ParallelDatapath.observe` are written
  here: both send to every involved worker *before* awaiting any reply,
  so the shards work concurrently — the runtime's whole point.

Batch replies are **compact aggregates** — the nine
:class:`~repro.ovs.switch.BatchResult` counters as a plain tuple, never
per-packet :class:`PacketResult` objects — so the wire format is the
aggregate-only result mode (``materialize=False``) and a reply costs
O(1) whatever the burst's size.  Keys cross the pipe as their packed
integers and the worker builds each key from its int alone
(:meth:`~repro.flow.key.FlowKey.from_packed`) — far cheaper than
pickling key objects, and bit-exact by construction.  Only the EMC's
set placement reads a key's value tuple (its hash: an insert into a
new slot, a purge), so a shard with EMC insertion off decodes no key.

**Determinism contract.**  Workers are forked *after* the parent builds
every shard switch and applies initial rule state, so worker ``i``
starts from memory identical to serial shard ``i`` (same
:func:`~repro.ovs.pmd.shard_seed`-derived RNG, same compiled tables),
and dispatch is the inherited code.  ``tests/runtime/test_parallel.py``
(per burst) and ``tests/runtime/test_serve.py`` (whole serve runs) gate
byte-identical stats/series against the inline runtime.

What cannot cross the pipe is refused loudly, never silently:
``materialize=True``, ``process`` / ``handle_miss`` (per-packet results
and cache entries) and install guards; the PMD auto-lb is refused
before any constructor runs, by
:meth:`~repro.perf.factory.DatapathConfig.check`.  A worker that dies
(OOM-kill, bug, stray signal) is detected by the mailbox's poll loop
and surfaces as :class:`WorkerCrashError` naming the shard, pid and
exit code — never a silent hang on a dead pipe.
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
from repro.ovs.pmd import DEFAULT_RETA_SIZE, RetaDispatcher
from repro.ovs.stats import COUNTERS
from repro.ovs.switch import BatchResult, OvsSwitch, PacketResult
from repro.ovs.upcall import InstallGuard

#: the aggregate counters a batch reply carries, in wire order — the
#: burst's whole :class:`~repro.ovs.stats.SwitchStats` counter set
#: (``installed`` pairs stay worker-side: entries never cross the pipe)
BATCH_WIRE_FIELDS = COUNTERS

#: the switch methods a worker runs by name on the parent's behalf: a
#: ``(name, *args)`` message is answered with the call's return value
_SHARD_CALLS = (
    "advance_clock", "add_rules", "remove_tenant_rules", "invalidate_caches",
)

#: seconds between liveness checks while waiting on a worker reply
_POLL_INTERVAL = 0.2


class WorkerCrashError(RuntimeError):
    """A shard worker died (or errored) mid-protocol.

    Raised by the parent instead of hanging on the dead pipe; names the
    shard, pid, exit code and the command in flight.
    """


def _worker_main(conn: Connection, switch: OvsSwitch) -> None:
    """The worker loop: own one shard switch, serve mailbox commands.

    Replies are ``("ok", payload)`` or ``("error", message)``; an
    unexpected exception ships its description back before the worker
    dies, so the parent reports the real failure, not a bare exit code.
    """
    space = switch.space
    from_packed = FlowKey.from_packed
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return  # parent went away; nothing left to serve
            op = message[0]
            if op == "batch":
                _, packed_keys, now = message
                keys = [from_packed(space, p) for p in packed_keys]
                sub = switch.process_batch(keys, now=now, materialize=False)
                conn.send(
                    ("ok", tuple(getattr(sub, f) for f in BATCH_WIRE_FIELDS))
                )
            elif op == "observe":
                conn.send(("ok", _observe_switch(switch)))
            elif op in _SHARD_CALLS:
                conn.send(("ok", getattr(switch, op)(*message[1:])))
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


def _observable(field: str) -> property:
    return property(lambda self: self._request("observe")[field])


class _WorkerShard:
    """The parent's handle on one forked shard.

    Constructing it forks the worker that owns ``switch``; the handle
    then stands where the switch stood in ``ParallelDatapath.shards``
    and answers the shard-facing calls of
    :class:`~repro.ovs.pmd.RetaDispatcher` with one mailbox round trip
    each.  It deliberately has no ``microflow`` / ``revalidator`` /
    ``vec_tss_paths``: readers that ``getattr`` for a shard's internals
    find "not here" without touching the pipe.
    """

    def __init__(self, ctx, label: str, switch: OvsSwitch) -> None:
        #: ``"<datapath>: shard worker <i>"`` — how errors name it
        self.label = label
        # static config the dispatcher reads off a shard
        self.staged = switch.staged
        self.scan_order = switch.scan_order
        self.idle_timeout = switch.idle_timeout
        self.cache_capacity = switch.cache_capacity
        self.conn, worker_end = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main, args=(worker_end, switch),
            name=f"{switch.name}-worker", daemon=True,
        )
        self.proc.start()
        worker_end.close()  # the worker holds its end now

    # -- mailbox ------------------------------------------------------------

    def send(self, message: tuple) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise self._crash(message[0], str(exc)) from exc

    def recv(self, op: str):
        while not self.conn.poll(_POLL_INTERVAL):
            if not self.proc.is_alive():
                raise self._crash(op, "worker process died")
        try:
            kind, payload = self.conn.recv()
        except EOFError as exc:
            raise self._crash(op, "pipe closed mid-reply") from exc
        if kind != "ok":
            raise WorkerCrashError(
                f"{self.label} (pid {self.proc.pid}) failed serving "
                f"{op!r}: {payload}"
            )
        return payload

    def _crash(self, op: str, detail: str) -> WorkerCrashError:
        return WorkerCrashError(
            f"{self.label} (pid {self.proc.pid}, exit code "
            f"{self.proc.exitcode}) is gone while serving {op!r}: {detail}. "
            f"Shard state is lost; the run cannot continue."
        )

    def _request(self, *message):
        self.send(message)
        return self.recv(message[0])

    def stop(self, timeout: float) -> None:
        """Polite ``stop`` round, join, terminate a straggler."""
        try:
            if self.proc.is_alive():
                self.conn.send(("stop",))
                if self.conn.poll(timeout):
                    self.conn.recv()
        except (BrokenPipeError, OSError, EOFError):
            pass  # already dead: join/terminate below cleans up
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout)
        self.conn.close()

    # -- the shard-facing surface -------------------------------------------

    def advance_clock(self, now: float) -> None:
        self._request("advance_clock", now)

    def add_rule(self, rule: FlowRule) -> FlowRule:
        self._request("add_rules", [rule])
        return rule

    def add_rules(self, rules: list[FlowRule]) -> None:
        self._request("add_rules", list(rules))

    def remove_tenant_rules(self, tenant: str) -> int:
        return self._request("remove_tenant_rules", tenant)

    def invalidate_caches(self) -> None:
        self._request("invalidate_caches")

    stats = _observable("stats")
    mask_count = _observable("mask_count")
    megaflow_count = _observable("megaflow_count")
    tss_lookups = _observable("tss_lookups")
    rule_count = _observable("rule_count")

    def expected_scan_depth(self) -> float:
        return self._request("observe")["expected_scan_depth"]


class ParallelDatapath(RetaDispatcher):
    """The process runtime: each shard on its own worker process.

    ``shard_factory(i)`` builds shard ``i``'s switch in the *parent*;
    workers start lazily on the first batch (or an explicit
    :meth:`start`), so rule state applied before that is plain local
    mutation, inherited by every worker at fork time.  :meth:`observe`
    fetches every shard's observables in one overlapped round (the
    serve loop's snapshots use it).  Always :meth:`close` (or use as a
    context manager) — workers are real processes.
    """

    def __init__(
        self,
        space: FieldSpace,
        shard_factory: Callable[[int], OvsSwitch],
        shards: int = 1,
        name: str = "pmd-mp",
        reta_size: int = DEFAULT_RETA_SIZE,
    ) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise WorkerCrashError(
                "the parallel runtime needs the 'fork' start method "
                "(workers inherit pre-built shard state by forking); "
                "this platform offers only "
                f"{multiprocessing.get_all_start_methods()}"
            )
        super().__init__(space, shard_factory, shards, name, reta_size)
        self._ctx = multiprocessing.get_context("fork")
        self._procs: list[multiprocessing.Process] = []
        self._closed = False
        # optional span recorder for mailbox rounds (parent-side only)
        self._trace = None
        self._trace_node = ""

    # -- lifecycle ----------------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def start(self) -> None:
        """Fork the shard workers (idempotent).  Every worker inherits
        its switch — and all rule state applied so far — by fork, and
        its handle takes the switch's place in ``shards``: from here on
        the workers' copies are the truth."""
        if self._procs:
            return
        if self._closed:
            raise WorkerCrashError(f"{self.name}: datapath already closed")
        for i, switch in enumerate(self.shards):
            worker = _WorkerShard(
                self._ctx, f"{self.name}: shard worker {i}", switch
            )
            self.shards[i] = worker
            self._procs.append(worker.proc)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers: polite ``stop`` round, join, and terminate
        stragglers.  Idempotent; safe on a never-started datapath."""
        if self._closed:
            return
        self._closed = True
        if self._procs:
            for worker in self.shards:
                worker.stop(timeout)

    def __enter__(self) -> "ParallelDatapath":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def attach_trace(self, trace, node: str = "") -> None:
        """Record one span per overlapped mailbox round (batch dispatch
        and :meth:`observe`) into ``trace`` — the parallel-runtime
        event source :meth:`Telemetry.attach` wires up."""
        self._trace = trace
        self._trace_node = node or self.name

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

    def add_install_guard(self, guard: InstallGuard) -> None:
        raise ValueError(
            "install-guard defenses are not supported on the parallel "
            "runtime: the guard object's counters live in parent memory "
            "and would never see worker traffic; use the serial "
            "ShardedDatapath for defended runs"
        )

    def process_batch(self, keys: Sequence[FlowKey] | Iterable[FlowKey],
                      now: float | None = None,
                      materialize: bool = False) -> BatchResult:
        """Dispatch a burst across the workers and fold their aggregate
        replies.  Sub-bursts are sent to *all* involved workers before
        any reply is awaited — that send/recv split is the whole point:
        every shard scans its sub-burst concurrently on its own core.

        Split and fold are the inline aggregate path's own: one shard
        takes the whole burst (even an empty one: its switch advances
        its clock and sweeps); of several, only those with keys run.
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
        self._advance(now)
        workers = self.shards
        by_shard = self._split(keys)
        for shard, sub_keys in by_shard.items():
            workers[shard].send(
                ("batch", [key.packed for key in sub_keys], now)
            )
        batch = BatchResult()
        for shard in by_shard:
            counters = zip(BATCH_WIRE_FIELDS, workers[shard].recv("batch"))
            self._fold(batch, BatchResult(**dict(counters)))
        if self._trace is not None:
            self._trace.record(
                "runtime.mailbox.batch",
                self.clock if now is None else now,
                node=self._trace_node,
                shards=len(by_shard), packets=batch.packets,
                upcalls=batch.upcalls,
            )
        return batch

    def observe(self) -> list[dict]:
        """Per-shard observable snapshots in shard order (the serve
        loop's snapshot primitive): read off the local switches before
        the fork; after it, one ``observe`` sent to every worker, then
        every reply collected."""
        if not self._procs:
            return [_observe_switch(switch) for switch in self.shards]
        for worker in self.shards:
            worker.send(("observe",))
        observed = [worker.recv("observe") for worker in self.shards]
        if self._trace is not None:
            self._trace.record(
                "runtime.mailbox.broadcast", self.clock,
                node=self._trace_node, op="observe",
                shards=len(self.shards),
            )
        return observed

    def __repr__(self) -> str:
        state = (
            f"{sum(p.is_alive() for p in self._procs)}/{len(self.shards)} "
            "workers live"
            if self._procs
            else "not started"
        )
        return (
            f"ParallelDatapath({self.name}: {len(self.shards)} shards, "
            f"reta={self.reta_size}, {state})"
        )
