"""The OVS switch façade: the full fast-path/slow-path pipeline.

``process()`` runs one packet through the paper's Section 2 pipeline:

1. **microflow cache** (exact match over all header fields);
2. **megaflow cache** (tuple space search — the sequential scan whose
   cost the attack inflates);
3. **slow path** (full flow-table classification + megaflow install).

Every result carries its cost accounting (which path served it, how
many subtables the TSS scan visited) so the performance layer can map
it to cycles, and the experiment harness can reproduce the paper's
throughput series without instrumenting the internals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from repro.flow.actions import Action
from repro.flow.fields import OVS_FIELDS, FieldSpace
from repro.flow.key import FlowKey
from repro.flow.rule import FlowRule
from repro.flow.table import FlowTable
from repro.net.layers import Layer
from repro.flow.extract import flow_key_from_packet
from repro.ovs.megaflow import (
    DEFAULT_FLOW_LIMIT,
    DEFAULT_IDLE_TIMEOUT,
    MegaflowCache,
    MegaflowEntry,
)
from repro.ovs.microflow import MicroflowCache
from repro.ovs.revalidator import Revalidator
from repro.ovs.stats import SwitchStats
from repro.ovs.tss import PrefixContractError
from repro.ovs.upcall import InstallGuard, SlowPath
from repro.util.rng import DeterministicRng


class LookupPath(enum.Enum):
    """Which layer of the pipeline served a packet."""

    MICROFLOW = "microflow"
    MEGAFLOW = "megaflow"
    UPCALL = "upcall"
    #: no cache layer at all — a cacheless backend classified directly
    CACHELESS = "cacheless"


@dataclass(slots=True)
class PacketResult:
    """Outcome and cost accounting for one processed packet."""

    action: Action
    path: LookupPath
    #: subtables visited by the TSS scan (0 on a microflow hit)
    tuples_scanned: int
    #: hash probes performed by the TSS scan
    hash_probes: int
    #: the megaflow serving or installed for this packet, if any
    entry: Optional[MegaflowEntry]
    #: True when installation was skipped (guard veto / flow limit)
    install_skipped: bool = False

    @property
    def forwarded(self) -> bool:
        return self.action.is_forwarding()


@dataclass
class BatchResult(SwitchStats):
    """Outcome of a :meth:`OvsSwitch.process_batch` call: the burst's
    :class:`~repro.ovs.stats.SwitchStats` — the pipeline counts into
    it and nowhere else; the switch adds it to its ``stats`` once, at
    the end of the burst — plus what the burst produced.

    In the default **materialized** mode per-packet results stay
    available (order matches the input keys); the counters save
    callers a Python-level reduce on the hot path.  In **aggregate-only**
    mode (``process_batch(..., materialize=False)``) ``results`` stays
    empty and only the counters are folded — the columnar result mode
    callers that never read per-packet outcomes (the simulator's
    ``_batch_cycles`` path, the parallel runtime's IPC wire format) use
    to skip :class:`PacketResult` construction entirely.  The counters
    are pinned bit-identical between the two modes.
    """

    results: list[PacketResult] = field(default_factory=list)
    #: ``(key, entry)`` per upcall that installed a megaflow, in key
    #: order — recorded in *both* result modes, so aggregate-only
    #: callers that maintain entry maps (the simulator's datapath
    #: replay) still learn about installs without materialised results
    installed: list[tuple[FlowKey, MegaflowEntry]] = field(default_factory=list)

    def tally(self, path: LookupPath, forwarded: bool,
              tuples_scanned: int = 0, hash_probes: int = 0) -> None:
        """Fold one packet's outcome into the aggregates — the one
        per-packet counter fold of both result modes (materialized
        callers append their :class:`PacketResult` to ``results`` beside
        it; the switch's per-chunk folds add one path's sums in bulk)."""
        self.packets += 1
        self.tuples_scanned += tuples_scanned
        self.hash_probes += hash_probes
        if forwarded:
            self.forwarded += 1
        else:
            self.drops += 1
        if path is LookupPath.UPCALL:
            self.upcalls += 1
        elif path is LookupPath.MICROFLOW:
            self.emc_hits += 1
        elif path is LookupPath.MEGAFLOW:
            self.megaflow_hits += 1

    def __len__(self) -> int:
        return self.packets

    def __iter__(self) -> Iterator[PacketResult]:
        return iter(self.results)


class OvsSwitch:
    """One hypervisor switch instance (one per server node in Fig. 1)."""

    def __init__(
        self,
        space: FieldSpace = OVS_FIELDS,
        name: str = "ovs",
        flow_limit: int = DEFAULT_FLOW_LIMIT,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        emc_entries: int = 8192,
        emc_ways: int = 2,
        emc_insertion_prob: float = 1.0,
        staged_lookup: bool = False,
        scan_order: str = "insertion",
        rng: DeterministicRng | None = None,
    ) -> None:
        self.name = name
        self.space = space
        self.table = FlowTable(space, name=f"{name}-table0")
        self.megaflow = MegaflowCache(
            space,
            flow_limit=flow_limit,
            idle_timeout=idle_timeout,
            staged=staged_lookup,
            scan_order=scan_order,
        )
        self.microflow = MicroflowCache(
            entries=emc_entries,
            ways=emc_ways,
            insertion_prob=emc_insertion_prob,
            rng=(rng or DeterministicRng(0)).fork("emc"),
        )
        self.slow_path = SlowPath(self.table, self.megaflow)
        self.revalidator = Revalidator(self.megaflow, self.microflow)
        self.stats = SwitchStats()
        #: the switch's monotonic clock: ``process``/``process_batch``/
        #: ``advance_clock`` only ever move it forward (a stale ``now``
        #: is clamped), so idle accounting and revalidator sweeps can
        #: never be un-expired by an out-of-order caller
        self.clock = 0.0
        #: the adaptive TSS chunk window, persisted across runs: chunk
        #: size is semantically free (``lookup_batch`` returns a prefix
        #: that stops at the first miss), so a hit-heavy steady state
        #: keeps its large window between bursts instead of re-ramping
        #: from one key every run
        self._batch_window = 1

    # -- configuration -----------------------------------------------------

    def add_rule(self, rule: FlowRule) -> FlowRule:
        """Install a slow-path rule.  Rule changes invalidate the caches
        (OVS revalidates; we flush, which is the conservative model)."""
        added = self.table.add(rule)
        self.invalidate_caches()
        return added

    def add_rules(self, rules: list[FlowRule]) -> None:
        """Install several slow-path rules with a single invalidation."""
        for rule in rules:
            self.table.add(rule)
        self.invalidate_caches()

    def remove_tenant_rules(self, tenant: str) -> int:
        """Remove every rule a tenant's policies installed."""
        removed = self.table.remove_if(lambda rule: rule.tenant == tenant)
        if removed:
            self.invalidate_caches()
        return removed

    def add_install_guard(self, guard: InstallGuard) -> None:
        """Attach a defense hook to megaflow installation."""
        self.slow_path.add_guard(guard)

    def invalidate_caches(self) -> None:
        """Flush both cache layers (slow-path rule set changed)."""
        self.megaflow.flush()
        self.microflow.flush()

    # -- datapath ----------------------------------------------------------

    def _advance(self, now: float | None) -> float:
        """Fold a caller-supplied timestamp into the monotonic clock.

        The clock contract: time never moves backwards.  A stale ``now``
        (below the current clock) is clamped to the clock rather than
        honoured — rewinding would un-expire idle accounting and skew
        :meth:`Revalidator.maybe_sweep`.  Returns the effective time.
        """
        if now is not None and now > self.clock:
            self.clock = now
        return self.clock

    #: batched TSS chunks never grow beyond this many keys
    MAX_BATCH_WINDOW = 1024

    def process(self, key_or_packet: FlowKey | Layer | bytes,
                in_port: int = 0, now: float | None = None) -> PacketResult:
        """Run one packet (or pre-extracted key) through the pipeline.

        This is the single-key special case of :meth:`process_batch` —
        the batch entry is the primary datapath protocol; per-packet
        callers pay a one-element burst.  Every in-process datapath
        (the RETA-sharded one, the cache-less adapter) shares this body
        over its own ``process_batch``.  ``now`` may only move the
        switch clock forward (see :meth:`_advance`); a stale value is
        clamped to the current clock.
        """
        if isinstance(key_or_packet, FlowKey):
            key = key_or_packet
        else:
            key = flow_key_from_packet(key_or_packet, in_port=in_port, space=self.space)
        return self.process_batch((key,), now=now).results[0]

    def process_batch(self, keys: Sequence[FlowKey] | Iterable[FlowKey],
                      now: float | None = None,
                      materialize: bool = True) -> BatchResult:
        """Run a burst of pre-extracted keys through the pipeline — the
        **primary** datapath entry point.

        Semantically identical to calling :meth:`process` per key with
        the same ``now`` — bit-identical results, stats and cache state
        — but the per-burst overhead is amortised: the clock update and
        revalidator check run once, the EMC serves each run of
        consecutive hits in one pass (:meth:`_serve_emc_hits`), and runs
        of keys that miss it are looked up through the TSS in *bucketed*
        chunks (:meth:`_resolve` gathers them, :meth:`_flush_run` drains
        them).  As with :meth:`process`, a stale ``now`` is clamped to
        the monotonic clock.  Every step counts into the burst's
        :class:`BatchResult` only; ``stats`` gets it in one
        :meth:`~repro.ovs.stats.SwitchStats.add` at the end (nothing
        that runs mid-burst reads ``stats``).

        ``materialize=False`` selects the aggregate-only result mode:
        cache state, stats and every :class:`BatchResult` counter are
        bit-identical to the default, but no :class:`PacketResult`
        objects are built and ``results`` stays empty — callers that
        only consume the sums (cost charging, the parallel runtime's
        wire format) skip the per-packet object churn.
        """
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        now = self._advance(now)
        self.revalidator.maybe_sweep(now)
        batch = BatchResult()
        served = self._serve_emc_hits(keys, 0, now, batch, materialize)
        if served < len(keys):
            self._resolve(keys[served:] if served else keys, batch, now,
                          materialize)
        self.stats.add(batch)
        return batch

    def _serve_emc_hits(self, keys: Sequence[FlowKey], start: int,
                        now: float, batch: BatchResult,
                        materialize: bool) -> int:
        """Serve the longest all-hit prefix of ``keys[start:]`` from the
        EMC in one pass (:meth:`~repro.ovs.microflow.MicroflowCache.
        lookup_hits`: the per-key probes, LRU touches included, with ON
        trains coalesced) and fold the per-hit bookkeeping once per
        ``(entry, count)`` run and once per call.  Returns how many keys
        were served; the next one, if any, is not a live hit."""
        hits = forwarded = 0
        for entry, count in self.microflow.lookup_hits(keys, start, now):
            entry.hits += count
            entry.last_used = now
            action = entry.action
            if action.is_forwarding():
                forwarded += count
            if materialize:
                batch.results.extend(
                    PacketResult(action, LookupPath.MICROFLOW, 0, 0, entry)
                    for _ in range(count)
                )
            hits += count
        if hits:
            batch.packets += hits
            batch.emc_hits += hits
            batch.forwarded += forwarded
            batch.drops += hits - forwarded
        return hits

    def _resolve(self, keys: Sequence[FlowKey], batch: BatchResult,
                 now: float, materialize: bool) -> None:
        """The per-key loop: gather ``keys`` — whose first is not a live
        EMC hit — into runs of EMC misses and drain each through the
        TSS.  A run breaks wherever sequential semantics demand it: at a
        key the EMC holds (its outcome depends on the run's pending
        inserts) and at a duplicate within the run.  The flush may have
        stored that very key, so the EMC serves what it now can
        (:meth:`_serve_emc_hits`) before the loop resumes: an EMC hit
        therefore always finds the run empty, and this loop handles
        misses only — absent, or a stale slot for :meth:`~repro.ovs.
        microflow.MicroflowCache.lookup` to purge.

        Every key is screened against the EMC's exact index
        (:meth:`~repro.ovs.microflow.MicroflowCache.contains`): a key
        with no slot skips the cache probe and pays only the
        lookup-counter tick a certain miss would.

        An EMC that holds nothing and cannot store (insertion off) makes
        both breaks impossible: no key can hit, and no flush can store a
        duplicate's earlier copy.  The whole burst is then one run,
        handed to :meth:`_flush_run` with no per-key loop, and every
        key's probe is a certain miss.

        The certain misses' ``microflow.lookups`` ticks are added once
        at the end: nothing that runs mid-burst (slow path, install
        guards) can read them.
        """
        microflow = self.microflow
        n = len(keys)
        if not microflow.occupancy and not microflow.can_store:
            microflow.lookups += n
            self._flush_run(keys, batch, now, materialize)
            return
        contains = microflow.contains
        run: list[FlowKey] = []
        run_set: set[int] = set()
        certain_misses = 0
        i = 0
        while i < n:
            key = keys[i]
            resident = contains(key)
            # add first, then compare sizes: one set probe where a
            # membership test plus an add would pay two.  Adding early
            # is harmless — only the flush follows, and the set is
            # emptied with the run
            run_set.add(key.packed)
            if len(run_set) == len(run) or (run and resident):
                self._flush_run(run, batch, now, materialize)
                run.clear()
                run_set.clear()
                i += self._serve_emc_hits(keys, i, now, batch, materialize)
                continue
            if resident:
                microflow.lookup(key, now)
            else:
                certain_misses += 1
            run.append(key)
            i += 1
        microflow.lookups += certain_misses
        if run:
            self._flush_run(run, batch, now, materialize)

    def _flush_run(self, run: Sequence[FlowKey], batch: BatchResult,
                   now: float, materialize: bool) -> None:
        """Drain a run of EMC-missed keys through the TSS in bucketed
        chunks.  Chunk size is semantically free — ``lookup_batch``
        answers a prefix that stops at the first miss, whatever the
        size — so the window is a pure cost heuristic, persisted across
        runs: a miss resets it to one (the upcall mutated the tuple
        space: re-probe small), a clean full chunk doubles it.

        The megaflow-hit bookkeeping is folded per chunk — the prefix
        contract puts the only possible miss last, and it is finished
        after the hits before it.  What is stateful per key stays per
        key, in key order: the EMC insert (its RNG draw and any stored
        slot; not called at all when the EMC cannot store) and, in
        materialized mode, the ``PacketResult``."""
        start = 0
        window = self._batch_window
        n = len(run)
        microflow = self.microflow
        insert = microflow.insert if microflow.can_store else None
        while start < n:
            chunk = run[start:start + window]
            results = self.megaflow.lookup_batch(chunk, now)
            if not results:
                raise PrefixContractError(self.megaflow.tss, len(chunk))
            start += len(results)
            miss = None if results[-1].hit else results.pop()
            forwarded = tuples = probes = 0
            for key, tss_result in zip(chunk, results):
                entry = tss_result.entry
                if insert is not None:
                    insert(key, entry, now)
                tuples += tss_result.tuples_scanned
                probes += tss_result.hash_probes
                if entry.action.is_forwarding():
                    forwarded += 1
                if materialize:
                    batch.results.append(PacketResult(
                        entry.action, LookupPath.MEGAFLOW,
                        tss_result.tuples_scanned, tss_result.hash_probes,
                        entry,
                    ))
            served = len(results)
            if served:
                batch.packets += served
                batch.megaflow_hits += served
                batch.tuples_scanned += tuples
                batch.hash_probes += probes
                batch.forwarded += forwarded
                batch.drops += served - forwarded
            if miss is not None:
                self._finish_upcall(chunk[served], miss, now, batch,
                                    materialize)
                window = 1
            elif served == len(chunk):
                window = min(window * 2, self.MAX_BATCH_WINDOW)
        self._batch_window = window

    def _finish_upcall(self, key: FlowKey, tss_result, now: float,
                       batch: BatchResult, materialize: bool) -> None:
        upcall = self.slow_path.handle(key, now)
        if upcall.installed is not None:
            self.microflow.insert(key, upcall.installed, now)
            batch.installed.append((key, upcall.installed))
        if upcall.install_skipped is not None:
            batch.upcalls_rejected += 1
        batch.tally(LookupPath.UPCALL, upcall.action.is_forwarding(),
                    tss_result.tuples_scanned, tss_result.hash_probes)
        if materialize:
            batch.results.append(PacketResult(
                action=upcall.action,
                path=LookupPath.UPCALL,
                tuples_scanned=tss_result.tuples_scanned,
                hash_probes=tss_result.hash_probes,
                entry=upcall.installed,
                install_skipped=upcall.install_skipped is not None,
            ))

    def handle_miss(self, key: FlowKey, now: float = 0.0) -> MegaflowEntry | None:
        """Slow-path shortcut for a *known* cache miss: classify and
        install without the (mutation-free) TSS miss scan.  Returns the
        installed megaflow, or ``None`` when a guard or the flow limit
        vetoed caching.  Part of the :class:`~repro.scenario.datapath.
        Datapath` protocol — replay harnesses use it to load covert
        streams without paying the quadratic scan bill in Python."""
        return self.slow_path.handle(key, now).installed

    # -- observability -----------------------------------------------------

    #: this backend keeps attacker-pollutable flow caches (the cacheless
    #: backend reports False and is costed per-classification instead)
    has_flow_cache = True

    @property
    def mask_count(self) -> int:
        """Distinct megaflow masks (Fig. 3's right axis)."""
        return self.megaflow.mask_count

    @property
    def megaflow_count(self) -> int:
        """Cached megaflow entries."""
        return self.megaflow.entry_count

    @property
    def staged(self) -> bool:
        """Whether the TSS uses staged (multi-index) lookup."""
        return self.megaflow.tss.staged

    @property
    def scan_order(self) -> str:
        """The TSS subtable visit order (insertion / hits / ranked)."""
        return self.megaflow.tss.scan_order

    @property
    def tss_lookups(self) -> int:
        """TSS lookups served (megaflow hits plus miss scans) — the
        datapath-surface counter load accounting and scan-depth
        weighting read, so callers never reach into
        ``megaflow.tss`` internals."""
        return self.megaflow.tss.total_lookups

    def expected_scan_depth(self) -> float:
        """Expected subtables visited per megaflow hit under the current
        scan order and hit distribution (see
        :meth:`~repro.ovs.tss.TupleSpaceSearch.expected_scan_depth`)."""
        return self.megaflow.tss.expected_scan_depth()

    @property
    def cache_capacity(self) -> int:
        """Exact-match cache entries fronting the megaflow layer."""
        return self.microflow.capacity

    @property
    def rule_count(self) -> int:
        """Slow-path rules consulted on a full classification."""
        return len(self.table)

    @property
    def idle_timeout(self) -> float:
        """Revalidator idle timeout governing megaflow expiry."""
        return self.megaflow.idle_timeout

    def advance_clock(self, now: float) -> None:
        """Move time forward (runs due revalidator sweeps).  A stale
        ``now`` is clamped: the clock is monotonic."""
        self.revalidator.maybe_sweep(self._advance(now))

    def __repr__(self) -> str:
        return (
            f"OvsSwitch({self.name}: {len(self.table)} rules, "
            f"{self.mask_count} masks, {self.megaflow_count} megaflows)"
        )
