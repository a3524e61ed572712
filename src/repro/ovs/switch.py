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
from operator import attrgetter
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
from repro.ovs.upcall import InstallGuard, SlowPath
from repro.util.rng import DeterministicRng


_TUPLES = attrgetter("tuples_scanned")
_PROBES = attrgetter("hash_probes")


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
        it; the switch's per-burst folds add one path's sums in bulk)."""
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
        revalidator check run once, and the burst is one walk in key
        order (:meth:`_resolve`) in which an EMC slot serves each ON
        train of its key in one step and the megaflow hits between two
        upcalls are credited in one step.  As
        with :meth:`process`, a stale ``now`` is clamped to the monotonic
        clock.  Every step counts into the burst's :class:`BatchResult`
        only; ``stats`` gets it in one
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
        self._resolve(keys, batch, now, materialize)
        self.stats.add(batch)
        return batch

    def _resolve(self, keys: Sequence[FlowKey], batch: BatchResult,
                 now: float, materialize: bool) -> None:
        """The burst's one walk over ``keys``, in key order.

        Each key's EMC probe is inline: one read of the EMC's exact
        index (bound once per burst) per distinct key.  A live slot
        serves its key and every following identical key object — the
        rest of the ON train — in one step: the slot's LRU touch and the
        train's results.  The trains one entry serves back to back are
        one *run*, folded once: the entry's ``hits`` by the run's length
        and its ``last_used``, one ``is_forwarding()``.  A stale slot
        goes to :meth:`~repro.ovs.microflow.MicroflowCache.lookup`,
        which purges it; a key with no slot is a certain miss.  An EMC
        miss draws the tuple space's next pure answer
        (:meth:`~repro.ovs.tss.TupleSpaceSearch._answers`, one lazy
        source per stretch, fed the positions of the stretch's EMC
        misses as the walk meets them).  The burst's first EMC miss is
        its first question to the tuple space, which is handed the rest
        of the burst from there (:meth:`~repro.ovs.tss.TupleSpaceSearch.
        prescan_burst`) before it answers.  A megaflow hit is offered to
        the EMC at once (:meth:`~repro.ovs.microflow.MicroflowCache.
        insert`, the one home of placement and eviction): the insert's
        RNG draw, the slot it stores and the slot that evicts are the
        only state the walk must write in key order, because the next
        key's probe reads them.  A TSS miss ends a *stretch*: the tuple
        space changes only at its upcall, so the stretch's megaflow hits
        are credited in one summed step (:meth:`~repro.ovs.tss.
        TupleSpaceSearch._credit`), and the pending EMC run folded,
        before :meth:`_finish_upcall` runs (its install guards may read
        the cache); the last stretch and run are folded at the end of
        the burst.

        An EMC that holds nothing and cannot store (insertion off) stays
        so for the whole burst: no key is probed and no insert offered,
        so the whole burst is handed to ``prescan_burst`` and each
        stretch is answered whole, in one step
        (:meth:`~repro.ovs.tss.TupleSpaceSearch._stretch`).  The EMC's
        ``lookups`` / ``hits`` and the ``BatchResult`` counters of the
        EMC and megaflow hits are added once, at the end: nothing that
        runs mid-burst reads them (an upcall's install guards see only
        the megaflow cache and the key).
        """
        microflow = self.microflow
        tss = self.megaflow.tss
        insert = microflow.insert if microflow.can_store else None
        probes: list[int] | None = [] if tss.staged else None
        results = batch.results
        credited: list = []
        tuples = probed = 0
        i, n = 0, len(keys)
        if not microflow.occupancy and insert is None:
            tss.prescan_burst(keys, 0)
            microflow.lookups += n
            while i < n:
                stretch = tss._stretch(keys, i, probes)
                i += len(stretch)
                miss = None
                if stretch[-1] is None:
                    stretch.pop()
                    miss = tss._missed(None if probes is None
                                       else probes[-1])
                credited += tss._credit(stretch, now, miss)
                tuples += sum(map(_TUPLES, stretch))
                probed += sum(map(_PROBES, stretch))
                if materialize:
                    results.extend(PacketResult(
                        result.entry.action, LookupPath.MEGAFLOW,
                        result.tuples_scanned, result.hash_probes,
                        result.entry,
                    ) for result in stretch)
                if miss is not None:
                    self._finish_upcall(keys[i - 1], miss, now, batch,
                                        materialize)
        else:
            certain_misses = emc_hits = emc_forwarded = 0

            def fold(entry, count):
                # one run of trains the EMC served from ``entry``
                nonlocal emc_hits, emc_forwarded
                entry.hits += count
                entry.last_used = now
                emc_hits += count
                if entry.action.is_forwarding():
                    emc_forwarded += count

            index = microflow._index
            # the positions of the stretch's EMC misses, appended as the
            # walk meets them: its answers are drawn one per miss, from
            # the burst's first miss on
            asked: list[int] = []
            answers = None
            stretch = []
            run_entry, run_count = None, 0
            while i < n:
                key = keys[i]
                slot = index.get(key.packed)
                if slot is not None:
                    entry = slot.entry
                    if entry.alive:
                        # the live slot serves the key's whole ON train
                        j = i + 1
                        while j < n and keys[j] is key:
                            j += 1
                        count = j - i
                        i = j
                        slot.last_used = now
                        if entry is not run_entry:
                            if run_count:
                                fold(run_entry, run_count)
                            run_entry, run_count = entry, 0
                        run_count += count
                        if materialize:
                            results.extend(PacketResult(
                                entry.action, LookupPath.MICROFLOW, 0, 0,
                                entry,
                            ) for _ in range(count))
                        continue
                    microflow.lookup(key, now)  # stale: purged, a miss
                else:
                    certain_misses += 1
                if answers is None:
                    tss.prescan_burst(keys, i)
                    answers = tss._answers(keys, asked, probes)
                asked.append(i)
                result = next(answers)
                i += 1
                if result is None:
                    miss = tss._missed(None if probes is None
                                       else probes[-1])
                    credited += tss._credit(stretch, now, miss)
                    if run_count:
                        fold(run_entry, run_count)
                        run_count = 0
                    self._finish_upcall(key, miss, now, batch, materialize)
                    stretch, asked = [], []
                    answers = tss._answers(keys, asked, probes)
                    continue
                stretch.append(result)
                tuples += result.tuples_scanned
                probed += result.hash_probes
                entry = result.entry
                if insert is not None:
                    insert(key, entry, now)
                if materialize:
                    results.append(PacketResult(
                        entry.action, LookupPath.MEGAFLOW,
                        result.tuples_scanned, result.hash_probes, entry,
                    ))
            if run_count:
                fold(run_entry, run_count)
            microflow.lookups += certain_misses + emc_hits
            microflow.hits += emc_hits
            if emc_hits:
                batch.packets += emc_hits
                batch.emc_hits += emc_hits
                batch.forwarded += emc_forwarded
                batch.drops += emc_hits - emc_forwarded
            if stretch:
                credited += tss._credit(stretch, now)
        served = forwarded = 0
        for result, count in credited:
            served += count
            if result.entry.action.is_forwarding():
                forwarded += count
        if served:
            batch.packets += served
            batch.megaflow_hits += served
            batch.tuples_scanned += tuples
            batch.hash_probes += probed
            batch.forwarded += forwarded
            batch.drops += served - forwarded

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
