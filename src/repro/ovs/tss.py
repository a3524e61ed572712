"""Tuple Space Search — the megaflow cache's lookup structure.

"entries matching on the same header fields are collected into a hash in
which masked packet headers can be found fast. [...] even if hash lookup
is O(1), the TSS algorithm still has to iterate through all hashes
assigned to different masks, rendering TSS a costly linear search when
there are lots of masks."  — the paper, Section 2.

This module implements exactly that structure: a :class:`Subtable` per
distinct mask, holding a Python dict from masked keys to entries, and a
:class:`TupleSpaceSearch` that scans the subtables sequentially.  The
scan cost (``tuples_scanned``, ``hash_probes``) is reported on every
lookup so the complexity attack is *measurable*, and because the scan is
a real linear search over real hash tables the wall-clock benchmarks in
``benchmarks/bench_tss_linear_scan.py`` reproduce the linear blow-up
directly.

Keys are packed integers, the one representation: the field space fixes
a bit offset per field, every :class:`~repro.flow.key.FlowKey` caches
one packed integer, and each subtable holds one packed mask — masking a
key down to a subtable is a single ``packed & mask``, and every hash
table keys on ints.  The per-field tuple-keyed search this replaced is
the reference the differential machine holds it to
(:class:`repro.testing.oracles.TupleKeyedSearch`).

With *subtable ranking* (``scan_order="ranked"``) subtables live in a
pvector-style list that is periodically re-sorted by recent hit count
(OVS's dpcls subtable ranking), either explicitly via :meth:`resort` —
the revalidator sweep calls it — or automatically every
``resort_interval`` lookups.  Ranking makes *benign* heavy-tailed
traffic cheap (hot subtables move to the front) but does **not** blunt
the attack: the covert stream spreads hits uniformly across every
subtable, so no ordering beats any other — the expected scan stays
``(n+1)/2`` (the ``experiments/ranking.py`` ablation measures both).

The optional *staged lookup* models the OVS optimisation of the same
name: each subtable's mask is split into stages (metadata / L2 / L3 /
L4) and a per-stage index lets the scan abandon a subtable early.  It
reduces hash-probe work per subtable but does **not** reduce the number
of subtables visited — which is why it does not stop the attack (an
ablation benchmark shows this).  A stage index keys on the packed key
under the subtable's mask cut down to that stage's fields.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from repro.flow.fields import FieldSpace
from repro.flow.key import FlowKey

#: default stage boundaries (field name prefixes per stage) mirroring
#: OVS's metadata / L2 / L3 / L4 staging
DEFAULT_STAGES: tuple[tuple[str, ...], ...] = (
    ("in_port",),
    ("eth_type", "eth_src", "eth_dst"),
    ("ip_src", "ip_dst", "ip_proto", "ip_tos"),
    ("tp_src", "tp_dst"),
)

#: valid ``TupleSpaceSearch.scan_order`` values
SCAN_ORDERS = ("insertion", "ranked")


class PrefixContractError(RuntimeError):
    """``lookup_batch`` answered a non-empty burst with no result.

    The prefix contract promises at least one result per non-empty
    burst (the leading hits, or the first miss); a caller draining a
    run can neither skip the burst uncounted nor retry it forever.
    """

    def __init__(self, tss: object, burst_len: int) -> None:
        super().__init__(
            f"{type(tss).__name__}.lookup_batch returned no result for a "
            f"burst of {burst_len} keys; the prefix contract requires the "
            "leading hits plus the first miss"
        )


class TssLookupResult(NamedTuple):
    """One TSS lookup's outcome and its cost accounting.

    Immutable, so a scan's answer *is* the result: one object may stand
    for every copy of a key in a burst, or be handed out again by a
    memo."""

    entry: Optional[object]
    #: subtables visited before (and including) the hit, or all on miss
    tuples_scanned: int
    #: individual hash-table probes performed (≥1 per subtable visited
    #: without staging; possibly fewer aborts with staging)
    hash_probes: int
    #: the subtable holding ``entry`` (``None`` on a miss)
    subtable: Optional["Subtable"] = None

    @property
    def hit(self) -> bool:
        return self.entry is not None


class Subtable:
    """All megaflow entries sharing one wildcard mask, keyed on the
    packed masked key (``packed & packed_mask``)."""

    __slots__ = (
        "packed_mask", "entries", "hits", "rank_hits", "created_seq",
        "dead", "_space", "_stage_masks", "_stage_index", "_stage_dirty",
    )

    def __init__(
        self,
        packed_mask: int,
        created_seq: int,
        space: FieldSpace,
        stage_plan: tuple[int, ...] | None = None,
    ) -> None:
        self.packed_mask = packed_mask
        self.entries: dict[int, object] = {}
        self.hits = 0
        #: hits since the last ranked re-sort (exponentially decayed)
        self.rank_hits = 0
        self.created_seq = created_seq
        #: True once destroyed — lets the ranked scan list compact lazily
        self.dead = False
        self._space = space
        # staged lookup: per stage, this mask cut down to the stage's
        # fields, and the set of entries' partial keys under it —
        # maintained incrementally on insert, rebuilt lazily after
        # removals
        self._stage_masks: tuple[int, ...] | None = None
        self._stage_index: list[set[int]] | None = None
        if stage_plan:
            self._stage_masks = tuple(packed_mask & fields
                                      for fields in stage_plan)
            self._stage_index = [set() for _ in stage_plan]
        self._stage_dirty = False

    @property
    def masks(self) -> tuple[int, ...]:
        """The mask per field (unpacked on demand: no lookup reads it)."""
        return self._space.unpack(self.packed_mask)

    def credit_hit(self) -> None:
        """Record one lookup hit (cumulative + ranking counters)."""
        self.hits += 1
        self.rank_hits += 1

    def get(self, packed: int) -> object | None:
        """The entry stored under the packed masked key, or ``None``."""
        return self.entries.get(packed)

    def items(self) -> Iterable[tuple[int, object]]:
        """``(packed masked key, entry)`` pairs."""
        return self.entries.items()

    def insert(self, packed: int, entry: object) -> bool:
        """Add or replace the entry stored under the packed masked key;
        ``True`` when it was not there before."""
        entries = self.entries
        new = packed not in entries
        entries[packed] = entry
        if self._stage_index is not None and not self._stage_dirty:
            # while dirty, skip the incremental update: the pending
            # rebuild will cover this entry anyway
            for mask, index in zip(self._stage_masks, self._stage_index):
                index.add(packed & mask)
        return new

    def remove(self, packed: int) -> None:
        """Remove an entry; stage indexes are rebuilt lazily on next use.

        Removal only marks the index dirty (a stale partial key can at
        worst cost a few extra probes), so bulk evictions — revalidator
        sweeps, tenant quarantine — never pay the O(entries × stages)
        rebuild per entry; the next staged lookup rebuilds once.
        """
        del self.entries[packed]
        if self._stage_index is not None:
            self._stage_dirty = True

    def _rebuild_stage_index(self) -> None:
        self._stage_index = [{packed & mask for packed in self.entries}
                             for mask in self._stage_masks]
        self._stage_dirty = False

    def lookup_staged(self, packed: int) -> tuple[object | None, int]:
        """Staged probe of a packed flow key: returns ``(entry,
        probes_used)``; aborts at the first stage whose partial key has
        no entries."""
        if self._stage_dirty:
            self._rebuild_stage_index()
        probes = 0
        for mask, index in zip(self._stage_masks, self._stage_index):
            probes += 1
            if packed & mask not in index:
                return None, probes
        return self.entries.get(packed & self.packed_mask), probes

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"Subtable(mask={self.masks}, {len(self.entries)} entries, {self.hits} hits)"


class TupleSpaceSearch:
    """The sequential-scan tuple space.

    ``scan_order`` controls how subtables are visited:

    * ``"insertion"`` (default) — the order masks were first created,
      matching the kernel datapath's mask array;
    * ``"ranked"`` — OVS's netdev-datapath subtable ranking: a cached
      pvector-style list re-sorted by recent hit count only when
      :meth:`resort` runs (the revalidator sweep calls it) or every
      ``resort_interval`` lookups.  Between re-sorts the scan pays no
      ordering cost at all.

    Subtables are addressed by their packed mask and entries by their
    packed masked key — a :attr:`~repro.flow.match.FlowMatch.packed`
    pair, for a caller holding a match.
    """

    def __init__(
        self,
        space: FieldSpace,
        staged: bool = False,
        scan_order: str = "insertion",
        resort_interval: int = 0,
    ) -> None:
        if scan_order not in SCAN_ORDERS:
            raise ValueError(
                f"unknown scan_order {scan_order!r}; valid: {SCAN_ORDERS}"
            )
        if resort_interval < 0:
            raise ValueError("resort_interval must be >= 0")
        self.space = space
        self.staged = staged
        self.scan_order = scan_order
        #: lookups between automatic ranked re-sorts (0 = only explicit
        #: / revalidator-driven re-sorts)
        self.resort_interval = resort_interval
        self._subtables: dict[int, Subtable] = {}
        # running total of entries over all subtables, kept by insert /
        # remove / clear — the only paths that may mutate a subtable
        self._entry_count = 0
        # the pvector: ranked scan order, compacted lazily after removals
        self._scan_list: list[Subtable] = []
        self._scan_dead = 0
        self._lookups_since_resort = 0
        self.resorts = 0
        #: advanced by every write that can change what a scan answers —
        #: ``insert_at`` (``insert`` lands there), ``remove``, ``clear``
        #: and a ranked :meth:`resort` — so anything derived from the
        #: tables (the columnar engine's mirror and burst memo) is valid
        #: exactly while its stamp is current
        self.generation = 0
        self._next_seq = 0
        self._stage_plan = self._build_stage_plan() if staged else None
        # lookup statistics (cumulative)
        self.total_lookups = 0
        self.total_tuples_scanned = 0
        self.total_hash_probes = 0

    def _build_stage_plan(self) -> tuple[int, ...]:
        """Map DEFAULT_STAGES onto this field space (skipping stages with
        no fields present): per stage, the packed mask of its fields."""
        plan: list[tuple[int, ...]] = []
        covered: set[int] = set()
        for stage_fields in DEFAULT_STAGES:
            indices = tuple(
                self.space.index_of(name) for name in stage_fields if name in self.space
            )
            if indices:
                plan.append(indices)
                covered.update(indices)
        leftovers = tuple(i for i in range(len(self.space)) if i not in covered)
        if leftovers:
            plan.append(leftovers)
        specs = self.space.specs
        return tuple(
            self.space.pack([spec.max_value if i in indices else 0
                             for i, spec in enumerate(specs)])
            for indices in plan
        )

    # -- structure ---------------------------------------------------------

    @property
    def mask_count(self) -> int:
        """Number of distinct masks — the attack's blow-up target and the
        quantity on Fig. 3's right axis."""
        return len(self._subtables)

    @property
    def entry_count(self) -> int:
        """Total megaflow entries across all subtables (O(1): a running
        count, since the flow-limit check reads it on every install)."""
        return self._entry_count

    def _ranked_tables(self) -> list[Subtable]:
        """The ranked scan list, compacted if subtables died since."""
        if self._scan_dead:
            self._scan_list = [s for s in self._scan_list if not s.dead]
            self._scan_dead = 0
        return self._scan_list

    def subtables(self) -> list[Subtable]:
        """Subtables in the current scan order."""
        if self.scan_order == "ranked":
            return list(self._ranked_tables())
        return list(self._subtables.values())

    def iter_subtables(self) -> Iterator[Subtable]:
        """Subtables in creation order, uncopied — for whole-table walks
        (the idle sweep) that must not pay or disturb the scan order."""
        return iter(self._subtables.values())

    def find_subtable(self, packed_mask: int) -> Subtable | None:
        """The subtable for a packed mask, or ``None`` when absent."""
        return self._subtables.get(packed_mask)

    def _create_subtable(self, packed_mask: int) -> Subtable:
        """Create the (empty) subtable for a mask :meth:`insert` found
        absent."""
        subtable = Subtable(packed_mask, self._next_seq, self.space,
                            self._stage_plan)
        self._next_seq += 1
        self._subtables[packed_mask] = subtable
        if self.scan_order == "ranked":
            # new subtables join the back of the pvector (no hits yet)
            self._scan_list.append(subtable)
        return subtable

    def insert(self, packed_mask: int, packed_value: int,
               entry: object) -> Subtable:
        """Insert (or replace) an entry under its mask's subtable,
        creating the subtable on first use; returns the subtable.
        ``packed_value`` is the packed masked key."""
        return self.insert_at(self._subtables.get(packed_mask), packed_mask,
                              packed_value, entry)

    def insert_at(self, subtable: Subtable | None, packed_mask: int,
                  packed_value: int, entry: object) -> Subtable:
        """:meth:`insert` for a caller that has just asked
        :meth:`find_subtable` for ``packed_mask``: ``subtable`` is its
        answer (``None``: the subtable is created here)."""
        if subtable is None:
            subtable = self._create_subtable(packed_mask)
        if subtable.insert(packed_value, entry):
            self._entry_count += 1
        self.generation += 1
        return subtable

    def remove(self, packed_mask: int, packed_value: int) -> None:
        """Remove an entry; empty subtables disappear (as OVS destroys
        empty subtables, shrinking the scan)."""
        subtable = self._subtables.get(packed_mask)
        if subtable is None:
            raise KeyError(f"no subtable for mask {packed_mask:#x}")
        subtable.remove(packed_value)
        self._entry_count -= 1
        self.generation += 1
        if not subtable.entries:
            del self._subtables[packed_mask]
            if self.scan_order == "ranked":
                # lazy compaction: bulk evictions mark dead subtables and
                # pay one O(n) filter on the next ranked access, not O(n)
                # list removal each
                subtable.dead = True
                self._scan_dead += 1

    def clear(self) -> None:
        """Drop every subtable."""
        self._subtables.clear()
        self._entry_count = 0
        self._scan_list.clear()
        self._scan_dead = 0
        self.generation += 1

    # -- ranking -----------------------------------------------------------

    def resort(self) -> None:
        """Re-rank the subtable pvector by recent hit count (no-op for
        other scan orders).

        Mirrors OVS's periodic dpcls subtable re-sort: the list is
        ordered by ``rank_hits`` (ties broken by age), then the counters
        are halved so ranking tracks recent hit *rate* rather than
        all-time totals — a stale once-hot subtable decays to the back.
        The halving is floating-point on purpose: a subtable refreshed
        roughly once per window (each of the covert stream's thousands)
        must keep its steady-state ~1 weight rather than quantise to
        zero, or the rank distribution would forget exactly the uniform
        spread the attack relies on.
        """
        if self.scan_order != "ranked":
            return
        tables = self._ranked_tables()
        tables.sort(key=lambda s: (-s.rank_hits, s.created_seq))
        for subtable in tables:
            subtable.rank_hits /= 2.0
        self._lookups_since_resort = 0
        self.resorts += 1
        self.generation += 1

    def expected_scan_depth(self) -> float:
        """Expected subtables visited per *hit* if hits keep their
        current distribution, under the current scan order.

        Hit-count weighted mean position: uniform hits over ``n``
        subtables give ``(n+1)/2`` regardless of order (why ranking does
        not blunt the attack — the covert stream's hits are uniform by
        construction), while a heavy-tailed distribution under
        ``"ranked"`` collapses toward the front of the list.

        Ranked mode weights by the same exponentially-decayed
        ``rank_hits`` the ordering itself uses, so the estimate tracks
        the *recent* hit rate — all-time totals would let long-stale
        history dominate after a traffic shift and report a depth the
        actual scan no longer pays.
        """
        tables = self.subtables()
        n = len(tables)
        if n == 0:
            return 0.0
        ranked = self.scan_order == "ranked"
        weights = [
            subtable.rank_hits if ranked else subtable.hits
            for subtable in tables
        ]
        total = sum(weights)
        if total == 0:
            return (n + 1.0) / 2.0
        return (
            sum(position * weight
                for position, weight in enumerate(weights, start=1))
            / total
        )

    # -- lookup ------------------------------------------------------------

    def lookup(self, key: FlowKey) -> TssLookupResult:
        """Sequentially scan subtables for the first matching entry.

        OVS guarantees megaflows are non-overlapping, so "first match"
        and "only match" coincide; the scan order merely affects cost.
        """
        if self.scan_order == "ranked":
            tables = self._ranked_tables()
        else:
            tables = self._subtables.values()
        tuples_scanned = 0
        hash_probes = 0
        staged = self.staged
        packed = key.packed
        for subtable in tables:
            tuples_scanned += 1
            if staged:
                entry, probes = subtable.lookup_staged(packed)
                hash_probes += probes
            else:
                entry = subtable.entries.get(packed & subtable.packed_mask)
                hash_probes += 1
            if entry is not None:
                subtable.credit_hit()
                self._account(tuples_scanned, hash_probes)
                return TssLookupResult(entry, tuples_scanned, hash_probes,
                                       subtable)
        self._account(tuples_scanned, hash_probes)
        return TssLookupResult(None, tuples_scanned, hash_probes)

    def lookup_batch(self, keys: Sequence[FlowKey]) -> list[TssLookupResult]:
        """Scan a burst of keys, walking the subtable list **once** for
        the whole burst instead of once per key.

        Returns results for a **prefix** of ``keys``: every leading hit,
        plus the first miss when one occurs.  A miss ends the prefix
        because the caller's upcall will mutate the tuple space (a new
        subtable, a changed scan list), so keys after it must be
        re-scanned against the post-upcall state — resubmit the
        remainder after handling the miss.  Within the prefix the call
        is *exactly* equivalent to per-key :meth:`lookup`: same entries,
        same ``tuples_scanned``/``hash_probes``, same hit crediting and
        accounting, and ranked auto-re-sorts fire on the same lookup
        they would sequentially.

        Three steps, each written once: :meth:`_capped` stops the burst
        at the next ranked re-sort, the pure :meth:`_scan` answers the
        keys, and :meth:`_consume` applies the answers.  A subclass
        that finds the answers another way (the columnar engine)
        replaces only the middle step.
        """
        if not keys:
            return []
        if self.staged:
            # stage indexes rebuild per lookup: fall back to per-key
            # lookups, honouring the prefix contract
            results: list[TssLookupResult] = []
            for key in keys:
                result = self.lookup(key)
                results.append(result)
                if not result.hit:
                    break
            return results
        keys = self._capped(keys)
        return self._consume(self._scan(keys), len(self._subtables))

    def _capped(self, keys: Sequence[FlowKey]) -> Sequence[FlowKey]:
        """``keys`` cut where a sequential caller would hit the ranked
        auto-re-sort, so every key of the burst sees the same frozen
        pvector and the re-sort can only fall due on the burst's last
        lookup."""
        if self.scan_order == "ranked" and self.resort_interval:
            room = self.resort_interval - self._lookups_since_resort
            if room < len(keys):
                return keys[:room]
        return keys

    def _scan(self, keys: Sequence[FlowKey]) -> list:
        """Per key the :class:`TssLookupResult` of its first match in
        scan order, or ``None`` for a miss.  Subtable-major: each
        subtable's hash table and mask are fetched once and probed for
        every still-pending key.  Pure — no counter, credit or re-sort
        is touched."""
        if self.scan_order == "ranked":
            tables: Iterable[Subtable] = self._ranked_tables()
        else:
            tables = self._subtables.values()
        pending = range(len(keys))
        resolved: list[TssLookupResult | None] = [None] * len(keys)
        packed = [key.packed for key in keys]
        for depth, subtable in enumerate(tables, start=1):
            if not pending:
                break
            entries = subtable.entries
            mask = subtable.packed_mask
            still: list[int] = []
            for i in pending:
                entry = entries.get(packed[i] & mask)
                if entry is None:
                    still.append(i)
                else:
                    resolved[i] = TssLookupResult(entry, depth, depth,
                                                  subtable)
            pending = still
        return resolved

    def _consume(self, answers: Iterable,
                 n_tables: int) -> list[TssLookupResult]:
        """Apply scan ``answers`` (one per key, in key order: a hit's
        :class:`TssLookupResult`, or ``None`` for a miss) under the
        burst contract: the leading hits plus the first miss are
        consumed, the rest ignored.  The one stateful half of every
        burst lookup, whatever produced the answers.

        A hit's answer is its result, passed through (immutable, so the
        copies of one key may share it); only the miss is built here.
        Each hit credits its subtable inline, once per key — what a
        per-key ``credit_hit`` does.  ``_account`` is pure counter
        addition, so the burst's calls are summed; per-key order only
        matters for the ranked auto-resort tick, and :meth:`_capped`
        guarantees the burst cannot cross a resort boundary before its
        final consumed lookup — applying the summed tick afterwards
        fires the same resort at the same lookup count as per-key
        :meth:`lookup` calls.
        """
        results: list[TssLookupResult] = []
        scanned = 0
        for result in answers:
            if result is None:
                results.append(TssLookupResult(None, n_tables, n_tables))
                scanned += n_tables
                break
            results.append(result)
            subtable = result.subtable
            subtable.hits += 1
            subtable.rank_hits += 1
            scanned += result.tuples_scanned
        consumed = len(results)
        self.total_lookups += consumed
        self.total_tuples_scanned += scanned
        self.total_hash_probes += scanned
        if self.scan_order == "ranked" and self.resort_interval:
            self._lookups_since_resort += consumed
            if self._lookups_since_resort >= self.resort_interval:
                self.resort()
        return results

    def _account(self, tuples_scanned: int, hash_probes: int) -> None:
        self.total_lookups += 1
        self.total_tuples_scanned += tuples_scanned
        self.total_hash_probes += hash_probes
        if self.scan_order == "ranked" and self.resort_interval:
            self._lookups_since_resort += 1
            if self._lookups_since_resort >= self.resort_interval:
                self.resort()

    def iter_entries(self) -> Iterator[tuple[int, int, object]]:
        """Iterate ``(packed mask, packed masked key, entry)`` over the
        whole space."""
        for packed_mask, subtable in self._subtables.items():
            for packed_value, entry in subtable.items():
                yield packed_mask, packed_value, entry

    def remove_if(self, predicate: Callable[[object], bool]) -> int:
        """Remove entries matching a predicate; returns the count."""
        doomed = [(packed_mask, packed_value)
                  for packed_mask, packed_value, entry in self.iter_entries()
                  if predicate(entry)]
        for packed_mask, packed_value in doomed:
            self.remove(packed_mask, packed_value)
        return len(doomed)

    def __repr__(self) -> str:
        return (
            f"TupleSpaceSearch({self.mask_count} masks, {self.entry_count} entries, "
            f"staged={self.staged}, scan_order={self.scan_order!r})"
        )
