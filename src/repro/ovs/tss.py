"""Tuple Space Search — the megaflow cache's lookup structure.

"entries matching on the same header fields are collected into a hash in
which masked packet headers can be found fast. [...] even if hash lookup
is O(1), the TSS algorithm still has to iterate through all hashes
assigned to different masks, rendering TSS a costly linear search when
there are lots of masks."  — the paper, Section 2.

This module implements exactly that structure: a :class:`Subtable` per
distinct mask, holding a Python dict from masked key tuples to entries,
and a :class:`TupleSpaceSearch` that scans the subtables sequentially.
The scan cost (``tuples_scanned``, ``hash_probes``) is reported on every
lookup so the complexity attack is *measurable*, and because the scan is
a real linear search over real hash tables the wall-clock benchmarks in
``benchmarks/bench_tss_linear_scan.py`` reproduce the linear blow-up
directly.

Two orthogonal hot-path optimisations model what real OVS does:

* **Packed keys** (``key_mode="packed"``, the default): the field space
  fixes a bit offset per field, every :class:`~repro.flow.key.FlowKey`
  caches one packed integer, and each subtable precomputes one packed
  mask integer — masking a key down to a subtable becomes a single
  ``packed & mask`` and the per-tuple hash tables key on ints.  The
  tuple-keyed dicts are still maintained as the checked reference
  (``key_mode="tuple"`` scans them instead; equivalence tests assert
  both paths agree probe for probe).

* **Subtable ranking** (``scan_order="ranked"``): subtables live in a
  pvector-style list that is periodically re-sorted by recent hit count
  (OVS's dpcls subtable ranking), either explicitly via :meth:`resort`
  — the revalidator sweep calls it — or automatically every
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
ablation benchmark shows this).  Staged lookups use the tuple path (the
stage indexes key on partial tuples).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

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

#: valid ``TupleSpaceSearch.key_mode`` values
KEY_MODES = ("packed", "tuple")


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


@dataclass(slots=True)
class TssLookupResult:
    """One TSS lookup's outcome and its cost accounting."""

    entry: Optional[object]
    #: subtables visited before (and including) the hit, or all on miss
    tuples_scanned: int
    #: individual hash-table probes performed (≥1 per subtable visited
    #: without staging; possibly fewer aborts with staging)
    hash_probes: int

    @property
    def hit(self) -> bool:
        return self.entry is not None


class Subtable:
    """All megaflow entries sharing one wildcard mask."""

    __slots__ = (
        "masks", "entries", "hits", "created_seq",
        "packed_mask", "entries_packed", "rank_hits", "dead",
        "_space", "_stage_index", "_stage_plan", "_stage_dirty",
    )

    def __init__(
        self,
        masks: tuple[int, ...],
        created_seq: int,
        stage_plan: tuple[tuple[int, ...], ...] | None = None,
        space: FieldSpace | None = None,
        packed_mask: int | None = None,
    ) -> None:
        self.masks = masks
        self.entries: dict[tuple[int, ...], object] = {}
        self.hits = 0
        #: hits since the last ranked re-sort (exponentially decayed)
        self.rank_hits = 0
        self.created_seq = created_seq
        #: True once destroyed — lets the ranked scan list compact lazily
        self.dead = False
        self._space = space
        # packed fast path: one precomputed mask int plus an int-keyed
        # mirror of `entries`, only maintained when a space is given;
        # `packed_mask`, when the caller holds it, is space.pack(masks)
        if space is None:
            packed_mask = None
        elif packed_mask is None:
            packed_mask = space.pack(masks)
        self.packed_mask: int | None = packed_mask
        self.entries_packed: dict[int, object] = {}
        self._stage_plan = stage_plan
        # per-stage set of partial masked keys, maintained incrementally
        # on insert and rebuilt lazily after removals; only allocated
        # when staged lookup is enabled
        self._stage_index: list[set[tuple[int, ...]]] | None = (
            [set() for _ in stage_plan] if stage_plan else None
        )
        self._stage_dirty = False

    def mask_key(self, key_values: tuple[int, ...]) -> tuple[int, ...]:
        """Mask a flow key's values down to this subtable's mask."""
        return tuple(v & m for v, m in zip(key_values, self.masks))

    def credit_hit(self) -> None:
        """Record one lookup hit (cumulative + ranking counters)."""
        self.hits += 1
        self.rank_hits += 1

    def credit_hits(self, n: int) -> None:
        """Record ``n`` lookup hits at once — the burst consume loop
        groups consecutive hits on the same subtable and credits them in
        one call.  Integer adds, so exactly equivalent to ``n``
        :meth:`credit_hit` calls (``rank_hits`` may be a float after a
        ranked re-sort halving; adding an int keeps it exact)."""
        self.hits += n
        self.rank_hits += n

    def insert(self, masked_values: tuple[int, ...], entry: object,
               packed: int | None = None) -> None:
        """Add or replace the entry stored under ``masked_values``;
        ``packed``, when the caller holds it, is
        ``space.pack(masked_values)``."""
        self.entries[masked_values] = entry
        if self._space is not None:
            if packed is None:
                packed = self._space.pack(masked_values)
            self.entries_packed[packed] = entry
        if (
            self._stage_index is not None
            and self._stage_plan is not None
            and not self._stage_dirty
        ):
            # while dirty, skip the incremental update: the pending
            # rebuild will cover this entry anyway
            for stage, indices in enumerate(self._stage_plan):
                partial = tuple(masked_values[i] for i in indices)
                self._stage_index[stage].add(partial)

    def remove(self, masked_values: tuple[int, ...]) -> None:
        """Remove an entry; stage indexes are rebuilt lazily on next use.

        Removal only marks the index dirty (a stale partial key can at
        worst cost a few extra probes), so bulk evictions — revalidator
        sweeps, tenant quarantine — never pay the O(entries × stages)
        rebuild per entry; the next staged lookup rebuilds once.
        """
        del self.entries[masked_values]
        if self._space is not None:
            del self.entries_packed[self._space.pack(masked_values)]
        if self._stage_index is not None:
            self._stage_dirty = True

    def _rebuild_stage_index(self) -> None:
        assert self._stage_index is not None and self._stage_plan is not None
        for stage, indices in enumerate(self._stage_plan):
            self._stage_index[stage] = {
                tuple(masked[i] for i in indices) for masked in self.entries
            }
        self._stage_dirty = False

    def lookup_staged(self, masked_values: tuple[int, ...]) -> tuple[object | None, int]:
        """Staged probe: returns ``(entry, probes_used)``; aborts at the
        first stage whose partial key has no entries."""
        if self._stage_index is None or self._stage_plan is None:
            entry = self.entries.get(masked_values)
            return entry, 1
        if self._stage_dirty:
            self._rebuild_stage_index()
        probes = 0
        for stage, indices in enumerate(self._stage_plan):
            probes += 1
            partial = tuple(masked_values[i] for i in indices)
            if partial not in self._stage_index[stage]:
                return None, probes
        return self.entries.get(masked_values), probes

    def check_packed_consistency(self) -> bool:
        """True when the int-keyed mirror agrees with the tuple dict
        entry for entry (the packed path's checked-reference invariant)."""
        if self._space is None:
            return not self.entries_packed
        if len(self.entries) != len(self.entries_packed):
            return False
        return all(
            self.entries_packed.get(self._space.pack(masked)) is entry
            for masked, entry in self.entries.items()
        )

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

    ``key_mode`` selects the hash-key representation scanned:

    * ``"packed"`` (default) — one integer per key/mask, masked with a
      single ``&`` per subtable;
    * ``"tuple"`` — the per-field tuple reference path.

    Both modes visit the same subtables in the same order and probe one
    hash table per subtable, so ``tuples_scanned`` / ``hash_probes``
    accounting is identical; only the constant factor differs.
    """

    def __init__(
        self,
        space: FieldSpace,
        staged: bool = False,
        scan_order: str = "insertion",
        key_mode: str = "packed",
        resort_interval: int = 0,
    ) -> None:
        if scan_order not in SCAN_ORDERS:
            raise ValueError(
                f"unknown scan_order {scan_order!r}; valid: {SCAN_ORDERS}"
            )
        if key_mode not in KEY_MODES:
            raise ValueError(f"unknown key_mode {key_mode!r}; valid: {KEY_MODES}")
        if resort_interval < 0:
            raise ValueError("resort_interval must be >= 0")
        self.space = space
        self.staged = staged
        self.scan_order = scan_order
        self.key_mode = key_mode
        #: lookups between automatic ranked re-sorts (0 = only explicit
        #: / revalidator-driven re-sorts)
        self.resort_interval = resort_interval
        self._subtables: dict[tuple[int, ...], Subtable] = {}
        # running total of entries over all subtables, kept by insert /
        # remove / clear — the only paths that may mutate a subtable
        self._entry_count = 0
        # the pvector: ranked scan order, compacted lazily after removals
        self._scan_list: list[Subtable] = []
        self._scan_dead = 0
        self._lookups_since_resort = 0
        self.resorts = 0
        self._next_seq = 0
        self._stage_plan = self._build_stage_plan() if staged else None
        # lookup statistics (cumulative)
        self.total_lookups = 0
        self.total_tuples_scanned = 0
        self.total_hash_probes = 0

    def _build_stage_plan(self) -> tuple[tuple[int, ...], ...]:
        """Map DEFAULT_STAGES onto this field space (skipping stages with
        no fields present)."""
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
        return tuple(plan)

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

    def find_subtable(self, masks: tuple[int, ...]) -> Subtable | None:
        """The subtable for a mask, or ``None`` when absent."""
        return self._subtables.get(masks)

    def _create_subtable(self, masks: tuple[int, ...],
                         packed_mask: int | None) -> Subtable:
        """Create the (empty) subtable for a mask :meth:`insert` found
        absent."""
        # staged lookups never probe the packed mirror, so don't
        # maintain one (it would double per-entry memory for nothing)
        packed = self.key_mode == "packed" and not self.staged
        subtable = Subtable(
            masks,
            self._next_seq,
            self._stage_plan,
            space=self.space if packed else None,
            packed_mask=packed_mask,
        )
        self._next_seq += 1
        self._subtables[masks] = subtable
        if self.scan_order == "ranked":
            # new subtables join the back of the pvector (no hits yet)
            self._scan_list.append(subtable)
        return subtable

    def insert(self, masks: tuple[int, ...], masked_values: tuple[int, ...],
               entry: object, packed: tuple[int, int] | None = None) -> Subtable:
        """Insert (or replace) an entry under its mask's subtable,
        creating the subtable on first use; returns the subtable.

        ``packed``, when the caller already holds it (a
        :attr:`~repro.flow.match.FlowMatch.packed`), must equal
        ``(space.pack(masks), space.pack(masked_values))``; the packed
        mirror then packs nothing."""
        return self.insert_at(self._subtables.get(masks), masks,
                              masked_values, entry, packed)

    def insert_at(self, subtable: Subtable | None, masks: tuple[int, ...],
                  masked_values: tuple[int, ...], entry: object,
                  packed: tuple[int, int] | None = None) -> Subtable:
        """:meth:`insert` for a caller that has just asked
        :meth:`find_subtable` for ``masks``: ``subtable`` is its answer
        (``None``: the subtable is created here)."""
        packed_mask = packed_value = None
        if packed is not None:
            packed_mask, packed_value = packed
        if subtable is None:
            subtable = self._create_subtable(masks, packed_mask)
        if masked_values not in subtable.entries:
            self._entry_count += 1
        subtable.insert(masked_values, entry, packed_value)
        return subtable

    def remove(self, masks: tuple[int, ...], masked_values: tuple[int, ...]) -> None:
        """Remove an entry; empty subtables disappear (as OVS destroys
        empty subtables, shrinking the scan)."""
        subtable = self._subtables.get(masks)
        if subtable is None:
            raise KeyError(f"no subtable for mask {masks}")
        subtable.remove(masked_values)
        self._entry_count -= 1
        if not subtable.entries:
            del self._subtables[masks]
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
        if self.staged or self.key_mode == "tuple":
            key_values = key.values
            for subtable in tables:
                tuples_scanned += 1
                masked = subtable.mask_key(key_values)
                if self.staged:
                    entry, probes = subtable.lookup_staged(masked)
                    hash_probes += probes
                else:
                    entry = subtable.entries.get(masked)
                    hash_probes += 1
                if entry is not None:
                    subtable.credit_hit()
                    self._account(tuples_scanned, hash_probes)
                    return TssLookupResult(entry, tuples_scanned, hash_probes)
        else:
            packed = key.packed
            for subtable in tables:
                tuples_scanned += 1
                hash_probes += 1
                entry = subtable.entries_packed.get(packed & subtable.packed_mask)
                if entry is not None:
                    subtable.credit_hit()
                    self._account(tuples_scanned, hash_probes)
                    return TssLookupResult(entry, tuples_scanned, hash_probes)
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
        """Per key the ``(entry, subtable, depth)`` of its first match
        in scan order, or ``None`` for a miss.  Subtable-major: each
        subtable's hash table and mask are fetched once and probed for
        every still-pending key.  Pure — no counter, credit or re-sort
        is touched."""
        if self.scan_order == "ranked":
            tables: Iterable[Subtable] = self._ranked_tables()
        else:
            tables = self._subtables.values()
        pending = range(len(keys))
        resolved: list[tuple[object, Subtable, int] | None] = [None] * len(keys)
        if self.key_mode == "packed":
            packed = [key.packed for key in keys]
            for depth, subtable in enumerate(tables, start=1):
                if not pending:
                    break
                entries = subtable.entries_packed
                mask = subtable.packed_mask
                still: list[int] = []
                for i in pending:
                    entry = entries.get(packed[i] & mask)
                    if entry is None:
                        still.append(i)
                    else:
                        resolved[i] = (entry, subtable, depth)
                pending = still
        else:
            values = [key.values for key in keys]
            for depth, subtable in enumerate(tables, start=1):
                if not pending:
                    break
                entries = subtable.entries
                masks = subtable.masks
                still = []
                for i in pending:
                    masked = tuple(v & m for v, m in zip(values[i], masks))
                    entry = entries.get(masked)
                    if entry is None:
                        still.append(i)
                    else:
                        resolved[i] = (entry, subtable, depth)
                pending = still
        return resolved

    def _consume(self, answers: Iterable,
                 n_tables: int) -> list[TssLookupResult]:
        """Apply scan ``answers`` (one per key, in key order) under the
        burst contract: the leading hits plus the first miss are
        consumed, the rest ignored.  The one stateful half of every
        burst lookup, whatever produced the answers.

        ``_account`` is pure counter addition, so the burst's calls are
        summed; per-key order only matters for the ranked auto-resort
        tick, and :meth:`_capped` guarantees the burst cannot cross a
        resort boundary before its final consumed lookup — applying the
        summed tick afterwards fires the same resort at the same lookup
        count as per-key :meth:`lookup` calls.  Rank credits are
        grouped: consecutive hits on the same subtable (duplicate keys,
        elephant-flow bursts) fold into one ``credit_hits(n)`` call —
        integer adds, so the counters land exactly where per-key
        ``credit_hit`` calls would put them.
        """
        results: list[TssLookupResult] = []
        scanned = 0
        last_table = None
        pending_credits = 0
        for hit in answers:
            if hit is None:
                results.append(TssLookupResult(None, n_tables, n_tables))
                scanned += n_tables
                break
            entry, table, depth = hit
            results.append(TssLookupResult(entry, depth, depth))
            if table is last_table:
                pending_credits += 1
            else:
                if pending_credits:
                    last_table.credit_hits(pending_credits)
                last_table = table
                pending_credits = 1
            scanned += depth
        if pending_credits:
            last_table.credit_hits(pending_credits)
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

    def iter_entries(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], object]]:
        """Iterate ``(masks, masked_values, entry)`` over the whole space."""
        for masks, subtable in self._subtables.items():
            for masked_values, entry in subtable.entries.items():
                yield masks, masked_values, entry

    def remove_if(self, predicate: Callable[[object], bool]) -> int:
        """Remove entries matching a predicate; returns the count."""
        doomed = [
            (masks, masked_values)
            for masks, subtable in self._subtables.items()
            for masked_values, entry in subtable.entries.items()
            if predicate(entry)
        ]
        for masks, masked_values in doomed:
            self.remove(masks, masked_values)
        return len(doomed)

    def __repr__(self) -> str:
        return (
            f"TupleSpaceSearch({self.mask_count} masks, {self.entry_count} entries, "
            f"staged={self.staged}, scan_order={self.scan_order!r}, "
            f"key_mode={self.key_mode!r})"
        )
