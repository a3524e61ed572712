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
a real linear search over real hash tables the wall-clock test E6
(``tests/experiments/test_experiments.py::TestLinearScan``) reproduces
the linear blow-up directly.

Keys are packed integers, the one representation: the field space fixes
a bit offset per field, every :class:`~repro.flow.key.FlowKey` caches
one packed integer, and each subtable holds one packed mask — masking a
key down to a subtable is a single ``packed & mask``, and every hash
table keys on ints.  The per-field tuple-keyed search this replaced is
the reference the differential machine holds it to
(:class:`repro.testing.oracles.TupleKeyedSearch`).

With *subtable ranking* (``scan_order="ranked"``) subtables live in a
pvector-style list that is periodically re-sorted by recent hit count
(OVS's dpcls subtable ranking) via :meth:`resort`, which the
revalidator sweep calls on its timer — between bursts, never inside
one.  Ranking makes *benign* heavy-tailed traffic cheap (hot subtables
move to the front) but does **not** blunt the attack: the covert
stream spreads hits uniformly across every subtable, so no ordering
beats any other — the expected scan stays ``(n+1)/2`` (the
``experiments/ranking.py`` ablation measures both).

The optional *staged lookup* models the OVS optimisation of the same
name: each subtable's mask is split into stages (metadata / L2 / L3 /
L4) and a per-stage index lets the scan abandon a subtable early.  It
reduces hash-probe work per subtable but does **not** reduce the number
of subtables visited — which is why it does not stop the attack (an
ablation benchmark shows this).  A stage index keys on the packed key
under the subtable's mask cut down to that stage's fields.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from repro.flow.fields import FieldSpace
from repro.flow.key import FlowKey
from repro.util.floatsum import add_repeated

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
      :meth:`resort` runs (the revalidator sweep calls it).  Between
      re-sorts the scan pays no ordering cost at all.

    Subtables are addressed by their packed mask and entries by their
    packed masked key — a :attr:`~repro.flow.match.FlowMatch.packed`
    pair, for a caller holding a match.
    """

    def __init__(
        self,
        space: FieldSpace,
        staged: bool = False,
        scan_order: str = "insertion",
    ) -> None:
        if scan_order not in SCAN_ORDERS:
            raise ValueError(
                f"unknown scan_order {scan_order!r}; valid: {SCAN_ORDERS}"
            )
        self.space = space
        self.staged = staged
        self.scan_order = scan_order
        self._subtables: dict[int, Subtable] = {}
        # running total of entries over all subtables, kept by insert /
        # remove / clear — the only paths that may mutate a subtable
        self._entry_count = 0
        # the pvector: ranked scan order, compacted lazily after removals
        self._scan_list: list[Subtable] = []
        self._scan_dead = 0
        self.resorts = 0
        #: advanced by every write that can change what a scan answers —
        #: ``insert_at`` (``insert`` lands there), ``remove``, ``clear``
        #: and a ranked :meth:`resort` — so anything derived from the
        #: tables (the columnar engine's mirror and scan memo) is valid
        #: exactly while its stamp is current
        self.generation = 0
        self._next_seq = 0
        self._stage_plan = self._build_stage_plan() if staged else None
        #: the idle floor: a lower bound on the oldest ``last_used`` among
        #: live entries (DESIGN.md §7, clock contract), kept by whatever
        #: stamps one — a lookup handed ``now`` (:meth:`_credit`) and
        #: ``MegaflowCache.insert`` lower it, and only
        #: ``MegaflowCache.expire_idle`` reads it or re-derives it.
        #: Removals can only leave it too low, which is safe
        self.idle_floor = float("inf")
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
        """Scan the subtables for ``key``'s first matching entry — the
        one-key burst of :meth:`lookup_batch`.

        OVS guarantees megaflows are non-overlapping, so "first match"
        and "only match" coincide; the scan order merely affects cost.
        """
        return self.lookup_batch((key,))[0]

    def lookup_batch(self, keys: Sequence[FlowKey],
                     now: float | None = None) -> list[TssLookupResult]:
        """Look up a burst of keys under the **prefix contract**.

        Returns results for a prefix of ``keys``: every leading hit,
        plus the first miss when one occurs.  A miss ends the prefix
        because the caller's upcall will mutate the tuple space (a new
        subtable, a changed scan list), so keys after it must be
        re-scanned against the post-upcall state — resubmit the
        remainder after handling the miss.  Within the prefix the call
        is *exactly* equivalent to looking the keys up one at a time:
        same entries, same ``tuples_scanned``/``hash_probes``, same
        credit and accounting.  Nothing re-sorts the scan list inside a
        burst (only the revalidator's sweep does, between bursts), so
        every key of it sees the same pvector.  With ``now`` (the
        megaflow cache's lookup) each hit's entry is touched and the
        idle floor lowered too; without, entries are opaque.

        Two steps, each written once and run in every configuration:
        the pure :meth:`_stretch` answers the keys up to the first miss,
        and :meth:`_consume` applies the answers.  A subclass that finds
        the answers another way (the columnar engine) replaces only the
        first.  The per-key scan this is held to is
        :class:`repro.testing.oracles.TupleKeyedSearch`.
        """
        probes: list[int] | None = [] if self.staged else None
        return self._consume(self._stretch(keys, 0, probes), probes, now)

    def _stretch(self, keys: Sequence[FlowKey], start: int,
                 probes: list[int] | None = None,
                 ) -> list[TssLookupResult | None]:
        """The answers of ``keys[start:]`` (see :meth:`_answers`) up to
        and including the first miss, in one list: a stretch no write
        divides, drawn whole."""
        stretch = []
        for hit in self._answers(keys, range(start, len(keys)), probes):
            stretch.append(hit)
            if hit is None:
                break
        return stretch

    def prescan_burst(self, keys: Sequence[FlowKey], start: int,
                      counts: Counter | None = None) -> None:
        """The switch's walk hands over ``keys[start:]`` — the rest of a
        burst, from its first question to the tuple space on — before
        asking it; ``counts``, when :meth:`count_burst` counted the
        burst, holds its distinct packed keys in first-seen order.  This
        scan answers each key as it is asked, so there is nothing to do;
        the columnar engine pre-scans them."""

    def count_burst(self, keys: Sequence[FlowKey]) -> Counter | None:
        """Whether the switch's aggregate walk of a burst no EMC serves
        is to be answered *counted* — each distinct key once
        (:meth:`_tally`) — rather than key by key: the burst's packed
        keys counted, or ``None``.  This scan has no answers but its
        probes, so it counts nothing; the columnar engine counts a burst
        its exact scan memo can answer."""
        return None

    def _tally(self, counts: Counter
               ) -> list[tuple[TssLookupResult, int]] | None:
        """A counted burst's answers: per distinct packed key of
        ``counts``, its answer and its count — one stretch no write
        divides, for :meth:`_credit` — or ``None`` when some key is
        not a known hit, and the caller answers the burst key by key.
        Pure, like :meth:`_answers`.  Never reached here
        (:meth:`count_burst` counts nothing)."""
        return None

    def _answers(self, keys: Sequence[FlowKey], positions: Iterable[int],
                 probes: list[int] | None = None,
                 ) -> Iterator[TssLookupResult | None]:
        """Per position drawn from ``positions``, lazily, the
        :class:`TssLookupResult` of ``keys[position]``'s first match in
        scan order, or ``None`` for a miss.  The answers hold until the
        next write, so a caller draws no further than a stretch (its
        first miss's upcall writes); ``positions`` may be a list the
        caller appends to between draws.  Pure: no counter, credit or
        re-sort is touched (a staged probe may rebuild a subtable's
        stage index after a removal, which no answer sees).

        Staged lookup passes ``probes``: each subtable then probes stage
        by stage, and each key's stage probes are appended to it — a
        hit's answer carries the same sum, and a miss's is the caller's
        to read (``probes[-1]``).  Unstaged, a subtable costs one probe.
        """
        if self.scan_order == "ranked":
            tables: Iterable[Subtable] = self._ranked_tables()
        else:
            tables = self._subtables.values()
        for i in positions:
            packed = keys[i].packed
            hit = None
            if probes is None:
                for depth, subtable in enumerate(tables, start=1):
                    entry = subtable.entries.get(packed & subtable.packed_mask)
                    if entry is not None:
                        hit = TssLookupResult(entry, depth, depth, subtable)
                        break
            else:
                used = 0
                for depth, subtable in enumerate(tables, start=1):
                    entry, stage_probes = subtable.lookup_staged(packed)
                    used += stage_probes
                    if entry is not None:
                        hit = TssLookupResult(entry, depth, used, subtable)
                        break
                probes.append(used)
            yield hit

    def _missed(self, probes: int | None = None) -> TssLookupResult:
        """A miss's result: every subtable visited, with ``probes`` hash
        probes — the staged count :meth:`_answers` left, or (``None``)
        one per subtable."""
        n_tables = len(self._subtables)
        return TssLookupResult(None, n_tables,
                               n_tables if probes is None else probes)

    def _consume(self, stretch: list, probes: list[int] | None = None,
                 now: float | None = None) -> list[TssLookupResult]:
        """Apply a :meth:`_stretch` — the leading hits' answers, and a
        ``None`` for the miss that ends it, if one does — as the results
        of the prefix contract.  A hit's answer is its result, passed
        through (immutable, so the copies of one key may share it); the
        miss is built by :meth:`_missed` — staged, from the probe count
        :meth:`_answers` appended last — and the stretch is credited in
        one :meth:`_credit`."""
        if stretch and stretch[-1] is None:
            stretch.pop()
            miss = self._missed(None if probes is None else probes[-1])
            self._credit(self._pairs(stretch, now), now, miss)
            stretch.append(miss)
        else:
            self._credit(self._pairs(stretch, now), now)
        return stretch

    def _pairs(self, hits: Sequence[TssLookupResult], now: float | None
               ) -> list[tuple[TssLookupResult, int]]:
        """A stretch's per-key hit answers as :meth:`_credit`'s
        ``(answer, count)`` pairs, merged by entry — by subtable for a
        lookup without ``now`` (a bare tuple space's entries are opaque
        and may be shared).  Unstaged, every answer of one entry in a
        stretch costs the same (its subtable's depth); staged, a key's
        probes are its own, so answers merge only with themselves."""
        if self.staged:
            return _grouped(hits)
        return _grouped(hits, _SUBTABLE if now is None else _ENTRY)

    def _credit(self, pairs: Sequence[tuple[TssLookupResult, int]],
                now: float | None = None,
                miss: TssLookupResult | None = None,
                ) -> Sequence[tuple[TssLookupResult, int]]:
        """The summed credit step: apply a stretch of lookups that no
        write divides — its hits as ``(answer, count)`` pairs, each
        standing for ``count`` lookups that got ``answer``, in any
        order, and the ``miss`` that ends it, if one does — and return
        the pairs.  A key-by-key stretch comes merged by entry
        (:meth:`_pairs`), a counted burst one pair per distinct key
        (:meth:`_tally`); pairs of one entry credit as their merge.

        Per pair, the subtable's ``hits`` gain the count and its
        ``rank_hits`` the same count of ``+ 1``
        (:func:`~repro.util.floatsum.add_repeated`: bit for bit what
        the per-key adds leave), and, with ``now``, the entry gains the
        count in ``hits`` and ``last_used = now``.  The ``total_*`` sums
        gain the stretch's — Σ count × the answer's — and a lookup at
        ``now`` lowers the idle floor.  Every counter here is a sum
        that only a sweep, a re-sort or an upcall's install guards read
        — so a caller credits a stretch before the upcall that ends it,
        and nothing else can tell the summed step from per-key credit.
        """
        lookups = tuples = probes = 0
        for result, count in pairs:
            subtable = result.subtable
            subtable.hits += count
            subtable.rank_hits = add_repeated(subtable.rank_hits, 1, count)
            if now is not None:
                entry = result.entry
                entry.hits += count  # type: ignore[attr-defined]
                entry.last_used = now  # type: ignore[attr-defined]
            lookups += count
            tuples += count * result.tuples_scanned
            probes += count * result.hash_probes
        if miss is not None:
            lookups += 1
            tuples += miss.tuples_scanned
            probes += miss.hash_probes
        self.total_lookups += lookups
        self.total_tuples_scanned += tuples
        self.total_hash_probes += probes
        if now is not None and lookups and now < self.idle_floor:
            self.idle_floor = now
        return pairs

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


_ENTRY, _SUBTABLE = itemgetter(0), itemgetter(3)


def _grouped(results: Sequence[TssLookupResult], part: Callable | None = None
             ) -> list[tuple[TssLookupResult, int]]:
    """``results`` as ``(result, count)`` pairs, one per distinct object
    ``part(result)`` — the result itself, without ``part`` — counted by
    identity (an entry need not be hashable), in first-seen order."""
    if len(results) < 2:
        return [(result, 1) for result in results]
    ids = [*map(id, results if part is None else map(part, results))]
    holder = dict(zip(ids, results))
    return [(holder[i], count) for i, count in Counter(ids).items()]
