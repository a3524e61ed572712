"""The vectorized datapath engine the ``ovs`` backend runs on NumPy.

The burst pipeline — answer, credit; one walk over the burst in key
order that serves the EMC's hit runs, offers each megaflow hit to the
EMC and credits each stretch between two upcalls in one step — is the
reference classes' own (:mod:`repro.ovs.tss`, :mod:`repro.ovs.switch`).
This module changes only *where the answers come from*, and every piece
of it is pure: nothing here writes a counter the reference observes —
the hit answers it builds are the immutable results the inherited walk
and ``_consume`` pass through — which is what keeps the engine
byte-for-byte identical to the scalar :class:`~repro.ovs.switch.
OvsSwitch`.

* **Dense mirror** (``_dense_mirror``) — every megaflow entry, in scan
  order, becomes one *column* of a lane-major ``uint64`` array (its
  subtable's mask, its masked key, a mixed fingerprint of the key's
  lanes).  Any write retires it; the next scan rebuilds it in one
  batched encode of every entry and every mask.

* **Fingerprint scan** (``_dense_scan``) — resolves a whole burst
  against the mirror in column blocks: one fingerprint compare per
  (key, column), one ``argmax`` per block to claim each key's first
  match, an exact lane-by-lane check at the claimed column, and — for
  the (astronomically rare) collision — reference dict probes over just
  that block's subtables.  Resolved keys drop out of later blocks where
  the reference scan would have stopped probing.  It returns what the
  inherited scalar probe (:meth:`~repro.ovs.tss.TupleSpaceSearch.
  _answers`) would, for the inherited steps to apply.

* **Scan memo** (:meth:`VecTupleSpaceSearch.prescan`) — the one
  columnar answer, to the switch's walk and a direct ``lookup_batch``
  caller alike.  Because the scan is pure its answers can be kept:
  every distinct key from a burst's first EMC miss on is answered once,
  up front, when the walk meets that miss
  (:meth:`VecTupleSpaceSearch.prescan_burst`, which alone decides what
  the memo keeps or drops), and the walk's EMC
  misses (one or two keys between hit runs on a bursty feed) take their
  answers from the memo instead of each paying a scalar scan of every
  subtable; with no EMC a stretch's hits are drawn from an exact memo
  in one C-level pass (:meth:`VecTupleSpaceSearch._stretch`), and an
  aggregate burst longer than twice the memo is counted by key and
  answered once per distinct key (:meth:`VecTupleSpaceSearch.
  count_burst`, :meth:`VecTupleSpaceSearch._tally`).  The memo
  survives the burst's own upcalls: an ``insert`` never moves another
  subtable in the scan order, so it is *absorbed* — the subtable it
  wrote is recorded with its depth, and a memo answer is the
  shallowest of the pre-scan's and a live probe of the recorded
  subtables at or above it (at, not only above: an entry replaced
  under the pre-scan's own hit must come back as the live object).
  ``remove`` / ``clear`` / ranked ``resort`` can move or delete what
  the pre-scan proved, so they retire the memo; the mirror is retired
  by every write.  Both are stamped with the tuple space's
  ``generation``, so a stale answer can never be consumed.  The memo
  outlives its burst: while it is exact — the same generation, no
  insert absorbed — the next pre-scan keeps every key it holds, takes
  its answers for the burst's keys among them and scans only the rest,
  so a victim's recurring keys are scanned once per generation, not
  once per burst.  It is bounded by ``MEMO_MAX_KEYS``: a carried memo
  at the cap is dropped and the pre-scan starts again from its burst.
  A burst too small to pre-scan keeps an exact memo.  A burst that
  meets no live memo — its table grew under its own installs, or a
  direct caller's — pre-scans its rest once the table has held still
  across two answers (:meth:`VecTupleSpaceSearch._ahead`).

Staged lookup (which the dense mirror cannot serve), bursts too small
to amortise the NumPy overhead and tuple spaces holding many entries
per subtable take the inherited scalar probe — same results either way
— and ``path_lookups`` counts which path answered every lookup.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, takewhile
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.flow.fields import OVS_FIELDS, FieldSpace
from repro.flow.key import FlowKey
from repro.ovs.switch import OvsSwitch
from repro.ovs.tss import Subtable, TssLookupResult, TupleSpaceSearch
from repro.vec import VEC_TSS_PATHS, require_numpy
from repro.vec.columnar import LaneCodec

np = require_numpy("the columnar datapath engine")

#: odd multiplier (the golden-ratio constant) mixing the lanes of the
#: scan fingerprint: plain XOR folding cancels when two lanes carry the
#: same difference pattern — which the covert stream's correlated field
#: counters produce *structurally* — while multiplied lanes only
#: collide with hash probability (and the exact re-check keeps even
#: that harmless)
_FOLD_MULT = 0x9E3779B97F4A7C15

#: a memo lookup's default: a key the memo does not hold (``None`` is
#: a remembered miss)
_UNSEEN = object()
_PACKED = attrgetter("packed")


def _first_match(packed: int, tables: list, lo: int, hi: int):
    """The reference probe loop over ``tables[lo:hi]``, minus every side
    effect: the :class:`TssLookupResult` of the first subtable holding
    ``packed``, or ``None``."""
    for s in range(lo, hi):
        table = tables[s]
        entry = table.entries.get(packed & table.packed_mask)
        if entry is not None:
            return TssLookupResult(entry, s + 1, s + 1, table)
    return None


def _shallowest(packed: int, hit: TssLookupResult | None, written: dict):
    """``hit`` — a scan's answer for ``packed`` that predates the writes
    to ``written``'s subtables (subtable -> depth) — brought up to date:
    the first match among it and a live probe of every written subtable
    no deeper than it.  ``<=``: an insert may have *replaced* the entry
    ``hit`` names, and the live object is the answer."""
    for table, depth in written.items():
        if hit is None or depth <= hit.tuples_scanned:
            entry = table.entries.get(packed & table.packed_mask)
            if entry is not None:
                hit = TssLookupResult(entry, depth, depth, table)
    return hit


class DenseMirror(NamedTuple):
    """Dense lane-major arrays over a tuple space's entries in scan
    order (see :meth:`VecTupleSpaceSearch._dense_mirror`)."""

    #: the subtables in scan order, as of the build
    tables: list
    mask_t: "np.ndarray"
    ent_t: "np.ndarray"
    fent: "np.ndarray"
    fold_lanes: list[int]
    mults: "np.ndarray"
    entry_flat: list
    sub_of: list[int]
    n_cols: int


class VecTupleSpaceSearch(TupleSpaceSearch):
    """Tuple space search with a NumPy-columnar burst lookup."""

    #: below this many keys the scalar scan wins on constant factors;
    #: results are identical either way
    VEC_MIN_BATCH = 16
    #: average entries per subtable above which the dense mirror is not
    #: built (the burst falls back to the scalar scan).  The attack
    #: regime this engine accelerates is the opposite corner: thousands
    #: of subtables with a handful of megaflows each
    DENSE_MAX_ENTRIES = 4
    #: entry columns scanned per block — small enough that every
    #: per-lane pass stays on a cache-friendly contiguous buffer.  A
    #: block holds up to ``BLOCK * BLOCK`` (key, column) cells: a scan
    #: of fewer than ``BLOCK`` keys — a bursty feed's few new keys per
    #: burst — widens its blocks to match, paying the fixed NumPy cost
    #: per block over more columns
    BLOCK = 96
    #: (key, column) pairs below which a burst pre-scan is not run.  A
    #: scan costs ~20 µs of fixed NumPy call overhead per column block,
    #: a scalar probe ~0.07 µs per (key, subtable): measured break-even
    #: sits at 300-700 pairs whatever the mix of keys and columns, and
    #: the margin covers gathering the burst's keys in front of the scan
    PRESCAN_MIN_WORK = 1024
    #: keys a carried scan memo may hold: one at or over it is dropped
    #: and the pre-scan starts again from its burst's keys, so the memo
    #: never holds more than this plus one burst.  The generation's
    #: distinct keys stay far below it on every measured workload (the
    #: bursty victim's 1,877 are the most)
    MEMO_MAX_KEYS = 16384

    def __init__(
        self,
        space: FieldSpace,
        staged: bool = False,
        scan_order: str = "insertion",
    ) -> None:
        super().__init__(space, staged=staged, scan_order=scan_order)
        self.codec = LaneCodec(space)
        # the dense mirror and the scan memo are stamped with the
        # inherited ``generation``.  The mirror's stamp never moves; the
        # memo's is carried forward by an ``insert`` it absorbs
        self._dense_cache: DenseMirror | None = None
        self._dense_generation = -1
        #: packed key -> its hit's ``TssLookupResult`` or ``None`` (a
        #: miss), as the pre-scan — or, for a key it did not cover, a
        #: later probe of the live tables — answered it
        self._memo: dict[int, TssLookupResult | None] | None = None
        self._memo_generation = -1
        #: subtable -> depth for every subtable an absorbed ``insert``
        #: wrote since the pre-scan: what a memo answer must re-probe
        self._memo_written: dict[Subtable, int] = {}
        #: subtable -> depth over the live scan order, built on the
        #: first absorbed insert into a subtable that was already there
        #: (most bursts install nothing, or only new masks)
        self._memo_depths: dict[Subtable, int] | None = None
        #: the generation as of the last answer (``None``: none yet) —
        #: a scalar answer that finds it moved is re-probing behind a
        #: write, not a caller's small burst
        self._answered_generation: int | None = None
        #: the last generation at which :meth:`_ahead` considered
        #: pre-scanning the rest of a burst: once per generation
        self._ahead_generation = -1
        #: why the columnar mirror can never serve this configuration
        #: (staged lookup), or ``None`` when it can
        self._scalar_reason = "staged" if staged else None
        #: lookups answered per path (deterministic: a pure function of
        #: the operation sequence)
        self.path_lookups = dict.fromkeys(VEC_TSS_PATHS, 0)

    # -- the memo absorbs inserts -------------------------------------------

    def insert_at(self, subtable, packed_mask, packed_value, entry):
        """The inherited insert (``insert`` lands here too), which a
        live memo absorbs; with none live it is the inherited insert
        and nothing more.  In either scan order an insert appends a
        subtable at the end, adds an entry to a subtable or replaces
        one — it never moves another subtable's depth, so everything
        the pre-scan proved about the *other* subtables still holds and
        only the written one needs a live probe (:func:`_shallowest`).
        A memo some earlier ``remove`` / ``clear`` / ranked ``resort``
        retired stays retired."""
        if self._memo is None or self._memo_generation != self.generation:
            # nearly every install (all outside a pre-scanned burst):
            # the base method named outright is cheaper than ``super()``
            return TupleSpaceSearch.insert_at(self, subtable, packed_mask,
                                              packed_value, entry)
        known = len(self._subtables)
        subtable = super().insert_at(subtable, packed_mask, packed_value,
                                     entry)
        self._memo_generation = self.generation
        written = self._memo_written
        if subtable not in written:
            if len(self._subtables) > known:
                depth = len(self._subtables)
            else:
                # a subtable created under this memo is in ``written``
                # from its first entry, so one map serves the memo
                if self._memo_depths is None:
                    self._memo_depths = {
                        table: depth for depth, table
                        in enumerate(self.subtables(), start=1)
                    }
                depth = self._memo_depths[subtable]
            written[subtable] = depth
        return subtable

    # -- the dense entry-column mirror --------------------------------------

    def _dense_mirror(self) -> DenseMirror | None:
        """Dense lane-major arrays over the entries in scan order.

        Every entry becomes one column ``c``: ``mask_t[l, c]`` is lane
        ``l`` of its subtable's mask, ``ent_t[l, c]`` lane ``l`` of the
        entry's masked key, ``fent[c]`` the mixed fingerprint of the
        entry's lanes (the scan's comparison target), ``entry_flat[c]``
        the entry object and ``sub_of[c]`` the index of its subtable in
        ``tables``.  A key matches at most one entry per subtable (the
        reference keys its dict by masked value), so the first matching
        column is also the first matching subtable.  ``fold_lanes``
        lists the lanes some mask actually constrains — all-wildcarded
        lanes contribute nothing to any masked key, so the fingerprint
        skips them (the exact per-lane confirmation still checks
        everything) — and ``mults[i]`` the mixing multiplier applied to
        ``fold_lanes[i]``.  ``None`` when entries average more than
        ``DENSE_MAX_ENTRIES`` per subtable.  Cached, refusals included,
        until the generation advances.
        """
        if self._dense_generation == self.generation:
            return self._dense_cache
        self._dense_generation = self.generation
        self._dense_cache = None
        tables = self.subtables()
        counts = [len(table.entries) for table in tables]
        n_cols = sum(counts)
        if n_cols > self.DENSE_MAX_ENTRIES * len(tables):
            return None
        codec = self.codec
        n_lanes = codec.lanes
        # one encode for the entries and one for the masks, whatever the
        # table count; the transposes are copied lane-major so the scan
        # reads each lane of a column block as one contiguous run
        ent_t = np.ascontiguousarray(codec.encode_ints(
            [packed for table in tables for packed in table.entries]
        ).T)
        mask_t = np.ascontiguousarray(np.repeat(
            codec.encode_ints([table.packed_mask for table in tables]),
            counts, axis=0,
        ).T)
        entry_flat = [entry for table in tables
                      for entry in table.entries.values()]
        sub_of = [s for s, count in enumerate(counts) for _ in range(count)]
        fold_lanes = [l for l in range(n_lanes) if mask_t[l].any()] or [0]
        mults = np.array(
            [pow(_FOLD_MULT, i, 1 << 64) for i in range(len(fold_lanes))],
            dtype=np.uint64,
        )
        fent = ent_t[fold_lanes[0]].copy()
        for i, lane in enumerate(fold_lanes[1:], start=1):
            fent ^= ent_t[lane] * mults[i]
        self._dense_cache = DenseMirror(
            tables, mask_t, ent_t, fent, fold_lanes, mults, entry_flat,
            sub_of, n_cols,
        )
        return self._dense_cache

    # -- the pure scan -------------------------------------------------------

    def _dense_scan(self, dense: DenseMirror, uniq_packed: list[int]) -> list:
        """The inherited ``_answers`` — per key the
        :class:`TssLookupResult` of its first match in scan order, or
        ``None`` — for distinct packed keys, resolved against the dense
        mirror.  Pure, so the answers hold for as long as the generation
        does and may be consumed any number of times, in any order."""
        (tables, mask_t, ent_t, fent, fold_lanes, mults, entry_flat, sub_of,
         n_cols) = dense
        n_uniq = len(uniq_packed)
        lanes = self.codec.encode_ints(uniq_packed)  # (n_uniq, L)
        n_lanes = self.codec.lanes
        block = max(self.BLOCK, self.BLOCK * self.BLOCK // max(n_uniq, 1))
        ar = np.arange(n_uniq, dtype=np.intp)
        pending = ar
        found: list = [None] * n_uniq
        fold = np.empty((n_uniq, block), dtype=np.uint64)
        buf = np.empty((n_uniq, block), dtype=np.uint64)
        eqb = np.empty((n_uniq, block), dtype=bool)
        for start in range(0, n_cols, block):
            if pending.size == 0:
                break
            width = min(block, n_cols - start)
            stop = start + width
            sub = lanes[pending]  # (P, L)
            n_pending = pending.size
            x = fold[:n_pending, :width]
            b = buf[:n_pending, :width]
            eq = eqb[:n_pending, :width]
            # fingerprint of the masked key per (key, column): lanes
            # are AND-ed with the column's mask, mixed and XOR-combined
            lane0 = fold_lanes[0]
            np.bitwise_and(sub[:, lane0, None], mask_t[lane0, None,
                                                       start:stop], out=x)
            for i, lane in enumerate(fold_lanes[1:], start=1):
                np.bitwise_and(sub[:, lane, None],
                               mask_t[lane, None, start:stop], out=b)
                b *= mults[i]
                np.bitwise_xor(x, b, out=x)
            np.equal(x, fent[None, start:stop], out=eq)
            # claim each key's first fingerprint match in this block,
            # confirm it exactly; no-claim rows have argmax 0 and fail
            # the eq gather, staying pending for the next block
            cols = np.argmax(eq, axis=1)
            claimed = np.nonzero(eq[ar[:n_pending], cols])[0]
            matched = np.zeros(n_pending, dtype=bool)
            if claimed.size:
                at = cols[claimed] + start
                ok = (sub[claimed, 0] & mask_t[0, at]) == ent_t[0, at]
                for lane in range(1, n_lanes):
                    ok &= (
                        sub[claimed, lane] & mask_t[lane, at]
                    ) == ent_t[lane, at]
                good = claimed[ok]
                if good.size:
                    matched[good] = True
                    for u, c in zip(pending[good].tolist(),
                                    (cols[good] + start).tolist()):
                        s = sub_of[c]
                        found[u] = TssLookupResult(entry_flat[c], s + 1,
                                                   s + 1, tables[s])
                bad = claimed[~ok]
                if bad.size:
                    # fingerprint collision at the claimed column (it
                    # may shadow a real later match): resolve those few
                    # keys exactly with reference dict probes over this
                    # block's subtables.  A match found in a subtable
                    # straddling the block edge is still this key's
                    # first match — earlier blocks proved everything
                    # before `start` missed (fingerprints never miss a
                    # real match), and any entry of a matching subtable
                    # yields the same (entry, depth)
                    for row in bad.tolist():
                        u = int(pending[row])
                        hit = _first_match(uniq_packed[u], tables,
                                           sub_of[start], sub_of[stop - 1] + 1)
                        if hit is not None:
                            found[u] = hit
                            matched[row] = True
                pending = pending[~matched]
        return found

    # -- the scan memo -------------------------------------------------------

    def prescan_pays(self, n_keys: int) -> bool:
        """Whether pre-scanning ``n_keys`` keys can beat answering them
        one by one: the columnar path must be able to serve this
        tuple space at all, and the (key, column) work must outweigh
        the scan's fixed overhead.  Callers pass an upper bound first to
        skip building the key list outright on a near-empty tuple space."""
        if self._scalar_reason is not None:
            return False
        dense = self._dense_mirror()
        return (dense is not None
                and n_keys * dense.n_cols >= self.PRESCAN_MIN_WORK)

    def prescan(self, packed_keys: list[int]) -> None:
        """Answer ``packed_keys`` (distinct packed ints) up front and
        remember the answers: until something other than an ``insert``
        writes the tuple space, these keys' answers are taken from the
        memo — same results, credits and counters — instead of
        re-scanned.  The memo before it is
        kept whole while it is still exact (the same generation, no
        insert absorbed since) and under ``MEMO_MAX_KEYS``, so only the
        keys new to the generation are scanned — column-wise when that
        pays, else by the pure scalar probe — and a burst with none
        scans nothing.  The new memo holds every key the generation has
        answered, these among them; one that carries nothing over and
        whose scan would not pay is not built."""
        memo = self._memo
        if (memo is None or self._memo_generation != self.generation
                or self._memo_written or len(memo) >= self.MEMO_MAX_KEYS):
            memo, fresh = {}, packed_keys
        else:
            fresh = [packed for packed in packed_keys if packed not in memo]
            if not fresh:
                return  # every key carried: the memo stays as it is
        if self.prescan_pays(len(fresh)):
            found = self._dense_scan(self._dense_mirror(), fresh)
        elif memo:
            tables = self.subtables()
            found = [_first_match(packed, tables, 0, len(tables))
                     for packed in fresh]
        else:
            self._memo = None
            return
        memo.update(zip(fresh, found))
        self._memo = memo
        self._memo_generation = self.generation
        self._memo_written = {}
        self._memo_depths = None

    # -- where a burst's answers come from -----------------------------------

    def _answers(self, keys: Sequence[FlowKey], positions: Iterable[int],
                 probes: list[int] | None = None,
                 ) -> Iterator[TssLookupResult | None]:
        """The inherited pure answers, taken from the scan memo while one
        is live: the pre-scan's answer brought up to date with the
        inserts absorbed since (:func:`_shallowest`), or — for a key the
        pre-scan did not cover — a live probe (:func:`_first_match`)
        that joins the memo.  With no live memo they are the inherited
        scalar probes, until the tuple space has held still across two
        answers — the second behind a burst's own installs is the first
        that can tell a stable table from one still being written: the
        rest of the burst is then pre-scanned (:meth:`_ahead`) and the
        memo answers from there.  ``path_lookups`` counts which path
        answered each key."""
        paths = self.path_lookups
        generation = self.generation
        memo = self._memo
        if memo is not None and self._memo_generation != generation:
            memo = self._memo = None  # retired: not only inserts since
        answered = self._answered_generation
        self._answered_generation = generation
        positions = iter(positions)
        if memo is None:
            moved = answered is not None and answered != generation
            for i in positions:
                if not moved and (memo := self._ahead(keys, i)) is not None:
                    positions = chain((i,), positions)
                    break
                # the first answer behind a write no live memo absorbed
                # is a re-probe; the rest are a small burst's
                paths[self._scalar_reason
                      or ("memo_invalidated" if moved else "small_burst")] += 1
                moved = False
                yield next(super()._answers(keys, (i,), probes))
            else:
                return
        written = self._memo_written
        for packed in map(_PACKED, map(keys.__getitem__, positions)):
            hit = memo.get(packed, _UNSEEN)
            if hit is _UNSEEN:
                # the live order, not the mirror's: an absorbed insert
                # has retired the mirror, and this must not rebuild it
                # per key
                tables = self.subtables()
                hit = memo[packed] = _first_match(packed, tables, 0,
                                                  len(tables))
                paths["small_burst"] += 1
            else:
                if written:
                    hit = _shallowest(packed, hit, written)
                paths["memo"] += 1
            yield hit

    def _stretch(self, keys: Sequence[FlowKey], start: int,
                 probes: list[int] | None = None,
                 ) -> list[TssLookupResult | None]:
        """The inherited stretch; from an exact memo (the live
        generation, no insert absorbed) its leading hits are drawn in
        one pass at C speed — ``takewhile`` over ``memo.get`` stops at
        the first key whose answer is a miss or that the memo does not
        hold — and only that key is answered by :meth:`_answers`."""
        memo = self._memo
        if (memo is None or self._memo_generation != self.generation
                or self._memo_written):
            return super()._stretch(keys, start, probes)
        self._answered_generation = self.generation
        stretch: list[TssLookupResult | None] = []
        i, n = start, len(keys)
        while i < n:
            hits = [*takewhile(bool, map(memo.get, map(
                _PACKED, map(keys.__getitem__, range(i, n)))))]
            self.path_lookups["memo"] += len(hits)
            stretch += hits
            i += len(hits)
            if i == n:
                break
            hit = next(self._answers(keys, (i,), probes))
            stretch.append(hit)
            i += 1
            if hit is None:
                break
        return stretch

    def _ahead(self, keys: Sequence[FlowKey], start: int
               ) -> dict[int, TssLookupResult | None] | None:
        """Pre-scan ``keys[start:]`` — the rest of a burst met with no
        live memo on a table that has held still — once per generation
        (:meth:`prescan_burst`); the memo this leaves, if any.  A rest
        too small to pre-scan does not spend the generation's turn: a
        direct caller's one-key ``lookup`` must not leave its next large
        burst to the scalar probe."""
        if (self._ahead_generation != self.generation
                and len(keys) - start >= self.VEC_MIN_BATCH):
            self._ahead_generation = self.generation
            self.prescan_burst(keys, start)
        return self._memo

    def prescan_burst(self, keys: Sequence[FlowKey], start: int,
                      counts: Counter | None = None) -> None:
        """Answer the distinct keys of ``keys[start:]`` — the rest of a
        burst, from its first question to the tuple space on — once,
        up front: a bursty feed asks the tuple space for one or two keys
        between EMC hits, and each then takes its answer from the memo
        instead of paying a scalar scan of every subtable.  Every key
        of the rest is covered, so a resident the EMC evicts mid-burst
        is answered from the memo too; a key any earlier burst's memo
        answered at an unchanged generation is carried over, not
        scanned again (the memo is bounded by ``MEMO_MAX_KEYS`` plus
        one burst).  A rest too small for the columnar scan — an empty
        keep-alive included — scans nothing: it keeps a memo that is
        still exact (the same generation, no insert absorbed), whose
        misses its live probes join, and drops any other.  The switch's
        walk calls it at a burst's first EMC miss (with no EMC, at the
        burst's head, with the ``counts`` :meth:`count_burst` made —
        their keys are the distinct keys, so the burst is walked once),
        :meth:`_ahead` on the rest of a burst.  Pure: nothing the
        reference observes is touched."""
        rest = len(keys) - start
        if rest < self.VEC_MIN_BATCH or not self.prescan_pays(rest):
            if self._memo_written:
                self._memo = None
            return
        self.prescan(list(dict.fromkeys([key.packed for key in keys[start:]])
                          if counts is None else counts))

    def count_burst(self, keys: Sequence[FlowKey]) -> Counter | None:
        """Count a burst no EMC serves — its packed keys, in one pass —
        when it is longer than twice the memo carried into it: then it
        repeats its keys, or follows a write that left the memo small,
        and each distinct key can take its answer once (:meth:`_tally`).
        A shorter burst — the serve feed's, behind a memo of thousands
        of keys — is walked key by key with nothing counted; so is a
        staged one (no memo serves it)."""
        memo = self._memo
        if (self._scalar_reason is not None
                or len(keys) <= 2 * (len(memo) if memo is not None else 0)):
            return None
        return Counter([key.packed for key in keys])

    def _tally(self, counts: Counter
               ) -> list[tuple[TssLookupResult, int]] | None:
        """A counted burst answered from an exact memo (the live
        generation, no insert absorbed): each distinct key's remembered
        hit, with its count, and ``memo`` gains one per lookup — what
        :meth:`_stretch` would draw key by key.  ``None``, touching
        nothing, when the memo is not exact or any key is a remembered
        miss or unseen: the walk then answers key by key."""
        memo = self._memo
        if (memo is None or self._memo_generation != self.generation
                or self._memo_written):
            return None
        answers = [*map(memo.get, counts)]
        if not all(answers):
            return None
        self._answered_generation = self.generation
        self.path_lookups["memo"] += counts.total()
        return [*zip(answers, counts.values())]


class VecSwitch(OvsSwitch):
    """An :class:`OvsSwitch` running the columnar vectorized fast path.

    The pipeline, its state, statistics, RNG draws and slow path are
    the reference implementation's own — every step of it, the EMC's
    hits included, is the inherited walk
    (:meth:`~repro.ovs.switch.OvsSwitch._resolve`); the subclass only
    swaps the megaflow TSS (empty, at construction) for a
    :class:`VecTupleSpaceSearch`, so the rest of a burst from its first
    EMC miss is pre-scanned (:meth:`~VecTupleSpaceSearch.prescan_burst`)
    and every key the walk asks the tuple space is answered from the
    scan memo where one is live.  What the memo keeps or drops is the
    tuple space's to decide.
    """

    def __init__(self, space: FieldSpace = OVS_FIELDS, **kwargs) -> None:
        super().__init__(space=space, **kwargs)
        # swap the (still empty) TSS for the columnar subclass with the
        # same configuration; MegaflowCache reaches it via .tss, so the
        # slow path and revalidator see the swap transparently
        tss = self.megaflow.tss
        self.megaflow.tss = VecTupleSpaceSearch(
            space, staged=tss.staged, scan_order=tss.scan_order,
        )

    #: the inherited method, named on this class for the benchmark's
    #: tracer, which wraps ``vars(owner)["process_batch"]``
    process_batch = OvsSwitch.process_batch

    @property
    def vec_tss_paths(self) -> dict[str, int]:
        """TSS lookups by the path that answered them (the keys of
        :data:`~repro.vec.VEC_TSS_PATHS`) — the datapath-surface view
        the ``repro.obs`` encoder publishes as ``vec.tss.*``."""
        return dict(self.megaflow.tss.path_lookups)

    def __repr__(self) -> str:
        return (
            f"VecSwitch({self.name}: {len(self.table)} rules, "
            f"{self.mask_count} masks, {self.megaflow_count} megaflows, "
            f"{self.megaflow.tss.codec.lanes} lanes)"
        )
