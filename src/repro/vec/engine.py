"""The vectorized datapath engine the ``ovs`` backend runs on NumPy.

The burst pipeline — cap, scan, consume; serve the EMC's hits, gather
the misses into runs, drain the runs — is the reference classes' own
(:mod:`repro.ovs.tss`, :mod:`repro.ovs.switch`).  This module changes
only *where the answers come from*, and every piece of it is pure:
nothing here writes a counter the reference observes — the hit answers
it builds are the immutable results the inherited ``_consume`` passes
through — which is what keeps the engine byte-for-byte identical to
the scalar :class:`~repro.ovs.switch.OvsSwitch`.

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
  inherited ``_scan`` returns, for :meth:`~repro.ovs.tss.
  TupleSpaceSearch._consume` to apply.

* **Burst memo** (:meth:`VecTupleSpaceSearch.prescan`) — because the
  scan is pure its answers can be kept: a burst's EMC-miss candidates
  are scanned once, up front, and the run drain's chunks (one or two
  keys each on a bursty feed) consume from the memo instead of each
  paying a scalar scan of every subtable.  The memo survives the
  burst's own upcalls: an ``insert`` never moves another subtable in
  the scan order, so it is *absorbed* — the subtable it wrote is
  recorded with its depth, and a memo answer is the shallowest of the
  pre-scan's and a live probe of the recorded subtables at or above it
  (at, not only above: an entry replaced under the pre-scan's own hit
  must come back as the live object).  ``remove`` / ``clear`` / ranked
  ``resort`` can move or delete what the pre-scan proved, so they
  retire the memo; the mirror is retired by every write.  Both are
  stamped with the tuple space's ``generation``, so a stale answer can
  never be consumed.

Staged lookup (which the dense mirror cannot serve), chunks too small
to amortise the NumPy overhead and tuple spaces holding many entries
per subtable take the inherited scalar scan — same results either way
— and ``path_lookups`` counts which path answered every lookup.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from repro.flow.fields import OVS_FIELDS, FieldSpace
from repro.flow.key import FlowKey
from repro.ovs.switch import BatchResult, OvsSwitch
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

    #: below this many keys the scalar scan wins on constant factors
    #: (also keeps ranked resort-capped stubs off the dense path);
    #: results are identical either way
    VEC_MIN_BATCH = 16
    #: average entries per subtable above which the dense mirror is not
    #: built (the burst falls back to the scalar scan).  The attack
    #: regime this engine accelerates is the opposite corner: thousands
    #: of subtables with a handful of megaflows each
    DENSE_MAX_ENTRIES = 4
    #: entry columns scanned per block — small enough that every
    #: per-lane pass stays on a cache-friendly contiguous buffer
    BLOCK = 96
    #: (key, column) pairs below which a burst pre-scan is not run.  A
    #: scan costs ~20 µs of fixed NumPy call overhead per column block,
    #: a scalar probe ~0.07 µs per (key, subtable): measured break-even
    #: sits at 300-700 pairs whatever the mix of keys and columns, and
    #: the margin covers the candidate selection in front of the scan
    PRESCAN_MIN_WORK = 1024

    def __init__(
        self,
        space: FieldSpace,
        staged: bool = False,
        scan_order: str = "insertion",
        resort_interval: int = 0,
    ) -> None:
        super().__init__(
            space,
            staged=staged,
            scan_order=scan_order,
            resort_interval=resort_interval,
        )
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
        #: the generation as of the last ``lookup_batch`` (``None``:
        #: none yet) — a small chunk that finds it moved is re-probing
        #: behind a write, not a caller's small burst
        self._answered_generation: int | None = None
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
        """The inherited ``_scan``'s answers — per key the
        :class:`TssLookupResult` of its first match in scan order, or
        ``None`` — for distinct packed keys, resolved against the dense
        mirror.  Pure, so the answers hold for as long as the generation
        does and may be consumed any number of times, in any order."""
        (tables, mask_t, ent_t, fent, fold_lanes, mults, entry_flat, sub_of,
         n_cols) = dense
        n_uniq = len(uniq_packed)
        lanes = self.codec.encode_ints(uniq_packed)  # (n_uniq, L)
        n_lanes = self.codec.lanes
        block = self.BLOCK
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

    # -- the per-burst memo --------------------------------------------------

    def prescan_pays(self, n_keys: int) -> bool:
        """Whether pre-scanning ``n_keys`` keys can beat answering them
        chunk by chunk: the columnar path must be able to serve this
        tuple space at all, and the (key, column) work must outweigh
        the scan's fixed overhead.  Callers pass an upper bound first to
        skip candidate selection outright on a near-empty tuple space."""
        if self._scalar_reason is not None:
            return False
        dense = self._dense_mirror()
        return (dense is not None
                and n_keys * dense.n_cols >= self.PRESCAN_MIN_WORK)

    def prescan(self, packed_keys: list[int]) -> None:
        """Scan ``packed_keys`` (distinct packed ints) once and remember
        the answers: until something other than an ``insert`` writes the
        tuple space, :meth:`lookup_batch` chunks made only of these keys
        are consumed from the memo — same results, credits and counters
        — instead of re-scanned."""
        self._memo = None
        if not self.prescan_pays(len(packed_keys)):
            return
        found = self._dense_scan(self._dense_mirror(), packed_keys)
        self._memo = dict(zip(packed_keys, found))
        self._memo_generation = self.generation
        self._memo_written = {}
        self._memo_depths = None

    def drop_memo(self) -> None:
        """Forget the pre-scan (the burst it served is over)."""
        self._memo = None

    # -- where a burst's answers come from -----------------------------------

    def _lookup_memoised(self, memo: dict, keys: Sequence[FlowKey],
                         n_tables: int) -> list[TssLookupResult]:
        """Consume ``keys`` from a live memo, each answer brought up to
        date with the inserts absorbed since.  A key the pre-scan did
        not cover (an EMC resident evicted mid-burst) is answered by
        scalar probes of the live tables — the small-burst path, minus
        the chunk's covered keys — and joins the memo."""
        probed = 0
        written = self._memo_written
        try:
            answers = [memo[key.packed] for key in keys]
        except KeyError:
            # the live order, not the mirror's: an absorbed insert has
            # retired the mirror, and this must not rebuild it per key
            tables = self.subtables()
            answers = []
            for key in keys:
                packed = key.packed
                if packed in memo:
                    hit = _shallowest(packed, memo[packed], written)
                else:
                    hit = memo[packed] = _first_match(
                        packed, tables, 0, n_tables
                    )
                    probed += 1
                answers.append(hit)
                if hit is None:
                    break  # the prefix ends here: probe no further
        else:
            if written:
                answers = [_shallowest(key.packed, hit, written)
                           for key, hit in zip(keys, answers)]
        results = self._consume(answers, n_tables)
        self.path_lookups["small_burst"] += probed
        self.path_lookups["memo"] += len(results) - probed
        return results

    def lookup_batch(self, keys: Sequence[FlowKey]) -> list[TssLookupResult]:
        """The inherited burst lookup with the answers taken from the
        burst memo when one is live, else — for a chunk large enough to
        amortise the NumPy overhead — resolved column-major in
        fingerprint blocks; everything else is the inherited scalar
        scan.  ``path_lookups`` counts which it was."""
        if self._scalar_reason is not None:
            results = super().lookup_batch(keys)
            self.path_lookups[self._scalar_reason] += len(results)
            return results
        keys = self._capped(keys)
        n_tables = len(self._subtables)
        generation = self.generation
        answered = self._answered_generation
        self._answered_generation = generation
        memo = self._memo
        if memo is not None:
            if self._memo_generation == generation:
                return self._lookup_memoised(memo, keys, n_tables)
            self._memo = None  # retired: not only inserts since
        if not n_tables or len(keys) < self.VEC_MIN_BATCH:
            # too small to amortise the NumPy overhead: a caller's small
            # run, or the run drain re-probing key by key behind a write
            # no live memo absorbed (a removal or re-sort retired it, or
            # no pre-scan paid for this tuple space in the first place)
            moved = answered is not None and answered != generation
            path = "memo_invalidated" if moved else "small_burst"
            answers = self._scan(keys)
        elif (dense := self._dense_mirror()) is None:
            path = "sparse_mirror"
            answers = self._scan(keys)
        else:
            # burst dedup: the scan is pure, so identical keys in one
            # burst — elephant flows, benign victim traffic — are
            # scanned once and their answer replicated (the covert
            # stream is all-distinct by construction and pays in full)
            path = "scan"
            uniq: dict[int, int] = {}
            rep = [uniq.setdefault(key.packed, len(uniq)) for key in keys]
            found = self._dense_scan(dense, list(uniq))
            answers = map(found.__getitem__, rep)
        results = self._consume(answers, n_tables)
        self.path_lookups[path] += len(results)
        return results


class VecSwitch(OvsSwitch):
    """An :class:`OvsSwitch` running the columnar vectorized fast path.

    The pipeline, its state, statistics, RNG draws and slow path are
    the reference implementation's own; the subclass only feeds it:

    * the megaflow TSS is swapped (empty, at construction) for a
      :class:`VecTupleSpaceSearch`, so every chunk the inherited run
      drain looks up is answered column-wise or from the burst memo;
    * the burst's EMC-miss candidates are scanned against the tuple
      space once, up front (:meth:`_prescan`), before the inherited
      :meth:`~repro.ovs.switch.OvsSwitch._resolve` drains them.
    """

    def __init__(self, space: FieldSpace = OVS_FIELDS, **kwargs) -> None:
        super().__init__(space=space, **kwargs)
        # swap the (still empty) TSS for the columnar subclass with the
        # same configuration; MegaflowCache reaches it via .tss, so the
        # slow path and revalidator see the swap transparently
        tss = self.megaflow.tss
        self.megaflow.tss = VecTupleSpaceSearch(
            space,
            staged=tss.staged,
            scan_order=tss.scan_order,
            resort_interval=tss.resort_interval,
        )

    # -- the vectorized batch pipeline --------------------------------------

    def process_batch(self, keys: Sequence[FlowKey] | Iterable[FlowKey],
                      now: float | None = None,
                      materialize: bool = True) -> BatchResult:
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        now = self._advance(now)
        self.revalidator.maybe_sweep(now)
        batch = BatchResult()
        if self.microflow.occupancy:
            # the cache serves the burst's hit prefix itself; only what
            # follows the first non-hit is pre-scanned
            served = self._serve_emc_hits(keys, 0, now, batch, materialize)
            if served == len(keys):
                return batch
            if served:
                keys = keys[served:]
        self._prescan(keys)
        try:
            self._resolve(keys, batch, now, materialize)
        finally:
            # the memo answers for this burst's keys against this
            # burst's tuple space; it must not outlive the call
            self.megaflow.tss.drop_memo()
        return batch

    def _prescan(self, keys: Sequence[FlowKey]) -> None:
        """Scan the burst's EMC-miss candidates against the tuple space
        once, before the per-key loop: a bursty feed splits into runs of
        one or two keys (an ON train's second packet is a within-run
        duplicate), and each run's ``lookup_batch`` chunk then consumes
        its answers from the memo instead of paying a scalar scan of
        every subtable.  Candidates are the distinct keys the EMC holds
        no slot for as the burst opens; a resident evicted mid-burst
        simply misses the memo and takes the chunk's own scan.  A burst
        too small for the columnar scan is not pre-scanned either: its
        chunks are answered by scalar scans, which it would only add a
        mirror rebuild to.  Pure: nothing the reference observes is
        touched."""
        tss = self.megaflow.tss
        if len(keys) < tss.VEC_MIN_BATCH or not tss.prescan_pays(len(keys)):
            return
        distinct = {key.packed: key for key in keys}
        if self.microflow.occupancy:
            contains = self.microflow.contains
            tss.prescan([packed for packed, key in distinct.items()
                         if not contains(key)])
        else:  # no slot to screen against (an empty cache)
            tss.prescan(list(distinct))

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
