"""The retired paths, one each: the spec every fast path that replaced
one is held to.

Each is the code as it stood before its fast path retired it,
transcribed with public calls where it reached into internals.  None of
them is fast, and none is used outside the tests: the differential
machine swaps each into its *reference* datapath (a function for a
method or for the module global the slow path calls, a class for the
tuple space every reference shard scans and for its exact-match cache)
and requires the datapath under test to leave the same state.

Each docstring's ``Retired by`` line names the change that retired the
path by the code that replaced it; ``tests/test_testing_package.py``
checks that the named code exists.
"""

from __future__ import annotations

from repro.flow.fields import FieldSpace
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.flow.table import FlowTable
from repro.ovs.megaflow import MegaflowCache, MegaflowEntry
from repro.ovs.microflow import MicroflowCache, _Slot
from repro.ovs.switch import LookupPath, PacketResult
from repro.ovs.tss import Subtable, TssLookupResult, TupleSpaceSearch
from repro.ovs.wildcarding import WildcardingResult, prefix_cover_len
from repro.util.bits import first_diff_bit, mask_of_prefix

__all__ = [
    "SetScanMicroflowCache",
    "TupleKeyedSearch",
    "classify_per_rule",
    "expire_idle_full_pass",
    "resolve_per_key",
    "send_covert_per_packet",
]


class _TupleKeyedSubtable(Subtable):
    """A subtable keyed on the tuple of masked field values.  Its staged
    probe derives each stage's partial tuples from the entries it holds
    at the time of the probe, so it keeps no stage index to go stale."""

    __slots__ = ("field_masks", "_stage_fields")

    def __init__(self, packed_mask: int, created_seq: int, space: FieldSpace,
                 stage_plan: tuple[int, ...] | None = None) -> None:
        super().__init__(packed_mask, created_seq, space)
        self.field_masks = space.unpack(packed_mask)
        #: per stage, the positions of its fields
        self._stage_fields = [
            tuple(i for i, mask in enumerate(space.unpack(fields)) if mask)
            for fields in stage_plan or ()
        ]

    def mask_key(self, values: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(v & m for v, m in zip(values, self.field_masks))

    def get(self, packed: int) -> object | None:
        return self.entries.get(self._space.unpack(packed))

    def items(self) -> list[tuple[int, object]]:
        pack = self._space.pack
        return [(pack(values), entry) for values, entry in self.entries.items()]

    def insert(self, packed: int, entry: object) -> bool:
        values = self._space.unpack(packed)
        new = values not in self.entries
        self.entries[values] = entry
        return new

    def remove(self, packed: int) -> None:
        del self.entries[self._space.unpack(packed)]

    def lookup_staged(self, masked: tuple[int, ...]) -> tuple[object | None, int]:
        probes = 0
        for fields in self._stage_fields:
            probes += 1
            partial = tuple(masked[i] for i in fields)
            if all(tuple(values[i] for i in fields) != partial
                   for values in self.entries):
                return None, probes
        return self.entries.get(masked), probes


class TupleKeyedSearch(TupleSpaceSearch):
    """The tuple space keyed on per-field tuples: every subtable masks a
    key field by field and probes a dict keyed on the masked tuple, and
    a staged probe compares tuples of one stage's fields.  Entries come
    and go by their packed form, as on the fast path, and are unpacked
    to their tuples here.  Its :meth:`lookup` is the per-key scan, with
    its own per-key credit and accounting (:meth:`_account`), that every
    burst lookup is held to.

    Retired by: ``repro.ovs.tss.Subtable`` — one dict per mask keyed on
    ``packed & packed_mask``, stage indexes on ``packed & stage mask``.
    """

    def _create_subtable(self, packed_mask: int) -> Subtable:
        subtable = _TupleKeyedSubtable(packed_mask, self._next_seq,
                                       self.space, self._stage_plan)
        self._next_seq += 1
        self._subtables[packed_mask] = subtable
        if self.scan_order == "ranked":
            self._scan_list.append(subtable)
        return subtable

    def lookup(self, key: FlowKey) -> TssLookupResult:
        probes: list[int] = []
        result = next(self._answers((key,), (0,), probes))
        if result is None:
            result = TssLookupResult(None, len(self.subtables()), probes[0])
        else:
            result.subtable.credit_hit()
        self._account(result.tuples_scanned, result.hash_probes)
        return result

    def _answers(self, keys, positions, probes=None):
        """Per position, the first subtable holding ``keys[position]``'s
        masked tuple — staged, the first whose stages all hold its
        partial tuples — with no credit: :meth:`lookup`'s scan, and a
        walk's answers when this tuple space serves a switch.  Each
        key's probes, summed over the subtables it visited, are
        appended to ``probes``."""
        tables = self.subtables()
        for i in positions:
            key = keys[i]
            hit = None
            used = 0
            for depth, subtable in enumerate(tables, start=1):
                masked = subtable.mask_key(key.values)
                if self.staged:
                    entry, stage_probes = subtable.lookup_staged(masked)
                else:
                    entry, stage_probes = subtable.entries.get(masked), 1
                used += stage_probes
                if entry is not None:
                    hit = TssLookupResult(entry, depth, used, subtable)
                    break
            if probes is not None:
                probes.append(used)
            yield hit

    def lookup_batch(self, keys, now=None) -> list[TssLookupResult]:
        """The burst as a sequential caller makes it: key by key through
        :meth:`lookup`, up to the first miss; with ``now`` (the megaflow
        cache's lookup) each lookup lowers the idle floor and each hit
        touches its entry (``MegaflowEntry.touch``).

        Retired by: ``repro.ovs.tss.TupleSpaceSearch._credit`` — a
        burst's lookups answered by the pure ``_answers`` and credited
        in one summed step per stretch, per distinct answer.
        """
        results = []
        for key in keys:
            result = self.lookup(key)
            results.append(result)
            if now is not None:
                self.idle_floor = min(self.idle_floor, now)
                if result.hit:
                    result.entry.touch(now)
            if not result.hit:
                break
        return results

    def _account(self, tuples_scanned: int, hash_probes: int) -> None:
        self.total_lookups += 1
        self.total_tuples_scanned += tuples_scanned
        self.total_hash_probes += hash_probes


class SetScanMicroflowCache(MicroflowCache):
    """The exact-match cache probed by scanning the key's set: ``lookup``
    and ``insert`` compare the key (``FlowKey.__eq__``) with every slot
    of ``_sets[hash(key) % n_sets]`` and never read the packed-int
    index, and the occupancy is the count of stored slots.  The
    inherited ``invalidate_dead`` and ``flush`` prune and clear
    ``_sets``; the index they keep in step stays empty.

    Retired by: ``repro.ovs.microflow.MicroflowCache.lookup`` — every
    probe finds its slot in one dict on the key's packed int, and the
    set index is computed only where a slot is added or purged.
    """

    def lookup(self, key: FlowKey, now: float = 0.0) -> MegaflowEntry | None:
        self.lookups += 1
        bucket = self._sets[self._set_index(key)]
        for i, slot in enumerate(bucket):
            if slot.key == key:
                if not slot.entry.alive:
                    del bucket[i]
                    self.stale_hits += 1
                    return None
                slot.last_used = now
                self.hits += 1
                return slot.entry
        return None

    def insert(self, key: FlowKey, entry: MegaflowEntry,
               now: float = 0.0) -> bool:
        if self.insertion_prob < 1.0:
            if (self.insertion_prob <= 0.0
                    or self.rng.random() >= self.insertion_prob):
                return False
        bucket = self._sets[self._set_index(key)]
        for slot in bucket:
            if slot.key == key:
                slot.entry = entry
                slot.last_used = now
                return True
        if len(bucket) >= self.ways:
            victim = min(range(len(bucket)),
                         key=lambda i: bucket[i].last_used)
            del bucket[victim]
            self.evictions += 1
        bucket.append(_Slot(key, entry, now))
        self.insertions += 1
        return True

    @property
    def occupancy(self) -> int:
        return sum(map(len, self._sets))


def classify_per_rule(table: FlowTable, key: FlowKey) -> WildcardingResult:
    """``classify_with_wildcards`` as a per-rule loop: every examined
    rule re-derives its constrained fields, prefix cover and first
    differing bit on every call, and the megaflow is built by
    :meth:`FlowMatch.from_tuples` with no packed hint (it packs on
    demand).

    Retired by: ``repro.ovs.wildcarding.compile_rule_plan`` — the slow
    path walks a packed rule plan compiled once per
    ``FlowTable.version``, one AND/XOR per rule on the packed key, and
    its megaflow is born as its packed pair (``FlowMatch.from_packed``).
    """
    space = table.space
    prefix_lens = [0] * len(space)
    winner = None
    examined = 0
    for rule in table:
        examined += 1
        if _examine_rule(rule, key, prefix_lens, space):
            winner = rule
            break
    masks = tuple(
        mask_of_prefix(prefix_lens[i], spec.width)
        for i, spec in enumerate(space.specs)
    )
    return WildcardingResult(
        rule=winner,
        megaflow=FlowMatch.from_tuples(space, key.values, masks),
        rules_examined=examined,
    )


def _examine_rule(rule: FlowRule, key: FlowKey, prefix_lens: list[int],
                  space) -> bool:
    """Check one rule field by field, widening ``prefix_lens`` with what
    the check examined; ``True`` when the key matches the rule."""
    for index, spec in enumerate(space.specs):
        mask = rule.match.masks[index]
        if mask == 0:
            continue
        value = rule.match.values[index]
        key_value = key.values[index]
        if key_value & mask == value:
            needed = (spec.width if spec.always_exact
                      else prefix_cover_len(mask, spec.width))
            if needed > prefix_lens[index]:
                prefix_lens[index] = needed
        else:
            diff = first_diff_bit(key_value & mask, value, spec.width)
            needed = spec.width if spec.always_exact else diff + 1
            if needed > prefix_lens[index]:
                prefix_lens[index] = needed
            return False
    return True


def resolve_per_key(switch, keys, batch, now: float,
                    materialize: bool) -> None:
    """``OvsSwitch._resolve`` one key at a time: per key one
    ``MicroflowCache.lookup``; a hit touches its entry and is tallied,
    and a miss takes one ``MegaflowCache.lookup`` — a one-key burst,
    its entry touched — then, on a hit, the EMC insert offered whether
    or not the EMC can store, the megaflow-hit tally and the result; on
    a miss, the upcall.  ``switch`` is the
    :class:`~repro.ovs.switch.OvsSwitch` whose burst it walks,
    ``batch`` the burst's :class:`~repro.ovs.switch.BatchResult` it
    counts into.

    Retired by: ``repro.ovs.switch.OvsSwitch._resolve`` — one walk in
    key order: the EMC's hit runs served in one pass and certain misses
    never probed, each miss answered by the tuple space's pure
    ``_answers``, the megaflow hits between two upcalls credited in one
    summed step, and no ``MicroflowCache.insert`` call when the EMC
    cannot store.
    """
    for key in keys:
        entry = switch.microflow.lookup(key, now)
        if entry is not None:
            entry.touch(now)
            batch.tally(LookupPath.MICROFLOW, entry.action.is_forwarding())
            if materialize:
                batch.results.append(PacketResult(
                    entry.action, LookupPath.MICROFLOW, 0, 0, entry))
            continue
        result = switch.megaflow.lookup(key, now)
        entry = result.entry
        if entry is None:
            switch._finish_upcall(key, result, now, batch, materialize)
            continue
        switch.microflow.insert(key, entry, now)
        batch.tally(LookupPath.MEGAFLOW, entry.action.is_forwarding(),
                    result.tuples_scanned, result.hash_probes)
        if materialize:
            batch.results.append(PacketResult(
                entry.action, LookupPath.MEGAFLOW, result.tuples_scanned,
                result.hash_probes, entry,
            ))


def expire_idle_full_pass(cache: MegaflowCache, now: float) -> int:
    """:meth:`MegaflowCache.expire_idle` as a pass over every live entry,
    every time: evict the entries idle longer than the timeout and count
    them.

    Retired by: ``repro.ovs.megaflow.MegaflowCache.expire_idle``'s idle
    floor — a lower bound on the oldest live ``last_used`` lets a sweep
    that no entry can be due in return at once.
    """
    idle = [entry for entry in cache.entries()
            if now - entry.last_used > cache.idle_timeout]
    for entry in idle:
        cache.remove_entry(entry)
    cache.expired_total += len(idle)
    return len(idle)


def send_covert_per_packet(sim, t0: float, t1: float) -> tuple[int, list[float]]:
    """``DataplaneSimulator._send_covert``'s model replay one packet at a
    time: per covert packet one ledger ``get`` by ``(shard, FlowKey)``,
    one ``refresh`` or ``handle_miss``, one float add and one bucket
    charge, in packet order.  ``sim`` is a
    :class:`~repro.perf.simulator.DataplaneSimulator` replaying into a
    datapath with flow caches.

    Retired by: ``repro.ovs.megaflow.refresh_run`` — the tick is served
    in runs of live ledger slots, each charged per shard by
    ``repro.util.floatsum.add_repeated``.
    """
    shards = sim._shards
    cycles_by_shard = [0.0] * len(shards)
    if sim.attacker is None or not sim.covert_keys or not sim.covert_gate:
        return 0, cycles_by_shard
    due = sim.attacker.packets_due(t0, t1)
    if due <= 0:
        return 0, cycles_by_shard
    keys = sim.covert_keys
    mid = t0 + (t1 - t0) / 2
    cost_model = sim.cost_model
    ranked = sim.switch.scan_order == "ranked"
    ranked_hit_costs = [
        cost_model.megaflow_hit_cost(view.expected_scan_depth(), view.staged)
        for view in shards
    ] if ranked else []
    reta_dp = sim._reta_dp
    multi = reta_dp is not None and len(shards) > 1
    charge_buckets = multi and reta_dp.rebalancer.enabled
    entries: dict[tuple[int, FlowKey], MegaflowEntry] = sim._attacker_entries
    for _ in range(due):
        key = keys[sim._covert_cursor % len(keys)]
        sim._covert_cursor += 1
        bucket = key.rss % reta_dp.reta_size if multi else 0
        shard = reta_dp.reta[bucket] if multi else 0
        view = shards[shard]
        entry = entries.get((shard, key))
        if entry is not None and entry.alive:
            entry.refresh(t1)
            cost = (
                ranked_hit_costs[shard] if ranked
                else cost_model.expected_megaflow_hit_cost(view.mask_count)
            )
        else:
            installed = sim.switch.handle_miss(key, now=mid)
            if installed is not None:
                entries[(shard, key)] = installed
            cost = cost_model.miss_cost(
                view.mask_count, rules_examined=view.rule_count
            )
        cycles_by_shard[shard] += cost
        if charge_buckets:
            reta_dp.record_bucket_cycles(bucket, cost)
    return due, cycles_by_shard
