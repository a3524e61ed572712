"""The microflow cache (EMC): the exact-match first level of the fast path.

"The fast path comprises two layers of flow caches: the microflow cache
implements an exact-match store over all header fields" — the paper,
Section 2.

Modelled after the netdev datapath's Exact Match Cache: a fixed number
of entries organised as ``n_sets`` sets of ``ways`` slots, placed by a
hash of the full flow key, with optional probabilistic insertion (real
OVS inserts with probability 1/100 by default to resist exactly the kind
of thrashing this attack performs — the simulator exposes the knob so
the ablation can quantify how little it helps against 8k covert flows).

The set placement decides which keys collide, and so every eviction; it
is computed only where a slot is added or purged.  Every probe finds its
slot through one dict on the key's packed int instead: one cache serves
one switch's field space, so equal packed ints are equal keys.

Entries reference :class:`~repro.ovs.megaflow.MegaflowEntry` objects and
are lazily invalidated when the referenced megaflow dies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flow.key import FlowKey
from repro.ovs.megaflow import MegaflowEntry
from repro.util.rng import DeterministicRng

#: netdev datapath default EMC size
DEFAULT_ENTRIES = 8192
DEFAULT_WAYS = 2


@dataclass(slots=True, eq=False)
class _Slot:
    key: FlowKey
    entry: MegaflowEntry
    last_used: float


class MicroflowCache:
    """A set-associative exact-match cache over full flow keys."""

    def __init__(
        self,
        entries: int = DEFAULT_ENTRIES,
        ways: int = DEFAULT_WAYS,
        insertion_prob: float = 1.0,
        rng: DeterministicRng | None = None,
    ) -> None:
        if entries <= 0 or ways <= 0:
            raise ValueError("entries and ways must be positive")
        if entries % ways:
            raise ValueError(f"entries ({entries}) must be divisible by ways ({ways})")
        if not 0.0 <= insertion_prob <= 1.0:
            raise ValueError("insertion_prob must be within [0, 1]")
        self.capacity = entries
        self.ways = ways
        self.n_sets = entries // ways
        self.insertion_prob = insertion_prob
        self.rng = rng or DeterministicRng(0)
        self._sets: list[list[_Slot]] = [[] for _ in range(self.n_sets)]
        #: packed key -> its slot, exactly the slots in ``_sets``: kept
        #: in step by the four writers of ``_sets`` (``insert`` and its
        #: LRU eviction, the stale purge in ``lookup``,
        #: ``invalidate_dead``, ``flush``).  Read by ``lookup``,
        #: ``insert`` and the switch's burst walk
        #: (``OvsSwitch._resolve``), which serves every EMC hit
        self._index: dict[int, _Slot] = {}
        # statistics
        self.lookups = 0
        self.hits = 0
        self.insertions = 0
        self.evictions = 0
        self.stale_hits = 0

    def _set_index(self, key: FlowKey) -> int:
        # the value FlowKey.__hash__ returns, without its frame: a tuple
        # of ints, which CPython hashes without per-process salting, so
        # set placement is deterministic across runs
        return hash(key.values) % self.n_sets  # repro-lint: disable=determinism-hash

    def lookup(self, key: FlowKey, now: float = 0.0) -> MegaflowEntry | None:
        """Exact-match probe; stale entries (dead megaflows) are purged
        on contact and reported as misses."""
        self.lookups += 1
        packed = key.packed
        slot = self._index.get(packed)
        if slot is None:
            return None
        if not slot.entry.alive:
            del self._index[packed]
            self._sets[self._set_index(key)].remove(slot)
            self.stale_hits += 1
            return None
        slot.last_used = now
        self.hits += 1
        return slot.entry

    def insert(self, key: FlowKey, entry: MegaflowEntry, now: float = 0.0) -> bool:
        """Admit a key (subject to probabilistic insertion); evicts the
        least-recently-used slot of a full set.  Returns True when the
        entry was actually stored."""
        if self.insertion_prob < 1.0:
            # prob 0.0 means "EMC insertion disabled" (the documented
            # operator mitigation): no draw can ever admit, so skip the
            # RNG entirely — nothing else consumes this fork
            if self.insertion_prob <= 0.0 or self.rng.random() >= self.insertion_prob:
                return False
        index = self._index
        packed = key.packed
        slot = index.get(packed)
        if slot is not None:
            slot.entry = entry
            slot.last_used = now
            return True
        self.insertions += 1
        # the set is ``_set_index(key)``, without the method call
        bucket = self._sets[hash(key.values) % self.n_sets]  # repro-lint: disable=determinism-hash
        if len(bucket) >= self.ways:
            self.evictions += 1
            if self.ways == 1:
                # the set's one slot is its LRU slot: it takes the new key
                slot = bucket[0]
                del index[slot.key.packed]
                slot.key = key
                slot.entry = entry
                slot.last_used = now
                index[packed] = slot
                return True
            # the least recently used slot; of equally old ones, the first
            ages = [slot.last_used for slot in bucket]
            del index[bucket.pop(ages.index(min(ages))).key.packed]
        slot = index[packed] = _Slot(key, entry, now)
        bucket.append(slot)
        return True

    def invalidate_dead(self) -> int:
        """Sweep out entries whose megaflow has died; returns the count."""
        removed = 0
        for bucket in self._sets:
            keep = [slot for slot in bucket if slot.entry.alive]
            removed += len(bucket) - len(keep)
            bucket[:] = keep
        if removed:
            self._index = {packed: slot for packed, slot
                           in self._index.items() if slot.entry.alive}
        return removed

    def flush(self) -> None:
        """Empty the cache."""
        for bucket in self._sets:
            bucket.clear()
        self._index.clear()

    @property
    def can_store(self) -> bool:
        """Whether :meth:`insert` can ever store a key: ``False`` with
        insertion off (``insertion_prob`` 0), when every insert returns
        ``False`` without a draw and the cache can only shrink."""
        return self.insertion_prob > 0.0

    @property
    def occupancy(self) -> int:
        """Number of stored entries, live and stale."""
        return len(self._index)

    @property
    def hit_rate(self) -> float:
        """Lifetime hit rate (0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __repr__(self) -> str:
        return (
            f"MicroflowCache({self.occupancy}/{self.capacity} entries, "
            f"{self.ways}-way, hit_rate={self.hit_rate:.2%})"
        )
