"""Pre-packed key bursts: the workload layer's unit of traffic.

The wall-clock-bound loops used to rebuild per-key lists every tick —
re-deriving each covert key's packed integer, RSS bucket and cyclic
position from scratch for every packet sent.  A :class:`KeyBurst` packs
that bookkeeping once per key *list* instead: the keys (each carries
its packed integer itself) and, lazily, their RSS indirection-table
buckets — each key's carried steering hash
(:attr:`~repro.flow.key.FlowKey.rss`) modulo the dispatcher's table
size.  Burst assembly then becomes C-level list slicing
(:meth:`cyclic_slice`) rather than a per-packet modulo loop.

Bursts treat their key list as immutable: the simulator invalidates its
cached burst by *identity* when the covert key list is reassigned (the
only way it changes — re-probes and fleet control replace the list
wholesale), so mutating a burst's list in place is not supported.
"""

from __future__ import annotations

from typing import Sequence

from repro.flow.key import FlowKey


class KeyBurst:
    """An immutable burst of flow keys with pre-derived per-key state."""

    __slots__ = ("keys", "_buckets", "_buckets_for")

    def __init__(self, keys: Sequence[FlowKey]) -> None:
        #: the key list itself — kept by reference when already a list,
        #: so callers can invalidate caches by identity
        self.keys: list[FlowKey] = (
            keys if isinstance(keys, list) else list(keys)
        )
        self._buckets: list[int] | None = None
        self._buckets_for: object = None

    def __len__(self) -> int:
        return len(self.keys)

    def buckets(self, dispatcher) -> list[int]:
        """Each key's RSS indirection-table bucket under ``dispatcher``
        (a :class:`~repro.ovs.pmd.RetaDispatcher`): ``key.rss`` modulo
        its ``reta_size``, as the dispatcher itself takes it.

        Buckets depend only on the hash of the packed key masked to the
        steering fields — never on the bucket→shard map — so they are
        stable across RETA rebalances and cached per dispatcher.
        """
        if self._buckets is None or self._buckets_for is not dispatcher:
            size = dispatcher.reta_size
            self._buckets = [key.rss % size for key in self.keys]
            self._buckets_for = dispatcher
        return self._buckets

    def cyclic_slice(self, start: int, count: int) -> list[FlowKey]:
        """``count`` keys starting at cyclic position ``start`` — the
        covert stream's lap structure, assembled from whole-list slices
        and repetitions instead of ``count`` modulo indexings."""
        keys = self.keys
        n = len(keys)
        if n == 0 or count <= 0:
            return []
        offset = start % n
        head = keys[offset:offset + count]
        remaining = count - len(head)
        if remaining <= 0:
            return head
        laps, tail = divmod(remaining, n)
        return head + keys * laps + keys[:tail]

    def __repr__(self) -> str:
        return f"KeyBurst({len(self.keys)} keys)"
