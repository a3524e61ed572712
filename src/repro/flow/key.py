"""Concrete packet header values: the flow key."""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.flow.fields import FieldSpace
from repro.util.bits import rss_hash


class FlowKey:
    """A packet's extracted header values within a :class:`FieldSpace`.

    A key holds three derived forms of the same header values, each a
    plain slot: :attr:`values`, a tuple aligned with the space's field
    order; :attr:`packed`, the space's fixed bit layout as one integer
    (which the EMC index, the scan memo and the TSS packed-key fast path
    mask with one ``&`` per subtable); and :attr:`rss`, the steering
    hash ``rss_hash(packed & space.rss_mask)`` the RETA dispatcher
    buckets it by — what a NIC hands over in the packet's descriptor,
    taken here in software on first read, so a key object sent again
    (a covert key list sent lap after lap) hashes once.  A key is built
    from either of the first two and derives the others on first read:
    :meth:`from_packed` keys (the shard workers' — keys cross the
    mailbox as packed ints) never unpack unless something reads
    :attr:`values`, such as :meth:`__hash__` placing the key in an EMC
    set.  The block extractor builds its keys with all three set
    (:meth:`from_forms`), the hash folded for the whole block at once.

    Unspecified fields default to zero, which mirrors how OVS zero-fills
    flow-key members that a packet does not carry (e.g. ``tp_src`` for a
    non-TCP/UDP packet).
    """

    __slots__ = ("space", "values", "packed", "rss")

    def __init__(self, space: FieldSpace, values: Mapping[str, int] | None = None) -> None:
        self.space = space
        filled = [0] * len(space)
        if values:
            for name, value in values.items():
                spec = space.spec(name)
                filled[space.index_of(name)] = spec.check(value)
        self.values: tuple[int, ...] = tuple(filled)

    @classmethod
    def from_tuple(cls, space: FieldSpace, values: tuple[int, ...],
                   packed: int | None = None) -> "FlowKey":
        """Build directly from an aligned value tuple (trusted input);
        ``packed``, when the caller already holds it, must equal
        ``space.pack(values)``."""
        if len(values) != len(space):
            raise ValueError(
                f"tuple has {len(values)} values, space has {len(space)} fields"
            )
        key = cls.__new__(cls)
        key.space = space
        key.values = values
        if packed is not None:
            key.packed = packed
        return key

    @classmethod
    def from_packed(cls, space: FieldSpace, packed: int) -> "FlowKey":
        """Build from the packed-integer form alone (trusted input: it
        must be ``space.pack`` of some in-range value tuple)."""
        key = cls.__new__(cls)
        key.space = space
        key.packed = packed
        return key

    @classmethod
    def from_forms(cls, space: FieldSpace, values: tuple[int, ...],
                   packed: int, rss: int) -> "FlowKey":
        """Build with every derived form already held (trusted input:
        ``packed == space.pack(values)`` and ``rss ==
        rss_hash(packed & space.rss_mask)``) — the block extractor's
        one construction per accepted frame."""
        key = cls.__new__(cls)
        key.space = space
        key.values = values
        key.packed = packed
        key.rss = rss
        return key

    def __getattr__(self, name: str):
        # reached only when a slot is unset: derive the missing form
        if name == "values":
            values = self.values = self.space.unpack(self.packed)
            return values
        if name == "packed":
            packed = self.packed = self.space.pack(self.values)
            return packed
        if name == "rss":
            rss = self.rss = rss_hash(self.packed & self.space.rss_mask)
            return rss
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def get(self, name: str) -> int:
        """Value of one field."""
        return self.values[self.space.index_of(name)]

    def replace(self, **updates: int) -> "FlowKey":
        """Return a copy with some fields changed."""
        new_values = list(self.values)
        for name, value in updates.items():
            spec = self.space.spec(name)
            new_values[self.space.index_of(name)] = spec.check(value)
        return FlowKey.from_tuple(self.space, tuple(new_values))

    def items(self) -> Iterator[tuple[str, int]]:
        """Iterate ``(field_name, value)`` pairs in field order."""
        for spec, value in zip(self.space.specs, self.values):
            yield spec.name, value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowKey):
            return NotImplemented
        # packed first: one int compare, and every key already holds
        # its packed form on the hot path; equal spaces share one bit
        # layout, so this is the relation comparing ``values`` would be
        return self.packed == other.packed and (
            self.space is other.space or self.space == other.space
        )

    def __hash__(self) -> int:
        # the tuple hash places a key in its EMC set: kept on ``values``
        # so a packed-only key lands where its tuple-built twin does
        return hash(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{spec.name}={spec.format(value)}"
            for spec, value in zip(self.space.specs, self.values)
        )
        return f"FlowKey({inner})"
