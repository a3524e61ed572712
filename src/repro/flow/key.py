"""Concrete packet header values: the flow key."""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.flow.fields import FieldSpace


class FlowKey:
    """A packet's extracted header values within a :class:`FieldSpace`.

    Internally a tuple aligned with the space's field order, so keys are
    cheap to hash — they are the lookup keys of both the microflow cache
    and the per-tuple hash tables of the megaflow cache.

    Unspecified fields default to zero, which mirrors how OVS zero-fills
    flow-key members that a packet does not carry (e.g. ``tp_src`` for a
    non-TCP/UDP packet).

    The key also lazily caches its :attr:`packed` integer form (the
    space's fixed bit layout), which the TSS packed-key fast path masks
    with one ``&`` per subtable instead of a per-field comprehension.
    """

    __slots__ = ("space", "values", "_packed")

    def __init__(self, space: FieldSpace, values: Mapping[str, int] | None = None) -> None:
        self.space = space
        filled = [0] * len(space)
        if values:
            for name, value in values.items():
                spec = space.spec(name)
                filled[space.index_of(name)] = spec.check(value)
        self.values: tuple[int, ...] = tuple(filled)
        self._packed: int | None = None

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
        key._packed = packed
        return key

    @property
    def packed(self) -> int:
        """The packed-integer form of the key (computed once, cached)."""
        packed = self._packed
        if packed is None:
            packed = self._packed = self.space.pack(self.values)
        return packed

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
        # values first: unequal keys (the common probe outcome) differ
        # there, and equal ones nearly always share one space object
        return self.values == other.values and (
            self.space is other.space or self.space == other.space
        )

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{spec.name}={spec.format(value)}"
            for spec, value in zip(self.space.specs, self.values)
        )
        return f"FlowKey({inner})"
