"""Wildcard matches: per-field value/mask pairs.

A :class:`FlowMatch` is the unit shared by slow-path rules and fast-path
megaflow entries.  Masks are arbitrary bit masks (OVS supports these),
though everything the CMS compilers emit — and everything the megaflow
generation algorithm produces — uses CIDR-style *prefix* masks, matching
the paper's Fig. 2b.
"""

from __future__ import annotations

from operator import and_
from typing import Iterator, Mapping

from repro.flow.fields import FieldSpace, FieldSpec
from repro.flow.key import FlowKey
from repro.net.addresses import ip_to_int, parse_cidr, prefix_to_mask
from repro.util.bits import mask_of_prefix, ones, popcount


class FlowMatch:
    """An immutable wildcard match over a :class:`FieldSpace`.

    A match is one ``(packed mask, packed masked value)`` pair, its
    :attr:`packed` form, or equivalently the ``values`` and ``masks``
    tuples aligned with the space's field order.  A zero mask wildcards
    the field entirely; values are always stored pre-masked so equality
    and hashing are canonical.

    Each form is derived from the other on first read and cached: rules
    are built from per-field pairs and pack when the slow path compiles
    them, megaflows are born packed (:meth:`from_packed`) and unpack
    only for diagnostics, guards and reports.
    """

    __slots__ = ("space", "_values", "_masks", "_packed")

    def __init__(
        self,
        space: FieldSpace,
        fields: Mapping[str, tuple[int, int]] | None = None,
    ) -> None:
        self.space = space
        values = [0] * len(space)
        masks = [0] * len(space)
        if fields:
            for name, (value, mask) in fields.items():
                index = space.index_of(name)
                spec = space.specs[index]
                spec.check(value)
                spec.check(mask)
                values[index] = value & mask
                masks[index] = mask
        self._values: tuple[int, ...] | None = tuple(values)
        self._masks: tuple[int, ...] | None = tuple(masks)
        self._packed: tuple[int, int] | None = None

    @classmethod
    def from_tuples(
        cls,
        space: FieldSpace,
        values: tuple[int, ...],
        masks: tuple[int, ...],
    ) -> "FlowMatch":
        """Build directly from aligned tuples (values are masked here);
        the packed pair is computed only if something reads it."""
        if len(values) != len(space) or len(masks) != len(space):
            raise ValueError("tuple lengths must equal the field count")
        match = cls.__new__(cls)
        match.space = space
        match._masks = tuple(masks)
        match._values = tuple(map(and_, values, masks))
        match._packed = None
        return match

    @classmethod
    def from_packed(cls, space: FieldSpace, packed_mask: int,
                    packed_value: int) -> "FlowMatch":
        """Build from the packed pair (the value is masked here); the
        per-field tuples are unpacked only if something reads them."""
        match = cls.__new__(cls)
        match.space = space
        match._masks = match._values = None
        match._packed = (packed_mask, packed_value & packed_mask)
        return match

    @classmethod
    def wildcard(cls, space: FieldSpace) -> "FlowMatch":
        """The match-everything wildcard (the paper's default-deny body)."""
        return cls(space)

    @classmethod
    def exact(cls, space: FieldSpace, key: FlowKey) -> "FlowMatch":
        """An exact match on every field of a key (a microflow entry)."""
        masks = tuple(spec.max_value for spec in space.specs)
        return cls.from_tuples(space, key.values, masks)

    @property
    def packed(self) -> tuple[int, int]:
        """``(packed mask, packed masked value)`` in the space's packed
        layout (computed once, cached)."""
        packed = self._packed
        if packed is None:
            pack = self.space.pack
            packed = self._packed = (pack(self._masks), pack(self._values))
        return packed

    @property
    def values(self) -> tuple[int, ...]:
        """Per-field masked values (unpacked once, cached)."""
        values = self._values
        if values is None:
            values = self._values = self.space.unpack(self._packed[1])
        return values

    @property
    def masks(self) -> tuple[int, ...]:
        """Per-field masks (unpacked once, cached)."""
        masks = self._masks
        if masks is None:
            masks = self._masks = self.space.unpack(self._packed[0])
        return masks

    # -- predicates --------------------------------------------------------

    def matches(self, key: FlowKey) -> bool:
        """True when the key falls inside this match's region."""
        for value, mask, key_value in zip(self.values, self.masks, key.values):
            if key_value & mask != value:
                return False
        return True

    def is_wildcard(self) -> bool:
        """True when no field is constrained at all."""
        return all(mask == 0 for mask in self.masks)

    def covers(self, other: "FlowMatch") -> bool:
        """True when every packet matching ``other`` also matches self."""
        for sv, sm, ov, om in zip(self.values, self.masks, other.values, other.masks):
            if sm & om != sm:  # self constrains a bit that other leaves free
                return False
            if ov & sm != sv:
                return False
        return True

    # -- accessors ---------------------------------------------------------

    def field(self, name: str) -> tuple[int, int]:
        """``(value, mask)`` of one field."""
        index = self.space.index_of(name)
        return self.values[index], self.masks[index]

    def constrained_fields(self) -> Iterator[tuple[FieldSpec, int, int]]:
        """Iterate ``(spec, value, mask)`` for fields with non-zero mask,
        in canonical field order."""
        for spec, value, mask in zip(self.space.specs, self.values, self.masks):
            if mask:
                yield spec, value, mask

    def specificity(self) -> int:
        """Total number of exactly-matched bits (popcount of all masks)."""
        return sum(popcount(mask) for mask in self.masks)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowMatch):
            return NotImplemented
        return (
            self.space == other.space
            and self.values == other.values
            and self.masks == other.masks
        )

    def __hash__(self) -> int:
        return hash((self.values, self.masks))

    def __repr__(self) -> str:
        if self.is_wildcard():
            return "FlowMatch(*)"
        parts = []
        for spec, value, mask in self.constrained_fields():
            if mask == spec.max_value:
                parts.append(f"{spec.name}={spec.format(value)}")
            else:
                parts.append(f"{spec.name}={spec.format(value)}/{spec.format(mask)}")
        return f"FlowMatch({', '.join(parts)})"


class MatchBuilder:
    """Fluent construction of :class:`FlowMatch` with friendly types.

    >>> match = (MatchBuilder(OVS_FIELDS)
    ...          .ip_src_cidr("10.0.0.0/8")
    ...          .field("tp_dst", 80)
    ...          .build())
    """

    def __init__(self, space: FieldSpace) -> None:
        self.space = space
        self._fields: dict[str, tuple[int, int]] = {}

    def field(self, name: str, value: int, mask: int | None = None) -> "MatchBuilder":
        """Exact-match a field, or value/mask when ``mask`` is given."""
        spec = self.space.spec(name)
        self._fields[name] = (value, spec.max_value if mask is None else mask)
        return self

    def prefix(self, name: str, value: int, prefix_len: int) -> "MatchBuilder":
        """Match the first ``prefix_len`` bits of a field."""
        spec = self.space.spec(name)
        self._fields[name] = (value, mask_of_prefix(prefix_len, spec.width))
        return self

    def ip_src_cidr(self, cidr: str) -> "MatchBuilder":
        """Match ``ip_src`` against a CIDR block such as ``"10.0.0.0/8"``."""
        return self._cidr("ip_src", cidr)

    def _cidr(self, name: str, cidr: str) -> "MatchBuilder":
        network, prefix_len = parse_cidr(cidr)
        self._fields[name] = (network, prefix_to_mask(prefix_len))
        return self

    def ip_src(self, address: str | int) -> "MatchBuilder":
        """Exact-match the IP source address."""
        return self.field("ip_src", ip_to_int(address))

    def ip_dst(self, address: str | int) -> "MatchBuilder":
        """Exact-match the IP destination address."""
        return self.field("ip_dst", ip_to_int(address))

    def build(self) -> FlowMatch:
        """Materialise the accumulated fields."""
        return FlowMatch(self.space, self._fields)


def port_range_to_prefixes(low: int, high: int, width: int = 16) -> list[tuple[int, int]]:
    """Decompose an inclusive port range into minimal (value, mask)
    prefix pairs, the standard trick for expressing ranges in TCAM-style
    rule sets (and what OpenStack security-group port ranges compile to).

    >>> port_range_to_prefixes(80, 81)
    [(80, 65534)]
    """
    if not 0 <= low <= high <= ones(width):
        raise ValueError(f"bad port range [{low}, {high}]")
    prefixes: list[tuple[int, int]] = []
    current = low
    while current <= high:
        # the largest aligned block starting at `current` that fits
        size = 1
        while (
            current % (size * 2) == 0
            and current + size * 2 - 1 <= high
        ):
            size *= 2
        prefix_len = width - (size.bit_length() - 1)
        prefixes.append((current, mask_of_prefix(prefix_len, width)))
        current += size
    return prefixes
