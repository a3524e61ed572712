"""Header field registry: which fields a classifier matches on.

Open vSwitch extracts packets into a fixed *flow key* structure; rules
and megaflow entries are value/mask pairs over that structure.  We model
the flow key as an ordered :class:`FieldSpace` of :class:`FieldSpec`
entries.  The order matters twice:

* it is the canonical order in which the slow path examines fields when
  checking a rule (which determines which field contributes the
  un-wildcarding witness for a mismatched rule, see
  :mod:`repro.ovs.wildcarding`); and
* it fixes the tuple layout used for hashing keys and masks.

``always_exact`` marks metadata fields (``in_port``) that OVS always
materialises exactly in megaflows rather than bit-wise un-wildcarding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.net.addresses import int_to_ip
from repro.util.bits import ones, to_binary


#: the fields RSS hashes, when present in the space (the classic NIC
#: 5-tuple; fields outside it — MACs, ports-of-entry — don't steer)
RSS_FIELDS = ("ip_src", "ip_dst", "ip_proto", "tp_src", "tp_dst")


@dataclass(frozen=True)
class FieldSpec:
    """One header field: a name, a bit width and a pretty-printer."""

    name: str
    width: int
    #: metadata fields are always exact-matched in megaflow masks
    always_exact: bool = False
    #: renders values for reports; defaults to binary (Fig. 2 style)
    formatter: Callable[[int], str] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"field {self.name!r} must have positive width")

    @property
    def max_value(self) -> int:
        """Largest representable value of the field."""
        return ones(self.width)

    def format(self, value: int) -> str:
        """Human-readable rendering of a field value."""
        if self.formatter is not None:
            return self.formatter(value)
        return to_binary(value, self.width)

    def check(self, value: int) -> int:
        """Validate that ``value`` fits the field; returns it unchanged."""
        if not 0 <= value <= self.max_value:
            raise ValueError(
                f"value {value} does not fit field {self.name!r} ({self.width} bits)"
            )
        return value


class FieldSpace:
    """An ordered collection of :class:`FieldSpec` with index lookup."""

    def __init__(self, specs: list[FieldSpec], name: str = "custom") -> None:
        if not specs:
            raise ValueError("a FieldSpace needs at least one field")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in {names}")
        self.name = name
        self.specs: tuple[FieldSpec, ...] = tuple(specs)
        self._index: dict[str, int] = {spec.name: i for i, spec in enumerate(specs)}
        # fixed bit layout: field 0 occupies the most significant bits,
        # mirroring the tuple order, so packed ints compare like tuples
        offsets: list[int] = []
        shift = sum(spec.width for spec in self.specs)
        for spec in self.specs:
            shift -= spec.width
            offsets.append(shift)
        self._offsets: tuple[int, ...] = tuple(offsets)
        #: ``(offset, max_value)`` per field: what :meth:`unpack` reads
        self._unpack_plan: tuple[tuple[int, int], ...] = tuple(
            (offset, spec.max_value) for spec, offset in zip(self.specs, offsets)
        )
        #: the steering fields' bits of the packed layout: a key's RSS
        #: hash input is ``packed & rss_mask`` (one AND, no per-field work)
        self.rss_mask: int = self.pack(tuple(
            spec.max_value if spec.name in RSS_FIELDS else 0
            for spec in self.specs
        ))

    def __iter__(self) -> Iterator[FieldSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldSpace):
            return NotImplemented
        return self is other or self.specs == other.specs

    def __hash__(self) -> int:
        return hash(self.specs)

    def index_of(self, name: str) -> int:
        """Position of a field within the space."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"unknown field {name!r}; space {self.name!r} has {list(self._index)}"
            ) from None

    def spec(self, name: str) -> FieldSpec:
        """The :class:`FieldSpec` for a field name."""
        return self.specs[self.index_of(name)]

    def total_bits(self) -> int:
        """Sum of all field widths (an upper bound on mask diversity per
        the *additive* model; the multiplicative bound is the product)."""
        return sum(spec.width for spec in self.specs)

    # -- packed-integer layout ---------------------------------------------

    @property
    def offsets(self) -> tuple[int, ...]:
        """Bit offset of each field within the packed-integer layout
        (field 0 at the most significant end, matching tuple order)."""
        return self._offsets

    def offset_of(self, name: str) -> int:
        """Bit offset of one field within the packed layout."""
        return self._offsets[self.index_of(name)]

    def pack(self, values: Sequence[int]) -> int:
        """Pack an aligned value (or mask) tuple into a single integer.

        Because fields occupy disjoint bit ranges, masking distributes
        over packing: ``pack(v & m per field) == pack(v) & pack(m)`` —
        the identity the TSS packed-key fast path relies on.
        """
        packed = 0
        for value, offset in zip(values, self._offsets):
            packed |= value << offset
        return packed

    def unpack(self, packed: int) -> tuple[int, ...]:
        """Inverse of :meth:`pack`: the aligned value tuple."""
        return tuple([(packed >> offset) & mask for offset, mask in self._unpack_plan])

    def __repr__(self) -> str:
        inner = ", ".join(f"{s.name}:{s.width}" for s in self.specs)
        return f"FieldSpace({self.name}: {inner})"


def _format_port(value: int) -> str:
    return str(value)


def _format_proto(value: int) -> str:
    names = {1: "icmp", 6: "tcp", 17: "udp"}
    return names.get(value, str(value))


def _format_hex16(value: int) -> str:
    return f"0x{value:04x}"


#: The default field space modelling the OVS flow key over the fields the
#: paper's ACLs involve: ingress port metadata, EtherType, and the IP
#: 5-tuple.  Field order follows the OVS flow-key layout (metadata, L2,
#: L3, L4), which is also the staged-lookup stage order.
OVS_FIELDS = FieldSpace(
    [
        FieldSpec("in_port", 16, always_exact=True, formatter=_format_port),
        FieldSpec("eth_type", 16, formatter=_format_hex16),
        FieldSpec("ip_src", 32, formatter=int_to_ip),
        FieldSpec("ip_dst", 32, formatter=int_to_ip),
        FieldSpec("ip_proto", 8, formatter=_format_proto),
        FieldSpec("tp_src", 16, formatter=_format_port),
        FieldSpec("tp_dst", 16, formatter=_format_port),
    ],
    name="ovs",
)

#: The paper's Fig. 2 toy field: a single 8-bit ``ip_src`` octet.
FIG2_FIELD = FieldSpec("ip_src", 8)


def toy_single_field_space() -> FieldSpace:
    """The one-field space used by the paper's Fig. 2 worked example."""
    return FieldSpace([FIG2_FIELD], name="fig2-toy")
