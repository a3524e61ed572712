"""Tests for the adversarial covert packet sequence generator."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.analysis import AttackDimension, reachable_mask_count
from repro.attack.packets import CovertStreamGenerator, covert_keys_for_dimensions
from repro.flow.fields import OVS_FIELDS, toy_single_field_space
from repro.flow.key import FlowKey
from repro.net.ipv4 import PROTO_TCP, PROTO_UDP, IPv4
from repro.net.l4 import Tcp, Udp
from repro.net.pcap import PcapReader
from repro.scenario.registry import SURFACES
from repro.util.bits import bit_flip, first_diff_bit, rss_hash

IP_DIM = AttackDimension("ip_src", 0x0A00000A, 32, 32)
DPORT_DIM = AttackDimension("tp_dst", 80, 16, 16)
SPORT_DIM = AttackDimension("tp_src", 32768, 16, 16)


class TestKeyGeneration:
    def test_one_key_per_mask_combination(self):
        keys = covert_keys_for_dimensions([IP_DIM, DPORT_DIM], pinned={"ip_dst": 1})
        assert len(keys) == 512
        assert len(set(keys)) == 512

    def test_witness_positions_cover_cross_product(self):
        keys = covert_keys_for_dimensions([IP_DIM, DPORT_DIM], pinned={"ip_dst": 1})
        combos = set()
        for key in keys:
            ip_witness = first_diff_bit(key.get("ip_src"), IP_DIM.allow_value, 32)
            port_witness = first_diff_bit(key.get("tp_dst"), DPORT_DIM.allow_value, 16)
            assert ip_witness is not None and port_witness is not None
            combos.add((ip_witness + 1, port_witness + 1))
        assert len(combos) == 512

    def test_every_key_is_denied(self):
        # no covert key may accidentally match an allow value
        keys = covert_keys_for_dimensions([IP_DIM, DPORT_DIM], pinned={"ip_dst": 1})
        for key in keys:
            assert key.get("ip_src") != IP_DIM.allow_value
            assert key.get("tp_dst") != DPORT_DIM.allow_value

    def test_toy_space_fig2_sequence(self):
        space = toy_single_field_space()
        dim = AttackDimension("ip_src", 0b00001010, 8, 8)
        keys = covert_keys_for_dimensions([dim], pinned={}, space=space)
        values = {key.get("ip_src") for key in keys}
        # exactly the Fig. 2b deny keys (ignoring wildcarded bits)
        assert values == {0b10001010, 0b01001010, 0b00101010, 0b00011010,
                          0b00000010, 0b00001110, 0b00001000, 0b00001011}

    def test_empty_dimensions_rejected(self):
        with pytest.raises(ValueError):
            covert_keys_for_dimensions([], pinned={})

    def test_duplicate_dimensions_rejected(self):
        with pytest.raises(ValueError):
            covert_keys_for_dimensions([IP_DIM, IP_DIM], pinned={})

    @given(st.integers(1, 8), st.integers(1, 8))
    @settings(deadline=None)
    def test_count_formula_holds(self, l1, l2):
        dims = [
            AttackDimension("ip_src", 0x0A000000, l1, 32),
            AttackDimension("tp_dst", 80, l2, 16),
        ]
        keys = covert_keys_for_dimensions(dims, pinned={})
        assert len(set(keys)) == reachable_mask_count(dims) == l1 * l2


def _dict_built_keys(dimensions, pinned, space):
    """The covert key list as a dict per combination, every value
    checked by the ``FlowKey`` constructor (the reference)."""
    base = dict(pinned)
    for dim in dimensions:
        base.setdefault(dim.field, dim.allow_value)
    keys = []
    ranges = [range(1, dim.prefix_len + 1) for dim in dimensions]
    for combo in product(*ranges):
        values = dict(base)
        for dim, prefix_len in zip(dimensions, combo):
            values[dim.field] = bit_flip(dim.allow_value, prefix_len - 1, dim.width)
        keys.append(FlowKey(space, values))
    return keys


class TestCovertKeysFromTuples:
    @pytest.mark.parametrize("surface", SURFACES.names())
    def test_every_surface_gets_the_dict_built_keys(self, surface):
        registered = SURFACES.get(surface)
        space = registered.space()
        dimensions = registered.build()[1]
        pinned = CovertStreamGenerator(dimensions, dst_ip=0x0A000909,
                                       space=space).pinned_fields()
        keys = covert_keys_for_dimensions(dimensions, pinned, space)
        reference = _dict_built_keys(dimensions, pinned, space)
        assert [key.values for key in keys] == [key.values for key in reference]
        assert all(key.packed == space.pack(key.values) for key in keys)

    def test_a_pinned_value_an_attacked_field_overrides_is_not_checked(self):
        pinned = {"ip_dst": 1, "tp_dst": 1 << 20}
        keys = covert_keys_for_dimensions([IP_DIM, DPORT_DIM], pinned)
        reference = _dict_built_keys([IP_DIM, DPORT_DIM], pinned, OVS_FIELDS)
        assert [key.values for key in keys] == [key.values for key in reference]

    @pytest.mark.parametrize("dimensions,pinned", [
        ([IP_DIM], {"ip_dst": 1 << 32}),
        ([IP_DIM], {"tp_src": -1}),
        ([AttackDimension("tp_dst", 1 << 16, 16, 16)], {}),
        ([IP_DIM, AttackDimension("tp_src", 1 << 17, 4, 16)], {}),
    ])
    def test_an_out_of_range_value_still_raises(self, dimensions, pinned):
        with pytest.raises(ValueError):
            _dict_built_keys(dimensions, pinned, OVS_FIELDS)
        with pytest.raises(ValueError):
            covert_keys_for_dimensions(dimensions, pinned)


class TestCovertStreamGenerator:
    def test_pinned_fields_quiet_stream(self):
        generator = CovertStreamGenerator([IP_DIM, DPORT_DIM], dst_ip=0x0A000909)
        pinned = generator.pinned_fields()
        assert pinned["ip_dst"] == 0x0A000909
        assert pinned["eth_type"] == 0x0800
        assert pinned["ip_proto"] == PROTO_TCP
        keys = generator.keys()
        assert all(k.get("ip_dst") == 0x0A000909 for k in keys)
        assert all(k.get("tp_src") == generator.default_sport for k in keys)

    def test_packets_realise_keys(self):
        generator = CovertStreamGenerator([IP_DIM], dst_ip=0x0A000909)
        keys = generator.keys()
        packets = list(generator.packets())
        assert len(packets) == len(keys) == 32
        sample = packets[5]
        ip = sample.get_layer(IPv4)
        tcp = sample.get_layer(Tcp)
        assert ip.src == keys[5].get("ip_src")
        assert tcp.dport == keys[5].get("tp_dst")

    def test_udp_stream(self):
        generator = CovertStreamGenerator([DPORT_DIM], dst_ip=1, protocol=PROTO_UDP)
        packet = next(generator.packets())
        assert packet.get_layer(Udp) is not None

    def test_icmp_rejected(self):
        with pytest.raises(ValueError):
            CovertStreamGenerator([IP_DIM], dst_ip=1, protocol=1)

    def test_frames_are_wire_parseable(self):
        from repro.flow.extract import flow_key_from_packet
        generator = CovertStreamGenerator([DPORT_DIM], dst_ip=0x0A000909)
        for frame, key in zip(generator.frames(), generator.keys()):
            assert flow_key_from_packet(frame) == key

    def test_pcap_export(self, tmp_path):
        path = tmp_path / "covert.pcap"
        generator = CovertStreamGenerator([DPORT_DIM], dst_ip=0x0A000909)
        count = generator.write_pcap(str(path), rate_pps=820.0)
        assert count == 16
        packets = PcapReader(path).read_all()
        assert len(packets) == 16
        # replay rate encoded in timestamps
        assert packets[1].timestamp - packets[0].timestamp == pytest.approx(1 / 820, abs=1e-5)


class TestSpreadCoverage:
    """The spread-key coverage bugfix: budget exhaustion is explicit,
    high-order free bits are enumerated before giving up, and nothing
    silently disappears."""

    def _generator(self, dims):
        return CovertStreamGenerator(dims, dst_ip=0x0A000002)

    def test_high_order_free_bits_found_under_a_tight_budget(self):
        """A dispatcher keyed on a *high* free bit: the old low-order
        counter walk (tries 1..budget flip only the low bits) could
        never steer to shard 1; the single-bit stage must."""
        dim = AttackDimension("ip_src", 0x0A00000A, 3, 32)  # >=29 free bits
        generator = self._generator([dim])

        def shard_of(key):
            return (key.get("ip_src") >> 28) & 1

        report = generator.spread_coverage(2, shard_of, max_tries_per_shard=16)
        assert report.complete
        assert report.coverage == 1.0
        assert len(report.keys) == 2 * 3  # one variant per (combo, shard)
        # the old enumeration would have been stuck on shard_of(base):
        budget = 16 * 2
        low_bits_only = {shard_of(key) for key in generator.keys()} | {
            (0x0A00000A ^ counter) >> 28 & 1 for counter in range(budget)
        }
        assert low_bits_only == {0}  # low counters never flip bit 28

    def test_budget_starved_case_is_reported_not_silent(self):
        """The regression: free entropy remains but the budget runs out
        — previously indistinguishable from an unreachable shard."""
        dim = AttackDimension("ip_src", 0x0A00000A, 1, 32)  # 31 free bits
        generator = self._generator([dim])

        def shard_of(key):  # shard 1 needs one exact 24-bit pattern
            return 1 if (key.get("ip_src") & 0xFFFFFF) == 0x123456 else 0

        report = generator.spread_coverage(2, shard_of, max_tries_per_shard=4)
        assert not report.complete
        assert report.budget_exhausted == 1  # entropy was left unexplored
        assert report.missed == {0: (1,)}
        assert len(report.keys) == report.reached_pairs
        assert report.coverage == pytest.approx(0.5)

    def test_tiny_spaces_are_exhausted_and_marked_unreachable(self):
        """Combinations whose whole free space fits the budget are fully
        enumerated: their misses are genuine, not budget artefacts."""
        dim = AttackDimension("tp_dst", 80, 16, 16)
        generator = self._generator([dim])
        report = generator.spread_coverage(
            4, lambda key: rss_hash(key.packed) % 4
        )
        # the deep-witness combos (0-1 free bits) cannot reach 4 shards
        assert not report.complete
        assert report.budget_exhausted == 0
        deep = {combo for combo, gaps in report.missed.items()}
        assert deep  # at least the zero/one-bit combos
        for combo, gaps in report.missed.items():
            assert len(gaps) >= 1

    def test_spread_keys_is_the_coverage_keys_list(self):
        dim = AttackDimension("tp_dst", 80, 8, 16)
        generator = self._generator([dim])
        shard_of = lambda key: rss_hash(key.packed) % 3
        report = generator.spread_coverage(3, shard_of)
        assert generator.spread_keys(3, shard_of) == report.keys
        assert len(report.combo_of) == len(report.keys)
        # combo_of groups variants of one combination contiguously
        assert report.combo_of == sorted(report.combo_of)

    def test_full_entropy_reaches_every_shard(self):
        report = self._generator([IP_DIM, DPORT_DIM]).spread_coverage(
            4, lambda key: rss_hash(key.packed) % 4
        )
        # only witnesses at (near-)full depth lack steering entropy
        assert report.coverage > 0.95
        assert report.budget_exhausted == 0
