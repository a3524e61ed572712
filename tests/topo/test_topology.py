"""Tests for nodes, fabric and the two-server cloud network."""

import pytest

from repro.cms.kubernetes import KubernetesCms
from repro.attack.policy import kubernetes_attack_policy, single_prefix_policy
from repro.net.ethernet import Ethernet
from repro.net.ipv4 import IPv4
from repro.net.l4 import Tcp
from repro.topo.fabric import Fabric
from repro.topo.network import CloudNetwork, two_server_topology
from repro.topo.node import UPLINK_PORT, Node


def _packet(src_ip, dst_ip, sport=40000, dport=5201):
    return (
        Ethernet(src="02:00:00:00:00:01", dst="02:00:00:00:00:02")
        / IPv4(src=src_ip, dst=dst_ip)
        / Tcp(sport=sport, dport=dport)
    )


class TestNode:
    def test_provision_pod_assigns_ports(self):
        node = Node("server1")
        pod = node.provision_pod("web", "10.0.2.10", tenant="alice")
        assert pod.port_no != UPLINK_PORT
        assert node.pod_by_ip(pod.ip) is pod
        assert node.ports[pod.port_no].pod is pod

    def test_duplicate_pod_rejected(self):
        node = Node("server1")
        node.provision_pod("web", "10.0.2.10", tenant="alice")
        with pytest.raises(ValueError):
            node.provision_pod("web", "10.0.2.11", tenant="alice")

    def test_baseline_forwarding_installed(self):
        node = Node("server1")
        assert len(node.switch.table) == 1  # the default route to the fabric
        node.provision_pod("web", "10.0.2.10", tenant="alice")
        assert len(node.switch.table) == 2  # + the pod's forwarding rule

    def test_policy_target(self):
        node = Node("server1")
        pod = node.provision_pod("web", "10.0.2.10", tenant="alice")
        target = pod.policy_target()
        assert target.pod_ip == pod.ip
        assert target.output_port == pod.port_no
        assert target.tenant == "alice"

    def test_default_route_optional(self):
        bare = Node("server1", install_default_route=False)
        assert len(bare.switch.table) == 0

    def test_mailbox_drains_in_delivery_order(self):
        node = Node("server1")
        node.enqueue(("covert", 10))
        node.enqueue(("migrate", "key"))
        assert node.drain_mailbox() == [("covert", 10), ("migrate", "key")]
        assert node.drain_mailbox() == []

    def test_accepts_sharded_datapath(self):
        from repro.ovs.switch import OvsSwitch
        from repro.perf.costmodel import KERNEL_PROFILE
        from repro.perf.factory import DatapathConfig

        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=2, seed=0
        ).dispatched(OvsSwitch)
        node = Node("server1", switch=datapath)
        node.provision_pod("web", "10.0.2.10", tenant="alice")
        # rule management broadcast to every shard
        assert all(shard.rule_count == 2 for shard in datapath.shards)


class TestFabric:
    def test_transmit_counts(self):
        fabric = Fabric()
        fabric.attach("a")
        fabric.attach("b")
        assert fabric.transmit("a", "b", 1500)
        assert fabric.links["a"].tx_packets == 1
        assert fabric.links["b"].rx_bytes == 1500

    def test_unknown_node_undeliverable(self):
        fabric = Fabric()
        fabric.attach("a")
        assert not fabric.transmit("a", "ghost", 100)
        assert fabric.undeliverable == 1

    def test_attach_idempotent(self):
        fabric = Fabric()
        first = fabric.attach("a")
        assert fabric.attach("a") is first

    def test_transmit_many_counts_every_frame(self):
        fabric = Fabric()
        fabric.attach("a")
        fabric.attach("b")
        assert fabric.transmit_many("a", "b", 100, 64)
        assert fabric.links["a"].tx_packets == 100
        assert fabric.links["b"].rx_bytes == 6400
        assert fabric.delivered == 100
        assert fabric.transmit_many("a", "b", 0, 64)  # no-op burst

    def test_detach_makes_node_undeliverable(self):
        fabric = Fabric()
        fabric.attach("a")
        fabric.attach("b")
        assert fabric.detach("b")
        assert not fabric.detach("b")  # already gone
        assert not fabric.transmit_many("a", "b", 7, 64)
        assert fabric.undeliverable == 7

    def test_detach_keeps_traffic_history_in_totals(self):
        fabric = Fabric()
        fabric.attach("a")
        fabric.attach("b")
        fabric.transmit_many("a", "b", 10, 100)
        fabric.detach("a")
        counters = fabric.counters()
        # the detached node's tx history stays in the fabric-wide sums
        assert counters["tx_packets"] == 10
        assert counters["tx_bytes"] == 1000
        assert counters["delivered"] == 10
        assert counters["nodes"] == 1
        # a second attach/detach lifetime merges, not overwrites
        fabric.attach("a")
        fabric.transmit_many("a", "b", 5, 100)
        fabric.detach("a")
        assert fabric.counters()["tx_packets"] == 15

    def test_counters_snapshot(self):
        fabric = Fabric()
        fabric.attach("a")
        fabric.attach("b")
        fabric.transmit("a", "b", 1500)
        fabric.transmit("a", "ghost", 100)
        counters = fabric.counters()
        assert counters == {
            "nodes": 2,
            "delivered": 1,
            "undeliverable": 1,
            "tx_packets": 1,
            "tx_bytes": 1500,
        }


class TestCloudNetwork:
    def test_two_server_topology_shape(self):
        network, pods = two_server_topology()
        assert set(network.nodes) == {"server1", "server2"}
        assert len(pods) == 4
        assert pods["victim-a"].node_name == "server1"
        assert pods["mallory-b"].node_name == "server2"

    def test_cross_node_delivery(self):
        network, pods = two_server_topology()
        result = network.send(_packet("10.0.2.10", "10.0.2.20"), from_pod="victim-a")
        assert result.delivered
        assert result.disposition == "delivered"
        assert len(result.hops) == 2
        assert network.fabric.delivered == 1

    def test_same_node_delivery(self):
        network, pods = two_server_topology()
        network.provision_pod("server1", "victim-c", "10.0.2.11", "alice")
        result = network.send(_packet("10.0.2.11", "10.0.2.10"), from_pod="victim-c")
        assert result.delivered
        assert len(result.hops) == 1

    def test_unroutable_destination(self):
        network, _pods = two_server_topology()
        result = network.send(_packet("10.0.2.10", "99.99.99.99"), from_pod="victim-a")
        assert not result.delivered
        assert result.disposition == "no-route"

    def test_non_ip_packet_unroutable(self):
        network, _pods = two_server_topology()
        from repro.net.arp import Arp
        result = network.send(Ethernet() / Arp(), from_pod="victim-a")
        assert result.disposition == "no-route"

    def test_duplicate_node_rejected(self):
        network = CloudNetwork()
        network.add_node("a")
        with pytest.raises(ValueError):
            network.add_node("a")

    def test_find_pod_unknown(self):
        network, _pods = two_server_topology()
        with pytest.raises(KeyError):
            network.find_pod("ghost")

    def test_send_accepts_raw_bytes(self):
        network, _pods = two_server_topology()
        frame = _packet("10.0.2.10", "10.0.2.20").build()
        assert network.send(frame, from_pod="victim-a").delivered


class TestSendBurst:
    """send_burst must be the per-packet send loop, batched."""

    def _attacked(self):
        from repro.attack.packets import CovertStreamGenerator

        network, pods = two_server_topology()
        policy, dims = kubernetes_attack_policy()
        network.attach_policy(KubernetesCms(), policy, "mallory-b")
        generator = CovertStreamGenerator(dims, dst_ip=pods["mallory-b"].ip)
        packets = [
            generator.packet_for_key(key) for key in generator.keys()[:96]
        ]
        return network, packets

    def test_burst_matches_sequential_sends(self):
        loop_net, packets = self._attacked()
        loop_results = [
            loop_net.send(p, from_pod="mallory-a") for p in packets
        ]
        burst_net, packets = self._attacked()
        burst_results = burst_net.send_burst(packets, from_pod="mallory-a")
        assert len(burst_results) == len(loop_results)
        for a, b in zip(loop_results, burst_results):
            assert (a.delivered, a.disposition) == (b.delivered, b.disposition)
            assert [h.tuples_scanned for h in a.hops] == [
                h.tuples_scanned for h in b.hops
            ]
        for name in ("server1", "server2"):
            loop_switch = loop_net.nodes[name].switch
            burst_switch = burst_net.nodes[name].switch
            assert burst_switch.mask_count == loop_switch.mask_count
            assert burst_switch.stats == loop_switch.stats
        assert burst_net.fabric.counters() == loop_net.fabric.counters()

    def test_burst_mixes_delivered_dropped_and_unroutable(self):
        network, _packets = self._attacked()
        batch = [
            _packet("10.0.2.10", "10.0.2.20"),   # cross-node delivery
            _packet("10.0.2.10", "99.99.99.99"),  # no route
            _packet("10.0.2.10", "10.0.9.20"),   # ACL outcome at server2
        ]
        results = network.send_burst(batch, from_pod="victim-a")
        assert [r.disposition for r in results] == [
            network.send(p, from_pod="victim-a").disposition for p in batch
        ]

    def test_burst_accepts_raw_bytes(self):
        network, _pods_unused = self._attacked()
        frame = _packet("10.0.2.10", "10.0.2.20").build()
        results = network.send_burst([frame], from_pod="victim-a")
        assert results[0].delivered

    def test_empty_burst(self):
        network, _ = self._attacked()
        assert network.send_burst([], from_pod="mallory-a") == []


class TestPolicyEnforcement:
    def test_default_deny_after_policy(self):
        network, pods = two_server_topology()
        policy, _dims = single_prefix_policy("10.0.2.0/24")
        installed = network.attach_policy(KubernetesCms(), policy, "mallory-b")
        assert installed == 2
        # victim subnet allowed
        allowed = network.send(_packet("10.0.2.10", "10.0.9.20"), from_pod="victim-a")
        assert allowed.delivered
        # spoofed outside source denied at the destination node
        denied = network.send(_packet("172.16.0.1", "10.0.9.20"), from_pod="mallory-a")
        assert not denied.delivered
        assert denied.disposition == "dropped@server2"

    def test_attack_policy_masks_accumulate_on_victim_node(self):
        from repro.attack.packets import CovertStreamGenerator

        network, pods = two_server_topology()
        policy, dims = kubernetes_attack_policy()
        network.attach_policy(KubernetesCms(), policy, "mallory-b")
        generator = CovertStreamGenerator(dims, dst_ip=pods["mallory-b"].ip)
        server2 = network.nodes["server2"]
        # replay a slice of the covert stream end to end (full 512 is
        # exercised by the integration test)
        for key in generator.keys()[:64]:
            packet = generator.packet_for_key(key)
            network.send(packet, from_pod="mallory-a")
        assert server2.switch.mask_count >= 64

    def test_clock_advance_propagates(self):
        network, _pods = two_server_topology()
        network.advance_clock(42.0)
        for node in network.nodes.values():
            assert node.switch.clock == 42.0
