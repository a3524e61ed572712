"""The cloud network: nodes + fabric + end-to-end delivery + CMS hookup.

This is the integration surface the examples use: provision pods,
attach tenant policies through a CMS, then send crafted packets and
observe both the verdicts and the megaflow state of every node.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cms.base import CloudManagementSystem
from repro.flow.actions import Output
from repro.flow.extract import flow_key_from_packet
from repro.flow.fields import OVS_FIELDS, FieldSpace
from repro.net.ipv4 import IPv4
from repro.net.layers import Layer
from repro.ovs.switch import PacketResult
from repro.topo.fabric import Fabric
from repro.topo.node import UPLINK_PORT, Node, Pod


@dataclass
class DeliveryResult:
    """End-to-end outcome of one packet."""

    delivered: bool
    #: per-hop OVS results, in path order (source node, then dest node)
    hops: list[PacketResult]
    dst_pod: Pod | None
    #: where the packet stopped: "delivered", "dropped@<node>", "no-route"
    disposition: str

    @property
    def total_tuples_scanned(self) -> int:
        """Aggregate TSS scan work across hops (the attack's cost lever)."""
        return sum(hop.tuples_scanned for hop in self.hops)


class CloudNetwork:
    """A set of nodes joined by a fabric, with CMS-driven policies."""

    def __init__(self, space: FieldSpace = OVS_FIELDS) -> None:
        self.space = space
        self.fabric = Fabric()
        self.nodes: dict[str, Node] = {}
        self.clock = 0.0

    def add_node(self, name: str, node: Node | None = None) -> Node:
        """Create (or adopt) a node and attach it to the fabric."""
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        node = node or Node(name, space=self.space)
        self.nodes[name] = node
        self.fabric.attach(name)
        return node

    def provision_pod(self, node_name: str, pod_name: str, ip: str | int,
                      tenant: str) -> Pod:
        """Provision a pod on a node."""
        return self.nodes[node_name].provision_pod(pod_name, ip, tenant)

    def find_pod(self, pod_name: str) -> tuple[Node, Pod]:
        """Locate a pod by name across all nodes."""
        for node in self.nodes.values():
            if pod_name in node.pods:
                return node, node.pods[pod_name]
        raise KeyError(f"no pod named {pod_name!r}")

    def node_for_ip(self, ip: int) -> tuple[Node, Pod] | None:
        """Locate the node hosting an address."""
        for node in self.nodes.values():
            pod = node.pod_by_ip(ip)
            if pod is not None:
                return node, pod
        return None

    def attach_policy(self, cms: CloudManagementSystem, policy: object,
                      pod_name: str) -> int:
        """Validate + compile a tenant policy and install it at the
        pod's node; returns the number of rules installed.

        This is the "(i) capability to define ACLs between our pods/VMs"
        the attack needs — a completely ordinary CMS operation.
        """
        node, pod = self.find_pod(pod_name)
        rules = cms.compile(policy, pod.policy_target(), self.space)
        node.switch.add_rules(rules)
        return len(rules)

    def advance_clock(self, now: float) -> None:
        """Advance every node's dataplane clock.  Clamped like the
        switch clocks it drives: a stale ``now`` must not rewind the
        network clock while every node ignores it."""
        self.clock = max(self.clock, now)
        for node in self.nodes.values():
            node.switch.advance_clock(now)

    # -- end-to-end delivery ---------------------------------------------------

    def send(self, packet: Layer | bytes, from_pod: str,
             now: float | None = None) -> DeliveryResult:
        """Deliver a packet from a pod to the destination its IPv4
        header names, through both hypervisor switches and the fabric:
        the one-packet burst of :meth:`send_burst`."""
        return self.send_burst([packet], from_pod, now)[0]

    def send_burst(self, packets: list[Layer | bytes], from_pod: str,
                   now: float | None = None) -> list[DeliveryResult]:
        """Deliver a burst of packets from one pod, each to the
        destination its IPv4 header names, through both hypervisor
        switches and the fabric.

        All first hops run as one ``process_batch`` on the source
        node's switch, then the surviving packets' second hops as one
        batch per destination node.  Each switch sees exactly the keys
        it would see from a per-packet loop, in the same order, so
        results and cache state are identical — only the per-packet
        clock/revalidator overhead is amortised.  Results come back in
        input order.
        """
        if now is None:
            now = self.clock
        src_node, src_pod = self.find_pod(from_pod)
        parsed: list[Layer] = []
        for packet in packets:
            if isinstance(packet, (bytes, bytearray)):
                from repro.net.parse import parse_ethernet
                packet = parse_ethernet(bytes(packet))
            parsed.append(packet)
        results: list[DeliveryResult | None] = [None] * len(parsed)
        plan: list[tuple[int, Layer, Node, Pod]] = []
        hop1_keys = []
        for index, packet in enumerate(parsed):
            ip = packet.get_layer(IPv4)
            located = self.node_for_ip(ip.dst) if ip is not None else None
            if located is None:
                results[index] = DeliveryResult(False, [], None, "no-route")
                continue
            dst_node, dst_pod = located
            plan.append((index, packet, dst_node, dst_pod))
            hop1_keys.append(
                flow_key_from_packet(
                    packet, in_port=src_pod.port_no, space=self.space
                )
            )
        if not plan:
            return [result for result in results if result is not None]
        batch1 = src_node.switch.process_batch(hop1_keys, now=now)
        # stage the cross-fabric survivors per destination node, keeping
        # input order within each group (and the fabric transmits in
        # input order, exactly like the per-packet loop)
        hop2_groups: dict[str, list] = {}
        for (index, packet, dst_node, dst_pod), result in zip(plan, batch1):
            hops = [result]
            if not result.forwarded:
                results[index] = DeliveryResult(
                    False, hops, dst_pod, f"dropped@{src_node.name}"
                )
                continue
            if dst_node is src_node:
                results[index] = self._local_delivery(
                    result, hops, dst_pod, src_node
                )
                continue
            frame_len = len(packet.build())
            if not self.fabric.transmit(
                src_node.name, dst_node.name, frame_len
            ):
                results[index] = DeliveryResult(False, hops, dst_pod, "no-route")
                continue
            key = flow_key_from_packet(
                packet, in_port=UPLINK_PORT, space=self.space
            )
            hop2_groups.setdefault(dst_node.name, []).append(
                (index, dst_node, dst_pod, hops, key)
            )
        for name, group in hop2_groups.items():
            batch2 = self.nodes[name].switch.process_batch(
                [staged[4] for staged in group], now=now
            )
            for (index, dst_node, dst_pod, hops, _key), result in zip(
                group, batch2
            ):
                hops.append(result)
                if not result.forwarded:
                    results[index] = DeliveryResult(
                        False, hops, dst_pod, f"dropped@{dst_node.name}"
                    )
                else:
                    results[index] = self._local_delivery(
                        result, hops, dst_pod, dst_node
                    )
        return [result for result in results if result is not None]

    def _local_delivery(self, result: PacketResult, hops: list[PacketResult],
                        dst_pod: Pod, node: Node) -> DeliveryResult:
        action = result.action
        if isinstance(action, Output):
            port = node.ports.get(action.port)
            if port is not None:
                port.tx_packets += 1
                if port.pod is dst_pod or (port.pod and port.pod.ip == dst_pod.ip):
                    return DeliveryResult(True, hops, dst_pod, "delivered")
            return DeliveryResult(False, hops, dst_pod, f"misdelivered@{node.name}")
        # a generic Allow without a port resolves via baseline forwarding
        return DeliveryResult(True, hops, dst_pod, "delivered")


def two_server_topology(
    space: FieldSpace = OVS_FIELDS,
    victim_tenant: str = "alice",
    attacker_tenant: str = "mallory",
) -> tuple[CloudNetwork, dict[str, Pod]]:
    """The paper's Fig. 1 setup: two servers, a fabric, and per-server
    pods for a victim tenant and the attacker (who, like any tenant,
    has pods on both servers)."""
    network = CloudNetwork(space=space)
    network.add_node("server1")
    network.add_node("server2")
    pods = {
        "victim-a": network.provision_pod("server1", "victim-a", "10.0.2.10", victim_tenant),
        "victim-b": network.provision_pod("server2", "victim-b", "10.0.2.20", victim_tenant),
        "mallory-a": network.provision_pod("server1", "mallory-a", "10.0.9.10", attacker_tenant),
        "mallory-b": network.provision_pod("server2", "mallory-b", "10.0.9.20", attacker_tenant),
    }
    return network, pods
