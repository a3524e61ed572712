"""Server nodes, pods and virtual ports."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.cms.base import PRIORITY_BASELINE_FORWARD, PolicyTarget
from repro.flow.actions import Output
from repro.flow.fields import OVS_FIELDS, FieldSpace
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.net.addresses import MacAddr, ip_to_int
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.ovs.switch import OvsSwitch
from repro.util.bits import ones

#: port number reserved for the node's fabric uplink
UPLINK_PORT = 1


@dataclass(frozen=True)
class Pod:
    """A pod/VM: the basic unit users deploy over the cloud."""

    name: str
    ip: int
    mac: MacAddr
    tenant: str
    node_name: str
    port_no: int

    def policy_target(self) -> PolicyTarget:
        """This pod's virtual port as a policy attachment point."""
        return PolicyTarget(
            pod_ip=self.ip,
            output_port=self.port_no,
            tenant=self.tenant,
            pod_name=self.name,
        )


@dataclass
class VirtualPort:
    """One OVS port: either a pod's vNIC or the fabric uplink."""

    port_no: int
    name: str
    pod: Pod | None = None
    rx_packets: int = 0
    tx_packets: int = 0


class Node:
    """A server node: one datapath plus its attached pods.

    ``switch`` is any :class:`~repro.scenario.datapath.Datapath` (rule
    management broadcasts on a sharded one), defaulting to a bare
    :class:`OvsSwitch`.  A new node installs its default route: IPv4
    traffic without a local destination goes to the fabric uplink.
    """

    def __init__(
        self,
        name: str,
        space: FieldSpace = OVS_FIELDS,
        switch: "OvsSwitch | None" = None,
    ) -> None:
        self.name = name
        self.space = space
        self.switch = switch or OvsSwitch(space=space, name=f"{name}-ovs")
        self.ports: dict[int, VirtualPort] = {
            UPLINK_PORT: VirtualPort(UPLINK_PORT, f"{name}-uplink")
        }
        self.pods: dict[str, Pod] = {}
        self._next_port = UPLINK_PORT + 1
        self._mac_counter = 0
        # the default route (per-pod rules outrank it)
        self.switch.add_rule(
            FlowRule(
                match=FlowMatch(space, {"eth_type": (ETHERTYPE_IPV4, ones(16))})
                if "eth_type" in space
                else FlowMatch.wildcard(space),
                action=Output(UPLINK_PORT),
                priority=0,
                comment=f"{name}: default route to fabric",
            )
        )

    def provision_pod(self, name: str, ip: str | int, tenant: str) -> Pod:
        """Create a pod, attach its port and install baseline forwarding
        (ip_dst == pod → output to pod port)."""
        if name in self.pods:
            raise ValueError(f"pod {name!r} already exists on {self.name}")
        ip_value = ip_to_int(ip)
        self._mac_counter += 1
        # crc32, not builtin hash(): node names must map to the same
        # locally-administered MAC byte in every process (pcap replays
        # and fleet runs compare frames across runs)
        node_byte = zlib.crc32(self.name.encode("utf-8")) & 0xFF
        mac = MacAddr(0x02_00_00_00_00_00 | node_byte << 16 | self._mac_counter)
        port_no = self._next_port
        self._next_port += 1
        pod = Pod(
            name=name,
            ip=ip_value,
            mac=mac,
            tenant=tenant,
            node_name=self.name,
            port_no=port_no,
        )
        self.ports[port_no] = VirtualPort(port_no, f"{name}-eth0", pod=pod)
        self.pods[name] = pod
        self.switch.add_rule(
            FlowRule(
                match=FlowMatch(
                    self.space,
                    {
                        "eth_type": (ETHERTYPE_IPV4, ones(16)),
                        "ip_dst": (ip_value, ones(32)),
                    },
                ),
                action=Output(port_no),
                priority=PRIORITY_BASELINE_FORWARD,
                tenant=tenant,
                comment=f"baseline forwarding: {name}",
            )
        )
        return pod

    def pod_by_ip(self, ip: int) -> Pod | None:
        """The local pod owning an address, if any."""
        for pod in self.pods.values():
            if pod.ip == ip:
                return pod
        return None

    def __repr__(self) -> str:
        return f"Node({self.name}: {len(self.pods)} pods, {self.switch!r})"
