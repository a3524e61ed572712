"""Tests for the malicious policy builders and the timed campaign
(:meth:`~repro.scenario.session.Session.simulator`)."""

import pytest

from repro.attack.analysis import reachable_mask_count
from repro.attack.policy import (
    calico_attack_policy,
    kubernetes_attack_policy,
    openstack_attack_security_group,
    single_prefix_policy,
)
from repro.cms.base import PolicyTarget
from repro.cms.calico import CalicoCms
from repro.cms.kubernetes import KubernetesCms
from repro.cms.openstack import OpenStackCms
from repro.net.addresses import ip_to_int
from repro.scenario import ScenarioResult, ScenarioSpec, Session

TARGET = PolicyTarget(pod_ip=ip_to_int("10.0.9.10"), output_port=3, tenant="mallory")


class TestPolicyBuilders:
    def test_kubernetes_policy_accepted_by_cms(self):
        policy, dims = kubernetes_attack_policy()
        rules = KubernetesCms().compile(policy, TARGET)  # must not raise
        assert len(rules) == 3  # 2 allows + default deny
        assert reachable_mask_count(dims) == 512

    def test_kubernetes_policy_has_two_single_field_entries(self):
        # "by setting only 2 ACL rules matching solely on the IP source
        # address and the L4 destination port"
        policy, _dims = kubernetes_attack_policy()
        assert len(policy.ingress) == 2
        ip_entry, port_entry = policy.ingress
        assert ip_entry.from_ and not ip_entry.ports
        assert port_entry.ports and not port_entry.from_

    def test_openstack_group_accepted_by_cms(self):
        group, dims = openstack_attack_security_group()
        rules = OpenStackCms().compile(group, TARGET)
        assert len(rules) == 3
        assert reachable_mask_count(dims) == 512

    def test_calico_policy_accepted_by_cms(self):
        policy, dims = calico_attack_policy()
        rules = CalicoCms().compile(policy, TARGET)
        assert len(rules) == 4  # 3 allows + default deny
        assert reachable_mask_count(dims) == 8192

    def test_calico_needs_source_port_surface(self):
        # the same three dimensions are not expressible in Kubernetes:
        # its object model simply has no source-port field
        _policy, dims = calico_attack_policy()
        fields = {d.field for d in dims}
        assert "tp_src" in fields
        assert not KubernetesCms().supports_source_ports

    def test_single_prefix_policy(self):
        policy, dims = single_prefix_policy("10.0.0.0/8")
        KubernetesCms().compile(policy, TARGET)
        assert reachable_mask_count(dims) == 8

    def test_custom_allow_values_respected(self):
        policy, dims = kubernetes_attack_policy(allow_ip="192.168.1.1", allow_port=8443)
        assert dims[0].allow_value == ip_to_int("192.168.1.1")
        assert dims[1].allow_value == 8443


def _spec(duration=30.0, start=10.0):
    return ScenarioSpec(
        surface="k8s", profile="kernel", victim_offered_bps=1e9,
        covert_rate_bps=2e6, attack_start=start, duration=duration,
    )


class TestCampaign:
    def _simulator(self, duration=30.0, start=10.0):
        session = Session(_spec(duration, start))
        return session.simulator(session.build_datapath())

    def test_masks_reach_cross_product(self):
        result = Session(_spec()).run()
        # 512 attack masks + the victim flows' baseline mask
        assert 512 <= result.final_mask_count() <= 515
        assert result.covert_packets == 512

    def test_injection_precedes_stream(self):
        """With no defense the policy injection is the one event, one
        second before the covert stream starts."""
        simulator = self._simulator(start=10.0)
        assert [when for when, _inject in simulator.events] == [
            pytest.approx(9.0)
        ]

    def test_prediction_attached(self):
        assert Session(_spec()).run().prediction.mask_count == 512

    def test_headline_format(self):
        text = Session(_spec()).run().headline()
        assert "masks=" in text and "Gbps" in text

    @pytest.mark.parametrize("pre, post, headline", [
        (1e9, 2.5e8, "masks=512 pre=1.00 Gbps post=0.250 Gbps "
                     "(25.0% of baseline)"),
        (None, 2.5e8, "masks=512 pre=n/a post=0.250 Gbps"),
        (1e9, None, "masks=512 pre=1.00 Gbps post=n/a"),
        (None, None, "masks=512 pre=n/a post=n/a"),
    ], ids=["both", "no-pre", "no-post", "neither"])
    def test_headline_reads_n_a_for_a_window_with_no_sample(
        self, pre, post, headline
    ):
        """A window the series holds no sample of (its mean raises
        ``ValueError``) reads ``n/a``, and the ratio is left out."""

        def mean(value):
            def window_mean():
                if value is None:
                    raise ValueError("no samples in window")
                return value
            return window_mean

        class Simulation:
            pre_attack_mean_bps = staticmethod(mean(pre))
            post_attack_mean_bps = staticmethod(mean(post))

            @staticmethod
            def final_mask_count():
                return 512

        result = ScenarioResult(spec=_spec(), simulation=Simulation())
        assert result.headline() == headline

    def test_throughput_drops_after_attack(self):
        sim = Session(_spec(duration=40.0, start=10.0)).run().simulation
        assert sim.pre_attack_mean_bps() > sim.post_attack_mean_bps()

    def test_masks_expire_when_stream_stops(self):
        """If the covert stream dies, the revalidator reclaims the masks
        within one idle timeout — the attack needs *sustained* feeding."""
        simulator = self._simulator(duration=60.0, start=10.0)
        # amputate the covert stream after t=25 by replacing packets_due
        original_due = simulator.attacker.packets_due

        def limited_due(t0, t1):
            if t0 >= 25.0:
                return 0
            return original_due(t0, t1)

        simulator.attacker = type(simulator.attacker)(
            rate_bps=simulator.attacker.rate_bps, start_time=10.0
        )
        object.__setattr__  # silence lint: dataclass is frozen, wrap instead
        simulator._send_covert_orig = simulator._send_covert

        def gated_send(t0, t1):
            if t0 >= 25.0:
                return 0, [0.0] * len(simulator._shards)
            return simulator._send_covert_orig(t0, t1)

        simulator._send_covert = gated_send
        result = simulator.run()
        assert result.series.last("masks") <= 2
