"""Tests for the dataplane simulator."""

import pytest

from repro.attack.analysis import AttackDimension
from repro.attack.packets import covert_keys_for_dimensions
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.attack.policy import kubernetes_attack_policy
from repro.flow.key import FlowKey
from repro.flow.fields import OVS_FIELDS
from repro.net.addresses import ip_to_int
from repro.perf.costmodel import KERNEL_PROFILE, CostModel
from repro.perf.factory import DatapathConfig, switch_for_profile
from repro.perf.simulator import DataplaneSimulator
from repro.perf.workload import AttackerWorkload, VictimWorkload


def _simulator(duration=20.0, start=5.0, rate_bps=2e6, events=None,
               telemetry=None, switch=None):
    switch = switch or switch_for_profile("kernel")
    policy, dims = kubernetes_attack_policy()
    target = PolicyTarget(pod_ip=ip_to_int("10.0.9.10"), output_port=3, tenant="mallory")
    rules = KubernetesCms().compile(policy, target)
    covert = covert_keys_for_dimensions(
        dims, pinned={"eth_type": 0x0800, "ip_dst": target.pod_ip, "ip_proto": 6,
                      "tp_src": 40000, "tp_dst": 40001}
    )
    victim_keys = [
        FlowKey(OVS_FIELDS, {"eth_type": 0x0800, "ip_src": 0x0A000100 + i,
                             "ip_dst": 0x0A000200, "ip_proto": 6, "tp_dst": 5201})
        for i in range(3)
    ]
    from repro.flow.actions import Output
    from repro.flow.match import MatchBuilder
    from repro.flow.rule import FlowRule
    switch.add_rule(FlowRule(MatchBuilder(OVS_FIELDS).ip_dst("10.0.2.0").build(), Output(7), priority=1))

    default_events = [(max(start - 1.0, 0.0), lambda sw: sw.add_rules(rules))]
    return DataplaneSimulator(
        switch=switch,
        cost_model=CostModel(),
        victim=VictimWorkload(offered_bps=1e9),
        attacker=AttackerWorkload(rate_bps=rate_bps, start_time=start),
        covert_keys=covert,
        victim_keys=victim_keys,
        events=events if events is not None else default_events,
        duration=duration,
        telemetry=telemetry,
    )


class TestValidation:
    def test_attacker_requires_covert_keys(self):
        with pytest.raises(ValueError):
            DataplaneSimulator(
                switch=switch_for_profile("kernel"),
                cost_model=CostModel(),
                victim=VictimWorkload(),
                attacker=AttackerWorkload(),
            )

    def test_positive_duration(self):
        with pytest.raises(ValueError):
            DataplaneSimulator(
                switch=switch_for_profile("kernel"),
                cost_model=CostModel(),
                victim=VictimWorkload(),
                duration=0,
            )


class TestNoAttackBaseline:
    def test_victim_gets_offered_rate(self):
        simulator = DataplaneSimulator(
            switch=switch_for_profile("kernel"),
            cost_model=CostModel(),
            victim=VictimWorkload(offered_bps=1e9),
            duration=10.0,
        )
        result = simulator.run()
        assert result.series.last("victim_throughput_bps") == pytest.approx(1e9, rel=0.02)
        assert result.series.last("masks") == 0


class TestAttackRun:
    def test_masks_ramp_after_start(self):
        result = _simulator(duration=20.0, start=5.0).run()
        masks = dict(zip(result.series.column("t"), result.series.column("masks")))
        assert masks[4.0] <= 2
        assert masks[20.0] >= 512

    def test_throughput_degrades(self):
        # 512 masks on a 1 Gbps offered load: a visible dent (the full
        # collapse needs the 8192-mask Calico surface, tested in the
        # experiment suite)
        result = _simulator(duration=25.0, start=5.0).run()
        pre = result.pre_attack_mean_bps()
        post = result.post_attack_mean_bps(settle=5.0)
        assert post < 0.85 * pre

    def test_attacker_cycles_accounted(self):
        result = _simulator(duration=15.0, start=5.0).run()
        assert result.series.last("attacker_cycles") > 0
        assert result.series.last("attacker_pps") > 0

    def test_emc_hit_rate_degrades_under_attack(self):
        result = _simulator(duration=20.0, start=5.0).run()
        series = result.series
        first = series.rows[2]
        last = series.rows[-1]
        emc_index = series.columns.index("emc_hit_rate")
        assert last[emc_index] <= first[emc_index]

    @pytest.mark.parametrize("victim_flows, ledger, active, rate", [
        (0, 0, False, 0.98),
        (128, 0, False, 0.98),
        (128, 512, False, 0.98),
        (128, 512, True, 0.98 * 0.4),
        (1024, 0, False, 0.98 * 0.25),
    ], ids=["no-flows", "fits", "inactive-attack-holds-no-slot",
            "active-attack-shares", "victim-over-capacity"])
    def test_emc_hit_rate_is_the_capacity_competition_model(
        self, victim_flows, ledger, active, rate
    ):
        """0.98 × min(1, EMC entries / competing flows) over the kernel
        profile's 256 entries; the attacker's ledger entries compete
        only while the attack is active."""
        simulator = DataplaneSimulator(
            switch=switch_for_profile("kernel"),
            cost_model=CostModel(),
            victim=VictimWorkload(concurrent_flows=victim_flows),
            duration=1.0,
        )
        assert simulator.switch.cache_capacity == 256
        simulator._attacker_entries = {(0, i): None for i in range(ledger)}
        assert simulator._emc_hit_rate(active) == rate

    def test_masks_sustained_by_refresh(self):
        # run long enough that the first-installed megaflows would idle
        # out (10s) unless the covert stream refreshed them
        result = _simulator(duration=30.0, start=5.0).run()
        assert result.series.last("masks") >= 512

    def test_degradation_summary_helpers(self):
        result = _simulator(duration=25.0, start=5.0).run()
        assert 0.0 < result.degradation() < 1.0
        assert result.final_mask_count() >= 512

    def test_no_attacker_post_mean_raises(self):
        simulator = DataplaneSimulator(
            switch=switch_for_profile("kernel"),
            cost_model=CostModel(),
            victim=VictimWorkload(),
            duration=5.0,
        )
        result = simulator.run()
        with pytest.raises(ValueError):
            result.post_attack_mean_bps()


@pytest.mark.parametrize("shards", [1, 4])
def test_the_revalidator_charge_follows_the_sweep_interval(shards):
    """Each tick charges every megaflow — on every shard — once per
    revalidator sweep, at the sweep interval the revalidator itself
    runs on (the model's rate: one coarse tick lets the switch take a
    single catch-up sweep)."""
    from repro.obs import Telemetry
    from repro.ovs.revalidator import SWEEP_INTERVAL

    telemetry = Telemetry()
    simulator = _simulator(
        duration=20.0, start=5.0, telemetry=telemetry,
        switch=DatapathConfig(KERNEL_PROFILE, shards=shards).build(),
    )
    simulator.start()
    per_flow = simulator.cost_model.cycles_revalidate_flow
    charged = 0.0
    while simulator.t < 10.0:
        simulator.step()
        megaflows = simulator.switch.megaflow_count
        layers = telemetry.profile.to_dict()["tree"]["children"]
        revalidate = sum(f["cycles"] for f in layers if f["name"] == "ovs")
        assert revalidate - charged == pytest.approx(
            megaflows * per_flow / SWEEP_INTERVAL * simulator.dt
        )
        charged = revalidate
    assert simulator.switch.megaflow_count > 512  # the attack's masks


class TestEvents:
    def test_events_clear_entry_maps(self):
        sim = _simulator(duration=12.0, start=2.0)
        flushed = []

        def spy(switch):
            flushed.append(switch.megaflow_count)

        sim.events.append((8.0, spy))
        sim.events.sort(key=lambda e: e[0])
        sim.run()
        assert flushed  # the event ran


class TestUpcallBurstEvents:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_model_replay_ramp_shows_its_installs(self, shards):
        """The model replay installs through ``handle_miss``, which the
        fast path's ``stats.upcalls`` never sees: the burst events diff
        the slow path's own counter, so they add up to every upcall of
        the run — the attack's 512 installs, not only the victim's."""
        from repro.obs import Telemetry
        from repro.ovs.pmd import shard_views
        from repro.scenario.presets import SCENARIOS
        from repro.scenario.session import Session

        telemetry = Telemetry()
        result = Session(
            SCENARIOS.get("k8s").evolve(
                duration=20.0, attack_start=5.0, shards=shards
            ),
            telemetry=telemetry,
        ).run()
        bursts = [event.args["upcalls"] for event in telemetry.trace.events()
                  if event.name == "ovs.upcall.burst"]
        handled = sum(shard.slow_path.upcalls
                      for shard in shard_views(result.datapath))
        assert sum(bursts) == handled > 512
        assert handled > result.datapath.stats.upcalls
        assert max(bursts) > 100  # the ramp is visible as a burst
