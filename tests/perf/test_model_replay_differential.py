"""The model replay served in runs, held to the per-packet loop it
replaced: two simulators take the same generated campaign — one runs
``DataplaneSimulator._send_covert``, the other a transcription of the
old ``for _ in range(due)`` body made of public calls only — and every
float and counter either of them can leave behind must agree bit for
bit.  The loop is the oracle, not a second code path: it lives here.

Plus the rule the run charge rests on: ``add_repeated`` returns what
the literal ``+=`` loop returns, for any finite floats.
"""

from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.net.addresses import ip_to_int
from repro.ovs.pmd import shard_views
from repro.perf.costmodel import CostModel
from repro.perf.factory import PROFILES, DatapathConfig
from repro.perf.simulator import DataplaneSimulator
from repro.perf.workload import AttackerWorkload, VictimWorkload
from repro.util.floatsum import add_repeated

TARGET = PolicyTarget(pod_ip=ip_to_int("10.0.9.10"), output_port=42,
                      tenant="mallory")
_POLICY, _DIMENSIONS = kubernetes_attack_policy()
RULES = KubernetesCms().compile(_POLICY, TARGET, OVS_FIELDS)
#: pairwise-distinct covert keys, one mask each
COVERT = CovertStreamGenerator(_DIMENSIONS, dst_ip=TARGET.pod_ip).keys()
VICTIMS = [
    FlowKey(OVS_FIELDS, {"eth_type": 0x0800, "ip_src": 0x0A000100 + i,
                         "ip_dst": 0x0A000200, "ip_proto": 6, "tp_dst": 5201})
    for i in range(2)
]
#: one covert packet is 1000 bits, so ``rate_bps = due * 1000`` sends
#: ``due`` packets a one-second tick
COVERT_FRAME_BYTES = 125


def _oracle_send_covert(sim, t0, t1):
    """The per-packet model replay as it stood before the run loop:
    one ledger ``get``, one ``refresh`` or ``handle_miss``, one float
    add and one bucket charge per covert packet, in packet order."""
    shards = sim._shards
    cycles_by_shard = [0.0] * len(shards)
    if not sim.covert_gate:
        return 0, cycles_by_shard
    due = sim.attacker.packets_due(t0, t1)
    if due <= 0:
        return 0, cycles_by_shard
    keys = sim.covert_keys
    mid = t0 + (t1 - t0) / 2
    cost_model = sim.cost_model
    ranked = sim.switch.scan_order == "ranked"
    ranked_hit_costs = [
        cost_model.megaflow_hit_cost(view.expected_scan_depth(), view.staged)
        for view in shards
    ] if ranked else []
    reta_dp = sim._reta_dp
    multi = reta_dp is not None and len(shards) > 1
    charge_buckets = multi and reta_dp.rebalancer.enabled
    entries = sim._attacker_entries
    for _ in range(due):
        key = keys[sim._covert_cursor % len(keys)]
        sim._covert_cursor += 1
        bucket = reta_dp.bucket_of(key) if multi else 0
        shard = reta_dp.reta[bucket] if multi else 0
        view = shards[shard]
        entry = entries.get((shard, key))
        if entry is not None and entry.alive:
            entry.refresh(t1)
            cost = (
                ranked_hit_costs[shard] if ranked
                else cost_model.expected_megaflow_hit_cost(view.mask_count)
            )
        else:
            installed = sim.switch.handle_miss(key, now=mid)
            if installed is not None:
                entries[(shard, key)] = installed
            cost = cost_model.miss_cost(
                view.mask_count, rules_examined=view.rule_count
            )
        cycles_by_shard[shard] += cost
        if charge_buckets:
            reta_dp.record_bucket_cycles(bucket, cost)
    return due, cycles_by_shard


class _Recording(DataplaneSimulator):
    """Keeps what every ``_send_covert`` returned."""

    oracle = False

    def _send_covert(self, t0, t1):
        sent = (
            _oracle_send_covert(self, t0, t1) if self.oracle
            else super()._send_covert(t0, t1)
        )
        self.sent.append(sent)
        return sent


class _Oracle(_Recording):
    oracle = True


class _EvictingLimit:
    """An install guard holding the table to ``limit`` entries by
    evicting the oldest — so a ``handle_miss`` kills an entry some
    later slot of the same tick still points at."""

    def __init__(self, limit):
        self.limit = limit

    def __call__(self, context):
        cache = context.cache
        if cache.entry_count >= self.limit:
            cache.remove_entry(cache.entries()[0])
        return None


def _build(cls, config):
    shards = config["shards"]
    alb = config["alb"] and shards > 1
    profile = replace(
        PROFILES.get("netdev"),
        idle_timeout=config["idle_timeout"],
        flow_limit=6 if config["limit"] == "reject" else 200_000,
    )
    datapath = DatapathConfig(
        profile, space=OVS_FIELDS, shards=shards, reta_size=16,
        staged=config["staged"], scan_order=config["scan_order"],
        rebalance_interval=2.0 if alb else None,
    ).build()
    datapath.add_rules(RULES)
    if config["limit"] == "evict":
        datapath.add_install_guard(_EvictingLimit(6))
    keys = list(COVERT[:config["n_keys"]])
    if config["duplicate"]:
        keys.append(keys[0])
    laps = iter(range(1, 1 << 30))

    def reprobe():
        # a new list object each time, rotated so indices move too
        k = next(laps) % len(keys)
        return keys[k:] + keys[:k]

    sim = cls(
        switch=datapath,
        cost_model=CostModel(),
        victim=VictimWorkload(offered_bps=1e9),
        attacker=AttackerWorkload(
            rate_bps=config["due"] * COVERT_FRAME_BYTES * 8.0,
            frame_bytes=COVERT_FRAME_BYTES, start_time=0.0,
        ),
        covert_keys=keys,
        victim_keys=VICTIMS,
        covert_refresh=reprobe,
        reprobe_interval=config["reprobe_interval"],
    )
    sim.sent = []
    sim.start()
    return sim


def _apply(sim, op):
    """One generated step: a perturbation, then a tick."""
    if op == "flush":
        sim.events.append((sim.t, lambda switch: switch.invalidate_caches()))
    elif op == "quiet_event":
        # an event that flushes nothing: the ledger is dropped while
        # its entries stay alive
        sim.events.append((sim.t, lambda switch: None))
    elif op == "remap":
        reta = getattr(sim.switch, "reta", None)
        if reta is not None:
            n_shards = len(sim.switch.shards)
            for bucket in range(0, len(reta), 3):
                reta[bucket] = (reta[bucket] + 1) % n_shards
    sim.covert_gate = op != "gated"
    sim.step()


def _state(sim):
    datapath = sim.switch
    shards = shard_views(datapath)
    return {
        "sent": [(n, [c.hex() for c in cycles]) for n, cycles in sim.sent],
        "bucket_cycles": [
            c.hex() for c in getattr(datapath, "bucket_cycles", [])
        ],
        "reta": list(getattr(datapath, "reta", [])),
        "ledger": sorted(
            (shard, key.packed, entry.hits, entry.last_used, entry.alive)
            for (shard, key), entry in sim._attacker_entries.items()
        ),
        "cached": [
            [(entry.match.masks, entry.match.values, entry.hits,
              entry.last_used, entry.alive)
             for entry in shard.megaflow.entries()]
            for shard in shards
        ],
        "subtables": [
            [(sub.masks, sub.hits, float(sub.rank_hits).hex())
             for sub in shard.megaflow.tss.subtables()]
            for shard in shards
        ],
        "cursor": sim._covert_cursor,
        "series": [
            [float(value).hex() for value in sim.series.column(column)]
            for column in sim.series.columns
        ],
    }


_configs = st.fixed_dictionaries({
    "shards": st.sampled_from([1, 4]),
    "alb": st.booleans(),
    "scan_order": st.sampled_from(["insertion", "ranked"]),
    "staged": st.booleans(),
    "limit": st.sampled_from([None, "reject", "evict"]),
    # 2.5 s lets entries a short lap misses idle out mid-campaign
    "idle_timeout": st.sampled_from([10.0, 2.5]),
    "n_keys": st.integers(1, 24),
    "duplicate": st.booleans(),
    # both sides of ``due < n`` and several laps a tick
    "due": st.integers(1, 60),
    "reprobe_interval": st.sampled_from([0.0, 3.0]),
})
_ops = st.lists(
    st.sampled_from(["tick", "tick", "tick", "flush", "quiet_event",
                     "remap", "gated"]),
    min_size=3, max_size=10,
)


def _regimes(sim, config):
    """Which ways out of the steady state one finished campaign took."""
    shards = shard_views(sim.switch)
    ledger = sim._attacker_entries.values()
    rebalancer = getattr(sim.switch, "rebalancer", None)
    return {
        regime for regime, reached in {
            "refreshed": any(entry.hits for entry in ledger),
            "reinstalled": sum(s.slow_path.upcalls for s in shards)
                > len(sim.covert_keys) + len(VICTIMS),
            "expired": any(s.megaflow.expired_total for s in shards),
            "dead in ledger": any(not entry.alive for entry in ledger),
            "rejected": any(s.slow_path.installs_skipped for s in shards),
            "reprobed": sim.reprobes > 0,
            "rebalanced": rebalancer is not None and rebalancer.rebalances > 0,
            "bucket charged": any(getattr(sim.switch, "bucket_cycles", [])),
            "several laps": config["due"] > 2 * len(sim.covert_keys),
        }.items() if reached
    }


def test_the_run_loop_leaves_what_the_packet_loop_left():
    reached = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_configs, _ops)
    def check(config, ops):
        new, oracle = _build(_Recording, config), _build(_Oracle, config)
        for op in ops:
            _apply(new, op)
            _apply(oracle, op)
            assert _state(new) == _state(oracle), (config, ops, op)
        assert len(new._attacker_entries) == len(oracle._attacker_entries)
        reached.update(_regimes(new, config))

    check()
    # a differential only of campaigns that leave the steady state:
    # every regime the run loop has a branch for is in the corpus
    assert all(reached[regime] >= 10 for regime in (
        "refreshed", "reinstalled", "expired", "dead in ledger", "rejected",
        "reprobed", "rebalanced", "bucket charged", "several laps",
    )), reached


_halves = st.integers(-(1 << 54), 1 << 54).map(lambda i: i / 2)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(_finite, _halves), st.one_of(_finite, _halves),
       st.integers(0, 300))
def test_add_repeated_is_the_literal_loop(total, cost, count):
    expected = total
    for _ in range(count):
        expected += cost
    assert add_repeated(total, cost, count).hex() == expected.hex()


def test_cost_model_charges_meet_the_closed_form_conditions():
    """The default constants are integers and the expected scan depth a
    half-integer, staged included — so a whole Calico campaign's
    charges (150 ticks of 3906 packets against 8193 masks) are sums of
    half-integers under 2**52, and a steady tick's charge is one
    multiply, not ``count`` adds."""
    model = CostModel()
    for staged in (False, True):
        cost = model.expected_megaflow_hit_cost(8193, staged)
        assert (2 * cost).is_integer()
        assert 150 * 3906 * cost < 2 ** 52
