"""Complexity guards for installs, sweeps and bursts, counted, never
timed.

An install costs O(1) in the size of the table it lands in, walks a
rule plan compiled once per flow-table version, packs nothing when its
key's packed form is cached and builds no per-field tuple; a sweep
costs O(1) while the idle floor is inside the timeout and O(entries)
when it is not, packing nothing even when it evicts every entry, a
burst of EMC hits O(burst) whatever the cache's size, an all-hit
model-replay tick no key hash at all, and the covert key list one check
per distinct value — see DESIGN.md's complexity contract.  The cost measure is
the interpreter's own call count (Python and builtin calls alike, via
``cProfile``), a pure function of the code path: no wall clock, nothing
to flake.  Growing the work 4x may grow the calls at most 4.5x; the
regression this pins (``entry_count`` recounting every subtable on every
install, one ``Subtable.__len__`` call each) read 16x here; the one
the burst guard pins (``MicroflowCache.occupancy`` recounting every set
on every burst) read 4x against its 1.1x.
"""

import cProfile
import pstats

import pytest

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import calico_attack_policy, kubernetes_attack_policy
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.flow.actions import Drop
from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.net.addresses import ip_to_int
from repro.ovs.switch import OvsSwitch
from repro.perf.costmodel import CostModel
from repro.perf.simulator import DataplaneSimulator
from repro.perf.workload import AttackerWorkload, VictimWorkload
from repro.vec import HAVE_NUMPY

TARGET = PolicyTarget(pod_ip=ip_to_int("10.0.9.10"), output_port=42,
                      tenant="mallory")
_POLICY, _DIMENSIONS = kubernetes_attack_policy()
RULES = KubernetesCms().compile(_POLICY, TARGET, OVS_FIELDS)
#: pairwise-distinct covert keys: every install adds one mask
COVERT = CovertStreamGenerator(_DIMENSIONS, dst_ip=TARGET.pod_ip).keys()
N = 100
MAX_GROWTH = 4.5


def _calls(work) -> int:
    profile = cProfile.Profile()
    profile.enable()
    work()
    profile.disable()
    return pstats.Stats(profile).total_calls


def _switch() -> OvsSwitch:
    switch = OvsSwitch(space=OVS_FIELDS, name="complexity")
    switch.add_rules(RULES)
    return switch


def _install(switch: OvsSwitch, count: int) -> None:
    for key in COVERT[:count]:
        assert switch.handle_miss(key, now=0.0) is not None
    assert (switch.mask_count, switch.megaflow_count) == (count, count)


def test_installs_do_not_pay_for_the_table_they_land_in():
    small, large = _switch(), _switch()
    calls_n = _calls(lambda: _install(small, N))
    calls_4n = _calls(lambda: _install(large, 4 * N))
    assert calls_4n <= MAX_GROWTH * calls_n, (calls_n, calls_4n)


def test_a_sweep_is_linear_in_live_entries():
    small, large = _switch(), _switch()
    _install(small, N)
    _install(large, 4 * N)
    # installed at 0.0 and refreshed since: the floor is outside the
    # timeout, so everything is visited, and nothing is evicted
    for switch in (small, large):
        for entry in switch.megaflow.entries():
            entry.refresh(8.0)
    calls_n = _calls(lambda: small.revalidator.sweep(now=10.5))
    calls_4n = _calls(lambda: large.revalidator.sweep(now=10.5))
    assert large.revalidator.evicted_total == 0
    assert large.megaflow_count == 4 * N
    assert calls_n < calls_4n <= MAX_GROWTH * calls_n, (calls_n, calls_4n)


def test_a_sweep_inside_the_idle_floor_iterates_no_subtable():
    small, large = _switch(), _switch()
    _install(small, N)
    _install(large, 4 * N)
    # nothing can be due 1 s after the oldest install: the sweep is
    # counted and returns, whatever the table holds
    calls_n = _calls(lambda: small.revalidator.sweep(now=1.0))
    calls_4n = _calls(lambda: large.revalidator.sweep(now=1.0))
    assert (small.revalidator.sweeps, large.revalidator.sweeps) == (1, 1)
    assert calls_n == calls_4n < N, (calls_n, calls_4n)


def _python_calls(work, *functions: str) -> int | list[int]:
    """Calls to each Python function, named ``"module/file.py:name"``,
    while ``work`` runs (a bare count for one function)."""
    profile = cProfile.Profile()
    profile.enable()
    work()
    profile.disable()
    stats = pstats.Stats(profile).stats.items()
    counts = []
    for function in functions:
        filename, name = function.split(":")
        counts.append(sum(
            calls for (file, _line, func), (_cc, calls, *_rest) in stats
            if func == name and file.endswith(filename)
        ))
    return counts[0] if len(counts) == 1 else counts


def test_the_rule_plan_is_compiled_once_per_table_version():
    switch = _switch()
    compiles = _python_calls(lambda: _install(switch, N),
                             "ovs/wildcarding.py:compile_rule_plan")
    assert compiles == 1

    def install_around_a_rule_change():
        for key in COVERT[N:N + 10]:
            switch.handle_miss(key, now=0.0)
        switch.add_rule(FlowRule(FlowMatch.wildcard(OVS_FIELDS), Drop()))
        for key in COVERT[N + 10:N + 20]:
            switch.handle_miss(key, now=0.0)

    compiles = _python_calls(install_around_a_rule_change,
                             "ovs/wildcarding.py:compile_rule_plan")
    assert compiles == 1


def _packed_keys(keys: list[FlowKey]) -> list[FlowKey]:
    """The keys again, each with its packed form cached."""
    return [FlowKey.from_tuple(OVS_FIELDS, key.values,
                               OVS_FIELDS.pack(key.values)) for key in keys]


def test_an_install_of_a_packed_key_packs_nothing():
    switch = _switch()
    _install(switch, 1)  # the plan is compiled outside the count
    keys = _packed_keys(COVERT[1:N])
    packs = _python_calls(
        lambda: [switch.handle_miss(key, now=0.0) for key in keys],
        "flow/fields.py:pack",
    )
    assert switch.megaflow_count == N
    assert packs == 0


def test_an_install_is_born_packed():
    """The megaflow is the walk's packed pair: no install builds or
    unpacks a per-field tuple, and the entry holding it is slotted."""
    switch = _switch()
    _install(switch, 1)
    keys = _packed_keys(COVERT[1:N])
    installed = []
    from_tuples, unpacks = _python_calls(
        lambda: installed.extend(switch.handle_miss(key, now=0.0)
                                 for key in keys),
        "flow/match.py:from_tuples", "flow/fields.py:unpack",
    )
    assert switch.megaflow_count == N
    assert (from_tuples, unpacks) == (0, 0)
    assert not any(hasattr(entry, "__dict__") for entry in installed)


def test_a_sweep_that_evicts_everything_packs_nothing():
    switch = _switch()
    _install(switch, N)
    packs = _python_calls(lambda: switch.revalidator.sweep(now=20.0),
                          "flow/fields.py:pack")
    assert switch.revalidator.evicted_total == N
    assert switch.megaflow_count == switch.mask_count == 0
    assert packs == 0


def test_covert_keys_check_each_value_once():
    dimensions = calico_attack_policy()[1]
    generator = CovertStreamGenerator(dimensions, dst_ip=TARGET.pod_ip)
    keys = []
    checks = _python_calls(lambda: keys.extend(generator.keys()),
                           "flow/fields.py:check")
    assert len(keys) == 8192
    # one check per flipped value, plus the pinned fields' base key
    assert checks <= sum(dim.prefix_len for dim in dimensions) + len(OVS_FIELDS)


def test_an_all_hit_model_replay_tick_hashes_no_flow_key():
    switch = _switch()
    simulator = DataplaneSimulator(
        switch=switch,
        cost_model=CostModel(),
        victim=VictimWorkload(offered_bps=1e9),
        # 1000-bit frames: 150 covert packets a tick, 1.5 laps
        attacker=AttackerWorkload(rate_bps=150e3, frame_bytes=125,
                                  start_time=0.0),
        covert_keys=COVERT[:N],
    )
    simulator.start()
    simulator.step()  # the ramp: N installs, hashed into the ledger
    assert switch.megaflow_count == N
    upcalls = switch.slow_path.upcalls
    hashes = _python_calls(simulator.step, "flow/key.py:__hash__")
    assert switch.slow_path.upcalls == upcalls  # all hits
    assert sum(e.hits for e in switch.megaflow.entries()) == 150 + 50
    assert hashes == 0


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_an_all_hit_burst_does_not_pay_for_the_size_of_the_emc():
    from repro.vec.engine import VecSwitch

    burst = COVERT[:256]

    def calls_with(emc_entries: int) -> int:
        switch = VecSwitch(space=OVS_FIELDS, name="complexity",
                           emc_entries=emc_entries)
        switch.add_rules(RULES)
        # install, then hit: the burst counted is the steady state
        for now in (0.0, 0.1, 0.2):
            switch.process_batch(burst, now=now, materialize=False)
        batches = []
        calls = _calls(lambda: batches.append(
            switch.process_batch(burst, now=0.3, materialize=False)
        ))
        assert batches[0].emc_hits == len(burst)
        return calls

    small, large = calls_with(8192), calls_with(32768)
    assert large <= 1.1 * small, (small, large)


@pytest.mark.parametrize("vec", [
    False,
    pytest.param(True, marks=pytest.mark.skipif(
        not HAVE_NUMPY, reason="numpy not installed")),
])
def test_an_all_hit_burst_neither_hashes_nor_compares_a_key(vec):
    """The EMC finds a slot by the key's packed int: an all-hit burst of
    ON trains — each key followed by an equal, distinct object, as a
    capture extracts them — hashes no key and compares none."""
    if vec:
        from repro.vec.engine import VecSwitch as cls
    else:
        cls = OvsSwitch
    switch = cls(space=OVS_FIELDS, name="complexity")
    switch.add_rules(RULES)
    burst = [copy for key in COVERT[:128] for copy in (
        key, FlowKey.from_tuple(OVS_FIELDS, key.values, key.packed))]
    for now in (0.0, 0.1):
        switch.process_batch(burst, now=now, materialize=False)
    batches = []
    hashes, compares = _python_calls(
        lambda: batches.append(
            switch.process_batch(burst, now=0.2, materialize=False)),
        "flow/key.py:__hash__", "flow/key.py:__eq__",
    )
    assert batches[0].emc_hits == len(burst) == 256
    assert (hashes, compares) == (0, 0)
