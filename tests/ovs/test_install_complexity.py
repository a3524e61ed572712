"""Complexity guards for the slow path, counted, never timed.

An install costs O(1) in the size of the table it lands in and a sweep
O(entries) — see DESIGN.md's complexity contract.  The cost measure is
the interpreter's own call count (Python and builtin calls alike, via
``cProfile``), a pure function of the code path: no wall clock, nothing
to flake.  Growing the work 4x may grow the calls at most 4.5x; the
regression this pins (``entry_count`` recounting every subtable on every
install, one ``Subtable.__len__`` call each) read 16x here.
"""

import cProfile
import pstats

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.flow.fields import OVS_FIELDS
from repro.net.addresses import ip_to_int
from repro.ovs.switch import OvsSwitch

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
    # well inside the idle timeout: everything is visited, nothing evicted
    calls_n = _calls(lambda: small.revalidator.sweep(now=1.0))
    calls_4n = _calls(lambda: large.revalidator.sweep(now=1.0))
    assert large.revalidator.evicted_total == 0
    assert large.megaflow_count == 4 * N
    assert calls_4n <= MAX_GROWTH * calls_n, (calls_n, calls_4n)
