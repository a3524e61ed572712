"""Attacker mobility over the fleet: who poisons which node, when.

The paper's attack is measured against one hypervisor; at fleet scale
the operational question is the *walk* — a tenant with pods on many
nodes can point its covert stream anywhere its pods live.  A mobility
policy turns the fleet shape into per-node **activity windows**, and
:class:`ScheduledAttacker` replays the covert stream only inside them,
with arithmetic bit-identical to
:class:`~repro.perf.workload.AttackerWorkload` on the half-open window
``[start, inf)`` — which is what makes a one-node ``static`` fleet
series-identical to a plain :class:`~repro.scenario.session.Session`
run.

Policies (the ``mobility`` axis of a :class:`~repro.fleet.spec.
FleetSpec`):

* ``static`` — the single-node baseline: node 0 from ``attack_start``
  onward, nobody else;
* ``rolling`` — one node at a time, ``dwell`` seconds each, cycling
  round the fleet (the "walk the datacenter" threat: per-node damage
  decays by one idle timeout after the attacker moves on);
* ``staggered`` — a ramp: node ``i`` joins at ``attack_start +
  i·stagger`` and never leaves (the attacker recruiting capacity);
* ``coordinated`` — every node at once from ``attack_start`` (the
  upper bound; covert bandwidth scales with the fleet).

Whatever the mobility, each node's covert payload comes from its own
:meth:`~repro.scenario.session.Session.simulator` — so the
``spread_keys`` per-shard payloads (``attacker_strategy="spread"``,
with or without live-RETA re-probing) ride along unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.util.registry import Registry

#: an activity window [start, end)
Window = tuple[float, float]

INFINITY = float("inf")


@dataclass(frozen=True)
class ScheduledAttacker:
    """An attacker workload active only inside explicit windows.

    Duck-type compatible with :class:`~repro.perf.workload.
    AttackerWorkload` (``rate_pps`` / ``start_time`` / ``active_at`` /
    ``packets_due``), and arithmetically identical to it on a single
    ``[start, inf)`` window — pinned by tests.
    """

    rate_bps: float = 2e6
    frame_bytes: int = 64
    #: sorted, non-overlapping [start, end) windows
    windows: tuple[Window, ...] = ()

    @property
    def rate_pps(self) -> float:
        return self.rate_bps / (self.frame_bytes * 8)

    @property
    def start_time(self) -> float:
        """First activity (``inf`` for a node the walk never visits)."""
        return self.windows[0][0] if self.windows else INFINITY

    def active_at(self, t: float) -> bool:
        return any(lo <= t < hi for lo, hi in self.windows)

    def packets_due(self, t0: float, t1: float) -> int:
        """Covert packets sent within ``[t0, t1)`` — the per-window sum
        of :meth:`AttackerWorkload.packets_due`'s expression."""
        due = 0
        for lo, hi in self.windows:
            begin = max(t0, lo)
            end = min(t1, hi)
            if end <= begin:
                continue
            due += int(round((end - begin) * self.rate_pps))
        return due


def merge_windows(windows: Sequence[Window]) -> tuple[Window, ...]:
    """Sort and coalesce overlapping/adjacent windows; empty ones drop."""
    live = sorted((lo, hi) for lo, hi in windows if hi > lo)
    merged: list[Window] = []
    for lo, hi in live:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


#: a policy maps the fleet shape to per-node windows:
#: (nodes, attack_start, duration, dwell, stagger) -> [windows per node]
MobilityPolicy = Callable[[int, float, float, float, float],
                          list[tuple[Window, ...]]]

MOBILITY: Registry[MobilityPolicy] = Registry("mobility policy")


@MOBILITY.register("static")
def static_mobility(nodes: int, attack_start: float, duration: float,
                    dwell: float, stagger: float) -> list[tuple[Window, ...]]:
    """Node 0 only, from ``attack_start`` on — the paper's setting."""
    plan: list[tuple[Window, ...]] = [((attack_start, INFINITY),)]
    plan.extend(() for _ in range(nodes - 1))
    return plan


@MOBILITY.register("coordinated")
def coordinated_mobility(nodes: int, attack_start: float, duration: float,
                         dwell: float, stagger: float
                         ) -> list[tuple[Window, ...]]:
    """Every node at once (covert bandwidth scales with the fleet)."""
    return [((attack_start, INFINITY),) for _ in range(nodes)]


@MOBILITY.register("rolling")
def rolling_mobility(nodes: int, attack_start: float, duration: float,
                     dwell: float, stagger: float) -> list[tuple[Window, ...]]:
    """One node at a time, ``dwell`` seconds each, cycling the fleet."""
    if dwell <= 0:
        raise ValueError(f"rolling mobility needs dwell > 0, got {dwell}")
    per_node: list[list[Window]] = [[] for _ in range(nodes)]
    visit = 0
    start = attack_start
    while start < duration:
        per_node[visit % nodes].append((start, start + dwell))
        visit += 1
        start += dwell
    return [merge_windows(w) for w in per_node]


@MOBILITY.register("staggered")
def staggered_mobility(nodes: int, attack_start: float, duration: float,
                       dwell: float, stagger: float
                       ) -> list[tuple[Window, ...]]:
    """A ramp: node ``i`` joins at ``attack_start + i·stagger`` (the
    ``dwell`` spacing when ``stagger`` is 0) and stays."""
    step = stagger if stagger > 0 else dwell
    return [
        ((attack_start + i * step, INFINITY),)
        for i in range(nodes)
    ]


def windows_overlap(windows: Sequence[Window], t0: float, t1: float) -> bool:
    """Whether any window intersects ``[t0, t1)``."""
    return any(max(t0, lo) < min(t1, hi) for lo, hi in windows)
