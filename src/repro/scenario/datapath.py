"""The :class:`Datapath` protocol — the classifier-backend interface.

Extracted from :class:`~repro.ovs.switch.OvsSwitch` so the simulator
and the Session facade run against *any* packet classifier, not just
the OVS cache hierarchy.  The protocol is deliberately small: the
datapath entry points, the slow-path rule management the CMS layer
needs, and the observables the cost model reads (mask count, cache
capacity, staged flag).

The protocol is **batch-first**: ``process_batch`` is the primary
entry point — backends amortise per-burst work (clock/revalidator
bookkeeping, one summed megaflow credit per stretch between upcalls)
across it — and ``process``
is the single-key special case by construction: every in-process
backend shares :meth:`OvsSwitch.process`'s one body,
``process_batch([k]).results[0]`` (the parallel runtime refuses it:
per-packet results never cross its worker pipe).  ``handle_miss``
remains the known-miss slow-path shortcut for replay harnesses.

Three implementation families ship
(:class:`~repro.perf.factory.DatapathConfig` picks among them):

* :class:`~repro.ovs.switch.OvsSwitch` itself and its drop-in engines
  (it already satisfies the protocol structurally) — one inline shard;
* the RETA dispatcher, :class:`~repro.ovs.pmd.RetaDispatcher`: N
  per-PMD switches behind an RSS-style dispatcher, one megaflow cache /
  mask set / ranked pvector / clock per shard, with rule management
  broadcast and observables aggregated — as
  :class:`~repro.ovs.pmd.ShardedDatapath` (``shards > 1``, inline) or
  :class:`~repro.runtime.parallel.ParallelDatapath` (the same
  dispatcher, each shard on a worker process);
* ``"cacheless"`` — :class:`CachelessDatapath` below, adapting the
  ESwitch-style :class:`~repro.defense.cacheless.CachelessSwitch`:
  every packet is classified from scratch against a static tuple space
  over the *rule set*, so there is no cache for the attacker to
  poison — the mitigation baseline of the paper's reference [4].
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence, runtime_checkable

from repro.defense.cacheless import CachelessSwitch
from repro.flow.actions import Action
from repro.flow.fields import FieldSpace
from repro.flow.key import FlowKey
from repro.flow.rule import FlowRule
from repro.ovs.megaflow import MegaflowEntry
from repro.ovs.stats import SwitchStats
from repro.ovs.switch import BatchResult, LookupPath, OvsSwitch, PacketResult
from repro.ovs.upcall import InstallGuard


@runtime_checkable
class Datapath(Protocol):
    """One node's packet classifier, as the simulator sees it."""

    name: str
    space: FieldSpace
    #: whether this backend keeps attacker-pollutable flow caches; when
    #: False the cost model charges a flat per-classification bill
    has_flow_cache: bool

    # -- datapath ----------------------------------------------------------

    def process(self, key_or_packet, in_port: int = 0,
                now: float | None = None) -> PacketResult: ...

    def process_batch(self, keys: Sequence[FlowKey] | Iterable[FlowKey],
                      now: float | None = None,
                      materialize: bool = True) -> BatchResult: ...

    def handle_miss(self, key: FlowKey, now: float = 0.0) -> MegaflowEntry | None: ...

    def advance_clock(self, now: float) -> None: ...

    # -- slow-path rule management ----------------------------------------

    def add_rule(self, rule: FlowRule) -> FlowRule: ...

    def add_rules(self, rules: list[FlowRule]) -> None: ...

    def remove_tenant_rules(self, tenant: str) -> int: ...

    def add_install_guard(self, guard: InstallGuard) -> None: ...

    def invalidate_caches(self) -> None: ...

    # -- observables the cost model reads ----------------------------------

    @property
    def mask_count(self) -> int: ...

    @property
    def megaflow_count(self) -> int: ...

    @property
    def cache_capacity(self) -> int: ...

    @property
    def staged(self) -> bool: ...

    @property
    def scan_order(self) -> str: ...

    @property
    def tss_lookups(self) -> int: ...

    def expected_scan_depth(self) -> float: ...

    @property
    def stats(self) -> SwitchStats: ...

    @property
    def rule_count(self) -> int: ...

    @property
    def idle_timeout(self) -> float: ...


def _protocol_surface(protocol: type) -> tuple[str, ...]:
    """The member names a protocol class declares (annotations plus
    methods/properties defined in its body)."""
    members = set(getattr(protocol, "__annotations__", ()))
    members.update(
        name for name in vars(protocol) if not name.startswith("_")
    )
    return tuple(sorted(members))


#: the full backend surface, derived from :class:`Datapath` itself so
#: the protocol class is the single source of truth — the
#: ``protocol-conformance`` lint rule probes every registered backend
#: against exactly this list
DATAPATH_SURFACE: tuple[str, ...] = _protocol_surface(Datapath)


class CachelessDatapath:
    """Adapter exposing :class:`CachelessSwitch` behind the protocol.

    Cache observables report the static structure: ``mask_count`` is
    the compiled group count (the per-packet scan bound — the analogue
    of the TSS mask count, except it is bounded by the rule set),
    ``megaflow_count`` and ``cache_capacity`` are zero, and
    ``handle_miss`` classifies without caching anything.
    """

    has_flow_cache = False

    def __init__(self, space: FieldSpace, name: str = "eswitch",
                 miss_action: Action | None = None) -> None:
        self.inner = CachelessSwitch(space, name=name, miss_action=miss_action)
        self.name = name
        self.space = space
        self.clock = 0.0
        #: protocol-surface scan accounting: packets, forwarded/drops
        #: and per-classification group probes (the cache-layer
        #: counters — EMC hits, upcalls — stay zero: there is no cache)
        self.stats = SwitchStats()

    # -- datapath ----------------------------------------------------------

    #: the single-key special case of :meth:`process_batch`: one body
    #: for every in-process datapath
    process = OvsSwitch.process

    def process_batch(self, keys: Sequence[FlowKey] | Iterable[FlowKey],
                      now: float | None = None,
                      materialize: bool = True) -> BatchResult:
        if now is not None and now > self.clock:
            self.clock = now  # monotonic, like OvsSwitch
        batch = BatchResult()
        classify = self.inner.process
        for key in keys:
            outcome = classify(key)
            probed = outcome.groups_probed
            batch.tally(LookupPath.CACHELESS, outcome.action.is_forwarding(),
                        probed, probed)
            if materialize:
                batch.results.append(PacketResult(
                    action=outcome.action,
                    path=LookupPath.CACHELESS,
                    tuples_scanned=probed,
                    hash_probes=probed,
                    entry=None,
                ))
        self.stats.add(batch)
        return batch

    def handle_miss(self, key: FlowKey, now: float = 0.0) -> MegaflowEntry | None:
        self.process(key, now=now)
        return None

    def advance_clock(self, now: float) -> None:
        self.clock = max(self.clock, now)

    # -- slow-path rule management ----------------------------------------

    def add_rule(self, rule: FlowRule) -> FlowRule:
        return self.inner.add_rule(rule)

    def add_rules(self, rules: list[FlowRule]) -> None:
        self.inner.add_rules(rules)

    def remove_tenant_rules(self, tenant: str) -> int:
        return self.inner.table.remove_if(lambda rule: rule.tenant == tenant)

    def add_install_guard(self, guard: InstallGuard) -> None:
        raise ValueError(
            "the cacheless backend installs no megaflows; install-guard "
            "defenses do not apply (it needs none: there is no cache to poison)"
        )

    def invalidate_caches(self) -> None:
        pass  # nothing cached

    # -- observables -------------------------------------------------------

    @property
    def mask_count(self) -> int:
        return self.inner.group_count

    @property
    def megaflow_count(self) -> int:
        return 0

    @property
    def cache_capacity(self) -> int:
        return 0

    @property
    def staged(self) -> bool:
        return False

    @property
    def tss_lookups(self) -> int:
        """Classifications served (the protocol's ``tss_lookups``
        analogue: every packet is one scan over the static groups)."""
        return self.stats.packets

    @property
    def scan_order(self) -> str:
        # the compiled group order is fixed at compile time; there is no
        # hit-driven re-ranking to speak of
        return "static"

    def expected_scan_depth(self) -> float:
        """Expected groups probed per classification (uniform over the
        static compiled groups)."""
        groups = self.inner.group_count
        return (groups + 1.0) / 2.0 if groups else 0.0

    @property
    def rule_count(self) -> int:
        return len(self.inner.table)

    @property
    def idle_timeout(self) -> float:
        return float("inf")  # nothing expires: nothing is cached

    def __repr__(self) -> str:
        return f"CachelessDatapath({self.inner!r})"
