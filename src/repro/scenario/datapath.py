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
remains the known-miss slow-path shortcut for the replay harnesses:
:meth:`~repro.scenario.session.Session.measure` and the E8–E10
installs.

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
* ``"cacheless"`` — the ESwitch-style
  :class:`~repro.defense.cacheless.CachelessDatapath`: every packet is
  classified from scratch against a static tuple space over the *rule
  set*, so there is no cache for the attacker to poison — the
  mitigation baseline of the paper's reference [4].
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence, runtime_checkable

from repro.flow.fields import FieldSpace
from repro.flow.key import FlowKey
from repro.flow.rule import FlowRule
from repro.ovs.megaflow import MegaflowEntry
from repro.ovs.stats import SwitchStats
from repro.ovs.switch import BatchResult, PacketResult
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

