"""The flow-cache-less softswitch baseline (ESwitch-style).

Reference [4] of the paper (Molnár et al., "Dataplane Specialization for
High-performance OpenFlow Software Switching", SIGCOMM'16) compiles the
flow table into specialised code and classifies every packet from
scratch — there is no flow cache to pollute, so the per-packet cost is a
function of the *rule set*, not of attacker-controlled cache state.

To make the baseline competitive (as ESwitch is), classification uses a
per-field hash specialisation: rules are grouped by their mask
signature (the set of field masks they use), one hash table per group —
a static tuple space over the *rule set*.  A tenant's ACL contributes a
handful of groups, and crucially the group count is bounded by the
number of *rules*, which the CMS controls, not by the number of covert
*packets*, which the attacker controls.

:class:`CachelessDatapath` serves the rule set behind the
:class:`~repro.scenario.datapath.Datapath` protocol.  Groups are keyed
on the packed mask and buckets on the packed masked value, so a packet
is classified with ``key.packed & mask`` per group — the one key
representation every datapath path uses.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.flow.actions import Action, Drop
from repro.flow.fields import FieldSpace
from repro.flow.key import FlowKey
from repro.flow.rule import FlowRule
from repro.flow.table import FlowTable
from repro.ovs.megaflow import MegaflowEntry
from repro.ovs.stats import SwitchStats
from repro.ovs.switch import BatchResult, LookupPath, OvsSwitch, PacketResult
from repro.ovs.upcall import InstallGuard

#: per packed mask, packed masked value -> the best rule with that value
Groups = list[tuple[int, dict[int, FlowRule]]]


def compile_groups(table: FlowTable) -> tuple[Groups, list[FlowRule]]:
    """Group ``table``'s rules by their packed mask (the ESwitch
    specialisation); rules constraining no field come back apart, in
    lookup order.

    Within a group, only the *best* rule per masked value is kept
    (highest priority, earliest insertion) — collisions inside a group
    have identical match regions.
    """
    groups: dict[int, dict[int, FlowRule]] = {}
    wildcard_rules: list[FlowRule] = []
    for rule in table:
        if rule.match.is_wildcard():
            wildcard_rules.append(rule)
            continue
        mask, value = rule.match.packed
        bucket = groups.setdefault(mask, {})
        existing = bucket.get(value)
        if existing is None or rule.sort_key() < existing.sort_key():
            bucket[value] = rule
    return list(groups.items()), wildcard_rules


class CachelessDatapath:
    """A datapath that classifies every packet against a compiled table.

    The groups are compiled lazily, once per :attr:`FlowTable.version`
    of :attr:`table`, so a rule added to or removed from the table by
    any path is seen by the next packet.

    Cache observables report the static structure: ``mask_count`` is
    the compiled group count (the per-packet scan bound — the analogue
    of the TSS mask count, except it is bounded by the rule set),
    ``megaflow_count`` and ``cache_capacity`` are zero, and
    ``handle_miss`` classifies without caching anything.
    """

    has_flow_cache = False

    def __init__(self, space: FieldSpace, name: str = "eswitch",
                 miss_action: Action | None = None) -> None:
        self.name = name
        self.space = space
        self.table = FlowTable(space, name=f"{name}-rules")
        self.miss_action = miss_action or Drop()
        self.clock = 0.0
        #: protocol-surface scan accounting: packets, forwarded/drops
        #: and per-classification group probes (the cache-layer
        #: counters — EMC hits, upcalls — stay zero: there is no cache)
        self.stats = SwitchStats()

    # -- datapath ----------------------------------------------------------

    def classify(self, key: FlowKey) -> tuple[FlowRule | None, int]:
        """The winning rule for one key (``None``: no rule matches) and
        the groups probed.  Every group is probed (groups cannot be
        ordered by priority in general because priorities interleave
        across groups)."""
        groups, wildcard_rules = self.table.compiled(compile_groups)
        packed = key.packed
        best: FlowRule | None = None
        for mask, bucket in groups:
            rule = bucket.get(packed & mask)
            if rule is not None and (best is None or rule.sort_key() < best.sort_key()):
                best = rule
        for rule in wildcard_rules:
            if best is None or rule.sort_key() < best.sort_key():
                best = rule
        return best, len(groups) + (1 if wildcard_rules else 0)

    #: the single-key special case of :meth:`process_batch`: one body
    #: for every in-process datapath
    process = OvsSwitch.process

    def process_batch(self, keys: Sequence[FlowKey] | Iterable[FlowKey],
                      now: float | None = None,
                      materialize: bool = True) -> BatchResult:
        if now is not None and now > self.clock:
            self.clock = now  # monotonic, like OvsSwitch
        batch = BatchResult()
        classify = self.classify
        for key in keys:
            rule, probed = classify(key)
            action = self.miss_action if rule is None else rule.action
            batch.tally(LookupPath.CACHELESS, action.is_forwarding(),
                        probed, probed)
            if materialize:
                batch.results.append(PacketResult(
                    action=action,
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
        """Install a rule; recompilation is lazy."""
        return self.table.add(rule)

    def add_rules(self, rules: list[FlowRule]) -> None:
        self.table.add_all(rules)

    def remove_tenant_rules(self, tenant: str) -> int:
        return self.table.remove_if(lambda rule: rule.tenant == tenant)

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
        """Static tuple groups — the per-packet scan bound."""
        groups, wildcard_rules = self.table.compiled(compile_groups)
        return len(groups) + (1 if wildcard_rules else 0)

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
        groups = self.mask_count
        return (groups + 1.0) / 2.0 if groups else 0.0

    @property
    def rule_count(self) -> int:
        return len(self.table)

    @property
    def idle_timeout(self) -> float:
        return float("inf")  # nothing expires: nothing is cached

    def __repr__(self) -> str:
        return (f"CachelessDatapath({self.name}: {len(self.table)} rules, "
                f"{self.mask_count} groups)")
