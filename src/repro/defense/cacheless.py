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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flow.actions import Action, Drop
from repro.flow.fields import FieldSpace
from repro.flow.key import FlowKey
from repro.flow.rule import FlowRule
from repro.flow.table import FlowTable


@dataclass
class CachelessResult:
    """Outcome of one cache-less classification."""

    action: Action
    rule: FlowRule | None
    #: static tuple groups probed (bounded by the rule set, not the attack)
    groups_probed: int


#: per mask signature, masked key -> the best rule with that key
Groups = list[tuple[tuple[int, ...], dict[tuple[int, ...], FlowRule]]]


def compile_groups(table: FlowTable) -> tuple[Groups, list[FlowRule]]:
    """Group ``table``'s rules by their mask tuple (the ESwitch
    specialisation); rules constraining no field come back apart, in
    lookup order.

    Within a group, only the *best* rule per masked key is kept
    (highest priority, earliest insertion) — collisions inside a group
    have identical match regions.
    """
    groups: dict[tuple[int, ...], dict[tuple[int, ...], FlowRule]] = {}
    wildcard_rules: list[FlowRule] = []
    for rule in table:
        if rule.match.is_wildcard():
            wildcard_rules.append(rule)
            continue
        bucket = groups.setdefault(rule.match.masks, {})
        existing = bucket.get(rule.match.values)
        if existing is None or rule.sort_key() < existing.sort_key():
            bucket[rule.match.values] = rule
    return list(groups.items()), wildcard_rules


class CachelessSwitch:
    """A switch that classifies every packet against a compiled table.

    The groups are compiled lazily, once per :attr:`FlowTable.version`
    of :attr:`table`, so a rule added to or removed from the table by
    any path is seen by the next packet.
    """

    def __init__(self, space: FieldSpace, name: str = "eswitch",
                 miss_action: Action | None = None) -> None:
        self.space = space
        self.name = name
        self.table = FlowTable(space, name=f"{name}-rules")
        self.miss_action = miss_action or Drop()
        self.packets = 0
        self.total_groups_probed = 0

    # -- rule management -----------------------------------------------------

    def add_rule(self, rule: FlowRule) -> FlowRule:
        """Install a rule; recompilation is lazy."""
        return self.table.add(rule)

    def add_rules(self, rules: list[FlowRule]) -> None:
        """Install several rules."""
        self.table.add_all(rules)

    @property
    def group_count(self) -> int:
        """Static tuple groups — the per-packet scan bound."""
        groups, wildcard_rules = self.table.compiled(compile_groups)
        return len(groups) + (1 if wildcard_rules else 0)

    # -- datapath --------------------------------------------------------------

    def process(self, key: FlowKey) -> CachelessResult:
        """Classify one packet; probes every group and picks the winner
        (groups cannot be ordered by priority in general because
        priorities interleave across groups)."""
        groups, wildcard_rules = self.table.compiled(compile_groups)
        self.packets += 1
        best: FlowRule | None = None
        probed = 0
        for masks, bucket in groups:
            probed += 1
            masked = tuple(v & m for v, m in zip(key.values, masks))
            rule = bucket.get(masked)
            if rule is not None and (best is None or rule.sort_key() < best.sort_key()):
                best = rule
        for rule in wildcard_rules:
            if best is None or rule.sort_key() < best.sort_key():
                best = rule
        if wildcard_rules:
            probed += 1
        self.total_groups_probed += probed
        if best is None:
            return CachelessResult(self.miss_action, None, probed)
        return CachelessResult(best.action, best, probed)

    def __repr__(self) -> str:
        return f"CachelessSwitch({self.name}: {len(self.table)} rules, {self.group_count} groups)"
