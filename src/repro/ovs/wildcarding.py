"""Slow-path classification with megaflow generation.

This module is the algorithmic core of the reproduction: it implements
the OVS strategy the paper describes as "OVS in particular tries to
wildcard as many bits as possible to get the broadest possible rules",
and it is calibrated to reproduce Fig. 2b *bit-exactly* and the paper's
mask counts (8 / 512 / 8192) *combinatorially exactly*.

Model
-----
The slow path looks a packet up in the flow table in (priority desc,
insertion asc) order.  While doing so it tracks, per header field, how
many most-significant bits of the packet's value it had to examine —
OVS's prefix-trie / staged-lookup machinery makes this prefix-shaped per
field.  The rules are:

* For every rule *examined* (all rules up to and including the winner),
  constrained fields are checked in the canonical field order.
* A field the packet **satisfies** must be confirmed over the rule's
  whole mask: the prefix covering every set mask bit is un-wildcarded
  (for the exact-match allow rules of the paper's ACLs this is the full
  field).
* The first field the packet **fails** contributes a *witness*: the
  prefix up to and including the first differing bit inside the rule's
  mask.  Checking stops there for that rule — later fields of a
  mismatched rule are not examined and contribute nothing.
* ``always_exact`` metadata fields (``in_port``) are materialised fully
  whenever any examined rule constrains them.

The resulting megaflow is the packet's values masked to those per-field
prefixes.  Two consequences matter for the attack:

* a single-field exact allow rule over a ``w``-bit field yields exactly
  ``w`` distinct deny masks (prefix lengths 1..w) — Fig. 2b's 8 rows;
* rules on *different* fields are witnessed independently, so a packet
  denied by ``k`` single-field allow rules gets a mask combining one
  witness prefix per field — the reachable deny-mask space is the
  *product* of the fields' widths: 32 × 16 = 512 for ip_src + tp_dst,
  32 × 16 × 16 = 8192 with tp_src (the paper's headline counts).

Correctness invariant (property-tested): every packet that matches a
generated megaflow receives the same winning rule as a full slow-path
lookup would give it.  Sketch: a packet agreeing with the original on
every un-wildcarded prefix agrees on every confirmed field (so still
matches the rules the original matched) and agrees up to each witness
bit (so still fails the rules the original failed, at the same field).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem

from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.flow.table import FlowTable
from repro.util.bits import mask_of_prefix


def prefix_cover_len(mask: int, width: int) -> int:
    """The shortest prefix length covering every set bit of ``mask``.

    For the CIDR-style masks the CMS compilers emit this is exactly the
    prefix length; for arbitrary masks it is a conservative cover (all
    bits down to the least significant set bit).
    """
    if mask == 0:
        return 0
    # number of trailing zero bits of the mask
    trailing = (mask & -mask).bit_length() - 1
    return width - trailing


@dataclass
class WildcardingResult:
    """Outcome of one slow-path classification.

    ``megaflow`` is the cacheable wildcard entry; ``rule`` is the winner
    (``None`` on a table miss); ``rules_examined`` counts the linear-scan
    work the slow path performed (the "exponential in the worst case"
    cost the paper cites motivates keeping this observable).
    """

    rule: FlowRule | None
    megaflow: FlowMatch
    rules_examined: int

    @property
    def prefix_lens(self) -> tuple[int, ...]:
        """Per-field un-wildcarded prefix lengths of the megaflow."""
        space = self.megaflow.space
        return tuple(
            prefix_cover_len(mask, spec.width)
            for mask, spec in zip(self.megaflow.masks, space.specs)
        )


@dataclass(frozen=True)
class RulePlan:
    """A :class:`FlowTable` compiled for :func:`classify_with_wildcards`
    (one per table version, see :meth:`FlowTable.compiled`).

    ``rules`` holds, per rule in lookup order, the rule and its
    constrained fields only, in field order, as ``(index, mask, value,
    confirm_len, always_exact, width)``: ``confirm_len`` is the prefix a
    satisfied field un-wildcards (the full width for ``always_exact``
    fields, else the cover of the mask).  ``prefix_masks[i][n]`` is field
    ``i``'s ``n``-bit prefix mask, ``packed_prefix_masks[i][n]`` the same
    mask at the field's offset in the packed layout.
    """

    rules: tuple[tuple[FlowRule, tuple[tuple[int, int, int, int, bool, int], ...]], ...]
    prefix_masks: tuple[tuple[int, ...], ...]
    packed_prefix_masks: tuple[tuple[int, ...], ...]


def compile_rule_plan(table: FlowTable) -> RulePlan:
    """Compile ``table``'s rules, in lookup order, into a
    :class:`RulePlan` — O(rules × fields), once per table version."""
    space = table.space
    rules = []
    for rule in table:
        checks = []
        for index, spec in enumerate(space.specs):
            mask = rule.match.masks[index]
            if mask == 0:
                continue
            confirm_len = (
                spec.width if spec.always_exact else prefix_cover_len(mask, spec.width)
            )
            checks.append((index, mask, rule.match.values[index], confirm_len,
                           spec.always_exact, spec.width))
        rules.append((rule, tuple(checks)))
    prefix_masks = tuple(
        tuple(mask_of_prefix(n, spec.width) for n in range(spec.width + 1))
        for spec in space.specs
    )
    packed_prefix_masks = tuple(
        tuple(mask << offset for mask in masks)
        for masks, offset in zip(prefix_masks, space.offsets)
    )
    return RulePlan(tuple(rules), prefix_masks, packed_prefix_masks)


def classify_with_wildcards(table: FlowTable, key: FlowKey) -> WildcardingResult:
    """Classify ``key`` against ``table`` and build the broadest megaflow
    that preserves the classification decision (see module docstring).

    Walks the table's :class:`RulePlan`.  A witness is the prefix up to
    and including the first bit where the key differs from the rule
    inside its mask, ``width - (diff).bit_length() + 1``; the megaflow
    arrives with its packed form filled in.
    """
    plan = table.compiled(compile_rule_plan)
    key_values = key.values
    prefix_lens = [0] * len(plan.prefix_masks)

    winner: FlowRule | None = None
    examined = 0
    for rule, checks in plan.rules:
        examined += 1
        for index, mask, value, confirm_len, always_exact, width in checks:
            masked = key_values[index] & mask
            if masked == value:
                if confirm_len > prefix_lens[index]:
                    prefix_lens[index] = confirm_len
                continue
            needed = width if always_exact else width - (masked ^ value).bit_length() + 1
            if needed > prefix_lens[index]:
                prefix_lens[index] = needed
            break
        else:
            winner = rule
            break

    masks = tuple(map(getitem, plan.prefix_masks, prefix_lens))
    packed_mask = sum(map(getitem, plan.packed_prefix_masks, prefix_lens))
    megaflow = FlowMatch.from_tuples(
        table.space, key_values, masks, (packed_mask, key.packed & packed_mask)
    )
    return WildcardingResult(rule=winner, megaflow=megaflow, rules_examined=examined)


def megaflow_table_rows(
    table: FlowTable,
    keys: list[FlowKey],
) -> list[tuple[str, str, str]]:
    """Render the (key, mask, action) rows that classifying ``keys``
    would install — the exact format of the paper's Fig. 2b.

    Rows are deduplicated by (masked key, mask) and reported in the
    order first produced.  Single-field spaces render as plain binary
    strings; wider spaces join fields with ``,``.
    """
    rows: list[tuple[str, str, str]] = []
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for key in keys:
        result = classify_with_wildcards(table, key)
        identity = (result.megaflow.values, result.megaflow.masks)
        if identity in seen:
            continue
        seen.add(identity)
        space = table.space
        key_text = ",".join(
            spec.format(value) for spec, value in zip(space.specs, result.megaflow.values)
        )
        mask_text = ",".join(
            spec.format(mask) for spec, mask in zip(space.specs, result.megaflow.masks)
        )
        action = result.rule.action.kind if result.rule else "miss"
        rows.append((key_text, mask_text, action))
    return rows
