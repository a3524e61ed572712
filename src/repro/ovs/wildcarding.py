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

Packed walk
-----------
The model above is evaluated on packed integers, one AND/XOR per rule
examined (:class:`RulePlan`, compiled once per table version): ``diff =
(key & mask) ^ value``.  A zero ``diff`` is a match and un-wildcards the
rule's confirm bits.  Otherwise the highest set bit of ``diff`` is the
witness bit: field 0 is the most significant, so that bit lies in the
first field the key fails, and the rule's confirm bits above that
field's boundary are exactly the fields it satisfied first.  Prefixes
nest within a field, so OR-ing every examined rule's bits keeps each
field's longest prefix, and the megaflow is born as its packed pair.
The field-by-field loop of the model is the walk's reference,
``repro.testing.oracles.classify_per_rule``.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(slots=True)
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
    (one per table version, see :meth:`FlowTable.compiled`), in the
    space's packed layout.

    ``rules`` holds, per rule in lookup order, ``(rule, mask, value,
    confirm)``: the rule's packed mask and masked value, and ``confirm``,
    the bits a satisfied rule un-wildcards — per constrained field the
    whole field when it is ``always_exact``, else the prefix covering
    its mask.  For the field holding packed bit ``b``, ``top[b]`` is the
    field's upper boundary ``1 << (offset + width)`` and ``low[b]`` the
    lowest bit a witness at ``b`` un-wildcards: ``1 << offset`` for an
    ``always_exact`` field, else ``1 << b``.
    """

    rules: tuple[tuple[FlowRule, int, int, int], ...]
    top: tuple[int, ...]
    low: tuple[int, ...]


def compile_rule_plan(table: FlowTable) -> RulePlan:
    """Compile ``table``'s rules, in lookup order, into a
    :class:`RulePlan` — O(rules × fields + bits), once per table
    version."""
    space = table.space
    fields = list(zip(space.specs, space.offsets))
    rules = []
    for rule in table:
        confirm = 0
        for (spec, offset), mask in zip(fields, rule.match.masks):
            if mask:
                cover = spec.width if spec.always_exact else prefix_cover_len(mask, spec.width)
                confirm |= mask_of_prefix(cover, spec.width) << offset
        rules.append((rule, *rule.match.packed, confirm))
    top: list[int] = []
    low: list[int] = []
    for spec, offset in reversed(fields):  # least significant field first
        for bit in range(offset, offset + spec.width):
            top.append(1 << (offset + spec.width))
            low.append(1 << (offset if spec.always_exact else bit))
    return RulePlan(tuple(rules), tuple(top), tuple(low))


def classify_with_wildcards(table: FlowTable, key: FlowKey) -> WildcardingResult:
    """Classify ``key`` against ``table`` and build the broadest megaflow
    that preserves the classification decision (see module docstring).

    Walks the table's :class:`RulePlan` on the packed key (the module
    docstring's packed walk); the megaflow is born as its packed pair.
    """
    plan = table.compiled(compile_rule_plan)
    top, low = plan.top, plan.low
    packed = key.packed
    acc = 0
    winner: FlowRule | None = None
    examined = 0
    for rule, mask, value, confirm in plan.rules:
        examined += 1
        diff = (packed & mask) ^ value
        if not diff:
            acc |= confirm
            winner = rule
            break
        bit = diff.bit_length() - 1
        boundary = top[bit]
        acc |= (confirm & -boundary) | (boundary - low[bit])
    megaflow = FlowMatch.from_packed(table.space, acc, packed)
    return WildcardingResult(winner, megaflow, examined)

