"""The compiled rule walk held to the per-rule loop it replaced.

``classify_with_wildcards`` walks a :class:`~repro.ovs.wildcarding.
RulePlan` compiled once per ``FlowTable.version`` and hands back its
megaflow already packed.  The oracle here is the loop it replaced,
transcribed: every rule re-derives its constrained fields, prefix cover
and first differing bit on every call, and the megaflow is built by
``FlowMatch.from_tuples`` with no packed hint.  Generated spaces have
non-byte-aligned widths and, sometimes, an ``always_exact`` field;
generated tables have arbitrary non-prefix masks, wildcard-only rules,
priority ties, and go empty; ``add`` / ``remove`` / ``remove_if`` /
``clear`` run *between* classifications, so a plan that outlived its
table version would answer for rules that are gone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.actions import Allow, Drop, Output
from repro.flow.fields import FieldSpace, FieldSpec
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.flow.table import FlowTable
from repro.ovs.wildcarding import classify_with_wildcards, prefix_cover_len
from repro.util.bits import first_diff_bit, mask_of_prefix

ACTIONS = (Allow(), Drop(), Output(1), Output(2))


def _oracle(table: FlowTable, key: FlowKey):
    """The per-rule classification loop, recomputing everything per call."""
    space = table.space
    prefix_lens = [0] * len(space)
    winner = None
    examined = 0
    for rule in table:
        examined += 1
        if _examine_rule(rule, key, prefix_lens, space):
            winner = rule
            break
    masks = tuple(
        mask_of_prefix(prefix_lens[i], space.specs[i].width)
        for i in range(len(space))
    )
    return winner, examined, FlowMatch.from_tuples(space, key.values, masks)


def _examine_rule(rule, key, prefix_lens, space) -> bool:
    for index, spec in enumerate(space.specs):
        mask = rule.match.masks[index]
        if mask == 0:
            continue
        value = rule.match.values[index]
        key_value = key.values[index]
        if key_value & mask == value:
            needed = spec.width if spec.always_exact else prefix_cover_len(mask, spec.width)
            if needed > prefix_lens[index]:
                prefix_lens[index] = needed
        else:
            diff = first_diff_bit(key_value & mask, value, spec.width)
            assert diff is not None
            needed = spec.width if spec.always_exact else diff + 1
            if needed > prefix_lens[index]:
                prefix_lens[index] = needed
            return False
    return True


@st.composite
def spaces(draw) -> FieldSpace:
    widths = draw(st.lists(st.integers(1, 13), min_size=1, max_size=4))
    exact = draw(st.none() | st.integers(0, len(widths) - 1))
    return FieldSpace(
        [FieldSpec(f"f{i}", width, always_exact=(i == exact))
         for i, width in enumerate(widths)],
        name="generated",
    )


def _field_match(draw, spec: FieldSpec) -> tuple[int, int] | None:
    """A field's ``(value, mask)``, or ``None`` to leave it wildcarded."""
    shape = draw(st.sampled_from(("wild", "prefix", "exact", "arbitrary")))
    if shape == "wild":
        return None
    if shape == "prefix":
        mask = mask_of_prefix(draw(st.integers(1, spec.width)), spec.width)
    elif shape == "exact":
        mask = spec.max_value
    else:
        mask = draw(st.integers(1, spec.max_value))
    return draw(st.integers(0, spec.max_value)), mask


@st.composite
def scripts(draw):
    """A space and an operation script over one table in it."""
    space = draw(spaces())
    ops = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(
            ("add", "add", "add", "classify", "classify", "classify",
             "remove", "remove_if", "clear")
        ))
        if kind == "add":
            fields = {}
            if draw(st.integers(0, 5)):  # else (1 in 6) wildcard-only
                for spec in space.specs:
                    pair = _field_match(draw, spec)
                    if pair is not None:
                        fields[spec.name] = pair
            ops.append(("add", fields, draw(st.integers(0, 2)),
                        draw(st.sampled_from(ACTIONS))))
        elif kind == "classify":
            values = tuple(draw(st.integers(0, spec.max_value))
                           for spec in space.specs)
            ops.append(("classify", values, draw(st.booleans())))
        elif kind == "remove":
            ops.append(("remove", draw(st.integers(0, 64))))
        elif kind == "remove_if":
            ops.append(("remove_if", draw(st.integers(0, 2))))
        else:
            ops.append(("clear",))
    return space, ops


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scripts())
def test_compiled_walk_matches_the_per_rule_loop(script):
    space, ops = script
    table = FlowTable(space)
    for op in ops:
        if op[0] == "add":
            _kind, fields, priority, action = op
            table.add(FlowRule(FlowMatch(space, fields), action, priority=priority))
        elif op[0] == "remove":
            rules = table.rules()
            if rules:
                table.remove(rules[op[1] % len(rules)])
        elif op[0] == "remove_if":
            table.remove_if(lambda rule, p=op[1]: rule.priority == p)
        elif op[0] == "clear":
            table.clear()
        else:
            _kind, values, packed = op
            # half the keys arrive with their packed form cached
            key = FlowKey.from_tuple(
                space, values, space.pack(values) if packed else None
            )
            winner, examined, megaflow = _oracle(table, key)
            result = classify_with_wildcards(table, key)
            assert result.rule is winner
            assert result.rule is table.lookup(key)
            assert result.rules_examined == examined
            assert result.megaflow.values == megaflow.values
            assert result.megaflow.masks == megaflow.masks
            assert result.megaflow.packed == (
                space.pack(megaflow.masks), space.pack(megaflow.values)
            )


def test_a_match_built_elsewhere_packs_on_demand():
    space = FieldSpace([FieldSpec("a", 5), FieldSpec("b", 11)], name="two")
    match = FlowMatch(space, {"a": (0b10110, 0b11100), "b": (0x5A5, 0x7F0)})
    assert match.packed == (space.pack(match.masks), space.pack(match.values))
    hinted = FlowMatch.from_tuples(space, (0b10110, 0x5A5), match.masks,
                                   match.packed)
    assert hinted == match and hinted.packed is match.packed
