"""E1 — Fig. 2: the toy single-field ACL and its megaflow table.

Fig. 2a: a binary ACL over one 8-bit ``ip_src`` field::

    ip_src    action
    00001010  allow
    ********  deny

Fig. 2b: the nine non-overlapping megaflow entries OVS's
"wildcard-as-many-bits-as-possible" strategy produces for it.  This
experiment replays the adversarial sequence through the ``fig2``
scenario (a real OVS switch, each packet through its slow path) and
verifies the resulting megaflow table **bit-exactly** against the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attack.analysis import AttackDimension
from repro.attack.packets import covert_keys_for_dimensions
from repro.flow.actions import Allow, Drop
from repro.flow.fields import FieldSpace, toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.flow.table import FlowTable
from repro.scenario.session import ScenarioResult, Session
from repro.util.ascii_chart import AsciiTable

#: the allow value of Fig. 2a (binary 00001010)
FIG2_ALLOW_VALUE = 0b00001010

#: Fig. 2b verbatim: (key, mask, action) — the ground truth we must hit
FIG2B_EXPECTED: list[tuple[str, str, str]] = [
    ("00001010", "11111111", "allow"),
    ("10000000", "10000000", "deny"),
    ("01000000", "11000000", "deny"),
    ("00100000", "11100000", "deny"),
    ("00010000", "11110000", "deny"),
    ("00000000", "11111000", "deny"),
    ("00001100", "11111100", "deny"),
    ("00001000", "11111110", "deny"),
    ("00001011", "11111111", "deny"),
]


@dataclass
class Fig2Result:
    """The regenerated table plus its comparison against the paper."""

    rows: list[tuple[str, str, str]]
    expected: list[tuple[str, str, str]]
    deny_mask_count: int
    #: the underlying Session result (CSV hook, datapath access)
    scenario: ScenarioResult = field(repr=False)

    @property
    def exact_match(self) -> bool:
        """True when the regenerated rows equal Fig. 2b as *sets* (the
        paper lists deny entries in prefix-length order; arrival order
        depends on the packet sequence)."""
        return set(self.rows) == set(self.expected)

    def render(self) -> str:
        """The Fig. 2b table as text."""
        table = AsciiTable(
            ["Key", "Mask", "Action"],
            title="Fig. 2b — resultant non-overlapping MF entries",
        )
        for row in sorted(self.rows, key=lambda r: (r[2] != "allow", r[1], r[0])):
            table.add_row(row)
        verdict = "MATCHES Fig. 2b exactly" if self.exact_match else "MISMATCH vs Fig. 2b"
        return table.render() + f"\n=> {verdict} ({self.deny_mask_count} deny masks)"


def build_fig2_table(space: FieldSpace | None = None) -> FlowTable:
    """The Fig. 2a flow table: one exact allow, one wildcard deny."""
    space = space or toy_single_field_space()
    table = FlowTable(space, name="fig2a")
    table.add(
        FlowRule(
            match=FlowMatch(space, {"ip_src": (FIG2_ALLOW_VALUE, 0xFF)}),
            action=Allow(),
            priority=10,
            comment="whitelist 00001010",
        )
    )
    table.add(
        FlowRule(
            match=FlowMatch.wildcard(space),
            action=Drop(),
            priority=0,
            comment="default deny",
        )
    )
    return table


def fig2_packet_sequence(space: FieldSpace | None = None) -> list[FlowKey]:
    """The adversarial packet sequence "populating the MF with the
    required entries": the allow packet plus one covert packet per deny
    mask, generated by the attack's own covert-stream machinery."""
    space = space or toy_single_field_space()
    allow_key = FlowKey(space, {"ip_src": FIG2_ALLOW_VALUE})
    dimension = AttackDimension("ip_src", FIG2_ALLOW_VALUE, 8, 8)
    covert = covert_keys_for_dimensions([dimension], pinned={}, space=space)
    return [allow_key] + covert


def run_fig2() -> Fig2Result:
    """Regenerate Fig. 2b through the ``fig2`` scenario: the packet
    sequence runs the real cache pipeline and the rows are read back
    from the megaflow cache in install order."""
    result = Session("fig2").run()
    assert result.probe is not None
    rows = result.probe.rows
    deny_masks = {mask for _key, mask, action in rows if action == "deny"}
    return Fig2Result(
        rows=rows,
        expected=FIG2B_EXPECTED,
        deny_mask_count=len(deny_masks),
        scenario=result,
    )
