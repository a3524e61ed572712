"""E2/E3 — the in-text mask counts: 8, 512 and 8192.

For each CMS surface in the scenario registry, this experiment (a)
predicts the reachable mask count in closed form, (b) compiles the
malicious policy through the real CMS compiler, (c) feeds the covert
stream through a real switch, and (d) reports the *measured* mask count
— all three paper numbers must come out exactly.  Steps (a)–(c) are one
:meth:`~repro.scenario.session.Session.measure` call per surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scenario.registry import SURFACES
from repro.scenario.session import ScenarioResult, Session
from repro.scenario.spec import ScenarioSpec
from repro.util.ascii_chart import AsciiTable

#: the campaign surfaces, in the order the paper presents them
MASK_COUNT_SURFACES = ("prefix8", "k8s", "openstack", "calico")


@dataclass
class MaskCountResult:
    """One scenario's predicted vs measured mask count."""

    scenario: str
    cms: str
    fields: str
    predicted_masks: int
    measured_masks: int
    paper_masks: int
    #: the underlying Session result (CSV hook, datapath access)
    result: ScenarioResult | None = field(default=None, repr=False)

    @property
    def matches_paper(self) -> bool:
        return self.predicted_masks == self.paper_masks == self.measured_masks


def run_mask_counts() -> list[MaskCountResult]:
    """All four scenarios: the /8 warm-up and the three CMS attacks."""
    results: list[MaskCountResult] = []
    for name in MASK_COUNT_SURFACES:
        surface = SURFACES.get(name)
        session = Session(ScenarioSpec(surface=name, name=f"masks-{name}"))
        result = session.run_probe()
        probe = result.probe
        assert probe is not None
        results.append(
            MaskCountResult(
                scenario=surface.scenario_label,
                cms=surface.cms_name,
                fields=surface.fields,
                predicted_masks=probe.predicted,
                measured_masks=probe.measured,
                paper_masks=surface.paper_masks,
                result=result,
            )
        )
    return results


def render(results: list[MaskCountResult]) -> str:
    """Tabulate the scenarios."""
    table = AsciiTable(
        ["Scenario", "CMS", "Fields", "Predicted", "Measured", "Paper", "OK"],
        title="In-text mask counts (E2/E3)",
    )
    for r in results:
        table.add_row(
            [
                r.scenario,
                r.cms,
                r.fields,
                r.predicted_masks,
                r.measured_masks,
                r.paper_masks,
                "yes" if r.matches_paper else "NO",
            ]
        )
    return table.render()
