"""The golden record: what every preset and fifteen commands print,
committed, so a change that claims to move nothing can show it.

``tests/golden/presets.json`` holds, per seed (1 and 23) and per
registered preset, the :func:`repro.testing.result_digest` of
``Session.run()`` — a campaign's whole series, a probe-mode preset's
rendered megaflow table.  Beside it is the stdout of
``repro experiment`` ``fig2`` (E1), ``masks`` (E2/E3), ``fig3`` (E4),
``ranking`` (E8), ``sharding`` (E9), ``rebalance`` (E10) and ``fleet``
(E11), of ``repro fleet`` for all six fleet presets, and of
``repro scenario`` ``fig3`` and ``calico-detector`` — the campaign
headline and a defense's tradeoff line, which no digest covers.
``tests/golden/check.py`` checks all of it (CI's ``tests`` job); this
module checks seed 1 of the fast presets and of the two ranked ones,
the ``masks``, ``fig3``, ``ranking``, ``sharding`` and ``fleet``
experiment stdout, every fleet preset's stdout and both scenario
renders, on whichever engine this interpreter builds — so the scalar
engine without NumPy is held to the same bytes as the columnar one.

A digest that changes is a behaviour that changed.  Re-baselining is an
edit of the lines that moved, named and justified in CHANGES.md — never
a regeneration of the file to get green.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.fleet.presets import FLEETS
from repro.scenario.presets import SCENARIOS
from repro.scenario.session import Session
from repro.testing import result_digest

GOLDEN = Path(__file__).parent / "golden"
TABLE = json.loads((GOLDEN / "presets.json").read_text())

#: the presets a seed-1 run of takes under 0.7 s, plus the two that run
#: the ranked scan order end to end (about 1 s each)
TIER1 = (
    "fig2", "fig3", "prefix8", "k8s", "openstack", "calico",
    "calico-netdev", "calico-staged", "calico-vec", "calico-mask-limit",
    "calico-prefix-rounding", "k8s-deepscan", "k8s-serve",
    "calico-ranked", "calico-netdev-ranked",
)


def test_the_record_covers_every_preset_at_both_seeds():
    assert sorted(TABLE) == ["1", "23"]
    for seed, digests in TABLE.items():
        assert list(digests) == SCENARIOS.names(), seed


@pytest.mark.parametrize("name", TIER1)
def test_a_seed_1_run_matches_the_record(name):
    result = Session(SCENARIOS.get(name).evolve(seed=1)).run()
    assert result_digest(result) == TABLE["1"][name]


@pytest.mark.parametrize("experiment",
                         ("masks", "fig3", "ranking", "sharding", "fleet"))
def test_an_experiment_prints_the_record(experiment, capsys):
    assert main(["experiment", experiment]) == 0
    expected = (GOLDEN / f"experiment-{experiment}.txt").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name", ("fig3", "calico-detector"))
def test_a_scenario_prints_the_record(name, capsys):
    assert main(["scenario", name]) == 0
    expected = (GOLDEN / f"scenario-{name}.txt").read_text()
    assert capsys.readouterr().out == expected


#: the quarantine presets warn (on stderr) about each covert burst a
#: detached node can no longer receive; stdout is what is recorded
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", FLEETS.names())
def test_a_fleet_prints_the_record(name, capsys):
    assert main(["fleet", name]) == 0
    expected = (GOLDEN / f"fleet-{name}.txt").read_text()
    assert capsys.readouterr().out == expected
