"""One assembly, one series: a campaign built by hand from its Session
runs exactly what ``Session.run()`` runs.

``session.build_campaign(datapath).build_simulator()`` is how a caller
that steps the simulator itself assembles a run (the pipeline
benchmark does).  The simulator it returns must carry everything
``Session.run()`` carries — the injection, the covert stream and every
defense's timed response — so the two series are equal row for row.
The shortened timeline keeps the detector's response (20 s after the
attack starts) inside the run.
"""

import pytest

from repro.scenario.presets import SCENARIOS
from repro.scenario.session import Session

CAMPAIGNS = [name for name in SCENARIOS.names()
             if Session(name).surface.is_campaign]


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_a_stepped_campaign_runs_the_session_series(name):
    spec = SCENARIOS.get(name).evolve(duration=40.0, attack_start=10.0)
    want = Session(spec).run().series

    session = Session(spec)
    simulator = session.build_campaign(session.build_datapath()).build_simulator()
    simulator.start()
    while simulator.t < simulator.duration:
        simulator.step()
    got = simulator.result().series

    assert got.columns == want.columns
    assert got.rows == want.rows
