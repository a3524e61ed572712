"""One assembly, one series: a campaign stepped by hand from its
Session runs exactly what ``Session.run()`` runs.

``session.simulator(datapath)`` is how a caller that steps the
simulator itself assembles a run.  ``Session.run()`` is that simulator
run to the end, so the two series must be equal row for row — for
every campaign preset, on the step-driven path (``start`` / ``step`` /
``result``) as well as ``run``.  The shortened timeline keeps the
detector's response (20 s after the attack starts) inside the run.

Both sides share ``simulator``, so a fault inside it (a dropped defense
event, say) agrees with itself here; the golden record
(``tests/test_golden.py``) and the defense tests hold its content.
"""

import pytest

from repro.scenario.presets import SCENARIOS
from repro.scenario.session import Session

CAMPAIGNS = [name for name in SCENARIOS.names()
             if Session(name).surface.is_campaign]


def _short(name):
    return SCENARIOS.get(name).evolve(duration=40.0, attack_start=10.0)


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_a_stepped_campaign_runs_the_session_series(name):
    spec = _short(name)
    want = Session(spec).run().series

    session = Session(spec)
    simulator = session.simulator(session.build_datapath())
    simulator.start()
    while simulator.t < simulator.duration:
        simulator.step()
    got = simulator.result().series

    assert got.columns == want.columns
    assert got.rows == want.rows


def test_build_campaign_is_simulator_on_the_given_datapath():
    """The pipeline benchmark's spelling,
    ``build_campaign(datapath).build_simulator()``, assembles on the
    caller's datapath and runs the session's series."""
    spec = _short("calico-detector")
    want = Session(spec).run().series

    session = Session(spec)
    datapath = session.build_datapath()
    simulator = session.build_campaign(datapath).build_simulator()
    assert simulator.switch is datapath
    assert simulator.run().series.rows == want.rows
