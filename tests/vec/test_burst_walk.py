"""A burst is one walk: on the bursty victim feed behind 512 injected
masks, a burst credits the megaflow layer once per stretch between two
upcalls — at most once per upcall, plus once at its end — and offers
the EMC exactly the inserts the per-key reference offers, while every
``BatchResult`` counter equals the reference's."""

import dataclasses
import sys
from collections import Counter
from pathlib import Path
from types import MethodType

import pytest

from repro.ovs.microflow import MicroflowCache
from repro.ovs.stats import SwitchStats
from repro.ovs.switch import OvsSwitch
from repro.perf.factory import switch_for_profile
from repro.testing import oracles
from repro.vec import HAVE_NUMPY

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

PIPELINE = Path(__file__).resolve().parents[2] / "benchmarks" / "pipeline"
COUNTERS = [spec.name for spec in dataclasses.fields(SwitchStats)]


@pytest.fixture(scope="module")
def victim(tmp_path_factory):
    """The ``victim-onoff-attacked`` workload's tiny inputs."""
    sys.path.insert(0, str(PIPELINE))
    try:
        from spans import NULL_TRACER
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(PIPELINE))
    workload = WORKLOADS["victim-onoff-attacked"]
    inputs = workload.generate(1, workload.tiny, tmp_path_factory.mktemp("w"),
                               NULL_TRACER)
    return workload, inputs, NULL_TRACER


def test_each_burst_credits_once_per_stretch_as_the_reference_does(
        victim, monkeypatch):
    workload, inputs, tracer = victim
    spec = inputs["session"].spec
    reference = switch_for_profile(
        inputs["session"].profile, space=inputs["session"].space,
        name="reference", seed=spec.seed, switch_cls=OvsSwitch,
    )
    reference._resolve = MethodType(oracles.resolve_per_key, reference)
    sut = workload.prepare(inputs, tracer)["datapath"]
    workload.prepare(inputs, tracer, datapath=reference)
    assert type(sut).__name__ == "VecSwitch" and sut.mask_count == 512

    inserts = Counter()
    insert = MicroflowCache.insert

    def counted_insert(emc, *args):
        inserts[emc] += 1
        return insert(emc, *args)

    monkeypatch.setattr(MicroflowCache, "insert", counted_insert)
    tss = sut.megaflow.tss
    credit = tss._credit
    credits = []
    # one entry per ``_credit`` call: the lookups its pairs stand for
    monkeypatch.setattr(tss, "_credit", lambda *args: credits.append(
        sum(count for _answer, count in args[0])) or credit(*args))
    walked = 0
    for now, burst in inputs["bursts"]:
        credits.clear()
        got = sut.process_batch(burst, now=now, materialize=False)
        want = reference.process_batch(burst, now=now, materialize=False)
        assert [getattr(got, name) for name in COUNTERS] == \
            [getattr(want, name) for name in COUNTERS], now
        assert len(credits) <= got.upcalls + 1, now
        assert sum(credits) == got.megaflow_hits, now
        assert inserts[sut.microflow] == inserts[reference.microflow], now
        walked += got.megaflow_hits > 1
    # the feed exercises what it is for: megaflow hits in most bursts,
    # each burst's credited in one step
    assert walked > len(inputs["bursts"]) // 2
    assert sut.stats.upcalls == reference.stats.upcalls
