"""``DatapathConfig``: engine × shards × runtime, one ``build()``.

Two contracts: every cell of the config product is observationally
the scalar inline datapath of the same shard count, and every shipped
preset keeps resolving to the datapath pinned for it, on the engine the
platform picks for ``ovs``.
"""

import dataclasses
import warnings

import pytest

import repro.vec
from repro.fleet import FLEETS
from repro.obs import mask_census
from repro.ovs.pmd import shard_views
from repro.ovs.switch import OvsSwitch
from repro.perf.factory import BACKENDS, PROFILES, RUNTIMES, DatapathConfig
from repro.scenario import SCENARIOS, ScenarioSpec, Session
from repro.vec import HAVE_NUMPY

if HAVE_NUMPY:
    from repro.vec.engine import VecSwitch

requires_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                    reason="numpy not installed")
#: every engine class the ``ovs`` backend can run, built by class
ENGINES = (OvsSwitch, VecSwitch) if HAVE_NUMPY else (OvsSwitch,)


@pytest.fixture(scope="module")
def k8s():
    """The 512-mask Kubernetes surface: space, compiled rules, covert
    keys."""
    session = Session(ScenarioSpec(surface="k8s"))
    rules = session.surface.compile_rules(
        session.policy, session.target, session.space
    )
    keys = session.surface.covert_keys(
        session.dimensions, session.target, session.space
    )
    return session.space, rules, keys


def _replay(config, switch_cls, rules, keys):
    """Three laps of the covert set (install, then two revisit laps),
    aggregate-only — the one result mode every runtime serves."""
    datapath = config._assemble(switch_cls)
    try:
        datapath.add_rules(rules)
        for lap in range(3):
            datapath.process_batch(keys, now=0.1 * (lap + 1),
                                   materialize=False)
        return (dataclasses.asdict(datapath.stats), mask_census(datapath),
                datapath.megaflow_count)
    finally:
        close = getattr(datapath, "close", None)
        if close is not None:
            close()


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("engine", ENGINES, ids=lambda cls: cls.__name__)
def test_every_cell_matches_the_scalar_inline_cell(k8s, engine, shards,
                                                   runtime):
    space, rules, keys = k8s
    reference = DatapathConfig(PROFILES.get("kernel"), space=space,
                               name="cell", shards=shards, seed=7)
    cell = dataclasses.replace(reference, runtime=runtime)
    observed = _replay(cell, engine, rules, keys)
    assert observed == _replay(reference, OvsSwitch, rules, keys)
    assert observed[1][1] == 512  # the covert set exploded the masks


def _presets():
    """Every scenario preset and every fleet preset's node scenario."""
    specs = dict(SCENARIOS.items())
    specs.update((name, fleet.scenario) for name, fleet in FLEETS.items())
    return specs


#: (switch class, shards, wrapper type) per preset with NumPy
#: installed — a preset that silently changes engine, shard count or
#: wrapper fails.  Every cached preset runs the columnar engine; without
#: NumPy, ``VecSwitch`` reads ``OvsSwitch``
PINNED = {
    "fig2": ("VecSwitch", 1, "VecSwitch"),
    "fig3": ("VecSwitch", 1, "VecSwitch"),
    "prefix8": ("VecSwitch", 1, "VecSwitch"),
    "k8s": ("VecSwitch", 1, "VecSwitch"),
    "openstack": ("VecSwitch", 1, "VecSwitch"),
    "calico": ("VecSwitch", 1, "VecSwitch"),
    "calico-netdev": ("VecSwitch", 1, "VecSwitch"),
    "calico-staged": ("VecSwitch", 1, "VecSwitch"),
    "calico-ranked": ("VecSwitch", 1, "VecSwitch"),
    "calico-netdev-ranked": ("VecSwitch", 1, "VecSwitch"),
    "calico-sharded": ("VecSwitch", 4, "ShardedDatapath"),
    "calico-vec": ("VecSwitch", 1, "VecSwitch"),
    "calico-netdev-pmd4": ("VecSwitch", 4, "ShardedDatapath"),
    "calico-netdev-pmd4-alb": ("VecSwitch", 4, "ShardedDatapath"),
    "k8s-deepscan": ("VecSwitch", 1, "VecSwitch"),
    "k8s-serve": ("VecSwitch", 4, "ShardedDatapath"),
    "spread-campaign": ("VecSwitch", 4, "ShardedDatapath"),
    "calico-cacheless": ("CachelessDatapath", 1, "CachelessDatapath"),
    "calico-mask-limit": ("VecSwitch", 1, "VecSwitch"),
    "calico-rate-limit": ("VecSwitch", 1, "VecSwitch"),
    "calico-prefix-rounding": ("VecSwitch", 1, "VecSwitch"),
    "calico-detector": ("VecSwitch", 1, "VecSwitch"),
    "fleet-rolling16": ("VecSwitch", 1, "VecSwitch"),
    "fleet-coordinated4": ("VecSwitch", 1, "VecSwitch"),
    "fleet-staggered8": ("VecSwitch", 1, "VecSwitch"),
    "fleet-quarantine8": ("VecSwitch", 1, "VecSwitch"),
    "fleet-guarded8": ("VecSwitch", 1, "VecSwitch"),
    "fleet-spread4": ("VecSwitch", 2, "ShardedDatapath"),
}


@pytest.mark.parametrize("have_numpy", [
    pytest.param(True, marks=requires_numpy), False,
], ids=["numpy", "no-numpy"])
def test_the_platform_picks_the_engine(monkeypatch, have_numpy):
    """Every preset resolves as pinned, on the engine the platform
    picks: the columnar one where NumPy imports, the scalar one where
    it does not — silently, as the results are bit-identical."""
    monkeypatch.setattr(repro.vec, "HAVE_NUMPY", have_numpy)
    engine = "VecSwitch" if have_numpy else "OvsSwitch"
    resolved = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, spec in _presets().items():
            datapath = Session(spec).build_datapath()
            views = shard_views(datapath)
            resolved[name] = (type(views[0]).__name__, len(views),
                              type(datapath).__name__)
    assert resolved == {
        name: tuple(engine if part == "VecSwitch" else part
                    for part in pinned)
        for name, pinned in PINNED.items()
    }
    assert BACKENDS.get("ovs")().__name__ == engine
