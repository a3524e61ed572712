"""``DatapathConfig``: engine × shards × runtime, one ``build()``.

Two contracts: every cell of the config product is observationally the
scalar inline datapath of the same shard count, and every shipped
preset keeps resolving to the datapath it always built.
"""

import dataclasses

import pytest

from repro.fleet import FLEETS
from repro.obs import mask_census
from repro.ovs.pmd import shard_views
from repro.perf.factory import PROFILES, RUNTIMES, DatapathConfig
from repro.scenario import SCENARIOS, ScenarioSpec, Session
from repro.vec import HAVE_NUMPY

ENGINES = ["ovs", pytest.param("ovs-vec", marks=pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed"))]


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


def _replay(config, rules, keys):
    """Three laps of the covert set (install, then two revisit laps),
    aggregate-only — the one result mode every runtime serves."""
    datapath = config.build()
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
@pytest.mark.parametrize("engine", ENGINES)
def test_every_cell_matches_the_scalar_inline_cell(k8s, engine, shards,
                                                   runtime):
    space, rules, keys = k8s
    reference = DatapathConfig(PROFILES.get("kernel"), space=space,
                               name="cell", shards=shards, seed=7)
    cell = dataclasses.replace(reference, engine=engine, runtime=runtime)
    observed = _replay(cell, rules, keys)
    assert observed == _replay(reference, rules, keys)
    assert observed[1][1] == 512  # the covert set exploded the masks


#: (switch class, shards, wrapper type) per preset, as resolved at the
#: commit before the backend axis collapsed (with NumPy installed) — a
#: preset that silently changes engine, shard count or wrapper fails
PINNED = {
    "fig2": ("OvsSwitch", 1, "OvsSwitch"),
    "fig3": ("OvsSwitch", 1, "OvsSwitch"),
    "prefix8": ("OvsSwitch", 1, "OvsSwitch"),
    "k8s": ("OvsSwitch", 1, "OvsSwitch"),
    "openstack": ("OvsSwitch", 1, "OvsSwitch"),
    "calico": ("OvsSwitch", 1, "OvsSwitch"),
    "calico-netdev": ("OvsSwitch", 1, "OvsSwitch"),
    "calico-staged": ("OvsSwitch", 1, "OvsSwitch"),
    "calico-ranked": ("OvsSwitch", 1, "OvsSwitch"),
    "calico-netdev-ranked": ("OvsSwitch", 1, "OvsSwitch"),
    "calico-sharded": ("VecSwitch", 4, "ShardedDatapath"),
    "calico-vec": ("VecSwitch", 1, "VecSwitch"),
    "calico-vec-pmd4": ("VecSwitch", 4, "ShardedDatapath"),
    "calico-netdev-pmd4": ("VecSwitch", 4, "ShardedDatapath"),
    "calico-netdev-pmd4-alb": ("VecSwitch", 4, "ShardedDatapath"),
    "k8s-deepscan": ("VecSwitch", 1, "VecSwitch"),
    "k8s-serve": ("VecSwitch", 4, "ShardedDatapath"),
    "spread-campaign": ("VecSwitch", 4, "ShardedDatapath"),
    "calico-cacheless": ("CachelessDatapath", 1, "CachelessDatapath"),
    "calico-mask-limit": ("OvsSwitch", 1, "OvsSwitch"),
    "calico-rate-limit": ("OvsSwitch", 1, "OvsSwitch"),
    "calico-prefix-rounding": ("OvsSwitch", 1, "OvsSwitch"),
    "calico-detector": ("OvsSwitch", 1, "OvsSwitch"),
    "fleet-rolling16": ("VecSwitch", 1, "VecSwitch"),
    "fleet-coordinated4": ("VecSwitch", 1, "VecSwitch"),
    "fleet-staggered8": ("VecSwitch", 1, "VecSwitch"),
    "fleet-quarantine8": ("VecSwitch", 1, "VecSwitch"),
    "fleet-guarded8": ("VecSwitch", 1, "VecSwitch"),
    "fleet-spread4": ("VecSwitch", 2, "ShardedDatapath"),
}


@pytest.mark.skipif(not HAVE_NUMPY, reason="the pins assume numpy")
def test_every_preset_resolves_as_pinned():
    specs = dict(SCENARIOS.items())
    specs.update((name, fleet.scenario) for name, fleet in FLEETS.items())
    resolved = {}
    for name, spec in specs.items():
        datapath = Session(spec).build_datapath()
        views = shard_views(datapath)
        resolved[name] = (type(views[0]).__name__, len(views),
                          type(datapath).__name__)
    assert resolved == PINNED
