"""RETA dispatch is one implementation (``ovs/pmd.py``'s
``RetaDispatcher``) that both runtimes inherit, over one steering hash
that the key carries (``FlowKey.rss``).

A second ``rss_hash(packed & mask)``, a second copy of the steering
mask, of the rule broadcast or of a merged observable is a second
implementation of one spec: it can only be held to the first by an
equivalence test, and drifts the day that test is not extended.
"parallel ≡ serial dispatch" is true here by construction, and this
file keeps it so.
"""

import ast
import inspect
from pathlib import Path

import pytest

from repro.flow.fields import OVS_FIELDS, RSS_FIELDS
from repro.ovs.pmd import PmdRebalancer, RetaDispatcher, ShardedDatapath
from repro.ovs.megaflow import MegaflowCache
from repro.ovs.revalidator import Revalidator
from repro.ovs.switch import OvsSwitch
from repro.ovs.tss import TupleSpaceSearch
from repro.runtime.parallel import ParallelDatapath
from repro.vec import HAVE_NUMPY

SRC = Path(__file__).resolve().parent.parent.parent / "src"

#: what the dispatcher shares; a runtime restating one has forked it
SHARED = (
    "shard_of", "_split", "_fold",
    "add_rule", "add_rules", "remove_tenant_rules", "invalidate_caches",
    "stats", "shard_mask_counts", "mask_count", "total_mask_count",
    "megaflow_count", "tss_lookups", "expected_scan_depth", "rule_count",
)


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(
            path.read_text(encoding="utf-8")
        )


def _named(node, name):
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def test_the_steering_hash_has_one_call_site():
    """The product takes the scalar hash in one place, the key's own
    derivation of ``rss`` (the block extractor's NumPy fold is held to
    it by a property); only the test-only oracles may call it too."""
    sites = [
        f"{rel}:{node.lineno}"
        for rel, tree in _trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _named(node.func, "rss_hash")
    ]
    product = [site for site in sites
               if not site.startswith("repro/testing/")]
    assert len(product) == 1 and product[0].startswith(
        "repro/flow/key.py"), sites


def test_the_steering_rule_lives_on_the_field_space():
    """The mask is the key layout's, built once on ``FieldSpace`` from
    ``RSS_FIELDS``: no dispatcher holds one, and nothing else spells
    the steering fields."""
    def sites(name, node_types):
        return sorted({
            rel for rel, tree in _trees() for node in ast.walk(tree)
            if isinstance(node, node_types) and any(
                _named(target, name) for target in (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
            )
        })

    assigns = (ast.Assign, ast.AnnAssign)
    assert sites("rss_mask", assigns) == ["repro/flow/fields.py"]
    assert sites("RSS_FIELDS", assigns) == ["repro/flow/fields.py"]
    assert sites("_rss_mask", assigns) == []
    assert OVS_FIELDS.rss_mask == OVS_FIELDS.pack(tuple(
        spec.max_value if spec.name in RSS_FIELDS else 0
        for spec in OVS_FIELDS
    ))


@pytest.mark.parametrize("runtime", [ShardedDatapath, ParallelDatapath])
def test_runtimes_inherit_the_shared_surface(runtime):
    assert issubclass(runtime, RetaDispatcher)
    restated = [name for name in SHARED if name in vars(runtime)]
    assert not restated, restated
    assert all(name in vars(RetaDispatcher) for name in SHARED)


def test_traced_entry_points_are_own_attributes():
    """The benchmark's tracer patches ``vars(owner)[attr]``: a method
    it wraps must be defined on the class it names, not inherited."""
    for name in ("process_batch", "start", "close"):
        assert name in vars(ParallelDatapath), name
    assert "process_batch" in vars(ShardedDatapath)


def test_only_the_lifecycle_and_the_overlapped_rounds_ask_about_workers():
    tree = ast.parse(inspect.getsource(ParallelDatapath))
    readers = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if _named(node, "_procs") or _named(node, "started")
    }
    assert readers <= {"__init__", "started", "start", "close",
                       "process_batch", "observe", "__repr__"}, readers


def test_constructors_take_no_dead_knobs():
    """The auto-lb has one knob, its interval; the revalidator has
    none — it sweeps on its module constant and re-sorts every sweep,
    the tuple space's only re-sort, so no layer under the switch takes
    a re-sort cadence either."""
    def knobs(cls):
        return set(inspect.signature(cls.__init__).parameters) - {"self"}

    common = {"space", "shard_factory", "shards", "name", "reta_size"}
    assert knobs(ParallelDatapath) == common
    assert knobs(ShardedDatapath) == common | {"rebalance_interval"}
    assert knobs(PmdRebalancer) == {"datapath", "interval"}
    assert knobs(Revalidator) == {"cache", "microflow"}
    assert knobs(OvsSwitch) == {
        "space", "name", "flow_limit", "idle_timeout", "emc_entries",
        "emc_ways", "emc_insertion_prob", "staged_lookup", "scan_order",
        "rng",
    }
    assert knobs(MegaflowCache) == {
        "space", "flow_limit", "idle_timeout", "staged", "scan_order",
    }
    assert knobs(TupleSpaceSearch) == {"space", "staged", "scan_order"}
    if HAVE_NUMPY:
        from repro.vec.engine import VecTupleSpaceSearch

        assert knobs(VecTupleSpaceSearch) == knobs(TupleSpaceSearch)
