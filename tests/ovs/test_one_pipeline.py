"""The burst pipeline is one implementation, in the reference classes.

Answer → consume → credit (``ovs/tss.py``) and walk → upcall
(``ovs/switch.py``, the walk serving every EMC hit) each exist once;
``repro.vec`` decides only *where the answers come from* and is pure.
A second consume loop, credit step, burst walk or counter fold is a
second implementation of one spec: it can only be held to the first by
an equivalence matrix, and drifts the day that matrix is not extended.
"vec ≡ scalar bookkeeping" is true here by construction, and this file
keeps it so.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.ovs.megaflow import MegaflowCache
from repro.ovs.stats import SwitchStats
from repro.ovs.switch import BatchResult, OvsSwitch
from repro.vec import HAVE_NUMPY

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"

#: the stateful half of the pipeline: written once, under ``ovs/``
STATEFUL = {
    "_consume": "ovs/tss.py",
    "_credit": "ovs/tss.py",
    "_resolve": "ovs/switch.py",
    "_finish_upcall": "ovs/switch.py",
}
#: the forks this replaced, the lookup-count re-sort trigger with its
#: burst cap (the revalidator's sweep is the one re-sort), the run
#: drain with its chunk window (the burst is one walk), and the second
#: EMC-hit fold with its read-only prefix probe (the walk serves every
#: hit) — gone, under any spelling
RETIRED = ("_finish_microflow_hit", "_finish_megaflow_hit",
           "_resolve_absent", "_resolve_mixed", "_capped",
           "_lookups_since_resort", "resort_interval", "resort_subtables",
           "_flush_run", "_batch_window", "MAX_BATCH_WINDOW",
           "_serve_emc_hits", "lookup_hits")
#: counters the reference classes own: nothing under ``vec/`` adds to one
REFERENCE_COUNTERS = (
    {spec.name for spec in dataclasses.fields(SwitchStats)}
    | {spec.name for spec in dataclasses.fields(BatchResult)}
    | {"lookups", "total_lookups", "total_tuples_scanned",
       "total_hash_probes", "hits", "rank_hits"}
)


def _trees(sub=""):
    for path in sorted((SRC / sub).rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(
            path.read_text(encoding="utf-8")
        )


def _functions(tree):
    """``(qualified name, node)`` for every function in a module."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if isinstance(child, ast.FunctionDef):
                    yield name, child
                yield from walk(child, f"{name}.")
    return walk(tree, "")


def _calls(node, name):
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, (ast.Name, ast.Attribute))
        and (getattr(call.func, "id", None) == name
             or getattr(call.func, "attr", None) == name)
    ]


def test_each_stateful_step_is_defined_once_in_the_reference():
    where = {name: [] for name in STATEFUL}
    for rel, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in where:
                where[node.name].append(rel)
    assert where == {name: [rel] for name, rel in STATEFUL.items()}


def test_the_retired_forks_are_gone_under_any_name():
    mentions = [
        f"{rel}:{node.lineno}"
        for rel, tree in _trees() for node in ast.walk(tree)
        if getattr(node, "name", None) in RETIRED
        or getattr(node, "attr", None) in RETIRED
        or getattr(node, "arg", None) in RETIRED  # a parameter or keyword
    ]
    assert not mentions, mentions


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_the_vec_classes_restate_no_pipeline_step():
    from repro.vec.engine import VecSwitch, VecTupleSpaceSearch

    restated = [
        name for name in vars(VecSwitch)
        if name.startswith(("_resolve", "_finish_"))
    ]
    assert not restated, restated
    # named on the class for the benchmark's tracer, and only named: the
    # burst is the inherited walk's, EMC hits included
    assert vars(VecSwitch)["process_batch"] is OvsSwitch.process_batch
    # a direct caller's burst takes the inherited lookup too: the scan
    # memo is the one columnar answer
    assert not {"lookup_batch", "_consume", "_credit", "_missed"} & set(
        vars(VecTupleSpaceSearch))


def test_the_walk_and_the_look_ahead_alone_hand_over_a_burst():
    """A burst's rest reaches the pre-scan from two places: the walk,
    at its first question to the tuple space, and the look-ahead behind
    a burst's own installs.  No datapath pre-scans a burst of its own."""
    callers = sorted({
        f"{rel}:{qualified}"
        for rel, tree in _trees()
        for qualified, node in _functions(tree)
        if _calls(node, "prescan_burst")
    })
    assert callers == ["ovs/switch.py:OvsSwitch._resolve",
                       "vec/engine.py:VecTupleSpaceSearch._ahead"]


def test_only_the_tuple_space_touches_its_scan_memo():
    """What the scan memo keeps or drops is decided in one class: no
    code outside ``VecTupleSpaceSearch`` — ``VecSwitch`` included —
    reads or writes a ``_memo*`` attribute."""
    inside, outside = 0, []
    for rel, tree in _trees():
        owner = {
            id(node)
            for cls in ast.walk(tree)
            if rel == "vec/engine.py" and isinstance(cls, ast.ClassDef)
            and cls.name == "VecTupleSpaceSearch"
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_memo")):
                if id(node) in owner:
                    inside += 1
                else:
                    outside.append(f"{rel}:{node.lineno} {node.attr}")
    assert not outside, outside
    assert inside  # the memo is still there, in its one home


def test_vec_builds_only_hit_answers_and_writes_no_reference_counter():
    """``repro.vec`` may build a hit's ``TssLookupResult`` — a scan's
    answer is the result ``_consume`` passes through — but no
    ``PacketResult`` and no miss (the test below), and it adds to no
    counter the reference classes own.  Credit is one summed step,
    defined in ``ovs/tss.py`` and called only under ``ovs/``."""

    built, written = [], []
    for rel, tree in _trees("vec"):
        built += [f"{rel}:{call.lineno} PacketResult("
                  for call in _calls(tree, "PacketResult")]
        written += [
            f"{rel}:{node.lineno} {node.target.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Attribute)
            and node.target.attr in REFERENCE_COUNTERS
        ]
    assert not built, built
    assert not written, written
    callers = sorted({
        f"{rel}:{qualified}"
        for rel, tree in _trees() if not rel.startswith("testing/")
        for qualified, node in _functions(tree) if _calls(node, "_credit")
    })
    assert callers == ["ovs/switch.py:OvsSwitch._resolve",
                       "ovs/tss.py:TupleSpaceSearch._consume"]


def test_a_miss_result_is_built_by_the_oracle_and_the_one_builder():
    """``TssLookupResult(None, …)`` — a TSS miss — comes from the
    per-key oracle the differential machine's reference scans and from
    ``_missed``, nowhere else: a single-key ``lookup`` is the one-key
    burst, so the reference class keeps no second scan loop."""
    builders = sorted(
        qualified
        for _rel, tree in _trees() for qualified, node in _functions(tree)
        if any(
            call.args and isinstance(call.args[0], ast.Constant)
            and call.args[0].value is None
            for call in _calls(node, "TssLookupResult")
        )
    )
    assert builders == ["TupleKeyedSearch.lookup",
                        "TupleSpaceSearch._missed"]


def test_the_tuple_space_keeps_no_per_key_accounting():
    """The burst's summed accounting in ``_consume`` is the only one;
    the per-key ``_account`` lives with the oracle's per-key scan."""
    from repro.ovs.tss import TupleSpaceSearch
    from repro.testing.oracles import TupleKeyedSearch

    assert not hasattr(TupleSpaceSearch, "_account")
    assert "_account" in vars(TupleKeyedSearch)


def test_one_process_body_besides_the_parallel_refusal():
    """``process(key_or_packet)`` is written once, on ``OvsSwitch``, and
    every other in-process datapath shares it; the only other body is
    ``ParallelDatapath``'s refusal (the protocol's stub has none)."""
    from repro.ovs.pmd import ShardedDatapath
    from repro.defense.cacheless import CachelessDatapath

    bodies = sorted(
        f"{rel}:{qualified}"
        for rel, tree in _trees() for qualified, node in _functions(tree)
        if node.name == "process"
        and [arg.arg for arg in node.args.args][1:2] == ["key_or_packet"]
        and not (len(node.body) == 1
                 and isinstance(node.body[0], ast.Expr)
                 and isinstance(node.body[0].value, ast.Constant)
                 and node.body[0].value.value is Ellipsis)
    )
    assert bodies == ["ovs/switch.py:OvsSwitch.process",
                      "runtime/parallel.py:ParallelDatapath.process"]
    assert ShardedDatapath.process is OvsSwitch.process
    assert CachelessDatapath.process is OvsSwitch.process


def test_batch_result_has_one_counter_fold():
    methods = {name for name, member in vars(BatchResult).items()
               if callable(member) and not name.startswith("__")}
    assert methods == {"tally"}
    assert issubclass(BatchResult, SwitchStats)


def _writes_a_stats_counter(target, counters):
    """``stats.<counter>`` or ``<anything>.stats.<counter>``."""
    return (
        isinstance(target, ast.Attribute) and target.attr in counters
        and (getattr(target.value, "id", None) == "stats"
             or getattr(target.value, "attr", None) == "stats")
    )


def test_only_the_stats_module_writes_a_switch_stats_counter():
    """A burst counts into its ``BatchResult`` and nowhere else; the
    datapath adds it to ``stats`` once per burst, through
    ``SwitchStats.add``.  No function outside ``ovs/stats.py`` assigns
    or adds to a ``SwitchStats`` counter of a ``stats`` object."""
    counters = {spec.name for spec in dataclasses.fields(SwitchStats)}
    written = sorted({
        f"{rel}:{node.lineno} {qualified}"
        for rel, tree in _trees() if rel != "ovs/stats.py"
        for qualified, function in _functions(tree)
        for node in ast.walk(function)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
        for attribute in ast.walk(target)
        if _writes_a_stats_counter(attribute, counters)
    })
    assert not written, written
    assert not hasattr(SwitchStats, "record_scan")


def test_traced_entry_points_are_own_attributes():
    """The benchmark's tracer patches ``vars(owner)[attr]``: a method
    it wraps must be defined on the class it names, not inherited."""
    assert "process_batch" in vars(OvsSwitch)
    assert "lookup_batch" in vars(MegaflowCache)
    if HAVE_NUMPY:
        from repro.vec.engine import VecSwitch

        assert "process_batch" in vars(VecSwitch)
