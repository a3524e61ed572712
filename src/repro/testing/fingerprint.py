"""The one by-value comparator: everything the bit-identity claim covers,
as plain data two runs can be compared by.

Two inline datapaths (and the simulators driving them) that went
through the same operations must have equal fingerprints, whatever
engine answered their lookups.  Entries are compared by value — match,
packed form, action, hits, times — so the two sides never need to share
an object, and floats that accumulate (``rank_hits``, charged cycles,
the series) are compared by ``float.hex``.

A run compared with a *committed* record goes by digest instead:
:func:`result_digest` is what ``tests/golden/`` holds per preset and
seed.
"""

from __future__ import annotations

import hashlib

from repro.ovs.megaflow import MegaflowEntry
from repro.ovs.pmd import shard_views


def entry_view(entry: MegaflowEntry) -> tuple:
    """A megaflow entry by value."""
    match = entry.match
    return (match.masks, match.values, match.packed, entry.action,
            entry.created_at, entry.last_used, entry.hits, entry.tenant,
            entry.alive)


def _shard(switch) -> dict:
    tss = switch.megaflow.tss
    cache = switch.megaflow
    emc = switch.microflow
    revalidator = switch.revalidator
    slow_path = switch.slow_path
    return {
        "clock": switch.clock,
        "rules": (switch.table.version, len(switch.table)),
        "pvector": [(subtable.masks, subtable.hits,
                     float(subtable.rank_hits).hex(), len(subtable))
                    for subtable in tss.subtables()],
        "tss": (tss.total_lookups, tss.total_tuples_scanned,
                tss.total_hash_probes, tss.resorts),
        "megaflows": [entry_view(entry) for entry in cache.entries()],
        "cache": (cache.inserts, cache.rejected_inserts, cache.expired_total),
        "emc": [(index, [(slot.key.values, slot.last_used,
                          entry_view(slot.entry)) for slot in bucket])
                for index, bucket in enumerate(emc._sets) if bucket],
        "emc_counters": (emc.lookups, emc.hits, emc.insertions,
                         emc.evictions, emc.stale_hits),
        "revalidator": (revalidator.last_sweep, revalidator.sweeps,
                        revalidator.evicted_total),
        "slow_path": (slow_path.upcalls, slow_path.installs,
                      slow_path.installs_skipped),
    }


def _simulator(sim) -> dict:
    return {
        "t": sim.t,
        "cursor": sim._covert_cursor,
        "reprobes": sim.reprobes,
        "covert_keys": [key.packed for key in sim.covert_keys],
        "ledger": sorted(
            (shard, key.packed, entry_view(entry))
            for (shard, key), entry in sim._attacker_entries.items()
        ),
        "victims": sorted(
            (key.packed, entry_view(entry))
            for key, entry in sim._victim_entries.items()
        ),
        "series": [[float(value).hex() for value in sim.series.column(name)]
                   for name in sim.series.columns],
    }


def fingerprint(datapath, sim=None) -> dict:
    """The state of an inline ``datapath`` — and, given the
    :class:`~repro.perf.simulator.DataplaneSimulator` driving it, of the
    simulator — by value.

    Built on :func:`repro.obs.export.datapath_state` minus ``vec_tss``
    (which path answered a lookup is an engine's own census, not
    state).  Per shard it adds the pvector in scan order with each
    subtable's ``hits`` and ``rank_hits``, the TSS totals, every megaflow
    entry, every EMC slot and the EMC counters, the clock, the
    revalidator's and the slow path's counts; per datapath the RETA, the
    bucket load windows and the rebalancer's counts.  With a simulator:
    its clock, the covert cursor and key list, the attacker ledger, the
    victim entries and the whole series.
    """
    # deferred: repro.obs loads NumPy (through repro.vec), and importing
    # repro.testing must not
    from repro.obs.export import datapath_state

    state = datapath_state(datapath)
    del state["vec_tss"]
    state["clock"] = datapath.clock
    state["shards"] = [_shard(shard) for shard in shard_views(datapath)]
    reta = getattr(datapath, "reta", None)
    if reta is not None:
        rebalancer = datapath.rebalancer
        state["reta"] = list(reta)
        state["buckets"] = (
            list(datapath.bucket_packets), list(datapath.bucket_tuples),
            [cycles.hex() for cycles in datapath.bucket_cycles],
        )
        state["rebalancer"] = (
            rebalancer.last_rebalance, rebalancer.rebalances,
            rebalancer.buckets_moved,
        )
    if sim is not None:
        state["sim"] = _simulator(sim)
    return state


def series_digest(series) -> str:
    """SHA-256 over a campaign's whole time series, as
    ``repr((columns, rows))``: float-exact, since ``repr`` round-trips."""
    return hashlib.sha256(
        repr((series.columns, series.rows)).encode()
    ).hexdigest()


def result_digest(result) -> str:
    """SHA-256 of one :class:`~repro.scenario.session.ScenarioResult`:
    a campaign by its series (:func:`series_digest`), a probe-mode run
    (no series) by its rendered megaflow table."""
    if result.simulation is None:
        return hashlib.sha256(result.render().encode()).hexdigest()
    return series_digest(result.series)
