"""Tests for the monotonic-clock contract and the stats snapshot.

Regressions fixed in PR 2: ``process(..., now=...)`` / ``process_batch``
silently moved the switch clock *backwards* on a stale ``now`` — which
un-expired idle accounting and skewed the revalidator — and
``SwitchStats.snapshot()`` omitted ``avg_tuples_per_megaflow_lookup``,
forcing CSV consumers to re-derive it inconsistently."""

import pytest

from repro.flow.actions import Allow, Drop
from repro.flow.fields import toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.ovs.revalidator import SWEEP_INTERVAL, Revalidator
from repro.ovs.switch import OvsSwitch
from repro.defense.cacheless import CachelessDatapath


def _toy_switch(**kwargs):
    space = toy_single_field_space()
    switch = OvsSwitch(space=space, **kwargs)
    switch.add_rules(
        [
            FlowRule(FlowMatch(space, {"ip_src": (0b00001010, 0xFF)}),
                     Allow(), priority=10),
            FlowRule(FlowMatch.wildcard(space), Drop(), priority=0),
        ]
    )
    return space, switch


class TestMonotonicClock:
    def test_process_clamps_stale_now(self):
        space, switch = _toy_switch()
        switch.process(FlowKey(space, {"ip_src": 1}), now=10.0)
        switch.process(FlowKey(space, {"ip_src": 2}), now=5.0)
        assert switch.clock == 10.0

    def test_process_batch_clamps_stale_now(self):
        space, switch = _toy_switch()
        switch.process_batch([FlowKey(space, {"ip_src": 1})], now=20.0)
        switch.process_batch([FlowKey(space, {"ip_src": 2})], now=3.0)
        assert switch.clock == 20.0

    def test_advance_clock_clamps(self):
        space, switch = _toy_switch()
        switch.advance_clock(30.0)
        switch.advance_clock(1.0)
        assert switch.clock == 30.0

    def test_stale_now_does_not_unexpire_idle_accounting(self):
        """The original bug: a stale `now` rewound the clock, making
        idle entries look fresh to the next revalidator sweep."""
        space, switch = _toy_switch()
        result = switch.process(FlowKey(space, {"ip_src": 1}), now=0.0)
        entry = result.entry
        assert entry is not None
        # a stale timestamp must not rewind the entry's idle window
        switch.process(FlowKey(space, {"ip_src": 1}), now=9.0)
        switch.process(FlowKey(space, {"ip_src": 1}), now=2.0)
        assert entry.last_used == 9.0
        assert switch.clock == entry.last_used  # idle for 0 s

    def test_revalidator_sweep_time_never_rewinds(self):
        space, switch = _toy_switch()
        switch.advance_clock(5.0)
        sweep_at = switch.revalidator.last_sweep
        switch.process(FlowKey(space, {"ip_src": 3}), now=0.5)
        assert switch.revalidator.last_sweep >= sweep_at

    def test_cacheless_datapath_clock_is_monotonic(self):
        space = toy_single_field_space()
        datapath = CachelessDatapath(space)
        datapath.add_rules(
            [FlowRule(FlowMatch.wildcard(space), Drop(), priority=0)]
        )
        datapath.process(FlowKey(space, {"ip_src": 1}), now=7.0)
        datapath.process(FlowKey(space, {"ip_src": 1}), now=2.0)
        assert datapath.clock == 7.0
        datapath.advance_clock(1.0)
        assert datapath.clock == 7.0


class TestSweepCadence:
    """The revalidator cadence bugfix: ``maybe_sweep`` aligns
    ``last_sweep`` to the sweep-interval grid, so the sweep count (and
    with it the ranked re-sort rhythm) is a function of simulated time
    — not of when callers happened to check."""

    def _reval(self):
        space, switch = _toy_switch()
        return Revalidator(switch.megaflow)

    def test_off_grid_call_does_not_phase_shift_the_cadence(self):
        # the original bug: a call at t=0.7 set last_sweep=0.7, pushing
        # the next sweep to >= 1.2 even though the grid owed one at 1.0
        reval = self._reval()
        reval.maybe_sweep(0.7)
        assert reval.sweeps == 1
        assert reval.last_sweep == 0.5  # snapped to the grid
        reval.maybe_sweep(1.05)
        assert reval.sweeps == 2
        assert reval.last_sweep == 1.0

    def test_sweep_count_is_call_pattern_independent(self):
        sparse = self._reval()
        for now in (0.7, 1.05, 1.6, 2.1):
            sparse.maybe_sweep(now)
        dense = self._reval()
        for tick in range(22):
            dense.maybe_sweep(tick * 0.1)
        assert sparse.sweeps == dense.sweeps == 4

    def test_idle_gap_yields_one_sweep_on_the_grid(self):
        reval = self._reval()
        reval.maybe_sweep(10.3)  # a long idle gap, checked off-grid
        assert reval.sweeps == 1
        assert reval.last_sweep == 10.0  # grid-aligned, not 10.3
        assert reval.maybe_sweep(10.4) == 0 and reval.sweeps == 1
        reval.maybe_sweep(10.5)
        assert reval.sweeps == 2

    def test_unconditional_sweep_keeps_its_semantics(self):
        reval = self._reval()
        reval.sweep(0.7)  # explicit sweeps still stamp the exact time
        assert reval.last_sweep == 0.7

    def test_resort_cadence_follows_simulated_time(self):
        """Re-sorts ride grid sweeps: the same simulated span re-sorts
        the same number of times under any call pattern."""
        space = toy_single_field_space()

        def run(times):
            switch = OvsSwitch(space=space, scan_order="ranked")
            for now in times:
                switch.advance_clock(now)
            return switch.revalidator.sweeps

        assert run([0.7, 1.05, 1.6, 2.1]) == run(
            [tick * 0.1 for tick in range(22)]
        )

    def test_a_ranked_switch_resorts_on_every_sweep(self):
        """One re-sort per sweep, and no knob to thin them out."""
        space = toy_single_field_space()
        switch = OvsSwitch(space=space, scan_order="ranked")
        for tick in range(1, 12):
            switch.advance_clock(tick * SWEEP_INTERVAL)
            assert switch.megaflow.tss.resorts == switch.revalidator.sweeps
        assert switch.revalidator.sweeps == 11
        with pytest.raises(TypeError, match="resort_every_sweeps"):
            OvsSwitch(space=space, scan_order="ranked",
                      resort_every_sweeps=2)


class TestStatsSnapshot:
    def test_snapshot_exports_avg_tuples_per_megaflow_lookup(self):
        space, switch = _toy_switch()
        key = FlowKey(space, {"ip_src": 7})
        switch.process(key)  # upcall: scans, installs
        switch.microflow.flush()
        switch.process(key)  # megaflow hit: scans again
        snap = switch.stats.snapshot()
        assert "avg_tuples_per_megaflow_lookup" in snap
        assert snap["avg_tuples_per_megaflow_lookup"] == pytest.approx(
            switch.stats.avg_tuples_per_megaflow_lookup
        )
        assert snap["avg_tuples_per_megaflow_lookup"] > 0

    def test_snapshot_consistent_with_raw_counters(self):
        space, switch = _toy_switch()
        for value in range(16):
            switch.process(FlowKey(space, {"ip_src": value}))
        snap = switch.stats.snapshot()
        lookups = snap["megaflow_hits"] + snap["upcalls"]
        assert snap["avg_tuples_per_megaflow_lookup"] == pytest.approx(
            snap["tuples_scanned"] / lookups
        )
